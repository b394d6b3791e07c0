"""repro.obs — zero-dependency observability for the whole stack.

One opt-in switch (:func:`enable`) lights up metrics across every
layer of the reproduction; structured logging is switched separately:

* **Metrics** — :class:`Counter` / :class:`Gauge` / :class:`Histogram`
  in a process-wide, swappable :class:`ObsRegistry` with an injectable
  clock; rendered as Prometheus text (:meth:`ObsRegistry.render_prometheus`)
  or a JSON snapshot (:meth:`ObsRegistry.snapshot`).  Layers record
  through ``get_registry().counter(...)`` and friends, or let the
  registry read their own counters when scraped
  (:meth:`ObsRegistry.collect`).
* **Logging** — typed JSON-lines events on the ``repro`` logger tree,
  silent by default (:mod:`repro.obs.logs`).
* **Exposition** — an opt-in asyncio ``/metrics`` + ``/healthz``
  endpoint (:class:`MetricsEndpoint`, lazily imported so the sans-IO
  core never pulls in asyncio), and the ``repro stats`` CLI.

Disabled is the default and costs ~nothing: every accessor returns a
shared no-op instrument, and instrumented code gates its clock reads on
``registry.enabled``.  Enabling never changes wire bytes — only what is
counted (pinned by a differential test and an overhead-gate bench).

Example::

    import repro.obs as obs

    obs.enable()
    codec.encrypt(b"payload")
    print(obs.get_registry().render_prometheus())
    obs.disable()
"""

from repro.obs.core import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    NullRegistry,
    ObsRegistry,
    disable,
    enable,
    get_registry,
    set_registry,
)
from repro.obs.logs import configure_logging, log_event, reset_logging

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "ObsRegistry",
    "NullRegistry",
    "MetricsEndpoint",
    "get_registry",
    "set_registry",
    "enable",
    "disable",
    "configure_logging",
    "reset_logging",
    "log_event",
    "http_get",
]

# The HTTP endpoint imports asyncio; load it only on attribute access so
# `import repro.obs` stays inside the sans-IO import budget.
_LAZY = {"MetricsEndpoint": "repro.obs.http", "http_get": "repro.obs.http"}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(target), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
