"""Instrument primitives and the process-wide observability registry.

The paper's contribution is a *measured* throughput table; this module
is what lets the software reproduction measure itself the same way.  It
provides the three Prometheus-style instrument kinds —

* :class:`Counter` — monotonically increasing event/byte counts;
* :class:`Gauge` — instantaneous levels (active links, queue depth);
* :class:`Histogram` — fixed-bucket latency distributions with
  bucket-interpolated quantile estimates;

— owned by an :class:`ObsRegistry` that is process-wide but swappable
(:func:`get_registry` / :func:`set_registry`), carries an injectable
monotonic clock for deterministic tests, and renders itself as
Prometheus text exposition (:meth:`ObsRegistry.render_prometheus`), a
JSON-able snapshot (:meth:`ObsRegistry.snapshot`) or a human summary
(:meth:`ObsRegistry.render`).  Instrumented code records through the
current registry's accessors (``get_registry().counter(...)``) and
times a latency as the difference of two ``registry.clock()`` reads.

Facts a layer already counts (session packets, link drops, relay
sheds) are not mirrored into instruments: the registry reads the
owner's counters when scraped (:meth:`ObsRegistry.collect`).

**Disabled by default, no-ops when disabled.**  The default registry is
a :class:`NullRegistry` whose instrument accessors return shared
singletons with empty method bodies, so instrumented hot paths pay one
attribute call and nothing else — no locks, no dict lookups, no clock
reads (``registry.enabled`` gates every timing read).  Call
:func:`enable` to swap in a live :class:`ObsRegistry`;
``benchmarks/bench_obs.py`` gates the enabled-mode overhead at <= 5%
and a differential test pins that wire bytes never change either way.

This module imports no asyncio and no socket module — it sits inside
the import closure of the sans-IO :mod:`repro.link` core (enforced by
``tests/link/test_sans_io.py``); the HTTP endpoint lives separately in
:mod:`repro.obs.http`.
"""

from __future__ import annotations

import itertools
import re
import threading
import time
import weakref
from bisect import bisect_left
from collections import deque
from typing import Callable

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "ObsRegistry",
    "NullRegistry",
    "get_registry",
    "set_registry",
    "enable",
    "disable",
]

#: Default histogram buckets (seconds): spans cipher ops (~100 us) up to
#: multi-second worker-pool round trips.  Upper bounds are inclusive;
#: one implicit +Inf bucket always follows the last bound.
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValueError(
            f"metric name must match {_NAME_RE.pattern!r}, got {name!r}"
        )
    return name


def _check_labels(labels: dict) -> tuple:
    for label in labels:
        if not _LABEL_RE.match(label):
            raise ValueError(
                f"label name must match {_LABEL_RE.pattern!r}, got {label!r}"
            )
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class Counter:
    """A monotonically increasing count (events, packets, bytes)."""

    kind = "counter"
    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        #: Sorted ``(label, value)`` pairs identifying this series.
        self.labels = labels
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the count."""
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        """The current count."""
        return self._value

    def __repr__(self) -> str:
        return f"<Counter {self.name} {dict(self.labels)} = {self._value}>"


class Gauge:
    """An instantaneous level that can go up and down."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        #: Sorted ``(label, value)`` pairs identifying this series.
        self.labels = labels
        self._value = 0
        self._lock = threading.Lock()

    def set(self, value: int | float) -> None:
        """Set the level to ``value``."""
        with self._lock:
            self._value = value

    def inc(self, amount: int | float = 1) -> None:
        """Raise the level by ``amount``."""
        with self._lock:
            self._value += amount

    def dec(self, amount: int | float = 1) -> None:
        """Lower the level by ``amount``."""
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> int | float:
        """The current level."""
        return self._value

    def __repr__(self) -> str:
        return f"<Gauge {self.name} {dict(self.labels)} = {self._value}>"


class Histogram:
    """A fixed-bucket distribution (Prometheus cumulative-bucket model).

    ``buckets`` are ascending inclusive upper bounds; an implicit +Inf
    bucket catches everything beyond the last bound.  Quantiles are
    estimated by linear interpolation inside the bucket holding the
    target rank — exact enough for latency reporting, deterministic for
    tests with an injected clock.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "buckets", "_counts", "_sum", "_count",
                 "_lock")

    def __init__(self, name: str, labels: tuple = (),
                 buckets: tuple = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"buckets must be non-empty strictly ascending bounds, "
                f"got {buckets!r}"
            )
        self.name = name
        #: Sorted ``(label, value)`` pairs identifying this series.
        self.labels = labels
        #: Ascending inclusive upper bounds (excluding the +Inf bucket).
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        """Total observations recorded."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of every observed value."""
        return self._sum

    @property
    def bucket_counts(self) -> tuple:
        """Per-bucket (non-cumulative) counts; last entry is +Inf."""
        return tuple(self._counts)

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0..1); 0.0 for an empty histogram.

        Linear interpolation within the bucket containing the target
        rank; observations beyond the last finite bound report that
        bound (the histogram cannot resolve further).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        rank = q * self._count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index >= len(self.buckets):
                    return self.buckets[-1]
                low = 0.0 if index == 0 else self.buckets[index - 1]
                high = self.buckets[index]
                fraction = (rank - previous) / bucket_count
                return low + (high - low) * min(max(fraction, 0.0), 1.0)
        return self.buckets[-1]

    def __repr__(self) -> str:
        return (f"<Histogram {self.name} {dict(self.labels)} "
                f"count={self._count} sum={self._sum:.6f}>")


class _NullInstrument:
    """Shared do-nothing stand-in for every instrument kind.

    Returned by :class:`NullRegistry` accessors so disabled-mode call
    sites execute one empty method and nothing else.
    """

    kind = "null"
    name = ""
    labels = ()
    value = 0
    count = 0
    sum = 0.0
    buckets = ()
    bucket_counts = ()

    def inc(self, amount=1):
        """No-op."""

    def dec(self, amount=1):
        """No-op."""

    def set(self, value):
        """No-op."""

    def observe(self, value):
        """No-op."""

    def quantile(self, q):
        """Always 0.0."""
        return 0.0

    def __repr__(self) -> str:
        return "<null instrument>"


#: The shared disabled-mode instrument (one object for every kind).
NULL_INSTRUMENT = _NullInstrument()

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class ObsRegistry:
    """Process-wide (but swappable) home of every live instrument.

    One registry owns every metric family: instruments are created on
    first access (``registry.counter("repro_x_total", label=...)``) and
    returned on every later access with the same name and labels, so
    call sites never hold registration state.  A family's kind is fixed
    by its first access; re-requesting it as a different kind raises
    :class:`ValueError` (the classic silent-aggregation bug).

    ``clock`` is the monotonic time source every instrumented layer
    reads (``registry.clock()``) before observing a latency — inject a
    fake for deterministic latency tests.
    """

    #: Real registries record; the :class:`NullRegistry` overrides this.
    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._lock = threading.Lock()
        self._instruments: dict[tuple, object] = {}
        #: Family metadata: name -> (kind, help text).
        self._families: dict[str, tuple[str, str]] = {}
        # Collected owners' samples by key; dead owners' keys (queued by
        # finalizers on any thread); their folded counters; help texts.
        self._collectors: dict[int, Callable] = {}
        self._dead: deque = deque()
        self._folded: dict[tuple, int | float] = {}
        self._collected_help: dict[str, str] = {}
        self._keys = itertools.count()

    # -- instrument access -------------------------------------------------

    def _get(self, kind: str, name: str, labels: dict, help: str | None,
             **extra):
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        instrument = self._instruments.get(key)
        if instrument is not None:
            if instrument.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {instrument.kind}, "
                    f"requested as a {kind}"
                )
            return instrument
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                _check_name(name)
                label_key = _check_labels(labels)
                family = self._families.get(name)
                if family is not None and family[0] != kind:
                    raise ValueError(
                        f"metric {name!r} is a {family[0]}, "
                        f"requested as a {kind}"
                    )
                if family is None or (help and not family[1]):
                    self._families[name] = (kind, help or "")
                instrument = _KINDS[kind](name, label_key, **extra)
                self._instruments[(name, label_key)] = instrument
        return instrument

    def counter(self, name: str, help: str | None = None, **labels) -> Counter:
        """The :class:`Counter` for ``(name, labels)``, created on first use."""
        return self._get("counter", name, labels, help)

    def gauge(self, name: str, help: str | None = None, **labels) -> Gauge:
        """The :class:`Gauge` for ``(name, labels)``, created on first use."""
        return self._get("gauge", name, labels, help)

    def histogram(self, name: str, help: str | None = None,
                  buckets: tuple = DEFAULT_LATENCY_BUCKETS,
                  **labels) -> Histogram:
        """The :class:`Histogram` for ``(name, labels)``; ``buckets`` only
        apply on first creation of the series."""
        return self._get("histogram", name, labels, help, buckets=buckets)

    def collect(self, owner, samples: Callable,
                help: dict | None = None) -> None:
        """Read ``owner``'s own counters and gauges on every scrape (the
        Prometheus custom-collector pattern).

        ``samples()`` returns ``(kind, name, labels, value)`` tuples —
        ``"counter"``/``"gauge"``, sorted ``(label, value)`` string
        pairs as in :attr:`Counter.labels` — summed with equal series;
        ``help`` maps family names to ``# HELP`` text.  The owner is
        held weakly (``samples`` must not reference it): once it is
        collected its final counters fold in, so they never go
        backwards, and its gauges disappear.
        """
        key = next(self._keys)
        with self._lock:
            self._fold_dead()
            self._collectors[key] = samples
            self._collected_help.update(help or {})
        weakref.finalize(owner, self._dead.append, key)

    def _fold_dead(self) -> None:
        """Fold dead owners' final counter samples (lock held)."""
        while self._dead:
            samples = self._collectors.pop(self._dead.popleft(), None)
            if samples is None:
                continue  # registered before a reset()
            for kind, name, labels, value in samples():
                if kind == "counter":
                    key = (name, labels)
                    self._folded[key] = self._folded.get(key, 0) + value

    # -- introspection / exposition ----------------------------------------

    def _series(self) -> list:
        """Sorted ``((name, labels), (kind, value))``; counters and gauges
        sum instruments, folded totals and live owners."""
        with self._lock:
            self._fold_dead()
            live = list(self._collectors.values())
            merged = {key: ("counter", value)
                      for key, value in self._folded.items()}
        samples = [sample for collected in live for sample in collected()]
        samples += [(inst.kind, inst.name, inst.labels,
                     inst if inst.kind == "histogram" else inst.value)
                    for inst in list(self._instruments.values())]
        for kind, name, labels, value in samples:
            prior = merged.get((name, labels))
            merged[name, labels] = (kind, value if prior is None
                                    else prior[1] + value)
        return sorted(merged.items())

    def snapshot(self) -> dict:
        """Plain-dict view of every series (stable keys, JSON-able).

        Counters and gauges map ``"name{label=value,...}"`` to their
        value; histograms additionally carry count/sum and interpolated
        p50/p90/p99 estimates.
        """
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for (name, labels), (kind, value) in self._series():
            series = name
            if labels:
                inner = ",".join(f"{k}={v}" for k, v in labels)
                series = f"{name}{{{inner}}}"
            if kind == "counter":
                counters[series] = value
            elif kind == "gauge":
                gauges[series] = value
            else:
                histograms[series] = {
                    "count": value.count,
                    "sum": value.sum,
                    "p50": value.quantile(0.5),
                    "p90": value.quantile(0.9),
                    "p99": value.quantile(0.99),
                }
        return {"enabled": True, "counters": counters, "gauges": gauges,
                "histograms": histograms}

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4)."""
        lines: list[str] = []
        seen_families: set[str] = set()
        for (name, labels), (kind, value) in self._series():
            if name not in seen_families:
                seen_families.add(name)
                family_kind, help_text = self._families.get(
                    name, (kind, self._collected_help.get(name, "")))
                if help_text:
                    lines.append(f"# HELP {name} {_escape_help(help_text)}")
                lines.append(f"# TYPE {name} {family_kind}")
            if kind == "histogram":
                cumulative = 0
                for bound, bucket_count in zip(
                        (*value.buckets, float("inf")), value.bucket_counts):
                    cumulative += bucket_count
                    le = "+Inf" if bound == float("inf") else _format_value(bound)
                    lines.append(
                        f"{name}_bucket{_label_text(labels, ('le', le))} "
                        f"{cumulative}"
                    )
                lines.append(f"{name}_sum{_label_text(labels)} "
                             f"{_format_value(value.sum)}")
                lines.append(f"{name}_count{_label_text(labels)} "
                             f"{value.count}")
            else:
                lines.append(f"{name}{_label_text(labels)} "
                             f"{_format_value(value)}")
        return "\n".join(lines) + "\n" if lines else "\n"

    def render(self) -> str:
        """Human-readable one-line-per-series summary (CLI exit stats)."""
        snap = self.snapshot()
        rows = []
        for series, value in snap["counters"].items():
            rows.append(f"  {series:<58} {_format_value(value):>12}")
        for series, value in snap["gauges"].items():
            rows.append(f"  {series:<58} {_format_value(value):>12}")
        for series, stats in snap["histograms"].items():
            rows.append(
                f"  {series:<58} n={stats['count']} "
                f"p50={stats['p50']:.6f}s p99={stats['p99']:.6f}s"
            )
        if not rows:
            return "obs: no instruments recorded"
        return "\n".join(["obs:"] + rows)

    def reset(self) -> None:
        """Drop every instrument, collector and folded total (tests and
        long-lived CLI sessions)."""
        with self._lock:
            self._instruments.clear()
            self._families.clear()
            self._collectors.clear()
            self._folded.clear()
            self._collected_help.clear()


class NullRegistry:
    """The disabled-mode registry: every accessor returns a shared no-op.

    Instrument lookups cost one method call returning a singleton whose
    mutators have empty bodies; ``enabled`` is False so instrumented
    code skips its clock reads entirely.  This is the process default —
    observability is strictly opt-in.
    """

    enabled = False
    clock = staticmethod(time.perf_counter)

    def counter(self, name: str, help: str | None = None, **labels):
        """The shared no-op instrument."""
        return NULL_INSTRUMENT

    def gauge(self, name: str, help: str | None = None, **labels):
        """The shared no-op instrument."""
        return NULL_INSTRUMENT

    def histogram(self, name: str, help: str | None = None,
                  buckets: tuple = DEFAULT_LATENCY_BUCKETS, **labels):
        """The shared no-op instrument."""
        return NULL_INSTRUMENT

    def collect(self, owner, samples: Callable,
                help: dict | None = None) -> None:
        """No-op: a disabled registry exports nothing."""

    def snapshot(self) -> dict:
        """An empty snapshot marked disabled."""
        return {"enabled": False, "counters": {}, "gauges": {},
                "histograms": {}}

    def render_prometheus(self) -> str:
        """A single comment line — scrapes of a disabled process parse."""
        return "# repro.obs disabled (call repro.obs.enable())\n"

    def render(self) -> str:
        """One-line disabled marker."""
        return "obs: disabled"

    def reset(self) -> None:
        """No-op (nothing is ever recorded)."""


def _label_text(labels: tuple, extra: tuple | None = None) -> str:
    pairs = list(labels)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{key}="{_escape_label(value)}"' for key, value in pairs)
    return f"{{{inner}}}"


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


#: The process-wide disabled default.
_NULL_REGISTRY = NullRegistry()
_registry = _NULL_REGISTRY


def get_registry():
    """The current process-wide registry (a Null one until enabled)."""
    return _registry


def set_registry(registry):
    """Swap the process-wide registry; returns the previous one.

    ``None`` restores the shared disabled :class:`NullRegistry`.  Pass a
    custom :class:`ObsRegistry` (e.g. with an injected clock) for
    deterministic tests, restoring the previous registry afterwards.
    """
    global _registry
    previous = _registry
    _registry = _NULL_REGISTRY if registry is None else registry
    return previous


def enable(registry: ObsRegistry | None = None) -> ObsRegistry:
    """Turn observability on; returns the live registry.

    Installs ``registry`` (or a fresh :class:`ObsRegistry`) as the
    process-wide registry.  Idempotent when already enabled and called
    with no argument.
    """
    global _registry
    if registry is not None:
        _registry = registry
    elif not _registry.enabled:
        _registry = ObsRegistry()
    return _registry


def disable():
    """Turn observability off (restore the no-op registry); returns it."""
    return set_registry(None)

