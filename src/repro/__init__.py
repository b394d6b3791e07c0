"""repro — reproduction of Farouk & Saeb, "An Improved FPGA Implementation
of the Modified Hybrid Hiding Encryption Algorithm (MHHEA) for Data
Communication Security", DATE 2005.

The package re-exports the most commonly used entry points; subpackages
carry the full system:

* :mod:`repro.core` — the (M)HHEA cipher family (reference models);
* :mod:`repro.hdl` — gate-level hardware modelling substrate;
* :mod:`repro.rtl` — the paper's micro-architecture (behavioural cycle
  models and the structural gate-level build);
* :mod:`repro.fpga` — a self-contained FPGA CAD flow (LUT mapping,
  packing, placement, routing, timing, reports);
* :mod:`repro.analysis` — throughput / functional-density evaluation
  (Table 1, Figure 9);
* :mod:`repro.security` — the attacks and statistical tests behind the
  paper's security claims;
* :mod:`repro.stego` — steganographic (cover-data) operation;
* :mod:`repro.link` — the sans-IO secure-link protocol core
  (:class:`~repro.link.LinkProtocol` state machine, typed events,
  in-memory / blocking-socket / UDP transports); see docs/net.md;
* :mod:`repro.net` — the asyncio secure-link transport (sessions with
  nonce schedules and rekeying, stream framing, server/client peers,
  link metrics); see DESIGN.md sections 4–7;
* :mod:`repro.parallel` — the sharded multi-worker encryption pipeline
  (chunked blobs, resilient process pools); see DESIGN.md section 9;
* :mod:`repro.scenario` — deterministic load generation and fault
  injection over the sans-IO link: replayable fault schedules, traffic
  mixes, and a scenario runner that reconciles every injected fault
  against the protocol's own drop accounting; see docs/scenarios.md;
* :mod:`repro.obs` — opt-in observability (metrics, structured
  logs, Prometheus / health endpoints); see docs/observability.md;
* :mod:`repro.api` — the unified :class:`~repro.api.Codec` facade over
  all of the above, backed by the pluggable engine registry
  (:mod:`repro.core.engines`); see DESIGN.md section 10 and
  docs/api.md.

Re-exports resolve lazily (PEP 562), so ``import repro`` — and
therefore any submodule import — stays free of asyncio and sockets
until a networked entry point is actually touched; that is what keeps
the :mod:`repro.link` sans-IO core importable on event-loop-free edge
targets (enforced by ``tests/link/test_sans_io.py``).

The facade is the recommended entry point::

    import repro

    with repro.open_codec(key, engine="fast", workers=4) as codec:
        blob = codec.seal_blob(payload)
        assert codec.open_blob(blob) == payload
"""

__version__ = "1.2.0"

__all__ = [
    "Codec",
    "open_codec",
    "connect",
    "serve",
    "relay_serve",
    "get_engine",
    "register_engine",
    "registered_engines",
    "UnknownEngineError",
    "EncryptedMessage",
    "HheaCipher",
    "Key",
    "KeyPair",
    "MhheaCipher",
    "PAPER_PARAMS",
    "TraceRecorder",
    "VectorParams",
    "Lfsr",
    "__version__",
]

#: Where each lazy re-export really lives.
_EXPORTS = {
    "Codec": "repro.api",
    "open_codec": "repro.api",
    "connect": "repro.api",
    "serve": "repro.api",
    "relay_serve": "repro.api",
    "get_engine": "repro.core",
    "register_engine": "repro.core",
    "registered_engines": "repro.core",
    "UnknownEngineError": "repro.core",
    "EncryptedMessage": "repro.core",
    "HheaCipher": "repro.core",
    "Key": "repro.core",
    "KeyPair": "repro.core",
    "MhheaCipher": "repro.core",
    "PAPER_PARAMS": "repro.core",
    "TraceRecorder": "repro.core",
    "VectorParams": "repro.core",
    "Lfsr": "repro.util.lfsr",
}


#: Submodules reachable as ``repro.<name>`` attributes after a bare
#: ``import repro`` — the eager-import era bound (some of) these as a
#: side effect, so the lazy loader keeps every one of them working.
_SUBMODULES = frozenset({
    "analysis", "api", "cli", "core", "fpga", "hdl", "kex", "link",
    "net", "obs", "parallel", "relay", "rtl", "scenario", "security",
    "stego", "util",
})


def __getattr__(name: str):
    """PEP 562 lazy loader: import the defining module on first use."""
    import importlib

    if name in _SUBMODULES:
        # importlib binds the submodule onto this package as it loads.
        return importlib.import_module(f"{__name__}.{name}")
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    """Advertise the lazy re-exports alongside real module globals."""
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
