"""The pluggable engine registry behind every cipher entry point.

The paper's whole point is *one* cipher with interchangeable
implementations — the FPGA micro-architecture and the software model
compute the same function.  This reproduction accumulated the same
shape in software: the per-bit reference engine
(:mod:`repro.core.engine`) and the word-level fast engine
(:mod:`repro.core.fastpath`) emit byte-identical wire packets.  This
module is the one place that chooses between them:

* :func:`register_engine` — add a named :class:`Engine` factory (the
  built-ins ``"reference"`` and ``"fast"`` are registered at import);
* :func:`get_engine` — resolve a selector (name, ``None`` for the
  default, or an :class:`Engine` instance passed through) exactly once;
* :data:`DEFAULT_ENGINE_NAME` — the engine that runs when a caller
  names none; every other default in the library reads it;
* :func:`check_engine_name` / :func:`registered_engines` — eager
  validation that fails with
  :class:`~repro.core.errors.UnknownEngineError` naming every
  registered engine, instead of failing deep inside the fast path.

Callers hold a resolved :class:`Engine` object (usually inside a
:class:`repro.api.Codec`) and never re-negotiate the choice per packet.
A new backend is a plugin: implement :meth:`Engine.embed_bytes` /
:meth:`Engine.extract_bytes`, register a factory, and every byte path —
packet codec, cipher classes, sharded pipeline, secure link, relay,
CLI — can select it by name.  The bit-level API
(``mhhea``/``hhea`` ``encrypt_bits``/``decrypt_bits``) is the golden
model itself and takes no engine.  The registry is keyed by name only;
engines must stay pure functions of ``(key, algorithm, params, message,
source)`` so that every registered engine is wire-compatible with every
other.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.core.errors import UnknownEngineError
from repro.core.key import Key
from repro.core.params import VectorParams
from repro.util.bits import bits_to_bytes, bytes_to_bits

__all__ = [
    "MHHEA",
    "HHEA",
    "ALGORITHM_NAMES",
    "DEFAULT_ENGINE_NAME",
    "Engine",
    "ReferenceEngine",
    "FastEngine",
    "register_engine",
    "get_engine",
    "engine_name",
    "check_engine_name",
    "registered_engines",
]

#: Algorithm names shared with :mod:`repro.core.fastpath`.
MHHEA = "mhhea"
HHEA = "hhea"

#: The algorithm selectors every engine must accept.
ALGORITHM_NAMES = (MHHEA, HHEA)

#: Name resolved when a caller passes no engine selector at all — the
#: library's one default engine.  ``SessionConfig``, ``RelayConfig`` and
#: the CLI's ``--engine`` read it; wire bytes never depend on it.
DEFAULT_ENGINE_NAME = "fast"


def _check_algorithm(algorithm: str) -> str:
    if algorithm not in ALGORITHM_NAMES:
        raise ValueError(
            f"algorithm must be one of {ALGORITHM_NAMES}, got {algorithm!r}"
        )
    return algorithm


class Engine:
    """One interchangeable implementation of the hiding-cipher family.

    A backend is two methods: :meth:`embed_bytes` and
    :meth:`extract_bytes`.  All engines must compute the same function —
    the registry models *how* the cipher runs, never *what* it computes
    — so a conforming backend is byte-identical on the wire to the
    reference model (the conformance corpus in
    ``tests/core/test_conformance.py`` runs every registered engine).
    """

    #: Registry name; set by subclasses.
    name = "?"

    def embed_bytes(self, key: Key, algorithm: str, params: VectorParams,
                    data: bytes, source) -> list[int]:
        """Embed ``data`` into fresh hiding vectors drawn from ``source``."""
        raise NotImplementedError

    def extract_bytes(self, key: Key, algorithm: str, params: VectorParams,
                      vectors: Sequence[int], n_bits: int) -> bytes:
        """Recover the ``n_bits // 8`` plaintext bytes from ``vectors``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def _cipher_module(algorithm: str):
    """The algorithm module carrying the golden-model bit functions.

    Imported lazily: :mod:`repro.core.mhhea` / :mod:`repro.core.hhea`
    import this module at top level, so the reverse edge must not run at
    import time.
    """
    _check_algorithm(algorithm)
    if algorithm == MHHEA:
        from repro.core import mhhea as module
    else:
        from repro.core import hhea as module
    return module


class ReferenceEngine(Engine):
    """The per-bit golden model (paper pseudocode)."""

    name = "reference"

    def embed_bytes(self, key, algorithm, params, data, source):
        """Embed the message's bit list with the per-bit model."""
        return _cipher_module(algorithm).encrypt_bits(
            bytes_to_bits(data), key, source, params)

    def extract_bytes(self, key, algorithm, params, vectors, n_bits):
        """Extract the message's bit list with the per-bit model.

        A bit count of partial bytes is rejected before decoding, as the
        fast kernel does, so the verdict never depends on the vectors.
        """
        if n_bits > 0 and n_bits % 8 != 0:
            raise ValueError(f"bit count {n_bits} is not a multiple of 8")
        return bits_to_bytes(_cipher_module(algorithm).decrypt_bits(
            vectors, key, n_bits, params))


class FastEngine(Engine):
    """The word-level bit-parallel engine (compiled key schedules)."""

    name = "fast"

    @staticmethod
    def _schedule(key, algorithm, params):
        from repro.core import fastpath

        _check_algorithm(algorithm)
        return fastpath.schedule_for(key, algorithm, params)

    def embed_bytes(self, key, algorithm, params, data, source):
        """Packed-buffer embed on the compiled (and cached) schedule."""
        return self._schedule(key, algorithm, params).embed_bytes(
            data, source)

    def extract_bytes(self, key, algorithm, params, vectors, n_bits):
        """Packed-buffer extract on the compiled (and cached) schedule."""
        return self._schedule(key, algorithm, params).extract_bytes(
            vectors, n_bits)


#: Engine factories by name; instances are built once and cached.
_FACTORIES: dict[str, Callable[[], Engine]] = {}
_INSTANCES: dict[str, Engine] = {}


def register_engine(name: str, factory: Callable[[], Engine], *,
                    replace: bool = False) -> None:
    """Register ``factory`` as the builder of engine ``name``.

    ``factory`` is called lazily — once, on the first
    :func:`get_engine` resolution — and must return an
    :class:`Engine`.  Re-registering an existing name raises
    :class:`ValueError` unless ``replace=True`` (tests and downstream
    forks may shadow a built-in deliberately; doing so by accident is
    almost certainly a bug).
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"engine name must be a non-empty string, got {name!r}")
    if name in _FACTORIES and not replace:
        raise ValueError(
            f"engine {name!r} is already registered; pass replace=True to "
            f"shadow it deliberately"
        )
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def registered_engines() -> tuple[str, ...]:
    """The registered engine names, in registration order."""
    return tuple(_FACTORIES)


def check_engine_name(name: str) -> str:
    """Validate an engine *name* eagerly; returns it unchanged.

    Raises :class:`~repro.core.errors.UnknownEngineError` naming every
    registered engine — the single failure shape for bad selectors,
    wherever they enter the system.
    """
    if name not in _FACTORIES:
        raise UnknownEngineError(
            f"unknown engine {name!r}; registered engines: "
            f"{', '.join(registered_engines())}"
        )
    return name


def get_engine(engine: "str | Engine | None" = None) -> Engine:
    """Resolve an engine selector to its :class:`Engine` instance.

    ``None`` resolves to :data:`DEFAULT_ENGINE_NAME`; an
    :class:`Engine` instance passes through untouched; a name is looked
    up in the registry, raising
    :class:`~repro.core.errors.UnknownEngineError` for unregistered
    ones.  This is the one resolver every ``engine=`` argument in the
    library goes through; resolve once (a :class:`repro.api.Codec`
    does it at construction), not per packet.
    """
    if engine is None:
        engine = DEFAULT_ENGINE_NAME
    if isinstance(engine, Engine):
        return engine
    check_engine_name(engine)
    instance = _INSTANCES.get(engine)
    if instance is None:
        instance = _INSTANCES[engine] = _FACTORIES[engine]()
    return instance


def engine_name(engine: "str | Engine | None" = None) -> str:
    """The registry name of a selector (validated, never resolved twice).

    The inverse convenience of :func:`get_engine` for call sites that
    must *serialise* the choice — process-pool jobs pickle the name, not
    the instance.
    """
    if isinstance(engine, Engine):
        return engine.name
    if engine is None:
        return DEFAULT_ENGINE_NAME
    return check_engine_name(engine)


register_engine(ReferenceEngine.name, ReferenceEngine)
register_engine(FastEngine.name, FastEngine)
