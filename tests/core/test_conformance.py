"""One conformance corpus for every registered engine.

Every name in :func:`repro.core.engines.registered_engines` runs each
case through its byte hooks (``embed_bytes``/``extract_bytes``) and is
compared with ``"reference"``, the per-bit golden model.  Each case
checks:

* equal vectors and an equal vector-source end state;
* cross-decryption both ways (the engine reads the reference's vectors,
  the reference reads the engine's);
* ``vectors[:-1]`` raises the "truncated" and ``vectors + [0]`` the
  "trailing" :class:`~repro.core.errors.CipherFormatError`, in every
  engine;
* the length law ``ceil(8n / max_window) <= len(vectors) <= 8n``: every
  vector carries between one and ``max_window`` message bits.

A case is rebuilt from its ID alone, for example
``mhhea-w16-p5-n37-s1a2b``: algorithm, vector width, key pairs, payload
bytes and the vector source.  The source token is ``s<hex>`` for a fresh
``Lfsr(width, seed)``, ``l<bits>s<hex>`` for a narrower ``Lfsr(bits,
seed)``, and ``c<hex>`` for a :class:`~repro.stego.cover.CoverVectorSource`
over bytes drawn from that seed.  The key and the payload are drawn from
a generator seeded with the ID itself.  A failure names the first
failing case; replay it with::

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests/core'); \\
        import test_conformance as t; t.check_case('mhhea-w16-p5-n37-s1a2b')"

The corpus is seeded by ``REPRO_TEST_SEED`` (CI pins it) and holds
``CASES_PER_WIDTH`` cases per (algorithm, width), about 1000 per
algorithm.  A registered plugin joins it like the built-ins, and three
deliberately broken plugins show that the vector, source-state and
strictness checks each catch their fault.  The RTL cycle model is pinned to the reference separately
(``tests/rtl``): it implements the hardware's ``frame_bits=width``
framing, which packets never use.
"""

import copy
import math
import os
import random
import re
from dataclasses import dataclass

import pytest

from repro.core import engines, hhea, mhhea
from repro.core.errors import CipherFormatError
from repro.core.key import Key
from repro.core.params import VectorParams
from repro.stego.cover import CoverVectorSource
from repro.util.bits import bits_to_bytes
from repro.util.lfsr import PRIMITIVE_TAPS, Lfsr

SEED = int(os.environ.get("REPRO_TEST_SEED", "20050307"))

ALGORITHMS = engines.ALGORITHM_NAMES
WIDTHS = (4, 8, 16, 32)
CASES_PER_WIDTH = 250
MAX_PAYLOAD = 300

_CASE_ID = re.compile(
    r"(?P<algorithm>[a-z]+)-w(?P<width>\d+)-p(?P<pairs>\d+)-n(?P<n>\d+)"
    r"-(?P<kind>s|c|l(?P<bits>\d+)s)(?P<seed>[0-9a-f]+)"
)


@dataclass
class Case:
    """Everything one conformance case needs, rebuilt from its ID."""

    case_id: str
    algorithm: str
    params: VectorParams
    key: Key
    payload: bytes
    kind: str
    bits: int
    seed: int

    def source(self):
        """A fresh vector source; every engine run gets its own."""
        if self.kind == "c":
            step = self.params.width // 8
            # At least one message bit per vector bounds the words used.
            words = max(1, 8 * len(self.payload))
            return CoverVectorSource(
                random.Random(self.seed).randbytes(words * step),
                self.params.width)
        return Lfsr(self.bits, seed=self.seed)


def build_case(case_id: str) -> Case:
    """Rebuild a case from its ID."""
    match = _CASE_ID.fullmatch(case_id)
    if match is None:
        raise ValueError(f"not a conformance case ID: {case_id!r}")
    params = VectorParams(int(match["width"]))
    rng = random.Random(case_id)
    key = Key.generate(rng.randrange(1 << 32), int(match["pairs"]), params)
    kind = match["kind"][0]
    bits = int(match["bits"]) if kind == "l" else params.width
    return Case(case_id, match["algorithm"], params, key,
                rng.randbytes(int(match["n"])), kind, bits,
                int(match["seed"], 16))


def _payload_bytes(rng: random.Random, params: VectorParams) -> int:
    """Empty, one byte, at most one window, 8-byte multiples, short or long.

    The fast extract flushes its accumulator 64 bits at a time, hence the
    multiples of 8 bytes; long payloads are rarer because the reference
    model pays per bit.
    """
    shape = rng.randrange(16)
    if shape < 2:
        return 0
    if shape < 4:
        return 1
    if shape < 6:
        return rng.randint(1, max(1, params.max_window // 8))
    if shape < 10:
        return 8 * rng.randint(1, 8)
    if shape < 15:
        return rng.randint(2, 64)
    return rng.randint(65, MAX_PAYLOAD)


def corpus_ids(algorithm: str, width: int) -> list[str]:
    """The seeded case IDs for one (algorithm, width)."""
    rng = random.Random(f"{SEED}:corpus:{algorithm}:{width}")
    params = VectorParams(width)
    narrower = [bits for bits in PRIMITIVE_TAPS if bits < width]
    ids = []
    for _ in range(CASES_PER_WIDTH):
        prefix = (f"{algorithm}-w{width}-p{rng.randint(1, 16)}"
                  f"-n{_payload_bytes(rng, params)}")
        pick = rng.random()
        if pick < 0.1 and width % 8 == 0:
            ids.append(f"{prefix}-c{rng.randrange(1 << 16):x}")
        elif pick < 0.2:
            bits = rng.choice(narrower)
            ids.append(f"{prefix}-l{bits}s{rng.randrange(1, 1 << bits):x}")
        else:
            ids.append(f"{prefix}-s{rng.randrange(1, 1 << width):x}")
    return ids


def _end_state(source):
    if isinstance(source, CoverVectorSource):
        return source.words_consumed()
    return source.state


def _rejects(engine, case: Case, vectors, reason: str) -> bool:
    try:
        engine.extract_bytes(case.key, case.algorithm, case.params, vectors,
                             8 * len(case.payload))
    except CipherFormatError as exc:
        return reason in str(exc)
    return False


def check_case(case_id: str) -> None:
    """Run one case through every registered engine; raise on a mismatch."""
    case = build_case(case_id)
    key, algorithm, params = case.key, case.algorithm, case.params
    n_bits = 8 * len(case.payload)
    reference = engines.get_engine("reference")
    source = case.source()
    ref_vectors = reference.embed_bytes(key, algorithm, params, case.payload,
                                        source)
    ref_state = _end_state(source)
    assert (math.ceil(n_bits / params.max_window) <= len(ref_vectors)
            <= n_bits), f"length law: {len(ref_vectors)} vectors"
    for name in engines.registered_engines():
        engine = engines.get_engine(name)
        vectors = ref_vectors
        if engine is not reference:
            source = case.source()
            vectors = engine.embed_bytes(key, algorithm, params, case.payload,
                                         source)
            assert vectors == ref_vectors, f"{name}: vectors differ"
            assert _end_state(source) == ref_state, f"{name}: source end state"
            assert reference.extract_bytes(key, algorithm, params, vectors,
                                           n_bits) == case.payload, (
                f"reference: cannot decrypt {name}")
        assert engine.extract_bytes(key, algorithm, params, ref_vectors,
                                    n_bits) == case.payload, (
            f"{name}: cannot decrypt the reference")
        if vectors:
            assert _rejects(engine, case, vectors[:-1], "truncated"), (
                f"{name}: truncated ciphertext accepted")
        assert _rejects(engine, case, vectors + [0], "trailing"), (
            f"{name}: trailing ciphertext accepted")


@pytest.mark.parametrize("width", WIDTHS, ids=lambda w: f"w{w}")
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_corpus(algorithm, width):
    for case_id in corpus_ids(algorithm, width):
        try:
            check_case(case_id)
        except Exception as exc:
            pytest.fail(f"first failing case {case_id}: "
                        f"{type(exc).__name__}: {exc}")


def test_case_rebuilds_from_its_id():
    case = build_case("mhhea-w16-p5-n37-s1a2b")
    assert (case.algorithm, case.params.width, len(case.key),
            len(case.payload), case.kind, case.bits, case.seed) == (
        "mhhea", 16, 5, 37, "s", 16, 0x1A2B)
    again = build_case(case.case_id)
    assert (again.key, again.payload) == (case.key, case.payload)
    assert build_case("hhea-w8-p3-n4-l5s1b").source().width == 5
    assert isinstance(build_case("hhea-w32-p1-n0-c7").source(),
                      CoverVectorSource)
    with pytest.raises(ValueError, match="case ID"):
        build_case("mhhea-w16-p5")


def test_corpus_covers_every_shape():
    ids = [case_id for algorithm in ALGORITHMS for width in WIDTHS
           for case_id in corpus_ids(algorithm, width)]
    cases = [_CASE_ID.fullmatch(case_id) for case_id in ids]
    sizes = {int(case["n"]) for case in cases}
    assert {0, 1, 2}.issubset(sizes) and max(sizes) > 250
    assert any(n % 8 == 0 and n >= 64 for n in sizes)
    assert {case["kind"][0] for case in cases} == {"s", "l", "c"}
    assert {int(case["pairs"]) for case in cases} == set(range(1, 17))
    assert len(set(ids)) > 0.95 * len(ids)



class _Delegate(engines.Engine):
    """A plugin over the fast engine; the subclasses each break one
    clause of the contract that :func:`check_case` checks."""

    name = "delegate"

    def __init__(self):
        self.embeds = 0
        self._fast = engines.FastEngine()

    def embed_bytes(self, key, algorithm, params, data, source):
        self.embeds += 1
        return self._fast.embed_bytes(key, algorithm, params, data, source)

    def extract_bytes(self, key, algorithm, params, vectors, n_bits):
        return self._fast.extract_bytes(key, algorithm, params, vectors,
                                        n_bits)


class _WrongCipher(_Delegate):
    """Runs plain HHEA whatever the algorithm."""

    name = "wrong-cipher"
    caught_by = "vectors differ"

    def embed_bytes(self, key, algorithm, params, data, source):
        return super().embed_bytes(key, engines.HHEA, params, data, source)


class _StaleSource(_Delegate):
    """Draws from a copy, leaving the caller's source where it was."""

    name = "stale-source"
    caught_by = "source end state"

    def embed_bytes(self, key, algorithm, params, data, source):
        return super().embed_bytes(key, algorithm, params, data,
                                   copy.copy(source))


class _LenientExtract(_Delegate):
    """Ignores trailing vectors, like the golden model's ``strict=False``."""

    name = "lenient-extract"
    caught_by = "trailing ciphertext accepted"

    def extract_bytes(self, key, algorithm, params, vectors, n_bits):
        module = mhhea if algorithm == engines.MHHEA else hhea
        return bits_to_bytes(module.decrypt_bits(vectors, key, n_bits,
                                                 params, strict=False))


@pytest.fixture
def plugin(monkeypatch):
    """Register an engine class for one test; the registry is restored."""
    def register(engine_class):
        instance = engine_class()
        monkeypatch.setitem(engines._FACTORIES, engine_class.name,
                            engine_class)
        monkeypatch.setitem(engines._INSTANCES, engine_class.name, instance)
        return instance
    return register


def test_corpus_runs_registered_plugins(plugin):
    engine = plugin(_Delegate)
    case_ids = corpus_ids("mhhea", 16)[:20]
    for case_id in case_ids:
        check_case(case_id)
    assert engine.embeds == len(case_ids)


@pytest.mark.parametrize("engine_class",
                         [_WrongCipher, _StaleSource, _LenientExtract],
                         ids=lambda engine_class: engine_class.name)
def test_corpus_catches_a_broken_engine(plugin, engine_class):
    plugin(engine_class)
    with pytest.raises(AssertionError,
                       match=f"{engine_class.name}: {engine_class.caught_by}"):
        check_case("mhhea-w16-p5-n37-s1a2b")
