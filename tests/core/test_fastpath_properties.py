"""Engine-invariant properties, argument guards and policy guards.

* round trip — a cipher object on any registered engine decrypts its
  own output;
* ciphertext length law — every vector carries at least one message bit
  and at most ``max_window``, so ``ceil(n / max_window) <= len(vectors)
  <= n`` for the golden model on any bit count, flat or framed, and
  every engine emits the golden model's count;
* pathological policies — an injected window or data policy that breaks
  the contract raises a clean :class:`CipherFormatError` before any
  corrupted vector can escape (no silent corruption).  Injected policies
  are a reference-model feature: the fast kernel compiles only the two
  built-in ciphers;
* argument validation — the bit-level golden model and every registered
  engine's ``extract_bytes`` reject malformed arguments, and byte paths
  reject unknown engine names;
* traces — a cipher object on any engine records a trace through the
  reference model without changing its output.

The conformance corpus (``tests/core/test_conformance.py``) pins every
engine's vectors to the reference, case by case.
"""

import math
import os
import random

import pytest

from repro.core import engine, engines, hhea, mhhea
from repro.core.errors import CipherFormatError
from repro.core.hhea import HheaCipher
from repro.core.key import Key
from repro.core.mhhea import MhheaCipher
from repro.core.params import PAPER_PARAMS, VectorParams
from repro.core.trace import TraceRecorder
from repro.util.bits import bytes_to_bits
from repro.util.lfsr import Lfsr

SEED = int(os.environ.get("REPRO_TEST_SEED", "20050307"))

CIPHERS = {"hhea": (hhea, HheaCipher), "mhhea": (mhhea, MhheaCipher)}


@pytest.mark.parametrize("engine_name", engines.registered_engines())
@pytest.mark.parametrize("cipher", sorted(CIPHERS))
class TestRoundTrip:
    def test_extract_inverts_embed(self, engine_name, cipher):
        # On its own terms: the engine decrypts what it encrypted, through
        # the cipher object and its EncryptedMessage.
        _, cipher_class = CIPHERS[cipher]
        rng = random.Random(f"{SEED}:roundtrip:{cipher}:{engine_name}")
        for _ in range(100):
            params = VectorParams(rng.choice((4, 8, 16, 32)))
            key = Key.generate(rng.randrange(1 << 32),
                               rng.randint(1, 16), params)
            plaintext = rng.randbytes(rng.randint(0, 40))
            box = cipher_class(key, params, engine=engine_name)
            message = box.encrypt(plaintext,
                                  seed=rng.randrange(1, 1 << params.width))
            assert (message.n_bits, message.width) == (8 * len(plaintext),
                                                        params.width)
            assert box.decrypt(message) == plaintext


@pytest.mark.parametrize("cipher", sorted(CIPHERS))
class TestCiphertextLengthLaw:
    def test_vector_count_bounds_and_engine_agreement(self, cipher):
        mod, _ = CIPHERS[cipher]
        rng = random.Random(f"{SEED}:length:{cipher}")
        for _ in range(200):
            params = VectorParams(rng.choice((8, 16, 32)))
            key = Key.generate(rng.randrange(1 << 32),
                               rng.randint(1, 16), params)
            n = rng.randint(1, 160)
            bits = [rng.randint(0, 1) for _ in range(n)]
            flat = mod.encrypt_bits(bits, key, Lfsr(params.width, seed=3),
                                    params)
            framed = mod.encrypt_bits(bits, key, Lfsr(params.width, seed=3),
                                      params, frame_bits=16)
            for vectors in (flat, framed):
                # Every vector carries 1..max_window message bits.
                assert math.ceil(n / params.max_window) <= len(vectors) <= n
            # Framing only ever truncates a window, never widens one.
            assert len(framed) >= len(flat)
            assert mod.decrypt_bits(framed, key, n, params,
                                    frame_bits=16) == bits
            # Whole bytes: every engine emits the golden model's count.
            data = rng.randbytes(math.ceil(n / 8))
            golden = mod.encrypt_bits(bytes_to_bits(data), key,
                                      Lfsr(params.width, seed=3), params)
            for name in engines.registered_engines():
                vectors = engines.get_engine(name).embed_bytes(
                    key, cipher, params, data, Lfsr(params.width, seed=3))
                assert len(vectors) == len(golden), name

    def test_empty_message_is_empty_ciphertext(self, cipher):
        # No message bit, no vector: nothing is drawn from the source.
        mod, cipher_class = CIPHERS[cipher]
        key = Key.generate(seed=4)
        for frame_bits in (None, 16):
            source = Lfsr(16, seed=1)
            assert mod.encrypt_bits([], key, source,
                                    frame_bits=frame_bits) == []
            assert source.state == 1
            assert mod.decrypt_bits([], key, 0, frame_bits=frame_bits) == []
        for name in engines.registered_engines():
            backend = engines.get_engine(name)
            source = Lfsr(16, seed=1)
            assert backend.embed_bytes(key, cipher, key.params, b"",
                                       source) == []
            assert source.state == 1, name
            assert backend.extract_bytes(key, cipher, key.params, [],
                                         0) == b""
            box = cipher_class(key, engine=name)
            message = box.encrypt(b"")
            assert (message.vectors, message.expansion) == ((), 0.0)
            assert box.decrypt(message) == b""


def window_policy_constant(low, high):
    def policy(pair, vector, params):
        return low, high
    return policy


def data_policy_constant(value):
    def policy(pair, q):
        return value
    return policy


ZERO_DATA = data_policy_constant(0)
LEGAL_WINDOW = window_policy_constant(0, 3)


class TestPathologicalPolicies:
    """Broken injected policies must fail loudly."""

    @pytest.mark.parametrize("low,high", [(5, 9), (-1, 2), (4, 1), (0, 8)])
    def test_illegal_window_raises_cleanly_on_embed(self, low, high):
        key = Key.generate(seed=9)
        with pytest.raises(CipherFormatError, match="illegal window"):
            engine.embed_stream([1, 0, 1], key, Lfsr(16, seed=1),
                                window_policy_constant(low, high),
                                ZERO_DATA, PAPER_PARAMS)

    @pytest.mark.parametrize("low,high", [(5, 9), (-1, 2), (4, 1)])
    def test_illegal_window_raises_cleanly_on_extract(self, low, high):
        key = Key.generate(seed=9)
        with pytest.raises(CipherFormatError, match="illegal window"):
            engine.extract_stream([0x1234], key, 3,
                                  window_policy_constant(low, high),
                                  ZERO_DATA, PAPER_PARAMS)

    @pytest.mark.parametrize("bad_bit", [2, -1, None, "1"])
    def test_non_binary_data_policy_raises_cleanly(self, bad_bit):
        key = Key.generate(seed=9)
        with pytest.raises(CipherFormatError, match="data-bit policy"):
            engine.embed_stream([1, 0, 1], key, Lfsr(16, seed=1),
                                LEGAL_WINDOW, data_policy_constant(bad_bit),
                                PAPER_PARAMS)
        with pytest.raises(CipherFormatError, match="data-bit policy"):
            engine.extract_stream([0x5555], key, 3, LEGAL_WINDOW,
                                  data_policy_constant(bad_bit), PAPER_PARAMS)

    def test_legal_injected_policies_round_trip(self):
        # Sanity: the policy plumbing itself works when the contract holds.
        key = Key.generate(seed=9)
        bits = [1, 0, 1, 1, 0, 0, 1, 0]
        data = data_policy_constant(1)  # invert every bit
        vectors = engine.embed_stream(bits, key, Lfsr(16, seed=2),
                                      LEGAL_WINDOW, data, PAPER_PARAMS)
        assert engine.extract_stream(vectors, key, len(bits), LEGAL_WINDOW,
                                     data, PAPER_PARAMS) == bits

    def test_no_silent_corruption_before_raise(self):
        # The embed must raise, not return a vector list with garbage in
        # it: a policy that misbehaves only on the second window still
        # produces *no* output.
        key = Key.generate(seed=9)
        calls = {"n": 0}

        def flaky_window(pair, vector, params):
            calls["n"] += 1
            return (0, 3) if calls["n"] == 1 else (5, 99)

        with pytest.raises(CipherFormatError):
            engine.embed_stream([1] * 10, key, Lfsr(16, seed=1),
                                flaky_window, ZERO_DATA, PAPER_PARAMS)


@pytest.mark.parametrize("cipher", sorted(CIPHERS))
class TestArgumentValidation:
    """The golden model and every engine reject malformed arguments."""

    def test_bad_engine_name(self, cipher):
        # Byte paths name the registered engines; the bit-level golden
        # model takes no engine at all.
        mod, cipher_class = CIPHERS[cipher]
        key = Key.generate(seed=1)
        with pytest.raises(ValueError, match="unknown engine 'turbo'"):
            cipher_class(key, engine="turbo")
        with pytest.raises(TypeError, match="engine"):
            mod.encrypt_bits([1], key, Lfsr(16, seed=1), engine="fast")
        with pytest.raises(TypeError, match="engine"):
            mod.decrypt_bits([0], key, 1, engine="fast")

    def test_bad_frame_bits(self, cipher):
        mod, _ = CIPHERS[cipher]
        key = Key.generate(seed=1)
        with pytest.raises(ValueError, match="frame_bits"):
            mod.encrypt_bits([1], key, Lfsr(16, seed=1), frame_bits=0)

    def test_negative_n_bits(self, cipher):
        mod, _ = CIPHERS[cipher]
        key = Key.generate(seed=1)
        with pytest.raises(ValueError, match="non-negative"):
            mod.decrypt_bits([], key, -1)

    def test_bad_message_bit(self, cipher):
        mod, _ = CIPHERS[cipher]
        key = Key.generate(seed=1)
        with pytest.raises(ValueError):
            mod.encrypt_bits([2], key, Lfsr(16, seed=1))

    def test_oversized_vector_rejected(self, cipher):
        mod, _ = CIPHERS[cipher]
        key = Key.generate(seed=1)
        with pytest.raises(ValueError):
            mod.decrypt_bits([1 << 16], key, 1)

    @pytest.mark.parametrize("engine_name", engines.registered_engines())
    def test_extract_bytes_negative_n_bits(self, cipher, engine_name):
        key = Key.generate(seed=1)
        with pytest.raises(ValueError, match="non-negative"):
            engines.get_engine(engine_name).extract_bytes(
                key, cipher, key.params, [], -8)

    @pytest.mark.parametrize("engine_name", engines.registered_engines())
    def test_extract_bytes_oversized_vector(self, cipher, engine_name):
        key = Key.generate(seed=1)
        with pytest.raises(ValueError, match="ciphertext vector"):
            engines.get_engine(engine_name).extract_bytes(
                key, cipher, key.params, [1 << 16], 8)

    @pytest.mark.parametrize("engine_name", engines.registered_engines())
    def test_extract_bytes_partial_byte(self, cipher, engine_name):
        # Rejected before decoding: the verdict does not depend on
        # whether the vectors are short, exact or long for 12 bits.
        mod, _ = CIPHERS[cipher]
        key = Key.generate(seed=1)
        exact = mod.encrypt_bits([1, 0] * 6, key, Lfsr(16, seed=1))
        for vectors in ([], exact, exact + [0]):
            with pytest.raises(ValueError, match="not a multiple of 8"):
                engines.get_engine(engine_name).extract_bytes(
                    key, cipher, key.params, vectors, 12)

    def test_trace_falls_back_to_reference(self, cipher):
        # Trace recording is a reference-model feature; a cipher object
        # on the fast engine with a trace must still produce the same
        # ciphertext, and record one trace row per vector.
        _, cipher_class = CIPHERS[cipher]
        fast = cipher_class(Key.generate(seed=6), engine="fast")
        trace = TraceRecorder()
        traced = fast.encrypt(b"traced bytes", seed=4, trace=trace)
        assert traced == fast.encrypt(b"traced bytes", seed=4)
        assert len(trace) == len(traced.vectors)
        assert fast.decrypt(traced, trace=TraceRecorder()) == b"traced bytes"
