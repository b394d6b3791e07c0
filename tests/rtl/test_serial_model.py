"""Tests for the serial HHEA cycle model (the paper's baseline)."""

from hypothesis import given, settings, strategies as st

from repro.core import hhea
from repro.core.key import Key
from repro.rtl.serial_model import HheaSerialCycleModel
from repro.util.bits import bytes_to_bits
from repro.util.lfsr import Lfsr


class TestReferenceEquivalence:
    @given(st.binary(min_size=1, max_size=20), st.integers(1, 0xFFFF))
    @settings(max_examples=20, deadline=None)
    def test_vectors_equal_framed_hhea(self, payload, seed):
        key = Key.generate(seed=3)
        bits = bytes_to_bits(payload)
        run = HheaSerialCycleModel(key).run(bits, seed=seed)
        ref = hhea.encrypt_bits(bits, key, Lfsr(16, seed=seed), frame_bits=16,
                                engine="reference")
        assert run.vectors == ref

    def test_empty_message(self, key16):
        run = HheaSerialCycleModel(key16).run([])
        assert run.vectors == []

    def test_decryptable(self, key16):
        bits = bytes_to_bits(b"serial but correct")
        run = HheaSerialCycleModel(key16).run(bits, seed=77)
        assert hhea.decrypt_bits(run.vectors, key16, len(bits),
                                 frame_bits=16, engine="reference") == bits


class TestKeyDependentTiming:
    """The property the paper criticises: cycles leak the key."""

    def test_gap_equals_window_plus_setup(self):
        key = Key([(2, 5)])  # span 4
        run = HheaSerialCycleModel(key).run([1] * 64, seed=9)
        gaps = [b - a for a, b in zip(run.ready_cycles, run.ready_cycles[1:])]
        # steady-state gaps are 1 (setup) + 4 (bits); reloads add extra
        assert gaps.count(5) >= len(gaps) * 0.6

    def test_wide_key_slower_than_narrow_per_vector(self):
        narrow = HheaSerialCycleModel(Key([(3, 3)])).run([1] * 64, seed=5)
        wide = HheaSerialCycleModel(Key([(0, 7)])).run([1] * 64, seed=5)
        assert narrow.cycles_per_vector < wide.cycles_per_vector

    def test_total_time_depends_on_key(self):
        bits = [1] * 128
        t_narrow = HheaSerialCycleModel(Key([(3, 3)])).run(bits, seed=5).total_cycles
        t_wide = HheaSerialCycleModel(Key([(0, 7)])).run(bits, seed=5).total_cycles
        # narrow windows need one vector per bit: far more total cycles
        assert t_narrow > t_wide

    def test_ready_count_matches_vectors(self, key16):
        run = HheaSerialCycleModel(key16).run([1, 0] * 50, seed=2)
        assert len(run.ready_cycles) == len(run.vectors)

    def test_slower_than_improved_design(self, key16):
        from repro.rtl.cycle_model import MhheaCycleModel

        bits = bytes_to_bits(b"performance comparison!")
        serial = HheaSerialCycleModel(key16).run(bits, seed=8)
        improved = MhheaCycleModel(key16).run(bits, seed=8)
        assert serial.cycles_per_vector > improved.cycles_per_vector
