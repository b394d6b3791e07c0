"""Tests for the MHHEA behavioural cycle model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import mhhea
from repro.core.key import Key
from repro.core.params import VectorParams
from repro.rtl import states
from repro.rtl.cycle_model import MhheaCycleModel, ScriptedVectorSource
from repro.util.bits import bytes_to_bits, int_to_bits
from repro.util.lfsr import Lfsr


class TestReferenceEquivalence:
    @given(st.binary(min_size=1, max_size=24), st.integers(1, 0xFFFF),
           st.integers(1, 1000))
    @settings(max_examples=25, deadline=None)
    def test_vectors_equal_framed_reference(self, payload, seed, key_seed):
        key = Key.generate(seed=key_seed)
        bits = bytes_to_bits(payload)
        run = MhheaCycleModel(key).run(bits, seed=seed)
        ref = mhhea.encrypt_bits(bits, key, Lfsr(16, seed=seed), frame_bits=16,
                                 engine="reference")
        assert run.vectors == ref

    @pytest.mark.parametrize("n_bits", [1, 7, 15, 16, 17, 31, 32, 33, 63, 64, 65])
    def test_arbitrary_lengths(self, key16, n_bits):
        bits = [(i * 5 + 1) % 2 for i in range(n_bits)]
        run = MhheaCycleModel(key16).run(bits, seed=0x7E57)
        ref = mhhea.encrypt_bits(bits, key16, Lfsr(16, seed=0x7E57),
                                 frame_bits=16, engine="reference")
        assert run.vectors == ref
        assert mhhea.decrypt_bits(run.vectors, key16, n_bits,
                                  frame_bits=16, engine="reference") == bits

    def test_short_key_wraps_at_l(self, key4):
        bits = bytes_to_bits(b"roundtrips with L=4 keys")
        run = MhheaCycleModel(key4).run(bits, seed=0xAB)
        ref = mhhea.encrypt_bits(bits, key4, Lfsr(16, seed=0xAB), frame_bits=16,
                                 engine="reference")
        assert run.vectors == ref

    def test_wider_vector_params(self):
        params = VectorParams(32)
        key = Key.generate(seed=5, params=params)
        bits = bytes_to_bits(b"wide vectors work too!!!")
        run = MhheaCycleModel(key, params).run(bits, seed=0x1D)
        ref = mhhea.encrypt_bits(bits, key, Lfsr(32, seed=0x1D), params,
                                 frame_bits=32, engine="reference")
        assert run.vectors == ref

    def test_empty_message(self, key16):
        run = MhheaCycleModel(key16).run([])
        assert run.vectors == []
        assert run.total_cycles == 0


class TestTimingProperties:
    def test_two_cycles_per_vector_steady_state(self, key16):
        """The headline claim: one output every two cycles, regardless of
        how many bits each window replaces (plus rare reload cycles)."""
        bits = [1, 0] * 256
        run = MhheaCycleModel(key16).run(bits)
        gaps = [b - a for a, b in zip(run.ready_cycles, run.ready_cycles[1:])]
        assert all(gap in (2, 3, 4, 5) for gap in gaps)
        # within a half, gaps are exactly 2
        assert gaps.count(2) > len(gaps) * 0.7

    def test_gap_independent_of_window_width(self):
        """Keys with span 1 and span 8 give identical per-vector timing."""
        narrow = Key([(4, 4)])
        wide = Key([(0, 7)])
        bits = [1] * 64
        run_n = MhheaCycleModel(narrow).run(bits, seed=3)
        run_w = MhheaCycleModel(wide).run(bits, seed=3)
        gaps_n = {b - a for a, b in zip(run_n.ready_cycles, run_n.ready_cycles[1:])}
        gaps_w = {b - a for a, b in zip(run_w.ready_cycles, run_w.ready_cycles[1:])}
        # both dominated by the constant 2-cycle CIRC/ENCRYPT loop
        assert 2 in gaps_n and 2 in gaps_w

    def test_ready_pulse_per_vector(self, key16):
        bits = bytes_to_bits(b"pulse counting")
        run = MhheaCycleModel(key16).run(bits)
        assert len(run.ready_cycles) == len(run.vectors)

    def test_lkey_only_pays_once(self, key16):
        """The key cache fills on block one; later blocks pass through
        LKEY in a single cycle."""
        one_block = MhheaCycleModel(key16).run([1] * 32, seed=9)
        two_blocks = MhheaCycleModel(key16).run([1] * 64, seed=9)
        # if LKEY were re-paid, the delta would include 16 extra cycles
        delta = two_blocks.total_cycles - one_block.total_cycles
        assert delta < one_block.total_cycles

    def test_bits_per_cycle_positive(self, key16):
        run = MhheaCycleModel(key16).run([1] * 128)
        assert 0.5 < run.bits_per_cycle < 8.0


class TestTraceFigures:
    """The per-cycle traces reproduce the paper's simulation figures."""

    def _traced_run(self, key, bits, source=None, seed=0xACE1):
        return MhheaCycleModel(key).run(bits, seed=seed, source=source,
                                        record_trace=True)

    def test_fig5_lmsg_loads_plaintext(self, key16):
        run = self._traced_run(key16, int_to_bits(0xABCD1234, 32))
        trace = run.trace
        lmsg = trace.find("state", states.LMSG)
        assert lmsg >= 0
        assert trace.at(lmsg, "plaintext") == 0xABCD1234
        assert trace.at(lmsg + 1, "msg_cache") == 0xABCD1234

    def test_fig6_lkey_loads_pairs_in_parallel(self, key16):
        run = self._traced_run(key16, [1] * 32)
        trace = run.trace
        cycle = trace.find("state", states.LKEY)
        for offset, pair in enumerate(key16.pairs):
            assert trace.at(cycle + offset, "state") == states.LKEY
            assert trace.at(cycle + offset, "key_left") == pair.k1
            assert trace.at(cycle + offset, "key_right") == pair.k2

    def test_fig7_lmsgcache_takes_low_half_first(self, key16):
        run = self._traced_run(key16, int_to_bits(0xABCD1234, 32))
        trace = run.trace
        cycle = trace.find("state", states.LMSGCACHE)
        assert trace.at(cycle + 1, "buffer") == 0x1234

    def test_fig8_full_worked_example(self, fig8_key):
        source = ScriptedVectorSource([0xCA06] + [0xFFFF] * 20)
        run = self._traced_run(fig8_key, int_to_bits(0x48D0, 16), source=source)
        trace = run.trace
        circ = trace.find("state", states.CIRC)
        assert trace.at(circ, "v") == 0xCA06
        assert trace.at(circ, "kn_small") == 2
        assert trace.at(circ, "kn_large") == 5
        enc = circ + 1
        assert trace.at(enc, "state") == states.ENCRYPT
        assert trace.at(enc, "buffer") == 0x2341      # rotl 2
        assert trace.at(enc + 1, "buffer") == 0x048D  # rotr 6
        assert trace.at(enc + 1, "cipher") == 0xCA02
        assert trace.at(enc + 1, "ready") == 1
        assert run.vectors[0] == 0xCA02

    def test_fsm_visits_states_in_figure1_order(self, key16):
        run = self._traced_run(key16, [1] * 32)
        seq = run.trace.column("state")
        first_occurrence = [seq.index(s) for s in
                            (states.INIT, states.LMSG, states.LKEY,
                             states.LMSGCACHE, states.CIRC, states.ENCRYPT)]
        assert first_occurrence == sorted(first_occurrence)

    def test_done_asserted_at_end(self, key16):
        run = self._traced_run(key16, [1] * 32)
        assert run.trace.at(len(run.trace) - 1, "done") == 1
