"""Gate-level equivalence: structural netlists vs cycle models vs reference.

These are the reproduction's strongest correctness anchors: the same
message, key and seed driven through three independent implementations
(reference cipher in framed mode, behavioural cycle model, gate-level
netlist under the event-driven simulator) must produce identical vector
streams.
"""

import pytest

from repro.core import hhea, mhhea
from repro.core.errors import HardwareModelError
from repro.core.key import Key
from repro.hdl.netlist import netlist_stats
from repro.rtl.cycle_model import MhheaCycleModel
from repro.rtl.serial_model import HheaSerialCycleModel
from repro.rtl.testbench import (
    MhheaHardwareDriver,
    SerialHardwareDriver,
    YaeaHardwareDriver,
)
from repro.rtl.top import build_mhhea_top
from repro.rtl.yaea_like import YaeaLikeCycleModel
from repro.util.bits import bytes_to_bits
from repro.util.lfsr import Lfsr


@pytest.fixture(scope="module")
def mhhea_driver():
    return MhheaHardwareDriver(top=build_mhhea_top(seed=0x5EED))


class TestMhheaGateLevel:
    def test_single_block(self, mhhea_driver, key16):
        bits = bytes_to_bits(b"abcd")
        run = mhhea_driver.run(bits, key16)
        ref = mhhea.encrypt_bits(bits, key16, Lfsr(16, seed=0x5EED),
                                 frame_bits=16, engine="reference")
        assert run.vectors == ref

    def test_multi_block(self, mhhea_driver, key16):
        bits = bytes_to_bits(b"a longer multi-block message!!!!")  # 8 blocks
        run = mhhea_driver.run(bits, key16)
        cm = MhheaCycleModel(key16).run(bits, seed=0x5EED)
        assert run.vectors == cm.vectors
        assert abs(run.total_cycles - cm.total_cycles) <= 1

    def test_reusable_across_runs(self, mhhea_driver, key16):
        bits = bytes_to_bits(b"1234")
        first = mhhea_driver.run(bits, key16)
        second = mhhea_driver.run(bits, key16)
        assert first.vectors == second.vectors

    def test_different_keys_different_output(self, mhhea_driver):
        bits = bytes_to_bits(b"zzzz")
        a = mhhea_driver.run(bits, Key.generate(seed=1))
        b = mhhea_driver.run(bits, Key.generate(seed=2))
        assert a.vectors != b.vectors

    def test_decryptable_by_software(self, mhhea_driver, key16):
        bits = bytes_to_bits(b"hardware to software")  # 5 blocks
        run = mhhea_driver.run(bits, key16)
        assert mhhea.decrypt_bits(run.vectors, key16, len(bits),
                                  frame_bits=16, engine="reference") == bits

    def test_rejects_partial_blocks(self, mhhea_driver, key16):
        with pytest.raises(HardwareModelError):
            mhhea_driver.run([1] * 17, key16)

    def test_rejects_key_length_mismatch(self, mhhea_driver):
        with pytest.raises(HardwareModelError):
            mhhea_driver.run([1] * 32, Key.generate(seed=1, n_pairs=4))

    def test_resource_shape_matches_paper_scale(self, mhhea_driver):
        stats = netlist_stats(mhhea_driver.top.circuit)
        # paper: 205 FFs, 206 TBUFs, 57 IOBs, 393 LUTs (we compare FFs
        # and TBUFs directly; LUTs only exist after mapping)
        assert 180 <= stats.n_dffs <= 230
        assert 150 <= stats.n_tbufs <= 230
        assert 40 <= stats.n_io_bits <= 80


class TestSerialGateLevel:
    def test_matches_cycle_model_and_reference(self, key16):
        driver = SerialHardwareDriver(key=key16, seed=0x0BAD)
        bits = bytes_to_bits(b"serial check 1234567")  # 5 blocks
        run = driver.run(bits, key16)
        ref = hhea.encrypt_bits(bits, key16, Lfsr(16, seed=0x0BAD),
                                frame_bits=16, engine="reference")
        cm = HheaSerialCycleModel(key16).run(bits, seed=0x0BAD)
        assert run.vectors == ref
        assert run.vectors == cm.vectors

    def test_timing_matches_cycle_model(self, key16):
        driver = SerialHardwareDriver(key=key16, seed=0x0BAD)
        bits = bytes_to_bits(b"abcd")
        run = driver.run(bits, key16)
        cm = HheaSerialCycleModel(key16).run(bits, seed=0x0BAD)
        gaps_hw = [b - a for a, b in zip(run.ready_cycles, run.ready_cycles[1:])]
        gaps_cm = [b - a for a, b in zip(cm.ready_cycles, cm.ready_cycles[1:])]
        assert gaps_hw == gaps_cm


class TestYaeaGateLevel:
    def test_matches_cycle_model(self):
        driver = YaeaHardwareDriver(seed=0x7777)
        bits = bytes_to_bits(b"stream!!")
        run = driver.run(bits)
        cm = YaeaLikeCycleModel(seed=0x7777).run(bits)
        assert run.vectors == cm.vectors

    def test_roundtrip_via_software(self):
        from repro.rtl.yaea_like import decrypt_words

        driver = YaeaHardwareDriver(seed=0x2468)
        bits = bytes_to_bits(b"roundtrip")
        run = driver.run(bits)
        assert decrypt_words(run.vectors, 0x2468, len(bits)) == bits
