"""Gate-level check of the parametric-width claim (paper section VI).

"A construction that effortlessly allows the user's data block to be
varied" — the structural builders are parametric in the vector geometry,
so a 32-bit-vector MHHEA processor (64-bit blocks, 4-bit keys, 16-bit
windows) must elaborate, simulate, and match the framed reference just
like the paper's 16-bit build.
"""

import pytest

from repro.core import mhhea
from repro.core.key import Key
from repro.core.params import VectorParams
from repro.hdl.netlist import netlist_stats
from repro.rtl.cycle_model import MhheaCycleModel
from repro.rtl.testbench import MhheaHardwareDriver
from repro.rtl.top import build_mhhea_top
from repro.util.bits import bytes_to_bits
from repro.util.lfsr import Lfsr


@pytest.fixture(scope="module")
def wide():
    params = VectorParams(32)
    key = Key.generate(seed=4, n_pairs=16, params=params)
    top = build_mhhea_top(params, n_pairs=16, seed=0xBEEF1)
    return params, key, MhheaHardwareDriver(top)


class TestWidth32Structural:
    def test_gate_level_matches_reference(self, wide):
        params, key, driver = wide
        bits = bytes_to_bits(b"wide vectors in gates!!!")  # 3 x 64-bit blocks
        run = driver.run(bits, key)
        ref = mhhea.encrypt_bits(bits, key, Lfsr(32, seed=0xBEEF1), params,
                                 frame_bits=32, engine="reference")
        assert run.vectors == ref

    def test_gate_level_matches_cycle_model(self, wide):
        params, key, driver = wide
        bits = bytes_to_bits(b"cycle/gate agree wide...")
        hw = driver.run(bits, key)
        cm = MhheaCycleModel(key, params).run(bits, seed=0xBEEF1)
        assert hw.vectors == cm.vectors

    def test_decryptable(self, wide):
        params, key, driver = wide
        bits = bytes_to_bits(b"decrypt the wide build..")
        run = driver.run(bits, key)
        assert mhhea.decrypt_bits(run.vectors, key, len(bits), params,
                                  frame_bits=32, engine="reference") == bits

    def test_resources_scale_with_width(self, wide):
        _, _, driver = wide
        wide_stats = netlist_stats(driver.top.circuit)
        narrow_stats = netlist_stats(build_mhhea_top().circuit)
        # double-width datapath: more FFs and gates, TBUF bus wider
        assert wide_stats.n_dffs > narrow_stats.n_dffs
        assert wide_stats.n_gates > narrow_stats.n_gates
        assert wide_stats.n_tbufs > narrow_stats.n_tbufs
