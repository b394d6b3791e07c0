"""Gate-level hardware modelling substrate.

The paper's micro-architecture was entered in Xilinx Foundation and
simulated with its logic simulator; this package is our stand-in for that
toolchain.  It provides:

* :mod:`repro.hdl.signal` — single-bit nets and multi-bit buses;
* :mod:`repro.hdl.gates` — the primitive cell library (fanin-bounded
  logic gates, D flip-flops, tristate buffers);
* :mod:`repro.hdl.circuit` — the structural builder with word-level
  helpers (adders, comparators, barrel rotators, tristate buses);
* :mod:`repro.hdl.sim` — an event-driven, levelised logic simulator;
* :mod:`repro.hdl.netlist` — netlist statistics, text dumps and the DAG
  views consumed by the FPGA CAD flow;
* :mod:`repro.hdl.vcd` / :mod:`repro.hdl.wave` — VCD and ASCII waveform
  writers for the simulation figures.
"""

__all__ = []
