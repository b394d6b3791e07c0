"""A self-contained FPGA implementation flow.

Our stand-in for the Xilinx Foundation back end the paper used.  Each
stage implements the standard published algorithm for its problem:

* :mod:`repro.fpga.device` — device models (Spartan-II xc2s100 and
  friends) with geometry, capacity and a delay model;
* :mod:`repro.fpga.techmap` — FlowMap: depth-optimal covering of the
  gate netlist with 4-input LUTs (Cong & Ding, 1994);
* :mod:`repro.fpga.pack` — slice/CLB packing (2 LUTs + 2 FFs per
  Spartan-II slice, 2 slices per CLB);
* :mod:`repro.fpga.place` — simulated-annealing placement minimising
  half-perimeter wirelength;
* :mod:`repro.fpga.route` — PathFinder-style negotiated-congestion
  routing on a grid routing graph;
* :mod:`repro.fpga.timing` — static timing analysis over the
  implemented netlist (LUT/TBUF/FF delays plus routed net delays);
* :mod:`repro.fpga.reports` / :mod:`repro.fpga.floorplan` — the design
  summary, timing summary and floor plan in the shape of the paper's
  Appendix A;
* :mod:`repro.fpga.flow` — the end-to-end driver.
"""

__all__ = []
