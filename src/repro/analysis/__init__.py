"""Evaluation harness: throughput, area, functional density.

Reproduces the quantitative artefacts of the paper's section V and
Appendix A:

* :mod:`repro.analysis.throughput` — the three throughput accountings
  (the paper's max-window formula, the expected-window analytic value,
  and cycle-model measurement);
* :mod:`repro.analysis.density` — functional density (Mbps/CLB) and the
  Figure 9 bar chart;
* :mod:`repro.analysis.literature` — the reported numbers of Table 1 and
  the other implementations the paper cites;
* :mod:`repro.analysis.table1` — the end-to-end Table 1 builder that
  runs our own CAD flow and cycle models next to the literature rows;
* :mod:`repro.analysis.workloads` — deterministic message generators.
"""

__all__ = []
