"""The paper's micro-architecture, modelled at two levels.

* **Behavioural cycle models** — register-accurate, one Python step per
  clock, fast enough for throughput measurement and waveform generation:

  - :class:`repro.rtl.cycle_model.MhheaCycleModel` — the improved
    parallel-replacement design (paper sections III–IV);
  - :class:`repro.rtl.serial_model.HheaSerialCycleModel` — the earlier
    serial design [SAEB04a] whose key-dependent timing the paper
    criticises;
  - :class:`repro.rtl.yaea_like.YaeaLikeCycleModel` — the YAEA stand-in
    stream design used for the Table 1 comparison pipeline.

* **Structural gate-level builds** — the same designs elaborated into
  :class:`repro.hdl.circuit.Circuit` netlists of LUT-mappable gates,
  flip-flops and tristate buffers, which are what the FPGA CAD flow
  implements and what the gate-level equivalence tests simulate:
  :mod:`repro.rtl.top` (improved), :mod:`repro.rtl.serial_top` (serial)
  and :mod:`repro.rtl.yaea_top` (YAEA stand-in).

:mod:`repro.rtl.states` holds the six states of the paper's Figure 1.
The serial design replaces CIRC/ENCRYPT with its own ``SETUP``/``SHIFT``
(``SERIAL_STATES`` in :mod:`repro.rtl.serial_top`), and the YAEA build
has its own ``INIT``/``LKEY``/``ENCRYPT``/``DONE`` machine
(``YAEA_STATES`` in :mod:`repro.rtl.yaea_top`).
"""

__all__ = []
