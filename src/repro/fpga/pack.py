"""Slice and CLB packing.

Spartan-II architecture: a slice holds two 4-input LUTs and two
flip-flops; a CLB holds two slices.  Packing policy (the standard Xilinx
map heuristic, simplified):

1. a flip-flop whose D input is produced by a LUT that drives nothing
   else is *fused* with that LUT (the LUT output uses the slice-internal
   connection, costing no routing);
2. fused pairs, remaining LUTs and remaining FFs are then packed two per
   slice, preferring to co-locate cells that share input signals (a
   cheap connectivity affinity that helps the placer).

Tristate buffers occupy dedicated TBUF sites next to the CLBs and are
tracked but not slotted into slices, matching the separate "Number of
TBUFs" line of the design summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import FlowError
from repro.hdl.circuit import Circuit
from repro.hdl.gates import Dff, Gate, Tbuf
from repro.hdl.signal import Signal
from repro.fpga.device import FpgaDevice
from repro.fpga.techmap import Lut, LutMapping

__all__ = ["PackedCell", "Slice", "PackedDesign", "pack_design"]


@dataclass
class PackedCell:
    """One slice slot: a LUT, a FF, or a fused LUT→FF pair."""

    lut: Lut | None = None
    ff: Dff | None = None

    @property
    def input_signals(self) -> list[Signal]:
        """Signals this cell reads from the routing fabric."""
        signals: list[Signal] = []
        if self.lut is not None:
            signals.extend(self.lut.inputs)
        if self.ff is not None:
            if self.lut is None:
                signals.append(self.ff.d)
            if self.ff.enable is not None:
                signals.append(self.ff.enable)
            if self.ff.reset is not None:
                signals.append(self.ff.reset)
        return signals

    @property
    def output_signals(self) -> list[Signal]:
        """Signals this cell drives onto the routing fabric."""
        signals: list[Signal] = []
        if self.lut is not None and self.ff is None:
            signals.append(self.lut.output)
        if self.ff is not None:
            signals.append(self.ff.q)
        return signals


@dataclass
class Slice:
    """One packed slice (up to two cells)."""

    index: int
    cells: list[PackedCell] = field(default_factory=list)

    @property
    def n_luts(self) -> int:
        """LUTs used in this slice."""
        return sum(1 for c in self.cells if c.lut is not None)

    @property
    def n_ffs(self) -> int:
        """Flip-flops used in this slice."""
        return sum(1 for c in self.cells if c.ff is not None)


@dataclass
class PackedDesign:
    """The packing result for one circuit on one device."""

    circuit: Circuit
    device: FpgaDevice
    mapping: LutMapping
    slices: list[Slice]
    tbufs: list[Tbuf]

    @property
    def n_slices(self) -> int:
        """Slices occupied."""
        return len(self.slices)

    @property
    def n_luts(self) -> int:
        """LUTs used across every slice."""
        return sum(s.n_luts for s in self.slices)

    @property
    def n_ffs(self) -> int:
        """Flip-flops used across every slice."""
        return sum(s.n_ffs for s in self.slices)

    @property
    def n_clbs(self) -> int:
        """CLBs occupied (two slices per CLB, rounded up)."""
        per_clb = self.device.slices_per_clb
        return (len(self.slices) + per_clb - 1) // per_clb


def pack_design(mapping: LutMapping, device: FpgaDevice) -> PackedDesign:
    """Pack a LUT mapping plus its circuit's FFs/TBUFs into slices."""
    circuit = mapping.circuit

    # How many loads does each LUT output have *inside* the netlist?
    load_count: dict[int, int] = {}
    for lut in mapping.luts:
        for sig in lut.inputs:
            load_count[sig.index] = load_count.get(sig.index, 0) + 1
    for ff in circuit.dffs:
        for sig in (ff.d, ff.enable, ff.reset):
            if sig is not None:
                load_count[sig.index] = load_count.get(sig.index, 0) + 1
    for group in circuit.tristate_groups:
        for t in group.buffers:
            load_count[t.input.index] = load_count.get(t.input.index, 0) + 1
            load_count[t.enable.index] = load_count.get(t.enable.index, 0) + 1
    output_ids = {
        sig.index for bus in circuit.outputs.values() for sig in bus
    }

    lut_by_output = {lut.output.index: lut for lut in mapping.luts}
    fused_luts: set[int] = set()
    cells: list[PackedCell] = []

    for ff in circuit.dffs:
        lut = lut_by_output.get(ff.d.index)
        exclusive = (
            lut is not None
            and load_count.get(ff.d.index, 0) == 1
            and ff.d.index not in output_ids
        )
        if exclusive:
            fused_luts.add(lut.output.index)
            cells.append(PackedCell(lut=lut, ff=ff))
        else:
            cells.append(PackedCell(ff=ff))
    for lut in mapping.luts:
        if lut.output.index not in fused_luts:
            cells.append(PackedCell(lut=lut))

    slices = _fill_slices(cells)
    tbufs = [t for group in circuit.tristate_groups for t in group.buffers]

    design = PackedDesign(
        circuit=circuit, device=device, mapping=mapping,
        slices=slices, tbufs=tbufs,
    )
    _check_capacity(design)
    return design


def _fill_slices(cells: list[PackedCell]) -> list[Slice]:
    """Pair cells two per slice, preferring shared-input affinity."""
    remaining = list(cells)
    slices: list[Slice] = []
    while remaining:
        first = remaining.pop(0)
        best_j = -1
        best_shared = -1
        first_inputs = {s.index for s in first.input_signals}
        # Scan a bounded window: affinity packing is a heuristic, and a
        # full O(n^2) scan buys nothing measurable on designs this size.
        for j in range(min(len(remaining), 64)):
            shared = len(
                first_inputs & {s.index for s in remaining[j].input_signals}
            )
            if shared > best_shared:
                best_shared = shared
                best_j = j
        members = [first]
        if best_j >= 0:
            members.append(remaining.pop(best_j))
        slices.append(Slice(index=len(slices), cells=members))
    return slices


def _check_capacity(design: PackedDesign) -> None:
    device = design.device
    if design.n_slices > device.n_slices:
        raise FlowError(
            f"design needs {design.n_slices} slices, "
            f"{device.name} has {device.n_slices}"
        )
    if len(design.tbufs) > device.n_tbufs:
        raise FlowError(
            f"design needs {len(design.tbufs)} TBUFs, "
            f"{device.name} has {device.n_tbufs}"
        )
    stats_io = (
        sum(b.width for b in design.circuit.inputs.values())
        + sum(b.width for b in design.circuit.outputs.values())
    )
    if stats_io > device.n_iobs:
        raise FlowError(
            f"design needs {stats_io} bonded IOBs, "
            f"{device.name} has {device.n_iobs}"
        )
