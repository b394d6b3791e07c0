"""FlowMap: depth-optimal technology mapping into K-input LUTs.

The classic algorithm of Cong & Ding (1994).  Phase one computes, for
every gate in topological order, the minimum possible LUT *depth* label
via a max-flow/min-cut test on the gate's fan-in cone; phase two covers
the network from the outputs using the recorded cuts.  The result is a
netlist of K-feasible LUTs whose depth equals the optimum for the given
decomposition — the right baseline for a Spartan-II (K = 4) flow.

Implementation notes:

* node capacities are modelled by the standard in/out node splitting;
  max flow stops early once it exceeds K (the cut is then infeasible);
* the two global constant nets are invisible to the mapper: they never
  occupy LUT inputs and are folded into truth tables instead;
* every LUT carries its computed truth table, so the mapped netlist is
  executable — :meth:`LutMapping.evaluate` — and the mapping is verified
  against the gate-level simulator by the test suite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.errors import FlowError
from repro.hdl.circuit import Circuit
from repro.hdl.gates import GATE_EVAL, Gate
from repro.hdl.netlist import combinational_dag
from repro.hdl.signal import Signal

__all__ = ["Lut", "LutMapping", "flowmap"]

_CONST_KINDS = ("CONST0", "CONST1")


def _is_const(sig: Signal) -> bool:
    driver = sig.driver
    return isinstance(driver, Gate) and driver.kind in _CONST_KINDS


def _const_value(sig: Signal) -> int:
    return 1 if sig.driver.kind == "CONST1" else 0


@dataclass
class Lut:
    """One mapped K-input lookup table."""

    output: Signal
    inputs: list[Signal]
    truth: int
    """Truth table: bit ``i`` is the output when input ``j`` carries bit
    ``j`` of ``i`` (input 0 is the least significant selector)."""
    label: int
    """FlowMap depth label of the output signal."""
    n_covered: int
    """How many original gates this LUT absorbs."""

    def evaluate(self, values: list[int]) -> int:
        """Output for one input-value assignment."""
        if len(values) != len(self.inputs):
            raise ValueError(
                f"LUT {self.output.name!r} has {len(self.inputs)} inputs, "
                f"got {len(values)} values"
            )
        index = 0
        for j, bit in enumerate(values):
            index |= (bit & 1) << j
        return (self.truth >> index) & 1


@dataclass
class LutMapping:
    """A complete LUT cover of one circuit's combinational logic."""

    circuit: Circuit
    k: int
    luts: list[Lut] = field(default_factory=list)
    sources: list[Signal] = field(default_factory=list)
    sinks: list[Signal] = field(default_factory=list)

    @property
    def n_luts(self) -> int:
        """Number of LUTs in the cover."""
        return len(self.luts)

    @property
    def depth(self) -> int:
        """Maximum LUT depth (FlowMap label) over all mapped outputs."""
        return max((lut.label for lut in self.luts), default=0)

    def evaluate(self, source_values: dict[int, int]) -> dict[int, int]:
        """Evaluate every LUT given source-signal values.

        ``source_values`` maps signal ``index`` to a bit for every
        non-constant source; the return maps every LUT output's signal
        index to its computed bit.  Used by the mapping-equivalence tests
        and by the packer's sanity checks.
        """
        values = dict(source_values)
        remaining = deque(self.luts)
        progress = True
        while remaining and progress:
            progress = False
            for _ in range(len(remaining)):
                lut = remaining.popleft()
                input_bits = []
                ok = True
                for sig in lut.inputs:
                    if _is_const(sig):
                        input_bits.append(_const_value(sig))
                    elif sig.index in values:
                        input_bits.append(values[sig.index])
                    else:
                        ok = False
                        break
                if ok:
                    values[lut.output.index] = lut.evaluate(input_bits)
                    progress = True
                else:
                    remaining.append(lut)
        if remaining:
            raise FlowError(
                f"{len(remaining)} LUTs could not be evaluated "
                "(missing source values or a dependency cycle)"
            )
        return values


def flowmap(circuit: Circuit, k: int = 4) -> LutMapping:
    """Map a circuit's combinational gates into K-input LUTs."""
    if k < 2:
        raise FlowError(f"LUT fanin k must be at least 2, got {k}")
    dag = combinational_dag(circuit)
    gates = _topo_sort(dag.nodes)

    source_ids = {sig.index for sig in dag.sources if not _is_const(sig)}
    labels: dict[int, int] = {idx: 0 for idx in source_ids}
    cuts: dict[int, tuple[Signal, ...]] = {}
    cones: dict[int, set[int]] = {}  # gate.index -> cone gate indices
    gate_by_index = {g.index: g for g in gates}

    for gate in gates:
        fanin = [s for s in gate.inputs if not _is_const(s)]
        cone: set[int] = {gate.index}
        for sig in fanin:
            driver = sig.driver
            if isinstance(driver, Gate) and driver.index in cones:
                cone |= cones[driver.index]
        cones[gate.index] = cone

        if not fanin:
            labels[gate.output.index] = 1
            cuts[gate.output.index] = ()
            continue

        p = max(labels[s.index] for s in fanin)
        if p == 0:
            # every input is a primary source: a 1-level LUT always fits
            labels[gate.output.index] = 1
            cuts[gate.output.index] = tuple(fanin)
            continue

        cut = _feasible_cut(gate, cone, gate_by_index, labels, source_ids, p, k)
        if cut is not None:
            labels[gate.output.index] = p
            cuts[gate.output.index] = cut
        else:
            labels[gate.output.index] = p + 1
            cuts[gate.output.index] = tuple(fanin)
        if len(cuts[gate.output.index]) > k:
            raise FlowError(
                f"gate {gate!r} has {len(fanin)} non-constant inputs; "
                f"cannot map with k={k}"
            )

    mapping = LutMapping(circuit=circuit, k=k, sources=list(dag.sources),
                         sinks=list(dag.sinks))
    _cover(mapping, dag.sinks, cuts, labels)
    return mapping


# ----------------------------------------------------------------------
# phase 1 helpers
# ----------------------------------------------------------------------

def _topo_sort(gates: list[Gate]) -> list[Gate]:
    gate_ids = {g.index for g in gates}
    indegree: dict[int, int] = {}
    consumers: dict[int, list[Gate]] = {}
    for gate in gates:
        count = 0
        for sig in gate.inputs:
            driver = sig.driver
            if isinstance(driver, Gate) and driver.index in gate_ids:
                count += 1
                consumers.setdefault(driver.index, []).append(gate)
        indegree[gate.index] = count
    ready = [g for g in gates if indegree[g.index] == 0]
    ordered: list[Gate] = []
    while ready:
        gate = ready.pop()
        ordered.append(gate)
        for consumer in consumers.get(gate.index, []):
            indegree[consumer.index] -= 1
            if indegree[consumer.index] == 0:
                ready.append(consumer)
    if len(ordered) != len(gates):
        raise FlowError("combinational gates contain a cycle")
    return ordered


def _feasible_cut(
    target: Gate,
    cone: set[int],
    gate_by_index: dict[int, Gate],
    labels: dict[int, int],
    source_ids: set[int],
    p: int,
    k: int,
) -> tuple[Signal, ...] | None:
    """K-feasible min-cut test on the collapsed cone (FlowMap core).

    Returns the cut as a tuple of signals, or None when the min cut at
    height ``p - 1`` exceeds ``k``.
    """
    # Collapse: cone gates with label == p merge into the sink.
    merged: set[int] = {target.index}
    plain: list[Gate] = []
    for idx in cone:
        if idx == target.index:
            continue
        gate = gate_by_index[idx]
        if labels[gate.output.index] == p:
            merged.add(idx)
        else:
            plain.append(gate)

    # Flow-network node ids: each plain gate and each cone-input signal
    # splits into (in, out).  Sources feed cone-input signals; edges to
    # any merged gate go straight to the sink.
    node_ids: dict[tuple[str, int], int] = {}

    def nid(kind: str, key: int) -> int:
        if (kind, key) not in node_ids:
            node_ids[(kind, key)] = len(node_ids)
        return node_ids[(kind, key)]

    SOURCE = nid("s", 0)
    SINK = nid("t", 0)
    edges: dict[int, dict[int, int]] = {}

    def add_edge(u: int, v: int, cap: int) -> None:
        edges.setdefault(u, {})[v] = edges.setdefault(u, {}).get(v, 0) + cap
        edges.setdefault(v, {}).setdefault(u, 0)

    INF = 1 << 20
    cone_inputs: set[int] = set()

    def signal_out_node(sig: Signal) -> int:
        """Flow node representing availability of ``sig``'s value."""
        driver = sig.driver
        if isinstance(driver, Gate) and driver.index in cone and driver.index not in merged:
            return nid("go", driver.index)  # gate's split out-node
        if isinstance(driver, Gate) and driver.index in merged:
            raise AssertionError("merged gate outputs never feed the cut side")
        # cone input: PI / FF / tristate source (or gate outside cone —
        # impossible: cone is the full fan-in cone)
        if sig.index not in cone_inputs:
            cone_inputs.add(sig.index)
            add_edge(SOURCE, nid("pi_in", sig.index), INF)
            add_edge(nid("pi_in", sig.index), nid("pi_out", sig.index), 1)
        return nid("pi_out", sig.index)

    for gate in plain:
        add_edge(nid("gi", gate.index), nid("go", gate.index), 1)
    consumers_of: list[tuple[Signal, int]] = []  # (input signal, consumer node)
    for gate in plain:
        for sig in gate.inputs:
            if _is_const(sig):
                continue
            consumers_of.append((sig, nid("gi", gate.index)))
    for idx in merged:
        for sig in gate_by_index[idx].inputs:
            if _is_const(sig):
                continue
            driver = sig.driver
            if isinstance(driver, Gate) and driver.index in merged:
                continue
            consumers_of.append((sig, SINK))
    for sig, consumer in consumers_of:
        add_edge(signal_out_node(sig), consumer, INF)

    flow_value = _max_flow(edges, SOURCE, SINK, limit=k + 1)
    if flow_value > k:
        return None

    # Min cut: signals whose split edge crosses the residual frontier.
    reachable = _residual_reachable(edges, SOURCE)
    cut_signals: list[Signal] = []
    seen: set[int] = set()
    for (kind, key), node in list(node_ids.items()):
        if kind == "go" and node not in reachable:
            in_node = node_ids.get(("gi", key))
            if in_node in reachable:
                sig = gate_by_index[key].output
                if sig.index not in seen:
                    seen.add(sig.index)
                    cut_signals.append(sig)
        elif kind == "pi_out" and node not in reachable:
            in_node = node_ids.get(("pi_in", key))
            if in_node in reachable and key not in seen:
                seen.add(key)
                cut_signals.append(_signal_by_index(gate_by_index, key, consumers_of))
    if len(cut_signals) > k:  # pragma: no cover - guarded by flow limit
        raise FlowError("min-cut exceeded k despite feasible flow")
    return tuple(cut_signals)


def _signal_by_index(gate_by_index, index: int, consumers_of) -> Signal:
    for sig, _ in consumers_of:
        if sig.index == index:
            return sig
    raise FlowError(f"cut signal {index} not found")  # pragma: no cover


def _max_flow(edges: dict[int, dict[int, int]], s: int, t: int, limit: int) -> int:
    """BFS augmenting-path max flow, stopping once ``limit`` is reached."""
    flow = 0
    while flow < limit:
        parents: dict[int, int] = {s: s}
        queue = deque([s])
        while queue and t not in parents:
            u = queue.popleft()
            for v, cap in edges.get(u, {}).items():
                if cap > 0 and v not in parents:
                    parents[v] = u
                    queue.append(v)
        if t not in parents:
            break
        # unit bottleneck is enough: all finite capacities are 1
        v = t
        bottleneck = 1 << 30
        while v != s:
            u = parents[v]
            bottleneck = min(bottleneck, edges[u][v])
            v = u
        v = t
        while v != s:
            u = parents[v]
            edges[u][v] -= bottleneck
            edges[v][u] += bottleneck
            v = u
        flow += bottleneck
    return flow


def _residual_reachable(edges: dict[int, dict[int, int]], s: int) -> set[int]:
    reachable = {s}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v, cap in edges.get(u, {}).items():
            if cap > 0 and v not in reachable:
                reachable.add(v)
                queue.append(v)
    return reachable


# ----------------------------------------------------------------------
# phase 2: covering
# ----------------------------------------------------------------------

def _cover(
    mapping: LutMapping,
    sinks: list[Signal],
    cuts: dict[int, tuple[Signal, ...]],
    labels: dict[int, int],
) -> None:
    pending: list[Signal] = []
    for sig in sinks:
        driver = sig.driver
        if isinstance(driver, Gate) and driver.kind not in _CONST_KINDS:
            pending.append(sig)
    realised: set[int] = set()
    while pending:
        sig = pending.pop()
        if sig.index in realised:
            continue
        realised.add(sig.index)
        gate = sig.driver
        cut = cuts[sig.index]
        truth = _truth_table(gate, cut)
        mapping.luts.append(
            Lut(
                output=sig,
                inputs=list(cut),
                truth=truth,
                label=labels[sig.index],
                n_covered=_count_covered(gate, cut),
            )
        )
        for input_sig in cut:
            driver = input_sig.driver
            if isinstance(driver, Gate) and driver.kind not in _CONST_KINDS:
                if input_sig.index not in realised:
                    pending.append(input_sig)


def _cone_gates(root: Gate, cut: tuple[Signal, ...]) -> list[Gate]:
    """Gates strictly inside the cut (root included), topo-ordered."""
    cut_ids = {s.index for s in cut}
    seen: set[int] = set()
    order: list[Gate] = []

    def visit(gate: Gate) -> None:
        if gate.index in seen:
            return
        seen.add(gate.index)
        for sig in gate.inputs:
            if sig.index in cut_ids or _is_const(sig):
                continue
            driver = sig.driver
            if isinstance(driver, Gate):
                visit(driver)
            else:  # pragma: no cover - cut always covers sources
                raise FlowError(
                    f"source {sig.name!r} reached inside a cut cone"
                )
        order.append(gate)

    visit(root)
    return order


def _truth_table(root: Gate, cut: tuple[Signal, ...]) -> int:
    gates = _cone_gates(root, cut)
    truth = 0
    n = len(cut)
    for assignment in range(1 << n):
        values: dict[int, int] = {
            sig.index: (assignment >> j) & 1 for j, sig in enumerate(cut)
        }
        for gate in gates:
            input_bits = []
            for sig in gate.inputs:
                if _is_const(sig):
                    input_bits.append(_const_value(sig))
                else:
                    input_bits.append(values[sig.index])
            values[gate.output.index] = GATE_EVAL[gate.kind](*input_bits)
        if values[root.output.index]:
            truth |= 1 << assignment
    return truth


def _count_covered(root: Gate, cut: tuple[Signal, ...]) -> int:
    return len(_cone_gates(root, cut))
