"""Structural circuit builder.

A :class:`Circuit` accumulates signals, gates, flip-flops and tristate
groups, and offers word-level constructors (adders, comparators, barrel
rotators, one-hot decoders, tristate buses) that decompose into the
fanin-bounded primitive library of :mod:`repro.hdl.gates`.  The RTL
package builds the entire MHHEA micro-architecture through this API, so
the resulting netlist is genuinely gate-level and feeds the FPGA CAD flow
without any translation step.

Conventions:

* all buses are little-endian (``bus[0]`` = LSB);
* constant-distance rotations are free (rewiring), variable rotations
  cost one 2:1 mux per bit per stage — exactly the paper's
  "multiplexers are used for n-bit rotations" (section 3.2);
* every constructor returns freshly created output signals/buses and
  never mutates its operands.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.hdl.gates import Dff, Gate, MAX_FANIN, Tbuf, TristateGroup
from repro.hdl.signal import Bus, Signal
from repro.util.bits import check_uint

__all__ = ["Circuit"]


class Circuit:
    """A structural netlist under construction."""

    def __init__(self, name: str):
        self.name = name
        self.signals: list[Signal] = []
        self.gates: list[Gate] = []
        self.dffs: list[Dff] = []
        self.tristate_groups: list[TristateGroup] = []
        self.inputs: dict[str, Bus] = {}
        self.outputs: dict[str, Bus] = {}
        self._const_cache: dict[int, Signal] = {}
        self._name_counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    # net management
    # ------------------------------------------------------------------

    def _unique(self, stem: str) -> str:
        count = self._name_counts.get(stem, 0)
        self._name_counts[stem] = count + 1
        return stem if count == 0 else f"{stem}.{count}"

    def signal(self, name: str = "n") -> Signal:
        """Create one new net with a unique name."""
        sig = Signal(self._unique(name), len(self.signals))
        self.signals.append(sig)
        return sig

    def bus(self, name: str, width: int) -> Bus:
        """Create a new internal bus of fresh nets."""
        if width <= 0:
            raise ValueError(f"bus width must be positive, got {width}")
        return Bus(name, [self.signal(f"{name}[{i}]") for i in range(width)])

    def input_bus(self, name: str, width: int) -> Bus:
        """Declare a primary-input bus (driven from the testbench)."""
        if name in self.inputs:
            raise ValueError(f"duplicate input {name!r}")
        bus = self.bus(name, width)
        for sig in bus:
            sig.is_input = True
        self.inputs[name] = bus
        return bus

    def set_output(self, name: str, bus: Bus) -> Bus:
        """Declare an existing bus as a primary output."""
        if name in self.outputs:
            raise ValueError(f"duplicate output {name!r}")
        self.outputs[name] = bus
        return bus

    def const(self, value: int) -> Signal:
        """The shared constant-0 or constant-1 net."""
        if value not in (0, 1):
            raise ValueError(f"constant must be 0 or 1, got {value}")
        if value not in self._const_cache:
            sig = self.signal(f"const{value}")
            gate = Gate("CONST1" if value else "CONST0", [], sig, len(self.gates))
            sig.driver = gate
            sig.value = value
            self.gates.append(gate)
            self._const_cache[value] = sig
        return self._const_cache[value]

    def const_bus(self, value: int, width: int) -> Bus:
        """A bus hard-wired to ``value``."""
        check_uint(value, width, "constant bus value")
        return Bus(
            f"const{value:#x}",
            [self.const((value >> i) & 1) for i in range(width)],
        )

    # ------------------------------------------------------------------
    # single-bit gates
    # ------------------------------------------------------------------

    def gate(self, kind: str, *inputs: Signal, name: str = "n") -> Signal:
        """Instantiate one primitive; returns its output net."""
        out = self.signal(name)
        g = Gate(kind, list(inputs), out, len(self.gates))
        out.driver = g
        self.gates.append(g)
        for sig in inputs:
            sig.fanout.append(g)
        return out

    def buf(self, a: Signal, name: str = "buf") -> Signal:
        """Identity buffer (used to rename/isolate nets)."""
        return self.gate("BUF", a, name=name)

    def not_(self, a: Signal, name: str = "not") -> Signal:
        """Logical NOT."""
        return self.gate("NOT", a, name=name)

    def and_(self, *inputs: Signal, name: str = "and") -> Signal:
        """AND of 1..n inputs, decomposed into a tree of AND2..AND4."""
        return self._tree({2: "AND2", 3: "AND3", 4: "AND4"}, list(inputs), name)

    def or_(self, *inputs: Signal, name: str = "or") -> Signal:
        """OR of 1..n inputs, decomposed into a tree of OR2..OR4."""
        return self._tree({2: "OR2", 3: "OR3", 4: "OR4"}, list(inputs), name)

    def xor_(self, *inputs: Signal, name: str = "xor") -> Signal:
        """XOR of 1..n inputs, decomposed into a tree of XOR2/XOR3."""
        return self._tree({2: "XOR2", 3: "XOR3"}, list(inputs), name)

    def mux(self, sel: Signal, a: Signal, b: Signal, name: str = "mux") -> Signal:
        """2:1 mux: ``a`` when sel=0, ``b`` when sel=1."""
        return self.gate("MUX2", sel, a, b, name=name)

    def _tree(self, kinds: dict[int, str], inputs: list[Signal], name: str) -> Signal:
        if not inputs:
            raise ValueError("gate tree needs at least one input")
        level = list(inputs)
        widest = max(kinds)
        while len(level) > 1:
            next_level: list[Signal] = []
            i = 0
            while i < len(level):
                chunk = level[i : i + widest]
                if len(chunk) == 1:
                    next_level.append(chunk[0])
                else:
                    next_level.append(self.gate(kinds[len(chunk)], *chunk, name=name))
                i += widest
            level = next_level
        return level[0]

    # ------------------------------------------------------------------
    # word-level combinational helpers
    # ------------------------------------------------------------------

    def xor_bus(self, a: Bus, b: Bus, name: str = "xorb") -> Bus:
        """Bitwise XOR of two equal-width buses."""
        self._check_widths(a, b)
        return Bus(
            name,
            [self.xor_(x, y, name=f"{name}[{i}]") for i, (x, y) in enumerate(zip(a, b))],
        )

    def and_bus(self, a: Bus, b: Bus, name: str = "andb") -> Bus:
        """Bitwise AND of two equal-width buses."""
        self._check_widths(a, b)
        return Bus(
            name,
            [self.and_(x, y, name=f"{name}[{i}]") for i, (x, y) in enumerate(zip(a, b))],
        )

    def mux_bus(self, sel: Signal, a: Bus, b: Bus, name: str = "muxb") -> Bus:
        """Word-level 2:1 mux (``a`` when sel=0)."""
        self._check_widths(a, b)
        return Bus(
            name,
            [self.mux(sel, x, y, name=f"{name}[{i}]") for i, (x, y) in enumerate(zip(a, b))],
        )

    def muxn(self, sel: Bus, choices: Sequence[Bus], name: str = "muxn") -> Bus:
        """N:1 word mux as a balanced tree of 2:1 stages.

        ``len(choices)`` must equal ``2 ** sel.width``; choice ``k`` is
        selected when the select bus carries value ``k``.
        """
        if len(choices) != (1 << sel.width):
            raise ValueError(
                f"muxn needs {1 << sel.width} choices for a {sel.width}-bit select, "
                f"got {len(choices)}"
            )
        layer = list(choices)
        for stage, sel_bit in enumerate(sel):
            layer = [
                self.mux_bus(sel_bit, layer[2 * i], layer[2 * i + 1],
                             name=f"{name}.s{stage}.{i}")
                for i in range(len(layer) // 2)
            ]
        return Bus(name, list(layer[0]))

    def equals_const(self, a: Bus, value: int, name: str = "eqc") -> Signal:
        """1 when the bus carries exactly ``value``."""
        check_uint(value, a.width, "comparison constant")
        literals = [
            sig if (value >> i) & 1 else self.not_(sig, name=f"{name}.n{i}")
            for i, sig in enumerate(a)
        ]
        return self.and_(*literals, name=name)

    def equals(self, a: Bus, b: Bus, name: str = "eq") -> Signal:
        """1 when two buses carry the same value."""
        self._check_widths(a, b)
        xnors = [
            self.gate("XNOR2", x, y, name=f"{name}.b{i}")
            for i, (x, y) in enumerate(zip(a, b))
        ]
        return self.and_(*xnors, name=name)

    def adder(self, a: Bus, b: Bus, cin: Signal | None = None,
              name: str = "add") -> tuple[Bus, Signal]:
        """Ripple-carry adder; returns (sum bus, carry out)."""
        self._check_widths(a, b)
        carry = cin if cin is not None else self.const(0)
        sums: list[Signal] = []
        for i, (x, y) in enumerate(zip(a, b)):
            axb = self.xor_(x, y, name=f"{name}.p{i}")
            sums.append(self.xor_(axb, carry, name=f"{name}.s{i}"))
            gen = self.and_(x, y, name=f"{name}.g{i}")
            prop = self.and_(axb, carry, name=f"{name}.t{i}")
            carry = self.or_(gen, prop, name=f"{name}.c{i}")
        return Bus(name, sums), carry

    def subtractor(self, a: Bus, b: Bus, name: str = "sub") -> tuple[Bus, Signal]:
        """Ripple-borrow subtractor ``a - b``; returns (difference, borrow).

        The borrow output doubles as the unsigned ``a < b`` flag, which is
        how the comparator module of the micro-architecture is built.
        """
        self._check_widths(a, b)
        borrow = self.const(0)
        diffs: list[Signal] = []
        for i, (x, y) in enumerate(zip(a, b)):
            axb = self.xor_(x, y, name=f"{name}.p{i}")
            diffs.append(self.xor_(axb, borrow, name=f"{name}.d{i}"))
            b_and_not_a = self.gate("ANDN2", y, x, name=f"{name}.k{i}")
            keep = self.gate("ANDN2", borrow, axb, name=f"{name}.m{i}")
            borrow = self.or_(b_and_not_a, keep, name=f"{name}.b{i}")
        return Bus(name, diffs), borrow

    def less_than(self, a: Bus, b: Bus, name: str = "lt") -> Signal:
        """Unsigned ``a < b`` (the borrow of ``a - b``)."""
        _, borrow = self.subtractor(a, b, name=name)
        return borrow

    def increment(self, a: Bus, name: str = "inc") -> Bus:
        """``a + 1`` with the carry dropped (wrap-around counter step)."""
        one = self.const_bus(1, a.width)
        total, _ = self.adder(a, one, name=name)
        return total

    def rotate_left_const(self, a: Bus, amount: int, name: str = "rolc") -> Bus:
        """Rotation by a constant: pure rewiring, zero gates."""
        amount %= a.width
        order = [a[(i - amount) % a.width] for i in range(a.width)]
        return Bus(f"{name}{amount}", order)

    def barrel_rotate_left(self, a: Bus, amount: Bus, name: str = "rol") -> Bus:
        """Variable left rotation: one mux-per-bit stage per select bit.

        Stage ``s`` rotates by ``2**s`` when ``amount[s]`` is set; with a
        ``log2(width)``-bit amount this is the full barrel rotator of the
        message-alignment module, and each stage is a single LUT level —
        "the circulate operation takes only one clock cycle" because the
        whole rotator is combinational.  A narrower amount bus simply
        yields a rotator covering ``0 .. 2**amount.width - 1``, which is
        all the alignment module needs (left rotations never exceed the
        key range).
        """
        current = a
        for stage, sel_bit in enumerate(amount):
            shift = 1 << stage
            if shift >= a.width:
                break
            rotated = self.rotate_left_const(current, shift, name=f"{name}.w{stage}")
            current = self.mux_bus(sel_bit, current, rotated, name=f"{name}.s{stage}")
        return Bus(name, list(current))

    def barrel_rotate_right(self, a: Bus, amount: Bus, name: str = "ror") -> Bus:
        """Variable right rotation via mux stages (mirror of the left)."""
        current = a
        for stage, sel_bit in enumerate(amount):
            shift = 1 << stage
            if shift >= a.width:
                break
            rotated = self.rotate_left_const(
                current, a.width - shift, name=f"{name}.w{stage}"
            )
            current = self.mux_bus(sel_bit, current, rotated, name=f"{name}.s{stage}")
        return Bus(name, list(current))

    def decoder(self, addr: Bus, enable: Signal | None = None, name: str = "dec") -> Bus:
        """One-hot decoder: output ``k`` is high when ``addr == k``.

        With ``enable`` given, all outputs are gated by it — the classic
        write-enable decode for register files and tristate buses.
        """
        outputs = []
        for value in range(1 << addr.width):
            hit = self.equals_const(addr, value, name=f"{name}.{value}")
            if enable is not None:
                hit = self.and_(hit, enable, name=f"{name}.{value}e")
            outputs.append(hit)
        return Bus(name, outputs)

    # ------------------------------------------------------------------
    # sequential elements
    # ------------------------------------------------------------------

    def dff(self, d: Signal, enable: Signal | None = None,
            reset: Signal | None = None, init: int = 0, name: str = "q") -> Signal:
        """One D flip-flop; returns the Q net."""
        q = self.signal(name)
        self.dff_on(q, d, enable, reset, init)
        return q

    def dff_on(self, q: Signal, d: Signal, enable: Signal | None = None,
               reset: Signal | None = None, init: int = 0) -> None:
        """Attach a flip-flop that drives an *existing* bare net ``q``.

        This is how feedback loops are closed: create the Q nets first
        (:meth:`bus`), build the combinational logic that reads them,
        then bind each Q to its computed D.
        """
        if q.driver is not None:
            raise ValueError(f"net {q.name!r} already has a driver")
        ff = Dff(d, q, enable, reset, init, len(self.dffs))
        q.driver = ff
        q.value = init
        self.dffs.append(ff)

    def register_on(self, q: Bus, d: Bus, enable: Signal | None = None,
                    reset: Signal | None = None, init: int = 0) -> None:
        """Bus-wide :meth:`dff_on` (close a word-level feedback loop)."""
        self._check_widths(q, d)
        check_uint(init, q.width, "register init")
        for i, (q_sig, d_sig) in enumerate(zip(q, d)):
            self.dff_on(q_sig, d_sig, enable, reset, (init >> i) & 1)

    def register(self, d: Bus, enable: Signal | None = None,
                 reset: Signal | None = None, init: int = 0,
                 name: str = "reg") -> Bus:
        """A bank of flip-flops over a whole bus."""
        check_uint(init, d.width, "register init")
        return Bus(
            name,
            [
                self.dff(bit, enable, reset, (init >> i) & 1, name=f"{name}[{i}]")
                for i, bit in enumerate(d)
            ],
        )

    # ------------------------------------------------------------------
    # tristate buses
    # ------------------------------------------------------------------

    def tristate_bus(self, name: str, width: int) -> Bus:
        """A bus of shared nets, each resolved from tristate drivers."""
        nets = []
        for i in range(width):
            sig = self.signal(f"{name}[{i}]")
            group = TristateGroup(sig, len(self.tristate_groups))
            sig.driver = group
            self.tristate_groups.append(group)
            nets.append(sig)
        return Bus(name, nets)

    def tbuf_drive(self, data: Bus, enable: Signal, net: Bus) -> None:
        """Attach one tristate driver per bit of ``net``.

        ``net`` must have been created by :meth:`tristate_bus`.  Each bit
        costs one TBUF resource, which is how the design summary's TBUF
        count arises.
        """
        self._check_widths(data, net)
        for data_sig, net_sig in zip(data, net):
            group = net_sig.driver
            if not isinstance(group, TristateGroup):
                raise ValueError(f"{net_sig.name!r} is not a tristate net")
            t = Tbuf(data_sig, enable, sum(len(g.buffers) for g in self.tristate_groups))
            group.buffers.append(t)
            data_sig.fanout.append(group)
            enable.fanout.append(group)

    # ------------------------------------------------------------------

    def n_tbufs(self) -> int:
        """Total tristate buffers instantiated (one per driver per bit)."""
        return sum(len(g.buffers) for g in self.tristate_groups)

    @staticmethod
    def _check_widths(a: Bus, b: Bus) -> None:
        if a.width != b.width:
            raise ValueError(
                f"bus width mismatch: {a.name!r} is {a.width}, {b.name!r} is {b.width}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Circuit({self.name!r}: {len(self.gates)} gates, "
            f"{len(self.dffs)} dffs, {self.n_tbufs()} tbufs)"
        )
