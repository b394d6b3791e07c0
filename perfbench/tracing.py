"""Spans around each layer's public entry points, kept in memory.

The traced run patches the entry points below with thin wrappers that
record one span per call: name, start, end, parent span and the id of
the operation the workload is on.  Only synchronous functions are wrapped,
so spans nest on one stack even when asyncio interleaves coroutines: a
synchronous call always returns before the event loop runs anything
else.  Nothing in the library is edited; the wrappers are installed for
the traced run only and removed afterwards.

A layer's self time is the time its spans cover minus the time their
child spans cover.  Whatever no span covers is charged to
``net.transport``: the asyncio server, client and sockets on the link
workloads, the hub's byte shuttle on ``relay-churn``.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from collections import defaultdict

#: The columns of one span row in :attr:`Tracer.spans`.
FIELDS = ("name", "parent", "op", "start", "end")

#: Layers in report order; ``net.transport`` is the uncovered residual.
LAYERS = ("core.engines", "core.stream", "net.session", "net.framing",
          "link.protocol", "kex", "relay", "obs", "net.transport")

#: Layers only ``relay-churn`` reaches.  Their time is reported as a
#: share of the wall only, so that no workload prints a time it did not
#: measure (a zero) under a name that reads as a measured time.
RELAY_ONLY = ("kex", "relay", "obs")


class Tracer:
    """In-memory span store plus the per-layer counters the hooks bump."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list = []
        self.layers: list = []
        self._ids: dict = {}
        #: One row of :data:`FIELDS` per span, flattened.
        self.spans = array("d")
        self._stack: list = []
        self.counts: defaultdict = defaultdict(int)
        self.seconds: defaultdict = defaultdict(float)
        self.missing: list = []

    def begin(self) -> None:
        """Start recording (set-up is not part of the traced wall)."""
        self.active = True

    def finish(self) -> None:
        """Stop recording (nor is tear-down)."""
        self.active = False
        self.op = -1

    def name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[key]

    def wrap(self, layer: str, name: str, fn, before=None, after=None):
        """``fn`` recorded as a span; ``before(args)`` runs first and its
        value reaches ``after(args, result, state, seconds)``, where
        ``result`` is ``None`` if ``fn`` raised."""
        name_id = float(self.name_id(layer, name))
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        extend = spans.extend

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            row = len(spans)
            extend((name_id, stack[-1] if stack else -1.0, self.op, 0.0, 0.0))
            stack.append(row)
            result = None
            begun = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                finished = clock()
                stack.pop()
                spans[row + 3] = begun
                spans[row + 4] = finished
                if after is not None:
                    after(args, result, state, finished - begun)

        traced.__wrapped__ = fn
        return traced

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> tuple:
        """``({layer: self seconds}, covered seconds)``.

        Self time comes from every span (duration minus its children's);
        covered time is the sum of the root spans.  Both mean what they
        say only if the spans nest: every span lies inside its parent,
        and no span overlaps an earlier sibling (the roots included).
        Raises :class:`AssertionError` on the first span that does not.
        """
        spans, width = self.spans, len(FIELDS)
        child = array("d", bytes(8 * len(self)))
        #: parent row -> end of its latest child (-1: the roots).
        last_end: dict = {}
        # Rows are stored in start order, so a parent precedes its
        # children and siblings come in the order they ran.
        for row in range(0, len(spans), width):
            parent, begun, finished = (
                int(spans[row + 1]), spans[row + 3], spans[row + 4])
            if finished < begun or begun < last_end.get(parent, begun):
                raise AssertionError(
                    f"span {row // width} ({self._label(row)}) overlaps an "
                    f"earlier sibling or ends before it starts")
            last_end[parent] = finished
            if parent >= 0:
                if not (spans[parent + 3] <= begun
                        and finished <= spans[parent + 4]):
                    raise AssertionError(
                        f"span {row // width} ({self._label(row)}) is not "
                        f"inside its parent ({self._label(parent)})")
                child[parent // width] += finished - begun
        per_layer = dict.fromkeys(LAYERS, 0.0)
        covered = 0.0
        for row in range(0, len(spans), width):
            duration = spans[row + 4] - spans[row + 3]
            per_layer[self.layers[int(spans[row])]] += (
                duration - child[row // width])
            if spans[row + 1] < 0:
                covered += duration
        return per_layer, covered

    def _label(self, row: int) -> str:
        name_id = int(self.spans[row])
        return f"{self.layers[name_id]} {self.names[name_id]}"

    def dump(self, path) -> None:
        """Write every span as tab-separated text (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans, width = self.spans, len(FIELDS)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tlayer\tname\tstart_s\tend_s\tparent\top\n")
            for row in range(0, len(spans), width):
                name, parent, op, begun, finished = spans[row:row + width]
                parent = int(parent) // width if parent >= 0 else -1
                out.write(f"{row // width}\t{self.layers[int(name)]}\t"
                          f"{self.names[int(name)]}\t{begun:.9f}\t"
                          f"{finished:.9f}\t{parent}\t{int(op)}\n")

    def __len__(self) -> int:
        return len(self.spans) // len(FIELDS)


def check_books(per_layer: dict, covered: float, wall: float) -> None:
    """Close the books of spans that nest (:meth:`Tracer.self_times`
    checks that): no layer's self time is negative, and the root spans
    fit in the traced wall, the rest of which is ``net.transport``.
    Raises :class:`AssertionError` otherwise."""
    for layer, value in per_layer.items():
        if layer != "net.transport" and value < -1e-9:
            raise AssertionError(f"{layer} self time is {value:.9f} s")
    if not 0.0 <= covered <= wall:
        raise AssertionError(
            f"spans cover {covered:.6f} s of a {wall:.6f} s wall")


class Patches:
    """Install wrappers on entry points; restore the originals on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list = []

    def wrap(self, layer: str, owner, attr: str, before=None, after=None):
        """Wrap ``owner.attr`` (a module, or a class whose attribute may
        be a plain, static or class method).  An entry point the code no
        longer has is skipped and listed in ``tracer.missing``; its time
        then falls to the caller's layer."""
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if isinstance(owner, type):
            raw = next((klass.__dict__[attr] for klass in owner.__mro__
                        if attr in klass.__dict__), None)
            own = attr in owner.__dict__
        else:
            raw = owner.__dict__.get(attr)
            own = True
        if raw is None:
            self.tracer.missing.append(label)
            return
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(self.tracer.wrap(layer, label, raw.__func__,
                                                 before, after))
        else:
            patched = self.tracer.wrap(layer, label, raw, before, after)
        setattr(owner, attr, patched)
        self._undo.append((owner, attr, raw if own else None))

    def count(self, owner, attr: str, key: str) -> None:
        """Count calls to ``owner.attr`` without a span."""
        raw = owner.__dict__[attr]
        tracer = self.tracer
        counts = tracer.counts

        def counted(*args, **kwargs):
            if tracer.active:
                counts[key] += 1
            return raw(*args, **kwargs)

        setattr(owner, attr, counted)
        self._undo.append((owner, attr, raw))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, raw in reversed(self._undo):
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._undo.clear()


def instrument(tracer: Tracer, engine_classes) -> Patches:
    """Wrap every layer's entry points; use as a context manager.

    ``engine_classes`` are the classes of the engines the workload
    resolved, so whichever engine a default names is the one timed.
    """
    from repro.core import fastpath
    from repro.core.stream import PacketHeader
    from repro.kex.handshake import Handshake
    from repro.kex.tickets import TicketVault
    from repro.link.events import PayloadReceived
    from repro.link.protocol import LinkProtocol
    from repro.net.framing import FrameDecoder
    from repro.net.session import Session
    from repro.obs.core import Counter, Gauge, Histogram, ObsRegistry
    from repro.relay.core import RelayCore
    from repro.relay.events import PayloadRouted

    counts, seconds = tracer.counts, tracer.seconds
    patches = Patches(tracer)

    def embedded(args, result, state, dt):
        if result is not None:
            counts["engines.calls"] += 1
            counts["engines.bytes"] += len(args[4])
            counts["engines.vectors"] += len(result)

    def extracted(args, result, state, dt):
        if result is not None:
            counts["engines.calls"] += 1
            counts["engines.bytes"] += len(result)
            counts["engines.vectors"] += len(args[4])

    for cls in engine_classes:
        patches.wrap("core.engines", cls, "embed_bytes", after=embedded)
        patches.wrap("core.engines", cls, "extract_bytes", after=extracted)

    schedules = getattr(fastpath, "_SCHEDULES", None)

    def schedule_cached(args):
        key, algorithm, params = args
        return schedules is not None and (algorithm, params) in schedules.get(key, ())

    def scheduled(args, result, cached, dt):
        counts["engines.schedule_lookups"] += 1
        counts["engines.schedule_hits"] += bool(cached)

    patches.wrap("core.engines", fastpath, "schedule_for",
                 before=schedule_cached, after=scheduled)

    # The packet layer as the session calls it, on both directions.
    def packet(args, result, state, dt):
        counts["stream.packets"] += result is not None

    def crc(args, result, state, dt):
        seconds["stream.crc"] += dt

    patches.wrap("core.stream", "repro.net.session", "encrypt_packet",
                 after=packet)
    patches.wrap("core.stream", "repro.net.session", "_verify_parsed")
    patches.wrap("core.stream", "repro.net.session", "_extract_verified",
                 after=packet)
    patches.wrap("core.stream", PacketHeader, "unpack")
    patches.wrap("core.stream", "repro.core.stream", "crc16_ccitt", after=crc)

    def encrypted(args, result, state, dt):
        counts["session.packets"] += result is not None

    def decrypted(args, result, state, dt):
        if result is None:
            counts["session.rejected"] += 1
        else:
            counts["session.packets"] += len(result)

    def derived(args, result, state, dt):
        seconds["session.key_derive"] += dt
        counts["session.rekeys"] += args[3] > 0

    patches.wrap("net.session", Session, "encrypt", after=encrypted)
    patches.wrap("net.session", Session, "decrypt_batch", after=decrypted)
    patches.wrap("net.session", "repro.net.session", "derive_epoch_key",
                 after=derived)

    def fed(args, result, state, dt):
        counts["framing.feeds"] += 1
        counts["framing.frames"] += len(result or ())

    patches.wrap("net.framing", FrameDecoder, "feed", after=fed)

    def received(args, result, state, dt):
        counts["protocol.receives"] += 1
        counts["protocol.payloads"] += sum(
            isinstance(event, PayloadReceived) for event in result or ())

    patches.wrap("link.protocol", LinkProtocol, "receive_data", after=received)
    patches.wrap("link.protocol", LinkProtocol, "send_payload")
    patches.wrap("link.protocol", LinkProtocol, "data_to_send")

    def offered(args, result, state, dt):
        hello = args[0]
        if (hello.role == "initiator" and "resume" in hello.config.modes
                and hello.config.ticket is not None):
            counts["kex.offered"] += 1

    def was_done(args):
        return args[0].done

    def absorbed(args, result, done_before, dt):
        hello = args[0]
        if hello.role == "initiator" and hello.done and not done_before:
            counts[f"kex.{hello.mode}"] += 1

    def ladder(args, result, state, dt):
        seconds["kex.x25519"] += dt

    patches.wrap("kex", Handshake, "first_message", after=offered)
    patches.wrap("kex", Handshake, "absorb", before=was_done, after=absorbed)
    patches.wrap("kex", "repro.kex.x25519", "x25519", after=ladder)
    patches.wrap("kex", TicketVault, "redeem")

    def routed(args, result, state, dt):
        for event in result or ():
            if isinstance(event, PayloadRouted):
                counts["relay.routed"] += 1
                counts["relay.receivers"] += event.receivers

    def egress_depth(args):
        core, link_id = args[0], args[1]
        link = getattr(core, "_links", {}).get(link_id)
        depth = len(getattr(link, "egress", ()))
        if depth > counts["relay.egress_max"]:
            counts["relay.egress_max"] = depth

    patches.wrap("relay", RelayCore, "connection_made")
    patches.wrap("relay", RelayCore, "receive_data", after=routed)
    patches.wrap("relay", RelayCore, "data_to_send", before=egress_depth)
    patches.wrap("relay", RelayCore, "close_link")

    def scraped(args, result, state, dt):
        counts["obs.scrapes"] += 1

    patches.wrap("obs", ObsRegistry, "render_prometheus", after=scraped)
    for cls, methods in ((Counter, ("inc",)), (Gauge, ("set", "inc", "dec")),
                         (Histogram, ("observe",))):
        for method in methods:
            patches.count(cls, method, "obs.updates")
    return patches


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, wall: float, untraced_wall: float,
                  ops: int, payloads: int, shed: int, series: int) -> dict:
    """Every per-layer metric of one traced run, as ``{name: (value, unit)}``.

    ``ops`` are the workload's operations (bursts, requests or routed
    payloads); ``payloads`` the application payloads they carried.
    """
    per_layer, covered = tracer.self_times()
    per_layer["net.transport"] = wall - covered
    check_books(per_layer, covered, wall)
    metrics = {}
    for layer in LAYERS:
        if layer not in RELAY_ONLY:
            metrics[f"{layer}.self_s"] = (per_layer[layer], "s")
            metrics[f"{layer}.self_ms_per_op"] = (
                _ratio(per_layer[layer] * 1e3, ops), "ms")
        metrics[f"{layer}.self_share"] = (_ratio(per_layer[layer], wall),
                                          "ratio")
    c, s = tracer.counts, tracer.seconds
    resumed = c["kex.resume"]
    metrics.update({
        "core.engines.calls": (c["engines.calls"], "count"),
        "core.engines.bytes": (c["engines.bytes"], "B"),
        "core.engines.vectors_per_byte": (
            _ratio(c["engines.vectors"], c["engines.bytes"]), "vectors/B"),
        "core.engines.schedule_compiles": (
            c["engines.schedule_lookups"] - c["engines.schedule_hits"],
            "count"),
        "core.engines.schedule_hit_ratio": (
            _ratio(c["engines.schedule_hits"], c["engines.schedule_lookups"]),
            "ratio"),
        "core.stream.packets": (c["stream.packets"], "count"),
        "core.stream.crc_s": (s["stream.crc"], "s"),
        "net.session.packets": (c["session.packets"], "count"),
        "net.session.rekeys": (c["session.rekeys"], "count"),
        "net.session.key_derive_s": (s["session.key_derive"], "s"),
        "net.session.rejected": (c["session.rejected"], "count"),
        "net.framing.frames_per_feed": (
            _ratio(c["framing.frames"], c["framing.feeds"]), "ratio"),
        "link.protocol.payloads_per_receive": (
            _ratio(c["protocol.payloads"], c["protocol.receives"]), "ratio"),
        "kex.x25519_share": (_ratio(s["kex.x25519"], wall), "ratio"),
        "kex.handshakes_ecdh": (c["kex.ecdh"], "count"),
        "kex.handshakes_resume": (resumed, "count"),
        "kex.resume_ratio": (_ratio(resumed, c["kex.offered"]), "ratio"),
        "relay.receivers_per_payload": (
            _ratio(c["relay.receivers"], c["relay.routed"]), "ratio"),
        "relay.egress_max_depth": (c["relay.egress_max"], "count"),
        "relay.shed": (shed, "count"),
        "obs.updates_per_payload": (_ratio(c["obs.updates"], payloads),
                                    "ratio"),
        "obs.scrapes": (c["obs.scrapes"], "count"),
        "obs.series": (series, "count"),
        "trace.ops": (ops, "count"),
        "trace.overhead_share": (
            _ratio(wall - untraced_wall, untraced_wall), "ratio"),
    })
    return metrics
