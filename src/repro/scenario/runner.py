"""Drive the sans-IO link through hostile schedules and check invariants.

The scenario runner is the deterministic harness the ISSUE calls a
"hostile network in a box": a :class:`FaultyLink` wires two datagram-mode
:class:`~repro.link.LinkProtocol` ends together through per-direction
:class:`~repro.scenario.faults.FaultSchedule` processes (and optionally
the stego cover framing of :mod:`repro.scenario.cover`), while an
independent *reference receiver* — a from-scratch mirror of the
receive-side decision procedure, built only from public primitives —
predicts the fate of every arriving datagram.  After the storm the two
accounts must reconcile **exactly**:

* delivered payloads are precisely the oracle's accepted list (and
  therefore an in-order subsequence of the sent payloads);
* ``datagrams_dropped`` equals the oracle's drop total, per direction;
* ``bytes_skipped`` (framing discards) matches byte for byte;
* session metrics (``rx.packets``, ``rx.replays``, ``rx.crc_failures``,
  ``rx.rekeys``) match the mirror's counts — and corrupted nonces
  provoke *no* epoch movement at all, because receiver state commits
  only after a packet authenticates;
* the process-wide obs export (``repro_link_drops_total{reason=...}``)
  agrees with the per-protocol and per-session counters it reads;
* and the link is *not wedged*: both ends are still ``OPEN`` and a
  fault-free probe payload still round-trips in each direction.

Handshakes run fault-free: over a real lossy transport a client simply
retries its hello, but retry loops would make schedule indices depend
on timing — exempting the handshake keeps every fault decision pinned
to a data datagram and the whole run replayable from seeds alone.

:func:`run_stream_control` is the stream-mode counterpart: a fault-free
:class:`~repro.link.memory.LinkPair` run whose captured wire bytes are
compared against independently reconstructed expected bytes
(hello + reference :class:`~repro.net.session.Session` encrypts), plus
the half-close and after-close-accounting checks — proving the scenario
plumbing itself never perturbs the wire.

This module is sans-IO (no sockets, no loop — enforced by
``tests/link/test_sans_io.py``); the UDP mirror lives in
:mod:`repro.scenario.udp` and is imported lazily.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.core.errors import CipherFormatError, SessionError
from repro.core.key import Key
from repro.core.stream import PacketHeader, verify_packet
from repro.link.events import PayloadReceived, ProtocolError
from repro.link.memory import LinkPair
from repro.link.protocol import OPEN, LinkProtocol, _resolve_root
from repro.net.framing import FrameDecoder, Hello
from repro.net.metrics import SessionMetrics
from repro.net.session import (
    Session,
    SessionConfig,
    key_fingerprint,
    seq_for_nonce,
)
from repro.kex.wire import MSG_CLIENT_HELLO, OFFER_ECDH, pack_record
from repro.obs import core as _obs
from repro.scenario.cover import CoverCodec
from repro.scenario.faults import Delivery, FaultSchedule
from repro.scenario.traffic import DIRECTIONS, TrafficMix

__all__ = [
    "ATTACK_KINDS",
    "SentDatagram",
    "ReferenceReceiver",
    "FaultyLink",
    "Scenario",
    "ScenarioResult",
    "run_scenario",
    "run_stream_control",
    "standard_matrix",
]

#: Session id every scenario link pins (determinism over uniqueness).
SCENARIO_SESSION_ID = b"SCENLINK"

#: Attacker datagram families :meth:`FaultyLink.inject` can forge.
ATTACK_KINDS = ("replay-hello", "replay-data", "forge-hello",
                "forge-junk", "forge-kex")


@dataclass(frozen=True)
class SentDatagram:
    """One data datagram as the sender emitted it, pre-fault."""

    index: int
    """Schedule index on its direction (== send order, 0-based)."""

    direction: str
    """``"i2r"`` or ``"r2i"``."""

    seq: int
    """The sequence number the sender's session consumed for it."""

    frame: bytes
    """The wire frame (header + ciphertext), before cover/faults."""

    payload: bytes
    """The plaintext this frame carries."""


class ReferenceReceiver:
    """Independent mirror of one direction's receive-side decisions.

    Deliberately *not* the :class:`~repro.link.LinkProtocol` code: it
    re-derives every drop/accept decision from the public primitives
    (:class:`~repro.net.framing.FrameDecoder`, header parsing,
    :func:`~repro.net.session.seq_for_nonce`,
    :func:`~repro.core.stream.verify_packet`) so that a bookkeeping bug
    in the protocol's hot path cannot silently agree with itself.  The
    scenario verifier compares the protocol's counters against this
    mirror's, field by field.
    """

    #: Drop buckets, in decision order (first failing gate wins).
    DROP_KINDS = ("unframeable", "late-hello", "session", "replay", "crc")

    def __init__(self, width: int, algorithm: int, rekey_interval: int,
                 max_wire_payload: int):
        self._width = width
        self._algorithm = algorithm
        self._interval = rekey_interval
        #: Mirror of the receiver's one-per-link framing decoder.
        self.decoder = FrameDecoder(max_wire_payload)
        self.last_seq = -1
        self.epoch = 0
        #: Committed epoch ratchets, mirroring ``metrics.rx.rekeys`` —
        #: only packets that authenticate move the epoch, so this counts
        #: exactly the epochs genuine traffic crossed (a corrupted nonce
        #: never ratchets receiver state).
        self.rekeys = 0
        self.drops = {kind: 0 for kind in self.DROP_KINDS}
        #: Accepted datagrams' original send records, in accept order.
        self.accepted: list[SentDatagram] = []
        #: Accepts whose bytes differed from the original (CRC collision
        #: under corruption — possible in principle, never under the
        #: committed seeds; always reported as a problem).
        self.tampered_accepts = 0

    @property
    def total_drops(self) -> int:
        """Every predicted drop, across all buckets."""
        return sum(self.drops.values())

    def absorb(self, data: bytes, record: SentDatagram) -> None:
        """Predict the receiver's decision for one arriving datagram."""
        try:
            frames = self.decoder.feed(bytes(data))
        except CipherFormatError:
            frames = []
        if len(frames) != 1 or self.decoder.pending:
            self.decoder.reset()
            self.drops["unframeable"] += 1
            return
        frame = frames[0]
        if frame.kind != "packet":
            self.drops["late-hello"] += 1
            return
        header = PacketHeader.unpack(frame.raw)
        if header.width != self._width or header.algorithm != self._algorithm:
            self.drops["session"] += 1
            return
        try:
            seq = seq_for_nonce(header.nonce, self._width)
        except SessionError:
            self.drops["session"] += 1
            return
        if seq <= self.last_seq:
            self.drops["replay"] += 1
            return
        try:
            verify_packet(frame.raw)
        except CipherFormatError:
            self.drops["crc"] += 1
            return
        # Epoch state moves only on commit — after the integrity check —
        # mirroring the receiver: a corrupted nonce advertising a
        # far-future sequence number fails CRC and must leave no trace.
        epoch = seq // self._interval
        if epoch != self.epoch:
            self.rekeys += epoch - self.epoch
            self.epoch = epoch
        self.last_seq = seq
        if bytes(data) != record.frame:
            self.tampered_accepts += 1
        self.accepted.append(record)


class FaultyLink:
    """Two datagram-mode link ends joined by fault-injected memory.

    The datagram cousin of :class:`~repro.link.memory.LinkPair`: both
    ends are :class:`~repro.link.LinkProtocol` machines in datagram
    mode, and every *data* datagram passes through its direction's
    :class:`~repro.scenario.faults.FaultSchedule` (when one is given)
    and, with ``cover=True``, through the stego cover framing.  A
    :class:`ReferenceReceiver` per direction predicts every outcome for
    :meth:`verify` to reconcile.

    Construct the process-wide obs registry *before* this object if you
    want the obs cross-checks: the protocols and session metrics bind to
    the registry at construction (:func:`run_scenario` handles this).
    """

    def __init__(self, root, config: SessionConfig | None = None,
                 session_id: bytes = SCENARIO_SESSION_ID, *,
                 i2r_faults: FaultSchedule | None = None,
                 r2i_faults: FaultSchedule | None = None,
                 cover: bool = False, cover_seed: int = 2005):
        root, config = _resolve_root(root, config)
        self._config = config or SessionConfig()
        self._width = root.params.width
        self.initiator = LinkProtocol(root, "initiator", config=self._config,
                                      session_id=session_id, datagram=True,
                                      metrics=SessionMetrics())
        self.responder = LinkProtocol(root, "responder", config=self._config,
                                      datagram=True,
                                      metrics=SessionMetrics())
        self.schedules = {"i2r": i2r_faults, "r2i": r2i_faults}
        max_wire = self._config.max_wire_payload(self._width)
        self.oracles = {
            direction: ReferenceReceiver(
                self._width, self._config.algorithm,
                self._config.rekey_interval, max_wire)
            for direction in DIRECTIONS
        }
        self.sent = {direction: [] for direction in DIRECTIONS}
        #: ``(payload, seq)`` per accepted packet, in delivery order.
        self.delivered = {direction: [] for direction in DIRECTIONS}
        self.arrivals = {direction: 0 for direction in DIRECTIONS}
        self.cover_drops = {direction: 0 for direction in DIRECTIONS}
        #: Handshake datagrams each direction carried (attack material).
        self.hellos = {direction: [] for direction in DIRECTIONS}
        #: Injected attacker datagrams per direction, ``{kind: count}``.
        self.attacks = {direction: {} for direction in DIRECTIONS}
        self.failures: list[str] = []
        self._codecs = None
        if cover:
            # Per direction: the sender's wrap codec, the receiver's
            # unwrap codec, and the oracle's independent unwrap mirror.
            self._codecs = {}
            for offset, direction in enumerate(DIRECTIONS):
                seed = cover_seed + 100 * offset
                self._codecs[direction] = (
                    CoverCodec(root, cover_seed=seed),
                    CoverCodec(root, cover_seed=seed),
                    CoverCodec(root, cover_seed=seed),
                )

    # -- plumbing ---------------------------------------------------------

    def _ends(self, direction: str) -> tuple[LinkProtocol, LinkProtocol]:
        """``(sender, receiver)`` for one direction."""
        if direction == "i2r":
            return self.initiator, self.responder
        if direction == "r2i":
            return self.responder, self.initiator
        raise SessionError(
            f"direction must be one of {DIRECTIONS}, got {direction!r}"
        )

    def _wrap(self, direction: str, frame: bytes) -> bytes:
        if self._codecs is None:
            return frame
        return self._codecs[direction][0].wrap(frame)

    def handshake(self) -> bytes:
        """Open both ends, fault-free; returns the session id.

        Hellos bypass the schedules by design: a real client retries a
        lost hello, and modelling retries would make every later
        schedule index timing-dependent.  Faults start with the first
        data datagram.
        """
        for _ in range(4):
            for direction in DIRECTIONS:
                sender, _ = self._ends(direction)
                for datagram in sender.datagrams_to_send():
                    self.hellos[direction].append(bytes(datagram))
                    self._deliver_clean(direction, bytes(datagram))
            if (self.initiator.state == OPEN
                    and self.responder.state == OPEN):
                return self.initiator.session_id
        raise SessionError(
            f"scenario handshake did not complete: initiator "
            f"{self.initiator.state}, responder {self.responder.state}"
        )

    def _deliver_clean(self, direction: str, datagram: bytes) -> list:
        """One datagram, cover framing applied but no faults."""
        _, receiver = self._ends(direction)
        wire = self._wrap(direction, datagram)
        if self._codecs is not None:
            inner = self._codecs[direction][1].unwrap(wire)
            if inner is None:
                raise SessionError(
                    f"clean cover frame failed to unwrap on {direction}"
                )
        else:
            inner = wire
        events = receiver.receive_datagram(inner)
        for event in events:
            if isinstance(event, ProtocolError):
                raise event.error
        return events

    # -- traffic ----------------------------------------------------------

    def send(self, direction: str, payload: bytes) -> None:
        """Send one payload through this direction's fault process."""
        sender, _ = self._ends(direction)
        sender.send_payload(payload)
        frames = sender.datagrams_to_send()
        if len(frames) != 1:  # pragma: no cover - structural assert
            raise SessionError(
                f"one send queued {len(frames)} datagrams; expected 1"
            )
        frame = bytes(frames[0])
        index = len(self.sent[direction])
        record = SentDatagram(index, direction,
                              sender.session.next_send_seq - 1, frame,
                              bytes(payload))
        self.sent[direction].append(record)
        wire = self._wrap(direction, frame)
        schedule = self.schedules[direction]
        if schedule is None:
            deliveries = [Delivery(index, wire, tampered=False)]
        else:
            deliveries = schedule.apply(wire)
        self._deliver(direction, deliveries)

    def run_mix(self, mix: TrafficMix) -> None:
        """Send every round of ``mix`` through the fault processes."""
        for round_ in mix.rounds:
            for direction, payload in round_:
                self.send(direction, payload)

    def flush(self) -> None:
        """Release every still-held delayed datagram on both directions."""
        for direction in DIRECTIONS:
            schedule = self.schedules[direction]
            if schedule is not None:
                self._deliver(direction, schedule.flush())

    def _deliver(self, direction: str, deliveries: list[Delivery]) -> None:
        for delivery in deliveries:
            self._arrive(direction, delivery.data,
                         self.sent[direction][delivery.origin])

    def _arrive(self, direction: str, data: bytes,
                record: SentDatagram) -> bool:
        """One datagram reaches ``direction``'s receiver and its oracle.

        The single arrival step for scheduled and injected datagrams
        alike: cover unwrap on both sides (a desync is a failure), then
        the oracle's prediction, then the receiver's events.  Returns
        ``False`` when the cover framing dropped the datagram.
        """
        _, receiver = self._ends(direction)
        self.arrivals[direction] += 1
        inner = mirror = data
        if self._codecs is not None:
            _, rx_codec, oracle_codec = self._codecs[direction]
            inner = rx_codec.unwrap(data)
            mirror = oracle_codec.unwrap(data)
            if (inner is None) != (mirror is None):
                self.failures.append(
                    f"{direction}: cover unwrap desync at arrival "
                    f"{self.arrivals[direction] - 1}"
                )
            if inner is None:
                self.cover_drops[direction] += 1
                return False
        self.oracles[direction].absorb(mirror, record)
        for event in receiver.receive_datagram(inner):
            if isinstance(event, PayloadReceived):
                self.delivered[direction].append((event.payload, event.seq))
            elif isinstance(event, ProtocolError):
                self.failures.append(f"{direction}: {event.error}")
        return True

    # -- active attacker --------------------------------------------------

    def _forge(self, direction: str, kind: str) -> bytes:
        """Craft one attacker datagram of ``kind`` for ``direction``."""
        if kind == "replay-hello":
            if not self.hellos[direction]:
                raise SessionError(
                    f"no {direction} handshake datagram captured to replay"
                )
            return self.hellos[direction][0]
        if kind == "replay-data":
            if not self.sent[direction]:
                raise SessionError(
                    f"no {direction} data datagram sent yet to replay"
                )
            return self.sent[direction][-1].frame
        if kind == "forge-hello":
            # A syntactically perfect hello with a fabricated key
            # fingerprint: after the handshake it can only ever be
            # classified as late, never renegotiate the session.
            from repro.net.framing import Hello as _Hello

            return _Hello(algorithm=self._config.algorithm,
                          width=self._width, session_id=b"FORGERID",
                          fingerprint=b"\xde\xad\xbe\xef\xfa\xce\xd0\x0d",
                          rekey_interval=self._config.rekey_interval).pack()
        if kind == "forge-junk":
            # Strictly increasing bytes can never spell a frame magic,
            # so the whole datagram is unframeable noise.
            return bytes(range(32, 96))
        if kind == "forge-kex":
            # A well-framed hello-v2 ClientHello spliced into an open
            # datagram link: framing-valid (CRC fixed up), but the link
            # already has a session — it must be dropped, not answered.
            return pack_record(MSG_CLIENT_HELLO, OFFER_ECDH, bytes(70))
        raise SessionError(
            f"attack kind must be one of {ATTACK_KINDS}, got {kind!r}"
        )

    def inject(self, direction: str, kind: str) -> str:
        """Deliver one attacker-forged datagram; returns its fate.

        The forged bytes travel the same arrival path as scheduled
        deliveries — through the cover layer (which an attacker cannot
        speak) when one is active, then through both the receiver and
        its mirror oracle — so every injection stays inside the exact
        reconciliation :meth:`verify` enforces.  Returns the oracle's
        drop bucket (``"unframeable"``/``"late-hello"``/``"replay"``/
        ...), ``"cover"`` when the cover framing already rejected it, or
        ``"accepted"``.  A replayed data datagram whose original was
        lost in transit is legitimately accepted *once* — the replay
        window guarantees at-most-once delivery, not exactly-never —
        which is why replays reuse the original send record.
        """
        frame = self._forge(direction, kind)
        record = (self.sent[direction][-1] if kind == "replay-data"
                  else SentDatagram(-1, direction, -1, frame, b""))
        oracle = self.oracles[direction]
        self.attacks[direction][kind] = \
            self.attacks[direction].get(kind, 0) + 1
        before = dict(oracle.drops)
        accepted_before = len(oracle.accepted)
        if not self._arrive(direction, frame, record):
            return "cover"
        if len(oracle.accepted) > accepted_before:
            return "accepted"
        for bucket, count in oracle.drops.items():
            if count != before[bucket]:
                return bucket
        return "held"  # pragma: no cover - oracle always decides

    # -- invariants -------------------------------------------------------

    def verify(self) -> list[str]:
        """Reconcile every counter against the mirror; returns problems."""
        problems = list(self.failures)
        for direction in DIRECTIONS:
            _, receiver = self._ends(direction)
            oracle = self.oracles[direction]
            expected = [(record.payload, record.seq)
                        for record in oracle.accepted]
            if self.delivered[direction] != expected:
                problems.append(
                    f"{direction}: delivered {len(self.delivered[direction])}"
                    f" payloads, oracle predicted {len(expected)} "
                    f"(or order/content differs)"
                )
            indices = [record.index for record in oracle.accepted]
            if any(b <= a for a, b in zip(indices, indices[1:])):
                problems.append(
                    f"{direction}: accepted datagrams out of send order"
                )
            if receiver.datagrams_dropped != oracle.total_drops:
                problems.append(
                    f"{direction}: receiver dropped "
                    f"{receiver.datagrams_dropped} datagrams, oracle "
                    f"predicted {oracle.total_drops} ({oracle.drops})"
                )
            if receiver.bytes_skipped != oracle.decoder.bytes_skipped:
                problems.append(
                    f"{direction}: receiver skipped "
                    f"{receiver.bytes_skipped} framing bytes, oracle "
                    f"predicted {oracle.decoder.bytes_skipped}"
                )
            if oracle.tampered_accepts:
                problems.append(
                    f"{direction}: {oracle.tampered_accepts} tampered "
                    f"datagrams passed CRC (collision)"
                )
            session = receiver.session
            if session is None:
                problems.append(f"{direction}: receiver has no session")
                continue
            metrics = session.metrics
            checks = (
                ("rx.packets", metrics.rx.packets, len(oracle.accepted)),
                ("rx.replays", metrics.rx.replays, oracle.drops["replay"]),
                ("rx.crc_failures", metrics.rx.crc_failures,
                 oracle.drops["crc"]),
                ("rx.rekeys", metrics.rx.rekeys, oracle.rekeys),
            )
            for name, got, want in checks:
                if got != want:
                    problems.append(
                        f"{direction}: metrics {name} = {got}, oracle "
                        f"predicted {want}"
                    )
            if self._codecs is not None:
                _, rx_codec, oracle_codec = self._codecs[direction]
                if rx_codec.undecodable != oracle_codec.undecodable:
                    problems.append(
                        f"{direction}: cover layer dropped "
                        f"{rx_codec.undecodable} frames, mirror "
                        f"{oracle_codec.undecodable}"
                    )
                if rx_codec.undecodable != self.cover_drops[direction]:
                    problems.append(
                        f"{direction}: cover drop ledger "
                        f"{self.cover_drops[direction]} != codec counter "
                        f"{rx_codec.undecodable}"
                    )
        problems.extend(self._verify_obs())
        return problems

    def _verify_obs(self) -> list[str]:
        """Check the exported drop series against the oracle's ledgers."""
        registry = _obs.get_registry()
        if not registry.enabled:
            return []
        problems = []
        exported = registry.snapshot()["counters"]
        datagram_drops = self.initiator.datagrams_dropped \
            + self.responder.datagrams_dropped
        checks = (
            ("datagram", datagram_drops),
            ("replay", sum(o.drops["replay"] for o in self.oracles.values())),
            ("crc", sum(o.drops["crc"] for o in self.oracles.values())),
        )
        for reason, want in checks:
            got = exported.get(f"repro_link_drops_total{{reason={reason}}}", 0)
            if got != want:
                problems.append(
                    f"obs: repro_link_drops_total{{reason={reason}}} = "
                    f"{got}, ledgers say {want}"
                )
        return problems

    def probe(self) -> list[str]:
        """Fault-free round trip each way: the no-wedge check."""
        problems = []
        for direction in DIRECTIONS:
            sender, _ = self._ends(direction)
            if sender.state != OPEN:
                problems.append(
                    f"{direction}: sender wedged in state {sender.state}"
                )
                continue
            marker = b"scenario-probe/" + direction.encode("ascii")
            sender.send_payload(marker)
            got = []
            for datagram in sender.datagrams_to_send():
                for event in self._deliver_clean(direction, bytes(datagram)):
                    if isinstance(event, PayloadReceived):
                        got.append(event.payload)
            if got != [marker]:
                problems.append(
                    f"{direction}: probe payload not delivered after the "
                    f"storm (got {len(got)} payloads)"
                )
        return problems


@dataclass(frozen=True)
class Scenario:
    """One replayable hostile-network experiment, fully seeded."""

    name: str
    mix: TrafficMix
    """The deterministic traffic to push through the link."""

    faults: dict = field(default_factory=dict)
    """:class:`~repro.scenario.faults.FaultSchedule` kwargs (rates,
    ``delay_span``, ``max_flips``); empty means a clean network."""

    fault_seed: int = 20050307
    rekey_interval: int = 64
    cover: bool = False
    key_seed: int = 2005
    fault_directions: tuple = DIRECTIONS
    """Which directions the schedules cover (both by default)."""

    attacks: tuple = ()
    """Attacker injections as ``(direction, kind)`` pairs
    (:data:`ATTACK_KINDS`), delivered after the traffic mix."""


@dataclass
class ScenarioResult:
    """Everything one scenario run proved (or failed to)."""

    name: str
    ok: bool
    problems: list
    directions: dict
    """Per-direction ledger: sent/arrived/delivered/drop counts,
    ``bytes_skipped``, rekeys, epochs crossed, fault counts, trace
    digest."""

    def to_dict(self) -> dict:
        """JSON-ready form (``repro-mhhea scenario --json`` prints these)."""
        return {"name": self.name, "ok": self.ok,
                "problems": list(self.problems),
                "directions": self.directions}


def _trace_digest(schedule: FaultSchedule | None) -> str | None:
    """Stable digest of a schedule's full event trace (for replays)."""
    if schedule is None:
        return None
    blob = repr([(e.index, e.kind, e.size, e.detail)
                 for e in schedule.trace]).encode("ascii")
    return hashlib.sha256(blob).hexdigest()[:16]


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Run one :class:`Scenario` end to end and verify every invariant.

    Installs a fresh obs registry for the duration (restoring the
    previous one) so the obs cross-checks see only this run's events.
    """
    previous = _obs.set_registry(_obs.ObsRegistry())
    try:
        root = Key.generate(seed=scenario.key_seed)
        config = SessionConfig(rekey_interval=scenario.rekey_interval)
        schedules = {}
        for offset, direction in enumerate(DIRECTIONS):
            if scenario.faults and direction in scenario.fault_directions:
                schedules[direction] = FaultSchedule(
                    scenario.fault_seed + offset, **scenario.faults)
            else:
                schedules[direction] = None
        link = FaultyLink(root, config=config,
                          i2r_faults=schedules["i2r"],
                          r2i_faults=schedules["r2i"],
                          cover=scenario.cover)
        link.handshake()
        link.run_mix(scenario.mix)
        for direction, kind in scenario.attacks:
            link.inject(direction, kind)
        link.flush()
        problems = link.verify()
        problems.extend(link.probe())
        directions = {}
        for direction in DIRECTIONS:
            oracle = link.oracles[direction]
            schedule = schedules[direction]
            accepted_seqs = [record.seq for record in oracle.accepted]
            directions[direction] = {
                "sent": len(link.sent[direction]),
                "arrived": link.arrivals[direction],
                "delivered": len(link.delivered[direction]),
                "dropped": dict(oracle.drops),
                "cover_dropped": link.cover_drops[direction],
                "bytes_skipped": oracle.decoder.bytes_skipped,
                "rekeys": oracle.rekeys,
                "epochs_crossed": (max(accepted_seqs)
                                   // scenario.rekey_interval
                                   if accepted_seqs else 0),
                "faults": dict(schedule.counts) if schedule else None,
                "attacks": dict(link.attacks[direction]),
                "trace_digest": _trace_digest(schedule),
            }
        return ScenarioResult(name=scenario.name, ok=not problems,
                              problems=problems, directions=directions)
    finally:
        _obs.set_registry(previous)


def _tap(bucket: list):
    """A :class:`~repro.link.memory.LinkPair` filter that only records."""
    def tap(chunk: bytes) -> bytes:
        bucket.append(bytes(chunk))
        return chunk
    return tap


def run_stream_control(mix: TrafficMix | None = None,
                       rekey_interval: int = 8,
                       key_seed: int = 2005) -> dict:
    """Fault-free stream-mode control run with byte-exact wire capture.

    Proves the scenario plumbing itself is inert: every captured wire
    byte must equal the independently reconstructed expectation (the
    initiator's hello + a reference :class:`~repro.net.session.Session`
    encrypting the same payloads in the same order — the PR-5
    differential-capture contract), deliveries must match the mix
    exactly, rekey epochs must ratchet on schedule, and the half-close
    path must classify cleanly, including truthful
    ``bytes_after_close`` accounting for a peer that keeps talking.
    Returns a dict with ``ok`` and a ``problems`` list.
    """
    if mix is None:
        mix = TrafficMix.duplex(3 * rekey_interval, seed=5)
    problems: list[str] = []
    root = Key.generate(seed=key_seed)
    config = SessionConfig(rekey_interval=rekey_interval)
    session_id = b"SCENCTRL"
    captured = {"i2r": [], "r2i": []}
    pair = LinkPair(root, config=config, session_id=session_id,
                    i2r_filter=_tap(captured["i2r"]),
                    r2i_filter=_tap(captured["r2i"]))
    pair.handshake()
    delivered = {"i2r": [], "r2i": []}
    for round_ in mix.rounds:
        for direction, payload in round_:
            sender = (pair.initiator if direction == "i2r"
                      else pair.responder)
            sender.send_payload(payload)
        initiator_events, responder_events = pair.pump()
        for events, direction in ((responder_events, "i2r"),
                                  (initiator_events, "r2i")):
            for event in events:
                if isinstance(event, ProtocolError):
                    problems.append(f"{direction}: {event.error}")
                elif isinstance(event, PayloadReceived):
                    delivered[direction].append(event.payload)
    for direction in DIRECTIONS:
        if delivered[direction] != mix.payloads(direction):
            problems.append(
                f"{direction}: delivered payloads differ from the mix"
            )
    # Reconstruct the expected wire bytes from scratch: hello frame plus
    # a reference session encrypting the same payloads in order.
    fingerprint = key_fingerprint(root)
    hello = Hello(algorithm=config.algorithm, width=root.params.width,
                  session_id=session_id, fingerprint=fingerprint,
                  rekey_interval=config.rekey_interval).pack()
    references = {
        "i2r": Session(root, role="initiator", session_id=session_id,
                       config=config),
        "r2i": Session(root, role="responder", session_id=session_id,
                       config=config),
    }
    for direction in DIRECTIONS:
        expected = hello + b"".join(
            references[direction].encrypt(payload)
            for payload in mix.payloads(direction))
        wire = b"".join(captured[direction])
        if wire != expected:
            problems.append(
                f"{direction}: captured wire bytes differ from the "
                f"reference reconstruction ({len(wire)} vs "
                f"{len(expected)} bytes)"
            )
    rekeys = {}
    for direction, sender in (("i2r", pair.initiator),
                              ("r2i", pair.responder)):
        n = len(mix.payloads(direction))
        expected_rekeys = max(0, (n - 1) // rekey_interval)
        got = sender.session.metrics.tx.rekeys
        rekeys[direction] = got
        if got != expected_rekeys:
            problems.append(
                f"{direction}: {got} tx rekeys, schedule implies "
                f"{expected_rekeys}"
            )
    # Half-close: the responder's transport signals EOF; the initiator
    # may keep sending (TCP half-close)...
    pair.initiator.receive_eof()
    if pair.initiator.state != OPEN or not pair.initiator.peer_closed:
        problems.append("half-close mis-classified on the initiator")
    pair.initiator.send_payload(b"post-half-close")
    post_events = pair.responder.receive_data(
        pair.initiator.data_to_send())
    post = [event.payload for event in post_events
            if isinstance(event, PayloadReceived)]
    if post != [b"post-half-close"]:
        problems.append("send after peer half-close did not deliver")
    # ...but a peer that keeps sending after its own EOF is dropped
    # with exact byte accounting.
    late_packet = references["r2i"].encrypt(b"late")
    pair.responder.send_packet(late_packet)
    pair.initiator.receive_data(pair.responder.data_to_send())
    if pair.initiator.bytes_after_close != len(late_packet):
        problems.append(
            f"bytes_after_close = {pair.initiator.bytes_after_close}, "
            f"expected {len(late_packet)}"
        )
    pair.initiator.close()
    pair.responder.close()
    return {
        "ok": not problems,
        "problems": problems,
        "messages": mix.total_messages,
        "wire_bytes": {d: sum(len(c) for c in captured[d])
                       for d in DIRECTIONS},
        "rekeys": rekeys,
        "bytes_after_close": len(late_packet),
    }


def standard_matrix() -> list[Scenario]:
    """The committed scenario battery (tier-1 runs it; so does the CLI).

    One clean baseline, one schedule per fault family, a combined
    hostile mix in both simplex and duplex shapes, and the cover-traffic
    transport under fire.  Every entry is seeded — rerunning the matrix
    anywhere reproduces the identical traces and verdicts.
    """
    return [
        Scenario("clean-duplex", TrafficMix.duplex(48, seed=11)),
        Scenario("lossy", TrafficMix.imix(120, seed=12),
                 faults={"loss": 0.2}),
        Scenario("dup-heavy", TrafficMix.imix(120, seed=13),
                 faults={"duplicate": 0.3}),
        Scenario("corrupt", TrafficMix.imix(120, seed=14),
                 faults={"corrupt": 0.15}),
        Scenario("truncate", TrafficMix.imix(120, seed=15),
                 faults={"truncate": 0.15}),
        Scenario("reorder", TrafficMix.imix(120, seed=16),
                 faults={"delay": 0.25, "delay_span": 4}),
        Scenario("hostile-mix", TrafficMix.bursty(10, 12, seed=17),
                 faults={"loss": 0.08, "duplicate": 0.08, "corrupt": 0.08,
                         "truncate": 0.04, "delay": 0.08}),
        Scenario("hostile-duplex", TrafficMix.duplex(90, seed=18),
                 faults={"loss": 0.1, "duplicate": 0.1, "corrupt": 0.1,
                         "delay": 0.1}),
        Scenario("cover-hostile", TrafficMix.soak(48, seed=19, duplex=True),
                 faults={"loss": 0.1, "corrupt": 0.1, "truncate": 0.05},
                 cover=True, rekey_interval=16),
        Scenario("attacker-replay", TrafficMix.duplex(48, seed=20),
                 attacks=(("i2r", "replay-hello"), ("i2r", "replay-data"),
                          ("r2i", "replay-hello"), ("r2i", "replay-data"))),
        Scenario("attacker-forge", TrafficMix.imix(60, seed=21),
                 attacks=(("i2r", "forge-hello"), ("i2r", "forge-junk"),
                          ("i2r", "forge-kex"), ("r2i", "forge-hello"),
                          ("r2i", "forge-junk"), ("r2i", "forge-kex"))),
        Scenario("attacker-under-fire", TrafficMix.duplex(90, seed=22),
                 faults={"loss": 0.1, "corrupt": 0.1},
                 attacks=(("i2r", "replay-hello"), ("i2r", "replay-data"),
                          ("i2r", "forge-hello"), ("i2r", "forge-junk"),
                          ("i2r", "forge-kex"), ("r2i", "replay-data"),
                          ("r2i", "forge-kex"))),
    ]
