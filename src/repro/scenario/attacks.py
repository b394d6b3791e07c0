"""Active-attacker battery against the hello-v2 key exchange.

Where :mod:`repro.scenario.runner` storms an *established* link with
replayed and forged datagrams, this module attacks the handshake itself:
every check below plays a man-in-the-middle against a stream-mode
:class:`~repro.link.memory.LinkPair` (or drives
:class:`~repro.kex.Handshake` machines directly) and then demands the
exact outcome the downgrade-protection argument in ``docs/kex.md``
promises:

* stripping the hello-v2 opener (or answering it with a classic hello)
  **aborts** the connection on whichever end required the exchange —
  never a silent fall back to the pre-shared key;
* tampering with the transcript-bound bytes (the mode/offer byte, the
  confirmation MAC) aborts with a MAC mismatch, even though the
  attacker fixes up the *unkeyed* framing CRC;
* splicing a captured ClientHello into a fresh connection stalls at the
  confirmation step — the attacker cannot compute the Finished MAC
  without the ECDH shared secret;
* a resumption ticket redeems **at most once**; replayed, tampered or
  expired tickets are refused by the vault (each in its own counter)
  and the handshake falls back to a full exchange, never to a stale
  session key.

Counters reconcile exactly: each check asserts the
``repro_link_handshakes_total{mode=...}`` observations and the
:class:`~repro.kex.TicketVault` ledgers it expects, on a private obs
registry so concurrent runs never blur the books.

This module is sans-IO (no sockets, no loop — enforced by
``tests/link/test_sans_io.py``); :func:`run_kex_attacks` is part of the
``repro-mhhea scenario`` battery and the BENCH pipeline document.
"""

from __future__ import annotations

from repro.core.errors import HandshakeError, KexError, ReproError
from repro.core.key import Key
from repro.kex.handshake import Handshake, KexConfig, kex_config_for_key
from repro.kex.tickets import TicketVault
from repro.kex.wire import pack_record, unpack_record
from repro.link.memory import LinkPair
from repro.link.protocol import OPEN
from repro.net.session import SessionConfig
from repro.obs import core as _obs

__all__ = ["run_kex_attacks"]

#: Session id every attack run pins (determinism over uniqueness).
ATTACK_SESSION_ID = b"KEXATTCK"


def _client_config(root: Key, *, modes=("ecdh",), ticket=None) -> KexConfig:
    return kex_config_for_key(root, "initiator", modes, ticket=ticket)


def _server_config(root: Key, *, modes=("ecdh", "resume", "psk"),
                   vault: TicketVault | None = None) -> KexConfig:
    return kex_config_for_key(root, "responder", modes, tickets=vault)


def _handshake_counts(registry) -> dict:
    """``repro_link_handshakes_total`` by mode from one obs registry."""
    return {mode: registry.counter("repro_link_handshakes_total",
                                   mode=mode).value
            for mode in ("psk", "ecdh", "resume")}


def _pair(root: Key, *, kex=None, responder_kex=None,
          i2r_filter=None, r2i_filter=None) -> LinkPair:
    return LinkPair(root, config=SessionConfig(),
                    session_id=ATTACK_SESSION_ID,
                    responder_root=root, responder_config=SessionConfig(),
                    kex=kex, responder_kex=responder_kex,
                    i2r_filter=i2r_filter, r2i_filter=r2i_filter)


def _expect_abort(name: str, pair: LinkPair, needle: str = "") -> dict:
    """Pump to completion; the handshake must fail, with no OPEN end."""
    error = None
    try:
        pair.handshake()
    except ReproError as exc:
        error = exc
    problems = []
    if error is None:
        problems.append("handshake completed; expected an abort")
    elif needle and needle not in str(error):
        problems.append(
            f"abort reason {error!r} does not mention {needle!r}"
        )
    for side in ("initiator", "responder"):
        end = getattr(pair, side)
        if end.state == OPEN:
            problems.append(f"{side} is OPEN after an attacked handshake")
    if error is not None and not isinstance(error, HandshakeError):
        problems.append(
            f"abort raised {type(error).__name__}, not a HandshakeError"
        )
    return {"name": name, "ok": not problems, "problems": problems,
            "error": type(error).__name__ if error else None,
            "detail": str(error) if error else None}


def _record_tamper(mutate):
    """A LinkPair filter that re-frames one kex record through ``mutate``.

    The attacker model: full read/write access to the stream, including
    the ability to recompute the *unkeyed* framing CRC after tampering —
    only the transcript-bound MACs are out of reach.
    """
    done = [False]

    def tamper(chunk: bytes) -> bytes:
        if done[0]:
            return chunk
        done[0] = True
        record = unpack_record(chunk)
        msg_type, mode, body = mutate(record)
        return pack_record(msg_type, mode, body)
    return tamper


def _check_baseline(root: Key) -> dict:
    """The battery's own control: an unmolested kex handshake opens."""
    registry = _obs.get_registry()
    problems = []
    pair = _pair(root, kex=_client_config(root),
                 responder_kex=_server_config(root))
    try:
        pair.handshake()
    except ReproError as exc:
        problems.append(f"clean kex handshake failed: {exc}")
    else:
        for side in ("initiator", "responder"):
            if getattr(pair, side).kex_mode != "ecdh":
                problems.append(f"{side} negotiated "
                                f"{getattr(pair, side).kex_mode!r}")
        counts = _handshake_counts(registry)
        if counts["ecdh"] != 2 or counts["psk"] or counts["resume"]:
            problems.append(f"handshake counters off: {counts}")
    return {"name": "baseline-ecdh", "ok": not problems,
            "problems": problems}


def _check_downgrades(root: Key) -> list[dict]:
    registry = _obs.get_registry()
    before = _handshake_counts(registry)
    checks = []
    # A kex initiator meeting a peer that only speaks the classic hello:
    # the hello-v1 answer is a downgrade signal, never a fallback.
    checks.append(_expect_abort(
        "downgrade-responder-psk-only",
        _pair(root, kex=_client_config(root), responder_kex=None)))
    # A kex-required responder meeting a classic hello-v1 client.
    checks.append(_expect_abort(
        "downgrade-initiator-psk-only",
        _pair(root, kex=None,
              responder_kex=_server_config(root, modes=("ecdh",))),
        needle="downgrade"))
    after = _handshake_counts(registry)
    if after != before:
        checks.append({"name": "downgrade-counters", "ok": False,
                       "problems": [f"aborted downgrades moved the "
                                    f"handshake counters: {after}"]})
    else:
        checks.append({"name": "downgrade-counters", "ok": True,
                       "problems": []})
    # The one legitimate old-client path: a responder whose *local*
    # policy lists "psk" accepts the classic hello byte-for-byte.
    problems = []
    pair = _pair(root, kex=None, responder_kex=_server_config(root))
    try:
        pair.handshake()
    except ReproError as exc:
        problems.append(f"policy-sanctioned psk fallback failed: {exc}")
    else:
        if pair.responder.kex_mode != "psk":
            problems.append(
                f"responder recorded {pair.responder.kex_mode!r}, "
                f"expected 'psk'"
            )
        if _handshake_counts(registry)["psk"] - before["psk"] != 2:
            problems.append("psk fallback did not move the psk counter")
    checks.append({"name": "psk-fallback-is-local-policy",
                   "ok": not problems, "problems": problems})
    return checks


def _check_tampering(root: Key) -> list[dict]:
    checks = []
    # Flip the offer bitmask in the ClientHello (CRC fixed up): both
    # transcripts now disagree, so the confirmation MACs cannot match.
    checks.append(_expect_abort(
        "tamper-mode-byte",
        _pair(root, kex=_client_config(root),
              responder_kex=_server_config(root),
              i2r_filter=_record_tamper(
                  lambda r: (r.msg_type, r.mode ^ 0x02, r.body))),
        needle="MAC"))
    # Flip one byte of the ServerHello's confirmation MAC.
    checks.append(_expect_abort(
        "tamper-server-confirm",
        _pair(root, kex=_client_config(root),
              responder_kex=_server_config(root),
              r2i_filter=_record_tamper(
                  lambda r: (r.msg_type, r.mode,
                             r.body[:-1] + bytes([r.body[-1] ^ 0x01])))),
        needle="MAC"))
    # Flip one byte of ephemeral-key material in the ClientHello.
    checks.append(_expect_abort(
        "tamper-client-public",
        _pair(root, kex=_client_config(root),
              responder_kex=_server_config(root),
              i2r_filter=_record_tamper(
                  lambda r: (r.msg_type, r.mode,
                             bytes([r.body[0], r.body[1],
                                    r.body[2] ^ 0x40]) + r.body[3:]))),
        needle="MAC"))
    return checks


def _check_splice(root: Key) -> dict:
    """Replay a captured ClientHello; the Finished MAC is unforgeable."""
    problems = []
    client = Handshake(_client_config(root), "initiator")
    captured = client.first_message()
    # Session A: the victim server answers the genuine client normally.
    server_a = Handshake(_server_config(root), "responder")
    server_a.absorb(captured)
    # Session B: the attacker splices the captured hello into a fresh
    # connection and must now produce the Finished confirmation MAC —
    # keyed through the ECDH shared secret it does not hold.
    server_b = Handshake(_server_config(root), "responder")
    server_b.absorb(captured)
    from repro.kex.wire import MSG_FINISHED, MODE_ECDH

    forged = pack_record(MSG_FINISHED, MODE_ECDH, bytes(32))
    try:
        server_b.absorb(forged)
    except KexError:
        pass
    else:
        problems.append("responder accepted a forged Finished MAC")
    if server_b.done:
        problems.append("spliced handshake completed")
    return {"name": "splice-replayed-clienthello", "ok": not problems,
            "problems": problems}


def _check_tickets(root: Key) -> list[dict]:
    checks = []
    ticks = [0.0]
    vault = TicketVault(b"attack-battery-ticket-secret-32b",
                        lifetime_s=60.0, clock=lambda: ticks[0])
    server = _server_config(root, vault=vault)

    def run(ticket):
        pair = _pair(root, kex=_client_config(root, modes=("ecdh", "resume"),
                                              ticket=ticket),
                     responder_kex=server)
        pair.handshake()
        return pair

    problems = []
    first = run(None)
    ticket = first.initiator.issued_ticket
    if ticket is None:
        problems.append("full handshake issued no resumption ticket")
    else:
        resumed = run(ticket)
        if resumed.initiator.kex_mode != "resume":
            problems.append(f"first redemption negotiated "
                            f"{resumed.initiator.kex_mode!r}")
        if resumed.initiator.fingerprint == first.initiator.fingerprint:
            problems.append("resumed session reused the session root key")
    checks.append({"name": "ticket-resumes-once", "ok": not problems,
                   "problems": problems})
    # Replay: the same ticket a second time must fall back to a full
    # exchange — the vault's single-use cache refuses it.
    problems = []
    if ticket is not None:
        replayed = run(ticket)
        if replayed.initiator.kex_mode != "ecdh":
            problems.append(f"replayed ticket negotiated "
                            f"{replayed.initiator.kex_mode!r}, "
                            f"expected the ecdh fallback")
        if vault.counters["rejected_replayed"] != 1:
            problems.append(f"vault counters after replay: "
                            f"{vault.counters}")
    checks.append({"name": "ticket-replay-refused", "ok": not problems,
                   "problems": problems})
    # Tamper: one flipped ciphertext byte fails the ticket MAC.
    problems = []
    fresh = run(None).initiator.issued_ticket
    if fresh is not None:
        blob = bytearray(fresh.ticket)
        blob[20] ^= 0x10
        import dataclasses

        bad = dataclasses.replace(fresh, ticket=bytes(blob))
        tampered = run(bad)
        if tampered.initiator.kex_mode != "ecdh":
            problems.append(f"tampered ticket negotiated "
                            f"{tampered.initiator.kex_mode!r}")
        if vault.counters["rejected_tampered"] != 1:
            problems.append(f"vault counters after tamper: "
                            f"{vault.counters}")
    checks.append({"name": "ticket-tamper-refused", "ok": not problems,
                   "problems": problems})
    # Expiry: advance the vault clock past the lifetime.
    problems = []
    stale = run(None).initiator.issued_ticket
    ticks[0] = 61.0
    if stale is not None:
        expired = run(stale)
        if expired.initiator.kex_mode != "ecdh":
            problems.append(f"expired ticket negotiated "
                            f"{expired.initiator.kex_mode!r}")
        if vault.counters["rejected_expired"] != 1:
            problems.append(f"vault counters after expiry: "
                            f"{vault.counters}")
    checks.append({"name": "ticket-expiry-refused", "ok": not problems,
                   "problems": problems})
    return checks


def run_kex_attacks(key_seed: int = 2005) -> dict:
    """Run the whole battery; returns ``{ok, problems, checks}``.

    Installs a fresh obs registry for the duration (restoring the
    previous one) so the handshake-counter reconciliation sees only
    this run's events.  Deterministic given ``key_seed`` — the X25519
    ephemerals vary per run, but every verdict is invariant.
    """
    previous = _obs.set_registry(_obs.ObsRegistry())
    try:
        root = Key.generate(seed=key_seed)
        checks = [_check_baseline(root)]
        checks.extend(_check_downgrades(root))
        checks.extend(_check_tampering(root))
        checks.append(_check_splice(root))
        checks.extend(_check_tickets(root))
        problems = [f"{check['name']}: {problem}"
                    for check in checks
                    for problem in check["problems"]]
        return {"ok": not problems, "problems": problems,
                "checks": checks}
    finally:
        _obs.set_registry(previous)
