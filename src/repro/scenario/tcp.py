"""Cross-transport invariant matrix over real asyncio TCP streams.

The stream-mode counterpart of :mod:`repro.scenario.udp`: the same
deterministic traffic mix is driven once through the in-memory
:class:`~repro.link.memory.MemoryLinkServer` and once through a real
:class:`~repro.net.server.SecureLinkServer` /
:class:`~repro.net.client.SecureLinkClient` pair on loopback, for every
handshake mode the link speaks — pre-shared (``psk``), the hello-v2
X25519 exchange (``ecdh``) and ticket resumption (``resume``).  For
each mode the two transports must agree:

* the echoed payload sequence is byte-identical to the sent sequence on
  both transports (TCP is reliable; nothing may be lost or reordered);
* both negotiate the *same* handshake mode — the transport can never
  influence what the kex state machine agrees on;
* the per-session counters (``rx.packets``, ``tx.rekeys``) match each
  other and the schedule arithmetic;
* a resumption handshake mints a fresh session root (fingerprints
  differ from the full handshake's) on both transports alike.

A downgrade probe rides along: a classic pre-shared client against an
ecdh-only TCP server must *fail to connect* — the server refuses the
hello-v1, nothing silently falls back — mirroring the sans-IO verdicts
of :mod:`repro.scenario.attacks` over a real socket.

This module opens real sockets and runs an event loop, so it lives
*outside* the sans-IO scenario core; import it lazily
(``repro.scenario`` only loads it on attribute access).
"""

from __future__ import annotations

import asyncio

from repro.core.errors import ReproError
from repro.core.key import Key
from repro.kex.handshake import KexConfig, kex_config_for_key
from repro.link.memory import MemoryLinkServer
from repro.net.client import SecureLinkClient
from repro.net.server import SecureLinkServer
from repro.net.session import SessionConfig
from repro.scenario.traffic import TrafficMix

__all__ = ["run_tcp_matrix"]

#: Handshake modes the matrix exercises, in run order.
MATRIX_MODES = ("psk", "ecdh", "resume")


def _client_kex(root: Key, ticket=None) -> KexConfig:
    return kex_config_for_key(root, "initiator", ("ecdh", "resume"),
                              ticket=ticket)


def _server_kex(root: Key, *, modes=("ecdh", "resume", "psk")) -> KexConfig:
    return kex_config_for_key(root, "responder", modes)


def _summary(client, payloads: list, replies: list) -> dict:
    metrics = client.metrics
    return {
        "mode": client.kex_mode,
        "echoed": replies == payloads,
        "rx_packets": metrics.rx.packets,
        "tx_rekeys": metrics.tx.rekeys,
        "fingerprint": (client.fingerprint.hex()
                        if client.fingerprint is not None else None),
        "ticket_issued": client.issued_ticket is not None,
    }


def _memory_run(root: Key, config: SessionConfig,
                payloads: list) -> dict:
    """One mode sweep through the in-memory transport."""
    server = MemoryLinkServer(root, config=config, kex=_server_kex(root))
    out = {}
    # psk: a classic client against the dual-mode server.
    client = server.connect()
    out["psk"] = _summary(client, payloads, client.send_all(payloads))
    client.close()
    # ecdh: full exchange; keep the ticket for the resume leg.
    client = server.connect(kex=_client_kex(root))
    out["ecdh"] = _summary(client, payloads, client.send_all(payloads))
    ticket = client.issued_ticket
    client.close()
    # resume: redeem the ticket minted above.
    client = server.connect(kex=_client_kex(root, ticket=ticket))
    out["resume"] = _summary(client, payloads, client.send_all(payloads))
    out["resume"]["full_fingerprint"] = out["ecdh"]["fingerprint"]
    client.close()
    server.close()
    return out


async def _tcp_run(root: Key, config: SessionConfig,
                   payloads: list) -> tuple[dict, dict]:
    """The same sweep over a real loopback TCP server; plus downgrade."""
    out = {}
    async with SecureLinkServer(root, port=0, config=config,
                                kex=_server_kex(root)) as server:
        async with SecureLinkClient(root, port=server.port,
                                    config=config) as client:
            replies = await client.send_all(payloads)
            out["psk"] = _summary(client, payloads, replies)
        async with SecureLinkClient(root, port=server.port, config=config,
                                    kex=_client_kex(root)) as client:
            replies = await client.send_all(payloads)
            out["ecdh"] = _summary(client, payloads, replies)
            ticket = client.issued_ticket
        async with SecureLinkClient(root, port=server.port, config=config,
                                    kex=_client_kex(root, ticket=ticket),
                                    ) as client:
            replies = await client.send_all(payloads)
            out["resume"] = _summary(client, payloads, replies)
            out["resume"]["full_fingerprint"] = out["ecdh"]["fingerprint"]
    # Downgrade probe: an ecdh-only server must refuse a classic client.
    downgrade = {"connected": False, "error": None}
    async with SecureLinkServer(root, port=0, config=config,
                                kex=_server_kex(root, modes=("ecdh",)),
                                ) as server:
        client = SecureLinkClient(root, port=server.port, config=config)
        try:
            await client.connect()
            downgrade["connected"] = True
            await client.close()
        except (ReproError, OSError) as exc:
            downgrade["error"] = f"{type(exc).__name__}: {exc}"
    return out, downgrade


def _reconcile(transport: str, summary: dict, n: int,
               rekey_interval: int) -> list:
    problems = []
    for mode in MATRIX_MODES:
        entry = summary[mode]
        if entry["mode"] != mode:
            problems.append(
                f"{transport}/{mode}: negotiated {entry['mode']!r}"
            )
        if not entry["echoed"]:
            problems.append(f"{transport}/{mode}: echoes not byte-exact")
        if entry["rx_packets"] != n:
            problems.append(
                f"{transport}/{mode}: rx.packets {entry['rx_packets']}, "
                f"expected {n}"
            )
        expected_rekeys = max(0, (n - 1) // rekey_interval)
        if entry["tx_rekeys"] != expected_rekeys:
            problems.append(
                f"{transport}/{mode}: tx.rekeys {entry['tx_rekeys']}, "
                f"schedule implies {expected_rekeys}"
            )
    if summary["resume"]["fingerprint"] == \
            summary["resume"]["full_fingerprint"]:
        problems.append(
            f"{transport}/resume: session root identical to the full "
            f"handshake's (no fresh keys)"
        )
    return problems


def run_tcp_matrix(messages: int = 48, rekey_interval: int = 16,
                   key_seed: int = 2005) -> dict:
    """Run every handshake mode over memory and real TCP; reconcile.

    Returns a dict with ``ok``, ``problems`` and per-transport
    summaries.  The cross-transport invariant: for each mode, both
    transports negotiate identically, deliver identically and count
    identically — the sans-IO machine's handshake behaviour is
    transport-invariant, over streams just as :mod:`repro.scenario.udp`
    proves it over datagrams.
    """
    root = Key.generate(seed=key_seed)
    config = SessionConfig(rekey_interval=rekey_interval)
    payloads = TrafficMix.soak(messages, seed=29, duplex=False).payloads("i2r")
    memory = _memory_run(root, config, payloads)
    tcp, downgrade = asyncio.run(_tcp_run(root, config, payloads))
    problems = _reconcile("memory", memory, len(payloads), rekey_interval)
    problems += _reconcile("tcp", tcp, len(payloads), rekey_interval)
    for mode in MATRIX_MODES:
        for field in ("mode", "echoed", "rx_packets", "tx_rekeys"):
            if memory[mode][field] != tcp[mode][field]:
                problems.append(
                    f"{mode}: {field} diverges across transports "
                    f"(memory {memory[mode][field]!r}, "
                    f"tcp {tcp[mode][field]!r})"
                )
    if downgrade["connected"]:
        problems.append(
            "downgrade probe: a classic psk client connected to an "
            "ecdh-only TCP server (silent fallback)"
        )
    return {
        "ok": not problems,
        "problems": problems,
        "messages": len(payloads),
        "memory": memory,
        "tcp": tcp,
        "downgrade": downgrade,
    }
