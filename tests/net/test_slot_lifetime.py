"""A metrics slot lives exactly as long as its session, on every server.

No server calls a close hook or runs an idle sweep: once a connection's
session is garbage, its slot folds into the registry's retired totals.
So after 50 closed links no slot is live, yet ``total_sessions`` and
``aggregate()`` still count every session and packet; and a slot that
merely sits idle keeps every count for as long as its link lives.
"""

import asyncio
import gc
import time

from repro.link import udp
from repro.link.memory import MemoryLinkServer
from repro.link.sync import SyncLinkClient, SyncLinkServer
from repro.link.udp import UdpLinkClient, UdpLinkServer
from repro.net import SecureLinkClient, SecureLinkServer
from repro.relay import ManualClock, MemoryRelayHub, RelayConfig

LINKS = 50
PAYLOADS = [b"one", b"two", b"three"]


def folded(registry, links: int = LINKS) -> bool:
    """True once every closed session's slot has folded."""
    gc.collect()
    return registry.total_sessions == links and not registry.sessions


def assert_all_folded(registry, links: int = LINKS) -> None:
    """Wait (serving threads close their ends) and check the totals."""
    deadline = time.monotonic() + 10.0
    while not folded(registry, links) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert registry.sessions == {}
    assert registry.total_sessions == links
    tx, rx = registry.aggregate()
    assert rx.packets == tx.packets == links * len(PAYLOADS)
    assert rx.payload_bytes == links * sum(map(len, PAYLOADS))


def test_asyncio_server(key16):
    async def body(server):
        for index in range(LINKS):
            async with SecureLinkClient(key16, port=server.port,
                                        session_id=b"aio%05d" % index) as c:
                assert await c.send_all(PAYLOADS) == PAYLOADS
        for _ in range(1000):
            if folded(server.metrics):
                break
            await asyncio.sleep(0.01)
        assert_all_folded(server.metrics)

    async def main():
        async with SecureLinkServer(key16, port=0) as server:
            await body(server)

    asyncio.run(asyncio.wait_for(main(), timeout=60))


def test_sync_server(key16):
    with SyncLinkServer(key16, port=0) as server:
        for index in range(LINKS):
            with SyncLinkClient(key16, port=server.port,
                                session_id=b"syn%05d" % index) as client:
                assert client.send_all(PAYLOADS) == PAYLOADS
        del client
        assert_all_folded(server.metrics)


def test_memory_server(key16):
    with MemoryLinkServer(key16) as server:
        for index in range(LINKS):
            with server.connect(session_id=b"mem%05d" % index) as client:
                assert client.send_all(PAYLOADS) == PAYLOADS
        del client
        assert_all_folded(server.metrics)


def test_udp_server_keeps_at_most_max_peers_slots(key16, monkeypatch):
    monkeypatch.setattr(udp, "MAX_PEERS", 4)
    with UdpLinkServer(key16, port=0) as server:
        for index in range(10):
            with UdpLinkClient(key16, port=server.port,
                               session_id=b"udp%05d" % index) as client:
                assert client.send_all(PAYLOADS) == PAYLOADS
        del client
        gc.collect()
        assert len(server.metrics.sessions) <= 4
        assert server.metrics.total_sessions == 10
        _, rx = server.metrics.aggregate()
        assert rx.packets == 10 * len(PAYLOADS)


def test_relay_hub():
    hub = MemoryRelayHub(config=RelayConfig(max_links=LINKS))
    for index in range(LINKS):
        client = hub.connect("acme", channel=b"room-%d" % index,
                             ticket=hub.mint_ticket("acme"))
        for payload in PAYLOADS:
            client.send(payload)
        client.close()
    del client
    metrics = hub.core.metrics
    assert folded(metrics)
    # Per relay link: the JOIN and the payloads in, the JOIN ack out.
    tx, rx = metrics.aggregate()
    assert rx.packets == LINKS * (1 + len(PAYLOADS))
    assert tx.packets == LINKS


def test_idle_relay_slot_keeps_its_slot_and_counts():
    clock = ManualClock()
    hub = MemoryRelayHub(config=RelayConfig(idle_timeout_s=0.0), clock=clock)
    client = hub.connect("acme", channel=b"room")
    client.send(b"still here")
    name = f"relay-{client.link_id}"
    # Longer than both of the old idle-sweep windows (60 s and 600 s).
    for _ in range(3):
        clock.advance(700.0)
        hub.poll()
    assert hub.core.has_link(client.link_id)
    slot = hub.core.metrics.sessions[name]
    assert (slot.rx.packets, slot.tx.packets) == (2, 1)
    client.send(b"and again")
    assert hub.core.metrics.sessions[name].rx.packets == 3
    assert hub.core.metrics.total_sessions == 1
    assert hub.core.metrics.aggregate()[1].packets == 3
