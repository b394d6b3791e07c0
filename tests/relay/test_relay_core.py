"""RelayCore behavior: routing, policy, deadlines, shed accounting.

Everything runs on the deterministic in-memory harness — a real relay
core, real client-side LinkProtocol machines, a hand-stepped clock.
"""

import pytest

from repro.core.errors import SessionError, TenantRevokedError
from repro.kex.keyring import TenantKeyring, normalize_tenant_id
from repro.obs import core as _obs
from repro.relay import (
    ChannelJoined,
    LinkOpen,
    LinkRejected,
    LinkRetired,
    LinkShed,
    ManualClock,
    MemoryRelayHub,
    PayloadRouted,
    RelayConfig,
    RelayCore,
)


def hub_with(clock=None, **overrides):
    defaults = dict(max_links=16, max_links_per_tenant=16)
    defaults.update(overrides)
    return MemoryRelayHub(config=RelayConfig(**defaults), clock=clock)


# -- construction ----------------------------------------------------------


def test_core_requires_a_keyring():
    with pytest.raises(SessionError, match="TenantKeyring"):
        RelayCore(b"raw root bytes are not a keyring")


def test_core_validates_config_up_front():
    with pytest.raises(SessionError, match="egress_policy"):
        RelayCore(TenantKeyring(b"x" * 32),
                  RelayConfig(egress_policy="bogus"))


# -- join / route ----------------------------------------------------------


def test_join_ack_precedes_routed_traffic():
    hub = hub_with()
    a = hub.connect("t", channel=b"room")
    b = hub.connect("t", channel=b"room")
    assert a.ack == b"+room" and b.ack == b"+room"
    a.send(b"one")
    a.send(b"two")
    b.pump()
    assert b.received == [b"one", b"two"]
    # The sender hears nothing back (no echo, no self-delivery).
    a.pump()
    assert a.received == []


def test_routing_is_tenant_scoped():
    """Same channel name, different tenants: never cross-routed."""
    hub = hub_with()
    a1 = hub.connect("alpha", channel=b"room")
    a2 = hub.connect("alpha", channel=b"room")
    b1 = hub.connect("beta", channel=b"room")
    a1.send(b"alpha secret")
    a2.pump()
    b1.pump()
    assert a2.received == [b"alpha secret"]
    assert b1.received == []


def test_fanout_reencrypts_per_receiver():
    """Receivers share plaintext but never ciphertext: each link has
    its own session keys, so the wire bytes differ per receiver."""
    hub = hub_with()
    sender = hub.connect("t", channel=b"room")
    r1 = hub.connect("t", channel=b"room")
    r2 = hub.connect("t", channel=b"room")
    sender.send(b"fan this out")
    wire1 = hub.core.data_to_send(r1.link_id)
    wire2 = hub.core.data_to_send(r2.link_id)
    assert wire1 and wire2 and wire1 != wire2
    r1._absorb(wire1)
    r2._absorb(wire2)
    assert r1.received == r2.received == [b"fan this out"]


def test_routed_events_and_counters():
    hub = hub_with()
    a = hub.connect("t", channel=b"room")
    hub.connect("t", channel=b"room")
    events = a.send(b"xyz")
    routed = [e for e in events if isinstance(e, PayloadRouted)]
    assert len(routed) == 1
    assert routed[0].receivers == 1 and routed[0].n_bytes == 3
    assert hub.core.routed_payloads == 1
    assert hub.core.routed_bytes == 3
    opens = [e for e in hub.events if isinstance(e, LinkOpen)]
    joins = [e for e in hub.events if isinstance(e, ChannelJoined)]
    assert len(opens) == 2 and len(joins) == 2


# -- admission-path refusals ----------------------------------------------


def test_revoked_tenant_refused_with_typed_event():
    hub = hub_with()
    secret = hub.tenant_secret("doomed")  # client learned it pre-revocation
    hub.keyring.revoke("doomed")
    client = hub.connect("doomed", auth_secret=secret)
    assert client is not None and not client.open
    rejects = [e for e in hub.events if isinstance(e, LinkRejected)]
    assert len(rejects) == 1
    assert rejects[0].reason == "tenant-revoked"
    assert rejects[0].tenant_id == normalize_tenant_id("doomed")
    assert hub.shed_by_reason() == {"tenant-revoked": 1}


def test_allow_list_rejects_authenticated_stranger():
    hub = hub_with(allowed_tenants=("friend",))
    friend = hub.connect("friend", channel=b"room")
    stranger = hub.connect("stranger")
    assert friend.open
    assert not stranger.open
    rejects = [e for e in hub.events if isinstance(e, LinkRejected)]
    assert [e.reason for e in rejects] == ["unknown-tenant"]


def test_tenant_quota_sheds_excess_links():
    hub = hub_with(max_links_per_tenant=2)
    assert hub.connect("t").open
    assert hub.connect("t").open
    third = hub.connect("t")
    assert not third.open
    assert hub.shed_by_reason() == {"tenant-quota": 1}
    assert hub.core.tenants() == {"t": 2}


# -- per-link budgets ------------------------------------------------------


def test_frame_budget_sheds_chatty_links():
    hub = hub_with(max_frames_per_link=3)
    a = hub.connect("t", channel=b"room")  # the JOIN is frame 1
    a.send(b"2")
    a.send(b"3")
    events = a.send(b"4")
    sheds = [e for e in events if isinstance(e, LinkShed)]
    assert [e.reason for e in sheds] == ["budget-frames"]
    assert not a.open
    assert hub.shed_by_reason() == {"budget-frames": 1}


def test_byte_budget_sheds_heavy_links():
    hub = hub_with(max_bytes_per_link=100)
    a = hub.connect("t", channel=b"room")  # 4 budget bytes
    a.send(b"x" * 50)
    events = a.send(b"x" * 50)  # 104 > 100
    assert [e.reason for e in events if isinstance(e, LinkShed)] \
        == ["budget-bytes"]
    assert hub.shed_by_reason() == {"budget-bytes": 1}


def test_oversized_join_is_shed():
    hub = hub_with(max_channel_bytes=4)
    a = hub.connect("t")
    a.proto.send_payload(b"roomy")  # 5 > 4
    a.pump()
    assert not a.open
    assert hub.shed_by_reason() == {"bad-join": 1}


# -- deadlines -------------------------------------------------------------


def test_handshake_deadline_sheds_stalled_links():
    clock = ManualClock()
    hub = hub_with(clock=clock, handshake_timeout_s=5.0)
    stalled = hub.connect("t", pump=False)  # ClientHello never delivered
    live = hub.connect("t", channel=b"room")
    assert hub.poll() == []  # t=0: nobody is late
    clock.advance(5.0)
    events = hub.poll()
    assert [e.reason for e in events if isinstance(e, LinkShed)] \
        == ["handshake-timeout"]
    assert not hub.core.has_link(stalled.link_id)
    assert live.open


def test_idle_deadline_sheds_silent_links():
    clock = ManualClock()
    hub = hub_with(clock=clock, idle_timeout_s=30.0)
    quiet = hub.connect("t", channel=b"room")
    busy = hub.connect("t", channel=b"room")
    clock.advance(29.0)
    busy.send(b"keepalive")  # inbound bytes refresh busy's activity
    clock.advance(1.0)
    events = hub.poll()
    shed_ids = [e.link_id for e in events if isinstance(e, LinkShed)]
    assert shed_ids == [quiet.link_id]
    assert busy.open


def test_outbound_drain_counts_as_activity():
    """A reader that keeps draining stays alive even if it never sends."""
    clock = ManualClock()
    hub = hub_with(clock=clock, idle_timeout_s=30.0)
    writer = hub.connect("t", channel=b"room")
    reader = hub.connect("t", channel=b"room")
    for _ in range(3):
        clock.advance(20.0)
        writer.send(b"tick")
        reader.pump()  # drains -> activity
    assert hub.poll() == [] or not any(
        e.link_id == reader.link_id for e in hub.poll())
    assert reader.open


# -- teardown and accounting ----------------------------------------------


def test_protocol_garbage_after_open_is_shed():
    hub = hub_with()
    a = hub.connect("t", channel=b"room")
    events = hub.core.receive_data(a.link_id, b"\xff" * 64)
    assert [e.reason for e in events if isinstance(e, LinkShed)] \
        == ["protocol-error"]
    assert hub.shed_by_reason() == {"protocol-error": 1}


def test_peer_eof_retires_cleanly_without_shed():
    """The wire format has no goodbye frame — a peer leaves by closing
    its transport, which reaches the core as EOF."""
    hub = hub_with()
    a = hub.connect("t", channel=b"room")
    b = hub.connect("t", channel=b"room")
    events = hub.core.receive_eof(a.link_id)
    assert not hub.core.has_link(a.link_id)
    retired = [e for e in events if isinstance(e, LinkRetired)]
    assert [e.reason for e in retired] == ["peer-closed"]
    assert hub.shed_by_reason() == {}
    # The group no longer routes at the departed link.
    routed = [e for e in b.send(b"anyone there?")
              if isinstance(e, PayloadRouted)]
    assert routed[0].receivers == 0
    assert hub.core.active_links == 1


def test_dead_link_feeds_are_noops():
    hub = hub_with()
    a = hub.connect("t", channel=b"room")
    a.close()
    assert hub.core.receive_data(a.link_id, b"late bytes") == []
    assert hub.core.receive_eof(a.link_id) == []
    assert hub.core.data_to_send(a.link_id) == b""
    assert hub.core.close_link(a.link_id) == []
    assert hub.core.link_tenant(a.link_id) is None


def test_stats_snapshot():
    hub = hub_with()
    hub.connect("t", channel=b"room")
    hub.connect("t", channel=b"room")
    stats = hub.core.stats()
    assert stats["active_links"] == 2
    assert stats["tenants"] == {"t": 2}
    assert stats["channels"] == 1
    assert stats["shed"] == {}
    assert stats["metrics_sessions"] == 2


def test_quota_slots_recycle_after_retirement():
    hub = hub_with(max_links=2)
    a = hub.connect("t")
    b = hub.connect("t")
    assert a.open and b.open
    assert hub.connect("t") is None  # the cap refuses the third
    assert hub.shed_by_reason() == {"global-quota": 1}
    a.close()
    b.close()
    assert hub.core.active_links == 0
    again = hub.connect("t", channel=b"room")
    assert again is not None and again.open


# -- obs integration -------------------------------------------------------


def test_obs_gauges_and_counters_track_the_core():
    registry = _obs.ObsRegistry()
    previous = _obs.set_registry(registry)
    try:
        hub = hub_with(max_links_per_tenant=1)
        a = hub.connect("acme", channel=b"room")
        hub.connect("acme")  # tenant-quota shed
        snap = registry.snapshot()
        assert snap["gauges"]["repro_relay_links_active"] == 1
        assert snap["gauges"]["repro_relay_tenant_links{tenant=acme}"] == 1
        assert snap["counters"][
            "repro_relay_shed_total{reason=tenant-quota}"] == 1
        a.close()
        snap = registry.snapshot()
        assert snap["gauges"]["repro_relay_links_active"] == 0
        # A tenant with no live link drops out of the gauge.
        assert "repro_relay_tenant_links{tenant=acme}" not in snap["gauges"]
    finally:
        _obs.set_registry(previous)
