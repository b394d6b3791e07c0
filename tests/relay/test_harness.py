"""MemoryRelayHub harness, egress policies, and the config file loader."""

import json

import pytest

from repro.core.errors import SessionError
from repro.kex.keyring import normalize_tenant_id
from repro.relay import (
    LinkShed,
    ManualClock,
    MemoryRelayHub,
    PayloadDropped,
    RelayConfig,
    load_tenant_config,
)


def hub_with(**overrides):
    defaults = dict(max_links=16, max_links_per_tenant=16)
    defaults.update(overrides)
    return MemoryRelayHub(config=RelayConfig(**defaults))


# -- harness basics --------------------------------------------------------


def test_manual_clock_steps():
    clock = ManualClock(start=10.0)
    assert clock() == 10.0
    assert clock.advance(2.5) == 12.5
    assert clock() == 12.5


def test_resume_tickets_skip_the_ladder():
    hub = hub_with()
    ticket = hub.mint_ticket("t")
    client = hub.connect("t", channel=b"room", ticket=ticket)
    assert client.open
    assert client.proto.kex_mode == "resume"


def test_mint_ticket_validates_master_length():
    hub = hub_with()
    with pytest.raises(SessionError, match="32 bytes"):
        hub.mint_ticket("t", master=b"short")


def test_tenant_secret_is_cached_across_revocation():
    hub = hub_with()
    secret = hub.tenant_secret("t")
    hub.keyring.revoke("t")
    assert hub.tenant_secret("t") == secret  # the client's stale copy


def test_event_ledger_accumulates_in_order():
    hub = hub_with()
    a = hub.connect("t", channel=b"room")
    before = len(hub.events)
    a.send(b"x")
    assert len(hub.events) > before


# -- egress policies -------------------------------------------------------


def test_drop_oldest_keeps_the_newest_payloads():
    hub = hub_with(egress_queue_payloads=4)
    writer = hub.connect("t", channel=b"room")
    reader = hub.connect("t", channel=b"room")
    dropped = []
    for i in range(10):
        events = writer.send(b"payload-%d" % i)
        dropped.extend(e for e in events if isinstance(e, PayloadDropped))
    assert len(dropped) == 6
    assert all(e.link_id == reader.link_id for e in dropped)
    reader.pump()
    assert reader.received == [b"payload-%d" % i for i in range(6, 10)]
    assert reader.open  # drop-oldest never kills the link
    assert hub.shed_by_reason() == {"egress-drop": 6}


def test_disconnect_policy_sheds_the_stalled_reader():
    hub = hub_with(egress_queue_payloads=4, egress_policy="disconnect")
    writer = hub.connect("t", channel=b"room")
    reader = hub.connect("t", channel=b"room")
    sheds = []
    for i in range(6):
        events = writer.send(b"payload-%d" % i)
        sheds.extend(e for e in events if isinstance(e, LinkShed))
    assert [e.reason for e in sheds] == ["egress-disconnect"]
    assert sheds[0].link_id == reader.link_id
    assert not hub.core.has_link(reader.link_id)
    assert writer.open
    assert hub.shed_by_reason() == {"egress-disconnect": 1}


def test_drops_never_burn_sequence_numbers():
    """The egress queue holds plaintext: after heavy dropping, the
    surviving payloads still decrypt cleanly in order (no seq gaps)."""
    hub = hub_with(egress_queue_payloads=2)
    writer = hub.connect("t", channel=b"room")
    reader = hub.connect("t", channel=b"room")
    for i in range(50):
        writer.send(b"wave-%d" % i)
    reader.pump()
    assert reader.received == [b"wave-48", b"wave-49"]
    assert reader.error is None
    # And the link keeps working at normal pace afterwards.
    reader.received.clear()
    writer.send(b"calm")
    reader.pump()
    assert reader.received == [b"calm"]


# -- the operator config file ---------------------------------------------


def test_load_tenant_config(tmp_path):
    path = tmp_path / "tenants.json"
    path.write_text(json.dumps({
        "fleet_root_hex": "22" * 32,
        "max_links": 100,
        "max_links_per_tenant": 10,
        "handshake_rate": 50.0,
        "egress_policy": "disconnect",
        "metrics_eviction_s": 60.0,  # a retired knob: still loads, ignored
        "tenants": {
            "acme": {},
            "globex": {"revoked": True},
            "initech": {"expires_unix": 4102444800.0},
        },
    }))
    keyring, config = load_tenant_config(path)
    assert not hasattr(config, "metrics_eviction_s")
    assert config.max_links == 100
    assert config.max_links_per_tenant == 10
    assert config.handshake_rate == 50.0
    assert config.egress_policy == "disconnect"
    # Naming tenants creates the allow list...
    assert config.normalized_allow_list() == frozenset({
        normalize_tenant_id("acme"),
        normalize_tenant_id("globex"),
        normalize_tenant_id("initech"),
    })
    # ...and per-tenant state reaches the keyring.
    assert keyring.is_active("acme")
    assert not keyring.is_active("globex")
    assert keyring.is_active("initech")  # expires in 2100


def test_load_tenant_config_without_tenants_allows_all(tmp_path):
    path = tmp_path / "open.json"
    path.write_text(json.dumps({"fleet_root_hex": "33" * 32}))
    keyring, config = load_tenant_config(path)
    assert config.normalized_allow_list() is None
    assert keyring.is_active("anyone")


def test_load_tenant_config_rejects_bad_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"max_links": 5}))
    with pytest.raises(SessionError, match="fleet_root_hex"):
        load_tenant_config(path)
    path.write_text(json.dumps({"fleet_root_hex": "not hex"}))
    with pytest.raises(SessionError, match="hex"):
        load_tenant_config(path)


def test_loaded_config_drives_a_hub(tmp_path):
    path = tmp_path / "tenants.json"
    path.write_text(json.dumps({
        "fleet_root_hex": "44" * 32,
        "tenants": {"acme": {}, "globex": {"revoked": True}},
    }))
    keyring, config = load_tenant_config(path)
    hub = MemoryRelayHub(keyring, config)
    good = hub.connect("acme", channel=b"room")
    assert good.open
    # A globex client (whatever secret it once held) dies at the
    # keyring's revocation check, before any MAC is even examined.
    bad = hub.connect("globex", auth_secret=b"\x00" * 32)
    assert not bad.open
    assert hub.shed_by_reason() == {"tenant-revoked": 1}
