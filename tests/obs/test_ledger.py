"""One metrics ledger: the registry reads owners' counters when scraped.

Sessions, links and relay cores keep their own counters and export them
through ``ObsRegistry.collect`` instead of mirroring every event into an
instrument.  The parity cases pin what that export must look like: the
``ledger_parity/*.prom`` files are the exposition the mirroring
implementation printed for the same seeded workload, captured by running
this module against it as a script::

    PYTHONPATH=src python tests/obs/test_ledger.py OUT_DIR
"""

import gc
import os
import pathlib
import random
import sys
import threading
import time

import pytest

from repro.core.key import Key
from repro.link.memory import LinkPair, MemoryLinkServer
from repro.net.metrics import MetricsRegistry, SessionMetrics
from repro.net.session import SessionConfig
from repro.obs import core as obs
from repro.relay import MemoryRelayHub, RelayConfig
from repro.scenario import (
    DIRECTIONS,
    FaultSchedule,
    FaultyLink,
    standard_matrix,
)

PARITY = pathlib.Path(__file__).with_name("ledger_parity")


def _echo(registry) -> str:
    """Pre-shared-key memory echo: 3 connections x 10 payloads."""
    config = SessionConfig(rekey_interval=3)
    with MemoryLinkServer(Key.generate(seed=15, n_pairs=16),
                          config=config) as server:
        for index in range(3):
            with server.connect(session_id=b"PARITY-%d" % index) as client:
                client.send_all([bytes([index, n]) * (n + 1)
                                 for n in range(10)])
    return registry.render_prometheus()


def _hostile_duplex(registry) -> str:
    """The ``hostile-duplex`` scenario: gap, replay, crc and datagram
    drops on both directions of a datagram link."""
    scenario = next(s for s in standard_matrix()
                    if s.name == "hostile-duplex")
    schedules = {direction: FaultSchedule(scenario.fault_seed + offset,
                                          **scenario.faults)
                 for offset, direction in enumerate(DIRECTIONS)}
    link = FaultyLink(Key.generate(seed=scenario.key_seed),
                      config=SessionConfig(
                          rekey_interval=scenario.rekey_interval),
                      i2r_faults=schedules["i2r"],
                      r2i_faults=schedules["r2i"])
    link.handshake()
    link.run_mix(scenario.mix)
    link.flush()
    assert link.verify() == []
    return registry.render_prometheus()


def _relay(registry) -> str:
    """A relay group: one tenant-quota shed, two routed payloads, read
    while both members are live."""
    hub = MemoryRelayHub(config=RelayConfig(max_links_per_tenant=2))
    a = hub.connect("acme", channel=b"room")
    b = hub.connect("acme", channel=b"room")
    hub.connect("acme")
    assert hub.shed_by_reason() == {"tenant-quota": 1}
    a.send(b"first")
    b.pump()
    b.send(b"second")
    a.pump()
    assert (a.received, b.received) == ([b"second"], [b"first"])
    return registry.render_prometheus()


PARTS = {"echo": _echo, "hostile-duplex": _hostile_duplex, "relay": _relay}


def exposition(part: str) -> str:
    """One workload part's exposition under a zero clock.

    ``os.urandom`` is seeded and ``time.time`` frozen for the duration:
    the relay's key exchange draws from the one and stamps its tickets
    with the other, and the session keys it derives decide the
    ciphertext sizes the byte counters see.
    """
    registry = obs.ObsRegistry(clock=lambda: 0.0)
    previous = obs.set_registry(registry)
    urandom, os.urandom = os.urandom, random.Random(2005).randbytes
    wall, time.time = time.time, lambda: 1_800_000_000.0
    try:
        return PARTS[part](registry)
    finally:
        os.urandom, time.time = urandom, wall
        obs.set_registry(previous)


def _parse(text: str) -> tuple:
    """``({family: its HELP/TYPE lines}, {sample: value})``."""
    meta: dict = {}
    samples: dict = {}
    for line in text.splitlines():
        if line.startswith("#"):
            meta.setdefault(line.split()[2], []).append(line)
        elif line:
            sample, value = line.rsplit(" ", 1)
            samples[sample] = float(value)
    return meta, samples


@pytest.mark.parametrize("part", sorted(PARTS))
def test_exposition_matches_the_mirror_ledger(part):
    before_meta, before = _parse((PARITY / f"{part}.prom").read_text())
    after_meta, after = _parse(exposition(part))
    for family, lines in before_meta.items():
        assert after_meta.get(family) == lines, family
    for sample, value in before.items():
        if sample.startswith("repro_relay_tenant_links{") and value == 0:
            # A tenant with no live link may drop out of the gauge.
            assert after.get(sample, 0) == 0, sample
        else:
            assert after.get(sample) == value, sample
    extra = {sample: value for sample, value in after.items()
             if sample not in before}
    assert all(value == 0 for value in extra.values()), extra


class _Owner:
    """Something that counts for itself (weak-referenceable)."""


def _owner_samples(counts: dict) -> list:
    return [("counter", "repro_test_total", (), counts["events"]),
            ("gauge", "repro_test_level", (), counts["level"])]


class TestCollect:
    def test_live_owners_are_summed_with_instruments(self):
        registry = obs.ObsRegistry()
        owners = [_Owner(), _Owner()]
        for events, owner in enumerate(owners, start=1):
            registry.collect(owner, lambda n=events: [
                ("counter", "repro_test_total", (("k", "v"),), n)])
        registry.counter("repro_test_total", k="v").inc(10)
        assert registry.snapshot()["counters"] == {
            "repro_test_total{k=v}": 13}

    def test_counters_never_fall_when_their_owners_die(self):
        registry = obs.ObsRegistry()
        owner, counts = _Owner(), {"events": 0, "level": 0}
        registry.collect(owner, lambda: _owner_samples(counts),
                         help={"repro_test_total": "Events counted."})
        counts.update(events=5, level=2)
        assert registry.snapshot()["counters"] == {"repro_test_total": 5}
        assert registry.snapshot()["gauges"] == {"repro_test_level": 2}
        del owner
        gc.collect()
        snap = registry.snapshot()
        assert snap["counters"] == {"repro_test_total": 5}
        assert snap["gauges"] == {}  # a dead owner's gauges disappear
        assert "# HELP repro_test_total Events counted." in (
            registry.render_prometheus())

    def test_dead_sessions_and_links_keep_their_counts(self, registry,
                                                       key16):
        pair = LinkPair(key16, session_id=b"ledger01")
        pair.handshake()
        for n in range(4):
            pair.initiator.send_payload(bytes([n]) * 50)
        pair.pump()
        pair.responder.receive_eof()
        pair.responder.receive_data(b"late")
        alive = registry.snapshot()["counters"]
        del pair
        gc.collect()
        dead = registry.snapshot()["counters"]
        assert alive["repro_session_packets_total{direction=rx}"] == 4
        assert alive["repro_link_drops_total{reason=after-close}"] == 1
        assert dead == alive

    def test_a_dropped_relay_folds_its_counters_and_drops_its_gauges(
            self, registry):
        hub = MemoryRelayHub()
        a = hub.connect("acme", channel=b"room")
        b = hub.connect("acme", channel=b"room")
        a.send(b"ping")
        b.pump()
        assert registry.snapshot()["gauges"]["repro_relay_links_active"] == 2
        del hub, a, b  # live links and all
        gc.collect()
        snap = registry.snapshot()
        assert snap["counters"]["repro_relay_routed_payloads_total"] == 1
        assert not any(series.startswith("repro_relay_")
                       for series in snap["gauges"])

    def test_folding_is_thread_safe(self, registry):
        # Sessions die on worker threads (as on the sync and UDP
        # servers) while the main thread scrapes: no fold may be lost,
        # in the obs registry or in the server's metrics registry.
        slots = MetricsRegistry()
        switch = sys.getswitchinterval()

        def churn(worker):
            for n in range(200):
                slots.session(f"w{worker}-{n}").record_tx(3, 5)

        try:
            sys.setswitchinterval(1e-6)
            threads = [threading.Thread(target=churn, args=(worker,))
                       for worker in range(4)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30
            while (any(thread.is_alive() for thread in threads)
                   and time.monotonic() < deadline):
                registry.snapshot()
                slots.aggregate()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        counters = registry.snapshot()["counters"]
        assert counters["repro_session_packets_total{direction=tx}"] == 800
        assert counters["repro_session_wire_bytes_total{direction=tx}"] == 4000
        assert slots.total_sessions == 800
        assert slots.aggregate()[0].packets == 800

    def test_reset_forgets_collectors_and_folded_totals(self):
        registry = obs.ObsRegistry()
        kept, dropped = _Owner(), _Owner()
        counts = {"events": 3, "level": 1}
        registry.collect(kept, lambda: _owner_samples(counts))
        registry.collect(dropped, lambda: _owner_samples(counts))
        del dropped
        gc.collect()
        registry.reset()
        assert registry.snapshot()["counters"] == {}
        assert registry.render_prometheus() == "\n"

    def test_null_registry_collects_nothing(self):
        registry = obs.NullRegistry()
        registry.collect(_Owner(), lambda: _owner_samples({}))
        assert registry.snapshot()["counters"] == {}


class TestBinding:
    def test_an_owner_exports_only_to_the_registry_it_was_built_under(self):
        first, second = obs.ObsRegistry(), obs.ObsRegistry()
        obs.set_registry(first)
        metrics = SessionMetrics()
        obs.set_registry(second)
        metrics.record_tx(10, 15)
        metrics.record_replay()
        exported = first.snapshot()["counters"]
        assert exported["repro_session_packets_total{direction=tx}"] == 1
        assert exported["repro_link_drops_total{reason=replay}"] == 1
        assert second.snapshot()["counters"] == {}


if __name__ == "__main__":
    for name in PARTS:
        (pathlib.Path(sys.argv[1]) / f"{name}.prom").write_text(
            exposition(name))
