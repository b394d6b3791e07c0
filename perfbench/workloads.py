"""The three workloads, driving the stack the way its users do.

Every input — keys, session ids, payloads, arrival order, ticket master
secrets — is generated from the seed before timing starts.  Load comes
from one process and one thread, with at most one socket connection
open at a time.

* ``bulk``: 16 KiB payloads echoed in pipelined bursts through
  ``send_all`` over loopback TCP.  The engine kernel dominates.
* ``interactive``: 8-64 byte payloads in lockstep ``request()`` calls
  over loopback TCP.  Per-packet layers and the asyncio transport take
  about half of every round trip.
* ``relay-churn``: in-process links through ``MemoryRelayHub``: groups
  of links join a channel (one in four by full X25519, the rest by
  resumption ticket), fan payloads out to each other, and close, while
  the obs registry is scraped.

Vectors per byte, and with them the engine's cost, vary by ~8 %
(inter-quartile range) from one epoch key to the next.  ``interactive``
crosses an epoch every 1024 packets, but ``bulk`` would run a whole run
on the two keys of one session, so it opens a fresh link (with a fresh
seeded session id) for every burst; otherwise runs on different seeds
would differ by as much as the regressions this benchmark is to catch.
"""

from __future__ import annotations

import asyncio
import random
import time
from array import array

from repro.analysis.workloads import small_payloads

#: Plaintext bytes per ``bulk`` payload.
BULK_PAYLOAD = 16 * 1024
#: Payloads pipelined through one ``send_all`` call (one ``bulk`` op).
BULK_BURST = 4
#: Distinct small payloads an ``interactive`` or ``relay-churn`` run
#: cycles through (``small_payloads`` costs ~0.25 ms each to generate,
#: and generating them lands in ``setup_s``).
SMALL_PAYLOADS = 256
#: Links per ``relay-churn`` channel group; one of them runs X25519.
RELAY_GROUP = 4
#: Payloads each group member sends (each fans out to the others).
RELAY_SENDS = 6
#: Routed payloads between two scrapes of the obs registry.
RELAY_SCRAPE_EVERY = 64
#: Groups in the ``relay-churn`` plan, which a run cycles through.  Every
#: resumed link redeems a ticket and a hub's replay cache holds 4096, so
#: each pass through the plan runs on a fresh hub (a relay restart, whose
#: empty replay cache accepts the plan's tickets again).
RELAY_HUB_GROUPS = 1300


class Run:
    """What one workload run measured (times in seconds)."""

    def __init__(self, workload: str):
        self.workload = workload
        self.engines: dict = {}
        self.transport = ""
        self.reset()

    def reset(self) -> None:
        """Forget the warm-up: keep only what the timed window measures."""
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list = []
        # Arrays, not lists: a faster stack completes more operations,
        # and the bookkeeping must not show up in peak_rss_mb.
        self.op_s = array("d")
        self.op_done = array("d")
        self.op_bytes = array("q")
        self.link_s = array("d")
        self.link_mode: list = []
        self.steps = 0
        self.payloads = 0
        self.bytes = 0
        self.started = 0.0
        self.wall_s = 0.0
        self.shed = 0
        self.series = 0

    @property
    def ops(self) -> int:
        """Completed operations: bursts, requests or routed payloads."""
        return len(self.op_s)

    def done(self, seconds: float, payloads: int, n_bytes: int) -> None:
        """Record one operation whose output was verified."""
        self.op_done.append(time.perf_counter())
        self.op_s.append(seconds)
        self.op_bytes.append(n_bytes)
        self.payloads += payloads
        self.bytes += n_bytes

    def fail(self, problem: str, wrong: bool = True) -> None:
        """Count one failed operation; ``wrong`` marks a wrong output."""
        self.failed += 1
        self.wrong += wrong
        if len(self.problems) < 10:
            self.problems.append(problem)


class Clock:
    """The timed window: a deadline, or a step budget for the traced
    run, which repeats the steps of the untraced one."""

    def __init__(self, seconds: float, max_steps: "int | None", tracer):
        self.seconds = seconds
        self.max_steps = max_steps
        self.tracer = tracer
        self.deadline = 0.0

    def begin(self, run: Run) -> None:
        if self.tracer is not None:
            self.tracer.begin()
        run.started = time.perf_counter()
        self.deadline = run.started + self.seconds

    def more(self, run: Run) -> bool:
        if self.max_steps is not None:
            return run.steps < self.max_steps
        return time.perf_counter() < self.deadline

    def end(self, run: Run) -> None:
        run.wall_s = time.perf_counter() - run.started
        if self.tracer is not None:
            self.tracer.finish()

    def op(self, index: int) -> None:
        if self.tracer is not None:
            self.tracer.op = index


def cli_defaults():
    """The parsed defaults of ``repro serve``, ``repro send`` and
    ``repro keygen``: the benchmark names no engine or policy itself."""
    from repro.cli import build_parser

    parser = build_parser()
    serve = parser.parse_args(["serve", "--key", "-"])
    send = parser.parse_args(["send", "--key", "-", "--port", "0", "-"])
    keygen = parser.parse_args(["keygen", "--seed", "0"])
    return serve, send, keygen


def _require_null_registry() -> None:
    from repro.obs import core as obs

    registry = obs.get_registry()
    if registry.enabled or not isinstance(registry, obs.NullRegistry):
        raise RuntimeError(
            f"the link workloads run with obs off, but the process registry "
            f"is {registry!r}")


class LinkPlan:
    """Seeded inputs of a link workload."""

    def __init__(self, seed: int, payloads: list, links: int):
        _, _, keygen = cli_defaults()
        from repro.core.key import Key

        rng = random.Random(seed)
        self.key = Key.generate(seed=rng.getrandbits(32), n_pairs=keygen.pairs)
        self.session_ids = [rng.randbytes(8) for _ in range(links)]
        self.payloads = payloads


def bulk_plan(seed: int) -> LinkPlan:
    rng = random.Random(seed ^ 0xB01C)
    return LinkPlan(seed, [rng.randbytes(BULK_PAYLOAD) for _ in range(32)],
                    links=16384)


def interactive_plan(seed: int) -> LinkPlan:
    return LinkPlan(seed, small_payloads(SMALL_PAYLOADS, seed=seed), links=1)


async def _link_run(run: Run, plan: LinkPlan, clock: Clock, handler,
                    on_ready, fresh_links: bool, op_payloads) -> None:
    """The shared loop of ``bulk`` and ``interactive``.

    ``op_payloads(index)`` gives the payloads of operation ``index``;
    one op is one ``send_all`` of them (``request`` for a single one).
    With ``fresh_links`` every op after the first runs on a new link.
    """
    import repro
    from repro.cli import _link_codec

    _require_null_registry()
    serve_args, send_args, _ = cli_defaults()
    serve_args.key = send_args.key = plan.key
    server_codec = _link_codec(serve_args)
    client_codec = _link_codec(send_args)
    run.engines = {"server": server_codec.engine, "client": client_codec.engine}
    run.transport = "loopback TCP (asyncio, one connection at a time)"
    session_ids = iter(plan.session_ids)

    async def open_link():
        client = repro.connect(client_codec, port=server.port,
                               session_id=next(session_ids),
                               kex=send_args.kex)
        await client.connect()
        return client

    async def exchange(client, index: int) -> None:
        payloads = op_payloads(index)
        run.attempted += 1
        clock.op(run.attempted)
        begun = time.perf_counter()
        if len(payloads) == 1:
            replies = [await client.request(payloads[0])]
        else:
            replies = await client.send_all(payloads)
        elapsed = time.perf_counter() - begun
        if replies != payloads:
            run.fail(f"op {index}: echo differs from what was sent")
        else:
            run.done(elapsed, len(payloads), sum(map(len, payloads)))

    with server_codec, client_codec:
        async with repro.serve(server_codec, port=0, handler=handler,
                               kex=serve_args.kex) as server:
            client = await open_link()
            try:
                await exchange(client, -1)  # warm-up
                if run.wrong or on_ready():
                    return
                run.reset()
                clock.begin(run)
                index = 0
                while clock.more(run) and not run.wrong:
                    if index and fresh_links:
                        await client.close()
                        run.attempted += 1
                        clock.op(run.attempted)
                        begun = time.perf_counter()
                        client = await open_link()
                        run.link_s.append(time.perf_counter() - begun)
                    await exchange(client, index)
                    index += 1
                    run.steps += 1
                clock.end(run)
            finally:
                await client.close()


def run_bulk(seed, clock, handler=None, on_ready=lambda: False) -> Run:
    plan = bulk_plan(seed)
    run = Run("bulk")
    n = len(plan.payloads)

    def op_payloads(index: int) -> list:
        first = (index * BULK_BURST) % n
        return [plan.payloads[(first + j) % n] for j in range(BULK_BURST)]

    asyncio.run(_link_run(run, plan, clock, handler, on_ready, True,
                          op_payloads))
    return run


def run_interactive(seed, clock, handler=None, on_ready=lambda: False) -> Run:
    plan = interactive_plan(seed)
    run = Run("interactive")
    n = len(plan.payloads)

    def op_payloads(index: int) -> list:
        return [plan.payloads[index % n]]

    asyncio.run(_link_run(run, plan, clock, handler, on_ready, False,
                          op_payloads))
    return run


class RelayPlan:
    """Seeded arrivals of ``relay-churn``: one entry per channel group."""

    TENANTS = ("alpha", "beta")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.fleet_root = rng.randbytes(32)
        pool = small_payloads(SMALL_PAYLOADS, seed=seed)
        self.groups = []
        for g in range(RELAY_HUB_GROUPS + 1):
            ecdh_member = rng.randrange(RELAY_GROUP)
            self.groups.append({
                "tenant": rng.choice(self.TENANTS),
                "channel": b"group-%d" % g,
                "masters": [None if m == ecdh_member else rng.randbytes(32)
                            for m in range(RELAY_GROUP)],
                "payloads": [[pool[rng.randrange(len(pool))]
                              for _ in range(RELAY_SENDS)]
                             for _ in range(RELAY_GROUP)],
            })


def run_relay_churn(seed, clock, handler=None, on_ready=lambda: False) -> Run:
    """Groups join, fan out and close on a hub with a live obs registry,
    as ``repro relay --metrics-port`` runs it."""
    from repro.core.engines import get_engine
    from repro.kex.keyring import TenantKeyring
    from repro.obs import core as obs
    from repro.relay import MemoryRelayHub, RelayConfig

    if handler is not None:
        raise ValueError("relay-churn routes payloads; it takes no handler")
    plan = RelayPlan(seed)
    run = Run("relay-churn")
    registry = obs.ObsRegistry()
    previous = obs.set_registry(registry)
    try:
        keyring = TenantKeyring(plan.fleet_root)
        hub = MemoryRelayHub(keyring, RelayConfig())
        run.engines = {"relay": get_engine(hub.core.config.engine)}
        run.transport = "in-process (MemoryRelayHub byte shuttle)"
        # Tickets are sealed under the fleet's ticket secret, so every
        # hub on this keyring redeems them.
        tickets = [[None if master is None
                    else hub.mint_ticket(group["tenant"], master=master)
                    for master in group["masters"]]
                   for group in plan.groups]
        _relay_group(run, hub, plan.groups[0], tickets[0], clock, registry,
                     timed=False)
        if run.wrong or on_ready():
            return run
        run.reset()
        clock.begin(run)
        while clock.more(run) and not run.wrong:
            index = run.steps % RELAY_HUB_GROUPS + 1
            if index == 1 and run.steps:
                run.shed += sum(hub.core.shed.values())
                hub = MemoryRelayHub(keyring, RelayConfig())
            _relay_group(run, hub, plan.groups[index], tickets[index], clock,
                         registry)
            run.steps += 1
        clock.end(run)
        run.shed += sum(hub.core.shed.values())
        snapshot = registry.snapshot()
        if not snapshot["counters"].get("repro_relay_routed_payloads_total"):
            raise RuntimeError("the relay hub did not record into the live "
                               "obs registry")
        run.series = sum(len(snapshot[kind])
                         for kind in ("counters", "gauges", "histograms"))
    finally:
        obs.set_registry(previous)
    return run


def _relay_group(run: Run, hub, group: dict, tickets: list, clock: Clock,
                 registry, timed: bool = True) -> None:
    """One group: every member connects and JOINs, sends its payloads
    (each fanned out to every other member), then all close."""
    channel = group["channel"]
    members = []
    for ticket in tickets:
        run.attempted += 1
        clock.op(run.attempted)
        begun = time.perf_counter()
        client = hub.connect(group["tenant"], channel=channel, ticket=ticket)
        elapsed = time.perf_counter() - begun
        if client is None or client.ack != b"+" + channel:
            run.fail(f"{channel!r}: a link was refused or never saw its "
                     f"JOIN acknowledged", wrong=False)
            if client is not None:
                client.close()
        else:
            members.append(client)
            run.link_s.append(elapsed)
            run.link_mode.append(client.proto.kex_mode)
    expected = {id(member): [] for member in members}
    for sent in range(RELAY_SENDS * len(members)):
        round_, m = divmod(sent, len(members))
        sender, payload = members[m], group["payloads"][m][round_]
        run.attempted += 1
        clock.op(run.attempted)
        begun = time.perf_counter()
        sender.send(payload)
        for member in members:
            if member is not sender:
                member.pump()
        elapsed = time.perf_counter() - begun
        for member in members:
            if member is not sender:
                expected[id(member)].append(payload)
        if any(member.received != expected[id(member)] for member in members):
            run.fail(f"{channel!r}: fan-out differs from what was sent")
            break
        run.done(elapsed, 1, len(payload))
        if timed and run.ops % RELAY_SCRAPE_EVERY == 0:
            registry.render_prometheus()
    for member in members:
        member.close()
    # The hub logs every relay event; dropping them keeps peak_rss_mb
    # from growing with the number of groups a run completes.
    hub.events.clear()


def engine_classes(workload: str) -> set:
    """Classes of the engines ``workload`` resolves from the defaults."""
    from repro.core.engines import get_engine
    from repro.relay import RelayConfig

    if workload == "relay-churn":
        names = [RelayConfig().engine]
    else:
        serve_args, send_args, _ = cli_defaults()
        names = [serve_args.engine, send_args.engine]
    return {type(get_engine(name)) for name in names}


RUNNERS = {
    "bulk": run_bulk,
    "interactive": run_interactive,
    "relay-churn": run_relay_churn,
}
