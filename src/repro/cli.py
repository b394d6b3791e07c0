"""Command-line interface (``repro-mhhea``).

Subcommands map one-to-one onto the library's public surface:

* ``keygen`` — generate a key schedule and print it in hex;
* ``engines`` — list the registered cipher engines;
* ``encrypt`` / ``decrypt`` — packet-format file encryption;
* ``embed`` / ``extract`` — steganographic cover embedding;
* ``wave`` — print the simulation waveforms of Figs 5–8;
* ``report`` — run the FPGA flow and print the Appendix-A reports;
* ``table1`` — print the Table 1 / Figure 9 reproduction;
* ``serve`` — run a secure-link echo server (``repro.net``);
* ``send`` — stream a file to a ``serve`` peer and verify the echoes;
* ``stats`` — fetch ``/metrics`` from a ``--metrics-port`` endpoint;
* ``scenario`` — run the hostile-network scenario battery
  (:mod:`repro.scenario`): seeded fault schedules against the sans-IO
  link with exact drop reconciliation; exits 1 if any invariant fails.

``serve`` and ``send`` accept ``--metrics-port N`` (TCP transport only;
``0`` binds a free port): the command enables the :mod:`repro.obs`
registry, serves ``GET /metrics`` (Prometheus text), ``/metrics.json``
and ``/healthz`` on that port for its lifetime, and prints the registry
summary on exit.  ``repro-mhhea stats --port N`` fetches the text from
a running endpoint (``--json`` for the snapshot document).

Every cipher-facing subcommand funnels through :class:`repro.api.Codec`
— the CLI is a thin shim over the facade, and ``--engine`` accepts any
name in the engine registry (``repro-mhhea engines`` lists them).
Invalid arguments (bad key hex, unknown engine, missing files) exit
with status 2 and a one-line message, never a traceback.

``serve``/``send`` speak the framed wire protocol of DESIGN.md sections
4–6: a hello handshake (algorithm, width, rekey interval, key
fingerprint), then ciphertext packets under per-session derived keys
with automatic rekeying.  Both ends must be started with the same key,
the same ``--rekey-interval`` and the same ``--transport`` (``tcp``,
the reliable asyncio default, or ``udp``, best-effort datagrams whose
replay window absorbs loss and reordering; UDP runs cipher work inline,
so it rejects ``--workers``).  ``encrypt``/``decrypt``/``serve``/
``send`` run the registry's default engine (``repro-mhhea engines`` tags
it; ``--engine reference`` selects the per-bit golden model; all emit
identical packets, see DESIGN.md section 8) and accept ``--workers N``
to shard cipher work across a process pool (``repro.parallel``; wire
bytes are identical for every worker count, see DESIGN.md section 9).
A typical loopback check::

    repro-mhhea keygen --seed 1 > key.txt
    repro-mhhea serve --key "$(cat key.txt)" --port 45678 &
    repro-mhhea send --key "$(cat key.txt)" --port 45678 somefile.bin

Every subcommand is a thin shim over library calls so behaviour is
always test-covered through the API, not through the CLI.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import sys

from repro.core.engines import (
    DEFAULT_ENGINE_NAME,
    get_engine,
    registered_engines,
)
from repro.core.errors import ReproError
from repro.core.key import Key
from repro.core.params import PAPER_PARAMS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests and docs)."""
    from repro import __version__
    from repro.net.session import (
        DEFAULT_PARALLEL_THRESHOLD,
        DEFAULT_REKEY_INTERVAL,
    )

    parser = argparse.ArgumentParser(
        prog="repro-mhhea",
        description="MHHEA hybrid hiding cipher — DATE 2005 reproduction",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro-mhhea {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    keygen = sub.add_parser("keygen", help="generate a key schedule")
    keygen.add_argument("--seed", type=int, required=True)
    keygen.add_argument("--pairs", type=int, default=16)

    sub.add_parser("engines",
                   help="list the registered cipher engine backends")

    def add_engine_flag(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            # Choices come from the registry, so a plugin registered
            # before main() is selectable; argparse rejects unknown
            # names with the registered list and exit status 2.
            "--engine", choices=registered_engines(),
            default=DEFAULT_ENGINE_NAME,
            help="cipher implementation (default %(default)s): bit-parallel "
                 "'fast', the per-bit 'reference', or any registered "
                 "plugin; all produce identical packets",
        )

    def add_workers_flag(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--workers", type=int, default=0,
            help="worker processes for the sharded pipeline (0 = inline); "
                 "wire output is identical for every setting",
        )

    encrypt = sub.add_parser("encrypt", help="encrypt a file into a packet")
    encrypt.add_argument("--key", required=True, help="hex key (keygen output)")
    encrypt.add_argument("--nonce", type=lambda s: int(s, 0), default=0xACE1)
    add_engine_flag(encrypt)
    add_workers_flag(encrypt)
    encrypt.add_argument(
        "--chunk-size", type=int, default=None,
        help="plaintext bytes per chunk packet (default 64 KiB); files "
             "up to one chunk produce a plain single packet — this flag "
             "alone determines the wire bytes, --workers never does",
    )
    encrypt.add_argument("input")
    encrypt.add_argument("output")

    decrypt = sub.add_parser("decrypt", help="decrypt a packet file")
    decrypt.add_argument("--key", required=True)
    add_engine_flag(decrypt)
    add_workers_flag(decrypt)
    decrypt.add_argument("input")
    decrypt.add_argument("output")

    embed = sub.add_parser("embed", help="hide a message file in a cover file")
    embed.add_argument("--key", required=True)
    embed.add_argument("message")
    embed.add_argument("cover")
    embed.add_argument("output")

    extract = sub.add_parser("extract", help="recover a message from a stego file")
    extract.add_argument("--key", required=True)
    extract.add_argument("--bits", type=int, required=True,
                         help="message length in bits (from embed)")
    extract.add_argument("--vectors", type=int, required=True,
                         help="vector count (from embed)")
    extract.add_argument("input")
    extract.add_argument("output")

    wave = sub.add_parser("wave", help="print the Figs 5-8 waveforms")
    wave.add_argument("--seed", type=lambda s: int(s, 0), default=0xACE1)

    report = sub.add_parser("report", help="run the FPGA flow, print reports")
    report.add_argument("--design", choices=("mhhea", "serial", "yaea"),
                        default="mhhea")
    report.add_argument("--effort", type=float, default=0.6)
    report.add_argument("--place-seed", type=int, default=7)

    table1 = sub.add_parser("table1", help="print the Table 1 reproduction")
    table1.add_argument(
        "--accounting",
        choices=("paper-max-window", "expected-window", "measured"),
        default="paper-max-window",
    )
    table1.add_argument("--effort", type=float, default=0.5)

    def add_transport_flag(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--transport", choices=("tcp", "udp"), default="tcp",
            help="link transport: reliable asyncio TCP (default) or "
                 "best-effort UDP datagrams (one packet per datagram; "
                 "incompatible with --workers)",
        )

    def add_kex_flag(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--kex", choices=("ecdh", "psk"), default="psk",
            help="handshake mode: 'psk' (default) uses the pre-shared "
                 "key directly with the classic hello; 'ecdh' runs the "
                 "authenticated X25519 exchange (hello-v2) first, "
                 "deriving fresh per-session root keys; stream "
                 "transports only",
        )

    def add_metrics_flag(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--metrics-port", type=int, default=None,
            help="serve GET /metrics (Prometheus text) and /healthz on "
                 "this HTTP port (0 picks a free one); enables the obs "
                 "registry and prints its summary on exit; TCP transport "
                 "only",
        )

    serve = sub.add_parser("serve", help="run a secure-link echo server")
    serve.add_argument("--key", required=True, help="hex key (keygen output)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="port (0 picks a free one)")
    add_transport_flag(serve)
    serve.add_argument("--rekey-interval", type=int,
                       default=DEFAULT_REKEY_INTERVAL,
                       help="packets per direction before the key ratchets")
    add_engine_flag(serve)
    add_workers_flag(serve)
    serve.add_argument("--parallel-threshold", type=int,
                       default=DEFAULT_PARALLEL_THRESHOLD,
                       help="smallest payload (bytes) offloaded to workers")
    add_kex_flag(serve)
    add_metrics_flag(serve)

    send = sub.add_parser("send", help="stream a file over the secure link")
    send.add_argument("--key", required=True, help="hex key (keygen output)")
    send.add_argument("--host", default="127.0.0.1")
    send.add_argument("--port", type=int, required=True)
    add_transport_flag(send)
    send.add_argument("--chunk", type=int, default=1024,
                      help="payload bytes per packet")
    send.add_argument("--rekey-interval", type=int,
                      default=DEFAULT_REKEY_INTERVAL,
                      help="must match the server's setting")
    add_engine_flag(send)
    add_workers_flag(send)
    send.add_argument("--parallel-threshold", type=int,
                      default=DEFAULT_PARALLEL_THRESHOLD,
                      help="smallest payload (bytes) offloaded to workers")
    add_kex_flag(send)
    send.add_argument("--ticket-file", default=None, metavar="PATH",
                      help="resumption-ticket store (requires --kex ecdh): "
                           "an existing ticket at PATH is offered for "
                           "session resumption, and the freshly issued "
                           "one is saved back for the next run")
    add_metrics_flag(send)
    send.add_argument("input")

    scenario = sub.add_parser(
        "scenario",
        help="run the hostile-network scenario battery with exact "
             "fault/drop reconciliation")
    scenario.add_argument("--list", action="store_true",
                          help="list the committed scenarios and exit")
    scenario.add_argument("--only", metavar="NAME", default=None,
                          help="run a single scenario by name")
    scenario.add_argument("--transports", action="store_true",
                          help="also run the memory-vs-UDP transport "
                               "matrix (opens loopback sockets)")
    scenario.add_argument("--json", action="store_true",
                          help="emit the full result document as JSON")

    relay = sub.add_parser(
        "relay",
        help="run the multi-tenant secure-link relay hub")
    relay.add_argument("--host", default="127.0.0.1")
    relay.add_argument("--port", type=int, default=0,
                       help="port (0 picks a free one)")
    relay_keys = relay.add_mutually_exclusive_group(required=True)
    relay_keys.add_argument(
        "--fleet-root", metavar="HEX",
        help="32-byte fleet root key as hex; tenant keys derive from it "
             "and default relay policy applies")
    relay_keys.add_argument(
        "--tenant-config", metavar="PATH",
        help="JSON tenant/policy config file: fleet root, tenant allow "
             "list with revocation/expiry, and policy knobs "
             "(see docs/relay.md)")
    relay.add_argument("--max-links", type=int, default=None,
                       help="override the global concurrent-link cap")
    add_metrics_flag(relay)

    stats = sub.add_parser(
        "stats", help="fetch /metrics from a running --metrics-port server")
    stats.add_argument("--host", default="127.0.0.1")
    stats.add_argument("--port", type=int, required=True,
                       help="the server's --metrics-port")
    stats.add_argument("--json", action="store_true",
                       help="fetch the JSON snapshot instead of "
                            "Prometheus text")
    return parser


def _link_codec(args) -> "Codec":
    """Build the Codec shared by the serve/send subcommands."""
    from repro.api import open_codec

    return open_codec(args.key, engine=args.engine, workers=args.workers,
                      rekey_interval=args.rekey_interval,
                      parallel_threshold=args.parallel_threshold)


def _obs_registry(args):
    """A fresh obs registry when ``--metrics-port`` asked for one."""
    if args.metrics_port is None:
        return None
    from repro.obs import core as obs

    return obs.ObsRegistry()


@contextlib.contextmanager
def _obs_installed(registry):
    """Install ``registry`` process-wide for the duration of a command.

    Restoring the previous registry on exit keeps embedded ``main()``
    callers (tests, notebooks) from leaking an enabled registry into
    later code; a no-op when ``registry`` is ``None``.
    """
    if registry is None:
        yield
        return
    from repro.obs import core as obs

    previous = obs.set_registry(registry)
    try:
        yield
    finally:
        obs.set_registry(previous)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Invalid arguments — bad key material, unknown engines, unreadable
    files, malformed packets — exit with status 2 and a one-line
    ``repro-mhhea: error: ...`` message on stderr (argparse handles its
    own usage errors the same way); tracebacks are reserved for actual
    bugs.
    """
    args = build_parser().parse_args(argv)
    try:
        return _run(args, sys.stdout)
    except (ReproError, OSError, ValueError) as exc:
        print(f"repro-mhhea: error: {exc}", file=sys.stderr)
        return 2


def _run(args, out) -> int:
    """Dispatch one parsed subcommand (separated for the error shim)."""
    if args.command == "keygen":
        key = Key.generate(seed=args.seed, n_pairs=args.pairs)
        out.write(key.to_hex() + "\n")
        return 0

    if args.command == "engines":
        for name in registered_engines():
            cls = type(get_engine(name))
            suffix = "  (default)" if name == DEFAULT_ENGINE_NAME else ""
            out.write(f"{name:<12} {cls.__module__}.{cls.__qualname__}"
                      f"{suffix}\n")
        return 0

    if args.command == "encrypt":
        from repro.api import open_codec
        from repro.parallel import DEFAULT_CHUNK_SIZE

        with open(args.input, "rb") as handle:
            payload = handle.read()
        # Always the sharded-blob path, so --workers genuinely never
        # changes the wire bytes: the output is determined by
        # --chunk-size alone (files up to one chunk are a plain single
        # packet, byte-identical to the pre-sharding format).
        chunk_size = (args.chunk_size if args.chunk_size is not None
                      else DEFAULT_CHUNK_SIZE)
        with open_codec(args.key, workers=args.workers,
                        chunk_size=chunk_size, engine=args.engine) as codec:
            packet = codec.seal_blob(payload, args.nonce)
        with open(args.output, "wb") as handle:
            handle.write(packet)
        out.write(f"wrote {len(packet)} bytes ({len(payload)} plaintext)\n")
        return 0

    if args.command == "decrypt":
        from repro.api import open_codec

        with open(args.input, "rb") as handle:
            packet = handle.read()
        # open_blob accepts both a single packet and a sharded
        # multi-packet blob (the --workers encrypt format).
        with open_codec(args.key, workers=args.workers,
                        engine=args.engine) as codec:
            payload = codec.open_blob(packet)
        with open(args.output, "wb") as handle:
            handle.write(payload)
        out.write(f"recovered {len(payload)} bytes\n")
        return 0

    if args.command == "embed":
        from repro.stego.cover import embed_in_cover

        key = Key.from_hex(args.key)
        with open(args.message, "rb") as handle:
            message = handle.read()
        with open(args.cover, "rb") as handle:
            cover = handle.read()
        stego = embed_in_cover(message, cover, key)
        with open(args.output, "wb") as handle:
            handle.write(stego.data)
        out.write(
            f"embedded {stego.n_bits} bits in {stego.n_vectors} vectors; "
            f"extract with --bits {stego.n_bits} --vectors {stego.n_vectors}\n"
        )
        return 0

    if args.command == "extract":
        from repro.stego.cover import StegoObject, extract_from_cover

        key = Key.from_hex(args.key)
        with open(args.input, "rb") as handle:
            data = handle.read()
        stego = StegoObject(data=data, n_bits=args.bits,
                            n_vectors=args.vectors, width=PAPER_PARAMS.width)
        message = extract_from_cover(stego, key)
        with open(args.output, "wb") as handle:
            handle.write(message)
        out.write(f"recovered {len(message)} bytes\n")
        return 0

    if args.command == "wave":
        from repro.hdl.wave import render_wave
        from repro.rtl.cycle_model import MhheaCycleModel
        from repro.util.bits import bytes_to_bits

        key = Key.generate(seed=2005)
        model = MhheaCycleModel(key)
        run = model.run(bytes_to_bits(bytes.fromhex("34124d3c" * 2)),
                        seed=args.seed, record_trace=True)
        out.write(render_wave(run.trace, 0, min(24, len(run.trace) - 1)) + "\n")
        return 0

    if args.command == "report":
        from repro.fpga.flow import run_flow
        from repro.rtl.serial_top import build_serial_top
        from repro.rtl.top import build_mhhea_top
        from repro.rtl.yaea_top import build_yaea_top

        builders = {
            "mhhea": lambda: build_mhhea_top().circuit,
            "serial": lambda: build_serial_top().circuit,
            "yaea": lambda: build_yaea_top().circuit,
        }
        result = run_flow(builders[args.design](), seed=args.place_seed,
                          effort=args.effort)
        out.write(result.render_reports() + "\n")
        return 0

    if args.command == "table1":
        from repro.analysis.table1 import build_table1
        from repro.analysis.throughput import Accounting

        table = build_table1(Accounting(args.accounting), effort=args.effort)
        out.write(table.render() + "\n\n" + table.chart() + "\n")
        return 0

    if args.command == "serve":
        from repro.api import serve

        if args.kex == "ecdh" and args.transport == "udp":
            raise ValueError("--kex ecdh requires --transport tcp "
                             "(the udp transport is datagram-only)")
        kex = "ecdh" if args.kex == "ecdh" else None
        codec = _link_codec(args)

        if args.transport == "udp":
            if args.metrics_port is not None:
                raise ValueError("--metrics-port requires --transport tcp")
            # The datagram transport is thread-driven, not asyncio, and
            # runs cipher work inline (serve() rejects --workers > 0
            # with a one-line error and exit status 2).
            with serve(codec, host=args.host, port=args.port,
                       transport="udp") as server:
                out.write(f"listening on {args.host}:{server.port}/udp\n")
                out.flush()
                try:
                    server.serve_forever()
                except KeyboardInterrupt:
                    pass
                out.write(server.metrics.render() + "\n")
            return 0

        registry = _obs_registry(args)

        async def _serve() -> None:
            async with serve(codec, host=args.host, port=args.port,
                             metrics_port=args.metrics_port,
                             kex=kex) as server:
                out.write(f"listening on {args.host}:{server.port}\n")
                if server.metrics_endpoint is not None:
                    out.write(
                        f"metrics on http://{args.host}:"
                        f"{server.metrics_endpoint.port}/metrics\n"
                    )
                out.flush()
                try:
                    await server.serve_forever()
                except asyncio.CancelledError:
                    pass
                out.write(server.metrics.render() + "\n")
                if registry is not None:
                    out.write(registry.render() + "\n")

        with _obs_installed(registry):
            try:
                asyncio.run(_serve())
            except KeyboardInterrupt:
                pass
        return 0

    if args.command == "send":
        from repro.api import connect

        if args.kex == "ecdh" and args.transport == "udp":
            raise ValueError("--kex ecdh requires --transport tcp "
                             "(the udp transport is datagram-only)")
        if args.ticket_file is not None and args.kex != "ecdh":
            raise ValueError("--ticket-file requires --kex ecdh")
        kex = "ecdh" if args.kex == "ecdh" else None
        ticket = None
        if args.ticket_file is not None and os.path.exists(args.ticket_file):
            from repro.kex import ResumptionTicket

            with open(args.ticket_file, "rb") as handle:
                ticket = ResumptionTicket.from_bytes(handle.read())
        codec = _link_codec(args)
        with open(args.input, "rb") as handle:
            data = handle.read()
        chunk = max(args.chunk, 1)
        payloads = [data[i:i + chunk] for i in range(0, len(data), chunk)] or [b""]

        if args.transport == "udp":
            if args.metrics_port is not None:
                raise ValueError("--metrics-port requires --transport tcp")
            with connect(codec, host=args.host, port=args.port,
                         transport="udp") as client:
                replies = client.send_all(payloads)
                if replies != payloads:
                    out.write("echo mismatch: link corrupted the data\n")
                    return 1
                out.write(
                    f"echoed {len(payloads)} datagrams / {len(data)} bytes "
                    f"byte-exact at {client.metrics.mbps('rx'):.2f} Mbps\n"
                )
                out.write(client.metrics.render("link") + "\n")
                return 0

        registry = _obs_registry(args)

        async def _send() -> int:
            endpoint = None
            if args.metrics_port is not None:
                from repro.obs.http import MetricsEndpoint

                endpoint = MetricsEndpoint(port=args.metrics_port)
                await endpoint.start()
                out.write(
                    f"metrics on http://127.0.0.1:{endpoint.port}/metrics\n"
                )
                out.flush()
            try:
                async with connect(codec, host=args.host, port=args.port,
                                   kex=kex, ticket=ticket) as client:
                    replies = await client.send_all(payloads)
                    if replies != payloads:
                        out.write("echo mismatch: link corrupted the data\n")
                        return 1
                    if kex is not None:
                        out.write(f"kex mode: {client.kex_mode}\n")
                        if (args.ticket_file is not None
                                and client.issued_ticket is not None):
                            with open(args.ticket_file, "wb") as handle:
                                handle.write(client.issued_ticket.to_bytes())
                            out.write("saved resumption ticket to "
                                      f"{args.ticket_file}\n")
                    out.write(
                        f"echoed {len(payloads)} packets / {len(data)} bytes "
                        f"byte-exact at {client.metrics.mbps('rx'):.2f} Mbps\n"
                    )
                    out.write(client.metrics.render("link") + "\n")
                    if registry is not None:
                        out.write(registry.render() + "\n")
                    return 0
            finally:
                if endpoint is not None:
                    await endpoint.close()

        with _obs_installed(registry):
            return asyncio.run(_send())

    if args.command == "scenario":
        import json

        from repro.scenario import (
            run_kex_attacks,
            run_relay_floods,
            run_scenario,
            run_stream_control,
            standard_matrix,
        )

        scenarios = standard_matrix()
        if args.list:
            for entry in scenarios:
                out.write(f"{entry.name}\n")
            return 0
        if args.only is not None:
            scenarios = [entry for entry in scenarios
                         if entry.name == args.only]
            if not scenarios:
                raise ValueError(
                    f"unknown scenario {args.only!r} "
                    f"(repro-mhhea scenario --list)"
                )
        results = [run_scenario(entry) for entry in scenarios]
        document = {"scenarios": [result.to_dict() for result in results]}
        ok = all(result.ok for result in results)
        if args.only is None:
            control = run_stream_control()
            document["stream_control"] = control
            ok = ok and control["ok"]
            attacks = run_kex_attacks()
            document["kex_attacks"] = attacks
            ok = ok and attacks["ok"]
            floods = run_relay_floods()
            document["relay_floods"] = floods
            ok = ok and floods["ok"]
        if args.transports:
            from repro.scenario.tcp import run_tcp_matrix
            from repro.scenario.udp import run_transport_matrix

            matrix = run_transport_matrix()
            document["transport_matrix"] = matrix
            ok = ok and matrix["ok"]
            tcp_matrix = run_tcp_matrix()
            document["tcp_matrix"] = tcp_matrix
            ok = ok and tcp_matrix["ok"]
        if args.json:
            out.write(json.dumps(document, indent=2) + "\n")
        else:
            for result in results:
                totals = result.directions
                delivered = sum(t["delivered"] for t in totals.values())
                sent = sum(t["sent"] for t in totals.values())
                status = "ok" if result.ok else "FAIL"
                out.write(f"{result.name:<16} {status:<4} "
                          f"{delivered}/{sent} delivered\n")
                for problem in result.problems:
                    out.write(f"  problem: {problem}\n")
            for name in ("stream_control", "kex_attacks", "relay_floods",
                         "transport_matrix", "tcp_matrix"):
                section = document.get(name)
                if section is not None:
                    status = "ok" if section["ok"] else "FAIL"
                    out.write(f"{name:<16} {status}\n")
                    for problem in section["problems"]:
                        out.write(f"  problem: {problem}\n")
        return 0 if ok else 1

    if args.command == "relay":
        import dataclasses
        import json

        from repro.kex.keyring import TenantKeyring
        from repro.relay import RelayConfig, RelayServer, load_tenant_config

        if args.tenant_config is not None:
            keyring, config = load_tenant_config(args.tenant_config)
        else:
            try:
                root = bytes.fromhex(args.fleet_root)
            except ValueError:
                raise ValueError("--fleet-root is not valid hex") from None
            keyring = TenantKeyring(root)
            config = RelayConfig()
        if args.max_links is not None:
            config = dataclasses.replace(config, max_links=args.max_links)
        registry = _obs_registry(args)

        async def _relay() -> None:
            async with RelayServer(keyring, host=args.host, port=args.port,
                                   config=config,
                                   metrics_port=args.metrics_port) as server:
                out.write(f"relay listening on {args.host}:{server.port}\n")
                if server.metrics_endpoint is not None:
                    out.write(
                        f"metrics on http://{args.host}:"
                        f"{server.metrics_endpoint.port}/metrics\n"
                    )
                out.flush()
                try:
                    await server.serve_forever()
                except asyncio.CancelledError:
                    pass
                out.write(json.dumps(server.core.stats(), indent=2,
                                     default=str) + "\n")
                if registry is not None:
                    out.write(registry.render() + "\n")

        with _obs_installed(registry):
            try:
                asyncio.run(_relay())
            except KeyboardInterrupt:
                pass
        return 0

    if args.command == "stats":
        from repro.obs.http import http_get

        path = "/metrics.json" if args.json else "/metrics"
        status, body = http_get(args.host, args.port, path=path)
        if status != 200:
            raise ValueError(
                f"GET http://{args.host}:{args.port}{path} "
                f"returned HTTP {status}"
            )
        out.write(body if body.endswith("\n") else body + "\n")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
