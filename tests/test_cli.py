"""Tests for the command-line interface."""

import asyncio
import threading

import pytest

from repro.cli import build_parser, main
from repro.net.session import SessionConfig

#: Link servers run the per-bit golden model, so every CLI client (on
#: its default engine) is checked against the reference engine's bytes.
REFERENCE = SessionConfig(engine="reference")


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestVersionAndEngines:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_engines_subcommand_lists_registry(self, capsys):
        from repro.core.engines import DEFAULT_ENGINE_NAME

        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("reference")
        assert lines[1].startswith("fast")
        tagged = [line.split()[0] for line in lines if "(default)" in line]
        assert tagged == [DEFAULT_ENGINE_NAME]

    def test_engines_subcommand_sees_plugins(self, capsys):
        from repro.core import engines

        class Plugin(engines.FastEngine):
            name = "plugin"

        engines.register_engine("plugin", Plugin)
        try:
            assert main(["engines"]) == 0
            assert "plugin" in capsys.readouterr().out
        finally:
            engines._FACTORIES.pop("plugin", None)
            engines._INSTANCES.pop("plugin", None)


class TestErrorExits:
    """Invalid arguments exit 2 with a one-line message, no traceback."""

    def test_bad_key_hex(self, tmp_path, capsys):
        plain = tmp_path / "p"
        plain.write_bytes(b"x")
        rc = main(["encrypt", "--key", "zz:zz", str(plain),
                   str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-mhhea: error:")
        assert len(err.strip().splitlines()) == 1

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["encrypt", "--key", "03:25",
                   str(tmp_path / "nonexistent"), str(tmp_path / "out")])
        assert rc == 2
        assert "repro-mhhea: error:" in capsys.readouterr().err

    def test_unknown_engine_flag_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["encrypt", "--key", "03:25", "--engine", "turbo",
                  str(tmp_path / "p"), str(tmp_path / "out")])
        assert excinfo.value.code == 2
        # argparse names the registered engines in its one-line error
        assert "reference" in capsys.readouterr().err

    def test_corrupt_packet_exits_2(self, tmp_path, capsys):
        blob = tmp_path / "blob"
        blob.write_bytes(b"not a packet at all")
        rc = main(["decrypt", "--key", "03:25", str(blob),
                   str(tmp_path / "out")])
        assert rc == 2
        assert "repro-mhhea: error:" in capsys.readouterr().err


class TestKeygen:
    def test_prints_hex_key(self, capsys):
        assert main(["keygen", "--seed", "5"]) == 0
        out = capsys.readouterr().out.strip()
        assert len(out.split(":")) == 16

    def test_pairs_option(self, capsys):
        main(["keygen", "--seed", "5", "--pairs", "4"])
        out = capsys.readouterr().out.strip()
        assert len(out.split(":")) == 4


class TestEncryptDecrypt:
    def test_file_roundtrip(self, tmp_path, capsys):
        key = "03:25:71:46"
        plain = tmp_path / "plain.bin"
        packet = tmp_path / "packet.bin"
        out = tmp_path / "out.bin"
        plain.write_bytes(b"file round trip payload")
        assert main(["encrypt", "--key", key, str(plain), str(packet)]) == 0
        assert main(["decrypt", "--key", key, str(packet), str(out)]) == 0
        assert out.read_bytes() == b"file round trip payload"

    def test_nonce_option(self, tmp_path):
        key = "03:25"
        plain = tmp_path / "p"
        plain.write_bytes(b"xyz")
        a, b = tmp_path / "a", tmp_path / "b"
        main(["encrypt", "--key", key, "--nonce", "0x1111", str(plain), str(a)])
        main(["encrypt", "--key", key, "--nonce", "0x2222", str(plain), str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_sharded_roundtrip_with_workers(self, tmp_path, capsys):
        key = "03:25:71:46"
        plain = tmp_path / "plain.bin"
        blob = tmp_path / "blob.bin"
        out = tmp_path / "out.bin"
        plain.write_bytes(bytes(i % 251 for i in range(10_000)))
        assert main(["encrypt", "--key", key, "--workers", "2",
                     "--chunk-size", "4096", str(plain), str(blob)]) == 0
        # Decrypt the sharded blob inline: format is worker-agnostic.
        assert main(["decrypt", "--key", key, str(blob), str(out)]) == 0
        assert out.read_bytes() == plain.read_bytes()

    def test_worker_count_never_changes_wire_bytes(self, tmp_path):
        key = "03:25:71:46"
        plain = tmp_path / "plain.bin"
        plain.write_bytes(bytes(range(256)) * 40)
        outputs = []
        for workers in ("0", "1", "2"):
            path = tmp_path / f"w{workers}"
            main(["encrypt", "--key", key, "--workers", workers,
                  "--chunk-size", "1024", str(plain), str(path)])
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_small_file_stays_single_packet(self, tmp_path):
        """Files up to one chunk keep the pre-sharding wire format."""
        from repro.core.key import Key
        from repro.core.stream import encrypt_packet

        key_hex = "03:25:71:46"
        plain = tmp_path / "plain.bin"
        plain.write_bytes(b"small enough for one chunk")
        out = tmp_path / "out"
        main(["encrypt", "--key", key_hex, str(plain), str(out)])
        assert out.read_bytes() == encrypt_packet(
            plain.read_bytes(), Key.from_hex(key_hex), nonce=0xACE1,
            engine="fast")


class TestStego:
    def test_embed_extract_roundtrip(self, tmp_path, capsys):
        from repro.util.rng import random_bytes

        key = "14:72:36:05"
        message = tmp_path / "msg"
        cover = tmp_path / "cover"
        stego = tmp_path / "stego"
        recovered = tmp_path / "rec"
        message.write_bytes(b"hidden words")
        cover.write_bytes(random_bytes(3, 4096))
        assert main(["embed", "--key", key, str(message), str(cover),
                     str(stego)]) == 0
        note = capsys.readouterr().out
        bits = note.split("--bits ")[1].split()[0]
        vectors = note.split("--vectors ")[1].split()[0]
        assert main(["extract", "--key", key, "--bits", bits,
                     "--vectors", vectors, str(stego), str(recovered)]) == 0
        assert recovered.read_bytes() == b"hidden words"


class TestWave:
    def test_prints_waveform(self, capsys):
        assert main(["wave"]) == 0
        out = capsys.readouterr().out
        assert "cycle" in out
        assert "LMSG" in out


class TestSecureLink:
    def test_send_echoes_through_a_live_server(self, tmp_path, capsys):
        from repro.core.key import Key
        from repro.net import SecureLinkServer

        key_hex = "03:25:71:46"
        loop = asyncio.new_event_loop()
        server = SecureLinkServer(Key.from_hex(key_hex), port=0,
                                  config=REFERENCE)
        loop.run_until_complete(server.start())
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            payload = tmp_path / "payload.bin"
            payload.write_bytes(b"cli secure link payload " * 64)
            rc = main(["send", "--key", key_hex, "--port", str(server.port),
                       "--chunk", "128", str(payload)])
            assert rc == 0
            out = capsys.readouterr().out
            assert "byte-exact" in out
            assert "Mbps" in out
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=5)
            loop.run_until_complete(server.close())
            loop.close()

    def test_send_over_udp_transport(self, tmp_path, capsys):
        from repro.core.key import Key
        from repro.link import UdpLinkServer

        key_hex = "03:25:71:46"
        with UdpLinkServer(Key.from_hex(key_hex), port=0,
                           config=REFERENCE) as server:
            payload = tmp_path / "payload.bin"
            payload.write_bytes(b"datagram payload " * 32)
            rc = main(["send", "--key", key_hex, "--transport", "udp",
                       "--port", str(server.port), "--chunk", "200",
                       str(payload)])
            assert rc == 0
            out = capsys.readouterr().out
            assert "byte-exact" in out
            assert "datagrams" in out

    def test_udp_transport_rejects_workers(self, tmp_path, capsys):
        payload = tmp_path / "payload.bin"
        payload.write_bytes(b"x")
        rc = main(["send", "--key", "03:25:71:46", "--transport", "udp",
                   "--workers", "2", "--port", "1", str(payload)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-mhhea: error:")
        assert len(err.strip().splitlines()) == 1
        assert "inline" in err

    def test_serve_rejects_udp_with_workers(self, capsys):
        rc = main(["serve", "--key", "03:25:71:46", "--transport", "udp",
                   "--workers", "2"])
        assert rc == 2
        assert "repro-mhhea: error:" in capsys.readouterr().err

    def test_unknown_transport_exits_2(self, tmp_path, capsys):
        payload = tmp_path / "payload.bin"
        payload.write_bytes(b"x")
        with pytest.raises(SystemExit) as excinfo:
            main(["send", "--key", "03:25:71:46", "--transport", "quic",
                  "--port", "1", str(payload)])
        assert excinfo.value.code == 2  # argparse names the choices

    def test_send_with_workers_echoes_byte_exact(self, tmp_path, capsys):
        from repro.core.key import Key
        from repro.net import SecureLinkServer

        key_hex = "03:25:71:46"
        loop = asyncio.new_event_loop()
        server = SecureLinkServer(Key.from_hex(key_hex), port=0,
                                  config=REFERENCE)
        loop.run_until_complete(server.start())
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            payload = tmp_path / "payload.bin"
            payload.write_bytes(bytes(i % 256 for i in range(8192)))
            rc = main(["send", "--key", key_hex, "--port", str(server.port),
                       "--chunk", "2048", "--workers", "1",
                       "--parallel-threshold", "1024", str(payload)])
            assert rc == 0
            assert "byte-exact" in capsys.readouterr().out
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=5)
            loop.run_until_complete(server.close())
            loop.close()


class TestObservabilityCli:
    """--metrics-port on serve/send, the stats subcommand, obs summaries."""

    def test_metrics_port_rejected_on_udp_serve(self, capsys):
        rc = main(["serve", "--key", "03:25:71:46", "--transport", "udp",
                   "--metrics-port", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-mhhea: error:")
        assert len(err.strip().splitlines()) == 1
        assert "--transport tcp" in err

    def test_metrics_port_rejected_on_udp_send(self, tmp_path, capsys):
        payload = tmp_path / "payload.bin"
        payload.write_bytes(b"x")
        rc = main(["send", "--key", "03:25:71:46", "--transport", "udp",
                   "--port", "1", "--metrics-port", "0", str(payload)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--transport tcp" in err

    def test_send_with_metrics_port_prints_obs_summary(self, tmp_path,
                                                       capsys):
        from repro.core.key import Key
        from repro.net import SecureLinkServer
        from repro.obs import core as obs

        key_hex = "03:25:71:46"
        loop = asyncio.new_event_loop()
        server = SecureLinkServer(Key.from_hex(key_hex), port=0,
                                  config=REFERENCE)
        loop.run_until_complete(server.start())
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            payload = tmp_path / "payload.bin"
            payload.write_bytes(b"observed payload " * 32)
            assert not obs.get_registry().enabled
            rc = main(["send", "--key", key_hex, "--port", str(server.port),
                       "--chunk", "128", "--metrics-port", "0",
                       str(payload)])
            assert rc == 0
            # The embedded call restored the disabled default afterwards.
            assert not obs.get_registry().enabled
            out = capsys.readouterr().out
            assert "metrics on http://127.0.0.1:" in out
            assert "byte-exact" in out
            assert "obs:" in out
            assert "repro_client_connects_total" in out
            assert "repro_session_packets_total{direction=tx}" in out
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=5)
            loop.run_until_complete(server.close())
            loop.close()

    def test_stats_fetches_metrics_text_and_json(self, capsys):
        from repro.obs import core as obs
        from repro.obs.http import MetricsEndpoint

        registry = obs.ObsRegistry()
        registry.counter("repro_demo_total", op="x").inc(5)
        loop = asyncio.new_event_loop()
        endpoint = MetricsEndpoint(port=0, registry=registry)
        loop.run_until_complete(endpoint.start())
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            rc = main(["stats", "--port", str(endpoint.port)])
            assert rc == 0
            out = capsys.readouterr().out
            assert 'repro_demo_total{op="x"} 5' in out

            rc = main(["stats", "--port", str(endpoint.port), "--json"])
            assert rc == 0
            import json

            snap = json.loads(capsys.readouterr().out)
            assert snap["counters"] == {"repro_demo_total{op=x}": 5}
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=5)
            loop.run_until_complete(endpoint.close())
            loop.close()

    def test_stats_against_dead_port_exits_2(self, capsys):
        import socket

        # Grab a port that is certainly closed by the time stats runs.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        rc = main(["stats", "--port", str(dead_port)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-mhhea: error:")
        assert len(err.strip().splitlines()) == 1

    def test_parser_knows_the_new_surface(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--key", "x", "--metrics-port",
                                  "9109"])
        assert args.metrics_port == 9109
        args = parser.parse_args(["stats", "--port", "9109", "--json"])
        assert args.command == "stats"
        assert args.json is True
        args = parser.parse_args(["serve", "--key", "x"])
        assert args.metrics_port is None
        # The link flags default to the library's link policy.
        from repro.api import Codec
        from repro.cli import _link_codec

        key_hex = "03:25:71:46"
        expected = Codec(key_hex).session_config()
        for argv in (["serve", "--key", key_hex],
                     ["send", "--key", key_hex, "--port", "1", "in.bin"]):
            with _link_codec(parser.parse_args(argv)) as codec:
                assert codec.session_config() == expected


class TestScenario:
    def test_list_names_the_committed_battery(self, capsys):
        assert main(["scenario", "--list"]) == 0
        names = capsys.readouterr().out.split()
        assert "clean-duplex" in names
        assert "hostile-mix" in names
        assert len(names) == len(set(names))

    def test_single_scenario_runs_and_reconciles(self, capsys):
        assert main(["scenario", "--only", "clean-duplex"]) == 0
        out = capsys.readouterr().out
        assert "clean-duplex" in out
        assert "ok" in out
        assert "FAIL" not in out

    def test_json_output_is_parseable(self, capsys):
        import json

        assert main(["scenario", "--only", "lossy", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        (entry,) = document["scenarios"]
        assert entry["name"] == "lossy"
        assert entry["ok"] is True
        assert entry["directions"]["i2r"]["sent"] == 120

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["scenario", "--only", "frobnicate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-mhhea: error:")
        assert "--list" in err


class TestKexCli:
    KEY_HEX = "03:25:71:46"

    def _kex_server(self):
        """A live kex-enabled TCP server on a background loop."""
        from repro.api import Codec, _resolve_kex
        from repro.core.key import Key
        from repro.net import SecureLinkServer

        codec = Codec(Key.from_hex(self.KEY_HEX))
        server = SecureLinkServer(codec.key, port=0, config=REFERENCE,
                                  kex=_resolve_kex(codec, "serve", "ecdh"))
        loop = asyncio.new_event_loop()
        loop.run_until_complete(server.start())
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        return server, loop, thread

    def test_send_negotiates_ecdh_then_resumes_from_ticket_file(
            self, tmp_path, capsys):
        server, loop, thread = self._kex_server()
        try:
            payload = tmp_path / "payload.bin"
            payload.write_bytes(b"kex cli payload " * 32)
            ticket_file = tmp_path / "session.ticket"
            base = ["send", "--key", self.KEY_HEX,
                    "--port", str(server.port), "--kex", "ecdh",
                    "--ticket-file", str(ticket_file), str(payload)]
            assert main(list(base)) == 0
            first = capsys.readouterr().out
            assert "kex mode: ecdh" in first
            assert f"saved resumption ticket to {ticket_file}" in first
            assert ticket_file.exists()
            assert main(list(base)) == 0
            second = capsys.readouterr().out
            assert "kex mode: resume" in second
            assert "byte-exact" in second
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=5)
            loop.run_until_complete(server.close())
            loop.close()

    def test_send_rejects_kex_over_udp(self, tmp_path, capsys):
        payload = tmp_path / "payload.bin"
        payload.write_bytes(b"x")
        rc = main(["send", "--key", self.KEY_HEX, "--transport", "udp",
                   "--kex", "ecdh", "--port", "1", str(payload)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-mhhea: error:")
        assert len(err.strip().splitlines()) == 1
        assert "udp" in err

    def test_serve_rejects_kex_over_udp(self, capsys):
        rc = main(["serve", "--key", self.KEY_HEX, "--transport", "udp",
                   "--kex", "ecdh"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-mhhea: error:")
        assert "--transport tcp" in err

    def test_ticket_file_requires_kex(self, tmp_path, capsys):
        payload = tmp_path / "payload.bin"
        payload.write_bytes(b"x")
        rc = main(["send", "--key", self.KEY_HEX, "--port", "1",
                   "--ticket-file", str(tmp_path / "t"), str(payload)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-mhhea: error:")
        assert "--kex ecdh" in err

    def test_scenario_json_carries_the_kex_attack_battery(self, capsys):
        import json

        # The battery rides the full default run (--only skips it).
        assert main(["scenario", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        battery = document["kex_attacks"]
        assert battery["ok"], battery["problems"]
        assert len(battery["checks"]) >= 10
        names = [entry["name"] for entry in document["scenarios"]]
        assert "attacker-forge" in names
