"""The engine registry: resolution, validation, plugins, error shape."""

import pytest

from repro.core import engines, hhea, mhhea
from repro.core.errors import (
    ReproError,
    SessionError,
    UnknownEngineError,
)
from repro.core.hhea import HheaCipher
from repro.core.key import Key
from repro.core.mhhea import MhheaCipher
from repro.core.stream import decrypt_packet, encrypt_packet
from repro.util.bits import bits_to_bytes, bytes_to_bits


@pytest.fixture
def clean_registry():
    """Snapshot/restore the registry around plugin tests."""
    factories = dict(engines._FACTORIES)
    instances = dict(engines._INSTANCES)
    yield
    engines._FACTORIES.clear()
    engines._FACTORIES.update(factories)
    engines._INSTANCES.clear()
    engines._INSTANCES.update(instances)


class TestResolution:
    def test_builtins_registered(self):
        assert engines.registered_engines() == ("reference", "fast")

    def test_get_engine_by_name(self):
        assert isinstance(engines.get_engine("fast"), engines.FastEngine)
        assert isinstance(engines.get_engine("reference"),
                          engines.ReferenceEngine)

    def test_none_resolves_to_default(self):
        default = engines.get_engine(None)
        assert default.name == engines.DEFAULT_ENGINE_NAME

    def test_every_default_is_the_registry_default(self, key16):
        # One decision: every layer that runs an engine when the caller
        # names none runs DEFAULT_ENGINE_NAME.
        from repro.api import Codec
        from repro.cli import build_parser
        from repro.net.session import SessionConfig
        from repro.parallel import ParallelCodec
        from repro.relay import RelayConfig

        parser = build_parser()
        argvs = (["serve", "--key", "-"],
                 ["send", "--key", "-", "--port", "0", "-"],
                 ["encrypt", "--key", "-", "in", "out"],
                 ["decrypt", "--key", "-", "in", "out"])
        defaults = {
            "Codec": Codec(key16).engine_name,
            "SessionConfig": SessionConfig().engine,
            "RelayConfig": RelayConfig().engine,
            "ParallelCodec": ParallelCodec(key16).engine,
            **{f"cli {argv[0]}": parser.parse_args(argv).engine
               for argv in argvs},
        }
        assert defaults == dict.fromkeys(defaults,
                                         engines.DEFAULT_ENGINE_NAME)

    def test_only_the_registry_names_a_default_engine(self):
        # Outside repro.core.engines no module binds a *DEFAULT_ENGINE*
        # constant, an ``engine`` parameter or field to a literal name,
        # or an ``--engine`` option to a literal default.
        import ast
        import pathlib

        root = pathlib.Path(engines.__file__).parents[1]
        found = []
        for path in sorted(root.rglob("*.py")):
            if path == pathlib.Path(engines.__file__):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                bound = []
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    bound = [(t.id, node.value) for t in targets
                             if isinstance(t, ast.Name)]
                    bound = [(name, value) for name, value in bound
                             if "DEFAULT_ENGINE" in name or name == "engine"]
                elif isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    args = node.args
                    positional = args.posonlyargs + args.args
                    bound = [(arg.arg, value) for arg, value in [
                        *zip(positional[len(positional)
                                        - len(args.defaults):],
                             args.defaults),
                        *zip(args.kwonlyargs, args.kw_defaults),
                    ] if arg.arg == "engine"]
                elif isinstance(node, ast.Call) and any(
                        isinstance(a, ast.Constant) and a.value == "--engine"
                        for a in node.args):
                    bound = [("--engine", kw.value) for kw in node.keywords
                             if kw.arg == "default"]
                found += [f"{path.relative_to(root)}:{value.lineno} {name}"
                          for name, value in bound
                          if isinstance(value, ast.Constant)
                          and isinstance(value.value, str)]
        assert found == []

    def test_instances_are_cached(self):
        assert engines.get_engine("fast") is engines.get_engine("fast")

    def test_engine_instance_passes_through(self):
        backend = engines.get_engine("fast")
        assert engines.get_engine(backend) is backend

    def test_engine_name_normalisation(self):
        assert engines.engine_name(None) == engines.DEFAULT_ENGINE_NAME
        assert engines.engine_name("fast") == "fast"
        assert engines.engine_name(engines.get_engine("fast")) == "fast"
        with pytest.raises(UnknownEngineError):
            engines.engine_name("turbo")


class TestValidation:
    def test_unknown_name_lists_registered_engines(self):
        with pytest.raises(UnknownEngineError, match="reference.*fast"):
            engines.check_engine_name("turbo")

    def test_error_is_valueerror_and_sessionerror_and_reproerror(self):
        # Compatibility contract: pre-registry handlers caught ValueError
        # at the core layer and SessionError at the link layer.
        exc = UnknownEngineError("x")
        assert isinstance(exc, ValueError)
        assert isinstance(exc, SessionError)
        assert isinstance(exc, ReproError)

    def test_check_engine_name_returns_name(self):
        assert engines.check_engine_name("fast") == "fast"


class TestRegistration:
    def test_duplicate_name_rejected(self, clean_registry):
        with pytest.raises(ValueError, match="already registered"):
            engines.register_engine("fast", engines.FastEngine)

    def test_replace_flag_shadows(self, clean_registry):
        class Shadow(engines.FastEngine):
            name = "fast"

        engines.register_engine("fast", Shadow, replace=True)
        assert isinstance(engines.get_engine("fast"), Shadow)

    def test_bad_name_rejected(self, clean_registry):
        with pytest.raises(ValueError, match="name"):
            engines.register_engine("", engines.FastEngine)

    def test_plugin_round_trips_and_matches_builtins(self, clean_registry,
                                                     key16):
        calls = []

        class Instrumented(engines.FastEngine):
            name = "instrumented"

            def embed_bytes(self, key, algorithm, params, data, source):
                calls.append(("embed", algorithm, len(data)))
                return super().embed_bytes(key, algorithm, params, data,
                                           source)

        engines.register_engine("instrumented", Instrumented)
        payload = b"plugin payload " * 11
        packet = encrypt_packet(payload, key16, nonce=0x5EED,
                                engine=engines.get_engine("instrumented"))
        assert calls == [("embed", "mhhea", len(payload))]
        # Wire-identical to both built-ins, decryptable by either.
        for name in ("reference", "fast"):
            backend = engines.get_engine(name)
            assert encrypt_packet(payload, key16, nonce=0x5EED,
                                  engine=backend) == packet
            assert decrypt_packet(packet, key16, engine=backend) == payload


GOLDEN = {"mhhea": mhhea, "hhea": hhea}


class TwoHookEngine(engines.Engine):
    """A plugin written against the two-hook contract alone: the golden
    model's bit functions behind ``embed_bytes``/``extract_bytes``."""

    name = "two-hook"

    def __init__(self):
        self.calls = []

    def embed_bytes(self, key, algorithm, params, data, source):
        self.calls.append("embed")
        return GOLDEN[algorithm].encrypt_bits(bytes_to_bits(data), key,
                                              source, params)

    def extract_bytes(self, key, algorithm, params, vectors, n_bits):
        self.calls.append("extract")
        return bits_to_bytes(GOLDEN[algorithm].decrypt_bits(
            vectors, key, n_bits, params))


@pytest.fixture
def two_hook(clean_registry):
    engines.register_engine(TwoHookEngine.name, TwoHookEngine)
    return engines.get_engine(TwoHookEngine.name)


class TestTwoHookPlugin:
    """Every byte path runs, by name, a plugin that has only the two
    byte hooks, and its output is the built-ins' byte for byte."""

    def test_packets(self, two_hook, key16):
        payload = b"two hooks " * 9
        packet = encrypt_packet(payload, key16, nonce=0x5EED,
                                engine="two-hook")
        assert packet == encrypt_packet(payload, key16, nonce=0x5EED,
                                        engine="fast")
        assert decrypt_packet(packet, key16, engine="two-hook") == payload
        assert two_hook.calls == ["embed", "extract"]

    def test_codec(self, two_hook, key16):
        from repro.api import Codec

        payloads = [b"", b"x", b"codec batch " * 5]
        nonces = [1, 2, 3]
        big = bytes(range(256)) * 6  # three 512-byte chunks
        with Codec(key16, engine="two-hook", chunk_size=512) as codec, \
                Codec(key16, engine="fast", chunk_size=512) as fast:
            packets = codec.encrypt_packets(payloads, nonces)
            assert packets == fast.encrypt_packets(payloads, nonces)
            assert codec.decrypt_packets(packets) == payloads
            blob = codec.seal_blob(big)
            assert blob == fast.seal_blob(big)
            assert codec.open_blob(blob) == big
        assert sorted(two_hook.calls) == ["embed"] * 6 + ["extract"] * 6

    @pytest.mark.parametrize("algorithm", engines.ALGORITHM_NAMES)
    def test_cipher_class(self, two_hook, key16, algorithm):
        cipher_class = {"mhhea": MhheaCipher, "hhea": HheaCipher}[algorithm]
        box = cipher_class(key16, engine="two-hook")
        assert box.backend is two_hook
        message = box.encrypt(b"cipher object", seed=0x1234)
        assert message == cipher_class(key16, engine="fast").encrypt(
            b"cipher object", seed=0x1234)
        assert box.decrypt(message) == b"cipher object"
        assert two_hook.calls == ["embed", "extract"]

    def test_link(self, two_hook, key16):
        from repro.link import LinkPair, PayloadReceived
        from repro.net.session import SessionConfig

        pair = LinkPair(key16, config=SessionConfig(engine="two-hook"),
                        session_id=b"PLUGSID1")
        pair.handshake()
        two_hook.calls.clear()
        for payload in (b"one", b"two"):
            pair.initiator.send_payload(payload)
        _, events = pair.pump()
        assert [event.payload for event in events
                if isinstance(event, PayloadReceived)] == [b"one", b"two"]
        assert sorted(two_hook.calls) == ["embed"] * 2 + ["extract"] * 2


class TestEngineEquivalence:
    """The registry objects compute the same function (spot check)."""

    @pytest.mark.parametrize("algorithm", engines.ALGORITHM_NAMES)
    def test_byte_level_round_trip_across_engines(self, algorithm, key4):
        from repro.util.lfsr import Lfsr

        data = bytes(range(0, 250, 7))
        params = key4.params
        out = {}
        for name in engines.registered_engines():
            backend = engines.get_engine(name)
            vectors = backend.embed_bytes(key4, algorithm, params, data,
                                          Lfsr(16, seed=0xACE1))
            out[name] = vectors
            assert backend.extract_bytes(key4, algorithm, params, vectors,
                                         8 * len(data)) == data
        assert out["reference"] == out["fast"]

    def test_interface_is_the_two_byte_hooks(self):
        hooks = {name for name, value in vars(engines.Engine).items()
                 if callable(value) and not name.startswith("_")}
        assert hooks == {"embed_bytes", "extract_bytes"}

    def test_algorithm_name_validated(self, key4):
        backend = engines.get_engine("fast")
        with pytest.raises(ValueError, match="algorithm"):
            backend.embed_bytes(key4, "rot13", key4.params, b"x", None)


class TestKeyErrorRename:
    def test_new_name_catches_key_failures(self):
        from repro.core.errors import ReproKeyError

        with pytest.raises(ReproKeyError):
            Key.from_hex("zz:zz")

    def test_only_the_new_name_exists(self):
        from repro.core import errors

        assert "ReproKeyError" in errors.__all__
        assert "KeyError_" not in errors.__all__
        assert not hasattr(errors, "KeyError_")


class TestCipherClassResolution:
    def test_cipher_exposes_resolved_backend(self, key16):
        from repro.core.mhhea import MhheaCipher

        cipher = MhheaCipher(key16, engine="fast")
        assert cipher.engine == "fast"
        assert cipher.backend is engines.get_engine("fast")

    def test_cipher_accepts_engine_instance(self, key16):
        from repro.core.mhhea import MhheaCipher

        backend = engines.get_engine("reference")
        cipher = MhheaCipher(key16, engine=backend)
        assert cipher.backend is backend
        ct = cipher.encrypt(b"object selector")
        assert cipher.decrypt(ct) == b"object selector"
