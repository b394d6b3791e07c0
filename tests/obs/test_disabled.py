"""Disabled-mode no-ops and the byte-identical-wire differential gate."""

from repro.api import open_codec
from repro.link import LinkProtocol
from repro.obs import core as obs
from repro.obs.core import NULL_INSTRUMENT, NullRegistry

SID = b"diffsid\x00"


class TestNullRegistry:
    def test_every_accessor_returns_the_shared_singleton(self):
        registry = NullRegistry()
        assert registry.counter("repro_x_total", op="a") is NULL_INSTRUMENT
        assert registry.gauge("repro_y") is NULL_INSTRUMENT
        assert registry.histogram("repro_z_seconds") is NULL_INSTRUMENT
        assert registry.enabled is False

    def test_null_instrument_absorbs_every_method(self):
        NULL_INSTRUMENT.inc()
        NULL_INSTRUMENT.inc(100)
        NULL_INSTRUMENT.dec()
        NULL_INSTRUMENT.set(5)
        NULL_INSTRUMENT.observe(1.0)
        assert NULL_INSTRUMENT.value == 0
        assert NULL_INSTRUMENT.count == 0
        assert NULL_INSTRUMENT.quantile(0.99) == 0.0

    def test_null_snapshot_and_renders(self):
        registry = NullRegistry()
        assert registry.snapshot()["enabled"] is False
        assert registry.render() == "obs: disabled"
        registry.reset()  # no-op, must not raise

    def test_disabled_workload_records_nothing(self, key16):
        previous = obs.set_registry(None)
        try:
            with open_codec(key16) as codec:
                codec.decrypt(codec.encrypt(b"silent", nonce=7))
            assert obs.get_registry().snapshot()["counters"] == {}
        finally:
            obs.set_registry(previous if previous.enabled else None)


def _link_wire(key) -> bytes:
    """Every byte both ends of a fixed link conversation put on the wire."""
    initiator = LinkProtocol(key, "initiator", session_id=SID)
    responder = LinkProtocol(key, "responder")
    wire = []

    def pump(sender, receiver):
        chunk = sender.data_to_send()
        wire.append(chunk)
        receiver.receive_data(chunk)

    pump(initiator, responder)  # hello
    pump(responder, initiator)  # hello reply
    for i in range(5):
        initiator.send_payload(bytes([i]) * 100)
        pump(initiator, responder)
        responder.send_payload(b"reply" + bytes([i]))
        pump(responder, initiator)
    return b"".join(wire)


def _codec_wire(key) -> bytes:
    with open_codec(key) as codec:
        packet = codec.encrypt(b"differential payload", nonce=0xACE1)
        blob = codec.seal_blob(bytes(range(256)) * 16, 0xBEEF)
    return packet + blob


class TestWireByteIdentity:
    """Observability must never touch the data path.

    The same deterministic workload runs once under the null registry
    and once fully instrumented; any wire-byte difference fails the
    build.
    """

    def test_link_conversation_is_byte_identical(self, key16):
        previous = obs.set_registry(None)
        try:
            disabled = _link_wire(key16)
            obs.set_registry(obs.ObsRegistry())
            enabled = _link_wire(key16)
            # The instrumented run really recorded link traffic...
            snap = obs.get_registry().snapshot()
            assert snap["counters"]["repro_link_frames_total{direction=rx}"] > 0
        finally:
            obs.set_registry(previous if previous.enabled else None)
        # ...without perturbing a single wire byte.
        assert disabled == enabled

    def test_codec_output_is_byte_identical(self, key16):
        previous = obs.set_registry(None)
        try:
            disabled = _codec_wire(key16)
            obs.set_registry(obs.ObsRegistry())
            enabled = _codec_wire(key16)
            snap = obs.get_registry().snapshot()
            assert snap["counters"]["repro_codec_ops_total{op=encrypt}"] == 1
        finally:
            obs.set_registry(previous if previous.enabled else None)
        assert disabled == enabled
