"""Structured JSON-lines logging: round-trip, hierarchy, default silence."""

import asyncio
import io
import json
import logging

from repro.core.key import Key
from repro.link.memory import LinkPair
from repro.link.protocol import LinkProtocol
from repro.net import SecureLinkClient, SecureLinkServer
from repro.net.metrics import SessionMetrics
from repro.obs import core as obs
from repro.obs.logs import (
    ROOT_LOGGER,
    configure_logging,
    log_event,
    reset_logging,
)


def test_default_tree_is_silent():
    # Library rule: a NullHandler on "repro", no propagation surprises.
    logger = logging.getLogger(ROOT_LOGGER)
    assert any(isinstance(h, logging.NullHandler) for h in logger.handlers)


def test_json_lines_round_trip():
    stream = io.StringIO()
    configure_logging(stream)
    try:
        log_event("repro.link", "link.drop", level=logging.WARNING,
                  reason="replay", seq=17)
        log_event("repro.net.server", "server.accept", peer="peer-0")
    finally:
        reset_logging()
    lines = stream.getvalue().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["level"] == "WARNING"
    assert first["logger"] == "repro.link"
    assert first["event"] == "link.drop"
    assert first["reason"] == "replay"
    assert first["seq"] == 17
    assert isinstance(first["ts"], float)
    second = json.loads(lines[1])
    assert second["event"] == "server.accept"
    assert second["peer"] == "peer-0"


def test_field_keys_are_sorted_after_the_header():
    stream = io.StringIO()
    configure_logging(stream)
    try:
        log_event("repro.test", "evt", zebra=1, alpha=2)
    finally:
        reset_logging()
    keys = list(json.loads(stream.getvalue()).keys())
    assert keys == ["ts", "level", "logger", "event", "alpha", "zebra"]


def test_level_gate_drops_cheaply():
    stream = io.StringIO()
    configure_logging(stream, level=logging.WARNING)
    try:
        log_event("repro.trace", "span.end", level=logging.DEBUG, span="x")
        log_event("repro.trace", "span.fail", level=logging.WARNING, span="x")
    finally:
        reset_logging()
    lines = stream.getvalue().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["event"] == "span.fail"


def test_non_json_values_fall_back_to_str():
    stream = io.StringIO()
    configure_logging(stream)
    try:
        log_event("repro.test", "evt", payload=b"\x00\x01")
    finally:
        reset_logging()
    record = json.loads(stream.getvalue())
    assert record["payload"] == str(b"\x00\x01")


def test_reset_logging_detaches_everything():
    stream = io.StringIO()
    configure_logging(stream)
    reset_logging()
    log_event("repro.test", "evt.after.reset")
    assert stream.getvalue() == ""
    logger = logging.getLogger(ROOT_LOGGER)
    assert all(isinstance(h, logging.NullHandler) for h in logger.handlers)


#: Every drop and failure event, none of which needs a live registry.
DROP_AND_FAILURE_EVENTS = {
    "session.replay", "session.crc_failure", "session.gap",
    "link.datagram_drop", "link.after_close_drop", "link.fail",
    "server.connection_error",
}


def _drop_and_fail_once(key16) -> None:
    """Provoke each of :data:`DROP_AND_FAILURE_EVENTS` once."""
    metrics = SessionMetrics()
    metrics.record_replay(seq=3)
    metrics.record_crc_failure()
    metrics.record_rx(10, 15, gap=2)
    LinkProtocol(key16, "responder", datagram=True).receive_datagram(b"junk")
    LinkProtocol(key16, "responder").receive_data(bytes(64))
    pair = LinkPair(key16, session_id=b"logsid01")
    pair.handshake()
    pair.responder.receive_eof()
    pair.responder.receive_data(b"late")

    async def wrong_key_client():
        async with SecureLinkServer(key16, port=0) as server:
            client = SecureLinkClient(Key.generate(seed=99, n_pairs=16),
                                      port=server.port)
            try:
                await client.connect()
            except Exception:
                pass
            for _ in range(100):
                if server.errors:
                    break
                await asyncio.sleep(0.01)

    asyncio.run(wrong_key_client())


def test_drop_and_failure_events_log_with_obs_off(key16, capfd):
    obs.set_registry(None)
    stream = io.StringIO()
    configure_logging(stream)
    try:
        _drop_and_fail_once(key16)
    finally:
        reset_logging()
    events = {json.loads(line)["event"]
              for line in stream.getvalue().splitlines()}
    assert DROP_AND_FAILURE_EVENTS <= events
    # Without a handler the same calls write nothing anywhere.
    capfd.readouterr()
    _drop_and_fail_once(key16)
    assert capfd.readouterr() == ("", "")
