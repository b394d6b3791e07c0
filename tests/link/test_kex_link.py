"""Hello-v2 on the link layer: interop matrix, tickets, and wire pinning.

The downgrade-resistance contract under test: what a link accepts is
fixed by *local* configuration, never by what arrives on the wire.  A
kex-less end speaks hello-v1 byte-for-byte as it always has; a kex end
only falls back to the pre-shared path when its own policy lists
``psk``; every mismatched pairing aborts instead of degrading.
"""

import pytest

from repro.core.errors import HandshakeError, SessionError
from repro.core.key import Key
from repro.kex import KexConfig, TicketVault, kex_auth_secret
from repro.link import LinkPair
from repro.link.protocol import OPEN
from repro.net.session import SessionConfig

ENGINES = ("reference", "fast")


def client_kex(root, *, modes=("ecdh", "resume"), ticket=None):
    return KexConfig(auth_secret=kex_auth_secret(root), modes=modes,
                     params=root.params, n_pairs=len(root), ticket=ticket)


def server_kex(root, *, modes=("ecdh", "resume", "psk"), vault=None):
    return KexConfig(auth_secret=kex_auth_secret(root), modes=modes,
                     params=root.params, n_pairs=len(root),
                     tickets=vault if vault is not None
                     else TicketVault(b"link test vault"))


#: Both ends run the per-bit golden model unless the initiator's config
#: says otherwise, so a fast initiator is checked against the reference.
REFERENCE = SessionConfig(engine="reference")


def make_pair(root, *, kex, responder_kex, config=REFERENCE, **kwargs):
    return LinkPair(root, config, session_id=b"KEXLINK1",
                    responder_root=root, responder_config=REFERENCE,
                    kex=kex, responder_kex=responder_kex, **kwargs)


def roundtrip(pair):
    pair.handshake()
    pair.initiator.send_payload(b"interop probe")
    _, events = pair.pump()
    payloads = [e.payload for e in events
                if type(e).__name__ == "PayloadReceived"]
    assert payloads == [b"interop probe"]


# -- the interop matrix, on both cipher engines ---------------------------

@pytest.mark.parametrize("engine", ENGINES)
class TestInteropMatrix:
    def config(self, engine):
        return SessionConfig(engine=engine)

    def test_psk_client_psk_server(self, key4, engine):
        pair = make_pair(key4, kex=None, responder_kex=None,
                         config=self.config(engine))
        roundtrip(pair)
        assert pair.initiator.kex_mode == "psk"
        assert pair.responder.kex_mode == "psk"

    def test_psk_client_dual_server_falls_back_by_local_policy(
            self, key4, engine):
        pair = make_pair(key4, kex=None, responder_kex=server_kex(key4),
                         config=self.config(engine))
        roundtrip(pair)
        assert pair.responder.kex_mode == "psk"

    def test_ecdh_client_dual_server(self, key4, engine):
        pair = make_pair(key4, kex=client_kex(key4),
                         responder_kex=server_kex(key4),
                         config=self.config(engine))
        roundtrip(pair)
        assert pair.initiator.kex_mode == "ecdh"
        assert pair.responder.kex_mode == "ecdh"
        assert pair.initiator.fingerprint == pair.responder.fingerprint

    def test_psk_client_ecdh_only_server_aborts(self, key4, engine):
        pair = make_pair(key4, kex=None,
                         responder_kex=server_kex(key4, modes=("ecdh",)),
                         config=self.config(engine))
        with pytest.raises((HandshakeError, SessionError)):
            pair.handshake()
        assert pair.responder.state != OPEN

    def test_ecdh_client_psk_only_server_aborts(self, key4, engine):
        pair = make_pair(key4, kex=client_kex(key4), responder_kex=None,
                         config=self.config(engine))
        with pytest.raises((HandshakeError, SessionError)):
            pair.handshake()
        assert pair.initiator.state != OPEN

    def test_resume_roundtrip(self, key4, engine):
        vault = TicketVault(b"link test vault")
        first = make_pair(key4, kex=client_kex(key4),
                          responder_kex=server_kex(key4, vault=vault),
                          config=self.config(engine))
        roundtrip(first)
        ticket = first.initiator.issued_ticket
        assert ticket is not None
        resumed = make_pair(
            key4, kex=client_kex(key4, ticket=ticket),
            responder_kex=server_kex(key4, vault=vault),
            config=self.config(engine))
        roundtrip(resumed)
        assert resumed.initiator.kex_mode == "resume"
        assert resumed.responder.kex_mode == "resume"
        assert resumed.initiator.fingerprint != first.initiator.fingerprint


# -- kex sessions derive fresh roots -------------------------------------

def test_ecdh_sessions_never_reuse_the_preshared_root(key4):
    pair = make_pair(key4, kex=client_kex(key4),
                     responder_kex=server_kex(key4))
    roundtrip(pair)
    psk_pair = make_pair(key4, kex=None, responder_kex=None)
    psk_pair.handshake()
    assert pair.initiator.fingerprint != psk_pair.initiator.fingerprint


def test_two_ecdh_handshakes_derive_distinct_roots(key4):
    fingerprints = []
    for _ in range(2):
        pair = make_pair(key4, kex=client_kex(key4),
                         responder_kex=server_kex(key4))
        pair.handshake()
        fingerprints.append(pair.initiator.fingerprint)
    assert fingerprints[0] != fingerprints[1]


# -- pre-shared wire pinning ---------------------------------------------

def capture_handshake(root, **pair_kwargs):
    i2r, r2i = [], []
    pair = LinkPair(root, SessionConfig(), session_id=b"WIREPIN1",
                    i2r_filter=lambda b: (i2r.append(b), b)[1],
                    r2i_filter=lambda b: (r2i.append(b), b)[1],
                    **pair_kwargs)
    pair.handshake()
    return b"".join(i2r), b"".join(r2i)


def test_preshared_wire_is_unchanged_by_the_kex_subsystem(key16):
    """kex=None emits the classic hello-v1 exchange and nothing else:
    no MKX2 frame ever appears, and the bytes are reproducible."""
    i2r, r2i = capture_handshake(key16)
    assert b"MKX2" not in i2r and b"MKX2" not in r2i
    assert i2r.startswith(b"MHLO") and r2i.startswith(b"MHLO")
    again = capture_handshake(Key.generate(seed=2005, n_pairs=16))
    assert (i2r, r2i) == again


def test_kex_handshake_leads_with_hello_v2(key16):
    i2r, r2i = capture_handshake(
        key16, responder_root=key16, kex=client_kex(key16),
        responder_kex=server_kex(key16))
    assert i2r.startswith(b"MKX2") and r2i.startswith(b"MKX2")
    # The classic hello still follows, under the derived root.
    assert b"MHLO" in i2r and b"MHLO" in r2i
