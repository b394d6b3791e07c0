"""Cross-subsystem integration tests: the full communication scenarios
the paper motivates (packet links, hardware/software interop, stego)."""

from repro.core.key import Key
from repro.core.mhhea import EncryptedMessage, MhheaCipher
from repro.core.stream import decrypt_packet, encrypt_packet, split_packets
from repro.rtl.testbench import MhheaHardwareDriver
from repro.rtl.top import build_mhhea_top
from repro.stego.shuffler import Shuffler
from repro.util.bits import bits_to_bytes, bytes_to_bits


class TestPacketLink:
    def test_many_packets_over_one_wire(self, key16):
        payloads = [f"packet {i}".encode() for i in range(10)]
        wire = b"".join(
            encrypt_packet(p, key16, nonce=100 + i)
            for i, p in enumerate(payloads)
        )
        received = [decrypt_packet(p, key16) for p in split_packets(wire)]
        assert received == payloads

    def test_two_parties_share_only_key_and_format(self):
        sender_key = Key.from_hex("03:25:71:46:10:52:33:07")
        receiver_key = Key.from_hex("03:25:71:46:10:52:33:07")
        packet = encrypt_packet(b"no other shared state", sender_key,
                                nonce=0xABCD)
        assert decrypt_packet(packet, receiver_key) == b"no other shared state"


class TestHardwareSoftwareInterop:
    def test_software_decrypts_hardware_ciphertext(self, key16):
        """A software receiver (framed mode) understands the gate-level
        encryptor's output — the deployment story of the paper."""
        driver = MhheaHardwareDriver(top=build_mhhea_top(seed=0xFACE))
        plaintext = b"hw encrypts, sw decrypts"  # 6 blocks
        bits = bytes_to_bits(plaintext)
        run = driver.run(bits, key16)
        from repro.core import mhhea

        recovered = mhhea.decrypt_bits(run.vectors, key16, len(bits),
                                       frame_bits=16, engine="reference")
        assert bits_to_bytes(recovered) == plaintext


class TestShuffledSteganographicLink:
    def test_cipher_plus_shuffler(self, key16):
        """The paper's 'shuffled-type steganography' combination."""
        cipher = MhheaCipher(key16)
        shuffler = Shuffler(key_seed=0x77, block=8)
        message = cipher.encrypt(b"combined pipeline", seed=5)
        wire = shuffler.shuffle(list(message.vectors))
        # eavesdropper sees permuted vectors; receiver undoes both layers
        restored = EncryptedMessage(
            tuple(shuffler.unshuffle(wire)), message.n_bits, message.width
        )
        assert cipher.decrypt(restored) == b"combined pipeline"
