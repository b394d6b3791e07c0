"""The constant chosen-plaintext attack (paper section II).

Against plain HHEA the attack is devastating: encrypt a long all-zero
message and every vector produced by key pair ``i`` carries literal
zeros at locations ``K1[i] .. K2[i]`` while all other bits are LFSR
noise.  Collecting a handful of vectors per pair index makes the window
— and hence the pair — stand out as the bits that are *always* zero.

MHHEA's two counter-measures break both pillars of the attack: location
scrambling moves the window per vector (driven by the vector's own high
bits), and data scrambling XORs the constant message with cycling key
bits so even the embedded values are not constant.  The same estimator
then sees no always-zero positions beyond chance.

The attack here is exactly that estimator, run under an honest attacker
model: known algorithm and parameters, chosen plaintext, ciphertext
vectors in order (so the pair index of each vector is known), key
unknown.  The encryption oracle is the bit-level golden model —
the paper's pseudocode — so the attack measures the algorithm, not one
implementation of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import hhea, mhhea
from repro.core.key import Key
from repro.core.params import PAPER_PARAMS, VectorParams
from repro.util.lfsr import Lfsr

__all__ = ["ChosenPlaintextReport", "constant_chosen_plaintext_attack"]


@dataclass
class ChosenPlaintextReport:
    """Outcome of one constant chosen-plaintext attack."""

    algorithm: str
    guessed_pairs: list[tuple[int, int] | None]
    true_pairs: list[tuple[int, int]]
    vectors_per_pair: int
    always_zero_profile: list[list[int]] = field(default_factory=list)
    """Per pair index: the low-half bit positions that were always zero."""

    @property
    def exact_recoveries(self) -> int:
        """How many pairs the attack recovered exactly."""
        return sum(
            1 for guess, true in zip(self.guessed_pairs, self.true_pairs)
            if guess == true
        )

    @property
    def accuracy(self) -> float:
        """Fraction of key pairs recovered exactly."""
        if not self.true_pairs:
            return 0.0
        return self.exact_recoveries / len(self.true_pairs)


def constant_chosen_plaintext_attack(
    algorithm: str,
    key: Key,
    vectors_per_pair: int = 64,
    seed: int = 0xACE1,
    plaintext_bit: int = 0,
    params: VectorParams = PAPER_PARAMS,
) -> ChosenPlaintextReport:
    """Mount the attack against ``"hhea"`` or ``"mhhea"``.

    Encrypts a constant message long enough that every key pair emits at
    least ``vectors_per_pair`` vectors, then estimates each pair as the
    span of the always-constant positions in its vectors.
    """
    if algorithm not in ("hhea", "mhhea"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if plaintext_bit not in (0, 1):
        raise ValueError("plaintext_bit must be 0 or 1")
    n_pairs = len(key)
    # Each vector consumes at most ``max_window`` bits, so this length
    # guarantees at least ``vectors_per_pair`` vectors for every pair
    # index regardless of the (key- and vector-dependent) window widths.
    n_bits = vectors_per_pair * n_pairs * params.max_window
    bits = [plaintext_bit] * n_bits
    source = Lfsr(params.width, seed=seed)
    encrypt = mhhea.encrypt_bits if algorithm == "mhhea" else hhea.encrypt_bits
    vectors = encrypt(bits, key, source, params)

    # Attacker view: vectors grouped by pair index (i mod L is public).
    grouped: list[list[int]] = [[] for _ in range(n_pairs)]
    for i, vector in enumerate(vectors):
        grouped[i % n_pairs].append(vector)

    guesses: list[tuple[int, int] | None] = []
    profiles: list[list[int]] = []
    for samples in grouped:
        samples = samples[:vectors_per_pair]
        if not samples:
            guesses.append(None)
            profiles.append([])
            continue
        constant_positions = []
        for j in range(params.half):
            column = [(v >> j) & 1 for v in samples]
            if all(bit == plaintext_bit for bit in column):
                constant_positions.append(j)
        profiles.append(constant_positions)
        if constant_positions:
            guesses.append((min(constant_positions), max(constant_positions)))
        else:
            guesses.append(None)

    true_pairs = [
        (pair.sorted().k1, pair.sorted().k2) for pair in key.pairs
    ]
    return ChosenPlaintextReport(
        algorithm=algorithm,
        guessed_pairs=guesses,
        true_pairs=true_pairs,
        vectors_per_pair=vectors_per_pair,
        always_zero_profile=profiles,
    )
