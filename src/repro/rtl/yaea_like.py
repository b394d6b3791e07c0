"""YAEA stand-in: a word-wide LFSR keystream micro-architecture.

The paper's Table 1 compares against "YAEA" [SAEB02], whose specification
was never published openly, so we build the closest open equivalent that
exercises the same comparison pipeline: a stream design that XORs one
full plaintext word with a keystream word every cycle.  Its relevant properties match what
Table 1 implies about YAEA — very high throughput (a full 16-bit word per
cycle, versus MHHEA's at-most-8 embedded bits per two cycles) from a
small datapath, hence the highest functional density in the chart.

The *measured* Table 1 row uses this stand-in; the *literature* row keeps
the paper's reported YAEA numbers.  Both are printed side by side.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.params import PAPER_PARAMS, VectorParams
from repro.hdl.wave import WaveTrace
from repro.rtl import states
from repro.rtl.cycle_model import CycleModelRun
from repro.util.bits import bits_to_int, int_to_bits, mask
from repro.util.lfsr import Lfsr

__all__ = ["YaeaLikeCycleModel", "decrypt_words"]


class YaeaLikeCycleModel:
    """One-word-per-cycle XOR stream cipher model.

    Protocol: ``INIT`` (1 cycle) → ``LKEY`` (1 cycle, keystream seed
    latch) → one ``ENCRYPT`` cycle per plaintext word with Ready high
    from the second word on.
    """

    def __init__(self, seed: int = 0xACE1, params: VectorParams = PAPER_PARAMS):
        if seed == 0:
            raise ValueError("keystream seed must be non-zero")
        self.seed = seed
        self.params = params
        self.width = params.width

    def run(self, bits: Sequence[int], record_trace: bool = False) -> CycleModelRun:
        """Encrypt a bit stream, one ``width``-bit word per cycle."""
        run = CycleModelRun(n_bits=len(bits))
        trace = None
        if record_trace:
            trace = WaveTrace(
                [
                    ("state", 0),
                    ("word", self.width),
                    ("keystream", self.width),
                    ("cipher", self.width),
                    ("ready", 1),
                ]
            )
            run.trace = trace
        if not bits:
            return run

        lfsr = Lfsr(self.width, seed=self.seed)
        words = [
            bits_to_int(list(bits[i : i + self.width]) + [0] * max(0, self.width - (len(bits) - i)))
            for i in range(0, len(bits), self.width)
        ]
        cycle = 0
        ready = 0
        cipher = 0

        def emit(state: str, word: int, keystream: int) -> None:
            nonlocal cycle
            if trace is not None:
                trace.record(state=state, word=word, keystream=keystream,
                             cipher=cipher, ready=ready)
            if ready:
                run.ready_cycles.append(cycle)
            cycle += 1

        emit(states.INIT, 0, 0)
        emit(states.LKEY, 0, 0)
        for word in words:
            keystream = lfsr.next_word() & mask(self.width)
            cipher = word ^ keystream
            emit(states.ENCRYPT, word, keystream)
            run.vectors.append(cipher)
            ready = 1
        emit(states.INIT, 0, 0)  # flush: final Ready pulse
        run.total_cycles = cycle
        return run


def decrypt_words(vectors: Sequence[int], seed: int, n_bits: int,
                  params: VectorParams = PAPER_PARAMS) -> list[int]:
    """Invert :class:`YaeaLikeCycleModel`: XOR with the same keystream."""
    if n_bits < 0:
        raise ValueError(f"n_bits must be non-negative, got {n_bits}")
    lfsr = Lfsr(params.width, seed=seed)
    bits: list[int] = []
    for vector in vectors:
        word = vector ^ lfsr.next_word()
        bits.extend(int_to_bits(word & mask(params.width), params.width))
    return bits[:n_bits]
