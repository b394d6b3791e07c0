"""Structural top level of the YAEA-like stream design.

The measured counterpart of Table 1's YAEA row (see
:mod:`repro.rtl.yaea_like` for the substitution rationale): a leap-forward
LFSR keystream XORed with one full plaintext word per clock cycle.  Four
states suffice — ``INIT`` (wait for go), ``LKEY`` (one cycle of keystream
warm-up, mirroring the cycle model), ``ENCRYPT`` (one word per cycle until
``eof``), ``DONE`` (hold until the next go).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.params import PAPER_PARAMS, VectorParams
from repro.hdl.circuit import Circuit
from repro.hdl.signal import Bus
from repro.rtl.lfsr import LfsrPorts, build_lfsr

__all__ = ["YaeaTop", "build_yaea_top", "YAEA_STATES"]

#: State encodings of the stream design's FSM.
YAEA_STATES: dict[str, int] = {"INIT": 0, "LKEY": 1, "ENCRYPT": 2, "DONE": 3}


@dataclass
class YaeaTop:
    """The built stream circuit plus testbench handles."""

    circuit: Circuit
    params: VectorParams
    seed: int
    go: Bus
    word_in: Bus
    eof: Bus
    cipher: Bus
    ready: Bus
    done: Bus
    state: Bus
    lfsr: LfsrPorts


def build_yaea_top(
    params: VectorParams = PAPER_PARAMS,
    seed: int = 0xACE1,
) -> YaeaTop:
    """Elaborate the stream design into a gate-level circuit."""
    if seed == 0:
        raise ValueError("keystream seed must be non-zero")
    width = params.width
    c = Circuit("yaea_like_top")

    go = c.input_bus("go", 1)
    word_in = c.input_bus("word_in", width)
    eof = c.input_bus("eof", 1)

    state = c.bus("state.q", 2)
    decode = c.decoder(state, name="st.dec")
    in_init = decode[YAEA_STATES["INIT"]]
    in_lkey = decode[YAEA_STATES["LKEY"]]
    in_encrypt = decode[YAEA_STATES["ENCRYPT"]]
    in_done = decode[YAEA_STATES["DONE"]]

    def const_state(name: str) -> Bus:
        return c.const_bus(YAEA_STATES[name], 2)

    choices = [const_state("INIT")] * 4
    choices[YAEA_STATES["INIT"]] = c.mux_bus(
        go[0], const_state("INIT"), const_state("LKEY"), name="n.init")
    choices[YAEA_STATES["LKEY"]] = const_state("ENCRYPT")
    choices[YAEA_STATES["ENCRYPT"]] = c.mux_bus(
        eof[0], const_state("ENCRYPT"), const_state("DONE"), name="n.enc")
    choices[YAEA_STATES["DONE"]] = c.mux_bus(
        go[0], const_state("INIT"), const_state("DONE"), name="n.done")
    c.register_on(state, c.muxn(state, choices, name="n.mux"),
                  init=YAEA_STATES["INIT"])

    lfsr = build_lfsr(c, width, seed=seed, enable=in_encrypt)
    cipher_next = c.xor_bus(word_in, lfsr.next_word, name="ct")
    cipher = c.register(cipher_next, enable=in_encrypt, name="cipher.q")
    ready = c.register(Bus("ready.d", [in_encrypt]), name="ready.q")
    done_flag = c.register(Bus("done.d", [in_done]), name="done.q")

    c.set_output("cipher", cipher)
    c.set_output("ready", ready)
    done_out = Bus("done", [done_flag[0]])
    c.set_output("done", done_out)

    _ = (in_init, in_lkey)  # decoded for completeness/observability
    return YaeaTop(
        circuit=c,
        params=params,
        seed=seed,
        go=go,
        word_in=word_in,
        eof=eof,
        cipher=cipher,
        ready=ready,
        done=done_out,
        state=state,
        lfsr=lfsr,
    )
