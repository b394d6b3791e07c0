"""Timing side-channel analysis of the serial vs improved designs.

The serial HHEA micro-architecture replaces one bit per cycle, so the
gap between consecutive Ready pulses is ``1 + window_width`` cycles, and
the window width of pair ``i`` is the key-derived ``|K[i][1] - K[i][0]|
+ 1``.  An observer who can timestamp ciphertext outputs (a bus analyser
on the link, or any throughput counter) therefore reads the *span* of
every key pair directly off the wire.  This module mounts that attack:

1. run a message through a model, collecting the Ready cycle stamps;
2. convert inter-output gaps into per-pair span estimates (mode over
   the observations of each pair index, which also rejects the gaps
   perturbed by buffer-reload cycles);
3. score the estimates against the true key.

Against the improved design every gap is the constant two cycles (plus
reload overhead), so the same estimator degenerates to chance — which is
precisely the paper's claim, asserted by the tests.

The span is not the full key (the pair's absolute position is not
leaked), so the report also quantifies the *entropy reduction*: knowing
``span = d`` shrinks a pair's candidate set from ``half**2`` to
``2*(half-d)`` ordered pairs (``half`` for ``d = 0``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.key import Key
from repro.core.params import PAPER_PARAMS, VectorParams
from repro.rtl.cycle_model import CycleModelRun

__all__ = ["TimingAttackReport", "timing_attack", "spans_from_ready_gaps"]


@dataclass
class TimingAttackReport:
    """Outcome of one timing-recovery attempt."""

    recovered_spans: list[int | None]
    true_spans: list[int]
    correct: int
    observations_per_pair: list[int] = field(default_factory=list)

    @property
    def n_pairs(self) -> int:
        """Key pairs attacked (one span each)."""
        return len(self.true_spans)

    @property
    def accuracy(self) -> float:
        """Fraction of key-pair spans recovered exactly."""
        if not self.true_spans:
            return 0.0
        return self.correct / len(self.true_spans)

    def entropy_reduction_bits(self, params: VectorParams = PAPER_PARAMS) -> float:
        """Key-space entropy removed by the recovered spans, in bits."""
        half = params.half
        total = 0.0
        for guess, _true in zip(self.recovered_spans, self.true_spans):
            if guess is None or not 1 <= guess <= half:
                # no observation, or a reload-inflated gap produced an
                # impossible span: the attacker learns nothing here
                continue
            d = guess - 1
            candidates = half if d == 0 else 2 * (half - d)
            total += math.log2((half * half) / candidates)
        return total


def spans_from_ready_gaps(
    ready_cycles: list[int], n_pairs: int, setup_cycles: int = 1
) -> tuple[list[int | None], list[int]]:
    """Estimate per-pair window spans from output timestamps.

    Gap ``g`` between consecutive outputs implies a window width of
    ``g - setup_cycles``; each gap is attributed to its pair index
    (outputs appear in pair order, ``i mod n_pairs``).  The per-pair
    estimate is the *mode* of its observations, which suppresses gaps
    inflated by the LMSGCACHE / LMSG reload cycles.
    """
    observations: list[list[int]] = [[] for _ in range(n_pairs)]
    for i in range(1, len(ready_cycles)):
        gap = ready_cycles[i] - ready_cycles[i - 1]
        # output i is produced by pair (i mod n_pairs)
        observations[i % n_pairs].append(gap - setup_cycles)
    estimates: list[int | None] = []
    counts: list[int] = []
    for obs in observations:
        counts.append(len(obs))
        if not obs:
            estimates.append(None)
            continue
        histogram: dict[int, int] = {}
        for value in obs:
            histogram[value] = histogram.get(value, 0) + 1
        estimates.append(max(histogram.items(), key=lambda item: item[1])[0])
    return estimates, counts


def timing_attack(
    run: CycleModelRun, key: Key, setup_cycles: int = 1
) -> TimingAttackReport:
    """Mount the span-recovery attack against one model run."""
    n_pairs = len(key)
    estimates, counts = spans_from_ready_gaps(
        run.ready_cycles, n_pairs, setup_cycles
    )
    true_spans = [pair.span for pair in key.pairs]
    correct = sum(
        1 for guess, true in zip(estimates, true_spans) if guess == true
    )
    return TimingAttackReport(
        recovered_spans=estimates,
        true_spans=true_spans,
        correct=correct,
        observations_per_pair=counts,
    )
