"""PEBS-style hardware-event sampling profiler.

Models Processor Event-Based Sampling of memory-access events (as used
by Memtis, HeMem, FlexMem): every ``period``-th access (with random
phase) produces a sample carrying the page address.  Cheap and
frequency-proportional, but at terabyte scale the fixed sampling budget
makes infrequently-accessed hot pages invisible — the false-negative
problem Telescope documents (paper §2.1).

Overhead model: each retired sample costs the PEBS interrupt/drain path
~1.2K cycles on the daemon side.
"""

from __future__ import annotations

import numpy as np

from repro.profiling.base import EpochPlan, Profiler

#: Daemon-side cost of harvesting one PEBS sample (interrupt + parse).
SAMPLE_COST_CYCLES = 1_200.0


class PebsProfiler(Profiler):
    """Sampling profiler with configurable period."""

    mechanism = "pebs"

    def __init__(self, period: int = 64, decay: float = 0.5, rng: np.random.Generator | None = None) -> None:
        super().__init__(decay=decay)
        if period < 1:
            raise ValueError("sampling period must be >= 1")
        self.period = period
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def observe_plan(self, plan: EpochPlan) -> None:
        """Keep ~1/period of each segment, heat-weighted by the period so
        expected heat equals true access counts.

        Random-phase systematic sampling, the standard PEBS counter
        reload behaviour: deterministic stride, random initial offset,
        one phase per non-empty segment.  Equal to sampling the
        segments one by one: the phases come from one batched draw
        (the same stream as one scalar draw per segment), and heat is
        added once per segment, in segment order.
        """
        self.stats.accesses_seen += plan.n
        seg = np.flatnonzero(np.diff(plan.offsets))
        if seg.size == 0:
            return
        period = self.period
        phase = self.rng.integers(period, size=seg.size)
        first = plan.offsets[seg] + phase
        counts = (plan.offsets[seg + 1] - first + period - 1) // period
        total = int(counts.sum())
        if total == 0:
            return
        for n in counts.tolist():
            if n:
                self.stats.samples_taken += n
                self.stats.overhead_cycles += n * SAMPLE_COST_CYCLES
        # Sample j of a segment sits at first + j * period.
        starts = np.cumsum(counts) - counts
        idx = np.repeat(first, counts) + (np.arange(total) - np.repeat(starts, counts)) * period
        weights = np.full(total, float(period))
        self._accumulate_segments(
            plan.pid,
            plan.vpns[idx],
            np.repeat(np.arange(counts.size), counts),
            weights,
            weights * plan.is_write[idx],
        )
