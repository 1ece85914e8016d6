"""Fused ``observe_plan`` ingest vs the per-batch ``observe`` it replaced.

The reference profilers below carry the per-batch PEBS and hint-fault
``observe`` bodies (and the hint-fault rotation with its set-based
poison window) as they stood before ingest was fused, and ingest an
``EpochPlan`` by the base class's per-segment replay.  Each random
history drives a reference and a production profiler through the same
calls and compares them bit for bit after every call: heat and
write-heat values, heat insertion order, every ``ProfilerStats`` field,
the RNG state and the poisoned set.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.profiling.base import AccessBatch, EpochPlan, Profiler
from repro.profiling.hintfault import (
    HINT_FAULT_COST_CYCLES,
    POISON_COST_CYCLES,
    HintFaultProfiler,
)
from repro.profiling.hybrid import HybridProfiler
from repro.profiling.pebs import SAMPLE_COST_CYCLES, PebsProfiler

# -- reference oracle: the per-batch bodies ---------------------------------------


def _member(values: np.ndarray, sorted_ref: np.ndarray) -> np.ndarray:
    """``np.isin(values, sorted_ref)`` for an already-sorted reference."""
    if sorted_ref.size == 0:
        return np.zeros(values.shape, dtype=bool)
    pos = np.searchsorted(sorted_ref, values)
    in_range = pos < sorted_ref.size
    out = np.zeros(values.shape, dtype=bool)
    out[in_range] = sorted_ref[pos[in_range]] == values[in_range]
    return out


class RefPebs(Profiler):
    mechanism = "pebs-reference"

    def __init__(self, period: int, decay: float, rng: np.random.Generator) -> None:
        super().__init__(decay=decay)
        self.period = period
        self.rng = rng

    def observe(self, batch: AccessBatch) -> None:
        """Keep ~1/period of the stream, heat-weighted by the period so
        expected heat equals true access counts."""
        n = batch.n
        self.stats.accesses_seen += n
        if n == 0:
            return
        # Random-phase systematic sampling — the standard PEBS counter
        # reload behaviour: deterministic stride, random initial offset.
        start = int(self.rng.integers(self.period))
        idx = np.arange(start, n, self.period)
        if idx.size == 0:
            return
        self.stats.samples_taken += int(idx.size)
        self.stats.overhead_cycles += idx.size * SAMPLE_COST_CYCLES
        vpns = batch.vpns[idx]
        writes = batch.is_write[idx]
        weights = np.full(idx.size, float(self.period))
        self._accumulate(batch.pid, vpns, weights, write_weights=weights * writes)


class RefHintFault(Profiler):
    mechanism = "hintfault-reference"

    def __init__(self, window_fraction: float, decay: float) -> None:
        super().__init__(decay=decay)
        self.window_fraction = window_fraction
        self._pages: dict[int, np.ndarray] = {}
        self._poisoned: dict[int, set[int]] = {}
        self._parr: dict[int, np.ndarray] = {}
        self._cursor: dict[int, int] = {}

    def register_pages(self, pid: int, vpns: np.ndarray) -> None:
        self._pages[pid] = np.sort(np.asarray(vpns, dtype=np.int64))
        self._cursor.setdefault(pid, 0)
        if pid not in self._poisoned:
            self._rotate(pid)

    def poisoned_vpns(self, pid: int) -> np.ndarray:
        return np.array(sorted(self._poisoned.get(pid, ())), dtype=np.int64)

    def _rotate(self, pid: int) -> None:
        pages = self._pages.get(pid)
        if pages is None or pages.size == 0:
            self._poisoned[pid] = set()
            self._parr[pid] = np.empty(0, dtype=np.int64)
            return
        window = max(int(pages.size * self.window_fraction), 1)
        start = self._cursor.get(pid, 0) % pages.size
        idx = (start + np.arange(window)) % pages.size
        win = pages[idx]
        self._poisoned[pid] = set(win.tolist())
        self._parr[pid] = np.sort(win)
        self._cursor[pid] = (start + window) % pages.size
        self.stats.overhead_cycles += window * POISON_COST_CYCLES

    def observe(self, batch: AccessBatch) -> None:
        """Accesses hitting poisoned pages fault and get recorded exactly."""
        self.stats.accesses_seen += batch.n
        if batch.n == 0:
            return
        poisoned = self._poisoned.get(batch.pid)
        if not poisoned:
            return
        parr = self._parr.get(batch.pid)
        if parr is None or parr.size != len(poisoned):
            parr = np.sort(np.fromiter(poisoned, dtype=np.int64))
            self._parr[batch.pid] = parr
        mask = _member(batch.vpns, parr)
        hits = batch.vpns[mask]
        if hits.size == 0:
            return
        # Each poisoned page faults once, then is unpoisoned until the
        # next rotation — so count unique pages, not raw hits.
        uniq = np.unique(hits)
        self.stats.samples_taken += int(uniq.size)
        self.stats.app_overhead_cycles += uniq.size * HINT_FAULT_COST_CYCLES
        poisoned.difference_update(uniq.tolist())
        self._parr[batch.pid] = parr[~_member(parr, uniq)]
        # The first-touch indicator carries one heat unit; exact
        # write/read split is visible for the faulting access.
        writes_first = np.zeros(uniq.size, dtype=np.float64)
        w_hits = np.unique(batch.vpns[mask & batch.is_write])
        if w_hits.size:
            writes_first[_member(uniq, w_hits)] = 1.0
        self._accumulate(batch.pid, uniq, np.ones(uniq.size), write_weights=writes_first)

    def end_epoch(self) -> None:
        for pid in list(self._pages):
            self._rotate(pid)
        super().end_epoch()

    def forget(self, pid: int) -> None:
        super().forget(pid)
        self._pages.pop(pid, None)
        self._poisoned.pop(pid, None)
        self._parr.pop(pid, None)
        self._cursor.pop(pid, None)


class RefHybrid(HybridProfiler):
    """The production fusion (``end_epoch``) over reference children,
    fed segment by segment."""

    def __init__(self, period, window_fraction, decay, rng) -> None:
        super().__init__(period=period, window_fraction=window_fraction, decay=decay, rng=rng)
        self.pebs = RefPebs(period, decay, rng)
        self.faults = RefHintFault(window_fraction, decay)

    def observe(self, batch: AccessBatch) -> None:
        self.stats.accesses_seen += batch.n
        self.pebs.observe(batch)
        self.faults.observe(batch)

    observe_plan = Profiler.observe_plan


# -- comparison -------------------------------------------------------------------


def _books(prof: Profiler) -> dict:
    out = {}
    for name, store in (("heat", prof._heat), ("write", prof._write_heat)):
        for pid in store.pids():
            vpns = store.ordered_vpns(pid)
            out[(name, pid)] = (vpns.tolist(), store.gather(pid, vpns).tobytes())
    return out


def _assert_same(ref: Profiler, got: Profiler, pids, where: str) -> None:
    assert _books(got) == _books(ref), f"{where}: heat books diverged"
    assert dataclasses.asdict(got.stats) == dataclasses.asdict(ref.stats), f"{where}: stats"
    for kid in ("pebs", "faults"):
        if hasattr(ref, kid):
            _assert_same(getattr(ref, kid), getattr(got, kid), pids, f"{where}/{kid}")
    if hasattr(ref, "rng"):
        assert got.rng.bit_generator.state == ref.rng.bit_generator.state, f"{where}: rng"
    if hasattr(ref, "poisoned_vpns"):
        for pid in pids:
            np.testing.assert_array_equal(
                got.poisoned_vpns(pid), ref.poisoned_vpns(pid), err_msg=f"{where}: poison pid {pid}"
            )


# -- random histories -------------------------------------------------------------

#: pids 1 and 2 register pages; pid 3 never does
PIDS = (1, 2, 3)
EPOCHS = 6


def _pages(rng: np.random.Generator) -> np.ndarray:
    """A sparse registered set (gaps inside the span are never poisoned)."""
    lo = int(rng.integers(50, 200))
    keep = rng.random(int(rng.integers(8, 120))) < 0.7
    keep[0] = True
    return lo + np.flatnonzero(keep)


def _segment(rng: np.random.Generator, pages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = 0 if rng.random() < 0.2 else int(rng.integers(1, 90))
    vpns = rng.choice(pages, size=n)
    below = pages.min() - 1 - rng.integers(0, 30, n)
    above = pages.max() + 1 + rng.integers(0, 30, n)
    outside = rng.random(n)
    vpns = np.where(outside < 0.05, below, np.where(outside < 0.1, above, vpns))
    return vpns.astype(np.int64), rng.random(n) < 0.3


def _plan(rng: np.random.Generator, pid: int, pages: np.ndarray, poisoned: np.ndarray) -> EpochPlan:
    n_seg = int(rng.integers(1, 7))
    segs = [_segment(rng, pages) for _ in range(n_seg)]
    if poisoned.size and n_seg > 1:
        style = int(rng.integers(0, 3))
        if style == 0:
            # one poisoned page read in every segment, written only in
            # the last one
            p = int(rng.choice(poisoned))
            segs = [(np.append(v, p), np.append(w, k == n_seg - 1)) for k, (v, w) in enumerate(segs)]
        elif style == 1:
            # every poisoned page consumed in the first segment
            v, w = segs[0]
            segs[0] = (
                np.concatenate([v, rng.permutation(poisoned)]),
                np.concatenate([w, rng.random(poisoned.size) < 0.5]),
            )
    lens = [v.size for v, _ in segs]
    return EpochPlan(
        pid=pid,
        vpns=np.concatenate([v for v, _ in segs]).astype(np.int64),
        is_write=np.concatenate([w for _, w in segs]).astype(bool),
        offsets=np.concatenate([[0], np.cumsum(lens)]).astype(np.int64),
        tids=np.arange(n_seg, dtype=np.int64),
    )


def _edge_cases(plan: EpochPlan, pages: np.ndarray, poisoned: np.ndarray) -> set[str]:
    """Which of the cases the histories are for ``plan`` contains."""
    cases = set()
    segs = list(plan.segments())
    if any(b.n == 0 for b in segs):
        cases.add("empty segment")
    if (~np.isin(plan.vpns, pages)).any():
        cases.add("access outside the registered range")
    hit_in = {v: [k for k, b in enumerate(segs) if v in b.vpns] for v in poisoned.tolist()}
    for v, ks in hit_in.items():
        if len(ks) > 1:
            cases.add("poisoned page hit in several segments")
            if not segs[ks[0]].is_write[segs[ks[0]].vpns == v].any() and any(
                segs[k].is_write[segs[k].vpns == v].any() for k in ks[1:]
            ):
                cases.add("page written only after its first-hit segment")
    if poisoned.size and len(segs) > 1 and all(ks and ks[0] == 0 for ks in hit_in.values()):
        cases.add("window drained before the last segment")
    return cases


def _make(kind: str, seed: int):
    period = [1, 2, 7, 64][seed % 4]
    window = [0.125, 0.25, 0.5, 1.0][(seed // 4) % 4]
    if kind == "pebs":
        return (
            RefPebs(period, 0.5, np.random.default_rng(seed)),
            PebsProfiler(period=period, decay=0.5, rng=np.random.default_rng(seed)),
        )
    if kind == "hintfault":
        return RefHintFault(window, 0.5), HintFaultProfiler(window_fraction=window, decay=0.5)
    return (
        RefHybrid(period, window, 0.5, np.random.default_rng(seed)),
        HybridProfiler(period=period, window_fraction=window, decay=0.5, rng=np.random.default_rng(seed)),
    )


def _run_history(kind: str, seed: int) -> set[str]:
    """Drive a reference and a production profiler through one random
    history, comparing them after every call; returns the edge cases
    the history contained."""
    rng = np.random.default_rng(1000 + seed)
    ref, got = _make(kind, seed)
    faults = ref.faults if kind == "hybrid" else ref
    registers = kind != "pebs"
    pages = {pid: _pages(rng) for pid in PIDS}
    if registers:
        for pid in (1, 2):
            ref.register_pages(pid, pages[pid])
            got.register_pages(pid, pages[pid])
    _assert_same(ref, got, PIDS, "register")
    cases = set()
    for epoch in range(EPOCHS):
        for pid in PIDS:
            poisoned = faults.poisoned_vpns(pid) if registers else np.empty(0, dtype=np.int64)
            plan = _plan(rng, pid, pages[pid], poisoned)
            cases |= _edge_cases(plan, pages[pid], poisoned)
            if rng.random() < 0.25:
                # the per-batch entry point is a one-segment plan
                for batch in plan.segments():
                    ref.observe(batch)
                    got.observe(batch)
            else:
                ref.observe_plan(plan)
                got.observe_plan(plan)
            _assert_same(ref, got, PIDS, f"epoch {epoch} pid {pid}")
        if registers and rng.random() < 0.3:
            # re-registration moves the span; the live window stays
            pages[1] = _pages(rng)
            ref.register_pages(1, pages[1])
            got.register_pages(1, pages[1])
        if rng.random() < 0.15:
            ref.forget(2)
            got.forget(2)
            if registers:
                ref.register_pages(2, pages[2])
                got.register_pages(2, pages[2])
        ref.end_epoch()
        got.end_epoch()
        _assert_same(ref, got, PIDS, f"end of epoch {epoch}")
    return cases


@pytest.mark.parametrize("kind", ["pebs", "hintfault", "hybrid"])
@pytest.mark.parametrize("seed", range(40))
def test_fused_ingest_matches_per_batch_replay(kind, seed):
    _run_history(kind, seed)


def test_histories_reach_the_edge_cases():
    """The random histories contain the cases they are meant to cover."""
    cases = set()
    for seed in range(40):
        cases |= _run_history("hintfault", seed)
    assert cases == {
        "empty segment",
        "access outside the registered range",
        "poisoned page hit in several segments",
        "page written only after its first-hit segment",
        "window drained before the last segment",
    }
