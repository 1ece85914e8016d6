"""NUMA-hinting-fault profiler.

Models AutoNUMA/TPP-style hinting: a rotating window of pages is
"poisoned" (PTEs flipped to ``prot_none``); the next access to a
poisoned page traps, revealing an exact (page, time, thread) event.  The
signal is precise for the sampled window but costs the *application* a
fault (~2.5K cycles) per hit — the extra latency the paper attributes to
this mechanism.

The rotation walks each process's known page set window-by-window so
every page is eventually sampled (TPP poisons pages on the slow tier to
detect promotion candidates; we poison everywhere and let policies
filter by tier).
"""

from __future__ import annotations

import numpy as np

from repro.profiling.base import EpochPlan, Profiler

#: Application-side cost of taking one hinting fault.
HINT_FAULT_COST_CYCLES = 2_500.0
#: Daemon-side cost of re-poisoning one PTE.
POISON_COST_CYCLES = 150.0


class _PoisonMap:
    """One pid's poisoned window as a dense bool map over its pages.

    ``mask[vpn - base]`` is True while ``vpn`` is poisoned.  The map
    spans the registered pages plus one always-False guard slot at the
    top: clamping ``vpn - base`` as an unsigned offset sends every
    out-of-range vpn, below or above, to the guard, so one gather
    answers membership for a whole epoch.
    """

    __slots__ = ("base", "mask", "count")

    def __init__(self, pages: np.ndarray) -> None:
        lo, hi = (int(pages[0]), int(pages[-1])) if pages.size else (0, -1)
        self.base = lo
        self.mask = np.zeros(hi - lo + 2, dtype=bool)
        self.count = 0

    def covers(self, pages: np.ndarray) -> bool:
        return pages.size == 0 or (
            self.base <= int(pages[0]) and int(pages[-1]) < self.base + self.mask.size - 1
        )

    def set_window(self, win: np.ndarray) -> None:
        self.mask[:] = False
        self.mask[win - self.base] = True
        self.count = int(np.count_nonzero(self.mask))

    def vpns(self) -> np.ndarray:
        return np.flatnonzero(self.mask) + self.base


class HintFaultProfiler(Profiler):
    """Rotating prot_none poisoning with exact hit accounting."""

    mechanism = "hintfault"

    def __init__(self, window_fraction: float = 0.125, decay: float = 0.5) -> None:
        super().__init__(decay=decay)
        if not 0.0 < window_fraction <= 1.0:
            raise ValueError("window_fraction must be in (0, 1]")
        self.window_fraction = window_fraction
        #: pid -> sorted array of known vpns (refreshed via register_pages)
        self._pages: dict[int, np.ndarray] = {}
        #: pid -> currently poisoned window
        self._poison: dict[int, _PoisonMap] = {}
        #: pid -> rotation cursor into the page array
        self._cursor: dict[int, int] = {}

    def register_pages(self, pid: int, vpns: np.ndarray) -> None:
        """Declare the pages of ``pid`` the rotation should cover."""
        self._pages[pid] = np.sort(np.asarray(vpns, dtype=np.int64))
        self._cursor.setdefault(pid, 0)
        if pid not in self._poison:
            self._rotate(pid)

    def poisoned_vpns(self, pid: int) -> np.ndarray:
        """The pages of ``pid`` poisoned right now, ascending."""
        pm = self._poison.get(pid)
        return pm.vpns() if pm is not None else np.empty(0, dtype=np.int64)

    def _rotate(self, pid: int) -> None:
        """Advance the poisoned window for ``pid``."""
        pages = self._pages.get(pid, np.empty(0, dtype=np.int64))
        pm = self._poison.get(pid)
        if pm is None or not pm.covers(pages):
            pm = self._poison[pid] = _PoisonMap(pages)
        if pages.size == 0:
            pm.set_window(pages)
            return
        window = max(int(pages.size * self.window_fraction), 1)
        start = self._cursor.get(pid, 0) % pages.size
        idx = (start + np.arange(window)) % pages.size
        pm.set_window(pages[idx])
        self._cursor[pid] = (start + window) % pages.size
        self.stats.overhead_cycles += window * POISON_COST_CYCLES

    def observe_plan(self, plan: EpochPlan) -> None:
        """Accesses hitting poisoned pages fault and get recorded exactly.

        A poisoned page faults once, in the first segment that touches
        it, and is unpoisoned until the next rotation; that segment's
        accesses to it decide the fault's write flag.  Equal to feeding
        the segments one by one: new heat keys enter in (segment,
        ascending vpn) order, and the application's fault cost is added
        once per faulting segment.
        """
        self.stats.accesses_seen += plan.n
        pm = self._poison.get(plan.pid)
        if pm is None or pm.count == 0 or plan.n == 0:
            return
        rel = plan.vpns - np.int64(pm.base)
        np.minimum(rel.view(np.uint64), np.uint64(pm.mask.size - 1), out=rel.view(np.uint64))
        hit = np.flatnonzero(pm.mask[rel])
        if hit.size == 0:
            return
        slots = rel[hit]
        seg = np.searchsorted(plan.offsets, hit, side="right") - 1
        # A page faults in the first segment that touches it.
        fseg = np.full(pm.mask.size, plan.n_segments, dtype=np.int64)
        np.minimum.at(fseg, slots, seg)
        faulted = np.flatnonzero(fseg < plan.n_segments)
        # Its write flag comes from that segment's accesses to it.
        wrote = np.zeros(pm.mask.size)
        wrote[slots[plan.is_write[hit] & (seg == fseg[slots])]] = 1.0

        n = int(faulted.size)
        self.stats.samples_taken += n
        for k in np.bincount(fseg[faulted]).tolist():
            if k:
                self.stats.app_overhead_cycles += k * HINT_FAULT_COST_CYCLES
        pm.mask[faulted] = False
        pm.count -= n
        # The first-touch indicator carries one heat unit; exact
        # write/read split is visible for the faulting access.
        self._accumulate_segments(
            plan.pid, faulted + pm.base, fseg[faulted], np.ones(n), wrote[faulted]
        )

    def end_epoch(self) -> None:
        for pid in list(self._pages):
            self._rotate(pid)
        super().end_epoch()

    def forget(self, pid: int) -> None:
        super().forget(pid)
        self._pages.pop(pid, None)
        self._poison.pop(pid, None)
        self._cursor.pop(pid, None)
