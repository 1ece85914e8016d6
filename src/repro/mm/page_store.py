"""Struct-of-arrays store for per-frame state (DESIGN.md §3).

All per-page truth — tier, lifecycle state, reverse map, access
counters, migration bookkeeping — lives here as parallel numpy arrays
indexed by PFN.  :class:`~repro.mm.page.PhysPage` objects are thin
*views* over one row; the arrays are authoritative.  That inversion is
what lets the hot path (per-epoch counter updates, ground-truth hot/cold
accounting, candidate gathering) run as vectorized reductions instead of
object-at-a-time Python loops.

Bit-for-bit equivalence with the old object layout is part of the
contract: every scalar read through a view returns exactly the value the
old dataclass would have held, and all vectorized updates perform the
same elementwise arithmetic the old per-page loops did.
"""

from __future__ import annotations

import numpy as np

from repro import kernels

# Integer lifecycle codes (mirrors repro.mm.page.PageState; kept as raw
# ints here so the store has no import cycle with the view class).
STATE_FREE = 0
STATE_MAPPED = 1
STATE_MIGRATING = 2
STATE_SHADOW = 3

#: pid/vpn/shadow "absent" sentinel (real pids/vpns are non-negative).
NONE_SENTINEL = -1


#: Frames per growth segment.  Heaps at or below one chunk (every
#: pre-existing test/bench scenario) materialize fully at construction,
#: so chunking is invisible to them; larger heaps grow on demand.
CHUNK_FRAMES = 1 << 16


class PageStatsStore:
    """Parallel per-frame arrays indexed by PFN.

    Columns are materialized in power-of-two growth segments
    (:data:`CHUNK_FRAMES`-aligned) rather than one dense preallocation:
    ``capacity`` tracks the materialized prefix ``[0, capacity)`` and
    :meth:`ensure` doubles it on demand.  Every frame at or above
    ``capacity`` is virgin — never allocated, implicitly FREE with all
    counters zero and its free-list bit equal to ``free_fill`` — so
    column scans over the materialized prefix see exactly the state a
    dense layout would hold.

    Parameters
    ----------
    n_frames:
        Total number of physical frames (fast + slow).
    fast_frames:
        Size of the fast tier; PFNs ``[0, fast_frames)`` are tier 0 and
        the rest tier 1 (the allocator's contiguous partitioning).
    chunk_frames:
        Growth segment size (tests shrink it to cover boundaries).
    """

    def __init__(self, n_frames: int, fast_frames: int, *, chunk_frames: int = CHUNK_FRAMES) -> None:
        if n_frames <= 0:
            raise ValueError("store needs at least one frame")
        if chunk_frames <= 0 or chunk_frames & (chunk_frames - 1):
            raise ValueError("chunk_frames must be a positive power of two")
        self.n_frames = n_frames
        self.fast_frames = fast_frames
        self.chunk_frames = chunk_frames
        #: fill value for ``in_free_list`` rows materialized by growth
        #: (the allocator flips this to True: its frames start free).
        self.free_fill = False
        self.capacity = 0
        self._alloc_columns(0)
        self.ensure(min(n_frames, chunk_frames))

    def _alloc_columns(self, n: int) -> None:
        self.tier_id = np.empty(n, dtype=np.int8)
        self.state = np.empty(n, dtype=np.int8)
        self.pid = np.empty(n, dtype=np.int64)
        self.vpn = np.empty(n, dtype=np.int64)
        self.reads = np.empty(n, dtype=np.int64)
        self.writes = np.empty(n, dtype=np.int64)
        self.epoch_reads = np.empty(n, dtype=np.int64)
        self.epoch_writes = np.empty(n, dtype=np.int64)
        self.heat = np.empty(n, dtype=np.float64)
        self.last_access_cycle = np.empty(n, dtype=np.int64)
        self.shadow_pfn = np.empty(n, dtype=np.int64)
        self.dirty_since_copy = np.empty(n, dtype=bool)
        # accessing-tid bitmask: word 0 covers tids 0..63, word 1 covers
        # 64..127 (PTE tid space is 7 bits).
        self.tids_lo = np.empty(n, dtype=np.uint64)
        self.tids_hi = np.empty(n, dtype=np.uint64)
        #: frames whose epoch counters may be nonzero (touched-set reset)
        self.touched = np.empty(n, dtype=bool)
        #: O(1) double-free detection (replaces deque membership scans)
        self.in_free_list = np.empty(n, dtype=bool)

    _COLUMNS = (
        "tier_id", "state", "pid", "vpn", "reads", "writes",
        "epoch_reads", "epoch_writes", "heat", "last_access_cycle",
        "shadow_pfn", "dirty_since_copy", "tids_lo", "tids_hi",
        "touched", "in_free_list",
    )

    def ensure(self, limit: int) -> None:
        """Materialize columns covering PFNs ``[0, limit)``.

        Growth doubles the capacity (chunk-aligned) so repeated
        single-frame extensions stay amortized O(1); new rows are
        initialized to the virgin-frame defaults.
        """
        if limit <= self.capacity:
            return
        if limit > self.n_frames:
            raise ValueError(f"ensure({limit}) exceeds {self.n_frames} frames")
        chunk = self.chunk_frames
        new_cap = max(self.capacity * 2, ((limit + chunk - 1) // chunk) * chunk)
        new_cap = min(new_cap, self.n_frames)
        old = {name: getattr(self, name) for name in self._COLUMNS}
        lo = self.capacity
        self._alloc_columns(new_cap)
        for name, arr in old.items():
            getattr(self, name)[:lo] = arr
        self.tier_id[lo:] = np.where(
            np.arange(lo, new_cap, dtype=np.int64) < self.fast_frames, 0, 1
        ).astype(np.int8)
        self.state[lo:] = STATE_FREE
        self.pid[lo:] = NONE_SENTINEL
        self.vpn[lo:] = NONE_SENTINEL
        self.reads[lo:] = 0
        self.writes[lo:] = 0
        self.epoch_reads[lo:] = 0
        self.epoch_writes[lo:] = 0
        self.heat[lo:] = 0.0
        self.last_access_cycle[lo:] = 0
        self.shadow_pfn[lo:] = NONE_SENTINEL
        self.dirty_since_copy[lo:] = False
        self.tids_lo[lo:] = 0
        self.tids_hi[lo:] = 0
        self.touched[lo:] = False
        self.in_free_list[lo:] = self.free_fill
        self.capacity = new_cap

    # -- vectorized hot-path updates -------------------------------------

    def or_tid_bit(self, pfns: np.ndarray, tid: int) -> None:
        """OR one thread's bit into the accessing-tid masks of ``pfns``."""
        if tid < 64:
            self.tids_lo[pfns] |= np.uint64(1 << tid)
        else:
            self.tids_hi[pfns] |= np.uint64(1 << (tid - 64))

    def record_epoch_rows(
        self,
        pfns: np.ndarray,
        n_reads: np.ndarray,
        n_writes: np.ndarray,
        cycle: int,
    ) -> None:
        """Account per-frame access counts for one epoch.

        ``pfns`` are the epoch's unique frames with counts already
        summed across threads (counts are added one-per-row, exact for
        unique rows); every listed frame is marked touched, even a
        zero-count row.  The per-thread tid-bit ORs happen separately
        (:meth:`or_tid_bit`).
        """
        kernels.page_record_rows(
            self.reads, self.writes, self.epoch_reads, self.epoch_writes,
            self.last_access_cycle, self.touched, self.state,
            self.dirty_since_copy, pfns, n_reads, n_writes, cycle,
        )

    def reset_epoch_counters(self) -> None:
        """Zero epoch counters on touched live frames (idle frames free).

        Matches the old full-table walk exactly: only MAPPED/MIGRATING
        frames are cleared — SHADOW frames keep their counters (they are
        invisible to the PTE walk until remapped) and stay in the
        touched set so a later remap still gets them reset.
        """
        kernels.page_reset_epoch(
            self.touched, self.state, self.epoch_reads, self.epoch_writes
        )

    # -- vectorized queries ----------------------------------------------

    def frames_of_pid(self, pid: int) -> np.ndarray:
        """PFNs mapped (or mid-migration) by ``pid``, ascending.

        Equivalent to walking the process page table: SHADOW frames keep
        their (pid, vpn) reverse map but their PTEs point at the
        promoted copy, so they are excluded here.
        """
        live = (self.state == STATE_MAPPED) | (self.state == STATE_MIGRATING)
        return np.flatnonzero(live & (self.pid == pid))

    def owned_frames(self, pid: int) -> np.ndarray:
        """Every non-free frame bound to ``pid``, ascending.

        Unlike :meth:`frames_of_pid` this *includes* SHADOW frames: a
        retained slow-tier twin still belongs to the process that
        promoted it, and teardown must reclaim it too (otherwise stale
        shadows leak when their owner exits).
        """
        return np.flatnonzero((self.pid == pid) & (self.state != STATE_FREE))

    def foreign_frames(self, live_pids) -> np.ndarray:
        """Non-free frames whose owner is not in ``live_pids``, ascending.

        The global leak sweep: after teardown no frame may remain bound
        to a pid that is no longer running.  Complements
        :meth:`owned_frames`, which only audits one (known) pid.
        """
        bound = self.state != STATE_FREE
        if not bound.any():
            return np.empty(0, dtype=np.int64)
        live = np.asarray(sorted(live_pids), dtype=np.int64)
        return np.flatnonzero(bound & ~np.isin(self.pid, live))

    def fast_usage(self, pid: int) -> int:
        """How many fast-tier frames ``pid`` maps (PTE-walk equivalent)."""
        return int(kernels.pid_fast_usage(self.state, self.pid, pid, self.fast_frames))

    def ground_truth_hotness(self, pid: int, cut: int) -> tuple[int, int, int, int]:
        """(hot, hot∧fast, cold∧fast, fast) page counts for ``pid``."""
        hot, hot_fast, cold_fast, fast = kernels.pid_ground_truth(
            self.state, self.pid, self.epoch_reads, self.epoch_writes,
            pid, self.fast_frames, cut,
        )
        return (int(hot), int(hot_fast), int(cold_fast), int(fast))

    # -- row lifecycle (attach/detach mirror PhysPage semantics) ---------

    def attach_rows(self, pfns: np.ndarray, pid: int, vpns: np.ndarray) -> None:
        """Bind fresh FREE frames to ``(pid, vpns)`` in one scatter —
        :meth:`PhysPage.attach` over arrays."""
        if (self.state[pfns] != STATE_FREE).any():
            raise ValueError("attach_rows needs FREE frames")
        self.pid[pfns] = pid
        self.vpn[pfns] = vpns
        self.state[pfns] = STATE_MAPPED

    def detach_row(self, pfn: int) -> None:
        """Unbind a frame and reset per-mapping statistics."""
        self.pid[pfn] = NONE_SENTINEL
        self.vpn[pfn] = NONE_SENTINEL
        self.state[pfn] = STATE_FREE
        self.reads[pfn] = 0
        self.writes[pfn] = 0
        self.heat[pfn] = 0.0
        self.epoch_reads[pfn] = 0
        self.epoch_writes[pfn] = 0
        self.shadow_pfn[pfn] = NONE_SENTINEL
        self.dirty_since_copy[pfn] = False
        self.tids_lo[pfn] = 0
        self.tids_hi[pfn] = 0
        self.touched[pfn] = False

    # -- consistency checks (exercised by the property tests) ------------

    def check_row_invariants(self) -> None:
        """Raise AssertionError if any row is internally inconsistent."""
        free = self.state == STATE_FREE
        assert (self.pid[free] == NONE_SENTINEL).all(), "free frame with pid"
        assert (self.vpn[free] == NONE_SENTINEL).all(), "free frame with vpn"
        assert (self.reads[free] == 0).all(), "free frame with read count"
        assert (self.writes[free] == 0).all(), "free frame with write count"
        assert (self.heat[free] == 0.0).all(), "free frame with heat"
        mapped = (self.state == STATE_MAPPED) | (self.state == STATE_MIGRATING)
        assert (self.pid[mapped] != NONE_SENTINEL).all(), "mapped frame without pid"
        assert (self.vpn[mapped] != NONE_SENTINEL).all(), "mapped frame without vpn"
        nonzero = (self.epoch_reads > 0) | (self.epoch_writes > 0)
        assert (self.touched[nonzero]).all(), "epoch counters outside touched set"
