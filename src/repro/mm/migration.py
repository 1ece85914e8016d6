"""The five-phase page migration engine.

Paper §2.1 decomposes migration into: ① kernel trapping, ② PTE locking
and unmapping, ③ TLB shootdown via IPIs, ④ content copy between tiers,
⑤ PTE remapping.  This engine executes those phases against the
*structural* substrate (page tables, TLBs, allocator, LRU) while cycle
costs come from the calibrated :class:`MigrationCostModel`, so both the
mechanism's behaviour and its price are observable.

Every migration runs through one executor,
:meth:`MigrationEngine.migrate_batch` (a single page is a batch of
one).  Each request takes one of three routes (paper §3.5, Table 1):

* **sync** — the blocking path (TPP promotion, Vulcan's write-intensive
  pages): unmap → shootdown → copy → remap, and threads touching the
  page stall from the shootdown on.
* **transactional** (``sync=False``) — Nomad/Vulcan: the page *stays
  mapped* during the copy; a write during the copy window dirties the
  destination and the transaction retries, up to a bound, then falls
  back to sync.  Only the commit window stalls.  This is what makes
  async copying lose on write-intensive pages (paper Observation #4 /
  Fig. 4).
* **remap-only demotion** — a clean fast page whose slow-tier shadow is
  still retained is demoted by repointing its PTE at the shadow; no
  copy is paid.

The executor's contract:

* *One sequential pass.*  Cost charges (one float add per charge, in
  phase order), RNG draws, fault rolls, free-list pops and appends, LRU
  and shadow bookkeeping, and radix PTE stores run in request order.
  Per-frame store rows and the flat PTE mirror are written once per
  batch as grouped numpy scatters.
* *Repeated vpns are rejected.*  A batch naming a vpn twice raises
  ``ValueError`` before any state changes; unique vpns are what make
  the rows the scatters write pairwise disjoint.
* *Faults draw on the injector's own stream.*  With a
  ``fault_injector`` attached, ``POISONED_SHADOW``, ``ABORTED_SYNC``
  and ``LOST_ASYNC`` are rolled at fixed points of a move; the engine's
  RNG is never touched by them.  A faulted move's destination frame
  goes back to the tail of its free list.  No injector, no draws.
* *Frees are guarded.*  Every frame a batch frees is checked once per
  batch against the free-list bitmap, as :meth:`FrameAllocator.free`
  checks one frame.
* *Observability emits, never selects.*  Tracing adds per-charge phase
  events, clock advances, shootdown events and the ``migrate_batch``
  span; metrics add counters.  Neither changes which code runs or what
  it computes.

Vulcan's two mechanism optimizations are flags:

* ``opt_prep`` — scoped (per-application) LRU drain instead of
  ``lru_add_drain_all()``;
* ``opt_tlb`` — per-thread page-table shootdown scoping via
  :func:`repro.mm.tlb_coherence.compute_scope`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.machine.platform import Machine
from repro.mm import pte as pte_mod
from repro.mm.address_space import AddressSpace
from repro.mm.frame_alloc import FrameAllocator
from repro.mm.lru import LruSubsystem
from repro.mm.migration_costs import MigrationCostModel
from repro.mm.page_store import (
    NONE_SENTINEL,
    STATE_FREE,
    STATE_MAPPED,
    STATE_SHADOW,
)
from repro.mm.page_table import LEVEL_BITS
from repro.mm.shadow import ShadowTracker
from repro.mm.tlb_coherence import ShootdownScope, compute_scope, execute_shootdown
from repro.obs.events import EventKind
from repro.obs.trace import get_tracer


class MigrationPhase(enum.Enum):
    """The five phases of §2.1's migration mechanism, plus the batch-level
    preparation (LRU drain + isolation) that precedes them."""

    PREP = "prep"
    TRAP = "trap"
    UNMAP = "unmap"
    SHOOTDOWN = "shootdown"
    COPY = "copy"
    REMAP = "remap"


class MigrationOutcome(enum.Enum):
    SUCCESS = "success"
    RETRIED = "retried"  # transactional copy restarted at least once
    FELL_BACK_SYNC = "fell_back_sync"  # transactional gave up, went sync
    FAILED = "failed"  # no destination frame, or an injected fault


class FaultKind(enum.Enum):
    """Typed injected-fault outcomes (scenario fault model).

    Each names the way a migration dies and what the engine must absorb
    without corrupting page state:

    * ``ABORTED_SYNC`` — a blocking migration aborts mid-copy (page
      pinned / refcount raced): the work up to the abort is wasted stall,
      the PTE is restored at the source, the destination frame freed.
    * ``LOST_ASYNC`` — a background (transactional) work item is dropped
      before commit: a full copy's worth of cycles wasted off the
      critical path, source stays mapped, destination freed.
    * ``POISONED_SHADOW`` — a retained slow-tier twin is found corrupt
      exactly when a remap-demotion wants it: the shadow is discarded
      and the demotion falls back to a full copy.
    """

    ABORTED_SYNC = "aborted_sync"
    LOST_ASYNC = "lost_async"
    POISONED_SHADOW = "poisoned_shadow"


class MigrationRequest(NamedTuple):
    """One page to move."""

    pid: int
    vpn: int
    dest_tier: int
    sync: bool = True
    #: Expected write fraction, used by the transactional engine to
    #: simulate dirty-during-copy probability.
    write_fraction: float = 0.0
    #: Concurrent access rate to this page (accesses per 1K cycles),
    #: driving the dirty-probability model during async copy windows.
    access_rate_per_kcycle: float = 0.0


@dataclass
class MigrationStats:
    """Aggregate accounting for one engine."""

    migrations: int = 0
    pages_moved: int = 0
    promotions: int = 0
    demotions: int = 0
    retries: int = 0
    sync_fallbacks: int = 0
    failures: int = 0
    shadow_remaps: int = 0
    #: injected faults absorbed, keyed by FaultKind value
    faults_injected: dict[str, int] = field(default_factory=dict)
    total_cycles: float = 0.0
    stall_cycles: float = 0.0  # cycles application threads were blocked
    phase_cycles: dict[str, float] = field(
        default_factory=lambda: {p.value: 0.0 for p in MigrationPhase}
    )

    def charge(self, phase: MigrationPhase, cycles: float) -> None:
        self.phase_cycles[phase.value] += cycles
        self.total_cycles += cycles


@dataclass(frozen=True)
class OptimizationFlags:
    """Which of Vulcan's mechanism optimizations are active."""

    opt_prep: bool = False
    opt_tlb: bool = False
    #: CPUs whose pagevecs a scoped drain covers (the app's cores).
    prep_scope_cpus: int = 2
    #: Retry bound before a transactional copy falls back to sync.
    async_retry_limit: int = 3


#: Cost of the kernel trap / syscall entry for a migration call.
TRAP_CYCLES = 600.0

#: Precomputed phase-key strings (enum ``.value`` lookups were hot).
_PREP_KEY = MigrationPhase.PREP.value
_TRAP_KEY = MigrationPhase.TRAP.value
_UNMAP_KEY = MigrationPhase.UNMAP.value
_SHOOTDOWN_KEY = MigrationPhase.SHOOTDOWN.value
_COPY_KEY = MigrationPhase.COPY.value
_REMAP_KEY = MigrationPhase.REMAP.value


class MigrationEngine:
    """Executes migrations for one process against shared hardware."""

    def __init__(
        self,
        machine: Machine,
        allocator: FrameAllocator,
        space: AddressSpace,
        lru: LruSubsystem,
        *,
        cost_model: MigrationCostModel | None = None,
        flags: OptimizationFlags | None = None,
        thread_core_map: dict[int, int] | None = None,
        shadow: ShadowTracker | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.machine = machine
        self.allocator = allocator
        self.space = space
        self.lru = lru
        self.costs = cost_model if cost_model is not None else MigrationCostModel()
        self.flags = flags if flags is not None else OptimizationFlags()
        self.thread_core_map = thread_core_map
        self.shadow = shadow
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.stats = MigrationStats()
        self._tracer = get_tracer()
        self._store = allocator.store
        self._repl = space.process.repl
        self._cpu = machine.cpu
        #: per-thread shootdown scoping needs replicated page tables
        self._scoped = self.flags.opt_tlb and self._repl.enabled
        # Per-page cost constants.  Recomputing the batch formulas for
        # one page every call produced the same floats (the models are
        # pure), so hoisting them preserves bit-identical accounting.
        self._fixed1 = self.costs.batch_fixed_cycles(1)
        self._unmap1 = self._fixed1 * 0.55
        self._remap1 = self._fixed1 * 0.45
        self._copy1 = self.costs.batch_copy_cycles(1)
        self._prep_cost = (
            self.costs.prep_opt_cycles(self.flags.prep_scope_cpus)
            if self.flags.opt_prep
            else self.costs.prep_cycles(machine.cpu.n_cores)
        )
        self._tlb1_cache: dict[int, float] = {}
        # Shootdown-scope caches.  Private scope depends only on the
        # (fixed) thread→core pinning; shared scope on a leaf's linked
        # tids, which only ever grows, so a (len, cores) pair detects
        # staleness; process-wide scope likewise keys on thread count.
        # None of these are used when the live schedule must be read.
        self._core_of_private: dict[int, tuple[int, ...]] = {}
        self._shared_scope_cache: dict[int, tuple[int, tuple[int, ...]]] = {}
        self._pw_scope_cache: tuple[int, tuple[int, ...]] | None = None
        #: scenario-attached fault source; any object with
        #: ``roll(kind: FaultKind, pid: int, vpn: int) -> bool``.  None
        #: (the default) means the fault paths are completely inert —
        #: no RNG draws happen, so fault-free runs are bit-identical to
        #: runs of builds without fault injection.
        self.fault_injector = None

    # -- phase helpers -------------------------------------------------------

    def _charge_key(self, key: str, cycles: float) -> None:
        """Charge a batch-level phase cost (trap, prep) and trace it."""
        st = self.stats
        st.phase_cycles[key] += cycles
        st.total_cycles += cycles
        if self._tracer.enabled:
            self._emit_phase(key, cycles)

    def _emit_phase(self, key: str, cycles: float) -> None:
        """Trace one phase charge as an event and a cycle counter.

        The tracer's cycle clock advances by the charge so phase events
        and spans nest on the deterministic simulated timeline.
        """
        tracer = self._tracer
        pid = self.space.process.pid
        tracer.emit(
            EventKind.MIGRATION_PHASE,
            key,
            pid=pid,
            dur=cycles,
            args={"phase": key, "cycles": cycles},
        )
        tracer.advance(cycles)
        tracer.metrics.counter("migration_phase_cycles", workload=pid, phase=key).inc(cycles)

    def _prepare(self, n_pages: int) -> float:
        """Phase 0: LRU drain + isolation (the Fig. 2 'preparation')."""
        if self.flags.opt_prep:
            scope = list(range(min(self.flags.prep_scope_cpus, self.machine.cpu.n_cores)))
            self.lru.drain(scope)
        else:
            self.lru.drain(None)
        return self._prep_cost

    def _shootdown(self, vpn: int) -> float:
        """Phase ③: resolve scope, deliver IPIs, invalidate TLBs.

        Returns the model cycles.  The structural IPI cost is folded
        into the model cost (the model is calibrated to end-to-end
        measurements that already include it).

        With tracing on, the scope is built as a :class:`ShootdownScope`
        and run by :func:`execute_shootdown`, which emits the shootdown
        event.  Otherwise it is resolved through the cached fast paths
        and its effects (IPI stats, TLB entry pops) are applied
        directly.  Both leave identical state.
        """
        repl = self._repl
        cpu = self._cpu
        if self._tracer.enabled:
            if self._scoped:
                scope = compute_scope(
                    repl, cpu, vpn, thread_core_map=self.thread_core_map
                )
            else:
                # Process-wide: every thread of the process is a target.
                tids = repl.tids if repl.tids else set()
                if self.thread_core_map is not None:
                    cores = tuple(sorted({self.thread_core_map[t] for t in tids if t in self.thread_core_map}))
                else:
                    cores = tuple(sorted({c.core_id for c in cpu.cores_running(tids)}))
                scope = ShootdownScope(vpn=vpn, target_core_ids=cores, sharing_tids=tuple(sorted(tids)), process_wide=True)
            execute_shootdown(cpu, scope)
            n_targets = max(scope.n_targets, 1)
        else:
            cores = self._scope_cores(repl, cpu, vpn) if self._scoped else self._process_wide_cores(repl, cpu)
            if cores:
                cpu.deliver_ipis(cores)
                for core_id in cores:
                    tlb = cpu.cores[core_id].tlb
                    if tlb._map:
                        tlb.invalidate(vpn)
            n_targets = len(cores) or 1
        cost = self._tlb1_cache.get(n_targets)
        if cost is None:
            cost = self.costs.batch_tlb_cycles(1, n_targets)
            self._tlb1_cache[n_targets] = cost
        return cost

    def _scope_cores(self, repl, cpu, vpn: int) -> tuple[int, ...]:
        """:func:`compute_scope`'s target cores, via the flat mirror."""
        tcm = self.thread_core_map
        if tcm is None:
            # Live-schedule scope is mutable state — never cached.
            tids = repl.sharing_tids(vpn)
            return tuple(sorted({c.core_id for c in cpu.cores_running(tids)}))
        flat = repl.flat
        i = vpn - flat.base
        if i < 0 or i >= flat.pfn.size or flat.pfn[i] < 0:
            return ()
        owner = int(flat.owner[i])
        if owner != pte_mod.PTE_SHARED_TID:
            cached = self._core_of_private.get(owner)
            if cached is None:
                cached = (tcm[owner],) if owner in tcm else ()
                self._core_of_private[owner] = cached
            return cached
        base = vpn >> LEVEL_BITS
        tids = repl._leaf_tids.get(base)
        if not tids:
            return ()
        entry = self._shared_scope_cache.get(base)
        if entry is not None and entry[0] == len(tids):
            return entry[1]
        cores = tuple(sorted({tcm[t] for t in tids if t in tcm}))
        self._shared_scope_cache[base] = (len(tids), cores)
        return cores

    def _process_wide_cores(self, repl, cpu) -> tuple[int, ...]:
        """Every core running any thread of the process."""
        tids = repl.thread_tables
        tcm = self.thread_core_map
        if tcm is None:
            return tuple(sorted({c.core_id for c in cpu.cores_running(tids.keys())}))
        entry = self._pw_scope_cache
        if entry is not None and entry[0] == len(tids):
            return entry[1]
        cores = tuple(sorted({tcm[t] for t in tids if t in tcm}))
        self._pw_scope_cache = (len(tids), cores)
        return cores

    # -- injected faults ---------------------------------------------------------

    def _roll_fault(self, kind: FaultKind, req: MigrationRequest) -> bool:
        """Ask the attached injector whether this migration faults.

        With no injector attached this is a pure branch — no RNG state
        is consumed, preserving bit-identical fault-free runs.
        """
        inj = self.fault_injector
        if inj is None or not inj.roll(kind, pid=req.pid, vpn=req.vpn):
            return False
        self.stats.faults_injected[kind.value] = (
            self.stats.faults_injected.get(kind.value, 0) + 1
        )
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(
                EventKind.FAULT_INJECTED,
                kind.value,
                pid=req.pid,
                args={"kind": kind.value, "vpn": req.vpn, "dest_tier": req.dest_tier},
            )
        if tracer.metrics.enabled:
            tracer.metrics.counter("faults_injected", workload=req.pid, kind=kind.value).inc()
        return True

    # -- public API -----------------------------------------------------------

    def migrate(self, request: MigrationRequest) -> MigrationOutcome:
        """Migrate a single page through the five phases."""
        outcomes = self.migrate_batch([request])
        return outcomes[0]

    def migrate_batch(self, requests: list[MigrationRequest]) -> list[MigrationOutcome]:
        """Migrate a batch; preparation is paid once per call, as in
        ``migrate_pages()``.

        Raises ``ValueError``, before any state changes, when two
        requests name the same vpn.
        """
        if not requests:
            return []
        if len({r.vpn for r in requests}) != len(requests):
            raise ValueError("migrate_batch: a batch may name each vpn at most once")
        with self._tracer.span(
            "migrate_batch", pid=self.space.process.pid, pages=len(requests)
        ):
            return self._execute(requests)

    def _execute(self, requests: list[MigrationRequest]) -> list[MigrationOutcome]:
        """The executor: sequential bookkeeping, batched frame-store writes.

        Every order-sensitive effect runs in one loop over the requests
        (see the module docstring).  The per-frame stats-store and
        flat-mirror writes are deferred and applied as grouped numpy
        scatters; unique vpns make every written row belong to exactly
        one move, so the scatter order cannot change the result.
        """
        st = self.stats
        self._charge_key(_TRAP_KEY, TRAP_CYCLES)
        self._charge_key(_PREP_KEY, self._prepare(len(requests)))

        repl = self._repl
        flat = repl.flat
        store = self._store
        fast_frames = store.fast_frames
        shadow = self.shadow
        lru_lists = self.lru.lists
        pt_update = repl.process_table.update
        tiers = self.allocator.tiers
        retry_limit = self.flags.async_retry_limit
        pte_with_pfn = pte_mod.pte_with_pfn
        pte_clear_flag = pte_mod.pte_clear_flag
        pte_set_flag = pte_mod.pte_set_flag
        pte_tid = pte_mod.pte_tid
        pte_is_dirty = pte_mod.pte_is_dirty
        PTE_DIRTY = pte_mod.PTE_DIRTY
        PTE_SHADOW = pte_mod.PTE_SHADOW
        rng_random = self.rng.random
        # None when no injector is attached: no fault is ever rolled.
        roll = self._roll_fault if self.fault_injector is not None else None
        shootdown = self._shootdown
        tracer = self._tracer
        emit = self._emit_phase if tracer.enabled else None
        metrics = tracer.metrics if tracer.metrics.enabled else None

        # One vectorized translate for the whole batch (identical to a
        # value_of() per request: the mirror is only mutated at apply
        # time, and in-batch PTE rewrites never change the fields a
        # later move's translate or shootdown scope reads).
        n = len(requests)
        if flat.pfn.size:
            vpns_np = np.fromiter((r.vpn for r in requests), dtype=np.int64, count=n)
            idx_np = vpns_np - flat.base
            in_range = (idx_np >= 0) & (idx_np < flat.pfn.size)
            safe_idx = np.where(in_range, idx_np, 0)
            pfn_l = np.where(in_range, flat.pfn[safe_idx], -1).tolist()
            val_l = flat.value[safe_idx].tolist()
        else:
            pfn_l = [-1] * n
            val_l = [0] * n

        # Float accumulators: locals holding the running bucket values,
        # updated with one binary add per charge, written back once at
        # the end.
        pc = st.phase_cycles
        unmap_acc = pc[_UNMAP_KEY]
        sd_acc = pc[_SHOOTDOWN_KEY]
        copy_acc = pc[_COPY_KEY]
        remap_acc = pc[_REMAP_KEY]
        total = st.total_cycles
        stall = st.stall_cycles
        u1 = self._unmap1
        r1 = self._remap1
        c1 = self._copy1

        # Deferred scatter groups.
        fin_vpn: list[int] = []; fin_pid: list[int] = []
        fin_src: list[int] = []; fin_dest: list[int] = []
        sh_vpn: list[int] = []; sh_pid: list[int] = []
        sh_src: list[int] = []; sh_dst: list[int] = []
        mir_vpn: list[int] = []; mir_pfn: list[int] = []
        mir_val: list[int] = []; mir_own: list[int] = []; mir_dirty: list[bool] = []
        keep_src: list[int] = []  # sources retained as shadow rows
        freed: list[int] = []     # frames detached and freed
        txn_src: list[int] = []   # committed transactional sources (dirty reset)

        outcomes: list[MigrationOutcome] = []
        append_out = outcomes.append
        SUCCESS = MigrationOutcome.SUCCESS
        RETRIED = MigrationOutcome.RETRIED
        FELL_BACK = MigrationOutcome.FELL_BACK_SYNC
        FAILED = MigrationOutcome.FAILED

        for req, src_pfn, value in zip(requests, pfn_l, val_l):
            if src_pfn < 0:
                st.failures += 1
                append_out(FAILED)
                continue
            vpn = req.vpn
            dest_tier = req.dest_tier
            src_tier = 0 if src_pfn < fast_frames else 1
            if src_tier == dest_tier:
                append_out(SUCCESS)
                continue

            # Pick the route.  Each move that reaches the window below
            # runs it exactly once; ``copy`` is what it copies (None:
            # remap only).
            remap = (
                shadow is not None
                and dest_tier == 1
                and shadow.can_remap_demote(src_pfn, dirty=pte_is_dirty(value))
            )
            if remap and roll is not None and roll(FaultKind.POISONED_SHADOW, req):
                # The retained copy is corrupt: free it now (a later pop
                # may reuse it) and fall back to a full-copy demotion.
                remap = False
                stale = shadow.poison(src_pfn)
                if stale is not None:
                    tiers[0 if stale < fast_frames else 1].free_list.append(stale)
                    freed.append(stale)
            if remap:
                dest_pfn = shadow.shadow_of(src_pfn)
                copy = None
                outcome = SUCCESS
            else:
                # Allocate the destination (no fallback to the other tier).
                dest_list = tiers[dest_tier].free_list
                if not dest_list:
                    st.failures += 1
                    append_out(FAILED)
                    continue
                dest_pfn = dest_list.popleft()
                if dest_pfn >= store.capacity:
                    store.ensure(dest_pfn + 1)
                if req.sync:
                    if roll is not None and roll(FaultKind.ABORTED_SYNC, req):
                        copy = c1 * 0.5  # dies half way through the copy
                        outcome = FAILED
                    else:
                        copy = c1
                        outcome = SUCCESS
                else:
                    if roll is not None and roll(FaultKind.LOST_ASYNC, req):
                        # The background copy ran (no stall: the page
                        # stayed mapped) but never committed.
                        copy_acc += c1; total += c1
                        if emit: emit(_COPY_KEY, c1)
                        dest_list.append(dest_pfn)
                        st.failures += 1
                        append_out(FAILED)
                        continue
                    # Nomad-style transaction: a write inside a copy
                    # window (Bernoulli, writes at rate·write_fraction
                    # per kilocycle) aborts and retries the copy; past
                    # the retry bound the write-blocking sync path takes
                    # over.  Otherwise only the commit window stalls.
                    txn_src.append(src_pfn)
                    lam = req.access_rate_per_kcycle * req.write_fraction / 1_000.0
                    p_dirty = 1.0 - float(np.exp(-lam * c1)) if lam > 0.0 else 0.0
                    retries = 0
                    copy = None
                    outcome = SUCCESS
                    while True:
                        copy_acc += c1; total += c1
                        if emit: emit(_COPY_KEY, c1)
                        if lam <= 0.0 or not (rng_random() < p_dirty):
                            break
                        retries += 1
                        st.retries += 1
                        if retries > retry_limit:
                            st.sync_fallbacks += 1
                            copy = c1
                            outcome = FELL_BACK
                            break
                        outcome = RETRIED

            # The window: unmap → shootdown → [copy] → remap.  Threads
            # touching the page stall from the shootdown to the remap.
            unmap_acc += u1; total += u1
            if emit: emit(_UNMAP_KEY, u1)
            tlb_cycles = shootdown(vpn)
            sd_acc += tlb_cycles; total += tlb_cycles
            if emit: emit(_SHOOTDOWN_KEY, tlb_cycles)
            if copy is None:
                stall += tlb_cycles
            else:
                copy_acc += copy; total += copy
                if emit: emit(_COPY_KEY, copy)
                stall += tlb_cycles + copy
            remap_acc += r1; total += r1
            if emit: emit(_REMAP_KEY, r1)

            if outcome is FAILED:
                # Aborted sync: the PTE is restored at the untouched
                # source.  The destination's row was never written, so
                # the frame just rejoins its free list.
                dest_list.append(dest_pfn)
                st.failures += 1
                append_out(FAILED)
                continue

            if remap:
                # Remap-only demotion onto the retained slow-tier twin.
                nv = pte_clear_flag(pte_with_pfn(value, dest_pfn), PTE_SHADOW)
                pt_update(vpn, nv)
                mir_vpn.append(vpn); mir_pfn.append(dest_pfn)
                mir_val.append(nv); mir_own.append(pte_tid(nv)); mir_dirty.append(pte_is_dirty(nv))
                sh_vpn.append(vpn); sh_pid.append(req.pid)
                sh_src.append(src_pfn); sh_dst.append(dest_pfn)
                shadow.consume(src_pfn)
                lsrc = lru_lists[0]
                if src_pfn in lsrc:
                    lsrc.remove(src_pfn)
                ldst = lru_lists[1]
                if dest_pfn not in ldst:
                    ldst.insert(dest_pfn)
                tiers[src_tier].free_list.append(src_pfn)
                freed.append(src_pfn)
                st.demotions += 1
                st.pages_moved += 1
                st.shadow_remaps += 1
                append_out(SUCCESS)
                continue

            # Commit: repoint the PTE, move the row, release or shadow
            # the source.
            keep_shadow = shadow is not None and dest_tier == 0 and src_tier == 1
            nv = pte_clear_flag(pte_with_pfn(value, dest_pfn), PTE_DIRTY)
            if keep_shadow:
                nv = pte_set_flag(nv, PTE_SHADOW)
            pt_update(vpn, nv)
            mir_vpn.append(vpn); mir_pfn.append(dest_pfn)
            mir_val.append(nv); mir_own.append(pte_tid(nv)); mir_dirty.append(pte_is_dirty(nv))
            fin_vpn.append(vpn); fin_pid.append(req.pid)
            fin_src.append(src_pfn); fin_dest.append(dest_pfn)
            lsrc = lru_lists[src_tier]
            if src_pfn in lsrc:
                lsrc.remove(src_pfn)
            ldst = lru_lists[dest_tier]
            if dest_pfn not in ldst:
                ldst.insert(dest_pfn)
            if keep_shadow:
                shadow.retain(fast_pfn=dest_pfn, shadow_pfn=src_pfn)
                keep_src.append(src_pfn)
            else:
                tiers[src_tier].free_list.append(src_pfn)
                freed.append(src_pfn)
            st.pages_moved += 1
            if dest_tier == 0:
                st.promotions += 1
            else:
                st.demotions += 1
            if metrics is not None:
                metrics.counter(
                    "pages_moved", workload=req.pid, tier="fast" if dest_tier == 0 else "slow"
                ).inc()
            append_out(outcome)

        pc[_UNMAP_KEY] = unmap_acc
        pc[_SHOOTDOWN_KEY] = sd_acc
        pc[_COPY_KEY] = copy_acc
        pc[_REMAP_KEY] = remap_acc
        st.total_cycles = total
        st.stall_cycles = stall
        st.migrations += 1

        # -- apply deferred writes ---------------------------------------
        # Every source row is a pristine pre-batch row (a frame freed
        # in-batch can only be re-allocated as a destination, never read
        # as a source), so gather every src-carried column first, apply
        # the detach scatter, then rebuild destination rows — which
        # resolves freed-then-reallocated frames to their final (bound)
        # row.  Fault-returned destinations were never written.  A moved
        # page carries its counters, heat and tid masks; its
        # last_access_cycle, shadow_pfn and dirty_since_copy stay behind.
        if freed:
            d = np.array(freed, dtype=np.int64)
            _check_frees(store, d)
        if sh_dst:
            sdst = np.array(sh_dst, dtype=np.int64)
            sh_heat = store.heat[np.array(sh_src, dtype=np.int64)]
        if fin_dest:
            fsrc = np.array(fin_src, dtype=np.int64)
            fdst = np.array(fin_dest, dtype=np.int64)
            g_heat = store.heat[fsrc]
            g_reads = store.reads[fsrc]
            g_writes = store.writes[fsrc]
            g_er = store.epoch_reads[fsrc]
            g_ew = store.epoch_writes[fsrc]
            g_lo = store.tids_lo[fsrc]
            g_hi = store.tids_hi[fsrc]
        if freed:
            store.pid[d] = NONE_SENTINEL
            store.vpn[d] = NONE_SENTINEL
            store.state[d] = STATE_FREE
            store.reads[d] = 0
            store.writes[d] = 0
            store.heat[d] = 0.0
            store.epoch_reads[d] = 0
            store.epoch_writes[d] = 0
            store.shadow_pfn[d] = NONE_SENTINEL
            store.dirty_since_copy[d] = False
            store.tids_lo[d] = 0
            store.tids_hi[d] = 0
            store.touched[d] = False
            store.in_free_list[d] = True
        if sh_dst:
            store.pid[sdst] = sh_pid
            store.vpn[sdst] = sh_vpn
            store.state[sdst] = STATE_MAPPED
            store.heat[sdst] = sh_heat
        if fin_dest:
            store.pid[fdst] = fin_pid
            store.vpn[fdst] = fin_vpn
            store.state[fdst] = STATE_MAPPED
            store.heat[fdst] = g_heat
            store.reads[fdst] = g_reads
            store.writes[fdst] = g_writes
            store.epoch_reads[fdst] = g_er
            store.epoch_writes[fdst] = g_ew
            store.touched[fdst] = (g_er != 0) | (g_ew != 0)
            store.tids_lo[fdst] = g_lo
            store.tids_hi[fdst] = g_hi
            store.tier_id[fdst] = fdst >= fast_frames
            store.in_free_list[fdst] = False
        if txn_src:
            store.dirty_since_copy[np.array(txn_src, dtype=np.int64)] = False
        if keep_src:
            store.state[np.array(keep_src, dtype=np.int64)] = STATE_SHADOW
        if mir_vpn:
            midx = np.array(mir_vpn, dtype=np.int64) - flat.base
            flat.pfn[midx] = mir_pfn
            flat.owner[midx] = mir_own
            flat.dirty[midx] = mir_dirty
            flat.value[midx] = mir_val
        return outcomes


def _check_frees(store, pfns: np.ndarray) -> None:
    """:meth:`FrameAllocator.free`'s double-free guard over one batch:
    no frame may already be on a free list or be freed twice."""
    pfns = np.sort(pfns)
    bad = pfns[store.in_free_list[pfns]]
    if not bad.size:
        bad = pfns[1:][pfns[1:] == pfns[:-1]]
    if bad.size:
        raise ValueError(f"double free of pfn {int(bad[0])}")
