"""Workload interface for the epoch-driven harness.

A workload owns a virtual region (its RSS) inside a process the harness
creates, and produces each epoch's traffic as one
:class:`~repro.profiling.base.EpochPlan` with one segment per thread.
Per-thread generation matters: Vulcan's page classification
distinguishes *which* threads touch a page, so generators partition or
share their working sets across threads explicitly.

The issue model separates *intent* from *achievement*: a workload asks
to issue ``issue_rate(epoch)`` × budget accesses; the harness converts
achieved memory latency into achieved throughput (the performance
metric).  ``issue_rate`` < 1 models LC burstiness.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass

import numpy as np

from repro.core.classify import ServiceClass
from repro.mm.address_space import Vma
from repro.profiling.base import EpochPlan


@dataclass(frozen=True)
class WorkloadSpec:
    """Static description the harness uses to set a workload up."""

    name: str
    service: ServiceClass
    rss_pages: int
    n_threads: int = 8
    start_epoch: int = 0
    #: requested accesses per thread per epoch at issue_rate = 1
    accesses_per_thread: int = 20_000
    #: tier the RSS is faulted into at admission (0 = fast-first with
    #: fallback, Linux default; 1 = slow, as in the Nomad microbenchmark
    #: that "allocates data to specific segments of the tiered memory")
    populate_tier: int = 0


class Workload:
    """Base class; subclasses implement :meth:`_thread_vpns`."""

    #: epochs of plans generated per :meth:`planned_epoch` burst.  The
    #: harness sets this: static runs prefetch (every plan is a pure
    #: function of (seed, epoch, spec), so building several back to
    #: back batches the Zipf LUT sampling across epochs); the scenario
    #: engine pins it to 1 because scripted events may reshape a
    #: workload between epochs, and a prefetched plan would have
    #: consumed ``issue_rate`` RNG draws the reshaped generator should
    #: have made.
    plan_horizon = 1

    def __init__(self, spec: WorkloadSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed
        self.pid: int | None = None
        self.vma: Vma | None = None
        self._rng = np.random.default_rng(seed)
        #: epoch -> (issue_rate, EpochPlan) built by the current burst
        self._plan_cache: dict[int, tuple[float, EpochPlan]] = {}
        #: per-burst-slot reusable plan buffers (allocation-free epochs)
        self._plan_slots: list[dict] = []
        self._plan_tids: np.ndarray | None = None

    # -- harness binding -----------------------------------------------------

    def bind(self, pid: int, vma: Vma) -> None:
        """Called once by the harness after the VMA is created."""
        self.pid = pid
        self.vma = vma
        self._on_bind()

    def _on_bind(self) -> None:
        """Subclass hook (e.g. build index structures over the VMA)."""

    @classmethod
    def knobs(cls) -> dict[str, object]:
        """Keyword-only constructor knobs (with defaults) the instance
        keeps under the same name, so :meth:`reshape` can reassign them."""
        params = inspect.signature(cls.__init__).parameters.values()
        return {p.name: p.default for p in params
                if p.kind is p.KEYWORD_ONLY and not callable(getattr(cls, p.name, None))}

    @classmethod
    def check_knobs(cls, attrs: dict) -> None:
        """The one rule for constructor ``params`` and :meth:`reshape`
        ``attrs``: only :meth:`knobs`, each a finite real number (a bool
        where the default is one), so a bad knob fails at the spec
        boundary instead of mid-run."""
        knobs = cls.knobs()
        for name, value in attrs.items():
            if name not in knobs:
                raise ValueError(f"{cls.__name__} has no knob {name!r} (pick from {sorted(knobs)})")
            is_bool = isinstance(value, (bool, np.bool_))
            real = is_bool or (isinstance(value, numbers.Real) and math.isfinite(value))
            if not real or is_bool != isinstance(knobs[name], bool):
                want = "a bool" if isinstance(knobs[name], bool) else "a finite real number"
                raise ValueError(f"{cls.__name__} knob {name!r} must be {want}, got {value!r}")

    def reshape(self, attrs: dict | None = None, reseed: int | None = None) -> None:
        """Scenario phase shift: mutate generator knobs on a live workload.

        ``attrs`` reassigns :meth:`knobs` (e.g. a Memcached ``hot_frac``
        resize or a Zipf skew change), checked by :meth:`check_knobs`;
        ``reseed`` replaces the layout seed.  Either way :meth:`_on_bind`
        re-runs so derived structures (hot-set permutations, samplers)
        are rebuilt over the *same* VMA — the process, its pages, and
        its profile history all survive; only future traffic changes
        shape.
        """
        if self.pid is None or self.vma is None:
            raise RuntimeError(f"workload {self.name!r} not bound to a process")
        attrs = attrs or {}
        self.check_knobs(attrs)
        for name, value in attrs.items():
            setattr(self, name, value)
        if reseed is not None:
            self.seed = int(reseed)
        # Any prefetched plans were built by the pre-reshape generator;
        # they must not outlive it.
        self._plan_cache.clear()
        self._on_bind()

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def service(self) -> ServiceClass:
        return self.spec.service

    # -- per-epoch generation ---------------------------------------------------

    def issue_rate(self, epoch: int) -> float:
        """Fraction of the access budget the workload tries to use this
        epoch (1.0 = saturating).  Default: saturating (BE behaviour)."""
        return 1.0

    def planned_epoch(self, epoch: int) -> tuple[float, EpochPlan]:
        """This epoch's ``(issue_rate, EpochPlan)``, built in bursts.

        On a cache miss the next ``plan_horizon`` epochs of plans are
        built back to back into a rotating pool of reusable buffers
        (one slot per horizon step, so a cached plan is never
        overwritten before its epoch consumes it).

        Each planned epoch draws ``issue_rate`` twice: once for the
        returned rate (the performance model's demand) and once inside
        :meth:`_plan_into` for the access count, so a jittered workload
        (Memcached) runs ``A_e, B_e, A_{e+1}, B_{e+1}, ...`` on its RNG
        stream.  The pair is a relic of the old harness/generator
        split, but every golden with a jittered workload pins that
        stream, so dropping a draw is a behaviour change that needs
        re-captured goldens.  Prefetching keeps the same order.

        The returned plan's arrays are *views into reused buffers*:
        valid until ``plan_horizon`` further epochs have been planned,
        which the epoch-driven harness guarantees by consuming each
        plan within its epoch.  A caller that holds two epochs must
        copy the first.
        """
        hit = self._plan_cache.pop(epoch, None)
        if hit is not None:
            return hit
        # Stale prefetch (epoch jumped, or reshape cleared the cache):
        # drop and rebuild from here.
        self._plan_cache.clear()
        horizon = max(int(self.plan_horizon), 1)
        for i in range(horizon):
            e = epoch + i
            issue = self.issue_rate(e)
            self._plan_cache[e] = (issue, self._plan_into(i, e))
        return self._plan_cache.pop(epoch)

    def _plan_into(self, slot_i: int, epoch: int) -> EpochPlan:
        """Build epoch ``epoch``'s plan into reusable buffer slot
        ``slot_i``: ``_thread_access`` per tid in order, written into the
        slot's buffers without per-epoch allocations."""
        if self.pid is None or self.vma is None:
            raise RuntimeError(f"workload {self.name!r} not bound to a process")
        n = int(self.spec.accesses_per_thread * self.issue_rate(epoch))
        nt = self.spec.n_threads
        while len(self._plan_slots) <= slot_i:
            self._plan_slots.append(
                {
                    "vpns": np.empty(0, dtype=np.int64),
                    "writes": np.empty(0, dtype=bool),
                    "offsets": np.zeros(nt + 1, dtype=np.int64),
                }
            )
        slot = self._plan_slots[slot_i]
        offsets = slot["offsets"]
        if offsets.size != nt + 1:
            offsets = slot["offsets"] = np.zeros(nt + 1, dtype=np.int64)
        if self._plan_tids is None or self._plan_tids.size != nt:
            self._plan_tids = np.arange(nt, dtype=np.int64)
        offsets[0] = 0
        if n <= 0:
            offsets[:] = 0
            return EpochPlan(
                pid=self.pid,
                vpns=slot["vpns"][:0],
                is_write=slot["writes"][:0],
                offsets=offsets,
                tids=self._plan_tids,
            )
        cap = n * nt
        if slot["vpns"].size < cap:
            slot["vpns"] = np.empty(cap, dtype=np.int64)
            slot["writes"] = np.empty(cap, dtype=bool)
        buf_v = slot["vpns"]
        buf_w = slot["writes"]
        pos = 0
        for tid in range(nt):
            vpns, writes = self._thread_access(tid, n, epoch)
            m = vpns.size
            if pos + m > buf_v.size:  # an op may emit several accesses (YCSB scans)
                buf_v = slot["vpns"] = np.resize(buf_v, 2 * (pos + m))
                buf_w = slot["writes"] = np.resize(buf_w, 2 * (pos + m))
            buf_v[pos : pos + m] = vpns
            buf_w[pos : pos + m] = writes
            pos += m
            offsets[tid + 1] = pos
        return EpochPlan(
            pid=self.pid,
            vpns=buf_v[:pos],
            is_write=buf_w[:pos],
            offsets=offsets,
            tids=self._plan_tids,
        )

    def _thread_access(self, tid: int, n: int, epoch: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (vpns, is_write) for one thread's epoch traffic."""
        raise NotImplementedError

    def first_touch_tids(self, offsets: np.ndarray) -> np.ndarray:
        """Which thread demand-faults each page ``offsets[i]`` of the VMA in.

        First touch sets PTE ownership (§3.4), so this must reflect the
        application's real initialization pattern: data-parallel apps
        fault their own shards in; shared structures are touched by
        whichever thread gets there first (modeled round-robin).
        """
        return np.asarray(offsets, dtype=np.int64) % self.spec.n_threads

    # -- metadata the harness/policies may query ---------------------------------

    def write_fraction(self) -> float:
        """Nominal overall write fraction (for documentation/tests)."""
        return 0.0

    def wss_pages(self) -> int:
        """Nominal working-set size in pages (defaults to RSS)."""
        return self.spec.rss_pages
