"""Outside-in host-time timers at the simulator's layer boundaries.

Each boundary is a public entry point of the program, wrapped from this
file for the length of a traced run.  A wrapped call charges its *self
time* to its layer: its wall time minus the wall time of wrapped calls
nested inside it, so an inner call is charged to the inner layer only.
The timers read ``time.perf_counter_ns`` and keep their totals in
memory; they are written out with the run's record when it ends.

``repro.obs`` stays off on purpose: enabling its tracer makes
``MigrationEngine.migrate_batch`` take the legacy executor, which would
change which code is measured.

Admission is not wrapped.  Timing the ~1M ``AddressSpace.fault`` calls
of ``hugeheap`` would inflate the layer, so the worker derives it:
admission time is the wall time of the epochs that admitted a workload
minus the self time of the other layers in those epochs.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter_ns

#: wrapped layers, in pipeline order ("admission" is derived, not wrapped)
LAYERS = ("traffic", "record", "profile", "partition", "plan", "migrate", "account", "teardown")

#: layer -> [(end-to-end metric it should move, workload where it shows)]
MOVES = {
    "admission": [("admit_s", "hugeheap"), ("epochs_per_s", "hugeheap"), ("admit_s", "churn")],
    "traffic": [("epoch_ms_p50", "colocation"), ("steady_epochs_per_s", "colocation")],
    "record": [("epoch_ms_p50", "colocation"), ("steady_epochs_per_s", "colocation")],
    "profile": [("epoch_ms_p50", "colocation"), ("steady_epochs_per_s", "colocation")],
    "partition": [
        ("sim_cfi", "colocation"), ("sim_cfi", "churn"),
        ("sim_fthr_min", "colocation"), ("sim_fthr_min", "churn"),
    ],
    "plan": [("epoch_ms_p50", "colocation")],
    "migrate": [
        ("epochs_per_s", "churn"), ("epochs_per_s", "colocation"),
        ("sim_migration_mcycles", "colocation"), ("sim_ops_total", "colocation"),
    ],
    "account": [("steady_epochs_per_s", "hugeheap")],
    "teardown": [("epochs_per_s", "churn")],
}


class LayerClock:
    """Self time (ns) and work counts per layer, for one traced run."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.counts: dict[str, float] = {}
        #: one cell per open wrapped call: wall ns of its wrapped children
        self._stack: list[list[int]] = []

    def reset(self) -> None:
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.counts = {}

    def add(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, layer: str, fn, count=None):
        """``fn`` timed as ``layer``; ``count(clock, args, result, before)``
        records work after each call, ``before`` being ``count.before(args)``
        taken just ahead of the call when ``count`` has such an attribute."""
        stack = self._stack
        before_fn = getattr(count, "before", None)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            before = before_fn(args) if before_fn is not None else None
            cell = [0]
            stack.append(cell)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                self.self_ns[layer] += dt - cell[0]
                if stack:
                    stack[-1][0] += dt
            if count is not None:
                count(self, args, out, before)
            return out

        return timed


# -- work counters ------------------------------------------------------------


def _count_traffic(clock, args, out, before):
    clock.add("traffic.accesses", out[1].n)


def _count_partition(clock, args, out, before):
    clock.add("partition.calls", 1)


def _count_selected(clock, args, out, before):
    clock.add("plan.pages_selected", len(out))


def _migrate_totals(args):
    st = args[0].stats
    return (st.pages_moved, st.failures, st.retries, st.total_cycles, st.stall_cycles)


def _count_migrate(clock, args, out, before):
    after = _migrate_totals(args)
    clock.add("migrate.pages_requested", len(args[1]))
    for key, b, a in zip(
        ("migrate.pages_moved", "migrate.failures", "migrate.retries",
         "migrate.sim_cycles", "migrate.sim_stall_cycles"),
        before, after,
    ):
        clock.add(key, a - b)


_count_migrate.before = _migrate_totals


def _count_freed(clock, args, out, before):
    clock.add("teardown.frames_freed", out["fast"] + out["slow"])


def boundaries():
    """(layer, owner, attribute, counter) for every wrapped entry point.

    Imported lazily so that this module loads without the program.
    """
    import repro.policies  # noqa: F401  (imports every policy/profiler subclass)
    from repro.core import daemon
    from repro.core.bias import BiasedMigrationPolicy
    from repro.core.qos import QosTracker
    from repro.mm.address_space import AddressSpace
    from repro.mm.frame_alloc import FrameAllocator
    from repro.mm.migration import MigrationEngine
    from repro.mm.page_store import PageStatsStore
    from repro.policies.base import TieringPolicy
    from repro.profiling.base import Profiler
    from repro.workloads.base import Workload

    return [
        ("traffic", Workload, "planned_epoch", _count_traffic),
        ("record", AddressSpace, "record_plan", None),
        ("profile", TieringPolicy, "observe_plan", None),
        ("profile", TieringPolicy, "record_tier_samples", None),
        ("profile", Profiler, "end_epoch", None),
        ("partition", QosTracker, "end_epoch", _count_partition),
        ("partition", QosTracker, "demands", _count_partition),
        # the daemon calls run_cbfrp through its own module namespace
        ("partition", daemon, "run_cbfrp", _count_partition),
        ("plan", BiasedMigrationPolicy, "refresh_candidates", None),
        ("plan", BiasedMigrationPolicy, "select_promotions", _count_selected),
        ("plan", BiasedMigrationPolicy, "select_demotions", _count_selected),
        ("migrate", MigrationEngine, "migrate_batch", _count_migrate),
        ("account", PageStatsStore, "ground_truth_hotness", None),
        ("account", PageStatsStore, "reset_epoch_counters", None),
        ("teardown", FrameAllocator, "free_pid", _count_freed),
    ]


def _owners(owner, attr):
    """``owner`` plus every subclass that overrides ``attr`` itself."""
    if not isinstance(owner, type):
        return [owner]
    seen, todo, out = set(), [owner], []
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in vars(cls):
            out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


@contextmanager
def installed(clock: LayerClock, table=None):
    """Wrap every boundary in ``table`` (default :func:`boundaries`) for
    the duration of the block, then restore the originals."""
    saved = []
    try:
        for layer, owner, attr, count in boundaries() if table is None else table:
            for target in _owners(owner, attr):
                orig = vars(target)[attr]
                saved.append((target, attr, orig))
                setattr(target, attr, clock.wrap(layer, orig, count))
        yield clock
    finally:
        for target, attr, orig in reversed(saved):
            setattr(target, attr, orig)
