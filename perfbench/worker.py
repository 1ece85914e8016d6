"""One worker process of the benchmark: set up and run one workload.

    PYTHONPATH=src python3 perfbench/worker.py --workload colocation --seed 1 [--trace]

Runs the workload's repetitions and prints one JSON object as its last
line of standard output.  ``run.py`` starts a fresh worker for every
sample because ``ru_maxrss`` is a per-process high-water mark: a worker
that had run ``hugeheap`` would report its ~0.9 GB for any later run.

Every repetition builds the experiment ``SETUP_REPEATS`` times (each
build timed, only the last one run), times each epoch, notes which
epochs admitted a workload, and checks frame and credit conservation
when the run ends.  With ``--trace`` the layer boundaries of
``layers.py`` are wrapped as well.
"""

from __future__ import annotations

import argparse
import json
import platform
import traceback
from contextlib import nullcontext
from time import perf_counter_ns

from layers import LAYERS, LayerClock, installed
from workloads import WORKLOADS

#: builds timed per repetition; the last one is the one that runs
SETUP_REPEATS = 3
#: final epochs over which the simulated metrics are taken
WINDOW = 10


def sim_metrics(result) -> dict:
    """Simulated outcome of one run: deterministic for a given seed.

    Taken over the final ``WINDOW`` epochs of the workloads still
    running at the end (a departed workload's series ends early).
    """
    import numpy as np
    from repro.metrics.fairness import cfi

    last = result.n_epochs - 1
    alive = [ts for ts in result.workloads.values() if ts.last_epoch == last]
    alloc = {ts.pid: np.asarray(ts.fast_pages[-WINDOW:], float) for ts in alive}
    fthr = {ts.pid: np.asarray(ts.fthr_true[-WINDOW:], float) for ts in alive}
    return {
        "sim_cfi": float(cfi(alloc, fthr)),
        "sim_fthr_min": min(float(f.mean()) for f in fthr.values()),
        "sim_ops_total": sum(float(np.mean(ts.ops[-WINDOW:])) for ts in alive),
        "sim_migration_mcycles": float(np.mean(result.migration_cycles)) / 1e6,
    }


def run_rep(workload, seed: int, clock: LayerClock | None) -> dict:
    setup_ns = []
    for _ in range(SETUP_REPEATS):
        exp = None  # drop the previous build before timing the next
        t0 = perf_counter_ns()
        exp = workload.build(seed)
        setup_ns.append(perf_counter_ns() - t0)

    #: one [wall_ns, workloads admitted, pages admitted] per epoch
    epochs: list[list[int]] = []
    admission_self = dict.fromkeys(LAYERS, 0)
    registered = exp.policy.workloads
    step = exp._step_epoch

    def timed_step(result, epoch, tracer):
        before = set(registered)
        mark = dict(clock.self_ns) if clock is not None else None
        t0 = perf_counter_ns()
        step(result, epoch, tracer)
        wall = perf_counter_ns() - t0
        new = registered.keys() - before
        # admitted pages from the new processes' RSS, not a per-fault count
        pages = sum(registered[pid].space.process.rss_pages for pid in new)
        epochs.append([wall, len(new), pages])
        if clock is not None and new:
            for layer, ns in clock.self_ns.items():
                admission_self[layer] += ns - mark[layer]

    exp._step_epoch = timed_step
    if clock is not None:
        clock.reset()
    t0 = perf_counter_ns()
    result = exp.run(workload.epochs)
    run_ns = perf_counter_ns() - t0

    exp.allocator.check_consistency()
    exp.policy.daemon.credits.check_conservation()
    rep = {"setup_ns": setup_ns, "run_ns": run_ns, "epochs": epochs, "sim": sim_metrics(result)}
    if clock is not None:
        rep["layers"] = {
            "self_ns": dict(clock.self_ns),
            "admission_epochs_self_ns": admission_self,
            "counts": dict(clock.counts),
        }
    return rep


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    from repro import kernels
    from repro.harness.bench import peak_rss_kb

    workload = WORKLOADS[args.workload]
    clock = LayerClock() if args.trace else None
    reps = []
    with installed(clock) if clock is not None else nullcontext():
        for _ in range(workload.reps):
            try:
                reps.append(run_rep(workload, args.seed, clock))
            except Exception:  # a failed run is counted, not fatal
                reps.append({"error": traceback.format_exc()})
    print(json.dumps({
        "backend": kernels.BACKEND,
        "python": platform.python_version(),
        "traced": args.trace,
        "peak_rss_kb": peak_rss_kb(),
        "reps": reps,
    }))


if __name__ == "__main__":
    main()
