"""The benchmark's arithmetic: from worker records to named metrics.

Pure functions over the JSON the workers print, so they are tested
without running the simulator (``perfbench/tests``).
"""

from __future__ import annotations

import math
import statistics

from layers import LAYERS

def tail_percentile(samples, q: float, min_beyond: int = 10) -> float | None:
    """Nearest-rank ``q``-th percentile, or None when fewer than
    ``min_beyond`` samples lie beyond it (p90 needs 100 samples)."""
    n = len(samples)
    if n == 0 or n * (100 - q) < 100 * min_beyond:
        return None
    ordered = sorted(samples)
    return ordered[max(math.ceil(q / 100 * n), 1) - 1]


def split_epochs(epochs) -> dict:
    """Admission vs steady-state host time of one run.

    ``epochs`` holds one ``[wall_ns, workloads admitted, pages]`` per
    epoch.  An epoch that admitted any workload (arrival or restart)
    is an admission epoch; every other epoch is steady.
    """
    admit_ns = sum(e[0] for e in epochs if e[1])
    steady = [e[0] for e in epochs if not e[1]]
    return {
        "admit_epochs": len(epochs) - len(steady),
        "admit_s": admit_ns / 1e9,
        "steady_epochs": len(steady),
        "steady_s": sum(steady) / 1e9,
        "admitted_pages": sum(e[2] for e in epochs),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def end_to_end(reps, peak_rss_kb) -> dict:
    """End-to-end metrics over the untraced repetitions.

    Rates are over all repetitions together, and so is admission time:
    the admission epochs' total over the number of repetitions.  The
    host's speed drifts in phases tens of seconds long, and a median
    over repetitions jumps to whichever phase holds most of a run,
    while a total weighs each phase by its share of the run.  Epoch
    percentiles pool every epoch of every repetition (p90 is None below
    100 epochs).  The ``sim_*``
    metrics are taken from the first repetition; the caller checks that
    every repetition agrees.
    """
    splits = [split_epochs(r["epochs"]) for r in reps]
    epoch_ms = [e[0] / 1e6 for r in reps for e in r["epochs"]]
    return {
        "epochs_per_s": sum(len(r["epochs"]) for r in reps) / sum(r["run_ns"] / 1e9 for r in reps),
        "steady_epochs_per_s": _ratio(
            sum(s["steady_epochs"] for s in splits), sum(s["steady_s"] for s in splits)
        ),
        "admit_s": statistics.fmean(s["admit_s"] for s in splits),
        "epoch_ms_p50": statistics.median(epoch_ms),
        "epoch_ms_p90": tail_percentile(epoch_ms, 90),
        "epochs_timed": len(epoch_ms),
        "setup_s": statistics.median(t / 1e9 for r in reps for t in r["setup_ns"]),
        "peak_rss_mb": statistics.median(kb / 1024 for kb in peak_rss_kb),
        **reps[0]["sim"],
    }


def rep_layers(rep) -> dict:
    """Per-layer metrics of one traced repetition.

    Admission is derived: the admission epochs' wall time minus the
    self time of the wrapped layers inside them.  ``other`` is the rest
    of the run's wall time, so the layers and ``other`` add up to it.
    """
    wall = rep["run_ns"]
    layers = rep["layers"]
    self_ns = layers["self_ns"]
    counts = layers["counts"]
    split = split_epochs(rep["epochs"])
    admission_ns = split["admit_s"] * 1e9 - sum(layers["admission_epochs_self_ns"].values())
    other_ns = wall - admission_ns - sum(self_ns.values())
    accesses = counts.get("traffic.accesses", 0)
    requested = counts.get("migrate.pages_requested", 0)
    pages = split["admitted_pages"]
    m = {
        "traced_wall_s": wall / 1e9,
        "admission.s": admission_ns / 1e9,
        "admission.pages": pages,
        "admission.us_per_page": _ratio(admission_ns / 1e3, pages),
        "admission.share": admission_ns / wall,
    }
    for layer in LAYERS:
        m[f"{layer}.s"] = self_ns[layer] / 1e9
        m[f"{layer}.share"] = self_ns[layer] / wall
    m.update({
        "traffic.accesses": accesses,
        "traffic.ns_per_access": _ratio(self_ns["traffic"], accesses),
        "record.ns_per_access": _ratio(self_ns["record"], accesses),
        "profile.ns_per_access": _ratio(self_ns["profile"], accesses),
        "partition.calls": counts.get("partition.calls", 0),
        "plan.pages_selected": counts.get("plan.pages_selected", 0),
        "migrate.pages_requested": requested,
        "migrate.pages_moved": counts.get("migrate.pages_moved", 0),
        "migrate.moved_frac": _ratio(counts.get("migrate.pages_moved", 0), requested),
        "migrate.us_per_page": _ratio(self_ns["migrate"] / 1e3, requested),
        "migrate.failures": counts.get("migrate.failures", 0),
        "migrate.retries": counts.get("migrate.retries", 0),
        "migrate.sim_cycles_per_page": _ratio(counts.get("migrate.sim_cycles", 0), requested),
        "migrate.sim_stall_mcycles": counts.get("migrate.sim_stall_cycles", 0) / 1e6,
        "teardown.frames_freed": counts.get("teardown.frames_freed", 0),
        "other.s": other_ns / 1e9,
        "other.share": other_ns / wall,
    })
    return m


def per_layer(traced_reps, untraced_reps) -> dict:
    """Mean of each layer metric over the traced repetitions, plus the
    tracing overhead against the untraced ones.

    Means rather than medians, so that the layers and ``other`` still
    add up to ``traced_wall_s``.
    """
    each = [rep_layers(r) for r in traced_reps]
    out = {key: statistics.fmean(m[key] for m in each) for key in each[0]}
    traced = statistics.fmean(r["run_ns"] for r in traced_reps)
    untraced = statistics.fmean(r["run_ns"] for r in untraced_reps)
    out["trace_overhead_frac"] = traced / untraced - 1.0
    return out


def sim_disagreements(reps) -> list[int]:
    """Indices of repetitions whose ``sim_*`` metrics differ from the first's."""
    ref = reps[0]["sim"]
    return [i for i, r in enumerate(reps) if r["sim"] != ref]
