"""The benchmark's workloads, all under the ``vulcan`` policy.

Each function below takes the seed and returns an experiment that has
not run yet, so that building it is the set-up the benchmark times.  Sizes are
pinned here rather than imported from ``repro.harness.bench``, so that a
change to the ``repro bench`` presets cannot change this benchmark.

All are closed loops: each epoch starts when the previous one ends.
Why each one is measured is recorded in ``BENCHMARK.json``.

``hugeheap`` runs (``run.py --workload hugeheap``) but is not listed in
``BENCHMARK.json``: its steady epochs and peak RSS depend on the seed.
The profilers' heat arrays (``_PidHeat.ensure``) at least double each
time a page below an array's base is touched, and the base moves down
only 64 pages at a time, so their size follows the traffic's order:
seed 204 peaks at 0.66 GB and seed 209 at 1.5 GB, with steady epochs
slower in step.  Across seeds it is too spread to gate a change on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

POLICY = "vulcan"
EPOCH_SECONDS = 2.0


def colocation(seed: int):
    """The Fig. 9 mix at 10 MB pages: arrivals at epochs 0, 25 and 55."""
    from repro.harness.experiment import ColocationExperiment
    from repro.sim.config import SimulationConfig
    from repro.workloads.mixes import paper_colocation_mix

    sim = SimulationConfig(epoch_seconds=EPOCH_SECONDS)
    mix = paper_colocation_mix(sim, seed=seed, accesses_per_thread=5000)
    return ColocationExperiment(POLICY, mix, sim=sim, seed=seed)


def churn(seed: int):
    """The canned ``churn`` scenario (what ``run_scenario("churn")`` runs)."""
    from repro.scenario import ScenarioExperiment, get_scenario

    return ScenarioExperiment(get_scenario("churn"), seed=seed, policy=POLICY)


def hugeheap(seed: int):
    """The Table 2 mix at 150 kB pages, all admitted at epoch 0."""
    from repro.harness.experiment import ColocationExperiment
    from repro.sim.config import SimulationConfig
    from repro.workloads.mixes import hugeheap_mix

    sim = SimulationConfig(epoch_seconds=EPOCH_SECONDS, page_unit_bytes=150_000)
    mix = hugeheap_mix(sim, seed=seed, accesses_per_thread=2000)
    return ColocationExperiment(POLICY, mix, sim=sim, seed=seed)


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], object]
    #: epochs of one repetition
    epochs: int
    #: repetitions per worker process; each one is set up and run afresh
    reps: int


WORKLOADS = {
    "colocation": Workload(colocation, epochs=80, reps=2),
    # 40 canned epochs take well under a second, so a worker repeats them
    "churn": Workload(churn, epochs=40, reps=6),
    # one admission epoch (~1.08M page faults) and a few steady epochs,
    # so admission dominates as it does for a real large heap
    "hugeheap": Workload(hugeheap, epochs=8, reps=1),
}
