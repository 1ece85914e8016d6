"""Tracing must never perturb the simulation.

Two guarantees: (1) a traced run emits a bit-identical event stream on
the same seed — cycle timestamps only, no wall clock anywhere; (2) a
traced run produces exactly the numbers an untraced run produces, so
figure benchmarks are unaffected by observability.
"""

from __future__ import annotations

import json

import numpy as np

from repro.harness import ColocationExperiment
from repro.obs.trace import get_tracer
from repro.scenario import run_scenario
from repro.sim.config import SimulationConfig
from repro.workloads.mixes import dilemma_pair


def run_once(*, seed: int = 11, epochs: int = 5):
    sim = SimulationConfig(epoch_seconds=0.5)
    mix = dilemma_pair(sim, seed=seed, accesses_per_thread=1500)
    exp = ColocationExperiment("vulcan", mix, sim=sim, seed=seed)
    return exp.run(epochs)


def test_same_seed_traced_runs_emit_identical_streams():
    tracer = get_tracer()
    try:
        tracer.enable()
        run_once()
        first = tracer.events()
        tracer.enable()  # fresh buffer + clock
        run_once()
        second = tracer.events()
    finally:
        tracer.disable()
        tracer.reset()
    assert len(first) == len(second) > 0
    assert first == second  # TraceEvent is a frozen dataclass: deep equality


def _observed(fn, mode: str):
    """Run ``fn`` with full tracing (``"trace"``) or with only the
    metrics registry on (``"metrics"``), then switch both off."""
    tracer = get_tracer()
    try:
        if mode == "trace":
            tracer.enable()
        else:
            tracer.metrics.enabled = True
        return fn()
    finally:
        tracer.disable()
        tracer.reset()


def _canonical(d: dict) -> str:
    return json.dumps(d, sort_keys=True)


def test_tracing_does_not_change_results():
    """Tracing or metrics on, the same code runs and computes the same
    results — on a plain run and on the canned churn scenario, whose
    armed faults drive every fault path of the migration executor."""
    plain = run_once()
    for mode in ("trace", "metrics"):
        observed = _observed(run_once, mode)
        for pid, ts in plain.workloads.items():
            other = observed.workloads[pid]
            assert ts.ops == other.ops
            assert ts.fast_pages == other.fast_pages
            assert ts.fthr_true == other.fthr_true
            assert ts.promotions == other.promotions
            assert ts.demotions == other.demotions
        assert np.array_equal(plain.migration_cycles, observed.migration_cycles)
        assert _canonical(observed.to_dict()) == _canonical(plain.to_dict())

    churn = run_scenario("churn").to_dict()
    assert churn["faults"], "churn armed faults but none fired"
    for mode in ("trace", "metrics"):
        observed = _observed(lambda: run_scenario("churn").to_dict(), mode)
        assert _canonical(observed) == _canonical(churn), mode


def test_prep_phase_routed_through_charge():
    """Satellite regression: prep cycles show in phase_cycles *and* in
    total_cycles exactly once, via the PREP enum member."""
    from repro.mm.migration import MigrationPhase, MigrationStats

    stats = MigrationStats()
    assert "prep" in stats.phase_cycles  # enum member seeds the dict
    stats.charge(MigrationPhase.PREP, 123.0)
    assert stats.phase_cycles["prep"] == 123.0
    assert stats.total_cycles == 123.0
