"""Regenerate the frozen golden metrics snapshots.

Run from the repo root:

    PYTHONPATH=src python tests/golden/capture.py

The snapshots pin ``ExperimentResult.to_dict()`` bit-for-bit (JSON's
shortest-round-trip float repr is exact), so any refactor of the
frame/heat hot path can be checked against the pre-refactor behaviour.
"""

import json
import pathlib
import sys

from repro.cli import _run_one

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent
MATRIX = [
    ("vulcan", "paper"), ("vulcan", "dilemma"),
    ("memtis", "paper"), ("memtis", "dilemma"),
    ("tpp", "paper"), ("tpp", "dilemma"),
    ("nomad", "paper"), ("nomad", "dilemma"),
    ("uniform", "paper"),
    ("none", "paper"),
]
EPOCHS = 8
ACCESSES_PER_THREAD = 3000
SEED = 1


def main() -> int:
    for policy, mix in MATRIX:
        res = _run_one(policy, mix, EPOCHS, ACCESSES_PER_THREAD, SEED)
        path = GOLDEN_DIR / f"e2e_{policy}_{mix}.json"
        payload = {
            "config": {
                "policy": policy, "mix": mix, "epochs": EPOCHS,
                "accesses_per_thread": ACCESSES_PER_THREAD, "seed": SEED,
            },
            "result": res.to_dict(),
        }
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}")
    capture_scenario()
    capture_fuzz_campaign()
    return 0


def capture_scenario() -> None:
    """Freeze the canned churn scenario: the full ScenarioResult —
    departures, restarts, fault records, leak checks, and the base
    metrics — pinned bit-for-bit under dynamic events."""
    from repro.scenario import get_scenario, run_scenario

    spec = get_scenario("churn")
    sres = run_scenario(spec)
    path = GOLDEN_DIR / "scenario_churn.json"
    payload = {
        "config": {"scenario": "churn", "spec_hash": spec.content_hash()},
        "scenario_result": sres.to_dict(),
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")


def capture_fuzz_campaign() -> None:
    """Freeze the seed-7, 25-case fuzz campaign report (serial run):
    every case record, the replay and service-parity checks, and the
    clean verdict.  ``--workers 2`` reports differ only in ``workers``."""
    from repro.fuzz.runner import campaign

    report = campaign(seed=7, runs=25)
    path = GOLDEN_DIR / "fuzz_campaign_seed7.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")


if __name__ == "__main__":
    sys.exit(main())
