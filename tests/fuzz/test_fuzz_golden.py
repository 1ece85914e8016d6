"""The seed-7, 25-case fuzz campaign, pinned bit for bit.

``tests/golden/fuzz_campaign_seed7.json`` (written by
``tests/golden/capture.py``) freezes the whole serial report: every
case record with its result hash, the replay-determinism and CLI ≡
service parity checks, and the clean verdict.  The CI fuzz-smoke job
pins the ``--workers 2`` CLI report to the same file.
"""

from __future__ import annotations

import json
import pathlib

from repro.fuzz.runner import campaign

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden" / "fuzz_campaign_seed7.json"


def test_seed7_campaign_matches_golden():
    frozen = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(campaign(seed=7, runs=25), sort_keys=True))
    for want, case in zip(frozen["cases"], got["cases"]):
        assert case == want, f"fuzz case {want['index']} diverged from the frozen campaign"
    assert got == frozen
