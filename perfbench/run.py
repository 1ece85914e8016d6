"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload colocation --seed 1 --seconds 30 --trace 0

Starts fresh worker processes (``worker.py``) one after another until
``--seconds`` are used, each one a sample of the workload under the
given seed.  With ``--trace 0`` it prints the end-to-end metrics named
in ``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and
traced workers and prints the per-layer metrics.  The last line of
standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

Metrics that are computed but not listed in ``BENCHMARK.json`` (the
number of epochs timed, and their p90 where at least 100 were timed)
are printed and recorded as detail, not gated.

A repetition fails when it raises, when frames or credits are not
conserved at its end, or when its ``sim_*`` metrics differ from those
of the run's other repetitions (traced or not: the same seed must give
the same simulated result).  Any failure makes the exit code 1.
Without the program's sources next to the benchmark it exits with 2
and prints no result.

The full record (stamps, per-repetition timings, layer timers) is
written to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``;
``compare.py`` compares such records.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from layers import MOVES
from stats import end_to_end, per_layer, sim_disagreements
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: a run must end within 180 s; stop starting workers well before
HARD_LIMIT_S = 165


def stamps(seed: int, backend: str, python: str) -> dict:
    """What a result was measured with; results are only comparable
    when the kernel backends agree."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "backend": backend,
        "python": python,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_worker(workload: str, seed: int, traced: bool, timeout: float) -> tuple[dict | None, str]:
    """One fresh worker process; (its record, "") or (None, why it failed)."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker exceeded {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError) as exc:
        return None, f"worker printed no record ({exc})"


def collect(workload: str, seed: int, seconds: float, trace: bool):
    """Workers until ``seconds`` are used (at least one of each kind needed).

    A worker is started only when the longest one so far would still
    end within ``seconds``, so a run lasts about ``seconds``.
    """
    start = time.monotonic()
    deadline = start + min(seconds, HARD_LIMIT_S)
    records, errors = [], []
    longest = 0.0
    i = 0
    while True:
        traced = trace and i % 2 == 1
        t0 = time.monotonic()
        record, err = run_worker(workload, seed, traced, HARD_LIMIT_S - (t0 - start))
        longest = max(longest, time.monotonic() - t0)
        i += 1
        if record is None:
            errors.append(err)
            break
        records.append(record)
        enough = i >= (2 if trace else 1)
        if enough and time.monotonic() + longest > deadline:
            break
    return records, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r} (have: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2

    records, errors = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    reps = [(rec["traced"], rep) for rec in records for rep in rec["reps"]]
    crashed = WORKLOADS[args.workload].reps * len(errors)
    attempted = len(reps) + crashed
    errors += [rep["error"] for _, rep in reps if "error" in rep]
    ok = [(traced, rep) for traced, rep in reps if "error" not in rep]
    bad = sim_disagreements([rep for _, rep in ok]) if ok else []
    errors += [f"repetition {i}: sim metrics differ from the first repetition's" for i in bad]
    failed = attempted - len(ok) + len(bad)
    backends = {rec["backend"] for rec in records}
    if len(backends) > 1:
        errors.append(f"workers ran different kernel backends: {sorted(backends)}")

    untraced = [rep for traced, rep in ok if not traced]
    traced = [rep for traced, rep in ok if traced]
    metrics = {}
    if args.trace and traced and untraced:
        metrics = per_layer(traced, untraced)
        wanted = spec["per_layer"]
    elif not args.trace and untraced:
        metrics = end_to_end(untraced, [rec["peak_rss_kb"] for rec in records])
        wanted = spec["end_to_end"]
    else:
        wanted = []
        errors.append("no successful repetition to measure")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        errors.append(f"metrics not produced: {missing}")
    correct = not errors
    out_metrics = {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
        for m in wanted if m["name"] in metrics
    }
    # computed but not in BENCHMARK.json: recorded and printed, not gated
    detail = {k: v for k, v in metrics.items() if k not in out_metrics}

    stamp = stamps(
        args.seed,
        records[0]["backend"] if records else None,
        records[0]["python"] if records else None,
    )
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "stamps": stamp,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": out_metrics,
        "detail": detail,
        "layer_moves": MOVES,
        "workers": records,
    }, indent=1))

    for err in errors:
        print(f"FAILED: {err}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + " ".join(
        f"{k}={v}" for k, v in stamp.items() if k != "seed"))
    for name, m in out_metrics.items():
        print(f"{name:28s} {m['value']:>16.6g} {m['unit']}")
    for name, value in detail.items():
        print(f"{name:28s} {'-' if value is None else format(value, '>16.6g')} (detail)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
