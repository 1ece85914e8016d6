"""Compare two sets of benchmark records, metric by metric.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Each file is a record that ``run.py`` wrote to ``perfbench/out/``.
Prints each metric's median and quartiles on both sides and the change
of the medians.  Refuses (exit 2) to compare records of different
workloads or trace modes, or records measured with different kernel
backends: a numba run against a numpy run says nothing about the code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def load(paths):
    return [json.loads(open(p).read()) for p in paths]


def refusal(records) -> str | None:
    for key, what in (("workload", "workloads"), ("trace", "trace modes")):
        seen = {r[key] for r in records}
        if len(seen) > 1:
            return f"records mix {what}: {sorted(map(str, seen))}"
    backends = {r["stamps"]["backend"] for r in records}
    if len(backends) > 1:
        return f"records were measured with different kernel backends: {sorted(map(str, backends))}"
    return None


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Compare benchmark records.")
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)
    why = refusal(base + new)
    if why:
        print(f"refusing to compare: {why}", file=sys.stderr)
        return 2
    print(f"{'metric':28s} {'base q1/med/q3':>34s} {'new q1/med/q3':>34s} {'change':>8s}")
    for name, m in base[0]["metrics"].items():
        a = summary([r["metrics"][name]["value"] for r in base if name in r["metrics"]])
        b = summary([r["metrics"][name]["value"] for r in new if name in r["metrics"]])
        change = (b[1] - a[1]) / a[1] if a[1] else float("nan")
        print(
            f"{name:28s} {' '.join(f'{x:.4g}' for x in a):>34s} "
            f"{' '.join(f'{x:.4g}' for x in b):>34s} {change:+8.1%} {m['unit']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
