"""``HeatStore`` array growth: size bounded by the touched span whatever
order vpns arrive in, with dict-equivalent heats and insertion order."""

from __future__ import annotations

import numpy as np
import pytest

from repro.profiling.heat_store import _GROW_PAD, HeatStore

PID = 7


def batches(order: str, rng: np.random.Generator, lo: int, n: int):
    """Unique ascending vpn batches over ``[lo, lo + n)`` in ``order``."""
    if order == "descending":
        starts = range(lo + n - 40, lo - 1, -40)
        return [np.arange(s, s + 40, 3, dtype=np.int64) for s in starts]
    if order == "ascending":
        return [np.arange(s, s + 40, 3, dtype=np.int64) for s in range(lo, lo + n, 40)]
    return [
        np.unique(rng.integers(lo, lo + n, size=int(rng.integers(1, 30))))
        for _ in range(400)
    ]


@pytest.mark.parametrize("order", ["descending", "ascending", "random"])
@pytest.mark.parametrize("seed", range(4))
def test_growth_stays_within_twice_the_touched_span(order, seed):
    """The old rule doubled the array for every page touched below its
    base while moving the base down 64 pages: descending traffic grew it
    exponentially."""
    rng = np.random.default_rng(seed)
    lo = int(rng.integers(0, 1 << 20))
    n = int(rng.integers(2_000, 200_000))
    store = HeatStore()
    ref: dict[int, float] = {}
    seen_lo, seen_hi = None, None
    for vpns in batches(order, rng, lo, n):
        sums = rng.random(vpns.size)
        store.accumulate(PID, vpns, sums)
        for vpn, w in zip(vpns.tolist(), sums.tolist()):
            ref[vpn] = ref.get(vpn, 0.0) + w
        seen_lo = int(vpns[0]) if seen_lo is None else min(seen_lo, int(vpns[0]))
        seen_hi = int(vpns[-1]) if seen_hi is None else max(seen_hi, int(vpns[-1]))
        span = seen_hi - seen_lo + 1
        size = store._pids[PID].heat.size
        assert size <= 2 * span + 4 * _GROW_PAD, (size, span)
    assert store.as_dict(PID) == ref  # same values, same insertion order
    assert list(store.as_dict(PID)) == list(ref)
    store.check_consistency()
    store.decay_all(0.5)
    store.check_consistency()
