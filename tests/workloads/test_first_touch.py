"""``Workload.first_touch_tids`` against each class's documented
per-offset rule, for every offset of the VMA, over random specs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.classify import ServiceClass
from repro.mm.address_space import Vma
from repro.workloads.base import WorkloadSpec
from repro.workloads.liblinear import LiblinearWorkload
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.microbench import MicrobenchWorkload
from repro.workloads.pagerank import PageRankWorkload


def round_robin(wl, offset: int) -> int:
    """Shared structures: touched by threads in turn."""
    return offset % wl.spec.n_threads


def pagerank_rule(wl, offset: int) -> int:
    """Adjacency round-robin; each rank slice by its thread (the last
    thread takes the remainder)."""
    n = wl.spec.n_threads
    if offset < wl._adj_pages:
        return offset % n
    slice_pages = max(wl._rank_pages // n, 1)
    return min((offset - wl._adj_pages) // slice_pages, n - 1)


def liblinear_rule(wl, offset: int) -> int:
    """Feature region round-robin; each data shard by its thread."""
    n = wl.spec.n_threads
    if offset < wl._feature_pages:
        return offset % n
    shard_pages = max(wl._data_pages // n, 1)
    return min((offset - wl._feature_pages) // shard_pages, n - 1)


def microbench_rule(wl, offset: int) -> int:
    """Shared mode round-robin; private mode by WSS slice."""
    n = wl.spec.n_threads
    if wl.shared_threads:
        return offset % n
    slice_pages = max(wl._wss // n, 1)
    return min(offset // slice_pages, n - 1)


def random_workload(rng: np.random.Generator, kind: str):
    rss = int(rng.integers(1, 3000))
    spec = WorkloadSpec(
        name=kind, service=ServiceClass.BE, rss_pages=rss,
        n_threads=int(rng.integers(1, 17)),
    )
    seed = int(rng.integers(0, 1000))
    if kind == "pagerank":
        return PageRankWorkload(spec, seed, rank_region_frac=float(rng.uniform(0.01, 0.99))), pagerank_rule
    if kind == "liblinear":
        wl = LiblinearWorkload(spec, seed, feature_region_frac=float(rng.uniform(0.0, 1.0)))
        return wl, liblinear_rule
    if kind == "microbench":
        wl = MicrobenchWorkload(
            spec, seed, wss_pages=int(rng.integers(1, rss + 1)),
            shared_threads=bool(rng.integers(0, 2)),
        )
        return wl, microbench_rule
    return MemcachedWorkload(spec, seed), round_robin


@pytest.mark.parametrize("kind", ["pagerank", "liblinear", "microbench", "memcached"])
@pytest.mark.parametrize("seed", range(15))
def test_first_touch_tids_match_per_offset_rule(kind, seed):
    rng = np.random.default_rng((seed, len(kind)))
    wl, rule = random_workload(rng, kind)
    wl.bind(1, Vma(start_vpn=0x1000, n_pages=wl.spec.rss_pages))
    offsets = np.arange(wl.spec.rss_pages, dtype=np.int64)
    got = wl.first_touch_tids(offsets)
    want = [rule(wl, i) for i in range(wl.spec.rss_pages)]
    assert got.tolist() == want
    assert ((got >= 0) & (got < wl.spec.n_threads)).all()
    # any subset, in any order, gives the same per-offset answer
    pick = rng.permutation(offsets)[: int(rng.integers(0, offsets.size + 1))]
    assert wl.first_touch_tids(pick).tolist() == [want[i] for i in pick.tolist()]
