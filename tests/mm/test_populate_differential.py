"""``AddressSpace.populate`` + ``LruSubsystem.add_pages`` against the
per-page reference: one ``fault`` and one ``add_page`` per unmapped vpn.

Each case builds two identical worlds from one seed, drives one through
the array path and one through the scalar loop, and asserts that every
structure the fault path writes ends up identical: store rows, free
lists, radix PTE words and table counts (process and per-thread
trees), the flat mirror, leaf links, replication stats, LRU list order
and the pagevecs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mm.address_space import AddressSpace, Process
from repro.mm.frame_alloc import FrameAllocator, OutOfFramesError
from repro.mm.lru import LruSubsystem
from repro.mm.page_store import PageStatsStore

N_CPUS = 6


class World:
    """Allocator + LRU + processes, rebuilt identically per seed."""

    def __init__(self, fast: int, slow: int, chunk: int) -> None:
        self.alloc = FrameAllocator(fast_frames=fast, slow_frames=slow, chunk_frames=chunk)
        self.lru = LruSubsystem(n_cpus=N_CPUS)
        self.spaces: dict[int, AddressSpace] = {}

    def spawn(self, pid: int, n_threads: int, replication: bool) -> AddressSpace:
        proc = Process(pid=pid, replication_enabled=replication)
        for tid in range(n_threads):
            proc.spawn_thread(tid)
        space = AddressSpace(proc, self.alloc)
        self.spaces[pid] = space
        return space

    def retire(self, pid: int) -> None:
        self.lru.forget_pages(self.alloc.store.owned_frames(pid))
        self.alloc.free_pid(pid)


def scalar_populate(world: World, space: AddressSpace, vma, tids, prefer_tier: int) -> int:
    """The per-page admission loop ``populate`` replaced."""
    mapped = 0
    for i, vpn in enumerate(range(vma.start_vpn, vma.end_vpn)):
        if space.process.repl.lookup(vpn) is None:
            tid = int(tids[i])
            space.fault(vpn, tid, prefer_tier=prefer_tier)
            pfn = space.translate(vpn)
            world.lru.add_page(pfn, world.alloc.tier_of_pfn(pfn), tid % N_CPUS)
            mapped += 1
    world.lru.drain(None)
    return mapped


def bulk_populate(world: World, space: AddressSpace, vma, tids, prefer_tier: int) -> int:
    flat = space.process.repl.flat
    before = np.zeros(vma.n_pages, dtype=bool)
    idx = vma.vpns() - flat.base
    ok = (idx >= 0) & (idx < flat.pfn.size)
    before[ok] = flat.pfn[idx[ok]] >= 0
    mapped = space.populate(vma, tids, prefer_tier=prefer_tier)
    new = ~before
    pfns = flat.pfn[flat.indices(vma.vpns()[new])]
    world.lru.add_pages(pfns, world.alloc.store.tier_id[pfns], tids[new] % N_CPUS)
    world.lru.drain(None)
    return mapped


def snapshot(world: World) -> dict:
    """Everything the fault path writes, in comparable form."""
    st = world.alloc.store
    out: dict = {
        "capacity": st.capacity,
        "store": {c: getattr(st, c).copy() for c in PageStatsStore._COLUMNS},
        "free": [
            (list(t.free_list), t.free_list.virgin_range) for t in world.alloc.tiers
        ],
        "lru": [(list(lst.active), list(lst.inactive)) for lst in world.lru.lists],
        "pagevecs": [list(v.pending) for v in world.lru.pagevecs],
        "pending_tier": dict(world.lru._pending_tier),
        "drains": world.lru.drain_all_calls,
    }
    for pid, space in world.spaces.items():
        repl = space.process.repl
        flat = repl.flat
        present = flat.present_vpns().copy()
        i = flat.indices(present)
        absent = np.ones(flat.pfn.size, dtype=bool)
        absent[i] = False
        assert (flat.pfn[absent] == -1).all() and (flat.owner[absent] == -1).all()
        assert not flat.dirty[absent].any() and (flat.value[absent] == 0).all()
        tables = {"process": repl.process_table, **repl.thread_tables}
        out[pid] = {
            "ptes": {k: list(t.iter_ptes()) for k, t in tables.items()},
            "mapped": {k: t.mapped_count for k, t in tables.items()},
            "nodes": {k: list(t.node_count_by_level) for k, t in tables.items()},
            "pages": {k: t.table_pages() for k, t in tables.items()},
            "flat": (present, flat.pfn[i], flat.owner[i], flat.dirty[i], flat.value[i]),
            "leaf_tids": [(b, sorted(s)) for b, s in repl._leaf_tids.items()],
            "stats": repl.stats,
            "faults": (space.major_faults, space.minor_faults),
        }
    return out


def assert_same(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for key in a:
        va, vb = a[key], b[key]
        if key == "store":
            for col in va:
                np.testing.assert_array_equal(va[col], vb[col], err_msg=col)
        elif isinstance(va, dict) and "flat" in va:
            for sub in va:
                if sub == "flat":
                    for x, y in zip(va[sub], vb[sub]):
                        np.testing.assert_array_equal(x, y)
                else:
                    assert va[sub] == vb[sub], (key, sub)
        else:
            assert va == vb, key


def run_case(seed: int, populate) -> tuple[dict, list[int]]:
    """A random admission history: a predecessor that departs (its frames
    recycle), pre-faulted stray pages, VMAs that overrun the fast tier,
    and a repeated populate of a mapped VMA."""
    rng = np.random.default_rng(seed)
    fast = int(rng.integers(40, 400))
    slow = int(rng.integers(2200, 3000))
    world = World(fast, slow, chunk=int(2 ** rng.integers(5, 9)))
    replication = bool(rng.integers(0, 2))
    returns: list[int] = []

    old = world.spawn(1, n_threads=3, replication=replication)
    old_vma = old.process.mmap(int(rng.integers(20, fast + 100)))
    returns.append(populate(world, old, old_vma, rng.integers(0, 3, old_vma.n_pages), 0))
    world.retire(1)

    n_threads = int(rng.integers(1, 9))
    space = world.spawn(2, n_threads=n_threads, replication=replication)
    for _ in range(int(rng.integers(1, 4))):
        vma = space.process.mmap(int(rng.integers(1, 700)))
        tids = rng.integers(0, n_threads, vma.n_pages)
        for off in rng.choice(vma.n_pages, size=min(3, vma.n_pages), replace=False):
            if rng.random() < 0.5:  # a stray page faulted before admission
                space.fault(vma.start_vpn + int(off), int(tids[off]))
        prefer = int(rng.integers(0, 2))
        returns.append(populate(world, space, vma, tids, prefer))
        returns.append(populate(world, space, vma, tids, prefer))
    return snapshot(world), returns


@pytest.mark.parametrize("seed", range(40))
def test_populate_matches_fault_loop(seed):
    scalar, scalar_ret = run_case(seed, scalar_populate)
    bulk, bulk_ret = run_case(seed, bulk_populate)
    assert bulk_ret == scalar_ret
    assert all(r == 0 for r in bulk_ret[2::2])  # re-populating maps nothing
    assert_same(bulk, scalar)


@pytest.mark.parametrize("replication", [True, False])
@pytest.mark.parametrize("prefer_tier", [0, 1])
def test_fast_tier_exhaustion_mid_vma(replication, prefer_tier):
    """A VMA larger than the fast tier spills to slow memory part way."""
    worlds = []
    for populate in (scalar_populate, bulk_populate):
        world = World(fast=100, slow=900, chunk=64)
        space = world.spawn(7, n_threads=4, replication=replication)
        vma = space.process.mmap(600)
        tids = np.arange(600) // 150
        assert populate(world, space, vma, tids, prefer_tier) == 600
        worlds.append(snapshot(world))
    assert_same(worlds[1], worlds[0])
    tiers = worlds[1]["store"]["tier_id"][worlds[1][7]["flat"][1]]
    assert (tiers[:100] == prefer_tier).all() and (tiers[100:] == 1).all()


def test_capacity_checked_before_any_state_changes():
    world = World(fast=16, slow=32, chunk=64)
    space = world.spawn(3, n_threads=2, replication=True)
    vma = space.process.mmap(49)
    before = snapshot(world)
    with pytest.raises(OutOfFramesError):
        space.populate(vma, np.zeros(49, dtype=np.int64))
    assert_same(snapshot(world), before)
    assert space.process.rss_pages == 0
    # slow-preferring populate never falls back to the fast tier
    with pytest.raises(OutOfFramesError):
        space.populate(space.process.mmap(33), np.zeros(33, dtype=np.int64), prefer_tier=1)
    assert_same(snapshot(world), before)


def test_populate_rejects_bad_input_before_allocating():
    world = World(fast=16, slow=32, chunk=64)
    space = world.spawn(4, n_threads=2, replication=True)
    vma = space.process.mmap(8)
    before = snapshot(world)
    with pytest.raises(KeyError):  # tid 5 never registered
        space.populate(vma, np.full(8, 5))
    with pytest.raises(ValueError):  # one tid per page
        space.populate(vma, np.zeros(7, dtype=np.int64))
    assert_same(snapshot(world), before)


@pytest.mark.parametrize("seed", range(20))
def test_add_pages_matches_add_page_loop(seed):
    """Flush order with full vecs, remainders, and pages already listed."""
    rng = np.random.default_rng(seed)
    subs = [LruSubsystem(n_cpus=5) for _ in range(2)]
    listed = rng.choice(400, size=10, replace=False)
    for sub in subs:  # pages already on a global list are not re-inserted
        for pfn in listed.tolist():
            sub.lists[pfn % 2].insert(pfn)
    n = int(rng.integers(0, 300))
    pfns = rng.permutation(400)[:n]
    tiers = rng.integers(0, 2, n)
    cpus = rng.integers(0, 5, n)
    for pfn, tier, cpu in zip(pfns.tolist(), tiers.tolist(), cpus.tolist()):
        subs[0].add_page(pfn, tier, cpu)
    subs[1].add_pages(pfns, tiers, cpus)
    for sub in subs:
        assert sub.drain_all_calls == 0
    assert [list(v.pending) for v in subs[1].pagevecs] == [list(v.pending) for v in subs[0].pagevecs]
    assert subs[1]._pending_tier == subs[0]._pending_tier
    for sub in subs:
        sub.drain(None)
    for a, b in zip(subs[1].lists, subs[0].lists):
        assert list(a.inactive) == list(b.inactive)
        assert list(a.active) == list(b.active)


def test_add_pages_requires_drained_pagevecs():
    sub = LruSubsystem(n_cpus=2)
    sub.add_page(1, 0, 0)
    with pytest.raises(RuntimeError):
        sub.add_pages(np.array([2]), np.array([0]), np.array([1]))
