"""Property tests for the struct-of-arrays frame store.

Two kinds of guarantees:

* **Store-level** — randomized alloc/access/free/migrate-ish sequences
  keep the parallel arrays internally consistent
  (:meth:`PageStatsStore.check_row_invariants`) and agree with a naive
  per-page shadow model.
* **View coherence** — :class:`PhysPage` is a window onto one row:
  writes through the object are visible in the arrays and vice versa,
  and allocator-produced pages share the allocator's store.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mm.frame_alloc import FrameAllocator
from repro.mm.page import PageState, PhysPage
from repro.mm.page_store import (
    NONE_SENTINEL,
    STATE_MAPPED,
    STATE_SHADOW,
    PageStatsStore,
)


def make_store(n=64, fast=16):
    return PageStatsStore(n, fast)


def record(store, pfns, n_reads, n_writes, tid, cycle):
    """One thread's per-frame counts, as ``AddressSpace.record_plan`` lands them."""
    store.record_epoch_rows(pfns, n_reads, n_writes, cycle)
    store.or_tid_bit(pfns, tid)


# -- store-level properties ------------------------------------------------------


def test_fresh_store_passes_invariants():
    store = make_store()
    store.check_row_invariants()
    assert (store.tier_id[:16] == 0).all()
    assert (store.tier_id[16:] == 1).all()


def test_record_batch_matches_scalar_model():
    """Vectorized accounting == the old one-page-at-a-time loop."""
    rng = np.random.default_rng(7)
    store = make_store()
    # Map every frame to pid 1 so counters are legal.
    store.state[:] = STATE_MAPPED
    store.pid[:] = 1
    store.vpn[:] = np.arange(store.n_frames)

    reads = np.zeros(store.n_frames, dtype=np.int64)
    writes = np.zeros(store.n_frames, dtype=np.int64)
    for cycle in range(1, 20):
        pfns = np.unique(rng.integers(0, store.n_frames, size=10))
        n_r = rng.integers(0, 5, size=pfns.size)
        n_w = rng.integers(0, 5, size=pfns.size)
        record(store, pfns, n_r, n_w, tid=3, cycle=cycle)
        reads[pfns] += n_r
        writes[pfns] += n_w
        store.check_row_invariants()
    assert (store.reads == reads).all()
    assert (store.writes == writes).all()
    assert (store.epoch_reads == reads).all()
    assert (store.epoch_writes == writes).all()
    touched = (reads > 0) | (writes > 0)
    # record_epoch_rows marks every listed pfn touched, even zero-count rows.
    assert store.touched[touched].all()
    assert (store.tids_lo[touched] == np.uint64(1 << 3)).all()


def test_reset_epoch_counters_clears_only_live_touched_rows():
    store = make_store()
    store.state[:4] = STATE_MAPPED
    store.pid[:4] = 1
    store.vpn[:4] = np.arange(4)
    record(store, np.arange(4), np.ones(4, np.int64), np.zeros(4, np.int64), 0, 1)
    # Frame 3 goes SHADOW before the reset (demote-after-promote path).
    store.state[3] = STATE_SHADOW
    store.reset_epoch_counters()
    assert (store.epoch_reads[:3] == 0).all()
    assert not store.touched[:3].any()
    # The shadow keeps its counters *and* its touched bit (legacy quirk:
    # the old full-table walk skipped non-PTE-visible frames, so a later
    # remap-demote still found the stale counters and reset them then).
    assert store.epoch_reads[3] == 1
    assert store.touched[3]
    # ...and once it is MAPPED again the next reset clears it.
    store.state[3] = STATE_MAPPED
    store.reset_epoch_counters()
    assert store.epoch_reads[3] == 0
    assert not store.touched[3]


def test_frames_of_pid_and_usage_queries():
    store = make_store(n=32, fast=8)
    for pfn, pid in [(1, 10), (5, 10), (9, 10), (2, 20), (30, 20)]:
        store.state[pfn] = STATE_MAPPED
        store.pid[pfn] = pid
        store.vpn[pfn] = 100 + pfn
    store.state[9] = STATE_SHADOW  # shadows are PTE-invisible
    assert store.frames_of_pid(10).tolist() == [1, 5]
    assert store.frames_of_pid(20).tolist() == [2, 30]
    assert store.fast_usage(10) == 2
    assert store.fast_usage(20) == 1
    store.epoch_reads[1] = 4
    store.epoch_writes[2] = 9
    store.touched[[1, 2]] = True
    assert store.ground_truth_hotness(10, cut=3) == (1, 1, 1, 2)
    assert store.ground_truth_hotness(20, cut=3) == (1, 1, 0, 1)
    store.check_row_invariants()


def test_detach_row_resets_everything():
    store = make_store()
    store.state[7] = STATE_MAPPED
    store.pid[7] = 2
    store.vpn[7] = 42
    record(store, np.array([7]), np.array([3]), np.array([1]), tid=70, cycle=9)
    store.heat[7] = 1.5
    store.detach_row(7)
    assert store.pid[7] == NONE_SENTINEL
    assert store.vpn[7] == NONE_SENTINEL
    assert store.reads[7] == 0 and store.writes[7] == 0
    assert store.heat[7] == 0.0
    assert store.tids_hi[7] == 0
    assert not store.touched[7]
    store.check_row_invariants()


# -- view coherence --------------------------------------------------------------


def test_physpage_view_reads_and_writes_the_arrays():
    store = make_store()
    page = PhysPage(pfn=5, store=store)
    page.attach(pid=9, vpn=123)
    assert store.state[5] == STATE_MAPPED
    assert store.pid[5] == 9 and store.vpn[5] == 123
    # Array write shows through the object...
    store.heat[5] = 2.25
    assert page.heat == 2.25
    # ...and object writes land in the arrays.
    page.record_access(is_write=True, tid=65, cycle=77)
    assert store.writes[5] == 1
    assert store.last_access_cycle[5] == 77
    assert page.accessing_tids == {65}
    assert store.tids_hi[5] == np.uint64(1 << 1)
    page.detach()
    assert page.state is PageState.FREE
    store.check_row_invariants()


def test_standalone_physpage_has_private_store():
    """Constructing without store= (unit-test idiom) still works."""
    page = PhysPage(pfn=3, tier_id=1)
    page.attach(pid=1, vpn=7)
    page.record_access(is_write=False, tid=0, cycle=1)
    assert page.reads == 1
    assert page.tier_id == 1


def test_allocator_pages_share_the_allocator_store():
    alloc = FrameAllocator(fast_frames=4, slow_frames=4)
    page = alloc.allocate(0)
    page.attach(pid=1, vpn=10)
    assert page._store is alloc.store
    assert alloc.store.state[page.pfn] == STATE_MAPPED
    assert not alloc.store.in_free_list[page.pfn]
    alloc.free(page.pfn)
    assert alloc.store.in_free_list[page.pfn]
    alloc.store.check_row_invariants()


def test_allocator_double_free_detected_via_bitmap():
    alloc = FrameAllocator(fast_frames=4, slow_frames=4)
    page = alloc.allocate(0)
    page.attach(pid=1, vpn=10)
    alloc.free(page.pfn)
    with pytest.raises(ValueError, match="double free"):
        alloc.free(page.pfn)


def test_mapped_pages_agrees_with_frames_of_pid():
    """The object-yielding walk and the vectorized query are one truth."""
    alloc = FrameAllocator(fast_frames=8, slow_frames=8)
    for vpn in range(5):
        alloc.allocate(0 if vpn < 3 else 1).attach(pid=4, vpn=vpn)
    walk = sorted(p.pfn for p in alloc.mapped_pages() if p.pid == 4)
    assert walk == alloc.store.frames_of_pid(4).tolist()
    assert alloc.store.fast_usage(4) == 3
