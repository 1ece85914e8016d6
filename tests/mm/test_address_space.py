"""Processes, VMAs, demand paging, batch accounting."""

import numpy as np
import pytest

from repro.mm.address_space import AddressSpace, Process, Vma
from repro.mm.frame_alloc import FrameAllocator
from tests.conftest import make_process, populated_space


def make_space(fast=8, slow=64, n_threads=4, replication=True):
    alloc = FrameAllocator(fast_frames=fast, slow_frames=slow)
    proc = make_process(n_threads=n_threads, replication=replication)
    return AddressSpace(proc, alloc), proc, alloc


def test_vma_basics():
    v = Vma(start_vpn=100, n_pages=10)
    assert v.end_vpn == 110
    assert v.contains(100) and v.contains(109)
    assert not v.contains(110)
    np.testing.assert_array_equal(v.vpns(), np.arange(100, 110))
    with pytest.raises(ValueError):
        Vma(start_vpn=0, n_pages=0)


def test_mmap_non_overlapping():
    p = make_process()
    a = p.mmap(10)
    b = p.mmap(10)
    assert a.end_vpn <= b.start_vpn
    assert p.vma_for(a.start_vpn) is a
    assert p.vma_for(b.start_vpn) is b
    assert p.vma_for(a.end_vpn) is None  # guard gap


def test_fault_prefers_fast_then_falls_back():
    space, proc, alloc = make_space(fast=2, slow=8)
    vma = proc.mmap(4)
    tiers = [space.fault(vma.start_vpn + i, tid=0).tier_id for i in range(4)]
    assert tiers == [0, 0, 1, 1]
    assert space.major_faults == 4


def test_fault_outside_vma_segfaults():
    space, proc, _ = make_space()
    proc.mmap(4)
    with pytest.raises(KeyError):
        space.fault(1, tid=0)


def test_refault_rejected():
    space, proc, _ = make_space()
    vma = proc.mmap(2)
    space.fault(vma.start_vpn, tid=0)
    with pytest.raises(ValueError):
        space.fault(vma.start_vpn, tid=0)


def test_translate():
    space, proc, alloc = make_space()
    vma = proc.mmap(2)
    assert space.translate(vma.start_vpn) is None
    page = space.fault(vma.start_vpn, tid=0)
    assert space.translate(vma.start_vpn) == page.pfn


def test_touch_faults_then_counts():
    space, proc, alloc = make_space()
    vma = proc.mmap(2)
    page = space.touch(vma.start_vpn, tid=0, is_write=True, cycle=7)
    assert page.writes == 1 and page.last_access_cycle == 7
    page2 = space.touch(vma.start_vpn, tid=1)  # second thread: share
    assert page2 == page  # same store row (views are built per call)
    assert space.minor_faults == 1
    assert not proc.repl.is_private(vma.start_vpn)


def test_rss_tracks_faulted_pages():
    space, proc, _ = make_space()
    vma = proc.mmap(6)
    assert proc.rss_pages == 0
    space.populate(vma, np.zeros(6, dtype=np.int64))
    assert proc.rss_pages == 6


def test_populate_idempotent():
    space, proc, _ = make_space()
    vma = proc.mmap(4)
    tids = np.arange(4) % 2
    assert space.populate(vma, tids) == 4
    assert space.populate(vma, tids) == 0


def test_record_batch_tier_split():
    alloc = FrameAllocator(fast_frames=2, slow_frames=8)
    space = populated_space(alloc, n_pages=4)  # 2 fast + 2 slow
    vma = space.process.vmas[0]
    vpns = np.array([vma.start_vpn, vma.start_vpn + 1, vma.start_vpn + 3], dtype=np.int64)
    fast, slow = space.record_batch(vpns, np.zeros(3, dtype=bool), tid=0)
    assert fast == 2 and slow == 1


def test_record_batch_counts_and_writes():
    alloc = FrameAllocator(fast_frames=8, slow_frames=8)
    space = populated_space(alloc, n_pages=2, n_threads=1)
    vma = space.process.vmas[0]
    vpns = np.array([vma.start_vpn] * 5 + [vma.start_vpn + 1] * 3, dtype=np.int64)
    writes = np.array([True, False, False, False, True, False, False, False])
    space.record_batch(vpns, writes, tid=0, cycle=3)
    p0 = alloc.page(space.translate(vma.start_vpn))
    p1 = alloc.page(space.translate(vma.start_vpn + 1))
    assert (p0.reads, p0.writes) == (3, 2)
    assert (p1.reads, p1.writes) == (3, 0)
    assert p0.last_access_cycle == 3


def test_record_batch_unmapped_rejected():
    space, proc, _ = make_space()
    proc.mmap(2)
    with pytest.raises(KeyError):
        space.record_batch(np.array([proc.vmas[0].start_vpn]), np.array([False]), tid=0)


def test_record_batch_shape_mismatch():
    space, _, _ = make_space()
    with pytest.raises(ValueError):
        space.record_batch(np.array([1, 2]), np.array([False]), tid=0)


def test_record_batch_empty():
    space, _, _ = make_space()
    assert space.record_batch(np.empty(0, dtype=np.int64), np.empty(0, dtype=bool), tid=0) == (0, 0)


def test_record_batch_promotes_sharing():
    alloc = FrameAllocator(fast_frames=8, slow_frames=8)
    space = populated_space(alloc, n_pages=2, n_threads=2)  # page i owned by tid i
    vma = space.process.vmas[0]
    vpns = np.array([vma.start_vpn + 1], dtype=np.int64)
    space.record_batch(vpns, np.array([False]), tid=0)  # tid 0 touches tid 1's page
    assert not space.process.repl.is_private(vma.start_vpn + 1)
