"""NUMA-hinting-fault profiler."""

import numpy as np
import pytest

from repro.profiling.base import AccessBatch
from repro.profiling.hintfault import HINT_FAULT_COST_CYCLES, HintFaultProfiler


def batch(vpns, writes=None, pid=1):
    v = np.asarray(vpns, dtype=np.int64)
    w = np.zeros(v.size, dtype=bool) if writes is None else np.asarray(writes, dtype=bool)
    return AccessBatch(pid=pid, tid=0, vpns=v, is_write=w)


def prof_with_pages(n=16, window=0.25):
    p = HintFaultProfiler(window_fraction=window)
    p.register_pages(1, np.arange(n, dtype=np.int64))
    return p


def test_only_poisoned_pages_fault():
    p = prof_with_pages(n=16, window=0.25)  # window = pages [0..3]
    p.observe(batch(list(range(16))))
    heat_pages = set(p.hotness(1))
    assert heat_pages == {0, 1, 2, 3}


def test_fault_costs_charged_to_application():
    p = prof_with_pages(n=8, window=0.5)
    p.observe(batch([0, 1]))
    assert p.stats.app_overhead_cycles == pytest.approx(2 * HINT_FAULT_COST_CYCLES)


def test_page_faults_once_per_rotation():
    p = prof_with_pages(n=8, window=0.5)
    p.observe(batch([0] * 100))  # many touches, one fault
    assert p.stats.samples_taken == 1
    assert p.hotness(1)[0] == pytest.approx(1.0)


def test_rotation_covers_all_pages():
    p = prof_with_pages(n=8, window=0.25)
    seen = set()
    for _ in range(4):
        p.observe(batch(list(range(8))))
        seen |= set(p.poisoned_vpns(1).tolist())
        p.end_epoch()
    assert len(set(p.hotness(1)) | seen) >= 8 - 2  # full coverage modulo rotation edge


def test_write_fault_recorded():
    p = prof_with_pages(n=4, window=1.0)
    p.observe(batch([0, 1], writes=[True, False]))
    assert p.write_fraction(1, 0) == pytest.approx(1.0)
    assert p.write_fraction(1, 1) == 0.0


def test_decay_applied_each_epoch():
    p = prof_with_pages(n=4, window=1.0)
    p.observe(batch([0]))
    before = p.hotness(1)[0]
    p.end_epoch()
    assert p.hotness(1)[0] == pytest.approx(before * 0.5)


def test_unregistered_pid_ignored():
    p = HintFaultProfiler()
    p.observe(batch([1, 2, 3], pid=9))
    assert p.hotness(9) == {}


def test_forget_drops_rotation_state():
    p = prof_with_pages()
    p.observe(batch([0]))
    p.forget(1)
    assert p.hotness(1) == {}
    p.end_epoch()  # must not crash on forgotten pid


def test_window_fraction_validation():
    with pytest.raises(ValueError):
        HintFaultProfiler(window_fraction=0.0)
    with pytest.raises(ValueError):
        HintFaultProfiler(window_fraction=1.5)
