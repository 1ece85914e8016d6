"""YCSB workload family."""

import numpy as np
import pytest

from repro.core.classify import ServiceClass
from repro.mm.address_space import Vma
from repro.workloads.base import WorkloadSpec
from repro.workloads.ycsb import MAX_SCAN_LEN, YCSB_MIXES, YcsbMix, YcsbWorkload


def make(mix="C", rss=1000, apt=5000, threads=2, seed=0):
    spec = WorkloadSpec(name="kv", service=ServiceClass.LC, rss_pages=rss,
                        n_threads=threads, accesses_per_thread=apt)
    wl = YcsbWorkload(spec, seed=seed, mix=mix)
    wl.bind(1, Vma(start_vpn=1000, n_pages=rss))
    return wl


def segments(wl, epoch=0):
    """One batch per thread from the epoch's plan (views into its reused buffers)."""
    return list(wl.planned_epoch(epoch)[1].segments())


def gather(wl, epoch=0):
    batches = segments(wl, epoch)
    return (
        np.concatenate([b.vpns for b in batches]),
        np.concatenate([b.is_write for b in batches]),
    )


def test_all_mixes_defined():
    assert set(YCSB_MIXES) == set("ABCDEF")
    for mix in YCSB_MIXES.values():
        total = mix.read + mix.update + mix.insert + mix.scan + mix.rmw
        assert total == pytest.approx(1.0)


def test_workload_c_pure_reads():
    vpns, writes = gather(make("C"))
    assert not writes.any()


def test_workload_a_half_updates():
    vpns, writes = gather(make("A", apt=20_000))
    assert writes.mean() == pytest.approx(0.5, abs=0.03)


def test_workload_b_light_updates():
    vpns, writes = gather(make("B", apt=20_000))
    assert writes.mean() == pytest.approx(0.05, abs=0.02)


def test_workload_f_rmw_pairs():
    wl = make("F", apt=4000)
    batches = segments(wl)
    b = batches[0]
    # RMW emits read+write to the same page back to back.
    w_idx = np.where(b.is_write)[0]
    assert w_idx.size > 0
    assert (b.vpns[w_idx] == b.vpns[w_idx - 1]).all()


def test_workload_e_scans_are_sequential_reads():
    vpns, writes = gather(make("E", apt=2000))
    # Mostly reads; runs of +1 strides dominate.
    assert writes.mean() < 0.1
    diffs = np.diff(vpns)
    assert (diffs == 1).mean() > 0.5


def test_workload_d_skews_to_latest_keys():
    vpns, _ = gather(make("D", rss=1000, apt=20_000))
    offsets = vpns - 1000
    # "latest" concentrates traffic near the top of the key space.
    assert np.median(offsets) > 900


def test_accesses_within_vma():
    for mix in "ABCDEF":
        wl = make(mix, rss=500, apt=2000)
        vpns, _ = gather(wl)
        assert vpns.min() >= 1000
        assert vpns.max() < 1500


def test_write_fraction_estimates():
    assert make("C").write_fraction() == 0.0
    assert make("A").write_fraction() == pytest.approx(0.5)
    assert 0.0 < make("F").write_fraction() < 0.5


def test_mix_validation():
    with pytest.raises(ValueError):
        YcsbMix(read=0.5)
    with pytest.raises(ValueError):
        YcsbWorkload(mix="Z")


def test_deterministic():
    a_v, a_w = gather(make("A", seed=3))
    b_v, b_w = gather(make("A", seed=3))
    np.testing.assert_array_equal(a_v, b_v)
    np.testing.assert_array_equal(a_w, b_w)


def test_scan_length_bounded():
    assert MAX_SCAN_LEN == 16
