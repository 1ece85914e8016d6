"""Four priority queues + MLFQ escalation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify import PageClass
from repro.core.queues import PromotionQueues


def test_pop_serves_priority_order():
    q = PromotionQueues()
    q.enqueue(1, 10, heat=5.0, page_class=PageClass.SHARED_WRITE)
    q.enqueue(1, 11, heat=5.0, page_class=PageClass.PRIVATE_READ)
    q.enqueue(1, 12, heat=5.0, page_class=PageClass.SHARED_READ)
    q.enqueue(1, 13, heat=5.0, page_class=PageClass.PRIVATE_WRITE)
    order = [p.vpn for p in q.pop(4)]
    assert order == [11, 12, 13, 10]


def test_hottest_first_within_class():
    q = PromotionQueues()
    q.enqueue(1, 10, heat=1.0, page_class=PageClass.PRIVATE_READ)
    q.enqueue(1, 11, heat=9.0, page_class=PageClass.PRIVATE_READ)
    q.enqueue(1, 12, heat=5.0, page_class=PageClass.PRIVATE_READ)
    assert [p.vpn for p in q.pop(3)] == [11, 12, 10]


def test_budget_respected():
    q = PromotionQueues()
    for vpn in range(10):
        q.enqueue(1, vpn, heat=1.0, page_class=PageClass.PRIVATE_READ)
    assert len(q.pop(3)) == 3
    assert len(q) == 7


def test_reenqueue_supersedes_old_entry():
    q = PromotionQueues()
    q.enqueue(1, 10, heat=1.0, page_class=PageClass.PRIVATE_READ)
    q.enqueue(1, 10, heat=8.0, page_class=PageClass.PRIVATE_READ)
    served = q.pop(10)
    assert len(served) == 1
    assert served[0].heat == 8.0


def test_mlfq_escalation_on_hot_page_in_low_queue():
    q = PromotionQueues(boost_factor=2.0)
    # Populate the class above with moderate heat.
    for vpn in range(5):
        q.enqueue(1, vpn, heat=4.0, page_class=PageClass.PRIVATE_WRITE)
    # A shared-write page far hotter than the class above escalates.
    cls = q.enqueue(1, 99, heat=100.0, page_class=PageClass.SHARED_WRITE)
    assert cls > PageClass.SHARED_WRITE
    assert q.escalations >= 1


def test_mlfq_no_escalation_without_reference_population(  # noqa: D103
):
    q = PromotionQueues()
    cls = q.enqueue(1, 99, heat=100.0, page_class=PageClass.SHARED_WRITE)
    assert cls is PageClass.SHARED_WRITE  # nothing above to compare against


def test_mlfq_cold_page_stays_put():
    q = PromotionQueues(boost_factor=2.0)
    for vpn in range(5):
        q.enqueue(1, vpn, heat=4.0, page_class=PageClass.PRIVATE_WRITE)
    cls = q.enqueue(1, 99, heat=1.0, page_class=PageClass.SHARED_WRITE)
    assert cls is PageClass.SHARED_WRITE


def test_drop_removes_candidate():
    q = PromotionQueues()
    q.enqueue(1, 10, heat=1.0, page_class=PageClass.PRIVATE_READ)
    assert q.drop(1, 10) is True
    assert q.drop(1, 10) is False
    assert q.pop(10) == []


def test_drop_pid():
    q = PromotionQueues()
    q.enqueue(1, 10, heat=1.0, page_class=PageClass.PRIVATE_READ)
    q.enqueue(2, 11, heat=1.0, page_class=PageClass.PRIVATE_READ)
    assert q.drop_pid(1) == 1
    assert [p.pid for p in q.pop(10)] == [2]


def test_depth_accounting():
    q = PromotionQueues()
    q.enqueue(1, 10, heat=1.0, page_class=PageClass.SHARED_READ)
    q.enqueue(1, 11, heat=1.0, page_class=PageClass.SHARED_READ)
    assert q.depth(PageClass.SHARED_READ) == 2
    q.pop(1)
    assert q.depth(PageClass.SHARED_READ) == 1


def test_validation():
    with pytest.raises(ValueError):
        PromotionQueues(boost_factor=1.0)
    q = PromotionQueues()
    with pytest.raises(ValueError):
        q.enqueue(1, 1, heat=-1.0, page_class=PageClass.SHARED_READ)
    with pytest.raises(ValueError):
        q.pop(-1)


@settings(max_examples=30, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.integers(0, 50), st.floats(0.0, 100.0), st.sampled_from(list(PageClass))),
        min_size=1,
        max_size=40,
    )
)
def test_pop_order_property(entries):
    """Served pages are sorted by (effective class desc, heat desc)."""
    q = PromotionQueues()
    for vpn, heat, cls in entries:
        q.enqueue(1, vpn, heat=heat, page_class=cls)
    served = q.pop(len(entries))
    keys = [(-p.effective_class, -p.heat) for p in served]
    assert keys == sorted(keys)
    # Each live page served at most once.
    assert len({p.vpn for p in served}) == len(served)


class _Uncompacted(PromotionQueues):
    """Reference queue that never drops stale heap entries."""

    def _compact(self, cls):
        pass


def _heap_entries(q):
    return sum(len(h) for h in q._heaps.values())


def test_refresh_rounds_keep_heaps_bounded_and_pop_order_unchanged():
    """Re-enqueueing the same candidates every round (as the daemon's
    candidate refresh does each epoch) must not grow the heaps without
    bound, and dropping stale entries must not change what pop serves."""
    import random

    rnd = random.Random(5)
    classes = list(PageClass)
    q, ref = PromotionQueues(), _Uncompacted()
    served, served_ref = [], []
    peak = ref_peak = 0
    for rnd_i in range(200):
        for vpn in rnd.sample(range(400), 150):
            # few distinct heats, so equal (heat, class) re-enqueues occur
            heat = float(rnd.randrange(1, 40))
            cls = rnd.choice(classes)
            eff = q.enqueue(1 + vpn % 2, vpn, heat, cls)
            assert eff is ref.enqueue(1 + vpn % 2, vpn, heat, cls)
            assert len(q._heaps[eff]) <= 3 * q.depth(eff) + q.STALE_SLACK
        if rnd_i % 3 == 0:
            budget = rnd.randrange(0, 40)
            served.append(q.pop(budget))
            served_ref.append(ref.pop(budget))
        for vpn in rnd.sample(range(400), 5):
            assert q.drop(1 + vpn % 2, vpn) == ref.drop(1 + vpn % 2, vpn)
        peak = max(peak, _heap_entries(q))
        ref_peak = max(ref_peak, _heap_entries(ref))
    assert served == served_ref
    assert q.pop(10_000) == ref.pop(10_000)
    assert len(q) == len(ref) == 0
    assert q.escalations == ref.escalations
    # 400 pages, each live in one class at a time
    assert peak <= len(classes) * (3 * 400 + q.STALE_SLACK)
    assert ref_peak > 4 * peak  # the reference did grow
