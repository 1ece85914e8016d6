"""The benchmark's own arithmetic: self time, epoch split, percentiles.

    python3 -m pytest perfbench/tests
"""

import pytest

import layers
import stats
import worker
from layers import LayerClock, installed
from workloads import WORKLOADS


class FakeClock:
    """perf_counter_ns stand-in that moves only when told to."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


@pytest.fixture
def fake_time(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(layers, "perf_counter_ns", clock)
    return clock


def test_nested_call_is_charged_to_the_inner_layer_only(fake_time):
    class Inner:
        def work(self):
            fake_time.now += 5
            return "inner"

    class Outer:
        def run(self, inner):
            fake_time.now += 10
            out = inner.work()
            fake_time.now += 3
            return out

    orig_run = Outer.run
    clock = LayerClock()
    table = [("plan", Outer, "run", None), ("migrate", Inner, "work", None)]
    with installed(clock, table):
        assert Outer().run(Inner()) == "inner"
        Inner().work()  # not nested: charged to its own layer as well
    assert clock.self_ns["plan"] == 13
    assert clock.self_ns["migrate"] == 10
    assert Outer.run is orig_run  # originals restored after the block


def test_same_layer_nesting_and_exceptions_keep_the_books(fake_time):
    class Profiler:
        def end_epoch(self):
            fake_time.now += 2

    class Hybrid(Profiler):
        def end_epoch(self):
            fake_time.now += 1
            super().end_epoch()

    class Broken:
        def record(self):
            fake_time.now += 4
            raise ValueError("boom")

    clock = LayerClock()
    table = [("profile", Profiler, "end_epoch", None), ("record", Broken, "record", None)]
    with installed(clock, table):
        Hybrid().end_epoch()  # the override is wrapped too: 1 + 2, once each
        with pytest.raises(ValueError):
            Broken().record()
        Hybrid().end_epoch()
    assert clock.self_ns["profile"] == 6
    assert clock.self_ns["record"] == 4


def test_counter_sees_state_before_and_after_the_call(fake_time):
    class Engine:
        def __init__(self):
            self.moved = 0

        def migrate_batch(self, requests):
            self.moved += len(requests) - 1

    def count(clock, args, out, before):
        clock.add("migrate.pages_moved", args[0].moved - before)

    count.before = lambda args: args[0].moved
    clock = LayerClock()
    with installed(clock, [("migrate", Engine, "migrate_batch", count)]):
        eng = Engine()
        eng.migrate_batch([1, 2, 3])
        eng.migrate_batch([4, 5])
    assert clock.counts == {"migrate.pages_moved": 3}


def _epoch(ms, admitted=0, pages=0):
    return [ms * 1_000_000, admitted, pages]


def test_admission_and_steady_split_with_a_restart():
    # churn's shape: arrivals at 0, 5, 10, departures at 15 and 20
    # (steady epochs: nothing admitted), a restart at 24
    admitting = {0: 1400, 5: 1100, 10: 1300, 24: 1100}
    epochs = [
        _epoch(50 if e in admitting else 10, int(e in admitting), admitting.get(e, 0))
        for e in range(30)
    ]
    split = stats.split_epochs(epochs)
    assert split["admit_epochs"] == 4
    assert split["admit_s"] == pytest.approx(0.2)
    assert split["steady_epochs"] == 26
    assert split["steady_s"] == pytest.approx(0.26)
    assert split["admitted_pages"] == 4900


def test_admission_time_is_the_mean_over_repetitions():
    # a run that spans a slow phase of the host: the mean weighs it by
    # its share of the run, where a median would drop it
    reps = [
        {"epochs": [_epoch(ms, 1, 10), _epoch(20)], "run_ns": 1, "setup_ns": [1], "sim": {}}
        for ms in (100, 100, 400)
    ]
    assert stats.end_to_end(reps, [1024])["admit_s"] == pytest.approx(0.2)


def test_churn_restart_epoch_counts_as_admission():
    rep = worker.run_rep(WORKLOADS["churn"], seed=1, clock=None)
    admitted = [i for i, e in enumerate(rep["epochs"]) if e[1]]
    assert admitted == [0, 5, 10, 24]
    # memcached, pagerank, liblinear, then the restarted pagerank
    assert [rep["epochs"][i][2] for i in admitted] == [1400, 1100, 1300, 1100]


@pytest.mark.parametrize(
    "n, q, expected",
    [(99, 90, None), (100, 90, 89), (250, 90, 224), (19, 50, None), (20, 50, 9), (0, 50, None)],
)
def test_percentile_needs_ten_samples_beyond_it(n, q, expected):
    assert stats.tail_percentile(list(range(n)), q) == expected


def test_layers_and_other_add_up_to_the_traced_wall_time():
    ms = 1_000_000
    self_ns = dict.fromkeys(layers.LAYERS, 0)
    self_ns.update(traffic=30 * ms, migrate=20 * ms)
    in_admission = dict.fromkeys(layers.LAYERS, 0)
    in_admission.update(traffic=5 * ms)
    rep = {
        "run_ns": 200 * ms,
        "epochs": [_epoch(100, 1, 50), _epoch(50), _epoch(40)],
        "layers": {"self_ns": self_ns, "admission_epochs_self_ns": in_admission, "counts": {}},
    }
    m = stats.rep_layers(rep)
    assert m["admission.s"] == pytest.approx(0.095)
    assert m["admission.us_per_page"] == pytest.approx(1900)
    assert m["other.s"] == pytest.approx(0.200 - 0.095 - 0.050)
    shares = m["admission.share"] + m["other.share"] + sum(m[f"{l}.share"] for l in layers.LAYERS)
    assert shares == pytest.approx(1.0)
    assert m["migrate.moved_frac"] == 0.0  # nothing requested: no division by zero
