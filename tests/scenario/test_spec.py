"""ScenarioSpec validation, serialization round-trips, content hashing."""

from __future__ import annotations

import json

import pytest

from repro.scenario import (
    ScenarioEvent,
    ScenarioSpec,
    ScenarioSpecError,
    WorkloadDef,
    get_scenario,
    scenario_names,
)


def wd(key="mc", **kw):
    base = dict(key=key, kind="memcached", service="LC", rss_pages=100)
    base.update(kw)
    return WorkloadDef(**base)


def spec(workloads=None, events=(), n_epochs=20, **kw):
    return ScenarioSpec(
        name="t",
        n_epochs=n_epochs,
        workloads=tuple(workloads if workloads is not None else [wd()]),
        events=tuple(events),
        **kw,
    )


class TestValidation:
    def test_minimal_spec_validates(self):
        spec().validate()

    def test_needs_a_workload(self):
        with pytest.raises(ScenarioSpecError, match="at least one workload"):
            spec(workloads=[]).validate()

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ScenarioSpecError, match="duplicate"):
            spec(workloads=[wd(), wd()]).validate()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioSpecError, match="unknown kind"):
            spec(workloads=[wd(kind="redis")]).validate()

    def test_bad_service_rejected(self):
        with pytest.raises(ScenarioSpecError, match="LC or BE"):
            spec(workloads=[wd(service="RT")]).validate()

    def test_start_epoch_outside_run_rejected(self):
        with pytest.raises(ScenarioSpecError, match="start_epoch"):
            spec(workloads=[wd(start_epoch=20)], n_epochs=20).validate()

    def test_unknown_action_rejected(self):
        with pytest.raises(ScenarioSpecError, match="unknown action"):
            spec(events=[ScenarioEvent(epoch=1, action="explode")]).validate()

    def test_event_epoch_outside_run_rejected(self):
        with pytest.raises(ScenarioSpecError, match="epoch outside"):
            spec(events=[ScenarioEvent(epoch=20, action="depart", target="mc")]).validate()

    def test_unknown_target_rejected(self):
        with pytest.raises(ScenarioSpecError, match="unknown target"):
            spec(events=[ScenarioEvent(epoch=1, action="depart", target="nope")]).validate()

    def test_depart_before_start_rejected(self):
        with pytest.raises(ScenarioSpecError, match="not started"):
            spec(
                workloads=[wd(start_epoch=5)],
                events=[ScenarioEvent(epoch=2, action="depart", target="mc")],
            ).validate()

    def test_double_depart_rejected(self):
        with pytest.raises(ScenarioSpecError, match="already departed"):
            spec(events=[
                ScenarioEvent(epoch=2, action="depart", target="mc"),
                ScenarioEvent(epoch=4, action="depart", target="mc"),
            ]).validate()

    def test_restart_without_depart_rejected(self):
        with pytest.raises(ScenarioSpecError, match="prior depart"):
            spec(events=[ScenarioEvent(epoch=2, action="restart", target="mc")]).validate()

    def test_depart_restart_depart_allowed(self):
        spec(events=[
            ScenarioEvent(epoch=2, action="depart", target="mc"),
            ScenarioEvent(epoch=4, action="restart", target="mc"),
            ScenarioEvent(epoch=6, action="depart", target="mc"),
        ]).validate()

    def test_qos_change_needs_valid_service(self):
        with pytest.raises(ScenarioSpecError, match="service"):
            spec(events=[ScenarioEvent(epoch=1, action="qos_change", target="mc", params={})]).validate()

    def test_phase_shift_needs_payload(self):
        with pytest.raises(ScenarioSpecError, match="attrs"):
            spec(events=[ScenarioEvent(epoch=1, action="phase_shift", target="mc")]).validate()

    def test_tier_offline_needs_positive_pages(self):
        with pytest.raises(ScenarioSpecError, match="pages"):
            spec(events=[ScenarioEvent(epoch=1, action="tier_offline", params={"pages": 0})]).validate()

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ScenarioSpecError, match="unknown fault kind"):
            spec(events=[ScenarioEvent(epoch=1, action="faults_set", params={"cosmic_ray": 0.5})]).validate()

    def test_fault_probability_out_of_range_rejected(self):
        with pytest.raises(ScenarioSpecError, match="probability"):
            spec(events=[ScenarioEvent(epoch=1, action="faults_set", params={"lost_async": 1.5})]).validate()

    def test_link_degrade_factors_checked(self):
        with pytest.raises(ScenarioSpecError, match="bandwidth_factor"):
            spec(events=[ScenarioEvent(epoch=1, action="link_degrade", params={"bandwidth_factor": 0.0})]).validate()


class TestSerialization:
    def test_round_trip_is_lossless(self):
        s = get_scenario("churn")
        assert ScenarioSpec.from_dict(s.to_dict()) == s

    def test_from_json_file(self, tmp_path):
        s = get_scenario("fault_storm")
        p = tmp_path / "s.json"
        p.write_text(json.dumps(s.to_dict()))
        assert ScenarioSpec.from_json(p) == s

    def test_from_dict_validates(self):
        d = get_scenario("churn").to_dict()
        d["events"][0]["action"] = "explode"
        with pytest.raises(ScenarioSpecError):
            ScenarioSpec.from_dict(d)


class TestContentHash:
    def test_hash_is_stable_across_instances(self):
        assert get_scenario("churn").content_hash() == get_scenario("churn").content_hash()

    def test_hash_changes_with_content(self):
        a = spec()
        b = spec(n_epochs=21)
        assert a.content_hash() != b.content_hash()

    def test_hash_differs_across_canned_scenarios(self):
        hashes = {get_scenario(n).content_hash() for n in scenario_names()}
        assert len(hashes) == len(scenario_names())


class TestOverrides:
    def test_override_seed(self):
        s = get_scenario("churn").with_overrides(seed=9)
        assert s.seed == 9

    def test_epoch_override_must_not_cut_off_events(self):
        with pytest.raises(ScenarioSpecError, match="cut off"):
            get_scenario("churn").with_overrides(n_epochs=10)

    def test_epoch_override_extension_allowed(self):
        assert get_scenario("churn").with_overrides(n_epochs=60).n_epochs == 60


class TestTypedValidation:
    """Inputs that used to slip through as silent no-ops or untyped
    TypeErrors must now raise ScenarioSpecError (the fuzzer's contract:
    anything validate() accepts, the engine actually executes)."""

    def test_float_epoch_rejected(self):
        # pre-fix: accepted, but the engine's int-keyed dispatch dict
        # meant the event silently never fired
        ev = ScenarioEvent(epoch=3.5, action="depart", target="mc")
        with pytest.raises(ScenarioSpecError, match="epoch must be an integer"):
            spec(events=[ev]).validate()

    def test_bool_epoch_rejected(self):
        ev = ScenarioEvent(epoch=True, action="depart", target="mc")
        with pytest.raises(ScenarioSpecError, match="epoch must be an integer"):
            spec(events=[ev]).validate()

    def test_str_epoch_rejected_with_typed_error(self):
        # pre-fix: raised a bare TypeError from the range comparison
        ev = ScenarioEvent(epoch="3", action="depart", target="mc")
        with pytest.raises(ScenarioSpecError, match="epoch must be an integer"):
            spec(events=[ev]).validate()

    @pytest.mark.parametrize("field", ["rss_pages", "n_threads", "start_epoch", "accesses_per_thread"])
    def test_non_integer_workload_fields_rejected(self, field):
        with pytest.raises(ScenarioSpecError, match=f"{field} must be an integer"):
            spec(workloads=[wd(**{field: 2.5})]).validate()

    def test_non_numeric_fault_probability_rejected(self):
        # pre-fix: float("high") raised an untyped ValueError
        ev = ScenarioEvent(epoch=1, action="faults_set", params={"lost_async": "high"})
        with pytest.raises(ScenarioSpecError, match="must be a number"):
            spec(events=[ev]).validate()

    def test_bool_fault_probability_rejected(self):
        ev = ScenarioEvent(epoch=1, action="faults_set", params={"lost_async": True})
        with pytest.raises(ScenarioSpecError, match="must be a number"):
            spec(events=[ev]).validate()

    def test_non_numeric_link_factors_rejected(self):
        for params in ({"bandwidth_factor": "slow"}, {"latency_factor": "big"}):
            ev = ScenarioEvent(epoch=1, action="link_degrade", params=params)
            with pytest.raises(ScenarioSpecError, match="must be a number"):
                spec(events=[ev]).validate()

    def test_duplicate_depart_rejected(self):
        evs = [ScenarioEvent(epoch=2, action="depart", target="mc"),
               ScenarioEvent(epoch=4, action="depart", target="mc")]
        with pytest.raises(ScenarioSpecError, match="already departed"):
            spec(events=evs).validate()

    def test_duplicate_restart_rejected(self):
        evs = [ScenarioEvent(epoch=2, action="depart", target="mc"),
               ScenarioEvent(epoch=4, action="restart", target="mc"),
               ScenarioEvent(epoch=6, action="restart", target="mc")]
        with pytest.raises(ScenarioSpecError, match="restart needs a prior depart"):
            spec(events=evs).validate()


class TestHorizonGuard:
    def test_check_horizon_names_last_scripted_epoch(self):
        s = spec(events=[ScenarioEvent(epoch=8, action="depart", target="mc")])
        assert s.last_scripted_epoch() == 8
        with pytest.raises(ScenarioSpecError, match="epoch 8"):
            s.check_horizon(5)
        s.check_horizon(9)  # one past the last event is fine

    def test_engine_run_override_cannot_drop_events(self):
        # pre-fix: ScenarioExperiment.run(4) on a spec with a depart @8
        # silently never dispatched the event
        from repro.scenario.engine import ScenarioExperiment

        s = spec(n_epochs=12,
                 events=[ScenarioEvent(epoch=8, action="depart", target="mc")])
        exp = ScenarioExperiment(s)
        with pytest.raises(ScenarioSpecError, match="cut off scripted activity"):
            exp.run(4)


class TestKnobBoundary:
    """Generator knobs and thread counts are checked where the spec is
    validated, not discovered mid-run (or inside a service worker)."""

    @staticmethod
    def shift(attrs, **params):
        return spec(events=[ScenarioEvent(epoch=1, action="phase_shift", target="mc",
                                          params={"attrs": attrs, **params})])

    @pytest.mark.parametrize("attrs, match", [
        # pre-fix: ran to completion while observe_plan dropped every
        # plan for the unknown pid, so the profiler saw no traffic
        ({"pid": 4242}, "no knob 'pid'"),
        # pre-fix: turned plan prefetch back on under scripted events
        ({"plan_horizon": 4}, "no knob 'plan_horizon'"),
        # pre-fix: validated, then crashed inside the run
        ({"hot_frac": "big"}, "finite real number"),
        ({"hot_frac": float("nan")}, "finite real number"),
        ({"idle_rate": True}, "finite real number"),
    ])
    def test_phase_shift_attrs_limited_to_finite_knobs(self, attrs, match):
        with pytest.raises(ScenarioSpecError, match=match):
            self.shift(attrs).validate()

    def test_phase_shift_params_and_reseed_checked(self):
        self.shift({"hot_frac": 0.3, "idle_rate": 0.8}, reseed=5).validate()
        with pytest.raises(ScenarioSpecError, match="only attrs and reseed"):
            self.shift({"hot_frac": 0.3}, pid=4242).validate()
        with pytest.raises(ScenarioSpecError, match="reseed must be an integer"):
            self.shift({}, reseed="x").validate()

    def test_workload_params_limited_to_constructor_knobs(self):
        spec(workloads=[wd(params={"hot_frac": 0.2, "burst_period_epochs": 4})]).validate()
        spec(workloads=[wd(kind="microbench", params={"shared_threads": False})]).validate()
        for kind, params in (("memcached", {"bogus": 1}),
                             ("memcached", {"hot_frac": "big"}),
                             ("microbench", {"shared_threads": 1}),
                             ("microbench", {"wss_pages": 8})):  # stored as _wss
            with pytest.raises(ScenarioSpecError, match="params"):
                spec(workloads=[wd(kind=kind, params=params)]).validate()

    def test_reshape_applies_the_same_rule(self):
        from repro.mm.address_space import Vma
        from repro.scenario import build_workload

        wl = build_workload(wd(), base_seed=1)
        wl.bind(1, Vma(start_vpn=1000, n_pages=100))
        with pytest.raises(ValueError, match="no knob 'pid'"):
            wl.reshape(attrs={"pid": 4242})
        assert wl.pid == 1
        wl.reshape(attrs={"hot_frac": 0.3})
        assert wl.hot_frac == 0.3

    def test_n_threads_bounded_by_pte_ownership_field(self):
        # tids 0..126 fit the 7-bit PTE field (127 marks a shared page);
        # pre-fix, 128+ validated and then admission raised mid-run
        from repro.scenario import run_scenario

        ok = spec(workloads=[wd(n_threads=127, accesses_per_thread=50)], n_epochs=1).validate()
        assert run_scenario(ok).result.n_epochs == 1
        with pytest.raises(ScenarioSpecError, match="n_threads must be <= 127"):
            spec(workloads=[wd(n_threads=128)]).validate()
