"""Heterogeneous elastic fleets: determinism, autoscaling, chaos coherence.

Covers ROADMAP item 5's three composed layers:

* routing determinism under resize — ``least-loaded`` and
  ``power-of-two`` produce byte-identical summaries across repeated
  runs while replicas crash, recover and drain mid-trace;
* burn-rate vs busy-fraction autoscaling behaviour (scale-up under
  sustained overload, drain under sustained idleness, hysteresis);
* fault coherence — faults aimed at unprovisioned/drained/released
  slots are skipped no-ops, arm-time validation still rejects targets
  outside the pool *bound*, and the pool bound ignores crashed
  replicas.
"""

import json
from functools import partial

import pytest

from repro.api import ServeConfig, Session, build_trace, make_scheduler
from repro.cluster.deployment import ClusterDeployment
from repro.cluster.fleet import (
    BurnRateAutoscaler,
    BusyFractionAutoscaler,
    DEFAULT_HARDWARE_CLASSES,
    FleetConfig,
    HardwareClass,
    parse_fleet_spec,
)
from repro.experiments.configs import get_execution_model
from repro.faults.plan import FaultPlan, ReplicaCrash
from repro.faults.policy import ResilienceConfig
from repro.metrics import summary_to_dict
from repro.perfmodel.hardware import A100_80GB
from repro.workload.arrivals import burst_schedule

EXEC = get_execution_model("llama3-8b")

AUTOSCALERS = {
    "burn-rate": BurnRateAutoscaler,
    "busy-fraction": BusyFractionAutoscaler,
}


def _trace(n=120, qps=8.0, seed=7, arrivals=None):
    return build_trace(
        "ShareGPT", qps=qps, num_requests=n, seed=seed,
        low_priority_fraction=0.25, arrivals=arrivals,
    )


def _config(initial=("a100", "a100", "a100"), **kwargs):
    defaults = dict(
        classes=DEFAULT_HARDWARE_CLASSES,
        initial=initial,
        min_replicas=1,
        max_replicas=6,
        control_interval=10.0,
        provision_delay=15.0,
    )
    defaults.update(kwargs)
    return FleetConfig(**defaults)


def _fleet(config=None, autoscaler=None, plan=None, routing="perf-aware"):
    return ClusterDeployment(
        EXEC,
        partial(make_scheduler, "qoserve", EXEC),
        fleet=config or _config(),
        routing=routing,
        fault_plan=plan,
        resilience=ResilienceConfig(shed_free_below=0.5),
        autoscaler=autoscaler,
    )


def _summary_bytes(fleet):
    return json.dumps(
        summary_to_dict(fleet.summarize()), sort_keys=True
    ).encode()


class TestRoutingDeterminismUnderResize:
    """Satellite: load-aware routing stays byte-deterministic while
    the pool churns (crash, recover, drain) mid-trace."""

    CHAOS = FaultPlan(
        events=(ReplicaCrash(time=4.0, replica_id=1, recover_after=5.0),)
    )

    def _run(self, routing):
        trace = _trace()
        fleet = _fleet(plan=self.CHAOS, routing=routing)
        # Drain replica 2 mid-trace, between the crash and recovery
        # of replica 1, so routing sees every membership state.
        fleet.simulator.schedule(
            6.0, lambda: fleet._scale_down(fleet.simulator.now)
        )
        fleet.submit_trace(trace.fresh_copy())
        fleet.run_until_drained(max_events=10_000_000)
        return fleet

    @pytest.mark.parametrize("routing", ["least-loaded", "power-of-two"])
    def test_byte_identical_across_runs(self, routing):
        first = self._run(routing)
        second = self._run(routing)
        assert _summary_bytes(first) == _summary_bytes(second)
        assert first.summarize().finished > 0

    @pytest.mark.parametrize("routing", ["least-loaded", "power-of-two"])
    def test_chaos_actually_fired(self, routing):
        fleet = self._run(routing)
        stats = fleet.fleet_stats()
        assert stats["crashes"] == 1
        assert any(s.released for s in fleet._slots)
        assert stats["kv_blocks_resident"] == 0

    def test_perf_aware_homogeneous_matches_least_loaded(self):
        homogeneous = _summary_bytes(self._run("perf-aware"))
        assert homogeneous == _summary_bytes(self._run("least-loaded"))


class TestFleetDeterminism:
    def test_autoscaled_heterogeneous_run_is_byte_identical(self):
        def once():
            fleet = _fleet(
                config=_config(initial=("a100", "h100")),
                autoscaler=BurnRateAutoscaler(),
                plan=FaultPlan(
                    events=(
                        ReplicaCrash(
                            time=3.0, replica_id=0, recover_after=4.0
                        ),
                    )
                ),
            )
            fleet.submit_trace(_trace(n=150, qps=14.0).fresh_copy())
            fleet.run_until_drained(max_events=10_000_000)
            return _summary_bytes(fleet), fleet.fleet_stats()

        (bytes_a, stats_a), (bytes_b, stats_b) = once(), once()
        assert bytes_a == bytes_b
        assert json.dumps(stats_a, sort_keys=True) == json.dumps(
            stats_b, sort_keys=True
        )


class TestAutoscaling:
    def test_burn_rate_scales_up_under_sustained_overload(self):
        fleet = _fleet(
            config=_config(initial=("a100",)),
            autoscaler=BurnRateAutoscaler(),
        )
        fleet.submit_trace(_trace(n=400, qps=30.0).fresh_copy())
        fleet.run_until_drained(max_events=10_000_000)
        assert any(
            action == "provision"
            for _, action, _ in fleet.scaling_events
        )
        assert fleet.fleet_stats()["max_burn_rate"] > 0

    def test_busy_fraction_also_scales_up_under_sustained_overload(self):
        fleet = _fleet(
            config=_config(initial=("a100",)),
            autoscaler=BusyFractionAutoscaler(),
        )
        fleet.submit_trace(_trace(n=400, qps=30.0).fresh_copy())
        fleet.run_until_drained(max_events=10_000_000)
        assert any(
            action == "provision"
            for _, action, _ in fleet.scaling_events
        )
        assert len(fleet.replicas) > 1

    def test_starts_at_initial_fleet_size(self):
        fleet = _fleet(
            config=_config(initial=("a100", "a100"), min_replicas=2),
            autoscaler=BusyFractionAutoscaler(),
        )
        assert fleet.fleet_size == 2
        assert fleet.active_replicas == 2

    @pytest.mark.parametrize("policy", sorted(AUTOSCALERS))
    def test_completes_all_requests(self, policy):
        fleet = _fleet(
            config=_config(initial=("a100",), max_replicas=4),
            autoscaler=AUTOSCALERS[policy](),
        )
        fleet.submit_trace(_trace(n=150, qps=3.0).fresh_copy())
        fleet.run_until_drained(max_events=10_000_000)
        assert all(r.is_finished for r in fleet.all_requests())

    @pytest.mark.parametrize("policy", sorted(AUTOSCALERS))
    def test_never_exceeds_max_replicas(self, policy):
        fleet = _fleet(
            config=_config(
                initial=("a100",), max_replicas=2,
                control_interval=15.0, provision_delay=5.0,
            ),
            autoscaler=AUTOSCALERS[policy](),
        )
        fleet.submit_trace(_trace(n=400, qps=30.0).fresh_copy())
        fleet.run_until_drained(max_events=10_000_000)
        sizes = [size for _, _, size in fleet.scaling_events]
        assert sizes, "overload never triggered a resize"
        assert max(sizes) <= 2
        assert len(fleet.replicas) <= 2

    def test_provision_delay_observed(self):
        fleet = _fleet(
            config=_config(
                initial=("a100",), max_replicas=3,
                control_interval=10.0, provision_delay=100.0,
            ),
            autoscaler=BusyFractionAutoscaler(),
        )
        fleet.submit_trace(_trace(n=300, qps=30.0).fresh_copy())
        fleet.run(until=50.0)
        actions = [action for _, action, _ in fleet.scaling_events]
        assert "provision" in actions
        # Nothing bought can be serving before its cold start ends.
        assert "ready" not in actions
        assert fleet.active_replicas == 1

    @pytest.mark.parametrize("policy", sorted(AUTOSCALERS))
    def test_gpu_hours_bounded_by_max_replicas(self, policy):
        fleet = _fleet(
            config=_config(
                initial=("a100",), max_replicas=3,
                control_interval=20.0, provision_delay=10.0,
            ),
            autoscaler=AUTOSCALERS[policy](),
        )
        fleet.submit_trace(_trace(n=200, qps=4.0).fresh_copy())
        end = fleet.run_until_drained(max_events=10_000_000)
        assert 0 < fleet.gpu_hours <= 3 * end / 3600.0 + 1e-6

    @pytest.mark.parametrize("policy", sorted(AUTOSCALERS))
    def test_drained_replicas_stop_costing(self, policy):
        fleet = _fleet(
            config=_config(
                initial=("a100",), max_replicas=4,
                control_interval=15.0, provision_delay=5.0,
            ),
            autoscaler=AUTOSCALERS[policy](),
        )
        trace = _trace(n=300, arrivals=burst_schedule(0.1, 30.0, 0.0, 60.0))
        fleet.submit_trace(trace.fresh_copy())
        end = fleet.run_until_drained(max_events=10_000_000)
        assert len(fleet.replicas) > 1
        assert fleet.fleet_size <= 2
        # Advancing the clock an hour bills only the replicas still
        # provisioned; released ones stopped at their release time.
        hours = fleet.gpu_hours
        fleet.simulator.schedule(end + 3600.0, lambda: None)
        fleet.run()
        assert fleet.gpu_hours == pytest.approx(hours + fleet.fleet_size)

    def test_burn_rate_drains_idle_fleet(self):
        fleet = _fleet(
            config=_config(initial=("a100",) * 4),
            autoscaler=BurnRateAutoscaler(),
        )
        fleet.submit_trace(_trace(n=60, qps=1.0).fresh_copy())
        fleet.run_until_drained(max_events=10_000_000)
        assert fleet.fleet_size < 4
        assert fleet.fleet_size >= fleet.fleet.min_replicas

    def test_busy_fraction_also_drains_idle_fleet(self):
        fleet = _fleet(
            config=_config(initial=("a100",) * 4),
            autoscaler=BusyFractionAutoscaler(),
        )
        fleet.submit_trace(_trace(n=20, qps=0.2).fresh_copy())
        fleet.run_until_drained(max_events=10_000_000)
        assert fleet.fleet_size < 4

    def test_busy_fraction_scales_down_after_burst(self):
        fleet = _fleet(
            config=_config(
                initial=("a100",), max_replicas=4,
                control_interval=20.0, provision_delay=5.0,
            ),
            autoscaler=BusyFractionAutoscaler(),
        )
        # A burst then a long quiet tail.
        trace = _trace(n=400, arrivals=burst_schedule(0.2, 30.0, 0.0, 60.0))
        fleet.submit_trace(trace.fresh_copy())
        fleet.run_until_drained(max_events=10_000_000)
        actions = [action for _, action, _ in fleet.scaling_events]
        assert "provision" in actions
        assert "drain" in actions
        assert fleet.active_replicas < 4

    def test_static_fleet_never_resizes(self):
        fleet = _fleet(config=_config(initial=("a100",) * 3))
        fleet.submit_trace(_trace().fresh_copy())
        fleet.run_until_drained(max_events=10_000_000)
        assert fleet.scaling_events == []
        assert fleet.fleet_size == 3

    def test_gpu_hours_accrue_per_hardware_price(self):
        fleet = _fleet(config=_config(initial=("a100", "h100")))
        fleet.submit_trace(_trace(n=40).fresh_copy())
        fleet.run_until_drained(max_events=10_000_000)
        stats = fleet.fleet_stats()
        assert stats["gpu_hours"] > 0
        # One a100 (1.0/h) + one h100 (2.5/h) for equal spans.
        assert stats["cost"] == pytest.approx(
            stats["gpu_hours"] * (1.0 + 2.5) / 2.0
        )

    def test_scale_down_respects_min_replicas(self):
        fleet = _fleet(
            config=_config(initial=("a100", "a100"), min_replicas=2),
            autoscaler=BurnRateAutoscaler(),
        )
        fleet.submit_trace(_trace(n=40, qps=1.0).fresh_copy())
        fleet.run_until_drained(max_events=10_000_000)
        assert fleet.fleet_size == 2


class TestChaosCoherence:
    def test_fault_on_unprovisioned_slot_is_skipped(self):
        plan = FaultPlan(
            events=(ReplicaCrash(time=1.0, replica_id=5),)
        )
        fleet = _fleet(config=_config(initial=("a100",)), plan=plan)
        fleet.submit_trace(_trace(n=30).fresh_copy())
        fleet.run_until_drained(max_events=10_000_000)
        stats = fleet.fleet_stats()
        assert stats["faults_skipped"] == 1
        assert stats["crashes"] == 0

    def test_arm_time_validation_rejects_out_of_bound_targets(self):
        plan = FaultPlan(
            events=(ReplicaCrash(time=1.0, replica_id=7),)
        )
        with pytest.raises(ValueError, match=r"replicas \[7\]"):
            _fleet(config=_config(initial=("a100",)), plan=plan)

    def test_fault_on_drained_replica_is_skipped(self):
        plan = FaultPlan(
            events=(ReplicaCrash(time=8.0, replica_id=2),)
        )
        fleet = _fleet(config=_config(), plan=plan)
        fleet.simulator.schedule(
            2.0, lambda: fleet._scale_down(fleet.simulator.now)
        )
        fleet.submit_trace(_trace(n=30, qps=2.0).fresh_copy())
        fleet.run_until_drained(max_events=10_000_000)
        stats = fleet.fleet_stats()
        assert stats["faults_skipped"] >= 1
        assert stats["crashes"] == 0

    def test_crashed_replica_frees_its_pool_slot(self):
        plan = FaultPlan(
            events=(ReplicaCrash(time=2.0, replica_id=0),)
        )
        fleet = _fleet(
            config=_config(initial=("a100", "a100"), max_replicas=2),
            autoscaler=BurnRateAutoscaler(),
            plan=plan,
        )
        fleet.submit_trace(_trace(n=300, qps=25.0).fresh_copy())
        fleet.run_until_drained(max_events=10_000_000)
        # The permanent crash does not occupy the 2-slot bound: a
        # replacement could be provisioned (occupancy counts healthy
        # + pending only).
        assert fleet._pool_occupancy() <= 2
        assert fleet.fleet_stats()["crashes"] == 1


class TestSessionIntegration:
    def test_session_drain_terminates_with_autoscaled_fleet(self):
        config = ServeConfig(
            fleet=_config(initial=("a100", "a100")),
            fleet_autoscaler="burn-rate",
        )
        session = Session(config)
        for request in _trace(n=50, qps=5.0):
            session.submit(request)
        now = session.drain(max_events=10_000_000)
        summary = session.summary()
        assert summary.finished == 50
        assert now > 0
        # Control loop parks but stays active for later submissions.
        assert session.fleet._control_active

    def test_empty_fleet_session_drains_instantly(self):
        session = Session(ServeConfig(fleet=_config()))
        # The only event is the first control tick, which parks.
        assert session.drain() == _config().control_interval


class TestParseFleetSpec:
    def test_parses_counts_and_defaults(self):
        config = parse_fleet_spec("a100:2,h100:1")
        assert config.initial == ("a100", "a100", "h100")
        assert config.max_replicas == 8

    def test_bare_class_name_means_one(self):
        assert parse_fleet_spec("h100").initial == ("h100",)

    def test_max_replicas_grows_to_fit_initial(self):
        config = parse_fleet_spec("a100:5", max_replicas=3)
        assert config.max_replicas == 5

    @pytest.mark.parametrize("spec", ["", "tpu:2", "a100:0", "a100:x"])
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            parse_fleet_spec(spec)

    def test_rejects_invalid_bounds_and_thresholds(self):
        for kwargs in (
            dict(min_replicas=0),
            dict(min_replicas=5, max_replicas=2),
            dict(control_interval=0),
        ):
            with pytest.raises(ValueError):
                _config(**kwargs)
        with pytest.raises(ValueError):
            BusyFractionAutoscaler(
                scale_up_threshold=0.4, scale_down_threshold=0.5
            )
        factory = partial(make_scheduler, "qoserve", EXEC)
        with pytest.raises(ValueError, match="requires fleet"):
            ClusterDeployment(
                EXEC, factory, 2, autoscaler=BusyFractionAutoscaler()
            )
        with pytest.raises(ValueError, match="sized by fleet"):
            ClusterDeployment(EXEC, factory, 2, fleet=_config())

    def test_duplicate_class_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FleetConfig(
                classes=(
                    HardwareClass("a100", A100_80GB),
                    HardwareClass("a100", A100_80GB),
                ),
                initial=("a100",),
            )
