"""Unit tests for the serving gateway (repro.serve): clock, admission,
and the deterministic ``speed=inf`` replay path."""

import asyncio
import heapq
import json
import math

import pytest

from repro.api import ServeConfig, Session, build_trace, simulate
from repro.core.relegation import ViolationChecker
from repro.metrics.export import summary_to_dict
from repro.serve import (
    REASON_BACKPRESSURE,
    REASON_RATE_LIMIT,
    AdmissionConfig,
    AdmissionController,
    GatewayConfig,
    ServeGateway,
    TokenBucket,
    VirtualClock,
    pick_shed_victim,
)
from repro.serve.gateway import SHED_CANCEL_REASON
from repro.workload import OpenLoopReplay, wait_drained
from repro.workload.datasets import AZURE_CONV
from tests.conftest import make_request


def _canonical(summary) -> str:
    return json.dumps(summary_to_dict(summary), sort_keys=True)


def _fig10_style_trace(seed=13, num_requests=35):
    """A small load-sweep workload: the fig10/11 construction recipe."""
    return build_trace(
        AZURE_CONV, qps=4.0, num_requests=num_requests, seed=seed
    )


class TestVirtualClock:
    def test_inf_has_no_target(self):
        clock = VirtualClock(math.inf)
        assert not clock.is_realtime
        clock.start(5.0)
        assert clock.target() is None
        assert clock.wall_delay_until(100.0) == 0.0

    def test_finite_speed_scales_wall_time(self):
        wall = [100.0]
        clock = VirtualClock(10.0, timer=lambda: wall[0])
        clock.start(0.0)
        wall[0] = 102.0  # 2 wall seconds at 10x
        assert clock.target() == pytest.approx(20.0)
        # 30 virtual seconds ahead of target = 1 more wall second.
        assert clock.wall_delay_until(30.0) == pytest.approx(1.0)
        assert clock.wall_delay_until(5.0) == 0.0

    def test_requires_positive_speed(self):
        with pytest.raises(ValueError):
            VirtualClock(0.0)
        with pytest.raises(ValueError):
            VirtualClock(-1.0)

    def test_target_before_start(self):
        with pytest.raises(RuntimeError):
            VirtualClock(2.0).target()

    def test_set_speed_preserves_continuity(self):
        """Changing speed mid-run re-anchors at the current target, so
        virtual time never jumps at the switch point."""
        wall = [100.0]
        clock = VirtualClock(10.0, timer=lambda: wall[0])
        clock.start(0.0)
        wall[0] = 102.0  # target is now 20 virtual seconds
        clock.set_speed(1.0)
        assert clock.target() == pytest.approx(20.0)
        wall[0] = 105.0  # 3 more wall seconds at 1x
        assert clock.target() == pytest.approx(23.0)

    def test_set_speed_inf_to_finite_uses_anchor(self):
        wall = [50.0]
        clock = VirtualClock(math.inf, timer=lambda: wall[0])
        clock.start(0.0)
        assert clock.target() is None
        clock.set_speed(2.0, virtual_now=300.0)
        assert clock.is_realtime
        wall[0] = 51.0
        assert clock.target() == pytest.approx(302.0)

    def test_set_speed_inf_to_finite_without_anchor(self):
        """With no anchor given, inf -> finite restarts from the epoch
        the clock was started at (inf has no meaningful target)."""
        wall = [50.0]
        clock = VirtualClock(math.inf, timer=lambda: wall[0])
        clock.start(7.0)
        clock.set_speed(4.0)
        wall[0] = 52.0
        assert clock.target() == pytest.approx(7.0 + 8.0)

    def test_set_speed_monotonic_target(self):
        """The target never runs backwards across repeated changes."""
        wall = [0.0]
        clock = VirtualClock(5.0, timer=lambda: wall[0])
        clock.start(0.0)
        last = 0.0
        for step, speed in enumerate([1.0, 100.0, 0.5, 10.0], start=1):
            wall[0] = float(step)
            clock.set_speed(speed)
            target = clock.target()
            assert target >= last
            last = target

    def test_set_speed_rejects_non_positive(self):
        clock = VirtualClock(1.0)
        for bad in (0.0, -2.0, float("nan")):
            with pytest.raises(ValueError):
                clock.set_speed(bad)

    def test_set_speed_before_start(self):
        wall = [0.0]
        clock = VirtualClock(2.0, timer=lambda: wall[0])
        clock.set_speed(8.0)
        assert clock.speed == 8.0
        clock.start(1.0)
        assert clock.target() == pytest.approx(1.0)


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        assert bucket.try_take(1.0)  # one virtual second refills one
        assert not bucket.try_take(1.0)

    def test_deterministic_sequence(self):
        def admit_pattern():
            bucket = TokenBucket(rate=0.5, burst=1.0)
            return [bucket.try_take(t * 0.7) for t in range(20)]

        assert admit_pattern() == admit_pattern()

    def test_time_never_runs_backwards(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.try_take(10.0)
        # An out-of-order timestamp must not mint extra tokens.
        assert not bucket.try_take(5.0)

    def test_fill_is_a_pure_peek(self):
        """``fill`` never commits refill state: a scrape between two
        takes must not change the admission sequence."""
        def admit_pattern(scrape: bool):
            bucket = TokenBucket(rate=0.5, burst=1.0)
            decisions = []
            for t in range(20):
                if scrape:
                    bucket.fill(t * 0.7)
                    bucket.fill(t * 0.7 + 0.3)
                decisions.append(bucket.try_take(t * 0.7))
            return decisions

        assert admit_pattern(scrape=True) == admit_pattern(scrape=False)

    def test_fill_reports_refill_up_to_burst(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.fill(0.0) == pytest.approx(2.0)
        assert bucket.try_take(0.0)
        assert bucket.fill(0.0) == pytest.approx(1.0)
        assert bucket.fill(0.5) == pytest.approx(1.5)
        assert bucket.fill(100.0) == pytest.approx(2.0)  # capped


class TestShedVictimOrdering:
    def test_matches_relegation_heap_order(self, execution_model):
        """The victim is exactly who RelegationPolicy would pop first."""
        checker = ViolationChecker(
            execution_model.seconds_per_prefill_token()
        )
        pool = [
            make_request(request_id=i, prompt_tokens=p, important=False)
            for i, p in enumerate([400, 2600, 900, 2600, 50])
        ]
        heap = [
            (-checker.prefill_service_time(r), r.request_id, r)
            for r in pool
        ]
        heapq.heapify(heap)
        expected = heap[0][2]
        assert pick_shed_victim(pool, checker) is expected
        assert expected.request_id == 1  # largest prefill, lowest id

    def test_important_requests_are_never_victims(self, execution_model):
        checker = ViolationChecker(
            execution_model.seconds_per_prefill_token()
        )
        protected = make_request(
            request_id=0, prompt_tokens=5000, important=True
        )
        small = make_request(
            request_id=1, prompt_tokens=10, important=False
        )
        assert pick_shed_victim([protected, small], checker) is small
        assert pick_shed_victim([protected], checker) is None


class TestAdmissionController:
    def _controller(self, execution_model, **kwargs):
        checker = ViolationChecker(
            execution_model.seconds_per_prefill_token()
        )
        return AdmissionController(AdmissionConfig(**kwargs), checker)

    def test_rate_limit_refuses(self, execution_model):
        controller = self._controller(
            execution_model, rate=1.0, burst=1.0
        )
        first = controller.decide(
            make_request(request_id=0), 0.0, queue_depth=0, pending=[]
        )
        second = controller.decide(
            make_request(request_id=1), 0.0, queue_depth=0, pending=[]
        )
        assert first.admitted
        assert not second.admitted
        assert second.reason == REASON_RATE_LIMIT

    def test_per_tier_rate_override(self, execution_model):
        controller = self._controller(
            execution_model, rate=None, burst=1.0,
            per_tier_rate={"Q1": 0.1},
        )
        assert controller.decide(
            make_request(request_id=0), 0.0, queue_depth=0, pending=[]
        ).admitted
        assert not controller.decide(
            make_request(request_id=1), 0.0, queue_depth=0, pending=[]
        ).admitted

    def test_backpressure_picks_victim(self, execution_model):
        controller = self._controller(execution_model, max_queue_depth=1)
        queued = make_request(
            request_id=0, prompt_tokens=4000, important=False
        )
        incoming = make_request(
            request_id=1, prompt_tokens=100, important=False
        )
        decision = controller.decide(
            incoming, 0.0, queue_depth=2, pending=[queued]
        )
        assert decision.admitted
        assert decision.victim is queued

    def test_backpressure_refuses_when_self_is_victim(
        self, execution_model
    ):
        controller = self._controller(execution_model, max_queue_depth=1)
        queued = make_request(
            request_id=0, prompt_tokens=100, important=True
        )
        incoming = make_request(
            request_id=1, prompt_tokens=4000, important=False
        )
        decision = controller.decide(
            incoming, 0.0, queue_depth=2, pending=[queued]
        )
        assert not decision.admitted
        assert decision.reason == REASON_BACKPRESSURE


class TestReplayByteIdentity:
    def test_replay_matches_batch_path(self):
        """``--speed inf`` replay == batch simulation, byte for byte."""
        batch = simulate(
            config=ServeConfig(scheduler="qoserve"),
            trace=_fig10_style_trace(),
        )
        session = Session(ServeConfig(scheduler="qoserve"))
        gateway = ServeGateway(session)
        replayed = gateway.replay(_fig10_style_trace())
        assert _canonical(replayed) == _canonical(batch)
        assert gateway.stats.admitted_total == 35
        assert gateway.stats.shed_total == 0
        assert gateway.stats.tokens_streamed_total == sum(
            r.decode_tokens for r in gateway.offered
        )

    def test_replay_requires_inf_speed(self):
        session = Session(ServeConfig(scheduler="fcfs"))
        gateway = ServeGateway(
            session, config=GatewayConfig(speed=10.0)
        )
        with pytest.raises(ValueError, match="speed=inf"):
            gateway.replay(_fig10_style_trace(num_requests=2))


class TestDeterministicShedding:
    def _run(self, admission: AdmissionConfig):
        session = Session(ServeConfig(scheduler="fcfs"))
        gateway = ServeGateway(
            session, config=GatewayConfig(admission=admission)
        )
        summary = gateway.replay(_fig10_style_trace(seed=9))
        return gateway, summary

    def test_rate_limit_sheds_deterministically(self):
        admission = AdmissionConfig(rate=0.5, burst=1.0)
        first, summary_a = self._run(admission)
        second, summary_b = self._run(admission)
        assert first.stats.shed_total > 0
        assert first.stats.to_dict() == second.stats.to_dict()
        assert _canonical(summary_a) == _canonical(summary_b)
        refused = [r for r in first.offered if r.shed]
        assert len(refused) == first.stats.shed_total
        for request in refused:
            assert not request.is_finished

    def test_backpressure_refuses_important_only_pool(self):
        # Equal-thirds traces are all-important: nobody is evictable,
        # so breaching the depth bound refuses the incoming request.
        gateway, _ = self._run(AdmissionConfig(max_queue_depth=2))
        assert gateway.stats.shed_total > 0
        for (_, reason), count in gateway.stats.shed.items():
            assert reason == REASON_BACKPRESSURE
            assert count > 0
        assert not any(
            r.cancel_reason == SHED_CANCEL_REASON for r in gateway.offered
        )

    def test_backpressure_evicts_low_priority_victims(self):
        session = Session(ServeConfig(scheduler="fcfs"))
        gateway = ServeGateway(
            session,
            config=GatewayConfig(
                admission=AdmissionConfig(max_queue_depth=1)
            ),
        )
        trace = build_trace(
            AZURE_CONV, qps=6.0, num_requests=30, seed=21,
            low_priority_fraction=0.6,
        )
        gateway.replay(trace)
        victims = [
            r for r in gateway.offered
            if r.cancel_reason == SHED_CANCEL_REASON
        ]
        assert victims, "expected at least one backpressure eviction"
        for victim in victims:
            assert not victim.important


class TestGatewayObservability:
    @pytest.mark.parametrize("num_replicas", [1, 2])
    def test_events_and_counters(self, num_replicas):
        from repro.obs import (
            ListSink,
            TraceRecorder,
            TracingObserver,
            validate_event,
        )

        sink = ListSink()
        observer = TracingObserver(TraceRecorder([sink]))
        session = Session(
            ServeConfig(scheduler="fcfs", num_replicas=num_replicas),
            observer=observer,
        )
        gateway = ServeGateway(
            session,
            config=GatewayConfig(
                admission=AdmissionConfig(rate=0.5, burst=1.0)
            ),
        )
        gateway.replay(_fig10_style_trace(seed=9, num_requests=20))
        kinds = {event["kind"] for event in sink.events}
        assert "gateway_admitted" in kinds
        assert "gateway_shed" in kinds
        # Every admitted request is routed, one replica included.
        assert {
            e["name"] for e in sink.events if e["kind"] == "span_start"
        } == {"gateway", "admission", "dispatch", "queue", "prefill",
              "decode"}
        for event in sink.events:
            validate_event(event)
        text = observer.registry.to_prometheus_text()
        assert "repro_gateway_admitted_total" in text
        assert "repro_gateway_tokens_streamed_total" in text
        assert 'reason="rate_limit"' in text

    def test_prometheus_fallback_without_registry(self):
        session = Session(ServeConfig(scheduler="fcfs"))
        gateway = ServeGateway(session)
        gateway.replay(_fig10_style_trace(seed=9, num_requests=5))
        text = gateway.prometheus_text()
        assert "repro_gateway_admitted_total" in text
        assert 'tier="' in text

    def test_scrape_gauges_in_fallback_text(self):
        session = Session(ServeConfig(scheduler="fcfs"))
        gateway = ServeGateway(
            session,
            config=GatewayConfig(
                admission=AdmissionConfig(rate=2.0, burst=4.0)
            ),
        )
        gateway.replay(_fig10_style_trace(seed=9, num_requests=5))
        text = gateway.prometheus_text()
        assert "# TYPE repro_gateway_queue_depth gauge" in text
        assert "repro_gateway_queue_depth 0" in text
        fills = [
            line for line in text.splitlines()
            if line.startswith("repro_gateway_token_bucket_fill{")
        ]
        assert fills
        for line in fills:
            assert 0.0 <= float(line.rsplit(" ", 1)[1]) <= 4.0

    def test_scrape_gauges_in_registry_text(self):
        from repro.obs import ListSink, TraceRecorder, TracingObserver

        observer = TracingObserver(TraceRecorder([ListSink()]))
        session = Session(ServeConfig(scheduler="fcfs"), observer=observer)
        gateway = ServeGateway(
            session,
            config=GatewayConfig(
                admission=AdmissionConfig(rate=2.0, burst=4.0)
            ),
        )
        gateway.replay(_fig10_style_trace(seed=9, num_requests=5))
        text = gateway.prometheus_text()
        assert "# TYPE repro_gateway_queue_depth gauge" in text
        assert 'repro_gateway_token_bucket_fill{tier="' in text
        # Scraping twice must not perturb admission state.
        assert gateway.prometheus_text() == text

    def test_fleet_gauge_help_same_with_and_without_observer(self):
        from repro.cluster.fleet import parse_fleet_spec
        from repro.obs import TracingObserver

        def fleet_lines(observer):
            session = Session(
                ServeConfig(scheduler="fcfs",
                            fleet=parse_fleet_spec("a100:1,h100:1")),
                observer=observer,
            )
            gateway = ServeGateway(session)
            gateway.replay(_fig10_style_trace(seed=9, num_requests=5))
            return [
                line for line in gateway.prometheus_text().splitlines()
                if line.startswith(("# HELP repro_fleet_size",
                                    "# HELP repro_fleet_replicas",
                                    "repro_fleet_size",
                                    "repro_fleet_replicas"))
            ]

        bare = fleet_lines(None)
        assert "# HELP repro_fleet_size Replicas provisioned and not " \
            "yet released" in bare
        assert fleet_lines(TracingObserver()) == bare


class TestOversizedRequest:
    def test_submit_refuses_request_no_replica_can_hold(self):
        """The engine would reject the request without completing it,
        so its ticket would never close; the gateway refuses it up
        front, records nothing, and keeps serving."""
        session = Session(ServeConfig(scheduler="fcfs"))
        gateway = ServeGateway(session)
        capacity = session.engines[0].kv_cache.capacity_tokens

        async def scenario():
            await gateway.start()
            try:
                with pytest.raises(ValueError, match="KV capacity"):
                    await gateway.submit(
                        prompt_tokens=capacity - 3, decode_tokens=4
                    )
                assert gateway.offered == []
                assert gateway.stats.admitted_total == 0
                assert gateway.stats.shed_total == 0
                request = await gateway.submit(
                    prompt_tokens=64, decode_tokens=4
                )
                return await asyncio.wait_for(
                    gateway.result(request.request_id), timeout=30
                )
            finally:
                await gateway.stop()

        finished = asyncio.run(scenario())
        assert finished.decoded == 4
        assert finished.request_id == 0

    def test_paced_replay_counts_oversized_request_as_shed(self):
        session = Session(ServeConfig(scheduler="fcfs"))
        gateway = ServeGateway(
            session, config=GatewayConfig(speed=10_000.0)
        )
        capacity = session.engines[0].kv_cache.capacity_tokens
        trace = [
            make_request(request_id=0, prompt_tokens=64, decode_tokens=4),
            make_request(request_id=1, arrival_time=0.5, prompt_tokens=64,
                         decode_tokens=capacity),
            make_request(request_id=2, arrival_time=1.0, prompt_tokens=64,
                         decode_tokens=4),
        ]

        async def scenario():
            await gateway.start()
            try:
                report = await OpenLoopReplay(trace).drive(gateway)
                await asyncio.wait_for(wait_drained(gateway), timeout=30)
                return report
            finally:
                await gateway.stop()

        report = asyncio.run(scenario())
        assert (report.offered, report.admitted, report.shed) == (3, 2, 1)
        assert report.shed_by_reason == {"exceeds_kv_capacity": 1}
        assert all(r.decoded == 4 for r in gateway.offered)
