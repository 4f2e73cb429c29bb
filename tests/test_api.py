"""Unit tests for the unified public API facade (repro.api)."""

import json

import pytest

from repro.api import (
    ROUTING_STRATEGIES,
    ServeConfig,
    Session,
    build_trace,
    default_tier_names,
    make_scheduler,
    simulate,
)
from repro.core.qos import Q1_INTERACTIVE
from repro.metrics.export import summary_to_dict
from repro.workload.datasets import AZURE_CONV
from tests.conftest import make_request, small_memory_model, stall_requests


def _canonical(summary) -> str:
    return json.dumps(summary_to_dict(summary), sort_keys=True)


class TestServeConfig:
    def test_defaults(self):
        config = ServeConfig()
        assert config.scheduler == "qoserve"
        assert config.num_replicas == 1
        assert config.routing == "round-robin"

    def test_unknown_scheduler(self):
        with pytest.raises(ValueError, match="scheduler"):
            ServeConfig(scheduler="lifo")

    def test_scheduler_case_and_prefix_tolerated(self):
        ServeConfig(scheduler="Sarathi-FCFS")

    def test_unknown_routing(self):
        with pytest.raises(ValueError, match="routing"):
            ServeConfig(routing="random")

    def test_bad_replica_count(self):
        with pytest.raises(ValueError, match="num_replicas"):
            ServeConfig(num_replicas=0)

    def test_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            ServeConfig(chunk_size=-1)

    def test_routing_strategies_come_from_cluster(self):
        import repro.cluster.deployment

        assert ROUTING_STRATEGIES is repro.cluster.deployment.ROUTING_STRATEGIES


class TestBuildTrace:
    def test_by_name(self):
        by_name = build_trace("AzConv", qps=2.0, num_requests=10, seed=3)
        by_spec = build_trace(AZURE_CONV, qps=2.0, num_requests=10, seed=3)
        assert [r.prompt_tokens for r in by_name] == [
            r.prompt_tokens for r in by_spec
        ]

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            build_trace("nope", qps=1.0, num_requests=1)


class TestSimulateGolden:
    # The ``engine`` parameter keeps these tests' ids from when two
    # engine cores ran side by side; "arrays" is the one left.
    @pytest.mark.parametrize("engine", ["arrays"])
    def test_matches_bare_engine(self, engine, execution_model):
        """A one-replica session (a pool of one) is byte-identical to a
        bare engine driven directly: summary, scheduler stats and the
        traced event stream."""
        from repro.api import engine_scheduler_stats
        from repro.engine.replica import ReplicaConfig, ReplicaEngine
        from repro.metrics.summary import summarize_run
        from repro.obs import ListSink, TraceRecorder, TracingObserver
        from repro.simcore.simulator import Simulator

        def fresh_trace():
            return list(build_trace(
                AZURE_CONV, qps=3.0, num_requests=30, seed=11
            ))

        bare_sink = ListSink()
        simulator = Simulator()
        bare = ReplicaEngine(
            simulator,
            execution_model,
            make_scheduler("qoserve", execution_model),
            ReplicaConfig(),
            observer=TracingObserver(TraceRecorder([bare_sink])),
        )
        requests = fresh_trace()
        for request in requests:
            bare.submit(request)
        now = simulator.run()
        reference = summarize_run(requests, now=now)
        last_arrival = max(r.arrival_time for r in requests)
        reference.drain_time = now - last_arrival
        reference.arrival_span = last_arrival - min(
            r.arrival_time for r in requests
        )
        reference.scheduler_stats = engine_scheduler_stats(bare)

        session_sink = ListSink()
        facade = simulate(
            config=ServeConfig(scheduler="qoserve", engine=engine),
            trace=fresh_trace(),
            observer=TracingObserver(TraceRecorder([session_sink])),
        )
        assert _canonical(facade) == _canonical(reference)
        assert list(facade.scheduler_stats) == list(
            reference.scheduler_stats
        )
        assert session_sink.events == bare_sink.events

    def test_builds_trace_when_given_dataset(self):
        summary = simulate(
            config=ServeConfig(scheduler="fcfs"),
            dataset="AzConv",
            qps=2.0,
            num_requests=8,
            seed=5,
        )
        assert summary.num_requests == 8


class TestSession:
    def test_incremental_advance(self):
        session = Session(ServeConfig(scheduler="fcfs"))
        for i in range(4):
            session.submit(make_request(request_id=i, arrival_time=0.1 * i))
        session.advance(until=0.05)
        assert session.now <= 0.05
        session.drain()
        assert all(r.is_finished for r in session.requests)

    def test_advance_leaves_running_requests_current(self):
        # Decode rows fold their tokens into the request objects when
        # read; a run that returns mid-flight must leave every one of
        # them folded, as reading the decode queue does.
        session = Session(ServeConfig())
        for request in build_trace(AZURE_CONV, 2.0, 20, seed=3):
            session.submit(request)
        session.advance(until=6.0)

        def state():
            return [
                (r.request_id, r.decoded, r.max_tbt, r.tbt_gap_misses,
                 r.tbt_deadline_misses, r.last_token_time)
                for r in session.requests
            ]

        seen = state()
        running = session.engines[0].decode_queue  # syncs every row
        assert any(r.decoded > 1 for r in running)
        assert seen == state()

    def test_submit_now_returns_engine(self):
        session = Session(ServeConfig(scheduler="fcfs"))
        engine = session.submit_now(make_request())
        assert engine is session.engines[0]

    def test_prebuilt_scheduler_needs_one_static_replica(
        self, execution_model
    ):
        # A pool or fleet builds one scheduler per replica; a single
        # pre-built one cannot serve them, so it is refused outright.
        from repro.cluster.fleet import parse_fleet_spec

        scheduler = make_scheduler("fcfs", execution_model)
        with pytest.raises(ValueError, match="pre-built scheduler"):
            Session(ServeConfig(num_replicas=2), scheduler=scheduler)
        with pytest.raises(ValueError, match="pre-built scheduler"):
            Session(
                ServeConfig(fleet=parse_fleet_spec("a100:1")),
                scheduler=scheduler,
            )
        session = Session(ServeConfig(), scheduler=scheduler)
        assert session.engines[0].scheduler is scheduler

    def test_queue_depth_drops_after_drain(self):
        session = Session(ServeConfig(scheduler="fcfs"))
        session.submit(make_request())
        assert session.queue_depth() >= 0
        session.drain()
        assert session.queue_depth() == 0

    def test_cancel(self):
        session = Session(ServeConfig(scheduler="fcfs"))
        request = make_request(decode_tokens=500)
        session.submit(request)
        session.advance(until=0.01)
        session.cancel(request, "test_cancel")
        session.drain()
        assert request.cancelled
        assert request.cancel_reason == "test_cancel"

    @pytest.mark.parametrize("engine", ["arrays"])
    def test_cancel_parked_by_stall_recovery(self, engine):
        session = Session(
            ServeConfig(scheduler="qoserve-oracle", engine=engine),
            execution_model=small_memory_model(),
        )
        for request in stall_requests(seed=2):
            session.submit(request)
        (replica,) = session.engines
        now = 0.0
        while not replica._stalled_requests:
            now = session.advance(until=now + 0.01)
            assert now < 10.0, "stall recovery never parked a request"
        (parked,) = replica._stalled_requests
        assert session.cancel(parked, "test_cancel")
        assert parked.cancelled
        assert not replica._stalled_requests

    @pytest.mark.parametrize("engine", ["arrays"])
    def test_cancel_queued_handoff(self, engine):
        session = Session(
            ServeConfig(scheduler="fcfs", engine=engine),
            execution_model=small_memory_model(),
        )
        (replica,) = session.engines
        handoffs = []
        for i in range(2):
            request = make_request(
                request_id=i, prompt_tokens=3000, decode_tokens=50
            )
            request.prefill_done = request.prompt_tokens
            replica.submit_prefilled(request)
            handoffs.append(request)
        # The second prompt's KV cannot fit beside the first.
        assert list(replica._pending_handoffs) == [handoffs[1]]
        assert session.cancel(handoffs[1], "test_cancel")
        assert handoffs[1].cancelled
        assert not replica._pending_handoffs
        session.drain()
        assert handoffs[0].is_finished

    def test_hooks_fire(self):
        session = Session(ServeConfig(scheduler="fcfs"))
        tokens, completions = [], []
        session.set_token_hook(lambda r, now: tokens.append(r.request_id))
        session.set_completion_hook(
            lambda r, now: completions.append(r.request_id)
        )
        request = make_request(decode_tokens=5)
        session.submit(request)
        session.drain()
        assert len(tokens) == 5
        assert completions == [request.request_id]

    def test_multi_replica_uses_cluster(self):
        session = Session(ServeConfig(scheduler="fcfs", num_replicas=2))
        assert session.deployment is not None
        assert len(session.engines) == 2
        for i in range(6):
            session.submit(make_request(request_id=i))
        session.drain()
        assert session.summary().finished == 6

    def test_summary_includes_scheduler_stats(self):
        session = Session(ServeConfig(scheduler="qoserve"))
        session.submit(make_request())
        session.drain()
        summary = session.summary()
        assert "preemptions" in summary.scheduler_stats


class TestWrapperDelegation:
    def test_top_level_exports(self):
        import repro

        assert repro.ServeConfig is ServeConfig
        assert repro.Session is Session
        assert repro.simulate is simulate

    def test_default_tier_names(self):
        assert default_tier_names() == ("Q1", "Q2", "Q3")
