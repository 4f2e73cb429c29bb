"""Unit tests for the helpers experiment drivers share: the
scheduler, trace and capacity-search building blocks in
:mod:`repro.api` and the presets in :mod:`repro.experiments.configs`."""

import pytest

from repro.api import (
    SCHEDULER_KINDS,
    ServeConfig,
    Session,
    build_trace,
    goodput_search,
    make_scheduler,
)
from repro.experiments.configs import (
    DEPLOYMENTS,
    SMOKE,
    Scale,
    get_execution_model,
)
from repro.schedulers import (
    EDFScheduler,
    FCFSScheduler,
    MedhaScheduler,
    QoServeScheduler,
    SJFScheduler,
    SRPFScheduler,
)
from repro.workload.datasets import AZURE_CODE


class TestMakeScheduler:
    @pytest.mark.parametrize("kind,cls", [
        ("fcfs", FCFSScheduler),
        ("sjf", SJFScheduler),
        ("srpf", SRPFScheduler),
        ("edf", EDFScheduler),
        ("medha", MedhaScheduler),
    ])
    def test_kinds(self, execution_model, kind, cls):
        assert isinstance(make_scheduler(kind, execution_model), cls)

    def test_qoserve_oracle(self, execution_model):
        scheduler = make_scheduler("qoserve-oracle", execution_model)
        assert isinstance(scheduler, QoServeScheduler)
        from repro.core.predictor import OracleBatchPredictor
        assert isinstance(scheduler.predictor, OracleBatchPredictor)

    def test_sarathi_prefix_tolerated(self, execution_model):
        assert isinstance(
            make_scheduler("Sarathi-FCFS", execution_model), FCFSScheduler
        )

    def test_chunk_size_forwarded(self, execution_model):
        scheduler = make_scheduler("fcfs", execution_model, chunk_size=2048)
        assert scheduler.chunk_size == 2048

    def test_unknown_kind(self, execution_model):
        with pytest.raises(KeyError):
            make_scheduler("lifo", execution_model)

    def test_all_kinds_constructible(self, execution_model,
                                     forest_predictor):
        for kind in SCHEDULER_KINDS:
            make_scheduler(kind, execution_model)


class TestConfigs:
    def test_table1_deployments(self):
        assert set(DEPLOYMENTS) == {"llama3-8b", "qwen-7b", "llama3-70b"}
        assert DEPLOYMENTS["qwen-7b"].tp_degree == 2
        assert DEPLOYMENTS["llama3-70b"].tp_degree == 4

    def test_execution_model_cached(self):
        assert get_execution_model("llama3-8b") is get_execution_model(
            "llama3-8b"
        )

    def test_unknown_deployment(self):
        with pytest.raises(KeyError):
            get_execution_model("gpt-5")

    def test_scale_requests_for(self):
        scale = Scale(num_requests=100, min_duration_s=60.0)
        assert scale.requests_for(1.0) == 100
        assert scale.requests_for(10.0) == 600


class TestRunHelpers:
    def test_build_trace_composition(self):
        trace = build_trace(AZURE_CODE, qps=2.0, num_requests=300, seed=1)
        names = {r.qos.name for r in trace}
        assert names == {"Q1", "Q2", "Q3"}

    def test_session_drains_trace(self, execution_model):
        trace = build_trace(AZURE_CODE, qps=2.0, num_requests=40, seed=1)
        session = Session(
            ServeConfig(scheduler="fcfs"), execution_model=execution_model
        )
        for request in trace:
            session.submit(request)
        session.drain()
        summary = session.summary(requests=list(trace))
        assert summary.finished == 40
        assert summary.arrival_span > 0
        assert summary.drain_time >= 0

    def test_goodput_search_returns_positive(self, execution_model):
        result = goodput_search(
            "fcfs", execution_model, AZURE_CODE,
            num_requests=SMOKE.num_requests, seed=7, qps_high=8.0,
            tolerance=0.5,
        )
        assert result.max_qps > 0.5
        assert result.evaluations
