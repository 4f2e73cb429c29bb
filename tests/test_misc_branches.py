"""Coverage for less-travelled branches across modules."""

from tests.conftest import Q2, make_request


class TestDecodePoolDefaults:
    def test_non_interactive_request_uses_default_tbt(self,
                                                      execution_model):
        from repro.cluster.decode_pool import QoSSharedDecodePool
        from repro.simcore import Simulator

        sim = Simulator()
        pool = QoSSharedDecodePool(
            sim, execution_model, num_replicas=1, default_tbt=0.2
        )
        batch_job = make_request(prompt_tokens=500, decode_tokens=10,
                                 qos=Q2)
        batch_job.prefill_done = 500
        assert pool._tbt_of(batch_job) == 0.2
        pool.accept(batch_job, 0.0)
        sim.run(max_events=10_000)
        assert batch_job.is_finished


class TestSiloSummaryAtTime:
    def test_summarize_with_explicit_now(self, execution_model):
        from functools import partial

        from repro.api import make_scheduler
        from repro.cluster.deployment import ClusterDeployment

        cluster = ClusterDeployment(
            execution_model,
            partial(make_scheduler, "fcfs", execution_model),
            num_replicas=1,
        )
        r = make_request(arrival_time=0.0, prompt_tokens=400,
                         decode_tokens=3)
        cluster.submit(r)
        cluster.run(until=0.01)  # barely started
        summary = cluster.summarize(now=0.01)
        assert summary.finished == 0
        assert summary.num_requests == 1


class TestRequestExtras:
    def test_repr_does_not_explode(self):
        text = repr(make_request())
        assert "Request" in text


class TestSimulatorPriorityTieBreak:
    def test_control_events_before_equal_time_work(self):
        """Negative-priority events (the autoscaler's control tick)
        run before same-timestamp zero-priority events."""
        from repro.simcore import Simulator

        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("work"), priority=0)
        sim.schedule(1.0, lambda: log.append("control"), priority=-1)
        sim.run()
        assert log == ["control", "work"]
