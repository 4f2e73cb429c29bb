"""Coverage for less-travelled branches across modules."""

import numpy as np
import pytest

from repro.forest import DecisionTreeRegressor, RandomForestRegressor
from tests.conftest import Q2, make_request


class TestForestFeatureSubsampling:
    def test_max_features_limits_split_candidates(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(200, 4))
        y = x[:, 0] * 10  # only feature 0 is informative
        # With max_features=1 the tree often splits on uninformative
        # features; accuracy should be no better than the full tree.
        sub = DecisionTreeRegressor(
            max_depth=4, max_features=1,
            rng=np.random.default_rng(1),
        ).fit(x, y)
        full = DecisionTreeRegressor(max_depth=4).fit(x, y)
        err_sub = float(np.mean((sub.predict(x) - y) ** 2))
        err_full = float(np.mean((full.predict(x) - y) ** 2))
        assert err_full <= err_sub + 1e-9

    def test_forest_with_feature_subsampling_fits(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, size=(150, 3))
        y = x.sum(axis=1)
        forest = RandomForestRegressor(
            n_trees=5, max_depth=6, max_features=2, seed=3
        ).fit(x, y)
        err = forest.mean_relative_error(x, y)
        assert err < 0.25


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
    def test_extra_dict_available_for_annotations(self):
        r = make_request()
        r._extra["routing_hint"] = "replica-3"
        assert r._extra["routing_hint"] == "replica-3"

    def test_repr_does_not_explode(self):
        text = repr(make_request())
        assert "Request" in text
        assert "_extra" not in text  # repr=False field


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
