"""Tests for the cluster routing strategies."""

from functools import partial

import pytest

from repro.api import build_trace, make_scheduler
from repro.cluster.deployment import ROUTING_STRATEGIES, ClusterDeployment
from repro.metrics.summary import summarize_run
from repro.workload.datasets import AZURE_CODE
from tests.conftest import make_request


def run_cluster(execution_model, routing, trace, replicas=3):
    cluster = ClusterDeployment(
        execution_model,
        partial(make_scheduler, "fcfs", execution_model),
        num_replicas=replicas,
        routing=routing,
    )
    cluster.submit_trace(trace)
    cluster.run(max_events=20_000_000)
    return cluster


class TestStrategies:
    @pytest.mark.parametrize("routing", ROUTING_STRATEGIES)
    def test_all_strategies_complete(self, execution_model, routing):
        trace = build_trace(AZURE_CODE, qps=4.0, num_requests=90, seed=2)
        cluster = run_cluster(execution_model, routing, trace)
        requests = cluster.all_requests()
        assert len(requests) == 90
        assert all(r.is_finished for r in requests)

    def test_unknown_strategy_rejected(self, execution_model):
        with pytest.raises(ValueError):
            ClusterDeployment(
                execution_model,
                partial(make_scheduler, "fcfs", execution_model),
                num_replicas=2,
                routing="random-walk",
            )

    def test_round_robin_exactly_even(self, execution_model):
        cluster = ClusterDeployment(
            execution_model,
            partial(make_scheduler, "fcfs", execution_model),
            num_replicas=3,
            routing="round-robin",
        )
        for i in range(9):
            cluster.submit(make_request(request_id=i))
        counts = [len(r.submitted) for r in cluster.replicas]
        assert counts == [3, 3, 3]

    def test_least_loaded_avoids_busy_replica(self, execution_model):
        """A huge request on one replica diverts later arrivals."""
        cluster = ClusterDeployment(
            execution_model,
            partial(make_scheduler, "fcfs", execution_model),
            num_replicas=2,
            routing="least-loaded",
        )
        elephant = make_request(request_id=0, arrival_time=0.0,
                                prompt_tokens=8000, decode_tokens=500)
        mice = [
            make_request(request_id=1 + i, arrival_time=0.5 + 0.01 * i,
                         prompt_tokens=100, decode_tokens=2)
            for i in range(8)
        ]
        cluster.submit(elephant)
        for m in mice:
            cluster.submit(m)
        cluster.run(max_events=1_000_000)
        # Whichever replica got the elephant should have received far
        # fewer of the mice.
        elephant_replica = next(
            r for r in cluster.replicas if elephant in r.submitted
        )
        assert len(elephant_replica.submitted) < 1 + len(mice)

    def test_least_loaded_tail_no_worse_than_rr(self, execution_model):
        """With heavy-tailed prompts, load-aware routing should not
        lose to round-robin on overall p99."""
        trace = build_trace(AZURE_CODE, qps=8.0, num_requests=400, seed=9)
        rr = run_cluster(
            execution_model, "round-robin", trace.fresh_copy()
        )
        ll = run_cluster(
            execution_model, "least-loaded", trace.fresh_copy()
        )
        rr_p99 = summarize_run(
            rr.all_requests(), now=rr.simulator.now
        ).overall_percentiles[0.99]
        ll_p99 = summarize_run(
            ll.all_requests(), now=ll.simulator.now
        ).overall_percentiles[0.99]
        assert ll_p99 <= rr_p99 * 1.25

    def test_power_of_two_deterministic(self, execution_model):
        def once():
            trace = build_trace(AZURE_CODE, qps=5.0, num_requests=60,
                                seed=4)
            cluster = run_cluster(
                execution_model, "power-of-two", trace
            )
            return [len(r.submitted) for r in cluster.replicas]

        assert once() == once()


class _FixedChoice:
    """Stand-in for the routing RNG returning scripted samples."""

    def __init__(self, picks):
        self.picks = list(picks)

    def choice(self, n, size, replace):
        import numpy as np

        assert size == 2 and not replace
        return np.array(self.picks[:size])


class TestTieBreaks:
    """Routing ties must resolve by replica index, not arrival order
    in the candidate list or RNG sample order."""

    def idle_cluster(self, execution_model, routing, replicas=4):
        return ClusterDeployment(
            execution_model,
            partial(make_scheduler, "fcfs", execution_model),
            num_replicas=replicas,
            routing=routing,
        )

    def test_least_loaded_all_idle_picks_lowest_index(
        self, execution_model
    ):
        cluster = self.idle_cluster(execution_model, "least-loaded")
        for _ in range(3):
            assert cluster._pick_replica() is cluster.replicas[0]

    def test_power_of_two_tie_goes_to_lower_index(self, execution_model):
        cluster = self.idle_cluster(execution_model, "power-of-two")
        # The RNG samples replica 3 first, then replica 1; with equal
        # loads the old code kept the first sample (3) — the fix pins
        # the lower index.
        cluster._route_rng = _FixedChoice([3, 1])
        assert cluster._pick_replica() is cluster.replicas[1]

    def test_power_of_two_still_prefers_lighter_replica(
        self, execution_model
    ):
        cluster = self.idle_cluster(execution_model, "power-of-two")
        cluster._route_rng = _FixedChoice([3, 1])
        # Load replica 1 so the sampled pair is no longer tied.
        cluster.replicas[1].submit_now(
            make_request(request_id=0, prompt_tokens=4000,
                         decode_tokens=100)
        )
        assert cluster._pick_replica() is cluster.replicas[3]

    def test_power_of_two_pair_tie_lowest_index(self, execution_model):
        # With exactly two replicas the sampler is bypassed; the tie
        # must still resolve to replica 0.
        cluster = self.idle_cluster(execution_model, "power-of-two",
                                    replicas=2)
        assert cluster._pick_replica() is cluster.replicas[0]
