"""Unit tests for the shared scheduler machinery."""

import pytest

from repro.engine.interface import Scheduler
from repro.schedulers.base import pack_prefill_assignments
from repro.schedulers.classic import FCFSScheduler
from tests.conftest import make_request, make_view


class TestPacking:
    def test_packs_in_order_until_budget(self, execution_model):
        view = make_view(execution_model)
        a = make_request(request_id=1, prompt_tokens=200)
        b = make_request(request_id=2, prompt_tokens=200)
        assignments = pack_prefill_assignments([a, b], 256, view, 0.9)
        assert [(x.request.request_id, x.tokens) for x in assignments] == [
            (1, 200), (2, 56),
        ]

    def test_skips_completed_prefill(self, execution_model):
        view = make_view(execution_model)
        done = make_request(request_id=1, prompt_tokens=100)
        done.prefill_done = 100
        live = make_request(request_id=2, prompt_tokens=100)
        assignments = pack_prefill_assignments([done, live], 256, view, 0.9)
        assert [a.request.request_id for a in assignments] == [2]

    def test_dedupes_duplicate_entries(self, execution_model):
        view = make_view(execution_model)
        r = make_request(request_id=1, prompt_tokens=600)
        assignments = pack_prefill_assignments([r, r], 512, view, 0.9)
        assert len(assignments) == 1
        assert assignments[0].tokens == 512

    def test_respects_decode_slots(self, execution_model):
        decodes = [make_request(request_id=i) for i in range(15)]
        view = make_view(execution_model, decodes=decodes,
                         max_slots=16)
        new = [make_request(request_id=100 + i, prompt_tokens=50)
               for i in range(3)]
        assignments = pack_prefill_assignments(new, 256, view, 0.9)
        assert len(assignments) == 1  # only one free slot

    def test_inflight_requests_do_not_need_slots(self, execution_model):
        decodes = [make_request(request_id=i) for i in range(15)]
        inflight = make_request(request_id=50, prompt_tokens=600)
        inflight.prefill_done = 256
        view = make_view(
            execution_model, decodes=decodes, max_slots=16,
            inflight=frozenset({50, 99}),
        )
        # 15 decodes + 2 inflight = 17 > 16 slots: no new starts, but
        # the in-flight request keeps making progress.
        new = make_request(request_id=60, prompt_tokens=100)
        assignments = pack_prefill_assignments(
            [new, inflight], 256, view, 0.9
        )
        assert [a.request.request_id for a in assignments] == [50]

    def test_kv_watermark_blocks_new_starts(self, execution_model):
        view = make_view(execution_model, kv_tokens=1600)
        view.kv_cache.grow(999, 1500)  # 94% full
        new = make_request(request_id=1, prompt_tokens=50)
        assert pack_prefill_assignments([new], 256, view, 0.9) == []

    def test_kv_watermark_allows_inflight_progress(self, execution_model):
        view = make_view(
            execution_model, kv_tokens=1600, inflight=frozenset({1})
        )
        view.kv_cache.grow(999, 1440)
        inflight = make_request(request_id=1, prompt_tokens=600)
        inflight.prefill_done = 100
        assignments = pack_prefill_assignments([inflight], 256, view, 0.9)
        assert len(assignments) == 1

    def test_shrinks_to_fit_free_blocks(self, execution_model):
        view = make_view(execution_model, kv_tokens=1600)
        view.kv_cache.grow(999, 1280)  # 20 blocks used, 80% -> below 0.9
        r = make_request(request_id=1, prompt_tokens=600)
        assignments = pack_prefill_assignments([r], 600, view, 0.9)
        assert assignments[0].tokens == 320  # the 20 remaining blocks

    def test_empty_budget(self, execution_model):
        view = make_view(execution_model)
        r = make_request(request_id=1)
        assert pack_prefill_assignments([r], 0, view, 0.9) == []


class TestHeapQueue:
    def test_enqueue_and_pending(self, execution_model):
        scheduler = FCFSScheduler()
        assert not scheduler.has_pending_prefill()
        r = make_request(request_id=1)
        scheduler.enqueue(r, 0.0)
        assert scheduler.has_pending_prefill()
        assert scheduler.pending_requests() == [r]
        assert scheduler.queue_length() == 1
        other = make_request(request_id=2)
        # The membership override agrees with the default list scan.
        for is_pending in (scheduler.is_pending,
                           lambda q: Scheduler.is_pending(scheduler, q)):
            assert is_pending(r) and not is_pending(other)

    def test_prefill_complete_removes(self):
        scheduler = FCFSScheduler()
        r = make_request(request_id=1)
        scheduler.enqueue(r, 0.0)
        scheduler.on_prefill_complete(r, 1.0)
        assert not scheduler.has_pending_prefill()
        assert not scheduler.is_pending(r)
        assert not Scheduler.is_pending(scheduler, r)

    def test_plan_orders_by_priority(self, execution_model):
        scheduler = FCFSScheduler(chunk_size=128)
        late = make_request(request_id=1, arrival_time=5.0,
                            prompt_tokens=500)
        early = make_request(request_id=2, arrival_time=1.0,
                             prompt_tokens=500)
        scheduler.enqueue(late, 5.0)
        scheduler.enqueue(early, 5.0)
        view = make_view(execution_model)
        assignments = scheduler.plan_prefill(view)
        assert assignments[0].request is early

    def test_requeue_preserves_untouched_entries(self, execution_model):
        scheduler = FCFSScheduler(chunk_size=64)
        requests = [
            make_request(request_id=i, arrival_time=float(i),
                         prompt_tokens=64)
            for i in range(5)
        ]
        for r in requests:
            scheduler.enqueue(r, r.arrival_time)
        view = make_view(execution_model)
        first = scheduler.plan_prefill(view)
        assert first[0].request.request_id == 0
        # Simulate the engine finishing request 0's prefill.
        requests[0].prefill_done = 64
        scheduler.on_prefill_complete(requests[0], 1.0)
        second = scheduler.plan_prefill(view)
        assert second[0].request.request_id == 1

    def test_chunk_budget_shrinks_with_decodes(self, execution_model):
        scheduler = FCFSScheduler(chunk_size=256)
        decodes = [make_request(request_id=i) for i in range(100)]
        view = make_view(execution_model, decodes=decodes,
                         max_slots=256)
        assert scheduler.prefill_token_budget(view) == 156

    def test_validation(self):
        with pytest.raises(ValueError):
            FCFSScheduler(chunk_size=0)
        with pytest.raises(ValueError):
            FCFSScheduler(kv_start_watermark=0.0)
