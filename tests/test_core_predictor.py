"""Unit tests for batch latency predictors (Section 3.6.1)."""

import pytest

from repro.core.predictor import (
    ForestBatchPredictor,
    OracleBatchPredictor,
    cached_forest_predictor,
)
from repro.forest import RandomForestRegressor
from repro.perfmodel.execution import BatchShape, PrefillChunk


class TestOracle:
    def test_matches_execution_model(self, execution_model):
        predictor = OracleBatchPredictor(execution_model)
        shape = BatchShape([PrefillChunk(256, 512)], 8, 8 * 1024)
        assert predictor.predict(shape) == execution_model.batch_time(shape)


class TestForestPredictor:
    def test_validation_error_under_10pct(self, execution_model,
                                           forest_predictor):
        """The paper quotes <10% error for the trained predictor."""
        assert forest_predictor.validation_error(execution_model) < 0.10

    def test_predictions_positive(self, forest_predictor):
        shape = BatchShape([PrefillChunk(300, 1000)], 16, 16 * 2048)
        assert forest_predictor.predict(shape) > 0

    def test_conservative_bias(self, execution_model, forest_predictor):
        """With quantile + safety factor, predictions should mostly
        over-estimate (erring toward smaller chunks, per the paper)."""
        over = 0
        total = 0
        for chunk in (96, 320, 640, 1280, 2304):
            for decodes in (4, 24, 96):
                shape = BatchShape(
                    [PrefillChunk(chunk, 512)], decodes, decodes * 1024
                )
                truth = execution_model.batch_time(shape)
                pred = forest_predictor.predict(shape)
                total += 1
                if pred >= truth:
                    over += 1
        assert over / total >= 0.8

    def test_memo_rounding_is_conservative(self, forest_predictor):
        """Bucketed keys round feature values up, so the memoized
        prediction is for a batch at least as heavy."""
        light = BatchShape([PrefillChunk(97, 100)], 3, 3 * 900)
        heavy = BatchShape([PrefillChunk(128, 256)], 8, 3 * 16384)
        assert forest_predictor.predict(light) <= forest_predictor.predict(
            heavy
        ) * forest_predictor.safety_factor + 1e-9

    def test_memoization_hits(self, execution_model):
        predictor = ForestBatchPredictor.train(
            execution_model, n_trees=4, max_depth=6
        )
        shape = BatchShape([PrefillChunk(100, 100)], 2, 2 * 800)
        first = predictor.predict(shape)
        second = predictor.predict(shape)
        assert first == second
        assert len(predictor._memo) >= 1

    def test_unfitted_forest_rejected(self):
        with pytest.raises(ValueError):
            ForestBatchPredictor(RandomForestRegressor())

    def test_bad_quantile_rejected(self, forest_predictor):
        with pytest.raises(ValueError):
            ForestBatchPredictor(forest_predictor.forest, quantile=1.5)

    def test_bad_safety_factor_rejected(self, forest_predictor):
        with pytest.raises(ValueError):
            ForestBatchPredictor(
                forest_predictor.forest, safety_factor=0.0
            )


class TestMemoEdgeCases:
    def test_bucket_round_up(self, execution_model):
        """Memo keys round every feature *up* to its bucket edge, so
        shapes within one bucket share the heavier key's prediction."""
        predictor = ForestBatchPredictor.train(
            execution_model, n_trees=4, max_depth=6
        )
        buckets = predictor.MEMO_BUCKETS
        a = BatchShape([PrefillChunk(65, 100)], 3, 3 * 800)
        b = BatchShape([PrefillChunk(96, 100)], 3, 3 * 800)  # same bucket
        predictor.predict(a)
        predictor.predict(b)
        (key,) = predictor._memo.keys()
        # Every key component sits on a bucket edge at or above the
        # raw feature value.
        from repro.perfmodel.profiler import batch_features

        for value, rounded, bucket in zip(
            batch_features(b), key, buckets
        ):
            assert rounded % bucket == 0
            assert rounded >= value
            assert rounded - value < bucket
        assert predictor.predict(a) == predictor.predict(b)

    def test_exact_bucket_edge_not_inflated(self, execution_model):
        """A feature already on a bucket edge maps to itself."""
        predictor = ForestBatchPredictor.train(
            execution_model, n_trees=4, max_depth=6
        )
        chunk_bucket = predictor.MEMO_BUCKETS[0]
        shape = BatchShape([PrefillChunk(chunk_bucket * 4, 0)], 0, 0)
        predictor.predict(shape)
        (key,) = predictor._memo.keys()
        assert key[0] == chunk_bucket * 4

    def test_memo_limit_clear_and_repopulate(self, execution_model,
                                             monkeypatch):
        """Hitting MEMO_LIMIT clears the dict and repopulates; results
        stay identical to the unmemoized path throughout."""
        predictor = ForestBatchPredictor.train(
            execution_model, n_trees=4, max_depth=6
        )
        monkeypatch.setattr(ForestBatchPredictor, "MEMO_LIMIT", 4)
        shapes = [
            BatchShape([PrefillChunk(33 + 32 * i, 0)], i, i * 20_000)
            for i in range(6)
        ]
        first_pass = [predictor.predict(s) for s in shapes]
        # 6 distinct keys through a limit of 4: the memo was cleared
        # at least once and holds only the post-clear tail.
        assert len(predictor._memo) <= 4
        second_pass = [predictor.predict(s) for s in shapes]
        assert second_pass == first_pass
        unmemo = ForestBatchPredictor(
            predictor.forest,
            quantile=predictor.quantile,
            safety_factor=predictor.safety_factor,
            memoize=False,
        )
        # The memoized value equals the direct prediction at the
        # bucketed key (the conservative surrogate), recomputed fresh.
        for shape, value in zip(shapes, first_pass):
            from repro.perfmodel.profiler import batch_features

            key = tuple(
                bucket * -(-feature // bucket)
                for feature, bucket in zip(
                    batch_features(shape), predictor.MEMO_BUCKETS
                )
            )
            direct = unmemo.safety_factor * unmemo.forest.predict_one(
                key, quantile=unmemo.quantile
            )
            assert value == direct


def _probe_shape(chunk, prefill_context, num_decodes, decode_context):
    chunks = [PrefillChunk(chunk, prefill_context)] if chunk > 0 else []
    return BatchShape(chunks, num_decodes, decode_context)


#: (prefill_context, num_decodes, decode_context) batches and the chunk
#: sizes probed on each: bucket edges, one past them, and chunk 0 (the
#: decode-only batch).
CURVE_BATCHES = [
    (0, 0, 0), (100, 1, 500), (256, 7, 7 * 1024), (4000, 48, 48 * 2048 + 1),
]
CURVE_CHUNKS = (0, 1, 31, 32, 33, 500, 2500)


class TestChunkPredictor:
    """``chunk_predictor(...)(c)`` is ``predict(BatchShape(...))`` bit
    for bit, for every predictor kind."""

    @pytest.fixture(scope="class")
    def small_forest(self, execution_model):
        return ForestBatchPredictor.train(
            execution_model, n_trees=4, max_depth=6
        ).forest

    def _assert_curve_matches(self, curve_owner, reference):
        for prefill_context, num_decodes, decode_context in CURVE_BATCHES:
            predict = curve_owner.chunk_predictor(
                prefill_context, num_decodes, decode_context
            )
            for chunk in CURVE_CHUNKS:
                expected = reference.predict(
                    _probe_shape(
                        chunk, prefill_context, num_decodes, decode_context
                    )
                )
                assert predict(chunk).hex() == expected.hex(), (
                    prefill_context, num_decodes, decode_context, chunk
                )

    @pytest.mark.parametrize("memoize", [True, False],
                             ids=["memo", "no-memo"])
    def test_forest(self, small_forest, memoize):
        curve_owner = ForestBatchPredictor(small_forest, memoize=memoize)
        reference = ForestBatchPredictor(small_forest, memoize=memoize)
        self._assert_curve_matches(curve_owner, reference)
        # Both paths fill the memo under the same key format.
        assert curve_owner._memo.keys() == reference._memo.keys()
        assert bool(curve_owner._memo) == memoize

    def test_oracle(self, execution_model):
        oracle = OracleBatchPredictor(execution_model)
        self._assert_curve_matches(oracle, oracle)

    def test_memo_clear_mid_curve(self, small_forest):
        """A memo that overflows MEMO_LIMIT while a curve is being
        probed is cleared and refilled without changing any value."""
        curve_owner = ForestBatchPredictor(small_forest)
        curve_owner.MEMO_LIMIT = 5
        self._assert_curve_matches(
            curve_owner, ForestBatchPredictor(small_forest)
        )
        assert 0 < len(curve_owner._memo) <= 5


class TestCache:
    def test_cached_predictor_reused(self, execution_model):
        a = cached_forest_predictor(execution_model)
        b = cached_forest_predictor(execution_model)
        assert a is b

    def test_cache_keyed_by_quantile(self, execution_model):
        a = cached_forest_predictor(execution_model, quantile=0.75)
        b = cached_forest_predictor(execution_model, quantile=0.9)
        assert a is not b
