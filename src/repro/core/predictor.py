"""Batch latency predictors used by dynamic chunking (Section 3.6.1).

Two implementations share one interface:

* :class:`OracleBatchPredictor` — queries the analytical execution
  model directly.  In a simulation study this is "perfect profiling";
  it serves as the ablation upper bound.
* :class:`ForestBatchPredictor` — the paper's deployed design: a
  random forest trained on Vidur-style profiles, evaluated on the CPU
  with <10% error, optionally biased towards over-predicting latency
  so chunk sizes err small.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from repro.forest import RandomForestRegressor
from repro.perfmodel.execution import BatchShape, ExecutionModel, PrefillChunk
from repro.perfmodel.profiler import Profiler, batch_features


class BatchLatencyPredictor(ABC):
    """Predicts execution time (seconds) of a candidate batch."""

    @abstractmethod
    def predict(self, shape: BatchShape) -> float:
        """Estimated latency of one iteration running ``shape``."""

    def chunk_predictor(
        self, prefill_context: int, num_decodes: int, decode_context: int
    ) -> Callable[[int], float]:
        """The chunk-latency curve the dynamic chunker inverts.

        Returns ``predict(chunk)``: the latency of a batch carrying
        ``num_decodes`` decodes (``decode_context`` tokens in total)
        plus one ``chunk``-token prefill chunk whose request has
        ``prefill_context`` tokens processed already; ``chunk == 0`` is
        the decode-only batch.  Bit-identical to :meth:`predict` on the
        same :class:`BatchShape`.
        """

        def predict(chunk: int) -> float:
            chunks = (
                [PrefillChunk(chunk, prefill_context)] if chunk > 0 else []
            )
            return self.predict(
                BatchShape(
                    prefill_chunks=chunks,
                    num_decodes=num_decodes,
                    decode_context_total=decode_context,
                )
            )

        return predict


class OracleBatchPredictor(BatchLatencyPredictor):
    """Zero-error predictor wrapping the ground-truth execution model."""

    def __init__(self, execution_model: ExecutionModel) -> None:
        self.execution_model = execution_model

    def predict(self, shape: BatchShape) -> float:
        return self.execution_model.batch_time(shape)


class ForestBatchPredictor(BatchLatencyPredictor):
    """Random-forest predictor trained on profiler samples.

    Args:
        forest: A fitted :class:`RandomForestRegressor` over the
            feature layout of :mod:`repro.perfmodel.profiler`.
        quantile: Aggregation quantile across trees.  Values above 0.5
            bias the predictor towards larger latency estimates — the
            "err on the side of under-predicting chunk size" tuning.
    """

    #: Feature-bucketing granularity for the prediction memo.  The
    #: forest is piecewise constant, so nearby inputs share leaves;
    #: rounding decode context and batch size before lookup turns the
    #: scheduler's inner-loop predictions into dictionary hits.
    MEMO_BUCKETS = (32, 256, 8, 16384)
    MEMO_LIMIT = 200_000

    def __init__(
        self,
        forest: RandomForestRegressor,
        quantile: float | None = 0.75,
        safety_factor: float = 1.10,
        memoize: bool = True,
    ) -> None:
        """Args:
        forest: Fitted forest over the profiler's feature layout.
        quantile: Per-sample aggregation quantile across trees.
        safety_factor: Multiplier on predictions.  Tree leaves are
            piecewise constant over chunk-size ranges, so a raw
            prediction systematically under-estimates the top of each
            leaf; inflating it keeps the chunker's inversion on the
            safe (small-chunk) side — the paper's under-prediction
            tuning.
        memoize: Cache predictions at bucketed feature keys.
        """
        if not forest.is_fitted:
            raise ValueError("forest must be fitted")
        if quantile is not None and not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile}")
        if safety_factor <= 0:
            raise ValueError("safety_factor must be positive")
        self.forest = forest
        self.quantile = quantile
        self.safety_factor = float(safety_factor)
        self.memoize = memoize
        self._memo: dict[tuple[float, ...], float] = {}

    def predict(self, shape: BatchShape) -> float:
        features = batch_features(shape)
        if not self.memoize:
            return self.safety_factor * self.forest.predict_one(
                features, quantile=self.quantile
            )
        # Round *up* to the bucket edge: the memoized prediction then
        # corresponds to a batch at least as heavy as the real one,
        # keeping the memo on the conservative side of the SLO.
        return self._memoized(
            tuple(
                bucket * -(-value // bucket)
                for value, bucket in zip(features, self.MEMO_BUCKETS)
            )
        )

    def _memoized(self, key: tuple[float, ...]) -> float:
        """Prediction at a bucketed memo key, computed on first use."""
        cached = self._memo.get(key)
        if cached is None:
            if len(self._memo) >= self.MEMO_LIMIT:
                self._memo.clear()
            cached = self.safety_factor * self.forest.predict_one(
                key, quantile=self.quantile
            )
            self._memo[key] = cached
        return cached

    def chunk_predictor(
        self, prefill_context: int, num_decodes: int, decode_context: int
    ) -> Callable[[int], float]:
        """Memo-direct chunk-latency curve: only the chunk-size part of
        the bucketed memo key changes between probes, so the other
        three parts are rounded once and no shape is built."""
        if not self.memoize:
            return super().chunk_predictor(
                prefill_context, num_decodes, decode_context
            )
        memoized = self._memoized
        b0, b1, b2, b3 = self.MEMO_BUCKETS
        k1 = b1 * -(-float(prefill_context) // b1)
        k2 = b2 * -(-float(num_decodes) // b2)
        k3 = b3 * -(-float(decode_context) // b3)

        def predict(chunk: int) -> float:
            if chunk > 0:
                return memoized((b0 * -(-float(chunk) // b0), k1, k2, k3))
            # A decode-only batch has no prefill context either.
            return memoized((0.0, 0.0, k2, k3))

        return predict

    @classmethod
    def train(
        cls,
        execution_model: ExecutionModel,
        quantile: float | None = 0.75,
        n_trees: int = 16,
        max_depth: int = 14,
        noise_std: float = 0.0,
        seed: int = 0,
    ) -> "ForestBatchPredictor":
        """Profile ``execution_model`` and fit a forest on the samples.

        This is the full Section 3.6.1 pipeline: collect latency
        profiles at varying chunk sizes, batch sizes and context
        lengths, then train the forest.  ``noise_std`` injects
        measurement jitter into the profiles for robustness studies.
        """
        rng = np.random.default_rng(seed) if noise_std > 0 else None
        profiler = Profiler(execution_model, noise_std=noise_std, rng=rng)
        samples = profiler.collect()
        x, y = profiler.to_arrays(samples)
        forest = RandomForestRegressor(
            n_trees=n_trees, max_depth=max_depth, seed=seed
        )
        forest.fit(x, y)
        return cls(forest, quantile=quantile)

    def validation_error(self, execution_model: ExecutionModel) -> float:
        """Mean relative error against the oracle on a shifted grid.

        Evaluates on chunk/batch/context points *between* the training
        grid's knots, which is the honest generalization check.
        """
        profiler = Profiler(execution_model)
        samples = profiler.collect(
            chunk_sizes=(48, 96, 320, 640, 1280, 2304, 3584),
            batch_sizes=(3, 6, 12, 24, 48, 160),
            contexts=(384, 768, 1536, 3072, 6144),
        )
        x, y = profiler.to_arrays(samples)
        return self.forest.mean_relative_error(x, y)


# Profiling + training takes a few CPU-seconds per deployment; within a
# process (an experiment sweep) the result is deterministic, so cache it.
_FOREST_CACHE: dict[tuple, ForestBatchPredictor] = {}


def cached_forest_predictor(
    execution_model: ExecutionModel,
    quantile: float | None = 0.75,
    seed: int = 0,
) -> ForestBatchPredictor:
    """Train-once-per-deployment accessor for the forest predictor."""
    key = (
        execution_model.model.name,
        execution_model.hardware.name,
        execution_model.tp_degree,
        quantile,
        seed,
    )
    if key not in _FOREST_CACHE:
        _FOREST_CACHE[key] = ForestBatchPredictor.train(
            execution_model, quantile=quantile, seed=seed
        )
    return _FOREST_CACHE[key]
