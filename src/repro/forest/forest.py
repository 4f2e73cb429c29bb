"""Bagged random forest over :class:`DecisionTreeRegressor`.

Supports mean aggregation (standard regression) and quantile
aggregation across trees; the dynamic chunker uses a high latency
quantile so that chunk-size predictions err small, matching the
under-prediction tuning described in Section 3.6.1 of the paper.
"""

from __future__ import annotations

import math

import numpy as np

from repro.forest.fused import FusedForest
from repro.forest.tree import DecisionTreeRegressor, fit_trees, training_set


class RandomForestRegressor:
    """Bootstrap-aggregated regression trees."""

    def __init__(
        self,
        n_trees: int = 20,
        max_depth: int = 12,
        min_samples_leaf: int = 2,
        seed: int = 0,
    ) -> None:
        """Args:
        n_trees: Number of bootstrap trees.
        max_depth: Depth limit per tree.
        min_samples_leaf: Leaf-size minimum per tree.
        seed: Seed for bootstrap sampling.
        """
        if n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {n_trees}")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self._trees: list[DecisionTreeRegressor] = []
        self._fused: FusedForest | None = None

    @property
    def is_fitted(self) -> bool:
        return bool(self._trees)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        """Fit ``n_trees`` trees on bootstrap resamples of (x, y).

        The trees grow together, level by level (see
        :func:`~repro.forest.tree.fit_trees`); each is the tree a
        :class:`DecisionTreeRegressor` fitted on its resample alone
        would be.
        """
        x, y = training_set(x, y, "forest")
        rng = np.random.default_rng(self.seed)
        n = len(x)
        samples = [rng.integers(0, n, size=n) for _ in range(self.n_trees)]
        self._trees = [
            DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
            )
            for _ in samples
        ]
        fit_trees(self._trees, x, y, samples)
        self._fused = None  # stale node tables; rebuilt lazily
        return self

    @property
    def fused(self) -> FusedForest:
        """Stacked flat-array evaluator over all trees (lazily built)."""
        if not self._trees:
            raise RuntimeError("forest is not fitted")
        if self._fused is None:
            self._fused = FusedForest(self._trees)
        return self._fused

    @staticmethod
    def _aggregate(votes: list[float], quantile: float | None) -> float:
        """Collapse per-tree votes; shared by every prediction path so
        the fused evaluators stay bit-identical to the per-tree one.

        The quantile branch hand-rolls ``np.quantile(votes, q)`` with
        the default linear interpolation — same arithmetic (including
        the ``gamma >= 0.5`` lerp form NumPy uses for floating-point
        symmetry), so the result is bit-identical while skipping
        ~30us of ufunc dispatch on a ~16-element vote list.  Pinned
        against ``np.quantile`` in ``tests/test_forest_fused.py``.
        """
        if quantile is None:
            return float(sum(votes) / len(votes))
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(
                f"quantile must be in [0, 1], got {quantile}"
            )
        ordered = sorted(votes)
        virtual = quantile * (len(votes) - 1)
        lo = math.floor(virtual)
        gamma = virtual - lo
        a = ordered[lo]
        b = ordered[min(lo + 1, len(votes) - 1)]
        diff = b - a
        if gamma >= 0.5:
            return float(b - diff * (1.0 - gamma))
        return float(a + diff * gamma)

    def predict_one(
        self,
        features: np.ndarray | tuple[float, ...],
        quantile: float | None = None,
    ) -> float:
        """Predict one sample.

        Args:
            features: Feature vector.
            quantile: When given, return this quantile of the per-tree
                predictions instead of their mean.  A high quantile
                (e.g. 0.8) yields conservative (large) latency
                estimates, which the chunker uses to stay on the safe
                side of SLOs.
        """
        if not self._trees:
            raise RuntimeError("forest is not fitted")
        votes = self.fused.leaf_votes_one(features)
        return self._aggregate(votes, quantile)

    def predict_one_pertree(
        self,
        features: np.ndarray | tuple[float, ...],
        quantile: float | None = None,
    ) -> float:
        """Reference per-tree evaluation path.

        Kept as the ground truth the fused evaluator is tested — and
        benchmarked — against; see ``tests/test_forest_fused.py``.
        """
        if not self._trees:
            raise RuntimeError("forest is not fitted")
        votes = [tree.predict_one(features) for tree in self._trees]
        return self._aggregate(votes, quantile)

    def predict_batch(
        self, x: np.ndarray, quantile: float | None = None
    ) -> np.ndarray:
        """Predict many samples with one level-synchronous traversal.

        Rows are walked through all trees simultaneously (see
        :meth:`FusedForest.leaf_votes`); the per-row aggregation is the
        same helper the scalar path uses, so results are bit-identical
        to ``[predict_one(row) for row in x]``.
        """
        if not self._trees:
            raise RuntimeError("forest is not fitted")
        votes = self.fused.leaf_votes(x)
        return np.array(
            [self._aggregate(row.tolist(), quantile) for row in votes]
        )

    def predict(
        self, x: np.ndarray, quantile: float | None = None
    ) -> np.ndarray:
        """Predict a batch of samples."""
        return self.predict_batch(x, quantile=quantile)

    def mean_relative_error(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean |pred - y| / y on a held-out set (paper cites <10%)."""
        y = np.asarray(y, dtype=np.float64)
        preds = self.predict_batch(x)
        mask = y > 0
        return float(np.mean(np.abs(preds[mask] - y[mask]) / y[mask]))
