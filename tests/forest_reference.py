"""Depth-first CART tree builder: the reference for the differential test.

A verbatim copy of ``repro.forest.tree.DecisionTreeRegressor`` (its
constructor, ``fit`` and ``_best_split``) as it stood before trees were
grown level by level: one node at a time from an explicit stack, one
sort per feature per node.  Only the per-split feature sub-sampling
knob is left out; it was deleted with the old builder, and its branch
never ran at its default of all features.
``tests/test_forest_builder.py`` fits it and the real builder on the
same data and asserts byte-identical node arrays.  Test-only; never
imported by the package.
"""

from __future__ import annotations

import numpy as np

_NO_CHILD = -1


class DecisionTreeRegressor:
    """A binary regression tree grown greedily to minimize MSE.

    Attributes:
        max_depth: Maximum tree depth (root is depth 0).
        min_samples_leaf: A split is rejected if it would create a leaf
            smaller than this.
        min_samples_split: Nodes smaller than this become leaves.
    """

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_leaf: int = 2,
        min_samples_split: int = 4,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split
        # Flat node arrays, filled by fit().
        self._feature: np.ndarray | None = None
        self._threshold: np.ndarray | None = None
        self._left: np.ndarray | None = None
        self._right: np.ndarray | None = None
        self._value: np.ndarray | None = None

    @property
    def node_count(self) -> int:
        return 0 if self._feature is None else len(self._feature)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Grow the tree on training matrix ``x`` and targets ``y``."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        if len(x) != len(y):
            raise ValueError("x and y must have the same length")
        if len(x) == 0:
            raise ValueError("cannot fit a tree on zero samples")

        features: list[int] = []
        thresholds: list[float] = []
        lefts: list[int] = []
        rights: list[int] = []
        values: list[float] = []

        def new_node() -> int:
            features.append(_NO_CHILD)
            thresholds.append(0.0)
            lefts.append(_NO_CHILD)
            rights.append(_NO_CHILD)
            values.append(0.0)
            return len(features) - 1

        # Iterative depth-first growth with an explicit stack keeps us
        # clear of Python's recursion limit on deep trees.
        root = new_node()
        stack: list[tuple[int, np.ndarray, int]] = [
            (root, np.arange(len(x)), 0)
        ]
        while stack:
            node, idx, depth = stack.pop()
            y_node = y[idx]
            values[node] = float(y_node.mean())
            if (
                depth >= self.max_depth
                or len(idx) < self.min_samples_split
                or float(y_node.max() - y_node.min()) == 0.0
            ):
                continue
            split = self._best_split(x, y, idx)
            if split is None:
                continue
            feat, thresh, left_idx, right_idx = split
            left = new_node()
            right = new_node()
            features[node] = feat
            thresholds[node] = thresh
            lefts[node] = left
            rights[node] = right
            stack.append((left, left_idx, depth + 1))
            stack.append((right, right_idx, depth + 1))

        self._feature = np.array(features, dtype=np.int64)
        self._threshold = np.array(thresholds, dtype=np.float64)
        self._left = np.array(lefts, dtype=np.int64)
        self._right = np.array(rights, dtype=np.int64)
        self._value = np.array(values, dtype=np.float64)
        return self

    def _best_split(
        self, x: np.ndarray, y: np.ndarray, idx: np.ndarray
    ) -> tuple[int, float, np.ndarray, np.ndarray] | None:
        """Return (feature, threshold, left_idx, right_idx) or None.

        For each candidate feature the samples are sorted once and the
        sum-of-squared-errors of every prefix/suffix pair is evaluated
        with prefix sums, so the scan is O(n log n) per feature.
        """
        candidates = np.arange(x.shape[1])

        y_node = y[idx]
        n = len(idx)
        total_sum = y_node.sum()
        total_sq = float(y_node @ y_node)
        parent_sse = total_sq - total_sum * total_sum / n

        best_gain = 1e-12  # require strictly positive improvement
        best: tuple[int, float, np.ndarray, np.ndarray] | None = None
        min_leaf = self.min_samples_leaf
        for feat in candidates:
            col = x[idx, feat]
            order = np.argsort(col, kind="stable")
            col_sorted = col[order]
            y_sorted = y_node[order]
            prefix_sum = np.cumsum(y_sorted)
            prefix_sq = np.cumsum(y_sorted * y_sorted)

            # Valid split positions: between i-1 and i where the value
            # changes and both sides satisfy the leaf-size minimum.
            positions = np.arange(min_leaf, n - min_leaf + 1)
            if len(positions) == 0:
                continue
            changed = col_sorted[positions] != col_sorted[positions - 1]
            positions = positions[changed]
            if len(positions) == 0:
                continue

            left_n = positions.astype(np.float64)
            left_sum = prefix_sum[positions - 1]
            left_sq = prefix_sq[positions - 1]
            right_n = n - left_n
            right_sum = total_sum - left_sum
            right_sq = total_sq - left_sq
            sse = (
                left_sq
                - left_sum * left_sum / left_n
                + right_sq
                - right_sum * right_sum / right_n
            )
            gains = parent_sse - sse
            k = int(np.argmax(gains))
            if gains[k] > best_gain:
                pos = positions[k]
                thresh = 0.5 * (col_sorted[pos - 1] + col_sorted[pos])
                left_mask = order[:pos]
                right_mask = order[pos:]
                best = (
                    int(feat),
                    float(thresh),
                    idx[left_mask],
                    idx[right_mask],
                )
                best_gain = gains[k]
        return best
