"""CART regression trees with variance-reduction (MSE) splits.

Nodes are stored in flat arrays rather than linked objects so that
prediction — which the scheduler performs many times per simulated
iteration — is a tight iterative loop.

Trees are grown level by level (:func:`fit_trees`): at each depth the
open nodes of every tree being fitted are searched together, in padded
``(features, nodes, samples)`` blocks, with one stable sort and two
prefix sums per block instead of per node and feature.  The nodes are
then numbered in depth-first order, so a tree is the same, byte for
byte, as one grown a node at a time from a stack.
"""

from __future__ import annotations

import numpy as np

_NO_CHILD = -1

#: Cap on the elements of one padded search block; it bounds the
#: memory the search takes, whatever the number of trees.
_BLOCK_ELEMENTS = 1 << 14


class DecisionTreeRegressor:
    """A binary regression tree grown greedily to minimize MSE.

    Attributes:
        max_depth: Maximum tree depth (root is depth 0).
        min_samples_leaf: A split is rejected if it would create a leaf
            smaller than this (at least 1).
        min_samples_split: Nodes smaller than this become leaves.
    """

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_leaf: int = 2,
        min_samples_split: int = 4,
    ) -> None:
        if min_samples_leaf < 1:
            raise ValueError(
                f"min_samples_leaf must be >= 1, got {min_samples_leaf}"
            )
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
        x, y = training_set(x, y, "tree")
        fit_trees([self], x, y, [np.arange(len(x))])
        return self

    def predict_one(self, features: np.ndarray | tuple[float, ...]) -> float:
        """Predict a single sample; the scheduler's hot path."""
        if self._feature is None:
            raise RuntimeError("tree is not fitted")
        node = 0
        feature = self._feature
        threshold = self._threshold
        left = self._left
        right = self._right
        while feature[node] != _NO_CHILD:
            if features[feature[node]] <= threshold[node]:
                node = left[node]
            else:
                node = right[node]
        return float(self._value[node])

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict a batch of samples."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        return np.array([self.predict_one(row) for row in x])


def training_set(
    x: np.ndarray, y: np.ndarray, what: str
) -> tuple[np.ndarray, np.ndarray]:
    """``(x, y)`` as float64 arrays, checked for a ``what`` to fit on."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"x must be 2-D, got shape {x.shape}")
    if len(x) != len(y):
        raise ValueError("x and y must have the same length")
    if len(x) == 0:
        raise ValueError(f"cannot fit a {what} on zero samples")
    return x, y


def fit_trees(
    trees: list[DecisionTreeRegressor],
    x: np.ndarray,
    y: np.ndarray,
    samples: list[np.ndarray],
) -> None:
    """Grow ``trees[i]`` on the rows ``samples[i]`` of ``(x, y)``.

    Every tree takes the hyperparameters of ``trees[0]``.  The trees
    grow together, one depth per pass.  A node's samples keep the order
    its parent's split sorted them into, and its sum (pairwise) and
    sum of squares (a dot product) are 1-D calls over them in that
    order, so every float matches a node-at-a-time build.
    """
    spec = trees[0]
    max_depth = spec.max_depth
    min_split = spec.min_samples_split
    x_t = np.ascontiguousarray(x.T)
    n_features = len(x_t)
    # The open nodes of one depth, all trees together: node i holds the
    # rows[starts[i]:starts[i] + sizes[i]] of x, in its own order.
    rows = np.concatenate(samples)
    sizes = np.array([len(sample) for sample in samples])
    tree_of = np.arange(len(samples))
    levels: list[tuple[np.ndarray, ...]] = []
    depth = 0
    while len(sizes):
        starts = np.cumsum(sizes) - sizes
        y_level = y[rows]
        bounds = list(zip(starts.tolist(), (starts + sizes).tolist()))
        sums = np.array([y_level[a:b].sum() for a, b in bounds])
        values = sums / sizes
        feature = np.full(len(sizes), _NO_CHILD, dtype=np.int64)
        threshold = np.zeros(len(sizes))
        split_at = np.zeros(len(sizes), dtype=np.int64)
        open_nodes = np.flatnonzero(
            (depth < max_depth)
            & (sizes >= min_split)
            & (
                np.maximum.reduceat(y_level, starts)
                - np.minimum.reduceat(y_level, starts)
                != 0.0
            )
        )
        # Search the largest nodes first; a block holds nodes at least
        # half as large as its first, so padding at most doubles it.
        open_nodes = open_nodes[
            np.argsort(-sizes[open_nodes], kind="stable")
        ]
        squares = np.array([
            float(y_level[a:b] @ y_level[a:b])
            for a, b in map(bounds.__getitem__, open_nodes.tolist())
        ])
        first = 0
        while first < len(open_nodes):
            width = int(sizes[open_nodes[first]])
            stop = min(
                len(open_nodes),
                first + max(1, _BLOCK_ELEMENTS // (width * n_features)),
                first
                + int(
                    np.searchsorted(
                        -sizes[open_nodes[first:]], -(width // 2)
                    )
                ),
            )
            block = open_nodes[first:stop]
            _search_block(
                x_t, y_level, rows, starts[block], sizes[block],
                sums[block], squares[first:stop], spec.min_samples_leaf,
                block, feature, threshold, split_at,
            )
            first = stop
        split = feature != _NO_CHILD
        levels.append((tree_of, split, feature, threshold, values))
        # Children of the k-th split node are next-depth nodes 2k
        # (left) and 2k + 1 (right); each takes its side of the
        # parent's rows in the sorted order.
        rows = rows[np.repeat(split, sizes)]
        sizes = np.stack(
            [split_at[split], sizes[split] - split_at[split]], axis=1
        ).ravel()
        tree_of = np.repeat(tree_of[split], 2)
        depth += 1
    _store(trees, levels)


def _search_block(
    x_t, y_level, rows, starts, sizes, sums, squares, min_leaf,
    nodes, feature, threshold, split_at,
) -> None:
    """Find the best split of each node in one padded block.

    Writes each split node's feature, threshold and left size into the
    level's tables at ``nodes``, and sorts its ``rows`` in place by the
    split feature.  The first best position of each feature, and then
    the first feature strictly above a running best that starts at
    ``1e-12``, win, as in a per-node scan.
    """
    width = int(sizes[0])
    inside = np.arange(width) < sizes[:, None]
    at = np.where(inside, starts[:, None] + np.arange(width), 0)
    # Padding sorts last: NaN is above every value, and a stable sort
    # keeps a sample's own NaN ahead of the padding.
    col = x_t[:, rows[at]]
    col[:, ~inside] = np.nan
    order = np.argsort(col, axis=-1, kind="stable")
    col = np.take_along_axis(col, order, axis=-1)
    y_block = np.where(inside, y_level[at], 0.0)
    y_sorted = y_block[np.arange(len(sizes))[:, None], order]
    # cumsum is sequential, so the zeros after a node's end leave its
    # prefixes as they would be unpadded.
    left_sum = np.cumsum(y_sorted, axis=-1)[..., :-1]
    y_sorted *= y_sorted
    left_sq = np.cumsum(y_sorted, axis=-1)[..., :-1]
    n = sizes[:, None].astype(np.float64)
    total_sum = sums[:, None]
    total_sq = squares[:, None]
    left_n = np.arange(1, width, dtype=np.float64)
    right_sum = total_sum - left_sum
    with np.errstate(divide="ignore", invalid="ignore"):
        sse = (
            left_sq
            - left_sum * left_sum / left_n
            + (total_sq - left_sq)
            - right_sum * right_sum / (n - left_n)
        )
        gains = (total_sq - total_sum * total_sum / n) - sse
    valid = (
        (left_n >= min_leaf)
        & (left_n <= n - min_leaf)
        & (col[..., 1:] != col[..., :-1])
    )
    gains[~valid] = -np.inf
    best_at = np.argmax(gains, axis=-1)
    best_gain = np.take_along_axis(gains, best_at[..., None], -1)[..., 0]
    running = np.full(len(sizes), 1e-12)
    chosen = np.full(len(sizes), _NO_CHILD, dtype=np.int64)
    for f, gain in enumerate(best_gain):
        better = gain > running
        running = np.where(better, gain, running)
        chosen[better] = f
    won = np.flatnonzero(chosen != _NO_CHILD)
    if not len(won):
        return
    f = chosen[won]
    pos = best_at[f, won] + 1
    feature[nodes[won]] = f
    threshold[nodes[won]] = 0.5 * (col[f, won, pos - 1] + col[f, won, pos])
    split_at[nodes[won]] = pos
    keep = inside[won]
    rows[at[won][keep]] = rows[(starts[won][:, None] + order[f, won])[keep]]


def _store(
    trees: list[DecisionTreeRegressor], levels: list[tuple[np.ndarray, ...]]
) -> None:
    """Number each tree's nodes depth-first and give it its arrays.

    A node-at-a-time build pops a node from a stack, gives a split
    node's children the next two ids, left then right, and pushes them,
    so the right subtree is numbered first.  A child's id is therefore
    ``1 + 2 * b + side``, ``b`` being the number of split nodes popped
    before its parent; a right child's ``b`` is its parent's plus one,
    and a left child's adds the split nodes of its right sibling.
    """
    # Split nodes in each node's subtree, from the deepest level up.
    inner: list[np.ndarray] = []
    below = None
    for _, split, _, _, _ in reversed(levels):
        count = split.astype(np.int64)
        if below is not None:
            count[split] += below[0::2] + below[1::2]
        inner.append(count)
        below = count
    inner.reverse()
    sizes = 1 + 2 * inner[0]
    offsets = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    feature = np.full(total, _NO_CHILD, dtype=np.int64)
    threshold = np.zeros(total)
    left = np.full(total, _NO_CHILD, dtype=np.int64)
    right = np.full(total, _NO_CHILD, dtype=np.int64)
    value = np.zeros(total)
    ids = np.zeros(len(sizes), dtype=np.int64)
    before = np.zeros(len(sizes), dtype=np.int64)
    for depth, (tree_of, split, feat, thresh, values) in enumerate(levels):
        at = offsets[tree_of] + ids
        feature[at] = feat
        threshold[at] = thresh
        value[at] = values
        if depth + 1 == len(levels):
            break
        parent = before[split]
        ids = np.stack([2 * parent + 1, 2 * parent + 2], axis=1).ravel()
        before = np.stack(
            [parent + 1 + inner[depth + 1][1::2], parent + 1], axis=1
        ).ravel()
        left[at[split]] = ids[0::2]
        right[at[split]] = ids[1::2]
    for tree, start, size in zip(trees, offsets.tolist(), sizes.tolist()):
        stop = start + size
        tree._feature = feature[start:stop]
        tree._threshold = threshold[start:stop]
        tree._left = left[start:stop]
        tree._right = right[start:stop]
        tree._value = value[start:stop]
