"""Differential test of the level-synchronous tree builder.

``tests/forest_reference.py`` keeps the depth-first builder that grew
one node at a time from a stack.  The level-synchronous builder in
``repro.forest.tree`` must produce the same trees byte for byte: the
same five node arrays, in the same depth-first numbering.  The latency
forest feeds the dynamic chunker's binary search, so a one-ulp drift in
a threshold or a leaf value could change a chunk size.
"""

import hashlib

import numpy as np
import pytest

from repro.core.predictor import cached_forest_predictor
from repro.experiments.configs import DEPLOYMENTS, get_execution_model
from repro.forest import DecisionTreeRegressor, RandomForestRegressor
from repro.perfmodel import A100_80GB, LLAMA3_8B, ExecutionModel
from repro.perfmodel.profiler import Profiler
from tests.forest_reference import (
    DecisionTreeRegressor as ReferenceTree,
)

#: SHA-256 over the node arrays of every tree of the default
#: ``cached_forest_predictor`` (Llama3-8B on one A100), recorded from
#: the depth-first builder.
DEFAULT_FOREST_SHA256 = (
    "4891d2f471044160a83f3963c72ad738223a80b055ad5a4b6bfc6ef86e43497e"
)


def node_arrays(tree) -> tuple[np.ndarray, ...]:
    return (
        tree._feature,
        tree._threshold,
        tree._left,
        tree._right,
        tree._value,
    )


def assert_same_tree(tree, reference) -> None:
    for got, want in zip(node_arrays(tree), node_arrays(reference)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def reference_forest(x, y, n_trees, seed, **params) -> list[ReferenceTree]:
    """The old forest fit: one tree at a time on each bootstrap copy."""
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(n_trees):
        sample = rng.integers(0, len(x), size=len(x))
        trees.append(ReferenceTree(**params).fit(x[sample], y[sample]))
    return trees


@pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
def test_profiler_forest_matches_reference(deployment):
    profiler = Profiler(get_execution_model(deployment))
    x, y = profiler.to_arrays(profiler.collect())
    forest = RandomForestRegressor(n_trees=16, max_depth=14, seed=0)
    forest.fit(x, y)
    expected = reference_forest(
        x, y, n_trees=16, seed=0, max_depth=14, min_samples_leaf=2
    )
    assert len(forest._trees) == len(expected)
    for tree, reference in zip(forest._trees, expected):
        assert_same_tree(tree, reference)


def random_set(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Small sets with heavy ties: integer features, few target values."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 120))
    n_features = int(rng.integers(1, 5))
    x = rng.integers(0, int(rng.integers(1, 8)), size=(n, n_features))
    x = x.astype(np.float64)
    kind = seed % 3
    if kind == 0:
        y = rng.integers(0, 4, size=n).astype(np.float64)
    elif kind == 1:
        y = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
    else:
        y = x @ rng.uniform(-2, 2, size=n_features) + rng.normal(size=n)
    if seed % 4 == 3:
        # NaN sorts last and must stay ahead of a block's padding.
        holes = rng.random(x.shape) < 0.15
        x[holes] = rng.choice([np.nan, np.inf, -np.inf], size=holes.sum())
    return x, y


@pytest.mark.parametrize("seed", range(60))
def test_random_trees_match_reference(seed):
    x, y = random_set(seed)
    rng = np.random.default_rng(1000 + seed)
    params = dict(
        max_depth=int(rng.integers(0, 15)),
        min_samples_leaf=int(rng.integers(1, 6)),
        min_samples_split=int(rng.integers(1, 9)),
    )
    tree = DecisionTreeRegressor(**params).fit(x, y)
    assert_same_tree(tree, ReferenceTree(**params).fit(x, y))


@pytest.mark.parametrize("seed", range(20))
def test_random_forests_match_reference(seed):
    x, y = random_set(seed)
    params = dict(
        max_depth=seed % 15, min_samples_leaf=1 + seed % 5
    )
    forest = RandomForestRegressor(n_trees=6, seed=seed, **params)
    forest.fit(x, y)
    expected = reference_forest(x, y, n_trees=6, seed=seed, **params)
    for tree, reference in zip(forest._trees, expected):
        assert_same_tree(tree, reference)


@pytest.mark.parametrize(
    "x, y",
    [
        # Constant target: the root is a leaf.
        (np.arange(12.0)[:, None], np.full(12, 2.5)),
        # Fewer samples than min_samples_split.
        (np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 1.0, 5.0])),
        # One sample.
        (np.array([[4.0, 1.0]]), np.array([3.0])),
        # Constant features: no position changes value.
        (np.ones((20, 3)), np.arange(20.0)),
        # Infinite and NaN feature values sort as the reference sorts them.
        (
            np.array(
                [[np.inf], [1.0], [np.nan], [-np.inf], [2.0], [np.nan],
                 [1.0], [3.0], [np.inf], [0.0]]
            ),
            np.arange(10.0) ** 2,
        ),
    ],
)
@pytest.mark.parametrize("min_samples_leaf", [1, 2, 5])
def test_edge_sets_match_reference(x, y, min_samples_leaf):
    for max_depth in (0, 1, 14):
        params = dict(
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            min_samples_split=2,
        )
        tree = DecisionTreeRegressor(**params).fit(x, y)
        assert_same_tree(tree, ReferenceTree(**params).fit(x, y))


def test_rejects_min_samples_leaf_below_one():
    with pytest.raises(ValueError):
        DecisionTreeRegressor(min_samples_leaf=0)


def test_default_forest_predictor_pin():
    predictor = cached_forest_predictor(ExecutionModel(LLAMA3_8B, A100_80GB))
    digest = hashlib.sha256()
    for tree in predictor.forest._trees:
        for array in node_arrays(tree):
            digest.update(array.tobytes())
    assert digest.hexdigest() == DEFAULT_FOREST_SHA256
