"""Tests for metrics, trees, forests, boosting, and model files."""

import collections
import dataclasses
import gc
import hashlib
import json
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cart_reference
from pkwbench.errors import (
    EmptyData,
    MalformedModel,
    ShapeMismatch,
    ZeroVariance,
)
from pkwbench.geometry import FEATURE_NAMES, derive, feature_vector
from pkwbench.hydraulics import OracleConfig, paper_schedule, synthetic_cd
from pkwbench.sampling import generate_batch, paper_default_space
from pkwbench.surrogates import (
    MetricReport,
    PointNetMini,
    TreeEnsemble,
    TreeParams,
    compute_metrics,
    fit_forest,
    fit_gbm,
    fit_tree,
    load_model,
    r_squared,
    save_model,
    timed_single_predictions,
)
from pkwbench.surrogates import serialize, trees
from pkwbench.surrogates.pointnet import _init_params

# hand arithmetic: errors (0.02, -0.02, 0.01), squared sum 9e-4,
# total sum of squares around the mean 0.02, so R^2 = 1 - 0.045
HAND_Y = np.array([0.3, 0.4, 0.5])
HAND_P = np.array([0.32, 0.38, 0.51])


def _oracle_rows(n_geometries, seed, sigma=0.0, n_q=19):
    """Feature matrix and labels from the deterministic label generator."""
    space = paper_default_space()
    batch = generate_batch(space, n_geometries, seed=seed)
    schedule = paper_schedule()
    q_subset = list(schedule.as_m3s())[:n_q]
    geometries = [
        (f"g{k:04d}", sample, derive(space.fixed, sample))
        for k, sample in enumerate(batch.samples)
    ]
    config = OracleConfig(sigma=sigma)
    rows = []
    targets = []
    for k, (_, _, derived) in enumerate(geometries):
        for j, q in enumerate(q_subset):
            rows.append(feature_vector(derived, q))
            targets.append(
                synthetic_cd(derived, q, config=config, seed=1000 * k + j)
            )
    return np.asarray(rows), np.asarray(targets)


# metrics


def test_metrics_hand_oracle():
    report = compute_metrics(HAND_Y, HAND_P)
    assert report.mse == pytest.approx(3e-4, rel=1e-12)
    assert report.mae == pytest.approx(1.0 / 60.0, rel=1e-12)
    assert report.max_ae == pytest.approx(0.02, rel=1e-12)
    assert report.r2 == pytest.approx(0.955, rel=1e-12)
    assert report.n_samples == 3


def test_metrics_scaled_view():
    scaled = compute_metrics(HAND_Y, HAND_P).scaled()
    assert scaled["mse_1e5"] == pytest.approx(30.0, rel=1e-12)
    assert scaled["mae_1e3"] == pytest.approx(1000.0 / 60.0, rel=1e-12)
    assert scaled["max_ae_10"] == pytest.approx(0.2, rel=1e-12)
    assert scaled["r2_100"] == pytest.approx(95.5, rel=1e-12)


def test_metrics_perfect_and_null_model():
    y = np.array([0.1, 0.4, 0.3, 0.8])
    perfect = compute_metrics(y, y)
    assert perfect.mse == 0.0
    assert perfect.mae == 0.0
    assert perfect.max_ae == 0.0
    assert perfect.r2 == 1.0
    null = compute_metrics(y, np.full(4, y.mean()))
    assert null.r2 == pytest.approx(0.0, abs=1e-15)


def test_metrics_invariants_on_random_pairs():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        y = rng.normal(size=n)
        p = y + rng.normal(scale=0.3, size=n)
        rep = compute_metrics(y, p)
        assert 0.0 <= rep.mae <= rep.max_ae
        assert rep.mse <= rep.max_ae**2 + 1e-15
        if rep.r2 is not None:
            assert rep.r2 <= 1.0


def test_metrics_constant_targets_leave_r2_undefined():
    y = np.full(5, 0.4)
    p = np.array([0.4, 0.41, 0.39, 0.4, 0.4])
    rep = compute_metrics(y, p)
    assert rep.r2 is None
    assert rep.scaled()["r2_100"] is None
    assert rep.mae > 0.0
    with pytest.raises(ZeroVariance):
        r_squared(y, p)


def test_metrics_of_equal_errors_keep_the_mean_at_the_max():
    # the float mean of three 0.1 errors rounds to 0.10000000000000002
    assert np.mean([0.1] * 3) > 0.1
    rep = compute_metrics([0.0, 0.0, 0.0], [0.1, 0.1, 0.1])
    assert rep.mae == rep.max_ae == 0.1
    assert rep.r2 is None


def test_constant_targets_with_an_inexact_mean_leave_r2_undefined():
    # the float mean of equal targets can differ from them, which leaves
    # a tiny nonzero total sum of squares
    for value, n in ((0.1, 3), (0.7, 19)):
        assert np.mean([value] * n) != value
        y = np.full(n, value)
        p = y.copy()
        p[-1] += 0.1
        with pytest.raises(ZeroVariance):
            r_squared(y, p)
        assert compute_metrics(y, p).r2 is None
    # targets whose deviations square to zero have no r2 either
    with pytest.raises(ZeroVariance, match="underflow"):
        r_squared([0.0, 5e-324], [0.0, 0.0])


def test_metrics_guards():
    with pytest.raises(EmptyData):
        compute_metrics([], [])
    with pytest.raises(ShapeMismatch):
        compute_metrics([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        compute_metrics([1.0, np.nan], [1.0, 2.0])
    with pytest.raises(ValueError):
        MetricReport(mse=0.1, mae=0.5, max_ae=0.2, r2=None, n_samples=3)
    with pytest.raises(ValueError):
        MetricReport(mse=0.1, mae=0.1, max_ae=0.2, r2=1.5, n_samples=3)


# single trees


def _n_leaves(tree):
    return int(np.count_nonzero(tree.feature == -1))


def _depth(tree):
    """Depth of a single packed tree; children follow their parents."""
    depth = np.zeros(tree.n_nodes, dtype=int)
    for i in np.flatnonzero(tree.feature != -1):
        depth[[tree.child[i], tree.child[i] + 1]] = depth[i] + 1
    return int(depth.max())


def test_step_data_tree():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    tree = fit_tree(X, y)
    assert tree.feature[0] == 0
    assert tree.value[0] == 2.5
    assert _n_leaves(tree) == 2
    assert np.array_equal(tree.predict(X), y)
    # routing sends values at the threshold to the left child
    assert tree.predict(np.array([[2.5]]))[0] == 0.0
    assert tree.predict(np.array([[2.5000001]]))[0] == 1.0


def test_constant_targets_make_single_leaf():
    X = np.arange(12.0).reshape(6, 2)
    tree = fit_tree(X, np.full(6, 0.7))
    assert tree.n_nodes == 1
    # the leaf holds the float mean, identical up to summation rounding
    np.testing.assert_allclose(tree.predict(X), 0.7, rtol=1e-15)


def test_tie_breaks_prefer_low_feature_and_low_threshold():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    # identical columns: both admit the same best split, index 0 must win
    tree = fit_tree(np.column_stack([x, x]), np.array([0.0, 0.0, 1.0, 1.0]))
    assert tree.feature[0] == 0
    # symmetric targets: thresholds 1.5 and 3.5 give equal child error
    tree2 = fit_tree(x.reshape(-1, 1), np.array([0.0, 1.0, 1.0, 0.0]))
    assert tree2.value[0] == 1.5


def test_tree_determinism():
    rng = np.random.default_rng(17)
    X = rng.random((80, 4))
    y = rng.random(80)
    a = fit_tree(X, y)
    b = fit_tree(X, y)
    assert np.array_equal(a.feature, b.feature)
    assert np.array_equal(a.value, b.value)


def test_tree_stopping_rules():
    rng = np.random.default_rng(3)
    X = rng.random((40, 3))
    y = rng.random(40)
    stump = fit_tree(X, y, TreeParams(max_depth=1))
    assert _depth(stump) == 1
    assert stump.n_nodes == 3
    deep = fit_tree(X, y)
    assert _depth(deep) > 1
    # four rows cannot split into two children of three
    leafy = fit_tree(
        np.arange(4.0).reshape(-1, 1),
        np.array([0.0, 1.0, 2.0, 3.0]),
        TreeParams(min_samples_leaf=3),
    )
    assert leafy.n_nodes == 1


def test_leaf_values_are_training_means():
    rng = np.random.default_rng(9)
    X = rng.random((50, 2))
    y = rng.random(50)
    tree = fit_tree(X, y, TreeParams(max_depth=2))
    pred = tree.predict(X)
    for leaf_value in np.unique(pred):
        routed = y[pred == leaf_value]
        assert leaf_value == pytest.approx(routed.mean(), rel=1e-14)


def test_exact_tree_drives_training_error_to_zero():
    X, y = _oracle_rows(40, seed=11, n_q=7)
    tree = fit_tree(X, y)
    assert np.array_equal(tree.predict(X), y)


def test_tree_with_a_level_of_over_16k_splits_is_exact():
    # 2**16 distinct rows split down to single-row leaves; 2**15 nodes split
    # at depth 15, so their child keys no longer fit in int16
    x = np.arange(2.0**16)
    tree = fit_tree(x.reshape(-1, 1), x)
    assert _n_leaves(tree) == x.size
    assert tree.n_nodes == 2 * x.size - 1
    assert np.array_equal(tree.predict(x.reshape(-1, 1)), x)


def test_tree_guards():
    with pytest.raises(EmptyData):
        fit_tree(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ShapeMismatch):
        fit_tree(np.ones((3, 2)), np.ones(4))
    with pytest.raises(ShapeMismatch):
        fit_tree(np.ones(3), np.ones(3))
    with pytest.raises(ValueError):
        fit_tree(np.array([[np.inf]]), np.array([1.0]))
    tree = fit_tree(np.ones((3, 2)), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ShapeMismatch):
        tree.predict(np.ones((3, 5)))


def test_two_column_target_names_its_shape():
    X = np.ones((50, 2))
    with pytest.raises(ShapeMismatch, match=r"target must be 1-D or one column, got shape "
                                            r"\(50, 2\)"):
        fit_tree(X, np.ones((50, 2)))
    # one column is a target of one value a row
    tree = fit_tree(X, np.arange(50.0).reshape(-1, 1))
    assert tree.predict(X).shape == (50,)


# A count that is not a whole number is refused, naming the parameter:
# TreeParams(max_depth=2.5) grew 3 levels, and a float tree or feature count
# ended in a TypeError deep inside the fit
_X_COUNTS, _Y_COUNTS = np.arange(100.0).reshape(50, 2), np.arange(50.0) % 7


@pytest.mark.parametrize("name, fit", [
    ("max_depth", lambda v: TreeParams(max_depth=v)),
    ("min_samples_leaf", lambda v: TreeParams(min_samples_leaf=v)),
    ("min_samples_split", lambda v: TreeParams(min_samples_split=v)),
    ("max_features", lambda v: fit_forest(_X_COUNTS, _Y_COUNTS, n_trees=2, max_features=v)),
    ("n_trees", lambda v: fit_forest(_X_COUNTS, _Y_COUNTS, n_trees=v)),
    ("n_trees", lambda v: fit_gbm(_X_COUNTS, _Y_COUNTS, n_trees=v)),
], ids=["max_depth", "min_samples_leaf", "min_samples_split", "forest_max_features",
        "forest_n_trees", "gbm_n_trees"])
def test_counts_must_be_integers(name, fit):
    for value in (2.5, 2.0, True, np.float64(2.0), np.bool_(True), "2"):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got"):
            fit(value)
    # integers of any integer type are taken as ints
    fit(np.int64(2))


def test_tree_params_hold_plain_ints():
    params = TreeParams(max_depth=np.int32(3), min_samples_leaf=np.uint8(2),
                        min_samples_split=np.int64(4))
    assert params == TreeParams(max_depth=3, min_samples_leaf=2, min_samples_split=4)
    assert all(type(v) is int for v in dataclasses.astuple(params))
    assert TreeParams().max_depth is None


# exact CART against the per-node reference grower

# Feature values drawn from a small pool make ties.  The pool holds two
# adjacent doubles whose midpoint rounds up to the upper one and a pair whose
# sum overflows: the two cases of the threshold fallback.
_X_POOL = (
    -2.0,
    0.0,
    1.0,
    1.0000000000000002,
    1.0000000000000004,
    3.0,
    1e308,
    float(np.nextafter(1e308, np.inf)),
)
# y * y overflows above about 1.3e154 and turns scores inf or NaN; opposite
# huge values cancel in sums but not in squares
_HUGE_Y = st.sampled_from((-1e160, 1e160, -1e153, 1e153, 0.0, 1.0)) | st.floats(
    -2e160, 2e160
)


@st.composite
def _cart_problems(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    X = draw(arrays(np.float64, (n, d), elements=st.sampled_from(_X_POOL)))
    if d > 1 and draw(st.booleans()):
        X[:, 1] = X[:, 0]  # duplicated column, like B_i == B_o in the features
    if draw(st.booleans()):
        X[:, -1] = X[0, -1]  # constant column
    kind = draw(st.sampled_from(["steps", "floats", "constant", "huge"]))
    if kind == "steps":
        y = draw(arrays(np.float64, n, elements=st.sampled_from((0.0, 0.25, 1.0))))
    elif kind == "floats":
        y = draw(arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
    elif kind == "constant":
        y = np.full(n, draw(st.floats(-1e3, 1e3)))
    else:
        y = draw(arrays(np.float64, n, elements=_HUGE_Y))
    params = TreeParams(
        max_depth=draw(st.none() | st.integers(1, 8)),
        min_samples_leaf=draw(st.integers(1, 4)),
        min_samples_split=draw(st.integers(2, 6)),
    )
    return X, y, params


def _reference_arrays(X, y, rows, params, rng=None):
    """The sorted-scan per-node grower's tree on ``rows``, duplicates and
    all, renumbered breadth first."""
    with np.errstate(all="ignore"):
        return cart_reference.one_value(cart_reference.level_order(
            cart_reference._grow(X, y, rows, params, rng, X.shape[1])))


def _routed_arrays(X, y, params, counts=None, rng=None, max_features=None):
    """The routed per-node grower's tree: histograms for wide nodes, with
    sibling subtraction, and sorted scans for narrow ones; every row once
    without ``counts``."""
    counts = np.ones(X.shape[0]) if counts is None else counts
    with np.errstate(all="ignore"):
        return cart_reference.one_value(cart_reference._grow_routed(
            X, y, counts, params, rng, max_features or X.shape[1]))


def _assert_same_nodes(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@settings(max_examples=400, deadline=None)
@given(_cart_problems())
def test_fit_tree_matches_the_per_node_grower(problem):
    X, y, params = problem
    want = _routed_arrays(X, y, params)
    _assert_same_nodes(cart_reference.members(fit_tree(X, y, params))[0], want)


def _forest_reference(X, y, seed, k, params, max_features=None):
    """Tree ``k`` of a forest (on every feature by default), as the routed
    per-node grower grows it from the tree's bootstrap counts."""
    rng, counts = cart_reference.bootstrap(seed, k, X.shape[0])
    return _routed_arrays(X, y, params, counts, rng, max_features)


@settings(max_examples=200, deadline=None)
@given(_cart_problems(), st.integers(0, 2**32 - 1))
def test_forest_trees_on_every_feature_match_the_per_node_grower(problem, seed):
    X, y, params = problem
    d = X.shape[1]
    forest = fit_forest(X, y, n_trees=2, seed=seed, params=params, max_features=d)
    for k, tree in enumerate(cart_reference.members(forest)):
        # with every feature a candidate, no subset is drawn
        _assert_same_nodes(tree, _forest_reference(X, y, seed, k, params))


@settings(max_examples=200, deadline=None)
@given(_cart_problems(), st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
def test_forest_members_match_the_count_weighted_grower(problem, n_trees, seed, data):
    X, y, params = problem
    max_features = data.draw(st.integers(1, X.shape[1]))
    with np.errstate(all="ignore"):
        forest = fit_forest(X, y, n_trees=n_trees, seed=seed, params=params,
                            max_features=max_features)
    for k, tree in enumerate(cart_reference.members(forest)):
        _assert_same_nodes(tree, _forest_reference(X, y, seed, k, params, max_features))


@pytest.mark.parametrize("max_depth", [3, 8, None])
@pytest.mark.parametrize("min_samples_leaf", [1, 5])
def test_deep_trees_on_oracle_rows_match_the_per_node_grower(max_depth, min_samples_leaf):
    # hundreds of rows: many levels and split searches over several blocks
    X, y = _oracle_rows(40, seed=23, sigma=0.005)
    d = X.shape[1]
    params = TreeParams(max_depth=max_depth, min_samples_leaf=min_samples_leaf)
    want = _routed_arrays(X, y, params)
    _assert_same_nodes(cart_reference.members(fit_tree(X, y, params))[0], want)
    forest = fit_forest(X, y, n_trees=1, seed=4, params=params, max_features=d)
    _assert_same_nodes(cart_reference.members(forest)[0],
                       _forest_reference(X, y, 4, 0, params))


# A counted tree against the per-node grower on its drawn rows, duplicates
# and all, on inputs without ties: distinct feature values and continuous
# targets.  Two features that cut a node into the same children score
# within rounding of each other, as they do on every node of two rows, so
# with several features the leaves keep several draws.  Sums over counts
# round differently from sums over duplicates, so the leaf values may
# differ in the last bits.
@pytest.mark.parametrize("n, d, params", [
    (200, 1, TreeParams()),
    (300, 4, TreeParams(min_samples_leaf=8)),
    (240, 3, TreeParams(max_depth=6, min_samples_leaf=5, min_samples_split=15)),
])
def test_counted_trees_match_the_per_node_grower_on_the_drawn_rows(n, d, params):
    rng = np.random.default_rng(n + d)
    X = rng.permutation(n * d).reshape(n, d) / (n * d) + rng.random((n, d)) * 1e-3
    y = rng.normal(size=n) + 3 * X[:, 0]
    forest = fit_forest(X, y, n_trees=3, seed=17, params=params, max_features=d)
    for k, (feature, _, _, _, value) in enumerate(cart_reference.members(forest)):
        rng_k = np.random.default_rng(np.random.SeedSequence([17, k]))
        rows = rng_k.integers(0, n, size=n)
        want = _reference_arrays(X, y, rows, params, rng_k)
        assert feature.tobytes() == want[0].tobytes()
        # thresholds match bit for bit, leaf values within rounding
        inner = feature != trees._LEAF
        assert value[inner].tobytes() == want[4][inner].tobytes()
        np.testing.assert_allclose(value, want[4], rtol=1e-12, atol=0)


def _split_gap(X, y, params, arrays):
    """How far, relative to it, the best split score of each node the
    sorted-scan reference tree ``arrays`` splits lies below its second
    best, over every feature's usable boundaries: the smallest such gap."""
    feature, threshold, left, right, _ = arrays
    gap = math.inf
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if feature[node] == trees._LEAF:
            continue
        scores = []
        n = rows.size
        for j in range(X.shape[1]):
            order = np.argsort(X[rows, j], kind="stable")
            xs, ys = X[rows[order], j], y[rows[order]]
            n_left = np.arange(1, n)
            csum, csq = np.cumsum(ys), np.cumsum(ys * ys)
            score = (csq[:-1] - csum[:-1] ** 2 / n_left) + (
                (csq[-1] - csq[:-1]) - (csum[-1] - csum[:-1]) ** 2 / (n - n_left))
            usable = ((xs[:-1] < xs[1:]) & (n_left >= params.min_samples_leaf)
                      & (n - n_left >= params.min_samples_leaf))
            scores.extend(score[usable])
        if len(scores) > 1:
            best, second = np.partition(scores, 1)[:2]
            gap = min(gap, (second - best) / abs(best) if best else 0.0)
        goes_left = X[rows, feature[node]] <= threshold[node]
        stack += [(left[node], rows[goes_left]), (right[node], rows[~goes_left])]
    return gap


def test_histogram_splits_match_the_sorted_scan_away_from_near_ties():
    # 50 distinct values per feature: the upper levels are wide and scored
    # from histograms, with sibling subtraction, the lower ones narrow.
    # Histograms add the targets in another order than a sorted scan, so
    # a near-tie may go the other way; away from near-ties the trees match.
    compared = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 50, size=(800, 3)) / 7.0
        y = np.sin(3 * X[:, 0]) + X[:, 1] * X[:, 2] / 20 + rng.normal(scale=0.2, size=800)
        params = TreeParams(max_depth=5, min_samples_leaf=4)
        arrays = cart_reference.level_order(
            cart_reference._grow(X, y, np.arange(X.shape[0]), params, None, 3))
        if _split_gap(X, y, params, arrays) <= 1e-9:
            continue
        compared += 1
        want = cart_reference.one_value(arrays)
        feature, value = cart_reference.members(fit_tree(X, y, params))[0][::4]
        assert feature.tobytes() == want[0].tobytes()
        assert value.tobytes() == want[4].tobytes()
    assert compared >= 6, compared


def _leaf_of(arrays, X):
    """The node each row of ``X`` ends at, ``x <= threshold`` to the left."""
    feature, threshold, left, right, _ = arrays
    node = np.zeros(X.shape[0], dtype=np.int64)
    pending = np.flatnonzero(feature[node] != trees._LEAF)
    while pending.size:
        cur = node[pending]
        go_left = X[pending, feature[cur]] <= threshold[cur]
        node[pending] = np.where(go_left, left[cur], right[cur])
        pending = pending[feature[node[pending]] != trees._LEAF]
    return node


@pytest.mark.parametrize("min_samples_leaf, min_samples_split", [(1, 2), (3, 2), (4, 11)])
def test_forest_leaves_hold_the_minimum_of_bootstrap_draws(min_samples_leaf,
                                                           min_samples_split):
    X, y = _oracle_rows(20, seed=29, sigma=0.005)
    n = X.shape[0]
    params = TreeParams(min_samples_leaf=min_samples_leaf,
                        min_samples_split=min_samples_split)
    forest = fit_forest(X, y, n_trees=4, seed=9, params=params)
    for k, arrays in enumerate(cart_reference.members(forest)):
        _, counts = cart_reference.bootstrap(9, k, n)
        drawn = np.bincount(_leaf_of(arrays, X), weights=counts, minlength=arrays[0].size)
        leaves = arrays[0] == trees._LEAF
        assert drawn[leaves].min() >= min_samples_leaf
        # every node holds its children's draws, and a split node at least
        # min_samples_split of them
        inner = np.flatnonzero(~leaves)
        for node in inner[::-1]:
            drawn[node] = drawn[arrays[2][node]] + drawn[arrays[3][node]]
        assert drawn[0] == n
        assert (drawn[inner] >= min_samples_split).all()


def _seed_drawing(n, pattern):
    """The first forest seed whose tree 0 draws its distinct rows
    ``pattern`` times (most drawn first), and the tree's counts."""
    for seed in range(1000):
        counts = cart_reference.bootstrap(seed, 0, n)[1]
        if sorted(counts[counts > 0], reverse=True) == list(pattern):
            return seed, counts
    raise AssertionError(f"no seed below 1000 draws {pattern}")


def test_two_rows_split_only_when_both_children_hold_the_leaf_minimum():
    # four rows, of which each tree draws two: with min_samples_leaf=2, rows
    # drawn 3 and 1 times cannot split, and rows drawn 2 and 2 times can
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 1.0, 4.0, 9.0])
    params = TreeParams(min_samples_leaf=2)
    seed, counts = _seed_drawing(4, (3, 1))
    lone = fit_forest(X, y, n_trees=1, seed=seed, params=params)
    assert lone.n_nodes == 1
    assert lone.value[0] == np.add.reduce(counts * y) / 4
    seed, counts = _seed_drawing(4, (2, 2))
    split = fit_forest(X, y, n_trees=1, seed=seed, params=params)
    assert split.n_nodes == 3
    low, high = np.flatnonzero(counts)
    assert split.value[0] == 0.5 * (X[low, 0] + X[high, 0])
    assert split.value[1:].tolist() == [y[low], y[high]]


def test_thresholds_around_a_bin_of_both_zeros_match_the_sorted_scan():
    # -0.0 and 0.0 share a bin, whose distinct value is one of them; the
    # midpoints next to it read either sign the same: 0.5 * (0 + 5e-324)
    # rounds to +0.0, and -5e-324 next to the zeros falls back to itself
    zeros = np.array([-0.0, 0.0, 0.0, -0.0, 0.0])
    x = np.concatenate([np.full(6, -5e-324), zeros, zeros[::-1], np.full(6, 5e-324)])
    X = np.column_stack([x, x[::-1]])
    y = np.concatenate([np.zeros(6), np.full(10, 1.0), np.full(6, 3.0)])
    params = TreeParams(max_depth=2)
    # 22 rows on two features of four bins each: both split nodes are wide,
    # and the left child, the larger, takes the root's histograms minus
    # its sibling's
    tree = fit_tree(X, y, params)
    assert tree.n_nodes == 5
    want = _reference_arrays(X, y, np.arange(x.size), params)
    _assert_same_nodes(cart_reference.members(tree)[0], want)
    _assert_same_nodes(cart_reference.members(tree)[0], _routed_arrays(X, y, params))
    inner = tree.feature != trees._LEAF
    assert [np.float64(v).tobytes() for v in tree.value[inner]] == [
        np.float64(0.0).tobytes(), np.float64(-5e-324).tobytes()]


# wide nodes: their rows on their candidates outnumber the candidates' bins,
# and they are scored from histograms; with every feature a candidate, the
# larger of two children takes its parent's histograms minus its sibling's


@pytest.fixture(scope="module")
def wide_rows():
    # 2,280 rows of 9 features: the root and its larger children are wide
    X, y = _oracle_rows(120, seed=31, sigma=0.005)
    assert X.shape[0] >= 2000
    return X, y


def _spy_wide_nodes(monkeypatch, record):
    """Call ``record(sizes, n_cand, subtracts)`` for every level's wide
    nodes: their row counts, their candidate count, and whether the level
    takes a parent's histograms."""
    wide_histograms = trees._wide_histograms

    def spy(ranks, bins, y_sq, counts, rows, starts, sizes, nodes, cand, carry=None,
            layout=None):
        record(sizes[nodes], cand.shape[1], carry is not None)
        return wide_histograms(ranks, bins, y_sq, counts, rows, starts, sizes, nodes, cand,
                               carry, layout)

    monkeypatch.setattr(trees, "_wide_histograms", spy)


@pytest.fixture
def wide_levels(monkeypatch):
    """Every level's wide nodes, as ``(sizes, subtracts)``."""
    levels = []
    _spy_wide_nodes(monkeypatch, lambda sizes, _, sub: levels.append((sizes.tolist(), sub)))
    return levels


def _assert_wide_below_the_root(levels, n):
    assert any(size < n for sizes, _ in levels for size in sizes)
    assert any(sub for _, sub in levels)


@pytest.mark.parametrize("max_depth", [3, None])
@pytest.mark.parametrize("min_samples_leaf", [1, 5])
def test_gbm_on_wide_nodes_matches_the_fit_tree_stage_loop(
    wide_rows, wide_levels, max_depth, min_samples_leaf
):
    X, y = wide_rows
    n_trees = 3 if max_depth else 2
    _check_gbm_against_stage_loop(X, y, n_trees, max_depth, 0.05, min_samples_leaf)
    # every stage's root is wide, and scored from its own histograms
    roots = [sizes for sizes, sub in wide_levels if sizes == [X.shape[0]]]
    assert len(roots) == n_trees
    _assert_wide_below_the_root(wide_levels, X.shape[0])


@pytest.mark.parametrize("min_samples_leaf", [1, 5])
def test_trees_on_wide_nodes_match_the_per_node_grower(
    wide_rows, wide_levels, min_samples_leaf
):
    X, y = wide_rows
    n = X.shape[0]
    params = TreeParams(min_samples_leaf=min_samples_leaf)
    _assert_same_nodes(cart_reference.members(fit_tree(X, y, params))[0],
                       _routed_arrays(X, y, params))
    _assert_wide_below_the_root(wide_levels, n)
    forest = fit_forest(X, y, n_trees=1, seed=4, params=params, max_features=X.shape[1])
    _assert_same_nodes(cart_reference.members(forest)[0],
                       _forest_reference(X, y, 4, 0, params))


def test_narrow_nodes_below_an_all_wide_level_sort_their_own_rows(wide_rows, monkeypatch):
    # A level whose nodes are all wide keeps no sorted rows, so a narrow
    # child of a wide node sorts its rows itself and reads no rows left
    # from an earlier level
    X, y = wide_rows
    levels = []
    _spy_wide_nodes(monkeypatch, lambda sizes, *_: levels.append(("wide", len(sizes))))
    sort_rows = trees._sort_rows

    def spy(ranks, bins, rows, sizes, out):
        levels.append(("sort", sizes.size))
        return sort_rows(ranks, bins, rows, sizes, out)

    monkeypatch.setattr(trees, "_sort_rows", spy)
    narrow_splits = trees._narrow_splits
    monkeypatch.setattr(trees, "_narrow_splits", lambda *a: (levels.append(("narrow",)),
                                                            narrow_splits(*a))[1])
    params = TreeParams(max_depth=6, min_samples_leaf=3)
    tree = fit_tree(X, y, params)
    _assert_same_nodes(cart_reference.members(tree)[0], _routed_arrays(X, y, params))
    # the first levels search wide nodes only; the first narrow search
    # follows one of them, after a sort of its nodes' rows
    first = next(i for i, entry in enumerate(levels) if entry[0] != "wide")
    assert first >= 1 and levels[first][0] == "sort"
    assert ("narrow",) in levels[first:]
    boosted = fit_gbm(X, y, n_trees=4, max_depth=4, learning_rate=0.5)
    want = cart_reference.fit_gbm(X, y, 4, 0.5, TreeParams(max_depth=4))
    _assert_same_boosting(boosted, want)


@pytest.mark.parametrize("min_samples_leaf", [1, 5])
def test_bootstrap_forest_on_wide_nodes_of_feature_subsets_matches_the_one_tree_loop(
    monkeypatch, min_samples_leaf
):
    # 4,750 rows: a bootstrap root holds about 3,000 distinct rows, so the
    # upper levels of trees on three candidate features are wide
    X, y = _oracle_rows(250, seed=31, sigma=0.005)
    wide = []
    _spy_wide_nodes(monkeypatch, lambda sizes, n_cand, _: wide.append((sizes.size, n_cand)))
    params = TreeParams(max_depth=4, min_samples_leaf=min_samples_leaf)
    forest = fit_forest(X, y, n_trees=2, seed=3, params=params)
    assert len(wide) >= 2 and all(n_cand < X.shape[1] for _, n_cand in wide)
    assert any(size > 2 for size, _ in wide)
    want = cart_reference.fit_forest(X, y, 2, 3, params, True, forest.info["max_features"])
    for got, member in zip(_forest_members(forest), want):
        _assert_same_nodes(got, member)


@pytest.mark.parametrize("scale", [1e155, 1e152])
def test_wide_nodes_whose_target_squares_overflow_match_the_references(
    wide_rows, scale
):
    X, y = wide_rows
    d = X.shape[1]
    y = y * scale
    params = TreeParams(max_depth=3)
    with np.errstate(all="ignore"):
        tree = fit_tree(X, y, params)
        forest = fit_forest(X, y, n_trees=1, seed=4, params=params, max_features=d)
        if scale > 1e154:
            # every target squares to inf: every split scores NaN or inf
            assert np.isinf(y * y).all()
            assert tree.n_nodes == forest.n_nodes == 1
        else:
            # the squares sum finitely, but a large child's sum squares to
            # inf and its splits score -inf, which wins
            assert np.isfinite(np.sum(y * y)) and np.isinf(np.sum(y) ** 2)
            assert tree.n_nodes > 1
    _assert_same_nodes(cart_reference.members(tree)[0], _routed_arrays(X, y, params))
    _assert_same_nodes(cart_reference.members(forest)[0],
                       _forest_reference(X, y, 4, 0, params))
    _check_gbm_against_stage_loop(X, y, 3, 3, 0.5, 1)


# the split search's kernels against the formulas they replaced

# Targets with signed zeros, both infinities, NaN, values whose squares
# overflow and subnormals, whose squares underflow to zero
_Y_POOL = (-0.0, 0.0, 1.0, -2.5, 3.0, 1e155, -1e155, math.inf, -math.inf,
           math.nan, 5e-324, -2.5e-310, 1e-160)


def _sorted_block(order, ranks, starts, sizes, features):
    """The sorted rows of a block of (node, feature) pairs as the grower
    lays them out: row ``r`` lists node ``r``'s rows sorted by
    ``features[r]``, padded to the widest node by repeating its last, and
    the rows' ranks."""
    width = sizes.max()
    slot = np.minimum(starts[:, None] + np.arange(width), (starts + sizes - 1)[:, None])
    pos = order[features[:, None], slot]
    return pos, ranks[features[:, None], pos]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_scores_match_the_two_cumsum_formula(data):
    n = data.draw(st.integers(2, 30))
    d = data.draw(st.integers(1, 4))
    X = data.draw(arrays(np.float64, (n, d), elements=st.sampled_from(_X_POOL)))
    y = data.draw(arrays(np.float64, n, elements=st.sampled_from(_Y_POOL)))
    min_leaf = data.draw(st.integers(1, 3))
    subset = np.array(sorted(data.draw(
        st.sets(st.integers(0, d - 1), min_size=1, max_size=d))))
    # the rows cut into up to four nodes of unequal sizes
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=3)))
    sizes = np.diff([0, *cuts, n])
    _, ranks = trees._ranks(X)
    y_sq = trees._with_squares(y)
    _, whole = cart_reference.presort(X, np.arange(n), [n])
    _, apart = cart_reference.presort(X, np.arange(n), sizes)
    # every row as one node, on every feature, on a subset and on two copies
    # of one feature; then every node on the subset in one block, whose
    # smaller nodes' rows are padded
    blocks = [(whole, np.zeros(f.size, dtype=np.intp), np.full(f.size, n), f)
              for f in (np.arange(d), subset, np.repeat(subset[:1], 2))]
    blocks.append((apart, np.repeat(np.cumsum(sizes) - sizes, subset.size),
                   np.repeat(sizes, subset.size), np.tile(subset, sizes.size)))
    with np.errstate(all="ignore"):
        for order, starts, size, features in blocks:
            pos, xs = _sorted_block(order, ranks, starts, size, features)
            width = pos.shape[1]
            edge = np.zeros(pos.shape, dtype=bool)
            edge[:, :-1] = xs[:, :-1] < xs[:, 1:]
            running = np.tile(np.arange(1.0, width + 1), (pos.shape[0], 1))
            sums = np.cumsum(y_sq[pos], axis=1)
            # the float formula's score of every position of the block,
            # laid out as the block is, inf but at the boundaries whose
            # children both hold min_leaf
            row = np.repeat(np.arange(pos.shape[0]), width)
            n_left = running.ravel()
            bounds = collections.namedtuple("bounds", "left last n_left n_right")(
                np.arange(pos.size), row * width + size[row] - 1, n_left,
                size[row] - n_left)
            want = cart_reference.scores(y, pos, bounds).reshape(pos.shape)
            keep = edge & (running >= min_leaf) & (running <= size[:, None] - min_leaf)
            want[~keep] = math.inf
            # each position alone, then the row's first minimum
            for c in range(width):
                alone = edge & (np.arange(width) == c)
                got, _ = trees._row_splits(running, sums.copy(), alone, size - 1, min_leaf)
                assert got.tobytes() == want[:, c].tobytes()
            got, pick = trees._row_splits(running, sums.copy(), edge.copy(), size - 1,
                                          min_leaf)
            assert pick.tolist() == want.argmin(axis=1).tolist()
            assert got.tobytes() == want[np.arange(pos.shape[0]), pick].tobytes()


@pytest.mark.parametrize("weighted", [False, True])
def test_histograms_take_each_feature_bins(weighted):
    # features of 2, 5 and 40 distinct values: each (node, candidate) pair
    # holds its own feature's bins, laid end to end, and nothing more
    rng = np.random.default_rng(7)
    n = 200
    X = np.column_stack([rng.integers(0, k, n) for k in (2, 5, 40)]).astype(float)
    y = rng.normal(size=n)
    counts = rng.integers(1, 4, n).astype(float) if weighted else None
    values, ranks = trees._ranks(X)
    bins = np.array([v.size for v in values])
    assert bins.tolist() == [2, 5, 40]
    split = rng.permutation(n)
    node_rows = [np.sort(split[:70]), np.sort(split[70:])]
    rows = np.concatenate(node_rows)
    sizes = np.array([70, 130])
    y_sq = trees._with_squares(y, counts)
    for cand in (np.array([[0, 2], [1, 2]]), np.tile(np.arange(3), (2, 1))):
        count, sums = trees._wide_histograms(ranks, bins[cand], y_sq, counts, rows,
                                             np.array([0, 70]), sizes, np.arange(2), cand)
        assert count.size == sums.size == bins[cand].sum()
        ends = np.cumsum(bins[cand]).reshape(cand.shape)
        for k, c in np.ndindex(cand.shape):
            j = cand[k, c]
            want = cart_reference.histograms(
                ranks, bins, y, np.ones(n) if counts is None else counts, node_rows[k])[j]
            at = slice(ends[k, c] - bins[j], ends[k, c])
            assert np.array_equal(count[at], want[0])
            assert sums[at].real.tobytes() == want[1].tobytes()
            assert sums[at].imag.tobytes() == want[2].tobytes()


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("min_leaf", [1, 3])
def test_wide_splits_in_width_sorted_blocks_match_the_per_pair_reference(
    monkeypatch, weighted, min_leaf
):
    # three nodes of four candidates whose features hold 1, 2, 19 and 200
    # bins, in mixed order, with empty bins and tied sums; blocks of at most
    # 300 cells cut the level, each padded only to its own widest row
    rng = np.random.default_rng(11)
    pair_bins = np.array([[19, 1, 200, 2], [2, 200, 19, 1], [200, 19, 2, 1]])
    count, sums = [], []
    for width in pair_bins.ravel():
        filled = rng.integers(0, 4, width)
        count.append(filled.astype(float) if weighted else filled)
        s = rng.integers(-3, 4, width) * filled * 0.5
        sums.append(s + 1j * (s * s + filled))
    count, sums = np.concatenate(count), np.concatenate(sums)
    blocks = []
    row_splits = trees._row_splits

    def spy(running, *rest):
        blocks.append(running.shape)
        return row_splits(running, *rest)

    monkeypatch.setattr(trees, "_row_splits", spy)
    monkeypatch.setattr(trees, "_HIST_CELLS", 300)
    with np.errstate(all="ignore"):  # empty children divide by zero
        score, cut, above = trees._wide_splits(count, sums, pair_bins, min_leaf)
    # rows taken by width: 1-bin, 2-bin and 19-bin rows, then each 200 alone
    assert blocks == [(9, 19), (1, 200), (1, 200), (1, 200)]
    assert score.shape == cut.shape == above.shape == pair_bins.shape
    ends = np.cumsum(pair_bins).reshape(pair_bins.shape)
    found = 0
    for k, c in np.ndindex(pair_bins.shape):
        at = slice(ends[k, c] - pair_bins[k, c], ends[k, c])
        want, pos, upper = cart_reference.hist_split(
            count[at], sums[at].real, sums[at].imag, min_leaf)
        assert score[k, c].tobytes() == np.float64(want).tobytes(), (k, c)
        assert cut[k, c] == pos, (k, c)
        if want < math.inf:
            assert above[k, c] == upper, (k, c)
            found += 1
    assert found >= 6


# Feature values with -0.0 == 0.0 ties, repeats and subnormals
_TIE_POOL = (-0.0, 0.0, -1.5, 2.0, 2.0, 5e-324, -5e-324, 1e-300, 7.0)


def _distinct_rows(draws, n):
    """Each tree's distinct rows, ascending, laid end to end, and how many
    each tree holds."""
    rows = [np.flatnonzero(np.bincount(tree, minlength=n)) for tree in draws]
    return np.concatenate(rows), [r.size for r in rows]


def _assert_sorts_as_the_float_argsort(X, rows, sizes):
    """Each tree's run of ``rows`` as a node of ``_sort_rows``, sorted on
    its ranks, against the stable float argsort of each tree's values; the
    distinct values read back the rows' values."""
    values, ranks = trees._ranks(X)
    for column, distinct, rank in zip(X.T, values, ranks):
        assert np.array_equal(distinct[rank], column)
    got = np.empty((X.shape[1], rows.size), dtype=np.intp)
    trees._sort_rows(ranks.take(rows, axis=1), [v.size for v in values],
                     np.arange(rows.size), np.array(sizes), got)
    _, want = cart_reference.presort(X, rows, sizes)
    _assert_same_nodes([got], [want[:-1]])
    return ranks


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rank_presort_matches_the_float_argsort(data):
    n = data.draw(st.integers(1, 40))
    d = data.draw(st.integers(1, 4))
    roots = data.draw(st.integers(1, 3))
    X = data.draw(arrays(np.float64, (n, d), elements=st.sampled_from(_TIE_POOL)))
    if data.draw(st.booleans()):
        # bootstrap trees: each on the distinct rows it drew
        draws = data.draw(arrays(np.intp, (roots, n), elements=st.integers(0, n - 1)))
        rows, sizes = _distinct_rows(draws, n)
    else:
        rows, sizes = np.tile(np.arange(n), roots), [n] * roots
    ranks = _assert_sorts_as_the_float_argsort(X, rows, sizes)
    assert ranks.dtype.kind == "u"


def test_presort_of_a_feature_past_the_rank_limit_sorts_its_values():
    rng = np.random.default_rng(43)
    n = 70_000
    # 70,000 rows: distinct in the first column apart from zeros of both
    # signs, and three values, two of them -0.0 and 0.0, in the second
    wide = rng.permutation(n) - 2.0
    wide[rng.choice(n, 2, replace=False)] = (-0.0, 0.0)
    X = np.column_stack([wide, rng.choice((-0.0, 0.0, 1.0), n)])
    # a bootstrap tree and a tree on every row
    rows, sizes = _distinct_rows([rng.integers(0, n, size=n)], n)
    rows, sizes = np.concatenate([rows, np.arange(n)]), sizes + [n]
    ranks = _assert_sorts_as_the_float_argsort(X, rows, sizes)
    assert ranks.dtype == np.uint32


# forests


def test_forest_prediction_is_exact_tree_mean():
    rng = np.random.default_rng(23)
    X = rng.random((120, 5))
    y = rng.random(120)
    forest = fit_forest(X, y, n_trees=10, seed=2)
    probe = rng.random((30, 5))
    member = np.stack([cart_reference.tree_predict(t, probe)
                       for t in cart_reference.members(forest)])
    np.testing.assert_allclose(forest.predict(probe), member.mean(axis=0), atol=1e-12)


def test_forest_seeding_and_determinism():
    rng = np.random.default_rng(29)
    X = rng.random((60, 4))
    y = rng.random(60)
    a = fit_forest(X, y, n_trees=5, seed=7)
    b = fit_forest(X, y, n_trees=5, seed=7)
    c = fit_forest(X, y, n_trees=5, seed=8)
    probe = rng.random((25, 4))
    assert np.array_equal(a.predict(probe), b.predict(probe))
    assert not np.array_equal(a.predict(probe), c.predict(probe))
    # bootstrap resampling must differentiate the members
    first, second = cart_reference.members(a)[:2]
    assert not (
        first[0].size == second[0].size
        and np.array_equal(first[1], second[1])
    )


def test_forest_degenerates_to_single_tree():
    rng = np.random.default_rng(31)
    X = rng.random((70, 6))
    y = rng.random(70)
    lone = fit_forest(X, y, n_trees=1, seed=0, bootstrap=False, max_features=6)
    tree = fit_tree(X, y)
    probe = rng.random((40, 6))
    assert np.array_equal(lone.predict(probe), tree.predict(probe))


def test_forest_default_feature_subset_size():
    rng = np.random.default_rng(37)
    X = rng.random((30, 9))
    y = rng.random(30)
    forest = fit_forest(X, y, n_trees=2, seed=1)
    assert forest.info["max_features"] == 3
    assert fit_forest(X[:, :4], y, n_trees=2, seed=1).info["max_features"] == 2


def test_forest_training_r2_on_noiseless_labels():
    X, y = _oracle_rows(500, seed=13)
    forest = fit_forest(X, y, n_trees=10, seed=3)
    assert r_squared(y, forest.predict(X)) > 0.99


# forests grow their trees together, a bounded group at a time


def _forest_members(forest):
    return [(f, v) for f, _, _, _, v in cart_reference.members(forest)]


@settings(max_examples=200, deadline=None)
@given(_cart_problems(), st.integers(1, 9), st.integers(0, 2**32 - 1), st.data())
def test_forest_trees_grown_in_groups_match_the_one_tree_loop(problem, n_trees, seed, data):
    X, y, params = problem
    n, d = X.shape
    max_features = data.draw(st.integers(1, d))
    bootstrap = data.draw(st.booleans())
    # a budget of a few trees' rows and part of another's: groups of
    # per_group trees on every row, the last one short when per_group does
    # not divide, or of more bootstrap trees, which hold their distinct rows
    per_group = data.draw(st.integers(1, 4))
    budget = per_group * n + data.draw(st.integers(0, n - 1))
    with mock.patch.object(trees, "_GROUP_ROWS", budget), np.errstate(all="ignore"):
        forest = fit_forest(X, y, n_trees=n_trees, seed=seed, params=params,
                            bootstrap=bootstrap, max_features=max_features)
        want = cart_reference.fit_forest(X, y, n_trees, seed, params, bootstrap,
                                         max_features)
    assert len(want) == forest.n_trees == n_trees
    for got, member in zip(_forest_members(forest), want):
        _assert_same_nodes(got, member)


def _group_sizes(monkeypatch, entered=None):
    """A list that records the tree count of every group a forest grows;
    ``entered``, when given, records the traced bytes as each group
    starts."""
    groups = []
    grow_bagged = trees._grow_bagged

    def spy(values, ranks, y, group, *rest):
        groups.append(len(group))
        if entered is not None:
            entered.append(tracemalloc.get_traced_memory()[0])
        return grow_bagged(values, ranks, y, group, *rest)

    monkeypatch.setattr(trees, "_grow_bagged", spy)
    return groups


def test_forest_in_groups_of_three_matches_the_one_tree_loop_and_file(
    tmp_path, monkeypatch
):
    X, y = _oracle_rows(40, seed=19, sigma=0.005)
    n = X.shape[0]
    # 7 trees of 472-485 distinct rows of the 760 in groups of 3, 3 and 1
    monkeypatch.setattr(trees, "_GROUP_ROWS", 2 * n)
    groups = _group_sizes(monkeypatch)
    params = TreeParams(min_samples_leaf=2)
    forest = fit_forest(X, y, n_trees=7, seed=5, params=params)
    assert groups == [3, 3, 1]
    want = cart_reference.fit_forest(X, y, 7, 5, params, True, 3)
    for got, member in zip(_forest_members(forest), want):
        _assert_same_nodes(got, member)
    # the same file as a forest packed from the one-tree loop's members
    reference = trees._pack([(f, v, [f.size]) for f, v in want], X.shape[1],
                            dict(forest.info), average=True)
    save_model(tmp_path / "grouped.wnsm", forest)
    save_model(tmp_path / "reference.wnsm", reference)
    raw = (tmp_path / "grouped.wnsm").read_bytes()
    assert raw == (tmp_path / "reference.wnsm").read_bytes()
    back = load_model(tmp_path / "grouped.wnsm")
    _assert_trees_equal(forest, back)
    assert back.predict(X).tobytes() == forest.predict(X).tobytes()


def _peak_traced_bytes(fn):
    """Peak bytes traced while ``fn`` runs, and its result."""
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_forest_memory_grows_with_the_group_not_the_trees(monkeypatch):
    X, y = _oracle_rows(40, seed=37, sigma=0.005)
    n = X.shape[0]
    monkeypatch.setattr(trees, "_GROUP_ROWS", 2 * n)
    entered = []
    groups = _group_sizes(monkeypatch, entered)
    fit_forest(X, y, n_trees=3, seed=1)  # warm-up
    groups.clear()
    entered.clear()
    # A full collection empties the interpreter's free lists, so the traced
    # bytes at a group's entry move with the collector's phase.  Collect
    # once and let no collection run until both fits are read: the
    # three-tree fit then leaves objects on the lists that the eight-tree
    # fit reuses untraced, and the eight-tree fit reads a few kB less.
    gc.collect()
    gc.disable()
    try:
        one_peak, _ = _peak_traced_bytes(lambda: fit_forest(X, y, n_trees=3, seed=1))
        eight_peak, eight = _peak_traced_bytes(
            lambda: fit_forest(X, y, n_trees=8, seed=1))
    finally:
        gc.enable()
    assert groups == [3, 3, 3, 2]  # one full group, then the eight trees'
    # The fourth tree's draw overflows the first group, which grows before
    # the tree is drawn again, so the eight-tree fit enters its first group
    # holding at most what the three-tree fit holds there; the fourth
    # tree's rows and counts would take 16 bytes for each of its about 480
    # distinct rows.
    assert entered[1] <= entered[0] + 256, entered
    # While a group grows, the fit also holds the trees grown before it as
    # member arrays, 12 bytes a node, and nothing of the next tree.  The six
    # trees ahead of the last group hold more than the three ahead of the
    # second, and the last group grows two trees, so the six trees' nodes
    # bound every group's extra.  Growing all eight trees at once would add
    # five trees' rows, about 130 bytes a row, far past the bound.
    per_node = eight.feature.itemsize + eight.value.itemsize
    held = int(eight.offsets[6])
    slack = 1024
    assert eight_peak <= one_peak + held * per_node + slack, (
        one_peak, eight_peak, held)


def test_packing_holds_the_members_and_one_packed_kind():
    X, y = _oracle_rows(40, seed=37, sigma=0.005)
    forest = fit_forest(X, y, n_trees=20, seed=3)
    source = _forest_members(forest)

    def pack():
        # members made while traced, so dropping them lowers the count
        members = [(f.copy(), v.copy(), [f.size]) for f, v in source]
        return trees._pack(members, X.shape[1], dict(forest.info), average=True)

    pack()  # warm-up
    peak, packed = _peak_traced_bytes(pack)
    for got, want in zip(_forest_members(packed), source):
        _assert_same_nodes(got, want)
    assert packed.child.tobytes() == forest.child.tobytes()
    # The members are packed one kind at a time and dropped as they are
    # copied, so packing holds the members (12 bytes a node) and one packed
    # kind (8 at most), then the model: its arrays, the child links and two
    # masks of its nodes.
    model = sum(a.nbytes for a in (packed.feature, packed.value, packed.child))
    member = max(sum(a.nbytes for a in arrays) for arrays in source)
    assert peak <= model + member + 2 * packed.n_nodes + 16 * 1024, (
        peak, model, packed.n_nodes)


# gradient boosting


def test_gbm_single_full_stage_matches_cart_residuals():
    # duplicated x positions keep the leaves impure, so the residuals
    # compared here are nonzero and actually exercise the algebra
    X = np.repeat(np.arange(1.0, 7.0), 2).reshape(-1, 1)
    y = np.array([0.0, 0.2, 1.0, 1.2, 3.0, 3.2, 0.5, 0.7, 2.0, 2.2, 4.0, 4.2])
    boosted = fit_gbm(X, y, n_trees=1, max_depth=None, learning_rate=1.0)
    tree = fit_tree(X, y)
    r_boost = y - boosted.predict(X)
    r_tree = y - tree.predict(X)
    assert np.max(np.abs(r_tree)) == pytest.approx(0.1, abs=1e-12)
    np.testing.assert_allclose(r_boost, r_tree, atol=1e-12)


def test_gbm_training_loss_monotone():
    rng = np.random.default_rng(43)
    X = rng.random((150, 5))
    y = X @ rng.random(5) + 0.1 * rng.standard_normal(150)
    boosted = fit_gbm(X, y, n_trees=60)
    path = np.asarray(boosted.info["train_mse_path"])
    assert path.shape == (61,)
    assert path[0] == pytest.approx(np.var(y), rel=1e-12)
    assert np.all(np.diff(path) <= 1e-15)
    assert path[-1] < path[0]


def test_gbm_step_data_converges():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    boosted = fit_gbm(X, y, n_trees=10, learning_rate=1.0)
    assert boosted.info["train_mse_path"][-1] < 1e-6
    np.testing.assert_allclose(boosted.predict(X), y, atol=1e-9)


def test_gbm_prediction_is_affine_in_members():
    rng = np.random.default_rng(47)
    X = rng.random((80, 3))
    y = rng.random(80)
    boosted = fit_gbm(X, y, n_trees=25)
    probe = rng.random((20, 3))
    manual = np.full(20, boosted.base)
    for tree in cart_reference.members(boosted):
        manual += boosted.rate * cart_reference.tree_predict(tree, probe)
    np.testing.assert_allclose(boosted.predict(probe), manual, atol=1e-12)


def test_gbm_guards():
    X = np.ones((4, 1))
    y = np.ones(4)
    with pytest.raises(ValueError):
        fit_gbm(X, y, learning_rate=0.0)
    with pytest.raises(ValueError):
        fit_gbm(X, y, learning_rate=1.5)
    with pytest.raises(ValueError):
        fit_gbm(X, y, n_trees=0)
    with pytest.raises(EmptyData):
        fit_gbm(np.empty((0, 1)), np.empty(0))


def _assert_same_boosting(model, want):
    base, path, stages = want
    assert np.float64(model.base).tobytes() == np.float64(base).tobytes()
    assert np.asarray(model.info["train_mse_path"]).tobytes() == np.asarray(path).tobytes()
    assert model.n_trees == len(stages)
    for tree, arrays in zip(cart_reference.members(model), stages):
        _assert_same_nodes(tree, cart_reference.one_value(cart_reference.level_order(arrays)))


def _check_gbm_against_stage_loop(X, y, n_trees, max_depth, rate, min_leaf):
    params = TreeParams(max_depth=max_depth, min_samples_leaf=min_leaf)
    with np.errstate(all="ignore"):
        want = cart_reference.fit_gbm(X, y, n_trees, rate, params)
        got = fit_gbm(X, y, n_trees=n_trees, max_depth=max_depth,
                      learning_rate=rate, min_samples_leaf=min_leaf)
    _assert_same_boosting(got, want)


@settings(max_examples=150, deadline=None)
@given(
    _cart_problems(),
    st.integers(1, 20),
    st.sampled_from((0.05, 0.5, 1.0)),
    st.sampled_from((None, 1, 2, 3, 5)),
)
def test_gbm_matches_the_fit_tree_stage_loop(problem, n_trees, rate, max_depth):
    X, y, params = problem
    _check_gbm_against_stage_loop(
        X, y, n_trees, max_depth, rate, params.min_samples_leaf
    )


def test_gbm_on_oracle_rows_matches_the_fit_tree_stage_loop():
    # every geometry repeats at each discharge, so geometry columns are tied
    X, y = _oracle_rows(30, seed=29, sigma=0.005)
    _check_gbm_against_stage_loop(X, y, 25, 3, 0.05, 1)


def test_gbm_targets_whose_mean_overflows_are_rejected():
    X = np.arange(4.0).reshape(-1, 1)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="targets must be finite"):
            fit_gbm(X, np.full(4, 1.7e308))


def test_gbm_targets_whose_squares_overflow_give_an_infinite_path():
    X = np.arange(4.0).reshape(-1, 1)
    y = np.array([1.7e308, -1.7e308, 1.7e308, -1.7e308])
    with np.errstate(over="ignore"):
        boosted = fit_gbm(X, y, n_trees=5, learning_rate=1.0)
    assert boosted.info["train_mse_path"] == (math.inf,) * 6
    _check_gbm_against_stage_loop(X, y, 5, 3, 1.0, 1)


# boosting several row sets in lockstep


def _assert_same_model(got, want):
    for name in ("feature", "value", "offsets"):
        _assert_same_nodes([getattr(got, name)], [getattr(want, name)])
    assert np.float64(got.base).tobytes() == np.float64(want.base).tobytes()
    got_path, want_path = (np.asarray(m.info["train_mse_path"]) for m in (got, want))
    assert got_path.tobytes() == want_path.tobytes()


def _boost_groups(monkeypatch):
    """A list that records the set sizes of every group boosted in lockstep."""
    groups = []
    boost = trees._boost

    def spy(values, ranks, y, sizes, *rest):
        groups.append([int(size) for size in sizes])
        return boost(values, ranks, y, sizes, *rest)

    monkeypatch.setattr(trees, "_boost", spy)
    return groups


@settings(max_examples=150, deadline=None)
@given(_cart_problems(), st.data())
def test_gbm_sets_match_fit_gbm_on_each_set(problem, data):
    X, y, params = problem
    n = X.shape[0]
    # sets of distinct rows in row order, which may share rows, and a
    # budget that cuts the groups anywhere from one set each to all at once
    row_sets = data.draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, unique=True).map(sorted),
        min_size=1, max_size=5))
    budget = data.draw(st.integers(1, 2 * n))
    n_trees = data.draw(st.integers(1, 8))
    rate = data.draw(st.sampled_from((0.05, 0.5, 1.0)))
    kwargs = dict(n_trees=n_trees, max_depth=data.draw(st.sampled_from((None, 1, 2, 3))),
                  learning_rate=rate, min_samples_leaf=params.min_samples_leaf)
    want = []
    with mock.patch.object(trees, "_BOOST_ROWS", budget), np.errstate(all="ignore"):
        for rows in row_sets:
            try:
                want.append(fit_gbm(X[rows], y[rows], **kwargs))
            except ValueError:  # residuals that overflow
                want.append(None)
        got = []
        try:
            for model in trees.fit_gbm_sets(X, y, row_sets, **kwargs):
                got.append(model)
        except ValueError:
            # a group fails as a whole when one of its sets fails alone
            assert None in want[len(got):]
        else:
            assert len(got) == len(want)
    for model, reference in zip(got, want):
        _assert_same_model(model, reference)


def _routing(monkeypatch):
    """A list with one Counter per grown stage, of ("wide" or "narrow", rows)
    for every node scored, level by level."""
    stages = []
    grow, wide, narrow = trees._grow, trees._wide_histograms, trees._narrow_splits

    def grow_spy(*args, **kwargs):
        stages.append(collections.Counter())
        return grow(*args, **kwargs)

    def wide_spy(ranks, bins, y_sq, counts, rows, starts, sizes, nodes, *rest):
        stages[-1].update(("wide", int(size)) for size in sizes[nodes])
        return wide(ranks, bins, y_sq, counts, rows, starts, sizes, nodes, *rest)

    def narrow_spy(ranks, y_sq, counts, order, begin, sizes, *rest):
        stages[-1].update(("narrow", int(size)) for size in sizes)
        return narrow(ranks, y_sq, counts, order, begin, sizes, *rest)

    monkeypatch.setattr(trees, "_grow", grow_spy)
    monkeypatch.setattr(trees, "_wide_histograms", wide_spy)
    monkeypatch.setattr(trees, "_narrow_splits", narrow_spy)
    return stages


def test_gbm_sets_on_oracle_rows_score_every_node_as_alone(monkeypatch):
    X, y = _oracle_rows(60, seed=41, sigma=0.005)
    geometry = np.repeat(np.arange(60), 19)
    row_sets = [
        np.flatnonzero(geometry < 2),  # 38 rows of two geometries
        np.arange(0, X.shape[0], 3),  # 380 rows, 13 of them in the first set
        np.flatnonzero(geometry >= 30),  # 570 rows, more than the budget
        np.flatnonzero(geometry == 5),  # 19 rows, a group of one set
    ]
    stages = _routing(monkeypatch)
    alone = []
    for rows in row_sets:
        stages.clear()
        alone.append((fit_gbm(X[rows], y[rows], n_trees=6), list(stages)))
    # The first set's 38 rows on 9 features outnumber its own distinct
    # values but not those of its group's rows together, so the root of
    # its first tree is wide alone, and a group ranked over the union of
    # its sets' rows would route it narrow.  Each root reads its own set's.
    d = X.shape[1]
    own = sum(v.size for v in trees._ranks(X[row_sets[0]])[0])
    union = sum(v.size for v in trees._ranks(X[np.concatenate(row_sets[:2])])[0])
    assert own < 38 * d <= union
    assert alone[0][1][0][("wide", 38)] == 1

    stages.clear()
    groups = _boost_groups(monkeypatch)
    monkeypatch.setattr(trees, "_BOOST_ROWS", 500)
    got = list(trees.fit_gbm_sets(X, y, row_sets, n_trees=6))
    assert groups == [[38, 380], [570], [19]]
    for model, (want, _) in zip(got, alone):
        _assert_same_model(model, want)
    # each lockstep stage scores its sets' nodes as their own fits do
    want_stages = [sum((alone[k][1][s] for k in group), collections.Counter())
                   for group in ([0, 1], [2], [3]) for s in range(6)]
    assert stages == want_stages


def test_gbm_sets_histograms_hold_each_roots_own_bins(monkeypatch):
    # a lockstep group's histograms span, for each wide node, the bins of
    # its own set's features: the root level and, after every root splits,
    # the level below, built or subtracted from the parents
    X, y = _oracle_rows(40, seed=47, sigma=0.005)
    geometry = np.repeat(np.arange(40), 19)
    row_sets = [np.flatnonzero(geometry < 12), np.flatnonzero(geometry < 30)[::2],
                np.flatnonzero(geometry >= 25)]
    own = [sum(v.size for v in trees._ranks(X[rows])[0]) for rows in row_sets]
    union = sum(v.size for v in trees._ranks(X[np.concatenate(row_sets)])[0])
    assert len(set(own)) == 3 and max(own) < union
    levels = []
    wide_histograms = trees._wide_histograms

    def spy(ranks, pair_bins, y_sq, counts, rows, starts, sizes, nodes, cand, carry=None,
            layout=None):
        hists = wide_histograms(ranks, pair_bins, y_sq, counts, rows, starts, sizes, nodes,
                                cand, carry, layout)
        levels.append((sizes.size, nodes.tolist(), hists[0].size, hists[1].size))
        return hists

    monkeypatch.setattr(trees, "_wide_histograms", spy)
    got = list(trees.fit_gbm_sets(X, y, row_sets, n_trees=4, max_depth=2))
    for model, rows in zip(got, row_sets):
        _assert_same_model(model, fit_gbm(X[rows], y[rows], n_trees=4, max_depth=2))
    roots = [level for level in levels if level[0] == 3]
    below = [level for level in levels if level[0] == 6]
    assert len(roots) == len(below) == 4
    for n_nodes, nodes, n_count, n_sums in roots + below:
        want = sum(own[node * 3 // n_nodes] for node in nodes)
        assert n_count == n_sums == want


def test_gbm_group_rebuilds_its_root_layout_once_a_root_drops_out(monkeypatch):
    # Two sets boosted in one group at rate 1 and depth 1: ordinary rows,
    # and eight rows whose targets, 0.0 and 4.0 on four rows each, feature
    # 0 splits.  The first stage fits those eight exactly, so their
    # residuals are 0 from the second stage on and their root drops out.
    # Both roots are wide.  The group builds its roots' layout for both,
    # then for the first alone, and reads that in every later stage.
    rng = np.random.default_rng(5)
    X = np.vstack([rng.integers(0, 5, (40, 2)),
                   np.column_stack([np.repeat([0, 1], 4), np.tile([2, 3], 4)])]).astype(float)
    y = np.concatenate([rng.normal(size=40), np.repeat([0.0, 4.0], 4)])
    row_sets = [np.arange(40), np.arange(40, 48)]
    kwargs = dict(n_trees=6, max_depth=1, learning_rate=1.0)
    alone = [fit_gbm(X[rows], y[rows], **kwargs) for rows in row_sets]
    builds, held = [], []
    wide_layout, held_roots = trees._wide_layout, trees._held_roots

    def layout_spy(ranks, pair_bins, counts, rows, starts, sizes, nodes, *rest, **kwargs):
        builds.append(nodes.tolist())
        return wide_layout(ranks, pair_bins, counts, rows, starts, sizes, nodes, *rest,
                           **kwargs)

    def held_spy(*args):
        held.append(held_roots(*args))
        return held[-1]

    monkeypatch.setattr(trees, "_wide_layout", layout_spy)
    monkeypatch.setattr(trees, "_held_roots", held_spy)
    got = list(trees.fit_gbm_sets(X, y, row_sets, **kwargs))
    assert builds == [[0, 1], [0]]
    assert len(held) == 6
    assert got[1].info["train_mse_path"][2:] == (0.0,) * 5
    for model, want, rows in zip(got, alone, row_sets):
        _assert_same_model(model, want)
        _assert_same_boosting(model, cart_reference.fit_gbm(
            X[rows], y[rows], 6, 1.0, TreeParams(max_depth=1)))
    # the held layout and split bounds are read-only, and the held keys
    # take the narrowest type that holds the roots' bins
    (key, pos, count, _), bounds = held[-1]
    assert held[2][0][0] is key and key.dtype == np.uint8
    for array in (key, pos, count, *(part for block in bounds for part in block[1:5])):
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = array.flat[0]


def test_gbm_sets_hand_over_one_model_at_a_time():
    X, y = _oracle_rows(20, seed=43, sigma=0.005)
    fits = trees.fit_gbm_sets(X, y, [np.arange(0, 380, 2), np.arange(1, 380, 2)],
                              n_trees=5)
    # the generator keeps no reference to a model it handed over
    first = weakref.ref(next(fits))
    assert first() is None
    assert next(fits).n_trees == 5
    with pytest.raises(StopIteration):
        next(fits)


def test_gbm_sets_guards():
    X, y = np.ones((4, 1)), np.arange(4.0)
    with pytest.raises(EmptyData):
        list(trees.fit_gbm_sets(X, y, [np.arange(2), np.arange(0)]))
    # a boolean mask, which fit_gbm(X[mask], ...) takes, and float indices
    # are refused before any set is ranked, naming the set's position
    with pytest.raises(ValueError, match="row set 1 must be a 1-D array of integer"):
        list(trees.fit_gbm_sets(X, y, [np.arange(2), np.array([True, False, True, True])]))
    with pytest.raises(ValueError, match="row set 0 must be a 1-D array of integer"):
        list(trees.fit_gbm_sets(X, y, [np.array([0.0, 1.0])]))
    with pytest.raises(ValueError, match="row set 0 must be a 1-D array of integer"):
        list(trees.fit_gbm_sets(X, y, [np.array([[0, 1]])]))
    with pytest.raises(ValueError):
        list(trees.fit_gbm_sets(X, y, [np.arange(2)], n_trees=0))
    with pytest.raises(ValueError):
        list(trees.fit_gbm_sets(X, np.full(4, np.inf), [np.arange(2)]))
    # a row index outside the rows is refused before any set is boosted,
    # naming the set's position: a negative one would wrap around, and one
    # past the end would fail only once its group is reached
    with pytest.raises(ValueError, match=r"row set 0 holds row indices outside \[0, 4\)"):
        list(trees.fit_gbm_sets(X, y, [np.array([-1, -2, 0])]))
    rows = np.arange(50.0)
    fits = trees.fit_gbm_sets(rows[:, None], rows, [np.arange(10), np.arange(10, 20),
                                                    np.array([3, 70])], n_trees=2)
    with mock.patch.object(trees, "_BOOST_ROWS", 20), pytest.raises(
            ValueError, match=r"row set 2 holds row indices outside \[0, 50\)"):
        next(fits)
    # no sets boost no group
    assert list(trees.fit_gbm_sets(X, y, [])) == []


def _model_bytes(model):
    return [getattr(model, name).tobytes() for name in ("feature", "value", "offsets")] + [
        np.float64(model.base).tobytes(),
        np.asarray(model.info.get("train_mse_path", ()), dtype=float).tobytes()]


@pytest.mark.parametrize("cells", [1, 10**9])
@pytest.mark.parametrize("group_rows", [1, 10**9])
def test_fits_at_any_block_and_group_budget_match_the_defaults(cells, group_rows):
    # One row a block or every row in one, and one member a group or every
    # member in one, give the bytes of the default budgets, under which the
    # tree's narrow levels span several blocks
    X, y = _oracle_rows(60, seed=53, sigma=0.005)
    row_sets = [np.arange(0, X.shape[0], 2), np.arange(300, 900), np.arange(X.shape[0])]

    def fits():
        with np.errstate(all="ignore"):
            return [fit_tree(X, y, TreeParams(min_samples_leaf=2)),
                    fit_forest(X, y, n_trees=4, seed=7, max_features=4),
                    fit_gbm(X, y, n_trees=8, max_depth=4),
                    *trees.fit_gbm_sets(X, y, row_sets, n_trees=6, max_depth=5)]

    calls, blocks = [0], []
    row_splits, narrow_splits = trees._row_splits, trees._narrow_splits

    def spy(running, *rest):
        calls[0] += 1
        return row_splits(running, *rest)

    def narrow_spy(*args):
        before = calls[0]
        out = narrow_splits(*args)
        blocks.append(calls[0] - before)
        return out

    with mock.patch.object(trees, "_row_splits", spy), \
            mock.patch.object(trees, "_narrow_splits", narrow_spy):
        fit_tree(X, y, TreeParams(min_samples_leaf=2))
    assert max(blocks) > 1
    want = fits()
    with mock.patch.object(trees, "_BLOCK", cells), \
            mock.patch.object(trees, "_HIST_CELLS", cells), \
            mock.patch.object(trees, "_GROUP_ROWS", group_rows), \
            mock.patch.object(trees, "_BOOST_ROWS", group_rows):
        got = fits()
    assert len(got) == len(want) == 6
    for model, reference in zip(got, want):
        assert _model_bytes(model) == _model_bytes(reference)


# one predict loop for every ensemble kind


@settings(max_examples=150, deadline=None)
@given(_cart_problems(), st.integers(1, 12), st.integers(0, 2**32 - 1), st.data())
def test_packed_predict_matches_the_per_model_loops(problem, n_trees, seed, data):
    X, y, params = problem
    # two rows at least: the reference forest mean sums a single row pairwise
    probe = data.draw(arrays(np.float64, st.tuples(st.integers(2, 12), st.just(X.shape[1])),
                             elements=st.sampled_from(_X_POOL)))
    probe = np.vstack([X, probe])
    with np.errstate(all="ignore"):
        tree = fit_tree(X, y, params)
        forest = fit_forest(X, y, n_trees=n_trees, seed=seed, params=params)
        boosted = fit_gbm(X, y, n_trees=n_trees, max_depth=params.max_depth,
                          learning_rate=0.5, min_samples_leaf=params.min_samples_leaf)
        want = (
            cart_reference.tree_predict(cart_reference.members(tree)[0], probe),
            cart_reference.forest_predict(cart_reference.members(forest), probe),
            cart_reference.gbm_predict(boosted.base, boosted.rate,
                                       cart_reference.members(boosted), probe),
        )
        got = (tree.predict(probe), forest.predict(probe), boosted.predict(probe))
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_one_row_predict_matches_the_batch_bit_for_bit():
    X, y = _oracle_rows(20, seed=5, sigma=0.005)
    probe, _ = _oracle_rows(6, seed=6, sigma=0.005)
    models = (fit_tree(X, y), fit_forest(X, y, n_trees=12, seed=1),
              fit_gbm(X, y, n_trees=40))
    for model in models:
        batch = model.predict(probe)
        one = np.concatenate([model.predict(row[None, :]) for row in probe])
        assert one.tobytes() == batch.tobytes()


def test_packed_ensemble_layout():
    rng = np.random.default_rng(79)
    X = rng.random((40, 3))
    y = rng.random(40)
    forest = fit_forest(X, y, n_trees=3, seed=2)
    assert forest.n_nodes == sum(m[0].size for m in cart_reference.members(forest))
    assert forest.offsets[0] == 0 and forest.offsets[-1] == forest.n_nodes
    assert not hasattr(forest, "trees")
    assert (forest.base, forest.rate, forest.average) == (0.0, 1.0, True)
    tree = fit_tree(X, y)
    assert (tree.n_trees, tree.rate, tree.average) == (1, 1.0, False)
    assert math.copysign(1.0, tree.base) == -1.0
    boosted = fit_gbm(X, y, n_trees=4, learning_rate=0.1)
    assert (boosted.base, boosted.rate, boosted.average) == (float(np.mean(y)), 0.1, False)


# timed prediction


def test_timed_predictions_match_untimed():
    rng = np.random.default_rng(59)
    X = rng.random((100, 4))
    y = rng.random(100)
    tree = fit_tree(X, y)
    probe = [X[i : i + 1] for i in range(10)]
    outputs, report = timed_single_predictions(tree.predict, probe, n_calls=50)
    assert len(outputs) == 50
    direct = [tree.predict(p)[0] for p in probe]
    for k, out in enumerate(outputs):
        assert out[0] == direct[k % 10]
    assert report.n_calls == 50
    assert report.min_s <= report.median_s <= report.max_s
    assert report.median_ms == report.median_s * 1e3
    with pytest.raises(EmptyData):
        timed_single_predictions(tree.predict, [], n_calls=5)


# serialization


def _assert_trees_equal(a, b):
    for name in ("feature", "value", "offsets", "child"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert (a.n_features, a.base, a.rate, a.average) == (
        b.n_features, b.base, b.rate, b.average)
    assert a.info == b.info


def test_tree_round_trip(tmp_path):
    rng = np.random.default_rng(61)
    X = rng.random((60, 4))
    y = rng.random(60)
    tree = fit_tree(X, y, TreeParams(max_depth=4, min_samples_leaf=2))
    path = tmp_path / "tree.wnsm"
    save_model(path, tree)
    back = load_model(path)
    _assert_trees_equal(tree, back)
    probe = rng.random((30, 4))
    assert np.array_equal(tree.predict(probe), back.predict(probe))


def test_forest_round_trip(tmp_path):
    rng = np.random.default_rng(67)
    X = rng.random((50, 5))
    y = rng.random(50)
    forest = fit_forest(X, y, n_trees=4, seed=11)
    path = tmp_path / "forest.wnsm"
    save_model(path, forest)
    back = load_model(path)
    assert back.info["seed"] == 11
    assert back.info["bootstrap"] is True
    assert back.n_trees == 4
    _assert_trees_equal(forest, back)
    probe = rng.random((20, 5))
    assert np.array_equal(forest.predict(probe), back.predict(probe))


def test_gbm_round_trip(tmp_path):
    rng = np.random.default_rng(71)
    X = rng.random((40, 3))
    y = rng.random(40)
    boosted = fit_gbm(X, y, n_trees=8)
    path = tmp_path / "gbm.wnsm"
    save_model(path, boosted)
    back = load_model(path)
    assert isinstance(back, TreeEnsemble)
    _assert_trees_equal(boosted, back)
    probe = rng.random((15, 3))
    assert np.array_equal(boosted.predict(probe), back.predict(probe))


# sha256 of the .wnsm bytes of three fixed-seed fits.  The differential
# tests compare the fitter with references kept in this repo; these digests
# catch both changing together.
_PINNED_FITS = {
    "tree": "85642f007005a6fa6c4890105fec16d3c52bd1ebe7e62d1ec1afd7baadcaa848",
    "forest": "32dfc521a885efaa896062a9bb689e22e8551a03a0782d212300dcd4ab6d31ef",
    "gbm": "8e9b3cfb9c5fb3585ed7956d89876dc8947f4da42ff8cda3989d681efb5134e3",
}


def test_fits_on_oracle_rows_write_the_pinned_bytes(tmp_path):
    X, y = _oracle_rows(40, seed=41, sigma=0.005)
    fits = {
        "tree": fit_tree(X, y, TreeParams(min_samples_leaf=2)),
        "forest": fit_forest(X, y, n_trees=10, seed=7),
        "gbm": fit_gbm(X, y, n_trees=50),
    }
    for name, model in fits.items():
        path = tmp_path / f"{name}.wnsm"
        save_model(path, model)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == _PINNED_FITS[name], name


@pytest.fixture(scope="module")
def forest_n200():
    """A 100-tree forest on the n=200 oracle rows, 272,898 nodes."""
    X, y = _oracle_rows(200, seed=11, sigma=0.005)
    return fit_forest(X, y, n_trees=100, seed=3)


def test_save_model_writes_each_array_without_copying_it(tmp_path, forest_n200):
    forest = forest_n200
    kind, header, blobs = serialize._describe(forest)
    largest = max(blob.nbytes for blob in blobs)
    path = tmp_path / "forest.wnsm"
    save_model(path, forest)  # warm-up
    peak, _ = _peak_traced_bytes(lambda: save_model(path, forest))
    # a copy of an array for the write would hold at least its bytes
    assert peak < largest, (peak, largest)
    # the bytes are the prefix, the header and each array's bytes in turn
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    prefix = serialize._PREFIX.pack(serialize._MAGIC, serialize._VERSIONS[kind], kind,
                                    len(header_bytes))
    want = prefix + header_bytes + b"".join(blob.tobytes() for blob in blobs)
    assert path.read_bytes() == want


def test_load_model_reads_each_array_without_copying_it(tmp_path, forest_n200):
    path = tmp_path / "forest.wnsm"
    save_model(path, forest_n200)
    load_model(path)  # warm-up
    peak, back = _peak_traced_bytes(lambda: load_model(path))
    held = sum(getattr(back, name).nbytes for name in ("feature", "value", "child", "offsets"))
    # the payload is 12 of every 20 bytes held, so a second copy of it, as
    # from reading the whole file before the arrays, would take 1.6x
    assert peak <= 1.15 * held, (peak, held, peak / held)
    _assert_trees_equal(forest_n200, back)


def test_load_model_reads_a_network_without_copying_it(tmp_path):
    network = PointNetMini(_init_params(np.random.default_rng(5)))
    path = tmp_path / "network.wnsm"
    save_model(path, network)
    load_model(path)  # warm-up
    peak, back = _peak_traced_bytes(lambda: load_model(path))
    held = sum(v.nbytes for v in back.params.values())
    # the model keeps the arrays read from the file; a copy of each would
    # take 2x
    assert peak <= 1.15 * held, (peak, held, peak / held)
    assert back.params.keys() == network.params.keys()
    for key, value in network.params.items():
        assert back.params[key].tobytes() == value.tobytes(), key


def test_model_file_garbage_rejected(tmp_path):
    rng = np.random.default_rng(73)
    tree = fit_tree(rng.random((20, 2)), rng.random(20))
    path = tmp_path / "m.wnsm"
    save_model(path, tree)
    raw = path.read_bytes()

    def reject(payload):
        bad = tmp_path / "bad.wnsm"
        bad.write_bytes(payload)
        with pytest.raises(MalformedModel):
            load_model(bad)

    reject(raw[:5])
    reject(raw[: len(raw) // 2])
    reject(b"XXXX" + raw[4:])
    reject(raw[:4] + (99).to_bytes(2, "little") + raw[6:])
    reject(raw[:6] + (42).to_bytes(1, "little") + raw[7:])
    reject(raw + b"\x00" * 8)


def _write(tmp_path, payload):
    path = tmp_path / "bad.wnsm"
    path.write_bytes(payload)
    return path


def _parts(raw):
    """A saved model's magic, version and kind, its JSON header and its
    payload."""
    magic, version, kind, header_len = serialize._PREFIX.unpack_from(raw)
    start = serialize._PREFIX.size
    return ((magic, version, kind), json.loads(raw[start : start + header_len]),
            raw[start + header_len :])


def _join(fields, header, payload):
    """The file of :func:`_parts`' pieces, any of them edited."""
    text = json.dumps(header, sort_keys=True).encode()
    return serialize._PREFIX.pack(*fields, len(text)) + text + payload


def _rewrite(raw, edit_header=None, field=None, index=0, value=0):
    """A saved tree model with its JSON header or one payload entry changed."""
    fields, header, payload = _parts(raw)
    payload = bytearray(payload)
    n_nodes = len(payload) // sum(np.dtype(t).itemsize for _, t in serialize._TREE_FIELDS)
    at = 0
    for name, dtype in serialize._TREE_FIELDS:
        column = np.frombuffer(payload, dtype=dtype, count=n_nodes, offset=at)
        if name == field:
            column[index] = value
        at += column.nbytes
    if edit_header is not None:
        edit_header(header)
    return _join(fields, header, bytes(payload))


def test_model_file_with_bad_tree_links_rejected(tmp_path):
    # predict would read past a row or past a member on each of these, so
    # each must fail at load time
    rng = np.random.default_rng(83)
    tree = fit_tree(rng.random((30, 1)), rng.random(30))
    assert tree.feature[0] == 0 and tree.n_nodes > 3
    path = tmp_path / "m.wnsm"
    save_model(path, tree)
    raw = path.read_bytes()
    n = tree.n_nodes

    def offsets(values):
        return lambda header: header.update(offsets=values)

    cases = [
        dict(field="feature", index=0, value=7),
        dict(field="feature", index=0, value=-2),
        # a leaf turned internal: one split too many for the node count
        dict(field="feature", index=-1, value=0),
        dict(edit_header=offsets([0, n + 1])),
        dict(edit_header=offsets([0, n - 1])),
        dict(edit_header=offsets([1, n])),
        dict(edit_header=offsets([0, 1, n])),
        dict(edit_header=offsets([0])),
        dict(edit_header=offsets("x")),
        # a negative node count, or offsets that are not a list
        dict(edit_header=offsets([0, -12])),
        dict(edit_header=offsets({"0": 0})),
        dict(edit_header=offsets(7)),
    ]
    assert load_model(path).n_nodes == n
    assert load_model(_write(tmp_path, _rewrite(raw))).n_nodes == n
    for case in cases:
        bad = _write(tmp_path, _rewrite(raw, **case))
        with pytest.raises(MalformedModel):
            load_model(bad)


def _saved(tmp_path, kind):
    """The bytes of a small saved forest or network, and its arrays in file
    order."""
    rng = np.random.default_rng(97)
    if kind == "tree":
        model = fit_forest(rng.random((30, 3)), rng.random(30), n_trees=2, seed=1)
    else:
        model = PointNetMini(_init_params(rng))
    path = tmp_path / f"{kind}.wnsm"
    save_model(path, model)
    return path.read_bytes(), serialize._describe(model)[2]


@pytest.mark.parametrize("kind", ["tree", "network"])
def test_model_file_cut_in_any_part_or_extended_is_rejected(tmp_path, kind):
    raw, blobs = _saved(tmp_path, kind)
    start = serialize._PREFIX.size
    at = len(raw) - sum(blob.nbytes for blob in blobs)
    # halfway into the prefix, the header and each array, and one byte short
    cuts = [start // 2, (start + at) // 2]
    for blob in blobs:
        cuts.append(at + blob.nbytes // 2)
        at += blob.nbytes
    cuts.append(len(raw) - 1)
    assert len(set(cuts)) == len(blobs) + 3
    for bad in [raw[:cut] for cut in cuts] + [raw + b"\0"]:
        with pytest.raises(MalformedModel):
            load_model(_write(tmp_path, bad))


def test_malformed_network_headers_are_rejected(tmp_path):
    fields, header, payload = _parts(_saved(tmp_path, "network")[0])
    assert header["weights"][2] == ["W1", [64, 64]]
    # W1's bytes, so a file that declares W1 empty can hold just the rest
    w1_at = 8 * sum(math.prod(shape) for _, shape in header["weights"][:2])
    without_w1 = payload[:w1_at] + payload[w1_at + 8 * 64 * 64 :]

    def w1_shape(shape):
        edited = json.loads(json.dumps(header))
        edited["weights"][2][1] = shape
        return edited

    cases = [
        ([1, 2], payload),
        ({**header, "weights": [1, 2]}, payload),
        (w1_shape("ab"), payload),
        # a negative count must not read the payload from its end
        (w1_shape([-1, 64]), payload),
        # a zero-size array reads nothing, and the network refuses its shape
        (w1_shape([0, 64]), without_w1),
        # W1 declared twice, with its bytes twice: every key is there, and
        # one of the two W1 arrays would be dropped
        ({**header, "weights": header["weights"] + [["W1", [64, 64]]]},
         payload + payload[w1_at : w1_at + 8 * 64 * 64]),
    ]
    for edited, body in cases:
        with pytest.raises(MalformedModel):
            load_model(_write(tmp_path, _join(fields, edited, body)))


@pytest.mark.parametrize("kind", ["tree", "network"])
def test_model_file_declaring_more_than_it_holds_allocates_nothing(tmp_path, kind):
    fields, header, payload = _parts(_saved(tmp_path, kind)[0])
    # 10**8 nodes or W1 of 10**8 entries: 400 MB or more for one array
    if kind == "tree":
        header["offsets"][-1] = 10**8
    else:
        header["weights"][2][1] = [10**4, 10**4]
    path = _write(tmp_path, _join(fields, header, payload))

    def load():
        with pytest.raises(MalformedModel, match="the header declares"):
            load_model(path)

    peak, _ = _peak_traced_bytes(load)
    assert peak < 10**8, peak


@pytest.mark.parametrize("version", [1, 2, 3])
def test_older_model_file_versions_ask_for_a_refit(tmp_path, version):
    # version 1 had a kind per tree model, 2 stored the links this layout
    # derives and 3 stored internal nodes' means next to their thresholds
    rng = np.random.default_rng(89)
    path = tmp_path / "m.wnsm"
    save_model(path, fit_tree(rng.random((10, 2)), rng.random(10)))
    raw = path.read_bytes()
    old = _write(tmp_path, raw[:4] + version.to_bytes(2, "little") + raw[6:])
    with pytest.raises(MalformedModel, match=rf"version {version}.*train --force"):
        load_model(old)


def test_save_model_rejects_unknown_objects(tmp_path):
    with pytest.raises(TypeError):
        save_model(tmp_path / "x.wnsm", object())
