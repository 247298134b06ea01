"""Tests for metrics, trees, forests, boosting, and model files."""

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
    BoostedModel,
    MetricReport,
    TreeParams,
    compute_metrics,
    fit_forest,
    fit_gbm,
    fit_tree,
    load_model,
    permutation_importance,
    r_squared,
    save_model,
    timed_single_predictions,
)

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


def test_step_data_tree():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    tree = fit_tree(X, y)
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 2.5
    assert tree.n_leaves == 2
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
    assert tree2.threshold[0] == 1.5


def test_tree_determinism():
    rng = np.random.default_rng(17)
    X = rng.random((80, 4))
    y = rng.random(80)
    a = fit_tree(X, y)
    b = fit_tree(X, y)
    assert np.array_equal(a.feature, b.feature)
    assert np.array_equal(a.threshold, b.threshold)
    assert np.array_equal(a.value, b.value)


def test_tree_stopping_rules():
    rng = np.random.default_rng(3)
    X = rng.random((40, 3))
    y = rng.random(40)
    stump = fit_tree(X, y, TreeParams(max_depth=1))
    assert stump.depth == 1
    assert stump.n_nodes == 3
    deep = fit_tree(X, y)
    assert deep.depth > 1
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
    assert tree.n_leaves == x.size
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
    with np.errstate(all="ignore"):
        return cart_reference._grow(X, y, rows, params, rng, X.shape[1])


def _assert_same_nodes(tree, want):
    got = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@settings(max_examples=400, deadline=None)
@given(_cart_problems())
def test_fit_tree_matches_the_per_node_grower(problem):
    X, y, params = problem
    want = _reference_arrays(X, y, np.arange(X.shape[0]), params)
    _assert_same_nodes(fit_tree(X, y, params), want)


def _bootstrap(seed, k, n):
    """The generator and rows ``fit_forest`` draws for its tree ``k``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
    return rng, rng.integers(0, n, size=n)


@settings(max_examples=200, deadline=None)
@given(_cart_problems(), st.integers(0, 2**32 - 1))
def test_forest_trees_on_every_feature_match_the_per_node_grower(problem, seed):
    X, y, params = problem
    n, d = X.shape
    forest = fit_forest(X, y, n_trees=2, seed=seed, params=params, max_features=d)
    for k, tree in enumerate(forest.trees):
        # with every feature a candidate, no subset is drawn
        rng, rows = _bootstrap(seed, k, n)
        _assert_same_nodes(tree, _reference_arrays(X, y, rows, params, rng))


@pytest.mark.parametrize("max_depth", [3, 8, None])
@pytest.mark.parametrize("min_samples_leaf", [1, 5])
def test_deep_trees_on_oracle_rows_match_the_per_node_grower(max_depth, min_samples_leaf):
    # hundreds of rows: many levels and split searches over several blocks
    X, y = _oracle_rows(40, seed=23, sigma=0.005)
    n, d = X.shape
    params = TreeParams(max_depth=max_depth, min_samples_leaf=min_samples_leaf)
    want = _reference_arrays(X, y, np.arange(n), params)
    _assert_same_nodes(fit_tree(X, y, params), want)
    forest = fit_forest(X, y, n_trees=1, seed=4, params=params, max_features=d)
    rng, rows = _bootstrap(4, 0, n)
    _assert_same_nodes(forest.trees[0], _reference_arrays(X, y, rows, params, rng))


# forests


def test_forest_prediction_is_exact_tree_mean():
    rng = np.random.default_rng(23)
    X = rng.random((120, 5))
    y = rng.random(120)
    forest = fit_forest(X, y, n_trees=10, seed=2)
    probe = rng.random((30, 5))
    member = np.stack([t.predict(probe) for t in forest.trees])
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
    first, second = a.trees[0], a.trees[1]
    assert not (
        first.n_nodes == second.n_nodes
        and np.array_equal(first.threshold, second.threshold)
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
    assert forest.max_features == 3
    assert fit_forest(X[:, :4], y, n_trees=2, seed=1).max_features == 2


def test_forest_training_r2_on_noiseless_labels():
    X, y = _oracle_rows(500, seed=13)
    forest = fit_forest(X, y, n_trees=10, seed=3)
    assert r_squared(y, forest.predict(X)) > 0.99


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
    path = np.asarray(boosted.train_mse_path)
    assert path.shape == (61,)
    assert path[0] == pytest.approx(np.var(y), rel=1e-12)
    assert np.all(np.diff(path) <= 1e-15)
    assert path[-1] < path[0]


def test_gbm_step_data_converges():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    boosted = fit_gbm(X, y, n_trees=10, learning_rate=1.0)
    assert boosted.train_mse_path[-1] < 1e-6
    np.testing.assert_allclose(boosted.predict(X), y, atol=1e-9)


def test_gbm_prediction_is_affine_in_members():
    rng = np.random.default_rng(47)
    X = rng.random((80, 3))
    y = rng.random(80)
    boosted = fit_gbm(X, y, n_trees=25)
    probe = rng.random((20, 3))
    manual = np.full(20, boosted.base_value)
    for tree in boosted.trees:
        manual += boosted.learning_rate * tree.predict(probe)
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


# permutation importance


def test_importance_constant_column_scores_zero():
    rng = np.random.default_rng(53)
    X = rng.random((200, 3))
    X[:, 1] = 0.25
    y = 2.0 * X[:, 0] + 0.5 * X[:, 2]
    forest = fit_forest(X, y, n_trees=10, seed=4)
    scores = permutation_importance(forest, X, y, seed=0, repeats=5)
    assert scores.shape == (3,)
    assert scores[1] == 0.0
    assert scores[0] > scores[1]
    assert scores[2] > scores[1]


def test_importance_reproducible_and_ranks_strong_features():
    X, y = _oracle_rows(80, seed=19)
    forest = fit_forest(X, y, n_trees=20, seed=5)
    scores = permutation_importance(forest, X, y, seed=9)
    again = permutation_importance(forest, X, y, seed=9)
    np.testing.assert_array_equal(scores, again)
    top3 = set(np.argsort(scores)[-3:])
    assert FEATURE_NAMES.index("Q") in top3
    assert FEATURE_NAMES.index("alpha_deg") in top3


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
    assert np.array_equal(a.feature, b.feature)
    assert np.array_equal(a.threshold, b.threshold)
    assert np.array_equal(a.left, b.left)
    assert np.array_equal(a.right, b.right)
    assert np.array_equal(a.value, b.value)
    assert a.params == b.params
    assert a.n_features == b.n_features


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
    assert back.seed == 11
    assert back.bootstrap is True
    assert back.max_features == forest.max_features
    assert back.n_trees == 4
    for t1, t2 in zip(forest.trees, back.trees):
        _assert_trees_equal(t1, t2)
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
    assert isinstance(back, BoostedModel)
    assert back.base_value == boosted.base_value
    assert back.learning_rate == boosted.learning_rate
    assert back.train_mse_path == boosted.train_mse_path
    probe = rng.random((15, 3))
    assert np.array_equal(boosted.predict(probe), back.predict(probe))


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


def test_save_model_rejects_unknown_objects(tmp_path):
    with pytest.raises(TypeError):
        save_model(tmp_path / "x.wnsm", object())
