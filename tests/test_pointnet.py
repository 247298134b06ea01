"""Tests for the point-set regression network."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pointnet_reference
from pkwbench.errors import MalformedModel, NonFiniteLoss, ShapeMismatch
from pkwbench.surrogates import (
    PairClouds,
    PointNetConfig,
    PointNetMini,
    attach_discharge,
    fit_pointnet_mini,
    load_model,
    normalize_discharge,
    save_model,
)
from pkwbench.surrogates import pointnet
from pkwbench.surrogates.pointnet import _POINT_BLOCK, _init_params

N_PARAMETERS = 21_121  # frozen by the layer widths 3-64-64-128 pool, q, 64-1


def _toy_clouds(n_clouds, n_points, seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((n_clouds, n_points, 3))
    q = rng.uniform(0.05, 0.25, size=n_clouds)
    return attach_discharge(pts, q)


def _quick_fit(X, y, **overrides):
    defaults = {"max_epochs": 1, "seed": 0}
    defaults.update(overrides)
    return fit_pointnet_mini(X, y, config=PointNetConfig(**defaults))


def test_discharge_normalization():
    assert normalize_discharge(0.05) == pytest.approx(0.0, abs=1e-15)
    assert normalize_discharge(0.25) == pytest.approx(1.0, rel=1e-15)
    assert normalize_discharge(0.15) == pytest.approx(0.5, rel=1e-15)


def test_attach_discharge_shapes():
    pts = np.random.default_rng(1).random((2, 5, 3))
    out = attach_discharge(pts, [0.05, 0.25])
    assert out.shape == (2, 5, 4)
    np.testing.assert_allclose(out[0, :, 3], 0.0, atol=1e-15)
    np.testing.assert_allclose(out[1, :, 3], 1.0, rtol=1e-15)
    np.testing.assert_array_equal(out[:, :, :3], pts)
    single = attach_discharge(pts[0], [0.15])
    assert single.shape == (5, 4)
    with pytest.raises(ShapeMismatch):
        attach_discharge(pts, [0.1, 0.2, 0.3])
    with pytest.raises(ShapeMismatch):
        attach_discharge(np.ones((2, 5, 2)), [0.1, 0.2])


def test_parameter_count_frozen_by_architecture():
    X = _toy_clouds(4, 8, seed=2)
    model = _quick_fit(X, np.array([0.3, 0.4, 0.5, 0.6]))
    assert model.n_parameters == N_PARAMETERS
    vec = model.parameter_vector()
    assert vec.shape == (N_PARAMETERS,)
    model.set_parameter_vector(vec)
    with pytest.raises(ShapeMismatch):
        model.set_parameter_vector(vec[:-1])


def test_prediction_invariant_to_point_order():
    X = _toy_clouds(3, 64, seed=3)
    model = _quick_fit(X, np.array([0.3, 0.4, 0.5]))
    base = model.predict(X)
    rng = np.random.default_rng(4)
    for _ in range(5):
        perm = rng.permutation(X.shape[1])
        assert np.array_equal(model.predict(X[:, perm, :]), base)


def test_single_cloud_prediction_shape():
    X = _toy_clouds(2, 16, seed=5)
    model = _quick_fit(X, np.array([0.3, 0.4]))
    out = model.predict(X[0])
    assert out.shape == (1,)
    # the head sums each row in a fixed order, so one row is its batch row
    assert out[0] == model.predict(X)[0]


def test_one_row_predicts_its_row_of_a_65_pair_batch_byte_for_byte():
    rng = np.random.default_rng(50)
    # 13 clouds with 5 discharges each, so rows share clouds too
    X = attach_discharge(np.repeat(rng.random((13, 40, 3)), 5, axis=0),
                         rng.uniform(0.05, 0.25, size=65))
    for seed in range(5):
        model = PointNetMini(_init_params(np.random.default_rng(seed)))
        batch = model.predict(X)
        for k in range(65):
            assert model.predict(X[k]).tobytes() == batch[k : k + 1].tobytes(), k


def test_analytic_gradients_match_finite_differences():
    X = _toy_clouds(2, 16, seed=6)
    y = np.array([0.4, 0.5])
    model = _quick_fit(X, y, seed=1)
    loss, grads = model.loss_and_gradients(X, y)
    analytic = np.concatenate(
        [grads[k].ravel() for k in model._key_order()]
    )
    pred = model.predict(X)
    assert loss == pytest.approx(float(np.mean((pred - y) ** 2)), rel=1e-12)

    theta = model.parameter_vector()

    def loss_at(vec):
        model.set_parameter_vector(vec)
        out = model.predict(X)
        return float(np.mean((out - y) ** 2))

    numeric = np.empty_like(theta)
    for i in range(theta.size):
        h = 1e-5 * max(1.0, abs(theta[i]))
        probe = theta.copy()
        probe[i] = theta[i] + h
        hi = loss_at(probe)
        probe[i] = theta[i] - h
        lo = loss_at(probe)
        numeric[i] = (hi - lo) / (2.0 * h)
    model.set_parameter_vector(theta)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-10)
    rel = np.abs(analytic - numeric) / denom
    agreement = np.mean(rel <= 1e-4)
    assert agreement >= 0.99, f"only {agreement:.4f} of gradients agree"


def test_training_is_deterministic_given_seed():
    X = _toy_clouds(12, 16, seed=7)
    y = np.random.default_rng(8).uniform(0.3, 0.6, size=12)
    a = fit_pointnet_mini(X, y, config=PointNetConfig(max_epochs=5, seed=3))
    b = fit_pointnet_mini(X, y, config=PointNetConfig(max_epochs=5, seed=3))
    assert np.array_equal(a.parameter_vector(), b.parameter_vector())
    assert a.history == b.history
    c = fit_pointnet_mini(X, y, config=PointNetConfig(max_epochs=5, seed=4))
    assert not np.array_equal(a.parameter_vector(), c.parameter_vector())


def test_constant_target_converges_quickly():
    X = _toy_clouds(20, 16, seed=9)
    y = np.full(20, 0.42)
    # with 20 clouds the default batch of 32 degenerates to one optimizer
    # step per epoch; batch 4 gives this toy set a real mini-batch schedule
    config = PointNetConfig(max_epochs=200, patience=200, seed=0, batch_size=4)
    model = fit_pointnet_mini(X, y, config=config)
    # without a validation set, val_mse is the training set's MSE under
    # the epoch's final weights; train_mse averages the epoch's batch losses
    assert min(model.history["val_mse"]) < 1e-6
    assert min(model.history["train_mse"]) < 1e-6
    final = float(np.mean((model.predict(X) - y) ** 2))
    assert final < 1e-5


def test_training_reduces_loss():
    X = _toy_clouds(24, 16, seed=10)
    # a target the network can actually learn: mean height plus discharge
    y = X[:, :, 2].mean(axis=1) * 0.2 + X[:, 0, 3] * 0.1 + 0.3
    model = fit_pointnet_mini(X, y, config=PointNetConfig(max_epochs=60, seed=2))
    # train_mse[0] averages losses taken during the first epoch, from the
    # initial weights on, so it starts higher than the training MSE after
    # that epoch.  Without a validation set, val_mse is that after-epoch
    # training MSE, computed by the model's predict.
    path = model.history["val_mse"]
    assert path[-1] < path[0] * 0.1
    batch_path = model.history["train_mse"]
    assert batch_path[-1] < batch_path[0] * 0.1


def test_early_stopping_keeps_best_weights():
    X = _toy_clouds(16, 8, seed=11)
    rng = np.random.default_rng(12)
    y = rng.uniform(0.3, 0.6, size=16)
    # anti-correlated validation targets make val loss rise as train improves
    Xv = X
    yv = 0.9 - y
    config = PointNetConfig(max_epochs=500, patience=5, seed=1)
    model = fit_pointnet_mini(X, y, Xv, yv, config=config)
    hist = model.history
    assert len(hist["val_mse"]) < config.max_epochs
    assert len(hist["val_mse"]) == hist["best_epoch"] + 1 + config.patience
    assert hist["best_val_mse"] == min(hist["val_mse"])
    kept = float(np.mean((model.predict(Xv) - yv) ** 2))
    assert kept == hist["best_val_mse"]


def test_nonfinite_loss_aborts_with_diagnostics():
    X = _toy_clouds(40, 8, seed=13)
    y = np.random.default_rng(14).uniform(0.3, 0.6, size=40)
    config = PointNetConfig(learning_rate=1e155, max_epochs=3, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteLoss, match="epoch"):
            fit_pointnet_mini(X, y, config=config)


def test_shape_guards():
    X = _toy_clouds(4, 8, seed=15)
    y = np.array([0.3, 0.4, 0.5, 0.6])
    with pytest.raises(ShapeMismatch):
        fit_pointnet_mini(np.ones((4, 8, 3)), y)
    with pytest.raises(ShapeMismatch):
        fit_pointnet_mini(X, y[:3])
    with pytest.raises(ShapeMismatch):
        fit_pointnet_mini(np.ones((4, 0, 4)), y)
    with pytest.raises(ValueError):
        fit_pointnet_mini(X, y, val_clouds=X)
    with pytest.raises(ValueError):
        fit_pointnet_mini(X, np.array([0.3, np.nan, 0.5, 0.6]))
    model = _quick_fit(X, y)
    with pytest.raises(ShapeMismatch):
        model.predict(np.ones((2, 8, 3)))
    for bad in (np.nan, np.inf, -np.inf):
        X_bad = X.copy()
        X_bad[2, 5, 1] = bad
        with pytest.raises(ValueError, match="cloud features must be finite"):
            model.predict(X_bad)


def test_a_discharge_channel_that_varies_within_a_cloud_is_rejected():
    X = _toy_clouds(3, 8, seed=46)
    model = PointNetMini(_init_params(np.random.default_rng(47)))
    X[1, 5, 3] += 1e-9
    for call in (model.predict, lambda X: model.loss_and_gradients(X, np.zeros(3)),
                 lambda X: fit_pointnet_mini(X, np.zeros(3))):
        with pytest.raises(ShapeMismatch, match="cloud 1"):
            call(X)


def test_equal_clouds_group_by_their_bytes_without_a_copy():
    rng = np.random.default_rng(48)
    pts = rng.random((3, 4 * _POINT_BLOCK + 10, 3))
    # cloud 1 differs from cloud 0 in the last point's last coordinate only
    pts[1] = pts[0]
    pts[1, -1, 2] = np.nextafter(pts[1, -1, 2], 2.0)
    # cloud 3 is cloud 2 but for the sign of one zero
    pts[2, 0, 0] = 0.0
    pts = np.concatenate([pts, pts[2:3]])
    pts[3, 0, 0] = -0.0
    order = [2, 0, 3, 1, 0, 2, 2]
    X = attach_discharge(pts[order], rng.uniform(0.05, 0.25, size=len(order)))
    peak = _peak_traced_bytes(lambda: pointnet._as_pairs(X))
    pairs = pointnet._as_pairs(X)
    assert pairs.index.tolist() == [0, 1, 2, 3, 1, 0, 0]
    assert np.shares_memory(pairs.clouds, X)
    assert np.array_equal(pairs.qhat, X[:, 0, 3])
    # a copy of one cloud would hold 8 * 3 * 4106 bytes; grouping holds a
    # block of points of two clouds at a time
    assert peak < 2 * 8 * 3 * _POINT_BLOCK + 4096, peak


def test_each_distinct_cloud_is_encoded_once_a_pass(monkeypatch):
    encoded = []
    encode = PointNetMini._encode

    def counting(self, clouds, critical=False):
        encoded.append(len(clouds))
        return encode(self, clouds, critical)

    monkeypatch.setattr(PointNetMini, "_encode", counting)
    rng = np.random.default_rng(49)
    X = attach_discharge(np.repeat(rng.random((40, 16, 3)), 3, axis=0)[rng.permutation(120)],
                         rng.uniform(0.05, 0.25, size=120))
    model = PointNetMini(_init_params(rng))
    model.predict(X)
    assert sum(encoded) == 40
    encoded.clear()
    model.loss_and_gradients(X[:30], np.zeros(30))
    assert encoded == [len({X[k, :, :3].tobytes() for k in range(30)})]
    # a fit encodes each batch's distinct clouds; validation runs 32 clouds
    # at a time
    encoded.clear()
    fit = fit_pointnet_mini(X, np.zeros(120), config=PointNetConfig(max_epochs=2))
    assert len(fit.history["val_mse"]) == 2
    rng = np.random.default_rng(0)
    _init_params(rng)
    want = []
    for _ in range(2):
        order = rng.permutation(120)
        want += [len({X[k, :, :3].tobytes() for k in order[s : s + 32]})
                 for s in range(0, 120, 32)]
        want += [32, 8]
    assert encoded == want


def test_compact_input_is_checked():
    rng = np.random.default_rng(51)
    clouds = rng.random((3, 8, 3))
    model = PointNetMini(_init_params(rng))
    good = PairClouds(clouds, np.array([2, 0, 2]), np.array([0.1, 0.5, 0.9]))
    assert model.predict(good).shape == (3,)
    # float32 clouds read as their float64 values
    narrow = PairClouds(clouds.astype(np.float32), good.index, good.qhat)
    wide = PairClouds(narrow.clouds.astype(float), good.index, good.qhat)
    assert np.array_equal(model.predict(narrow), model.predict(wide))
    for bad in (PairClouds(clouds, np.array([3, 0, 2]), good.qhat),
                PairClouds(clouds, np.array([-1, 0, 2]), good.qhat),
                PairClouds(clouds, np.array([0.0, 1.0, 2.0]), good.qhat),
                PairClouds(clouds, good.index, good.qhat[:2]),
                PairClouds(clouds[:, :, :2], good.index, good.qhat),
                PairClouds(clouds[:, :0], good.index, good.qhat)):
        with pytest.raises(ShapeMismatch):
            model.predict(bad)
    # a cloud no pair names is never read
    clouds[1, 3, 0] = np.nan
    assert np.array_equal(model.predict(good), model.predict(PairClouds(
        np.where(np.isnan(clouds), 0.0, clouds), good.index, good.qhat)))
    for bad in (PairClouds(clouds, np.array([1]), np.array([0.5])),
                PairClouds(clouds, np.array([0]), np.array([np.inf]))):
        with pytest.raises(ValueError, match="finite"):
            model.predict(bad)


def test_network_round_trip(tmp_path):
    X = _toy_clouds(6, 8, seed=16)
    y = np.random.default_rng(17).uniform(0.3, 0.6, size=6)
    model = fit_pointnet_mini(X, y, config=PointNetConfig(max_epochs=3, seed=5))
    path = tmp_path / "net.wnsm"
    save_model(path, model)
    back = load_model(path)
    assert np.array_equal(model.predict(X), back.predict(X))
    assert np.array_equal(model.parameter_vector(), back.parameter_vector())
    assert back.config == model.config
    assert back.history == model.history
    truncated = tmp_path / "cut.wnsm"
    truncated.write_bytes(path.read_bytes()[:-40])
    with pytest.raises(MalformedModel):
        load_model(truncated)


@pytest.mark.parametrize("version", [2, 3, 4, 5])
def test_network_file_reads_version_5_only(tmp_path, version):
    # version 5 moved the discharge after the pool: a network written at
    # version 3 or 4 has other weight shapes and is refitted, not read
    X = _toy_clouds(4, 8, seed=18)
    model = fit_pointnet_mini(X, np.full(4, 0.4), config=PointNetConfig(max_epochs=1))
    path = tmp_path / "net.wnsm"
    save_model(path, model)
    raw = path.read_bytes()
    assert raw[4:6] == (5).to_bytes(2, "little")
    path.write_bytes(raw[:4] + version.to_bytes(2, "little") + raw[6:])
    if version == 5:
        assert np.array_equal(load_model(path).predict(X), model.predict(X))
    else:
        with pytest.raises(MalformedModel, match=rf"version {version}.*train --force"):
            load_model(path)


# differential tests against the pairwise network in pointnet_reference.py

# The backward pass below the pool sums over the critical rows only, and a
# cloud's pairs share one pooled gradient, where the reference sums every
# point of every pair; BLAS then reduces in another order, so gradients, and
# the weights and MSEs a fit derives from them, may differ from the
# reference by reassociation of float64 sums.
_REASSOCIATION = 1e-12


def _assert_close(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    bound = _REASSOCIATION * max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert np.all(np.abs(got - want) <= bound), what


def _compact(X):
    """``PairClouds`` of an ``(n, points, 4)`` array, built by hand: one
    copy of each distinct cloud in the order it first appears."""
    clouds, index = [], []
    for cloud in X[:, :, :3]:
        match = [g for g, kept in enumerate(clouds) if kept.tobytes() == cloud.tobytes()]
        index.append(match[0] if match else len(clouds))
        if not match:
            clouds.append(cloud.copy())
    shape = (len(clouds),) + X.shape[1:2] + (3,)
    return PairClouds(np.array(clouds).reshape(shape), np.array(index, dtype=np.intp),
                      X[:, 0, 3].copy())


@st.composite
def _net_problems(draw):
    """Pairs, targets and a batch size that stress batching and the pool.

    Pairs draw their clouds from a few distinct ones, so clouds repeat with
    other discharges, in any order.  Set sizes are drawn independently of
    the batch size, so most are not multiples of it and many fit in a
    single batch.  Clouds may hold one point or repeat their points (argmax
    ties), and scaled inputs of both signs leave whole ReLU channels dead.
    """
    n = draw(st.integers(1, 40))
    n_clouds = draw(st.integers(1, n))
    n_points = draw(st.integers(1, 12))
    batch_size = draw(st.sampled_from((1, 2, 3, 5, 8, 32)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pts = rng.random((n_clouds, n_points, 3))
    if draw(st.booleans()):
        pts = draw(st.sampled_from((-50.0, 50.0))) * (pts - 0.5)
    if n_points > 1 and draw(st.booleans()):
        pts[:, n_points // 2 :] = pts[:, : n_points - n_points // 2]
    X = attach_discharge(pts[rng.integers(n_clouds, size=n)],
                         rng.uniform(0.05, 0.25, size=n))
    y = rng.uniform(0.3, 0.6, size=n)
    return X, y, batch_size, seed


@pytest.fixture
def point_blocks(monkeypatch):
    """Iterate a test body over encoder block sizes.

    The hypothesis problems hold at most 12 points per cloud, one block at
    the module's ``_POINT_BLOCK``.  Blocks of 1, 3 and 5 points split them,
    so the per-block pool merge, ties across blocks and one-point tails
    run; the encoder widens a one-point block to two.  The module's own
    size comes last.
    """

    def each():
        for size in (1, 3, 5, _POINT_BLOCK):
            monkeypatch.setattr(pointnet, "_POINT_BLOCK", size)
            yield size

    return each


# the fixture only sets the block size, and each use sets it again
_BLOCKS_PER_EXAMPLE = [HealthCheck.function_scoped_fixture]


def _kill_channels(params, rng):
    """Biases so negative that some channels of each hidden layer never fire."""
    params = {k: v.copy() for k, v in params.items()}
    for i in range(4):
        b = params[f"b{i}"]
        b[rng.random(b.size) < 0.3] = -1e3
    return params


@settings(max_examples=200, deadline=None,
          suppress_health_check=_BLOCKS_PER_EXAMPLE)
@given(_net_problems(), st.booleans())
def test_loss_gradients_and_predict_match_the_reference(point_blocks, problem,
                                                       dead):
    X, y, batch_size, seed = problem
    rng = np.random.default_rng(seed)
    params = _init_params(rng)
    if dead:
        params = _kill_channels(params, rng)
    config = PointNetConfig(batch_size=batch_size)
    reference = pointnet_reference.PairwisePointNet(params, config=config)
    want_loss, want_grads = reference.loss_and_gradients(X, y)
    want_predicted = reference.predict(X)
    row_major = pointnet_reference.RowMajorPointNet(params, config=config)
    model = PointNetMini(params, config=config)
    for _ in point_blocks():
        # the backward pass sums its critical rows a block at a time
        _, row_major_grads = row_major.loss_and_gradients(X, y)
        # the array and the compact form are one input, bit for bit
        for form in (X, _compact(X)):
            loss, grads = model.loss_and_gradients(form, y)
            assert loss == want_loss
            assert grads.keys() == want_grads.keys()
            for key, grad in grads.items():
                _assert_close(grad, want_grads[key], key)
                # with the row-major encoder the backward pass is this one,
                # so every gradient is bit-identical
                assert np.array_equal(grad, row_major_grads[key]), key
            assert np.array_equal(model.predict(form), want_predicted)


def _assert_fits_alike(got, want, X):
    assert got.history["best_epoch"] == want.history["best_epoch"]
    assert got.history["points"] == want.history["points"]
    _assert_close(got.parameter_vector(), want.parameter_vector(), "parameters")
    for key in ("train_mse", "val_mse", "best_val_mse"):
        _assert_close(got.history[key], want.history[key], key)
    _assert_close(got.predict(X), want.predict(X), "predictions")


def test_fit_at_benchmark_size_matches_the_reference():
    """On clouds of the benchmark's size, each with five discharges, and
    with a validation set."""
    rng = np.random.default_rng(25)
    X = attach_discharge(np.repeat(rng.random((14, 512, 3)), 5, axis=0),
                         rng.uniform(0.05, 0.25, size=70))
    y = rng.uniform(0.3, 0.6, size=70)
    Xv = attach_discharge(np.repeat(rng.random((4, 512, 3)), 5, axis=0),
                          rng.uniform(0.05, 0.25, size=20))
    yv = rng.uniform(0.3, 0.6, size=20)
    config = PointNetConfig(max_epochs=3, seed=3)
    got = fit_pointnet_mini(X, y, Xv, yv, config=config)
    want = pointnet_reference.fit_pointnet_mini(X, y, Xv, yv, config=config)
    assert got.history["points"] == 512
    _assert_fits_alike(got, want, X)


@settings(max_examples=100, deadline=None,
          suppress_health_check=_BLOCKS_PER_EXAMPLE)
@given(_net_problems(), st.integers(0, 12), st.integers(1, 3), st.integers(1, 2))
def test_fit_matches_the_reference(point_blocks, problem, n_val, max_epochs,
                                   patience):
    X, y, batch_size, seed = problem
    config = PointNetConfig(batch_size=batch_size, max_epochs=max_epochs,
                            patience=patience, seed=seed)
    # n_val == 0: the training set doubles as the validation set
    Xv = X[:n_val][::-1] if n_val else None
    yv = y[:n_val][::-1] if n_val else None
    want = pointnet_reference.fit_pointnet_mini(X, y, Xv, yv, config=config)
    for _ in point_blocks():
        got = fit_pointnet_mini(X, y, Xv, yv, config=config)
        _assert_fits_alike(got, want, X)
        compact = fit_pointnet_mini(_compact(X), y, Xv if Xv is None else _compact(Xv),
                                    yv, config=config)
        assert np.array_equal(compact.parameter_vector(), got.parameter_vector())
        assert compact.history == got.history


def test_predict_on_no_clouds_is_empty():
    model = PointNetMini(_init_params(np.random.default_rng(0)))
    out = model.predict(np.zeros((0, 5, 4)))
    assert out.shape == (0,)
    assert out.dtype == np.float64


@pytest.mark.parametrize("n_clouds, batch_size", [(40, 32), (7, 32), (40, 3)])
def test_nonfinite_loss_message_matches_the_reference(n_clouds, batch_size,
                                                      point_blocks):
    _assert_same_nonfinite_loss(_toy_clouds(n_clouds, 8, seed=13), batch_size,
                                point_blocks())


def test_nonfinite_loss_across_point_blocks_matches_the_reference():
    X = _toy_clouds(12, _POINT_BLOCK + 76, seed=13)
    _assert_same_nonfinite_loss(X, 4, [_POINT_BLOCK])


def _assert_same_nonfinite_loss(X, batch_size, blocks):
    """A diverging fit stops at the reference's batch with its message."""
    y = np.random.default_rng(14).uniform(0.3, 0.6, size=X.shape[0])
    config = PointNetConfig(learning_rate=1e155, max_epochs=3, seed=0,
                            batch_size=batch_size)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteLoss) as want:
            pointnet_reference.fit_pointnet_mini(X, y, config=config)
        for _ in blocks:
            with pytest.raises(NonFiniteLoss) as got:
                fit_pointnet_mini(X, y, config=config)
            assert str(got.value) == str(want.value)


def _peak_traced_bytes(fn):
    """Peak bytes traced while ``fn`` runs; numpy reports its buffers."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_memory_grows_with_the_batch_not_the_set():
    model = PointNetMini(_init_params(np.random.default_rng(0)))
    small = _toy_clouds(32, 128, seed=18)
    large = _toy_clouds(256, 128, seed=19)
    small_peak = _peak_traced_bytes(lambda: model.predict(small))
    large_peak = _peak_traced_bytes(lambda: model.predict(large))
    # per-point activations are held for one cloud whatever the set size;
    # only each cloud's outputs, its pooled 128-vector and the head's 64
    # and 1 values, may add up over the set
    per_cloud_outputs = (128 + 64 + 1) * 8
    assert large_peak - small_peak <= (256 - 32) * per_cloud_outputs, (
        small_peak, large_peak)


def test_gradient_step_builds_no_dense_pre_pool_gradient():
    X = _toy_clouds(32, 512, seed=22)
    y = np.random.default_rng(23).uniform(0.3, 0.6, size=32)
    params = _init_params(np.random.default_rng(24))
    model = PointNetMini(params)
    reference = pointnet_reference.PairwisePointNet(params)
    peak = _peak_traced_bytes(lambda: model.loss_and_gradients(X, y))
    reference_peak = _peak_traced_bytes(lambda: reference.loss_and_gradients(X, y))
    # one (clouds, points, 128) float64 array, the size of that gradient
    pre_pool_bytes = 32 * 512 * 128 * 8
    assert peak <= reference_peak - pre_pool_bytes, (peak, reference_peak)
    # caching the layer-0 and layer-1 activations, together one pre-pool
    # array, next to the layer-2 pre-activation stays under this bound; a
    # dense gradient held next to them would exceed it
    assert peak <= 2.125 * pre_pool_bytes, peak


def test_gradient_step_at_5000_points_stays_under_64_mb():
    X = _toy_clouds(32, 5000, seed=29)
    y = np.random.default_rng(30).uniform(0.3, 0.6, size=32)
    model = PointNetMini(_init_params(np.random.default_rng(31)))
    peak = _peak_traced_bytes(lambda: model.loss_and_gradients(X, y))
    # caching every per-point activation of this batch peaks at about 317 MB
    assert peak < 64 * 2**20, peak


def test_fit_epoch_memory_grows_with_the_batch_not_the_set():
    config = PointNetConfig(max_epochs=1, seed=0)
    peaks = []
    for n_clouds in (64, 256):
        X = _toy_clouds(n_clouds, 128, seed=20)
        y = np.random.default_rng(21).uniform(0.3, 0.6, size=n_clouds)
        peaks.append(_peak_traced_bytes(lambda: fit_pointnet_mini(X, y, config=config)))
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_step_memory_does_not_grow_with_the_points():
    """The encoder holds one block of points, whatever the cloud size."""
    model = PointNetMini(_init_params(np.random.default_rng(31)))
    y = np.random.default_rng(30).uniform(0.3, 0.6, size=32)
    step, predict = [], []
    for n_points in (5000, 20000):
        X = _toy_clouds(32, n_points, seed=29)
        step.append(_peak_traced_bytes(lambda: model.loss_and_gradients(X, y)))
        predict.append(_peak_traced_bytes(lambda: model.predict(X)))
    assert step[1] <= 1.1 * step[0], step
    assert predict[1] <= 1.1 * predict[0], predict


# the encoder's point blocks against the row-major encoder they replaced


def _assert_encodes_like_the_row_major_reference(X, params):
    """Pooled values and argmax rows of the (x, y, z) clouds of ``X`` equal
    the reference's, NaN included; returns the critical pass's."""
    model = PointNetMini(params)
    reference = pointnet_reference.RowMajorPointNet(params)
    clouds = X[:, :, :3]
    for critical in (False, True):
        pooled, argmax = model._encode(clouds, critical)
        want_pooled, want_argmax = reference._encode(clouds, critical)
        assert np.array_equal(pooled, want_pooled, equal_nan=True), critical
        if critical:
            assert np.array_equal(argmax, want_argmax)
        else:
            assert argmax is None
    return pooled, argmax


@pytest.mark.parametrize("n_points", [512, 1024, 1025, 5000])
def test_encode_matches_the_row_major_reference(n_points):
    X = _toy_clouds(3, n_points, seed=n_points)
    params = _init_params(np.random.default_rng(n_points + 1))
    _assert_encodes_like_the_row_major_reference(X, params)


def test_float32_clouds_encode_as_their_float64_values():
    clouds = np.random.default_rng(44).random((3, 1500, 3)).astype(np.float32)
    model = PointNetMini(_init_params(np.random.default_rng(45)))
    for critical in (False, True):
        got = model._encode(clouds, critical)
        want = model._encode(clouds.astype(float), critical)
        assert np.array_equal(got[0], want[0])
        assert critical == (got[1] is not None) and np.array_equal(got[1], want[1])


def test_encode_ties_across_a_block_boundary_keep_the_first_index():
    """Tied maxima in different blocks, and a one-point tail block."""
    n_points = 2 * _POINT_BLOCK + 1
    X = _toy_clouds(3, n_points, seed=40)
    # every point of cloud 0's second block, and its last point, repeats
    # one of its first block
    X[0, _POINT_BLOCK : 2 * _POINT_BLOCK] = X[0, :_POINT_BLOCK]
    X[0, -1] = X[0, 0]
    # cloud 1 is one point repeated
    X[1] = X[1, 0]
    # cloud 2's outliers win channels: a tied pair either side of the first
    # boundary, and its last point, alone in the tail block
    X[2, _POINT_BLOCK - 1 : _POINT_BLOCK + 1, :3] = 5.0
    X[2, -1, :3] = -5.0
    params = _init_params(np.random.default_rng(41))
    _, argmax = _assert_encodes_like_the_row_major_reference(X, params)
    assert np.all(argmax[0] < _POINT_BLOCK)
    assert np.all(argmax[1] == 0)
    assert _POINT_BLOCK - 1 in argmax[2]
    assert _POINT_BLOCK not in argmax[2]
    assert n_points - 1 in argmax[2]


def test_encode_nan_in_a_later_block_poisons_the_same_channels():
    rng = np.random.default_rng(42)
    params = _init_params(rng)
    # layers 0 and 1 pass the ReLU'd x coordinate through channel 0 alone;
    # W2's infinite entries make their channels +inf where x > 0 and NaN
    # (inf * 0) at the one point where x is 0, in the second block
    for i in range(2):
        params[f"W{i}"][:] = 0.0
        params[f"W{i}"][0, 0] = 1.0
        params[f"b{i}"][:] = 0.0
    poisoned = rng.random(params["W2"].shape[1]) < 0.5
    params["W2"][0, poisoned] = np.inf
    X = _toy_clouds(2, _POINT_BLOCK + 500, seed=43)
    X[:, :, 0] += 0.5
    X[0, _POINT_BLOCK + 100, 0] = 0.0
    with np.errstate(invalid="ignore"):
        pooled, _ = _assert_encodes_like_the_row_major_reference(X, params)
    assert np.array_equal(np.isnan(pooled[0]), poisoned)
    assert np.all(np.isposinf(pooled[1, poisoned]))
    assert np.isfinite(pooled[1, ~poisoned]).all()
