"""Tiny point-set regression network with hand-written backprop.

The encoder lifts every point independently (widths 4 -> 64 -> 64 -> 128),
a max pool over the point axis collapses the set to one 128-vector, and a
small head (128 -> 64 -> 1) maps that to the scalar target.  Because the
pool is symmetric in its inputs, predictions are exactly invariant to point
order.  Per-point input is (x, y, z, q) where the coordinates live in the
unit cube and q is the discharge min-max scaled over the 50..250 l/s range.

Training is plain minibatch Adam on the mean squared error with early
stopping on a validation set; the weights that scored the best validation
MSE are the ones the fitted model keeps.

The max pool passes gradient to one point per (cloud, channel): the
channel's first-maximum point.  A cloud's distinct such points are its
critical points, a few dozen of several hundred on real clouds, and the
backward pass runs the per-point layers on those rows alone.  Only a
training step takes the ``argmax``; prediction and evaluation pool with a
plain ``max``.

No pass holds more activations than one training batch: prediction and
the per-epoch evaluation push ``batch_size`` clouds at a time through the
per-point layers and the pool, then run the head once on the pooled
vectors.  The chunked result is bit-identical to one pass over the whole
set, so memory grows with ``batch_size x points``, not with the set size.
A training step holds no per-point gradient, only the gathered rows.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import NonFiniteLoss, ShapeMismatch

__all__ = [
    "PointNetConfig",
    "PointNetMini",
    "attach_discharge",
    "fit_pointnet_mini",
    "normalize_discharge",
]

_LAYER_DIMS = ((4, 64), (64, 64), (64, 128), (128, 64), (64, 1))
_POOL_AFTER = 2  # index of the last per-point layer
_Q_LO_LPS = 50.0
_Q_SPAN_LPS = 200.0


def normalize_discharge(q_m3s) -> np.ndarray:
    """Map discharge in m^3/s onto [0, 1] over the 50..250 l/s span."""
    q = np.asarray(q_m3s, dtype=float)
    return (q * 1000.0 - _Q_LO_LPS) / _Q_SPAN_LPS


def attach_discharge(points, q_m3s) -> np.ndarray:
    """Broadcast one normalized discharge onto every point of each cloud.

    ``points`` is ``(n_clouds, n_points, 3)`` (or a single ``(n_points, 3)``
    cloud) and ``q_m3s`` one discharge per cloud; the result appends the
    scaled discharge as a fourth per-point channel.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 2
    if single:
        pts = pts[None]
    if pts.ndim != 3 or pts.shape[2] != 3:
        raise ShapeMismatch(f"expected (n, points, 3) clouds, got {pts.shape}")
    q = np.atleast_1d(np.asarray(q_m3s, dtype=float))
    if q.shape != (pts.shape[0],):
        raise ShapeMismatch(
            f"{pts.shape[0]} clouds but {q.size} discharge values"
        )
    qhat = normalize_discharge(q)
    channel = np.broadcast_to(qhat[:, None, None], pts.shape[:2] + (1,))
    out = np.concatenate([pts, channel], axis=2)
    return out[0] if single else out


@dataclasses.dataclass(frozen=True)
class PointNetConfig:
    """Optimizer and schedule knobs for :func:`fit_pointnet_mini`."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 32
    max_epochs: int = 500
    patience: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("Adam betas must lie in [0, 1)")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("batch_size, max_epochs and patience must be >= 1")


def _init_params(rng):
    """Uniform fan-in initialization, one (W, b) pair per layer."""
    params = {}
    for i, (fan_in, fan_out) in enumerate(_LAYER_DIMS):
        bound = 1.0 / np.sqrt(fan_in)
        params[f"W{i}"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        params[f"b{i}"] = rng.uniform(-bound, bound, size=fan_out)
    return params


def _check_clouds(X):
    X = np.asarray(X, dtype=float)
    if X.ndim == 2:
        X = X[None]
    if X.ndim != 3 or X.shape[2] != _LAYER_DIMS[0][0]:
        raise ShapeMismatch(
            f"expected (n, points, {_LAYER_DIMS[0][0]}) input, got {X.shape}"
        )
    if X.shape[1] == 0:
        raise ShapeMismatch("clouds must contain at least one point")
    if not np.isfinite(X).all():
        raise ValueError("cloud features must be finite")
    return X


class PointNetMini:
    """Fitted network; construct through :func:`fit_pointnet_mini`.

    Instances are also buildable directly from a parameter dict, which is
    what deserialization and the tests' finite-difference probes use.
    """

    def __init__(self, params, config=None, history=None):
        expected = {f"{kind}{i}" for i in range(len(_LAYER_DIMS)) for kind in "Wb"}
        if set(params) != expected:
            raise ShapeMismatch(f"parameter keys {sorted(params)} do not match")
        for i, (fan_in, fan_out) in enumerate(_LAYER_DIMS):
            if params[f"W{i}"].shape != (fan_in, fan_out):
                raise ShapeMismatch(f"W{i} must have shape {(fan_in, fan_out)}")
            if params[f"b{i}"].shape != (fan_out,):
                raise ShapeMismatch(f"b{i} must have shape {(fan_out,)}")
        self.params = {k: np.array(v, dtype=float) for k, v in params.items()}
        self.config = config or PointNetConfig()
        self.history = history or {}

    @property
    def n_parameters(self) -> int:
        return sum(v.size for v in self.params.values())

    def _forward(self, h, cache=None, layers=range(len(_LAYER_DIMS))):
        """Run ``h`` through ``layers``; fill ``cache`` for backprop if given.

        Each layer adds its bias and applies ReLU in place.  ReLU is
        monotone, so it commutes with the max pool: the pooled layer pools
        its biased pre-activation and applies ReLU to the pooled vectors
        only.  Without a cache the pool is a plain ``max``; with one it
        reads each channel at its first-maximum point and caches those
        ``argmax`` indices, the critical points the backward pass runs on.
        """
        for i in layers:
            z = h @ self.params[f"W{i}"]
            z += self.params[f"b{i}"]
            if i == _POOL_AFTER:
                if cache is None:
                    z = z.max(axis=1)
                else:
                    # argmax over a non-last axis copies its input, so it
                    # runs one cloud at a time
                    argmax = np.empty((z.shape[0], z.shape[2]), dtype=np.intp)
                    for cloud, out in zip(z, argmax):
                        np.argmax(cloud, axis=0, out=out)
                    z = np.take_along_axis(z, argmax[:, None, :], axis=1)[:, 0]
                    cache["argmax"] = argmax
            if i < len(_LAYER_DIMS) - 1:
                np.maximum(z, 0.0, out=z)
            if cache is not None:
                cache["acts"].append(z)
            h = z
        return h

    def _predict(self, X) -> np.ndarray:
        """Predictions for checked clouds, holding one batch's activations.

        The per-point layers and the pool run on ``config.batch_size``
        clouds at a time; the head then runs once on all pooled vectors.
        The per-point products are one GEMM per cloud, so chunking them
        changes no bits, whereas BLAS rounds a 2-D product by its row
        count (a one-row chunk goes through gemv), so the head is not
        chunked.  Predictions equal a full-set pass bit for bit.
        """
        size = self.config.batch_size
        encoder = range(_POOL_AFTER + 1)
        # an empty set still runs one (empty) chunk, so the result is (0,)
        pooled = np.concatenate([
            self._forward(X[start : start + size], layers=encoder)
            for start in range(0, max(X.shape[0], 1), size)
        ])
        head = range(_POOL_AFTER + 1, len(_LAYER_DIMS))
        return self._forward(pooled, layers=head)[:, 0]

    def predict(self, X) -> np.ndarray:
        """Predict one scalar per cloud; accepts a single cloud too."""
        return self._predict(_check_clouds(X))

    def loss_and_gradients(self, X, y):
        """Mean squared error over the batch and its parameter gradients.

        The head backpropagates densely on the pooled vectors.  Below the
        pool only each cloud's critical points (the distinct argmax rows
        of its channels) receive a gradient, so the per-point layers
        backpropagate on those R rows alone, gathered from the cached
        activations: no (clouds, points, channels) gradient is built.
        """
        X = _check_clouds(X)
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape[0] != X.shape[0]:
            raise ShapeMismatch(f"{X.shape[0]} clouds but {y.shape[0]} targets")
        cache = {"acts": [X]}
        out = self._forward(X, cache)[:, 0]
        err = out - y
        loss = float(np.mean(err**2))
        grads = {}
        # d loss / d output, padded back to the (n, 1) layer shape
        delta = (2.0 / y.size) * err[:, None]
        acts = cache["acts"]
        for i in reversed(range(_POOL_AFTER + 1, len(_LAYER_DIMS))):
            grads[f"W{i}"] = acts[i].T @ delta
            grads[f"b{i}"] = delta.sum(axis=0)
            delta = delta @ self.params[f"W{i}"].T
            delta *= acts[i] > 0.0
        # delta is d loss / d pooled pre-activation; each (cloud, channel)
        # sends it to one critical row, and owns that row's cell alone
        n_clouds, n_points = X.shape[:2]
        keys = cache["argmax"] + n_points * np.arange(n_clouds)[:, None]
        rows, slot = np.unique(keys, return_inverse=True)
        channels = np.arange(keys.shape[1])
        delta_rows = np.zeros((rows.size, keys.shape[1]))
        delta_rows[slot.reshape(keys.shape), channels] = delta
        for i in reversed(range(_POOL_AFTER + 1)):
            a_in = acts[i].reshape(-1, acts[i].shape[2])[rows]
            grads[f"W{i}"] = a_in.T @ delta_rows
            grads[f"b{i}"] = delta_rows.sum(axis=0)
            if i > 0:
                delta_rows = delta_rows @ self.params[f"W{i}"].T
                delta_rows *= a_in > 0.0
        return loss, grads

    # flat views for finite-difference probing and serialization

    def parameter_vector(self) -> np.ndarray:
        return np.concatenate(
            [self.params[k].ravel() for k in self._key_order()]
        )

    def set_parameter_vector(self, vec):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.n_parameters,):
            raise ShapeMismatch(
                f"expected {self.n_parameters} parameters, got {vec.shape}"
            )
        pos = 0
        for k in self._key_order():
            size = self.params[k].size
            self.params[k] = vec[pos : pos + size].reshape(self.params[k].shape)
            pos += size

    @staticmethod
    def _key_order():
        return [f"{kind}{i}" for i in range(len(_LAYER_DIMS)) for kind in "Wb"]


def fit_pointnet_mini(
    train_clouds,
    train_y,
    val_clouds=None,
    val_y=None,
    config: PointNetConfig | None = None,
) -> PointNetMini:
    """Train the network and return it with the best-validation weights.

    Without an explicit validation set the training set doubles as one,
    which turns early stopping into plain convergence detection.  The
    returned model's ``history`` records per-epoch train and validation
    MSE plus the epoch whose weights were kept.  Each epoch's train and
    validation MSE is evaluated in chunks of ``config.batch_size`` clouds,
    bit-identical to a single pass over the whole set.
    """
    config = config or PointNetConfig()
    X = _check_clouds(train_clouds)
    y = np.asarray(train_y, dtype=float).reshape(-1)
    if y.shape[0] != X.shape[0]:
        raise ShapeMismatch(f"{X.shape[0]} clouds but {y.shape[0]} targets")
    if not np.isfinite(y).all():
        raise ValueError("targets must be finite")
    if (val_clouds is None) != (val_y is None):
        raise ValueError("pass both validation clouds and targets, or neither")
    if val_clouds is None:
        Xv, yv = X, y
    else:
        Xv = _check_clouds(val_clouds)
        yv = np.asarray(val_y, dtype=float).reshape(-1)
        if yv.shape[0] != Xv.shape[0]:
            raise ShapeMismatch(f"{Xv.shape[0]} clouds but {yv.shape[0]} targets")

    rng = np.random.default_rng(config.seed)
    model = PointNetMini(_init_params(rng), config=config)
    m_state = {k: np.zeros_like(v) for k, v in model.params.items()}
    v_state = {k: np.zeros_like(v) for k, v in model.params.items()}
    step = 0

    def evaluate(Xe, ye):
        return float(np.mean((model._predict(Xe) - ye) ** 2))

    best_val = np.inf
    best_params = {k: v.copy() for k, v in model.params.items()}
    best_epoch = -1
    stale = 0
    train_path = []
    val_path = []
    n = X.shape[0]
    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grads = model.loss_and_gradients(X[batch], y[batch])
            if not np.isfinite(loss):
                raise NonFiniteLoss(
                    f"loss became {loss} at epoch {epoch}, "
                    f"batch starting at {start}"
                )
            step += 1
            bc1 = 1.0 - config.beta1**step
            bc2 = 1.0 - config.beta2**step
            for k, g in grads.items():
                m_state[k] = config.beta1 * m_state[k] + (1.0 - config.beta1) * g
                v_state[k] = config.beta2 * v_state[k] + (1.0 - config.beta2) * g * g
                model.params[k] -= (
                    config.learning_rate
                    * (m_state[k] / bc1)
                    / (np.sqrt(v_state[k] / bc2) + config.epsilon)
                )
        train_path.append(evaluate(X, y))
        val_path.append(evaluate(Xv, yv))
        if val_path[-1] < best_val:
            best_val = val_path[-1]
            best_params = {k: v.copy() for k, v in model.params.items()}
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    model.params = best_params
    model.history = {
        "train_mse": tuple(train_path),
        "val_mse": tuple(val_path),
        "best_epoch": best_epoch,
        "best_val_mse": best_val,
    }
    return model
