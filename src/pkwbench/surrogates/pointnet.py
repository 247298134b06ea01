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

Every per-point pass (a training step's forward pass, validation and
prediction) goes through one encoder.  It runs the per-point layers
channels first, as ``W.T @ x.T``, on one block of at most 1,024 points of
one cloud at a time, pools each block along contiguous channel rows and
merges that into the cloud's running pool, and keeps only the pooled
vectors; the head then runs on all of them at once.  The merge keeps the
first maximum and lets a NaN win, as one pool over the whole cloud does.
On the OpenBLAS this was measured with, the result is bit-identical to one
row-major pass over the whole set, which the tests check.  Per-point
memory is bounded by one block, not by the cloud, the batch or the set
size.

The max pool passes gradient to one point per (cloud, channel): the
channel's first-maximum point.  A cloud's distinct such points are its
critical points, a few dozen of several hundred on real clouds, and they
alone fix the pooled vector (Qi et al., "PointNet", CVPR 2017).  A training
step keeps the pooled vectors and those ``argmax`` rows, recomputes layers
0 and 1 on the critical rows alone and backpropagates on them; it caches no
per-point activation and builds no per-point gradient.  Prediction and
validation read the same pooled values and drop the ``argmax`` rows.
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
_POINT_BLOCK = 1024  # points per encoder pass; bounds the per-point scratch
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
    # the extremes are NaN or infinite if any value is, and need no
    # temporary the size of the clouds
    if X.size and not np.isfinite([X.min(), X.max()]).all():
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

    def _layer(self, i, h, relu=True):
        """Layer ``i`` applied to ``h``: product, bias and ReLU in place."""
        z = h @ self.params[f"W{i}"]
        z += self.params[f"b{i}"]
        if relu:
            np.maximum(z, 0.0, out=z)
        return z

    def _encode(self, X, critical=False):
        """Pooled layer-2 pre-activations of checked clouds, ``(n, 128)``.

        The per-point layers run channels first, one cloud and one block of
        at most ``_POINT_BLOCK`` points at a time: a block's input is
        ``h = x.T`` and each layer is ``W.T @ h`` plus its bias as a column,
        written in place into scratch sized for one block.  So memory is
        bounded by one block whatever the cloud size.  Each activation is
        one dot product, and on the OpenBLAS this was measured with it
        comes out bit for bit as from a row-major ``x @ W`` over the whole
        cloud; BLAS does not promise that, so the tests compare against
        that encoder.  ReLU is monotone and commutes with the pool, so the
        pool reads the biased pre-activation and the head applies the ReLU
        to the pooled vectors only.

        Each block is pooled along its contiguous channel rows, each
        channel read at its block's first-maximum point, and merged into
        the cloud's running pool: a later block takes a channel only on a
        strictly greater value, or on a NaN where the running value is not
        NaN.  So the first maximum wins and the first NaN poisons the
        channel, as ``np.argmax`` and ``np.max`` over the whole cloud have
        it.  With ``critical`` those ``argmax`` indices, the cloud's
        critical points, come back too; otherwise the second value is
        ``None``.
        """
        n_clouds, n_points = X.shape[:2]
        width = _LAYER_DIMS[_POOL_AFTER][1]
        pooled = np.empty((n_clouds, width))
        # without ``critical`` one argmax row serves every cloud in turn
        argmax = np.empty((n_clouds if critical else 1, width), dtype=np.intp)
        channels = np.arange(width)
        layers = [
            (self.params[f"W{i}"].T, self.params[f"b{i}"][:, None])
            for i in range(_POOL_AFTER + 1)
        ]
        # BLAS computes a one-column product with gemv, which rounds
        # differently from the same column of a wider product, so no block
        # of a multi-point cloud holds one point: blocks hold at least two,
        # and a one-point tail starts a point early, at a point already
        # pooled, whose equal values the merge never takes
        block = min(n_points, max(_POINT_BLOCK, 2))
        # layers alternate between two flat buffers, viewed as contiguous
        # (channels, points) blocks so that matmul writes into them in
        # place; the pooled layer overwrites layer 0's output, which layer
        # 1 has consumed by then
        scratch = np.empty(width * block), np.empty(_LAYER_DIMS[1][1] * block)
        for c in range(n_clouds):
            top, first = pooled[c], argmax[c if critical else 0]
            for start in range(0, n_points, block):
                start = max(min(start, n_points - 2), 0)
                h = X[c, start : start + block].T
                for i, (w, b) in enumerate(layers):
                    z = scratch[i % 2][: w.shape[0] * h.shape[1]]
                    z = z.reshape(w.shape[0], h.shape[1])
                    np.matmul(w, h, out=z)
                    z += b
                    if i < _POOL_AFTER:
                        np.maximum(z, 0.0, out=z)
                    h = z
                if start == 0:
                    np.argmax(z, axis=1, out=first)
                    top[:] = z[channels, first]
                    continue
                at = np.argmax(z, axis=1)
                value = z[channels, at]
                take = ~(value <= top) & ~np.isnan(top)
                top[take] = value[take]
                first[take] = at[take] + start
        return pooled, argmax if critical else None

    def _head(self, pooled):
        """Head activations: the ReLU'd pooled vectors, then each head layer's
        output; the last entry is the ``(n, 1)`` prediction."""
        acts = [np.maximum(pooled, 0.0, out=pooled)]
        for i in range(_POOL_AFTER + 1, len(_LAYER_DIMS)):
            acts.append(self._layer(i, acts[-1], relu=i < len(_LAYER_DIMS) - 1))
        return acts

    def _predict(self, X) -> np.ndarray:
        """Predictions for checked clouds, holding one cloud's activations.

        The head runs once on all pooled vectors: BLAS rounds a 2-D
        product by its row count (a one-row product goes through gemv), so
        running the head per cloud would change bits.  Predictions equal a
        full-set pass bit for bit.
        """
        pooled, _ = self._encode(X)
        return self._head(pooled)[-1][:, 0]

    def predict(self, X) -> np.ndarray:
        """Predict one scalar per cloud; accepts a single cloud too."""
        return self._predict(_check_clouds(X))

    def loss_and_gradients(self, X, y):
        """Mean squared error over the batch and its parameter gradients.

        The forward pass keeps only the pooled vectors and their argmax
        rows.  The head backpropagates densely on the pooled vectors.
        Below the pool only each cloud's critical points (the distinct
        argmax rows of its channels) receive a gradient, so layers 0 and 1
        are recomputed on those R rows alone and the per-point layers
        backpropagate on them: no per-point activation is cached and no
        (clouds, points, channels) gradient is built.
        """
        X = _check_clouds(X)
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape[0] != X.shape[0]:
            raise ShapeMismatch(f"{X.shape[0]} clouds but {y.shape[0]} targets")
        pooled, argmax = self._encode(X, critical=True)
        acts = self._head(pooled)
        err = acts.pop()[:, 0] - y
        loss = float(np.mean(err**2))
        grads = {}
        # d loss / d output, padded back to the (n, 1) layer shape
        delta = (2.0 / y.size) * err[:, None]
        for i in reversed(range(_POOL_AFTER + 1, len(_LAYER_DIMS))):
            a_in = acts[i - _POOL_AFTER - 1]
            grads[f"W{i}"] = a_in.T @ delta
            grads[f"b{i}"] = delta.sum(axis=0)
            delta = delta @ self.params[f"W{i}"].T
            delta *= a_in > 0.0
        # delta is d loss / d pooled pre-activation; each (cloud, channel)
        # sends it to one critical row, and owns that row's cell alone
        n_clouds, n_points = X.shape[:2]
        keys = argmax + n_points * np.arange(n_clouds)[:, None]
        rows, slot = np.unique(keys, return_inverse=True)
        channels = np.arange(keys.shape[1])
        delta_rows = np.zeros((rows.size, keys.shape[1]))
        delta_rows[slot.reshape(keys.shape), channels] = delta
        a_rows = [X.reshape(-1, X.shape[2])[rows]]
        for i in range(_POOL_AFTER):
            a_rows.append(self._layer(i, a_rows[-1]))
        for i in reversed(range(_POOL_AFTER + 1)):
            grads[f"W{i}"] = a_rows[i].T @ delta_rows
            grads[f"b{i}"] = delta_rows.sum(axis=0)
            if i > 0:
                delta_rows = delta_rows @ self.params[f"W{i}"].T
                delta_rows *= a_rows[i] > 0.0
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
    returned model's ``history`` holds one entry per epoch in ``train_mse``
    and ``val_mse``, the epoch whose weights were kept and its validation
    MSE, and ``points``, the points per training cloud: a caller gives each
    cloud it predicts on that many points.  ``train_mse`` is the mean of
    the epoch's batch losses, weighted by batch size: each loss is taken
    just before its step, so the training set is never re-evaluated.
    ``val_mse`` is evaluated after the epoch's last step, since it decides
    early stopping.
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

    best_val = np.inf
    best_params = {k: v.copy() for k, v in model.params.items()}
    best_epoch = -1
    stale = 0
    train_path = []
    val_path = []
    n = X.shape[0]
    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        sse = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grads = model.loss_and_gradients(X[batch], y[batch])
            if not np.isfinite(loss):
                raise NonFiniteLoss(
                    f"loss became {loss} at epoch {epoch}, "
                    f"batch starting at {start}"
                )
            sse += loss * batch.size
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
        # an empty training set records nan, as the mean of no losses
        train_path.append(sse / n if n else np.nan)
        val_path.append(float(np.mean((model._predict(Xv) - yv) ** 2)))
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
        "points": X.shape[1],
    }
    return model
