"""Slow, plain versions of the point network, for differential tests.

``PairwisePointNet`` is the network written the direct way.  Every pair's
cloud is encoded on its own, with no grouping of equal clouds: the
per-point layers are one row-major product per layer over the whole batch,
and every per-point activation is cached.  The head runs on one row at a
time, each output summed as the bias, then input 0, 1, ... in turn, with
the pair's q the last input of layer 3.  Its backward pass is dense: it
scatters each pair's pooled gradient into a full (pairs, points, channels)
array and backpropagates every point.  It takes ``(n, points, 4)`` arrays
only.

``RowMajorPointNet._encode`` is the encoder as it was before it ran
channels first in blocks of points: each cloud's per-point layers are one
row-major product per layer over all of its points, and the pool reduces
the (points, 128) pre-activation along its strided point axis.

``fit_pointnet_mini`` is the training loop, copied unchanged except that it
builds and evaluates the pairwise network.  The differential tests in
``test_pointnet.py`` require the production network to return the same
losses and predictions bit for bit, and the same gradients, and the
parameters and histories a fit derives from them, up to reassociation of
float64 sums.
"""

import numpy as np

from pkwbench.errors import NonFiniteLoss, ShapeMismatch
from pkwbench.surrogates.pointnet import (
    _LAYER_DIMS,
    _POOL_AFTER,
    PointNetConfig,
    PointNetMini,
    _check_clouds,
    _init_params,
)


class PairwisePointNet(PointNetMini):
    """Every pair encoded on its own, the head one row at a time."""

    def _head_row(self, pooled, q):
        """One pair's hidden layer and prediction, summed in the fixed order."""
        W3, b3, W4, b4 = (self.params[k] for k in ("W3", "b3", "W4", "b4"))
        inputs = np.append(np.maximum(pooled, 0.0), q)
        hidden = b3.copy()
        for j in range(inputs.size):
            hidden += inputs[j] * W3[j]
        hidden = np.maximum(hidden, 0.0)
        out = b4.copy()
        for j in range(hidden.size):
            out += hidden[j] * W4[j]
        return inputs, hidden, out[0]

    def _forward(self, X):
        """Per-point activations of every pair, the pool and the head rows."""
        acts = [X[:, :, :3]]
        for i in range(_POOL_AFTER + 1):
            z = acts[-1] @ self.params[f"W{i}"] + self.params[f"b{i}"]
            acts.append(np.maximum(z, 0.0) if i < _POOL_AFTER else z)
        pre_pool = acts[-1]
        # first-maximum argmax keeps tie routing deterministic
        argmax = np.argmax(pre_pool, axis=1)
        pooled = np.take_along_axis(pre_pool, argmax[:, None, :], axis=1)[:, 0]
        rows = [self._head_row(p, x[0, 3]) for p, x in zip(pooled, X)]
        return acts, argmax, rows

    def predict(self, X) -> np.ndarray:
        """Predict one scalar per pair; accepts a single cloud too."""
        _, _, rows = self._forward(_check_clouds(X))
        return np.array([out for _, _, out in rows])

    def loss_and_gradients(self, X, y):
        """Mean squared error over the batch and its parameter gradients."""
        X = _check_clouds(X)
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape[0] != X.shape[0]:
            raise ShapeMismatch(f"{X.shape[0]} clouds but {y.shape[0]} targets")
        acts, argmax, rows = self._forward(X)
        err = np.array([out for _, _, out in rows]) - y
        loss = float(np.mean(err**2))
        grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        W3, W4 = self.params["W3"], self.params["W4"]
        # d loss / d pooled pre-activation, one row per pair
        pooled_grad = np.zeros((X.shape[0], W3.shape[0] - 1))
        for k, ((inputs, hidden, _), e) in enumerate(zip(rows, err)):
            d_out = 2.0 / y.size * e
            grads["W4"][:, 0] += hidden * d_out
            grads["b4"][0] += d_out
            d_hidden = W4[:, 0] * d_out * (hidden > 0.0)
            grads["W3"] += np.outer(inputs, d_hidden)
            grads["b3"] += d_hidden
            pooled_grad[k] = (W3[:-1] @ d_hidden) * (inputs[:-1] > 0.0)
        # route each pair's pooled gradient back to its winning points
        delta = np.zeros(acts[-1].shape)
        np.put_along_axis(delta, argmax[:, None, :], pooled_grad[:, None, :], axis=1)
        for i in reversed(range(_POOL_AFTER + 1)):
            flat_in = acts[i].reshape(-1, acts[i].shape[2])
            flat_delta = delta.reshape(-1, delta.shape[2])
            grads[f"W{i}"] = flat_in.T @ flat_delta
            grads[f"b{i}"] = flat_delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.params[f"W{i}"].T) * (acts[i] > 0.0)
        return loss, grads


class RowMajorPointNet(PointNetMini):
    """Row-major per-point layers over whole clouds, pooled along axis 0."""

    def _encode(self, clouds, critical=False):
        """Pooled layer-2 pre-activations of each of ``clouds``, ``(n, 128)``.

        The per-point layers run one cloud at a time.  With ``critical``
        each channel is read at its first-maximum point, and those
        ``argmax`` indices come back too; otherwise the pool is a plain
        ``max`` and the second value is ``None``.
        """
        width = _LAYER_DIMS[_POOL_AFTER][1]
        pooled = np.empty((len(clouds), width))
        argmax = np.empty((len(clouds), width), dtype=np.intp) if critical else None
        channels = np.arange(width)
        for c, h in enumerate(clouds):
            h = np.asarray(h, dtype=float)
            for i in range(_POOL_AFTER + 1):
                z = h @ self.params[f"W{i}"]
                z += self.params[f"b{i}"]
                if i < _POOL_AFTER:
                    np.maximum(z, 0.0, out=z)
                h = z
            if critical:
                np.argmax(z, axis=0, out=argmax[c])
                pooled[c] = z[argmax[c], channels]
            else:
                np.max(z, axis=0, out=pooled[c])
        return pooled, argmax


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
    MSE, the epoch whose weights were kept and the points per cloud.
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
    model = PairwisePointNet(_init_params(rng), config=config)
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
        train_path.append(sse / n if n else np.nan)
        val_path.append(float(np.mean((model.predict(Xv) - yv) ** 2)))
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
