"""The point network as it trained before evaluation ran in chunks.

``ReferencePointNet._forward``, ``predict`` and ``loss_and_gradients`` and
``fit_pointnet_mini`` are ``pkwbench.surrogates.pointnet`` as it was before
its layers ran in place, the pool read its values at the argmax and
evaluation ran in batch-sized chunks, copied unchanged except that the
reference fit builds a ``ReferencePointNet``.  Its backward pass is dense:
it scatters the pooled gradient into a full (clouds, points, channels)
array and backpropagates every point.  The differential tests in
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


class ReferencePointNet(PointNetMini):
    """Full-set forward pass, full-size pool mask and max reduction."""

    def _forward(self, X, need_cache=False):
        h = X
        cache = {"acts": [X]}
        for i in range(len(_LAYER_DIMS)):
            z = h @ self.params[f"W{i}"] + self.params[f"b{i}"]
            last = i == len(_LAYER_DIMS) - 1
            h = z if last else np.maximum(z, 0.0)
            if need_cache:
                cache[f"mask{i}"] = None if last else z > 0.0
            if i == _POOL_AFTER:
                # first-maximum argmax keeps tie routing deterministic
                cache["argmax"] = np.argmax(h, axis=1)
                cache["pre_pool_shape"] = h.shape
                h = np.max(h, axis=1)
            if need_cache:
                cache["acts"].append(h)
        return h[:, 0], cache

    def predict(self, X) -> np.ndarray:
        """Predict one scalar per cloud; accepts a single cloud too."""
        X = _check_clouds(X)
        out, _ = self._forward(X)
        return out

    def loss_and_gradients(self, X, y):
        """Mean squared error over the batch and its parameter gradients."""
        X = _check_clouds(X)
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape[0] != X.shape[0]:
            raise ShapeMismatch(f"{X.shape[0]} clouds but {y.shape[0]} targets")
        out, cache = self._forward(X, need_cache=True)
        err = out - y
        loss = float(np.mean(err**2))
        grads = {}
        # d loss / d output, padded back to the (n, 1) layer shape
        delta = (2.0 / y.size) * err[:, None]
        acts = cache["acts"]
        for i in reversed(range(len(_LAYER_DIMS))):
            a_in = acts[i]
            if i == _POOL_AFTER + 1:
                # route the pooled gradient back to the winning points
                pooled_grad = delta @ self.params[f"W{i}"].T
                a_in_flat = a_in
                grads[f"W{i}"] = a_in_flat.T @ delta
                grads[f"b{i}"] = delta.sum(axis=0)
                delta = np.zeros(cache["pre_pool_shape"])
                np.put_along_axis(
                    delta, cache["argmax"][:, None, :], pooled_grad[:, None, :], axis=1
                )
                delta *= cache[f"mask{i - 1}"]
                continue
            if a_in.ndim == 3:
                flat_in = a_in.reshape(-1, a_in.shape[2])
                flat_delta = delta.reshape(-1, delta.shape[2])
            else:
                flat_in = a_in
                flat_delta = delta
            grads[f"W{i}"] = flat_in.T @ flat_delta
            grads[f"b{i}"] = flat_delta.sum(axis=0)
            if i > 0:
                delta = delta @ self.params[f"W{i}"].T
                if i - 1 != _POOL_AFTER:
                    delta = delta * cache[f"mask{i - 1}"]
        return loss, grads


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
    MSE plus the epoch whose weights were kept.
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
    model = ReferencePointNet(_init_params(rng), config=config)
    m_state = {k: np.zeros_like(v) for k, v in model.params.items()}
    v_state = {k: np.zeros_like(v) for k, v in model.params.items()}
    step = 0

    def evaluate(Xe, ye):
        pred, _ = model._forward(Xe)
        return float(np.mean((pred - ye) ** 2))

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
