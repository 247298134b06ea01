"""Earlier versions of the point network, for differential tests.

``ReferencePointNet._forward``, ``predict`` and ``loss_and_gradients`` are
``pkwbench.surrogates.pointnet`` as it was before its layers ran in place,
the pool read its values at the argmax and evaluation ran in batch-sized
chunks.  Its backward pass is dense: it scatters the pooled gradient into a
full (clouds, points, channels) array and backpropagates every point.

``CachedPointNet._forward``, ``_predict`` and ``loss_and_gradients`` are the
network as it was before the encoder ran one cloud at a time: a training
step caches every per-point activation of the batch, and the backward pass
gathers the critical rows from that cache instead of recomputing them.

``RowMajorPointNet._encode`` is the encoder as it was before it ran
channels first in blocks of points: each cloud's per-point layers are one
row-major product per layer over all of its points, and the pool reduces
the (points, 128) pre-activation along its strided point axis.

``fit_pointnet_mini`` is the training loop, copied unchanged except that it
builds the ``network`` class it is given, evaluates through that class's
``predict``, and records ``train_mse`` as the size-weighted mean of the
epoch's batch losses, as the production loop does; the training loop before
that re-evaluated the whole training set each epoch, which changes no
weight.  The differential tests in ``test_pointnet.py`` require the
production network to return the same losses and predictions bit for bit,
and the same gradients, and the parameters and histories a fit derives from
them, up to reassociation of float64 sums.
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


class CachedPointNet(PointNetMini):
    """Batch-sized evaluation chunks; a training step caches activations."""

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


class RowMajorPointNet(PointNetMini):
    """Row-major per-point layers over whole clouds, pooled along axis 0."""

    def _encode(self, X, critical=False):
        """Pooled layer-2 pre-activations of checked clouds, ``(n, 128)``.

        The per-point layers run one cloud at a time.  With ``critical``
        each channel is read at its first-maximum point, and those
        ``argmax`` indices come back too; otherwise the pool is a plain
        ``max`` and the second value is ``None``.
        """
        width = _LAYER_DIMS[_POOL_AFTER][1]
        pooled = np.empty((X.shape[0], width))
        argmax = np.empty((X.shape[0], width), dtype=np.intp) if critical else None
        channels = np.arange(width)
        for c, h in enumerate(X):
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
    network=ReferencePointNet,
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
    model = network(_init_params(rng), config=config)
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
