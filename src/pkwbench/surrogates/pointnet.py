"""Tiny point-set regression network with hand-written backprop.

Each input is a (geometry, discharge) pair.  The encoder lifts every point
of the geometry's cloud independently (widths 3 -> 64 -> 64 -> 128 on the
unit-cube coordinates x, y, z), and a max pool over the point axis
collapses the cloud to one 128-vector, the geometry's shape code
(PointNet's global feature: Qi et al., "PointNet", CVPR 2017).  The
discharge joins after the pool: a small head maps [ReLU(pool), q] through
129 -> 64 -> 1 to the scalar target, where q is the discharge min-max scaled
over the 50..250 l/s range.  Because the pool is symmetric in its inputs,
predictions are exactly invariant to point order.

The pairs of one geometry differ only in q, so the network's input is
``PairClouds``: each geometry's cloud once, and per pair the index of its
cloud and its q.  Every pass (a training step, validation, prediction)
encodes each distinct cloud it meets once, and the head runs per pair on
its cloud's pooled vector.  An ``(n, points, 4)`` array of (x, y, z, q)
points is accepted too: equal clouds are grouped by their bytes as it is
read, one cloud at a time and without a copy of the set, and channel 3 must
be constant within a cloud.

The encoder runs the per-point layers channels first, as ``W.T @ x.T``, on
one block of at most 1,024 points of one cloud at a time, widening the
block to float64 (exact from float32 clouds), pools each block along
contiguous channel rows and merges that into the cloud's running pool.  The
merge keeps the first maximum and lets a NaN win, as one pool over the whole
cloud does.  On the OpenBLAS this was measured with, the result is
bit-identical to one row-major pass over the whole cloud, which the tests
check.  Per-point memory is bounded by one block, not by the cloud, the
batch or the set size.

The head sums each output in one fixed order, the bias first and then its
inputs in turn, so a pair's prediction does not depend on the other rows of
the call: a BLAS product would round by its row count.  The first head
layer's sum over the pooled vector is made once per cloud and q's term is
added per pair, in that same order.

The max pool passes gradient to one point per (cloud, channel): the
channel's first-maximum point.  A cloud's distinct such points are its
critical points, a few dozen of several hundred on real clouds, and they
alone fix the pooled vector.  A pair's gradient reaches its cloud's pooled
vector, which sums it over the cloud's pairs in the batch.  A training step
keeps the pooled vectors and those ``argmax`` rows, recomputes layers 0 and
1 on the critical rows alone, a block of rows at a time, and backpropagates
on them; it caches no per-point activation and builds no per-point
gradient.

Training is plain minibatch Adam on the mean squared error with early
stopping on a validation set; the weights that scored the best validation
MSE are the ones the fitted model keeps.  Each epoch shuffles the pairs and
cuts them into batches of ``batch_size``; a step encodes each distinct
cloud of its batch once.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from ..errors import NonFiniteLoss, ShapeMismatch

__all__ = [
    "PairClouds",
    "PointNetConfig",
    "PointNetMini",
    "attach_discharge",
    "fit_pointnet_mini",
    "normalize_discharge",
]

_LAYER_DIMS = ((3, 64), (64, 64), (64, 128), (129, 64), (64, 1))
_POOL_AFTER = 2  # index of the last per-point layer
_POINT_BLOCK = 1024  # points per encoder pass; bounds the per-point scratch
_CLOUD_BLOCK = 32  # clouds per prediction pass; bounds the pooled scratch
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
class PairClouds:
    """The network's input: each cloud once, and per pair its cloud and q.

    ``clouds`` is ``(n_clouds, n_points, 3)``, float32 or float64; ``index``
    holds each pair's row of ``clouds`` and ``qhat`` its normalized
    discharge (:func:`normalize_discharge`).  Clouds no pair names are never
    read.
    """

    clouds: np.ndarray
    index: np.ndarray
    qhat: np.ndarray

    def take(self, rows) -> PairClouds:
        """The pairs at ``rows``, over the same clouds."""
        return PairClouds(self.clouds, self.index[rows], self.qhat[rows])


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
    if X.ndim != 3 or X.shape[2] != 4:
        raise ShapeMismatch(f"expected (n, points, 4) input, got {X.shape}")
    if X.shape[1] == 0:
        raise ShapeMismatch("clouds must contain at least one point")
    # the extremes are NaN or infinite if any value is, and need no
    # temporary the size of the clouds
    if X.size and not np.isfinite([X.min(), X.max()]).all():
        raise ValueError("cloud features must be finite")
    return X


def _same_bytes(a, b):
    """Whether two clouds hold the same bytes, read a block of points at a time."""
    return all(a[s : s + _POINT_BLOCK].tobytes() == b[s : s + _POINT_BLOCK].tobytes()
               for s in range(0, a.shape[0], _POINT_BLOCK))


def _group_clouds(X) -> PairClouds:
    """``PairClouds`` over a checked ``(n, points, 4)`` array, sharing its memory.

    A pair's cloud is its (x, y, z) channels; pairs whose clouds have equal
    bytes share the first one's index.  Each cloud is read on its own, a
    block of points at a time: its bytes are hashed to find earlier
    candidates, and a candidate counts only if its bytes are equal.
    Channel 3 must be constant within a cloud.
    """
    xyz = X[:, :, :3]
    index = np.empty(X.shape[0], dtype=np.intp)
    qhat = np.empty(X.shape[0])
    seen: dict[bytes, list[int]] = {}
    for i, cloud in enumerate(xyz):
        channel = X[i, :, 3]
        if not (channel == channel[0]).all():
            raise ShapeMismatch(f"the discharge channel of cloud {i} is not constant")
        qhat[i] = channel[0]
        digest = hashlib.blake2b(digest_size=16)
        for s in range(0, cloud.shape[0], _POINT_BLOCK):
            digest.update(cloud[s : s + _POINT_BLOCK].tobytes())
        firsts = seen.setdefault(digest.digest(), [])
        index[i] = next((j for j in firsts if _same_bytes(xyz[j], cloud)), i)
        if index[i] == i:
            firsts.append(i)
    return PairClouds(xyz, index, qhat)


def _as_pairs(X) -> PairClouds:
    """Checked ``PairClouds`` from either input form."""
    if not isinstance(X, PairClouds):
        return _group_clouds(_check_clouds(X))
    clouds = np.asarray(X.clouds)
    if clouds.ndim != 3 or clouds.shape[2] != 3:
        raise ShapeMismatch(f"expected (n, points, 3) clouds, got {clouds.shape}")
    if clouds.shape[1] == 0:
        raise ShapeMismatch("clouds must contain at least one point")
    index = np.asarray(X.index).reshape(-1)
    qhat = np.asarray(X.qhat, dtype=float).reshape(-1)
    if qhat.shape != index.shape:
        raise ShapeMismatch(f"{index.size} pairs but {qhat.size} discharge values")
    if index.size and (not np.issubdtype(index.dtype, np.integer)
                       or index.min() < 0 or index.max() >= clouds.shape[0]):
        raise ShapeMismatch(f"pair indices must name one of {clouds.shape[0]} clouds")
    # only the clouds a pair names are read, one at a time
    if not np.isfinite(qhat).all() or not all(
            np.isfinite([clouds[g].min(), clouds[g].max()]).all()
            for g in np.unique(index)):
        raise ValueError("cloud features must be finite")
    return PairClouds(clouds, index.astype(np.intp, copy=False), qhat)


def _rows_affine(a, W, b):
    """``a @ W + b``, each output summed in one fixed order: the bias, then
    input 0, 1, ... in turn.  So a row's values do not depend on the other
    rows, as they would through BLAS, which rounds by the row count."""
    z = np.repeat(b[None], a.shape[0], axis=0)
    term = np.empty_like(z)
    for a_j, w_j in zip(a.T, W):
        np.multiply(a_j[:, None], w_j, out=term)
        z += term
    return z


class PointNetMini:
    """Fitted network; construct through :func:`fit_pointnet_mini`.

    Instances are also buildable directly from a parameter dict, which is
    what deserialization and the tests' finite-difference probes use.  The
    model keeps the float64 arrays it is given, not copies of them, so a
    later change to one of them changes its weights.
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
        self.params = {k: np.asarray(v, dtype=float) for k, v in params.items()}
        self.config = config or PointNetConfig()
        self.history = history or {}

    @property
    def n_parameters(self) -> int:
        return sum(v.size for v in self.params.values())

    def _layer(self, i, h):
        """Per-point layer ``i`` applied to ``h``: product, bias and ReLU."""
        z = h @ self.params[f"W{i}"]
        z += self.params[f"b{i}"]
        np.maximum(z, 0.0, out=z)
        return z

    def _encode(self, clouds, critical=False):
        """Pooled layer-2 pre-activations of each of ``clouds``, ``(n, 128)``.

        ``clouds`` is a sequence of ``(points, 3)`` arrays of one size.  The
        per-point layers run channels first, one cloud and one block of at
        most ``_POINT_BLOCK`` points at a time: a block is widened into a
        float64 buffer, its input is ``h = x.T`` and each layer is ``W.T @
        h`` plus its bias as a column, written in place into scratch sized
        for one block.  So memory is bounded by one block whatever the
        cloud size.  Each activation is one dot product, and on the OpenBLAS
        this was measured with it comes out bit for bit as from a row-major
        ``x @ W`` over the whole cloud; BLAS does not promise that, so the
        tests compare against that encoder.  ReLU is monotone and commutes
        with the pool, so the pool reads the biased pre-activation and the
        head applies the ReLU to the pooled vectors only.

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
        n_clouds = len(clouds)
        n_points = clouds[0].shape[0] if n_clouds else 0
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
        points = np.empty((block, _LAYER_DIMS[0][0]))
        # layers alternate between two flat buffers, viewed as contiguous
        # (channels, points) blocks so that matmul writes into them in
        # place; the pooled layer overwrites layer 0's output, which layer
        # 1 has consumed by then
        scratch = np.empty(width * block), np.empty(_LAYER_DIMS[1][1] * block)
        for c, cloud in enumerate(clouds):
            top, first = pooled[c], argmax[c if critical else 0]
            for start in range(0, n_points, block):
                start = max(min(start, n_points - 2), 0)
                x = points[: min(block, n_points - start)]
                x[...] = cloud[start : start + block]
                h = x.T
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

    def _head(self, pooled, local, qhat):
        """Head activations of pairs whose clouds' pooled pre-activations are
        ``pooled``, pair ``k`` on row ``local[k]``: the ReLU'd pooled vectors
        (in place), each pair's hidden layer, and its ``(n, 1)`` prediction.

        Layer 3's sum over the pooled channels is made once per cloud; each
        pair then adds its q term last, as the fixed order has it."""
        pooled = np.maximum(pooled, 0.0, out=pooled)
        W3, b3 = self.params["W3"], self.params["b3"]
        hidden = _rows_affine(pooled, W3[:-1], b3)[local]
        hidden += qhat[:, None] * W3[-1]
        np.maximum(hidden, 0.0, out=hidden)
        return [pooled, hidden, _rows_affine(hidden, self.params["W4"], self.params["b4"])]

    def _predict(self, pairs) -> np.ndarray:
        """Predictions for checked pairs, each cloud encoded once.

        The clouds run ``_CLOUD_BLOCK`` at a time, each block's pairs
        through the head before the next block, so memory is bounded by
        one block of pooled vectors and the per-pair outputs.  The head is
        row-invariant, so blocking changes no bits.
        """
        names, local = np.unique(pairs.index, return_inverse=True)
        order = np.argsort(local, kind="stable")
        # the pairs of clouds [a, b) are order[first[a]:first[b]]
        first = np.searchsorted(local[order], np.arange(names.size + 1))
        out = np.empty(local.size)
        for a in range(0, names.size, _CLOUD_BLOCK):
            b = min(a + _CLOUD_BLOCK, names.size)
            rows = order[first[a] : first[b]]
            pooled, _ = self._encode([pairs.clouds[g] for g in names[a:b]])
            out[rows] = self._head(pooled, local[rows] - a, pairs.qhat[rows])[-1][:, 0]
        return out

    def predict(self, X) -> np.ndarray:
        """Predict one scalar per pair: ``X`` is ``PairClouds`` or an
        ``(n, points, 4)`` array; a single ``(points, 4)`` cloud is one pair."""
        return self._predict(_as_pairs(X))

    def loss_and_gradients(self, X, y):
        """Mean squared error over the pairs and its parameter gradients.

        The forward pass encodes each distinct cloud once and keeps only the
        pooled vectors and their argmax rows.  The head backpropagates
        densely; each cloud's pooled gradient is the sum of its pairs'.
        Below the pool only each cloud's critical points (the distinct
        argmax rows of its channels) receive a gradient, so layers 0 and 1
        are recomputed on those R rows alone and the per-point layers
        backpropagate on them: no per-point activation is cached and no
        (clouds, points, channels) gradient is built.
        """
        pairs = _as_pairs(X)
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape != pairs.index.shape:
            raise ShapeMismatch(f"{pairs.index.size} pairs but {y.size} targets")
        names, local = np.unique(pairs.index, return_inverse=True)
        pooled, argmax = self._encode([pairs.clouds[g] for g in names], critical=True)
        relu_pooled, hidden, out = self._head(pooled, local, pairs.qhat)
        err = out[:, 0] - y
        loss = float(np.mean(err**2))
        W3, W4 = self.params["W3"], self.params["W4"]
        # d loss / d output, padded back to the (n, 1) layer shape
        delta = (2.0 / y.size) * err[:, None]
        grads = {"W4": hidden.T @ delta, "b4": delta.sum(axis=0)}
        delta = delta @ W4.T
        delta *= hidden > 0.0
        # each cloud's layer-3 input is shared by its pairs: sum their deltas
        per_cloud = np.zeros((names.size, delta.shape[1]))
        np.add.at(per_cloud, local, delta)
        grads["W3"] = np.vstack([relu_pooled.T @ per_cloud, pairs.qhat @ delta])
        grads["b3"] = delta.sum(axis=0)
        delta = per_cloud @ W3[:-1].T
        delta *= relu_pooled > 0.0
        # delta is d loss / d pooled pre-activation; each (cloud, channel)
        # sends it to one critical row, and owns that row's cell alone.  The
        # rows run a block of ``_POINT_BLOCK`` at a time, so their scratch
        # is bounded by a block however many points win a channel
        n_points = pairs.clouds.shape[1]
        keys = argmax + n_points * np.arange(names.size)[:, None]
        rows, slot = np.unique(keys, return_inverse=True)
        slot = slot.reshape(keys.shape)
        channels = np.broadcast_to(np.arange(keys.shape[1]), keys.shape)
        for i in range(_POOL_AFTER + 1):
            grads[f"W{i}"] = np.zeros(_LAYER_DIMS[i])
            grads[f"b{i}"] = np.zeros(_LAYER_DIMS[i][1])
        for start in range(0, rows.size, _POINT_BLOCK):
            block = rows[start : start + _POINT_BLOCK]
            mine = (slot >= start) & (slot < start + block.size)
            delta_rows = np.zeros((block.size, keys.shape[1]))
            delta_rows[slot[mine] - start, channels[mine]] = delta[mine]
            a_rows = [np.asarray(pairs.clouds[names[block // n_points], block % n_points],
                                 dtype=float)]
            for i in range(_POOL_AFTER):
                a_rows.append(self._layer(i, a_rows[-1]))
            for i in reversed(range(_POOL_AFTER + 1)):
                grads[f"W{i}"] += a_rows[i].T @ delta_rows
                grads[f"b{i}"] += delta_rows.sum(axis=0)
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

    The clouds are ``PairClouds`` or ``(n, points, 4)`` arrays.  Without an
    explicit validation set the training set doubles as one, which turns
    early stopping into plain convergence detection.  The returned model's
    ``history`` holds one entry per epoch in ``train_mse`` and ``val_mse``,
    the epoch whose weights were kept and its validation MSE, and
    ``points``, the points per training cloud: a caller gives each cloud it
    predicts on that many points.  ``train_mse`` is the mean of the epoch's
    batch losses, weighted by batch size: each loss is taken just before
    its step, so the training set is never re-evaluated.  ``val_mse`` is
    evaluated after the epoch's last step, since it decides early stopping.
    """
    config = config or PointNetConfig()
    pairs = _as_pairs(train_clouds)
    y = np.asarray(train_y, dtype=float).reshape(-1)
    if y.shape != pairs.index.shape:
        raise ShapeMismatch(f"{pairs.index.size} pairs but {y.size} targets")
    if not np.isfinite(y).all():
        raise ValueError("targets must be finite")
    if (val_clouds is None) != (val_y is None):
        raise ValueError("pass both validation clouds and targets, or neither")
    if val_clouds is None:
        val, yv = pairs, y
    else:
        val = _as_pairs(val_clouds)
        yv = np.asarray(val_y, dtype=float).reshape(-1)
        if yv.shape != val.index.shape:
            raise ShapeMismatch(f"{val.index.size} pairs but {yv.size} targets")

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
    n = y.size
    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        sse = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grads = model.loss_and_gradients(pairs.take(batch), y[batch])
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
        val_path.append(float(np.mean((model._predict(val) - yv) ** 2)))
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
        "points": pairs.clouds.shape[1],
    }
    return model
