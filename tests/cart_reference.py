"""Per-node exact CART grower, kept as the reference for the level-wise one.

``_best_split`` and ``_grow`` are the fitter ``pkwbench.surrogates.trees``
used before it grew trees level by level, copied unchanged.  The
differential tests in ``test_surrogates.py`` require the production grower
to return the same node arrays, bit for bit, whenever no random feature
subsets are drawn, once ``level_order`` has renumbered the reference's
preorder-style layout breadth first.  ``fit_gbm`` is the boosting stage loop from before
stages shared one presort: each stage fits a tree to the residuals as
``fit_tree`` does and adds the tree's predictions for the training rows.

``fit_forest`` is the forest loop from before trees grew together in
groups: one single-root call of the production ``_grow`` per tree, each on
its own presort, built as it was then.

``tree_predict``, ``forest_predict`` and ``gbm_predict`` are the predict
loops of the three model classes that ``TreeEnsemble`` replaced, copied
unchanged; ``members`` slices a packed ensemble back into their per-tree
arrays, with the links spelled out.
"""

import math

import numpy as np

from pkwbench.surrogates import trees

_LEAF = -1


def _best_split(X, y, rows, feature_ids, min_leaf):
    """Scan candidate splits; return (feature, threshold) or None.

    The scan visits features in ascending index order and positions in
    ascending threshold order, and only a strictly better score displaces
    the incumbent, which yields the documented tie-breaking for free.
    """
    n = rows.size
    best_score = math.inf
    best = None
    target = y[rows]
    for j in feature_ids:
        xs = X[rows, j]
        order = np.argsort(xs, kind="stable")
        xs = xs[order]
        ys = target[order]
        if xs[0] == xs[-1]:
            continue
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        n_left = np.arange(1, n)
        sum_left = csum[:-1]
        sq_left = csq[:-1]
        n_right = n - n_left
        sum_right = csum[-1] - sum_left
        sq_right = csq[-1] - sq_left
        score = (sq_left - sum_left * sum_left / n_left) + (
            sq_right - sum_right * sum_right / n_right
        )
        usable = xs[:-1] < xs[1:]
        if min_leaf > 1:
            usable &= (n_left >= min_leaf) & (n_right >= min_leaf)
        if not usable.any():
            continue
        score = np.where(usable, score, math.inf)
        pos = int(np.argmin(score))
        if score[pos] < best_score:
            lo, hi = xs[pos], xs[pos + 1]
            thr = 0.5 * (lo + hi)
            if thr >= hi:
                # the midpoint of adjacent doubles can round up to the
                # upper value; fall back so the right child stays nonempty
                thr = lo
            best_score = float(score[pos])
            best = (j, thr)
    return best


def _grow(X, y, rows, params, feature_rng, max_features):
    """Grow one tree over ``rows`` and return its flat node arrays.

    Nodes are laid out in left-first preorder by processing an explicit
    stack, which also makes the per-split feature subsampling consume the
    random stream in a reproducible order.
    """
    d = X.shape[1]
    feature = []
    threshold = []
    left = []
    right = []
    value = []

    def add_node(rows_, depth):
        idx = len(feature)
        feature.append(_LEAF)
        threshold.append(0.0)
        left.append(_LEAF)
        right.append(_LEAF)
        value.append(float(np.mean(y[rows_])))
        return idx

    root = add_node(rows, 0)
    stack = [(root, rows, 0)]
    while stack:
        idx, rows_, depth = stack.pop()
        if params.max_depth is not None and depth >= params.max_depth:
            continue
        if rows_.size < params.min_samples_split:
            continue
        target = y[rows_]
        if np.ptp(target) == 0.0:
            continue
        if max_features >= d:
            candidates = range(d)
        else:
            picked = feature_rng.permutation(d)[:max_features]
            picked.sort()
            candidates = picked
        split = _best_split(X, y, rows_, candidates, params.min_samples_leaf)
        if split is None:
            continue
        j, thr = split
        mask = X[rows_, j] <= thr
        left_rows = rows_[mask]
        right_rows = rows_[~mask]
        feature[idx] = j
        threshold[idx] = thr
        left_child = add_node(left_rows, depth + 1)
        right_child = add_node(right_rows, depth + 1)
        left[idx] = left_child
        right[idx] = right_child
        # push right first so the left subtree is numbered first
        stack.append((right_child, right_rows, depth + 1))
        stack.append((left_child, left_rows, depth + 1))
    return (
        np.asarray(feature, dtype=np.int32),
        np.asarray(threshold, dtype=float),
        np.asarray(left, dtype=np.int32),
        np.asarray(right, dtype=np.int32),
        np.asarray(value, dtype=float),
    )


def _predict(arrays, X):
    """Route each row from the root, ``x <= threshold`` to the left."""
    feature, threshold, left, right, value = arrays
    out = np.empty(X.shape[0])
    for i, x in enumerate(X):
        node = 0
        while feature[node] != _LEAF:
            go_left = x[feature[node]] <= threshold[node]
            node = left[node] if go_left else right[node]
        out[i] = value[node]
    return out


def fit_gbm(X, y, n_trees, learning_rate, params):
    """Return the base value, the training MSE path and every stage's arrays."""
    base = float(np.mean(y))
    current = np.full(y.shape, base)
    path = [float(np.mean((y - current) ** 2))]
    stages = []
    rows = np.arange(X.shape[0])
    for _ in range(n_trees):
        residual = y - current
        if not np.isfinite(residual).all():
            raise ValueError("targets must be finite")
        arrays = _grow(X, residual, rows, params, None, X.shape[1])
        stages.append(arrays)
        current = current + learning_rate * _predict(arrays, X)
        path.append(float(np.mean((y - current) ** 2)))
    return base, path, stages


def fit_forest(X, y, n_trees, seed, params, bootstrap, max_features):
    """Every tree's ``(feature, threshold, value)``, grown one at a time."""
    n, d = X.shape
    work = trees._Work(max_features * n)
    members = []
    for k in range(n_trees):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        Xr = X.T.take(rows, axis=1)
        order = np.empty((d + 1, n), dtype=np.intp)
        for j in range(d):
            order[j] = np.argsort(Xr[j], kind="stable")
        order[d] = np.arange(n)
        members += trees._grow(Xr, y[rows], order, params, max_features, work, [rng])
    return members


def level_order(arrays):
    """``(feature, threshold, left, right, value)`` renumbered breadth
    first, left child before right, with the links following the nodes."""
    feature, threshold, left, right, value = arrays
    order = [0]
    for node in order:  # the list grows while it is walked
        if feature[node] != _LEAF:
            order += [left[node], right[node]]
    order = np.array(order)
    new_id = np.empty(order.size, dtype=np.int32)
    new_id[order] = np.arange(order.size)
    inner = feature[order] != _LEAF
    links = [np.where(inner, new_id[child[order]], _LEAF).astype(np.int32)
             for child in (left, right)]
    return (feature[order], threshold[order], *links, value[order])


def members(model):
    """Each member of a ``TreeEnsemble`` as ``(feature, threshold, left,
    right, value)`` arrays with member-local child ids."""
    out = []
    for lo, hi in zip(model.offsets[:-1], model.offsets[1:]):
        feature = model.feature[lo:hi]
        inner = feature != _LEAF
        left = np.where(inner, model.child[lo:hi] - lo, _LEAF).astype(np.int32)
        right = np.where(inner, left + 1, _LEAF).astype(np.int32)
        out.append((feature, model.threshold[lo:hi], left, right, model.value[lo:hi]))
    return out


def tree_predict(arrays, X):
    """``RegressionTree.predict``: step every row down until all sit at leaves."""
    feature, threshold, left, right, value = arrays
    node = np.zeros(X.shape[0], dtype=np.int64)
    pending = np.nonzero(feature[node] != _LEAF)[0]
    while pending.size:
        cur = node[pending]
        go_left = X[pending, feature[cur]] <= threshold[cur]
        node[pending] = np.where(go_left, left[cur], right[cur])
        pending = pending[feature[node[pending]] != _LEAF]
    return value[node]


def forest_predict(trees, X):
    """``ForestModel.predict``: the plain mean of the member predictions."""
    stacked = np.stack([tree_predict(arrays, X) for arrays in trees])
    return stacked.mean(axis=0)


def gbm_predict(base_value, learning_rate, trees, X):
    """``BoostedModel.predict``: the base plus each shrunken stage in turn."""
    out = np.full(X.shape[0], base_value)
    for arrays in trees:
        out += learning_rate * tree_predict(arrays, X)
    return out
