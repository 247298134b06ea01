"""Per-node exact CART grower, kept as the reference for the level-wise one.

``_best_split`` and ``_grow`` are the fitter ``pkwbench.surrogates.trees``
used before it grew trees level by level, copied unchanged.  The
differential tests in ``test_surrogates.py`` require the production grower
to return the same node arrays, bit for bit, whenever no random feature
subsets are drawn.
"""

import math

import numpy as np

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
