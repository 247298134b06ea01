"""Per-node exact CART growers, kept as the references for the level-wise one.

``_best_split`` and ``_grow`` are the fitter ``pkwbench.surrogates.trees``
used before it grew trees level by level, copied unchanged: a scan of
every node's rows sorted by each feature.  ``test_surrogates.py`` requires
the production grower to build the same trees away from near-ties, whose
split scores it sums in another order, once ``level_order`` has
renumbered the reference's preorder-style layout breadth first.

``_grow_routed`` grows a tree the way the production grower does: each
distinct row weighted by its count (every row once for a tree or a
boosting stage), nodes taken breadth first, so it draws its feature
subsets in the production order and returns its nodes in level order,
and each node routed by the production rule.  A wide node, whose rows
times its candidate features outnumber those features' distinct values,
is split on its per-feature histograms (``histograms``,
``_best_hist_split``), taking its parent's minus its sibling's where the
production grower subtracts; a narrow node is scanned over its rows sorted
by value and then by row id (``_best_counted_split``).  The differential
tests require the same node arrays, bit for bit.  ``fit_forest`` grows
every member of a forest with it, one tree at a time; a tree without
bootstrap counts every row once.  ``fit_gbm`` is the boosting stage loop
from before stages shared one grower call: each stage grows a tree on
the residuals and adds the tree's predictions for the training rows.

``scores`` and ``presort`` are the sorted scan's target half and the
presort from before the targets and their squares were summed in one
complex ``cumsum`` and features were sorted on their value ranks, copied
unchanged apart from the names; ``presort`` takes each tree's number
of rows.

``tree_predict``, ``forest_predict`` and ``gbm_predict`` are the predict
loops of the three model classes that ``TreeEnsemble`` replaced, copied
unchanged; ``members`` slices a packed ensemble back into their per-tree
arrays, with the links spelled out.  A packed node holds one value, the
threshold of an internal node or the mean of a leaf, so ``members`` puts
that array in both the threshold and the value slot, the only entries the
predict loops read, and ``one_value`` lays a reference's arrays out the
same way.  The references' means of internal nodes have no counterpart.
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
    ones = np.ones(X.shape[0])
    for _ in range(n_trees):
        residual = y - current
        if not np.isfinite(residual).all():
            raise ValueError("targets must be finite")
        arrays = _grow_routed(X, residual, ones, params, None, X.shape[1])
        stages.append(arrays)
        current = current + learning_rate * _predict(arrays, X)
        path.append(float(np.mean((y - current) ** 2)))
    return base, path, stages


def _best_counted_split(X, y, counts, rows, feature_ids, min_leaf):
    """Scan the candidate splits of ``rows``, each row weighted by its
    count; return (feature, threshold) or None.

    Each child's size is its summed counts, its sums are those of
    ``w * y`` and ``w * y**2``, and only a strictly better score displaces
    the incumbent, as in ``_best_split``.
    """
    best_score = math.inf
    best = None
    for j in feature_ids:
        xs = X[rows, j]
        # rows ascend, so a stable sort orders ties by row id
        order = np.argsort(xs, kind="stable")
        xs = xs[order]
        if xs[0] == xs[-1]:
            continue
        ys = y[rows[order]]
        w = counts[rows[order]]
        csum = np.cumsum(w * ys)
        csq = np.cumsum(w * (ys * ys))
        cw = np.cumsum(w)
        n_left = cw[:-1]
        n_right = cw[-1] - n_left
        sum_left = csum[:-1]
        sq_left = csq[:-1]
        sum_right = csum[-1] - sum_left
        sq_right = csq[-1] - sq_left
        score = (sq_left - sum_left * sum_left / n_left) + (
            sq_right - sum_right * sum_right / n_right
        )
        usable = (xs[:-1] < xs[1:]) & (n_left >= min_leaf) & (n_right >= min_leaf)
        if not usable.any():
            continue
        score = np.where(usable, score, math.inf)
        pos = int(np.argmin(score))
        if score[pos] < best_score:
            lo, hi = xs[pos], xs[pos + 1]
            thr = 0.5 * (lo + hi)
            if thr >= hi:
                thr = lo
            best_score = float(score[pos])
            best = (j, thr)
    return best


def histograms(ranks, bins, y, counts, rows):
    """Each feature's histogram over ``rows``: the summed count, ``w * y``
    and ``w * y**2`` per distinct value of the fit, each bin summed over
    its rows in row order."""
    w = counts[rows]
    wy = w * y[rows]
    wy2 = w * (y[rows] * y[rows])
    return [tuple(np.bincount(rank[rows], weights, size) for weights in (w, wy, wy2))
            for rank, size in zip(ranks, bins)]


def hist_split(count, s, q, min_leaf):
    """Score every boundary between filled bins of one feature's histogram
    (counts, sums of ``w * y`` and of ``w * y**2``); return the first
    minimum score, its bin and the next filled bin (or None).

    Every bin is scored, and the empty ones and those that leave a child
    empty or below ``min_leaf`` are dropped; a NaN anywhere is the
    minimum.
    """
    n_left = np.cumsum(count)
    sum_left = np.cumsum(s)
    sq_left = np.cumsum(q)
    n_right = n_left[-1] - n_left
    sum_right = sum_left[-1] - sum_left
    sq_right = sq_left[-1] - sq_left
    with np.errstate(divide="ignore", invalid="ignore"):
        score = (sq_left - sum_left * sum_left / n_left) + (
            sq_right - sum_right * sum_right / n_right
        )
    usable = (count > 0) & (n_right > 0) & (n_left >= min_leaf) & (n_right >= min_leaf)
    score = np.where(usable, score, math.inf)
    pos = int(np.argmin(score))
    filled = np.flatnonzero(count[pos + 1 :] > 0)
    return score[pos], pos, pos + 1 + int(filled[0]) if filled.size else None


def _best_hist_split(values, hists, feature_ids, min_leaf):
    """Score every boundary between filled bins of each candidate
    feature's histogram; return (feature, threshold) or None.

    Each feature's first minimum wins (the lowest threshold), a NaN
    anywhere in a feature is its minimum, and the first feature whose
    minimum is lowest wins; a node whose best is not below inf does not
    split.
    """
    best = [hist_split(*hists[j], min_leaf) for j in feature_ids]
    k = int(np.argmin([score for score, _, _ in best]))
    if not best[k][0] < math.inf:
        return None
    j, (_, pos, upper) = feature_ids[k], best[k]
    lo, hi = values[j][pos], values[j][upper]
    thr = 0.5 * (lo + hi)
    if thr >= hi:
        thr = lo
    return j, thr


def _grow_routed(X, y, counts, params, feature_rng, max_features):
    """Grow one tree on the rows with a nonzero count, each weighted by its
    float count, routing each node as the production grower does, and
    return its level-ordered ``(feature, threshold, left, right, value)``
    arrays.

    Nodes are taken breadth first, left child before right, so the nodes
    that pass the stopping rules draw their feature permutations in level
    order.  A node's value is ``np.add.reduce(w * y) / np.add.reduce(w)``
    over its rows in row order, and ``min_samples_split`` and
    ``min_samples_leaf`` apply to summed counts.

    A node is wide when its rows times its candidate features outnumber
    the candidates' distinct values over every row of ``X``; it is split
    on its histograms (``_best_hist_split``), a narrow node on its sorted
    rows (``_best_counted_split``).  With every feature a candidate, a
    wide node whose parent was wide and that holds more rows than its
    sibling, or as many and is the right child, takes its parent's
    histograms minus its sibling's; every other wide node builds its own.
    """
    d = X.shape[1]
    values = [np.unique(column) for column in X.T]
    ranks = [np.searchsorted(v, column) for v, column in zip(values, X.T)]
    bins = np.array([v.size for v in values])
    full = max_features >= d
    feature, threshold, left, right, value = [], [], [], [], []
    # each entry: the node's rows, depth, its parent's histograms and its
    # sibling's rows when it takes the subtraction
    queue = [(np.flatnonzero(counts), 0, None, None)]
    for idx, (rows, depth, parent_hists, sibling) in enumerate(queue):
        w = counts[rows]
        feature.append(_LEAF)
        threshold.append(0.0)
        left.append(_LEAF)
        right.append(_LEAF)
        value.append(np.add.reduce(w * y[rows]) / np.add.reduce(w))
        if params.max_depth is not None and depth >= params.max_depth:
            continue
        if np.add.reduce(w) < params.min_samples_split or np.ptp(y[rows]) == 0.0:
            continue
        if full:
            candidates = np.arange(d)
        else:
            candidates = np.sort(feature_rng.permutation(d)[:max_features])
        hists = None
        if rows.size * candidates.size > bins[candidates].sum():
            if sibling is None:
                hists = histograms(ranks, bins, y, counts, rows)
            else:
                hists = [tuple(p - s for p, s in zip(ph, sh)) for ph, sh in
                         zip(parent_hists, histograms(ranks, bins, y, counts, sibling))]
            split = _best_hist_split(values, hists, candidates, params.min_samples_leaf)
        else:
            split = _best_counted_split(X, y, counts, rows, candidates,
                                        params.min_samples_leaf)
        if split is None:
            continue
        j, thr = split
        mask = X[rows, j] <= thr
        feature[idx] = j
        threshold[idx] = thr
        left[idx] = len(queue)
        right[idx] = len(queue) + 1
        children = [rows[mask], rows[~mask]]
        # the larger child, or the right one of two equal children
        larger = int(children[1].size >= children[0].size)
        for side in (0, 1):
            take = full and hists is not None and side == larger
            queue.append((children[side], depth + 1, hists if take else None,
                          children[1 - side] if take else None))
    return (
        np.asarray(feature, dtype=np.int32),
        np.asarray(threshold, dtype=float),
        np.asarray(left, dtype=np.int32),
        np.asarray(right, dtype=np.int32),
        np.asarray(value, dtype=float),
    )


def bootstrap(seed, k, n):
    """The generator ``fit_forest`` gives its tree ``k`` and the float
    count of each row in the tree's bootstrap draw."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
    return rng, np.bincount(rng.integers(0, n, size=n), minlength=n).astype(float)


def fit_forest(X, y, n_trees, seed, params, bootstrap_rows, max_features):
    """Every tree's ``(feature, value)`` as a packed member holds them (see
    ``one_value``), grown one at a time."""
    n = X.shape[0]
    members = []
    for k in range(n_trees):
        if bootstrap_rows:
            rng, counts = bootstrap(seed, k, n)
        else:
            rng, counts = np.random.default_rng(np.random.SeedSequence([seed, k])), np.ones(n)
        feature, _, _, _, value = one_value(_grow_routed(X, y, counts, params, rng,
                                                        max_features))
        members.append((feature, value))
    return members


def scores(yr, pos, bounds):
    """The score of every boundary of sorted rows ``pos``, from two float
    prefix sums of the gathered targets and of their squares."""
    ys = yr[pos]
    csum = np.cumsum(ys, axis=1)
    csq = np.cumsum(np.multiply(ys, ys, out=ys), axis=1)
    sum_left = csum.take(bounds.left)
    sq_left = csq.take(bounds.left)
    sum_right = csum.take(bounds.last)
    sum_right -= sum_left
    sq_right = csq.take(bounds.last)
    sq_right -= sq_left
    scored = np.multiply(sum_left, sum_left)
    scored /= bounds.n_left
    np.subtract(sq_left, scored, out=scored)
    np.multiply(sum_right, sum_right, out=sum_right)
    sum_right /= bounds.n_right
    np.subtract(sq_right, sum_right, out=sum_right)
    scored += sum_right
    return scored


def presort(X, rows, sizes):
    """The transposed rows of ``X`` and their order, each feature of each
    tree's run of ``sizes[t]`` rows sorted stably on its float values."""
    d, m = X.shape[1], rows.size
    Xr = np.empty((d, m))
    order = np.empty((d + 1, m), dtype=np.intp)
    order[d] = np.arange(m)
    for j, column in enumerate(X.T):
        np.take(column, rows, out=Xr[j])
        for start, size in zip(np.cumsum(sizes) - sizes, sizes):
            segment = order[j, start : start + size]
            segment[:] = np.argsort(Xr[j, start : start + size], kind="stable")
            segment += start
    return Xr, order


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


def one_value(arrays):
    """``(feature, threshold, left, right, value)`` with one value per node,
    an internal node's threshold or a leaf's mean, in both float slots."""
    feature, threshold, left, right, value = arrays
    merged = np.where(feature != _LEAF, threshold, value)
    return feature, merged, left, right, merged


def members(model):
    """Each member of a ``TreeEnsemble`` as ``(feature, threshold, left,
    right, value)`` arrays with member-local child ids, laid out as
    ``one_value`` lays them out."""
    out = []
    for lo, hi in zip(model.offsets[:-1], model.offsets[1:]):
        feature = model.feature[lo:hi]
        inner = feature != _LEAF
        left = np.where(inner, model.child[lo:hi] - lo, _LEAF).astype(np.int32)
        right = np.where(inner, left + 1, _LEAF).astype(np.int32)
        value = model.value[lo:hi]
        out.append((feature, value, left, right, value))
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
