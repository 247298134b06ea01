"""Regression trees, bagged forests, and least-squares gradient boosting.

The tree fitter is exact greedy CART: every split candidate is the midpoint
of two consecutive distinct sorted values, and the winner minimizes the
summed within-child squared error.  Ties are broken deterministically by the
lowest feature index, then the lowest threshold, so a fit is a pure function
of its inputs.  Samples with feature value <= threshold go to the left child.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..errors import EmptyData, ShapeMismatch
from .metrics import compute_metrics

__all__ = [
    "TreeParams",
    "RegressionTree",
    "ForestModel",
    "BoostedModel",
    "fit_tree",
    "fit_forest",
    "fit_gbm",
    "permutation_importance",
]

_LEAF = -1


@dataclasses.dataclass(frozen=True)
class TreeParams:
    """Stopping rules shared by single trees and ensemble members."""

    max_depth: int | None = None
    min_samples_leaf: int = 1
    min_samples_split: int = 2

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")


@dataclasses.dataclass(frozen=True)
class RegressionTree:
    """Flat-array decision tree.

    ``feature[i] == -1`` marks node ``i`` as a leaf; for internal nodes the
    child arrays give node indices and routing is ``x <= threshold`` left.
    ``value`` holds the training-target mean of every node, so leaves carry
    the prediction and internal entries double as fallback diagnostics.

    Node 0 is the root, and children are allocated in pairs: the children
    of the ``i``-th internal node in preorder (left subtree first) are
    ``2i + 1`` (left) and ``2i + 2`` (right).  This is not preorder
    numbering; a right child's id precedes the ids in its left sibling's
    subtree.  ``.wnsm`` files store the arrays in this order.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_features: int
    params: TreeParams

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature == _LEAF))

    @property
    def depth(self) -> int:
        depths = np.zeros(self.n_nodes, dtype=int)
        for i in range(self.n_nodes):
            if self.feature[i] != _LEAF:
                depths[self.left[i]] = depths[i] + 1
                depths[self.right[i]] = depths[i] + 1
        return int(depths.max())

    def predict(self, X) -> np.ndarray:
        X = _check_matrix(X, self.n_features)
        node = np.zeros(X.shape[0], dtype=np.int64)
        pending = np.nonzero(self.feature[node] != _LEAF)[0]
        while pending.size:
            cur = node[pending]
            go_left = X[pending, self.feature[cur]] <= self.threshold[cur]
            node[pending] = np.where(go_left, self.left[cur], self.right[cur])
            pending = pending[self.feature[node[pending]] != _LEAF]
        return self.value[node]


def _check_matrix(X, n_features=None):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeMismatch(f"feature matrix must be 2-D, got shape {X.shape}")
    if n_features is not None and X.shape[1] != n_features:
        raise ShapeMismatch(
            f"model was fit with {n_features} features, got {X.shape[1]}"
        )
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    return X


def _check_training_pair(X, y):
    X = _check_matrix(X)
    y = np.asarray(y, dtype=float).reshape(-1)
    if X.shape[0] == 0:
        raise EmptyData("cannot fit on an empty design matrix")
    if X.shape[1] == 0:
        raise ShapeMismatch("design matrix has no feature columns")
    if y.shape[0] != X.shape[0]:
        raise ShapeMismatch(f"{X.shape[0]} rows but {y.shape[0]} targets")
    if not np.isfinite(y).all():
        raise ValueError("targets must be finite")
    return X, y


# Split-search temporaries hold at most this many elements (under 64 KiB of
# float64), so the allocator keeps reusing the same small blocks instead of
# handing large ones back to the OS and faulting them in again each pass.
_BLOCK = 8000


def _grow(X, y, rows, params, feature_rng, max_features):
    """Grow one tree over ``rows`` level by level; return its node arrays.

    Every feature is sorted once per tree, stably, so tied values keep row
    order.  ``order[j, :m]`` then lists the rows of the current level's
    nodes, grouped by node in level order, each group sorted by feature
    ``j``; ``order[d, :m]`` keeps each group in row order.  One pass over a
    level scores every candidate feature of every node, and a stable sort
    on the child index regroups ``order`` for the next level, so each group
    stays sorted without sorting it again.  The node arrays come out in the
    layout :class:`RegressionTree` documents.
    """
    Xr = X.T.take(rows, axis=1)
    yr = y[rows]
    d, n = Xr.shape
    order = np.empty((d + 1, n), dtype=np.intp)
    for j in range(d):
        order[j] = np.argsort(Xr[j], kind="stable")
    order[d] = np.arange(n)
    sizes = np.array([n])
    levels = []
    depth = 0
    while True:
        m = int(sizes.sum())
        starts = np.cumsum(sizes) - sizes
        in_rows = yr[order[d, :m]]
        feature = np.full(sizes.size, _LEAF, dtype=np.int32)
        threshold = np.zeros(sizes.size)
        levels.append((feature, threshold, _segment_means(in_rows, starts, sizes)))
        if params.max_depth is not None and depth >= params.max_depth:
            break
        y_min = np.minimum.reduceat(in_rows, starts)
        y_max = np.maximum.reduceat(in_rows, starts)
        nodes = np.flatnonzero((sizes >= params.min_samples_split) & (y_min != y_max))
        if not nodes.size:
            break
        if max_features >= d:
            cand = np.broadcast_to(np.arange(d), (nodes.size, d))
        else:
            # a permutation of the features per splittable node, in level order
            cand = feature_rng.permuted(
                np.tile(np.arange(d), (nodes.size, 1)), axis=1
            )[:, :max_features]
            cand.sort(axis=1)
        # padded lanes divide by zero and huge targets overflow; both lose
        with np.errstate(all="ignore"):
            j, thr, found = _best_splits(
                Xr, yr, order[:, :m], starts[nodes], sizes[nodes], cand,
                params.min_samples_leaf,
            )
        split = nodes[found]
        if not split.size:
            break
        feature[split] = j[found]
        threshold[split] = thr[found]
        # the r-th split node's children are 2r (left) and 2r + 1 (right);
        # rows of unsplit nodes get a key of at least 2 * split.size and
        # sort past the rows that are kept
        child = np.full(sizes.size, 2 * split.size)
        child[split] = 2 * np.arange(split.size)
        slot_node = np.repeat(np.arange(sizes.size), sizes)
        slot_rows = order[d, :m]
        slot_key = child[slot_node] + (
            Xr[feature[slot_node], slot_rows] > threshold[slot_node]
        )
        key_type = np.int16 if 2 * split.size < np.iinfo(np.int16).max else np.int32
        key = np.empty(n, dtype=key_type)
        key[slot_rows] = slot_key
        sizes = np.bincount(slot_key)[: 2 * split.size]
        kept = int(sizes.sum())
        depth += 1
        # below the depth cap only the row order is read again
        last = params.max_depth is not None and depth >= params.max_depth
        for r in range(d if last else 0, d + 1):
            row = order[r, :m]
            order[r, :kept] = row[np.argsort(key[row], kind="stable")[:kept]]
    return _number_nodes(levels)


def _segment_means(values, starts, sizes):
    """``np.mean`` of every segment, bit for bit, batching equal sizes.

    A row of a 2-D ``np.add.reduce`` sums in the same pairwise order as the
    1-D reduction ``np.mean`` makes, which padding would change.
    """
    out = np.empty(sizes.size)
    by_size = np.argsort(sizes, kind="stable")
    bounds = np.flatnonzero(np.diff(sizes[by_size])) + 1
    for group in np.split(by_size, bounds):
        width = int(sizes[group[0]])
        if group.size == 1:
            start = int(starts[group[0]])
            out[group[0]] = np.add.reduce(values[start : start + width]) / width
        else:
            block = values[starts[group, None] + np.arange(width)]
            out[group] = np.add.reduce(block, axis=1) / width
    return out


def _best_splits(Xr, yr, order, starts, sizes, cand, min_leaf):
    """Best split of every node; return (feature, threshold, found) arrays.

    Node ``k`` covers ``order[:, starts[k]:starts[k] + sizes[k]]`` and may
    split on the ascending features ``cand[k]``.  Each (node, feature) pair
    is one row of a prefix sum that starts at zero on its own sorted
    segment, so its scores are the ones a scan of that node alone computes,
    bit for bit.  Pairs are batched by size class, which pads a row to at
    most twice its length.  Within a row the first minimum wins (the
    lowest threshold); across a node's features the first strictly lower
    score wins (the lowest index).  In a node holding a target whose square
    overflows, every split scores inf or NaN, so the node does not split.
    """
    n_nodes, n_cand = cand.shape
    pair_node = np.repeat(np.arange(n_nodes), n_cand)
    pair_feature = cand.ravel()
    pair_size = sizes[pair_node]
    score = np.empty(pair_node.size)
    at = np.empty(pair_node.size, dtype=np.intp)
    size_class = np.frexp(pair_size - 1)[1]
    for cls in np.unique(size_class):
        members = np.flatnonzero(size_class == cls)
        per_block = max(1, _BLOCK // int(pair_size[members].max()))
        for first in range(0, members.size, per_block):
            block = members[first : first + per_block]
            node = pair_node[block]
            score[block], at[block] = _score_block(
                Xr, yr, order, starts[node], sizes[node], pair_feature[block], min_leaf
            )
    score = score.reshape(n_nodes, n_cand)
    pick = np.argmin(score, axis=1)
    k = np.arange(n_nodes)
    feature = cand[k, pick]
    slot = starts + at.reshape(n_nodes, n_cand)[k, pick]
    lo = Xr[feature, order[feature, slot]]
    hi = Xr[feature, order[feature, slot + 1]]
    mid = 0.5 * (lo + hi)
    # the midpoint of adjacent doubles can round up to the upper value;
    # fall back so the right child stays nonempty
    return feature, np.where(mid >= hi, lo, mid), score[k, pick] < math.inf


def _score_block(Xr, yr, order, starts, sizes, features, min_leaf):
    """Lowest split score and its position for each (node, feature) row."""
    width = int(sizes.max())
    # float counts divide exactly as the integer ones would
    n_left = np.arange(1.0, width)
    if starts[0] == starts[-1]:
        # one node: its sorted segments are plain slices, nothing is padded
        pos = order[features, starts[0] : starts[0] + width]
        n_right = width - n_left
        too_small = None if min_leaf == 1 else (n_left < min_leaf) | (n_right < min_leaf)
        end = (slice(None), slice(-1, None))
    else:
        slot = np.minimum(starts[:, None] + np.arange(width), order.shape[1] - 1)
        pos = order[features[:, None], slot]
        n_right = sizes[:, None] - n_left
        too_small = (n_left < min_leaf) | (n_right < min_leaf)
        end = (np.arange(features.size)[:, None], (sizes - 1)[:, None])
    xs = Xr[features[:, None], pos]
    ys = yr[pos]
    csum = np.cumsum(ys, axis=1)
    csq = np.cumsum(np.multiply(ys, ys, out=ys), axis=1)
    sum_left = csum[:, :-1]
    sq_left = csq[:, :-1]
    sum_right = csum[end] - sum_left
    sq_right = csq[end] - sq_left
    # (sq_left - sum_left * sum_left / n_left)
    #     + (sq_right - sum_right * sum_right / n_right), in place
    score = np.multiply(sum_left, sum_left)
    score /= n_left
    np.subtract(sq_left, score, out=score)
    np.multiply(sum_right, sum_right, out=sum_right)
    sum_right /= n_right
    np.subtract(sq_right, sum_right, out=sum_right)
    score += sum_right
    # features are finite, so >= is exactly the negation of <
    unusable = xs[:, :-1] >= xs[:, 1:]
    if too_small is not None:
        unusable |= too_small
    score[unusable] = math.inf
    return score.min(axis=1), score.argmin(axis=1)


def _number_nodes(levels):
    """Number level-ordered nodes in the layout :class:`RegressionTree` uses.

    ``levels`` holds ``(feature, threshold, value)`` per depth, and the
    children of a depth's ``r``-th split node are entries ``2r`` and
    ``2r + 1`` of the next.  An internal node's preorder rank is its
    parent's plus one, plus, for a right child, the number of internal
    nodes under its left sibling, which is counted bottom up.
    """
    inner = [np.zeros(levels[-1][0].size, dtype=np.intp)]
    for feature, _, _ in reversed(levels[:-1]):
        below = inner[0]
        count = np.zeros(feature.size, dtype=np.intp)
        split = feature != _LEAF
        count[split] = 1 + below[0::2] + below[1::2]
        inner.insert(0, count)
    n_nodes = sum(f.size for f, _, _ in levels)
    feature_out = np.empty(n_nodes, dtype=np.int32)
    threshold_out = np.empty(n_nodes)
    value_out = np.empty(n_nodes)
    left_out = np.full(n_nodes, _LEAF, dtype=np.int32)
    right_out = np.full(n_nodes, _LEAF, dtype=np.int32)
    ids = np.zeros(1, dtype=np.intp)
    rank = np.zeros(1, dtype=np.intp)
    for depth, (feature, threshold, value) in enumerate(levels):
        feature_out[ids] = feature
        threshold_out[ids] = threshold
        value_out[ids] = value
        split = feature != _LEAF
        if depth + 1 == len(levels):
            break
        r = rank[split]
        left_out[ids[split]] = 2 * r + 1
        right_out[ids[split]] = 2 * r + 2
        ids = np.column_stack([2 * r + 1, 2 * r + 2]).ravel()
        child_inner = inner[depth + 1]
        rank = np.column_stack([r + 1, r + 1 + child_inner[0::2]]).ravel()
    return feature_out, threshold_out, left_out, right_out, value_out


def fit_tree(X, y, params: TreeParams | None = None) -> RegressionTree:
    """Fit an exact greedy least-squares tree."""
    X, y = _check_training_pair(X, y)
    params = params or TreeParams()
    rows = np.arange(X.shape[0])
    arrays = _grow(X, y, rows, params, feature_rng=None, max_features=X.shape[1])
    return RegressionTree(*arrays, n_features=X.shape[1], params=params)


@dataclasses.dataclass(frozen=True)
class ForestModel:
    """Bagged ensemble of trees; the prediction is their plain mean."""

    trees: tuple
    n_features: int
    seed: int
    bootstrap: bool
    max_features: int
    params: TreeParams

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def predict(self, X) -> np.ndarray:
        X = _check_matrix(X, self.n_features)
        stacked = np.stack([tree.predict(X) for tree in self.trees])
        return stacked.mean(axis=0)


def fit_forest(
    X,
    y,
    n_trees: int = 100,
    seed: int = 0,
    params: TreeParams | None = None,
    bootstrap: bool = True,
    max_features: int | None = None,
) -> ForestModel:
    """Fit a random forest regressor.

    Every tree gets its own generator derived from ``(seed, tree_index)``,
    a bootstrap resample of the full training size, and a fresh feature
    subset at each split (``ceil(d / 3)`` features unless overridden).
    Trees grow level by level, so the subsets come from the tree's
    generator one depth at a time: at each depth, every node that passes
    the stopping rules gets the first ``max_features`` entries of its own
    random permutation of the features, in left-to-right order.
    With ``n_trees=1``, ``bootstrap=False`` and ``max_features`` equal to
    the full feature count the result degenerates to :func:`fit_tree`.
    """
    X, y = _check_training_pair(X, y)
    if n_trees < 1:
        raise ValueError("a forest needs at least one tree")
    params = params or TreeParams()
    d = X.shape[1]
    if max_features is None:
        max_features = math.ceil(d / 3)
    if not 1 <= max_features <= d:
        raise ValueError(f"max_features must be in [1, {d}], got {max_features}")
    n = X.shape[0]
    all_rows = np.arange(n)
    trees = []
    for k in range(n_trees):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        rows = rng.integers(0, n, size=n) if bootstrap else all_rows
        arrays = _grow(X, y, rows, params, rng, max_features)
        trees.append(RegressionTree(*arrays, n_features=d, params=params))
    return ForestModel(
        trees=tuple(trees),
        n_features=d,
        seed=seed,
        bootstrap=bootstrap,
        max_features=max_features,
        params=params,
    )


@dataclasses.dataclass(frozen=True)
class BoostedModel:
    """Additive stagewise model: constant base plus shrunken trees."""

    base_value: float
    learning_rate: float
    trees: tuple
    n_features: int
    params: TreeParams
    train_mse_path: tuple

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def predict(self, X) -> np.ndarray:
        X = _check_matrix(X, self.n_features)
        out = np.full(X.shape[0], self.base_value)
        for tree in self.trees:
            out += self.learning_rate * tree.predict(X)
        return out


def fit_gbm(
    X,
    y,
    n_trees: int = 300,
    max_depth: int | None = 3,
    learning_rate: float = 0.05,
    min_samples_leaf: int = 1,
) -> BoostedModel:
    """Fit least-squares gradient boosting.

    The base prediction is the target mean; every stage fits a depth-capped
    tree to the current residuals and adds it with the learning rate as
    shrinkage.  Because each tree projects the residuals onto leaf means,
    the training MSE recorded in ``train_mse_path`` (one entry before any
    stage, then one per stage) never increases for rates in (0, 1].
    """
    X, y = _check_training_pair(X, y)
    if n_trees < 1:
        raise ValueError("boosting needs at least one stage")
    if not 0.0 < learning_rate <= 1.0:
        raise ValueError(f"learning_rate must be in (0, 1], got {learning_rate}")
    params = TreeParams(max_depth=max_depth, min_samples_leaf=min_samples_leaf)
    base = float(np.mean(y))
    current = np.full(y.shape, base)
    path = [float(np.mean((y - current) ** 2))]
    trees = []
    for _ in range(n_trees):
        residual = y - current
        tree = fit_tree(X, residual, params)
        trees.append(tree)
        current = current + learning_rate * tree.predict(X)
        path.append(float(np.mean((y - current) ** 2)))
    return BoostedModel(
        base_value=base,
        learning_rate=learning_rate,
        trees=tuple(trees),
        n_features=X.shape[1],
        params=params,
        train_mse_path=tuple(path),
    )


def permutation_importance(model, X, y, seed: int = 0, repeats: int = 10):
    """Mean MSE increase after shuffling one feature column at a time.

    Shuffling breaks the association between a column and the target while
    keeping its marginal distribution, so a column the model ignores scores
    about zero.  Returns an array with one value per feature; values can be
    slightly negative for irrelevant columns, that is noise, not signal.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    X = _check_matrix(X, getattr(model, "n_features", None))
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != X.shape[0]:
        raise ShapeMismatch(f"{X.shape[0]} rows but {y.shape[0]} targets")
    baseline = compute_metrics(y, model.predict(X)).mse
    rng = np.random.default_rng(seed)
    n, d = X.shape
    importance = np.zeros(d)
    for j in range(d):
        shuffled = X.copy()
        acc = 0.0
        for _ in range(repeats):
            shuffled[:, j] = X[rng.permutation(n), j]
            acc += compute_metrics(y, model.predict(shuffled)).mse - baseline
        importance[j] = acc / repeats
    return importance
