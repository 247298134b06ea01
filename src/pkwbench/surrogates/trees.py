"""Regression trees, bagged forests, and least-squares gradient boosting.

All three fit to one type, :class:`TreeEnsemble`: the node arrays of every
member tree packed end to end, with one predict loop for every kind.  The
tree fitter is exact greedy CART: every split candidate is the midpoint
of two consecutive distinct sorted values, and the winner minimizes the
summed within-child squared error.  Ties are broken deterministically by the
lowest feature index, then the lowest threshold, so a fit is a pure function
of its inputs.  Samples with feature value <= threshold go to the left child.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from ..errors import EmptyData, ShapeMismatch

__all__ = [
    "TreeParams",
    "TreeEnsemble",
    "fit_tree",
    "fit_forest",
    "fit_gbm",
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
class TreeEnsemble:
    """A single tree, a bagged forest or a boosted model, as packed arrays.

    Member ``k`` owns nodes ``offsets[k]:offsets[k + 1]`` of the three node
    arrays.  ``feature[i] == -1`` marks node ``i`` as a leaf; an internal
    node routes ``x <= threshold[i]`` to its left child and the rest to its
    right child.  ``value`` holds the training-target mean of every node, so
    leaves carry the prediction and internal entries double as fallback
    diagnostics.

    Each member is stored in level order: the root, then each depth's nodes
    left to right.  No links are stored: the children of the member's
    ``r``-th internal node in that order are its nodes ``2r + 1`` (left)
    and ``2r + 2`` (right), and construction derives ``child``, the global
    id of every internal node's left child (leaf entries are unused).  A
    member with ``m`` splits must have ``2m + 1`` nodes and a split must
    name a known feature; then each step of a walk from a root goes to a
    larger id inside the member, so the walk ends at a leaf.

    A prediction starts at ``base`` and adds ``rate`` times each member's
    leaf value, one member at a time in member order; with ``average`` set
    the sum is then divided by the member count.  A tree is base -0.0, rate
    1 and no average; a forest is base -0.0, rate 1 and the average; boosting
    is the target mean as base and the learning rate as rate.  -0.0 is the
    additive identity, so a tree passes its leaf values through unchanged,
    signed zeros included.  ``info`` records how the model was fit
    (``params``; ``seed``, ``bootstrap`` and ``max_features`` for a forest;
    ``learning_rate`` and ``train_mse_path`` for boosting); predict never
    reads it.
    """

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    offsets: np.ndarray
    n_features: int
    base: float
    rate: float
    average: bool
    info: dict
    child: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        offsets = self.offsets
        n = self.feature.size
        if offsets.ndim != 1 or offsets.size < 2 or offsets[0] != 0 or offsets[-1] != n:
            raise ValueError(f"member offsets {offsets.tolist()} do not cover {n} nodes")
        sizes = np.diff(offsets)
        if (sizes < 1).any():
            raise ValueError("every member needs at least one node")
        inner = self.feature != _LEAF
        bad = inner & ((self.feature < 0) | (self.feature >= self.n_features))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"node {i} splits on feature {self.feature[i]}; "
                             f"a split needs a feature below {self.n_features}")
        # before[i]: the internal nodes ahead of node i
        before = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(inner, out=before[1:])
        n_inner = np.diff(before[offsets])
        wrong = sizes != 2 * n_inner + 1
        if wrong.any():
            k = int(np.argmax(wrong))
            raise ValueError(f"member {k} has {sizes[k]} nodes and {n_inner[k]} "
                             "splits; a member with m splits has 2m + 1 nodes")
        start = np.repeat(offsets[:-1] - 2 * before[offsets[:-1]], sizes)
        object.__setattr__(self, "child", start + 2 * before[:-1] + 1)

    @property
    def n_trees(self) -> int:
        return self.offsets.size - 1

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)

    def predict(self, X) -> np.ndarray:
        X = np.ascontiguousarray(_check_matrix(X, self.n_features))
        n_trees = self.n_trees
        out = np.empty(X.shape[0])
        # a block of rows holds about _BLOCK (row, member) cells, which keeps
        # the index arrays small at any batch size; rows do not interact
        step = max(1, _BLOCK // n_trees)
        for first in range(0, X.shape[0], step):
            rows = X[first : first + step]
            node = np.tile(self.offsets[:-1], rows.shape[0])
            at = np.repeat(np.arange(0, rows.size, rows.shape[1]), n_trees)
            pending = np.flatnonzero(self.feature[node] != _LEAF)
            while pending.size:
                cur = node[pending]
                # on finite features x > threshold is the negation of x <= threshold
                node[pending] = self.child[cur] + (
                    rows.take(at[pending] + self.feature[cur]) > self.threshold[cur])
                pending = pending[self.feature[node[pending]] != _LEAF]
            terms = self.rate * self.value[node].reshape(-1, n_trees)
            terms[:, 0] += self.base
            # accumulate adds in member order for one row and for many alike;
            # a reduction would sum a single row pairwise
            out[first : first + step] = np.add.accumulate(terms, axis=1)[:, -1]
        if self.average:
            out /= n_trees
        return out


# The benchmark's tracer (perfbench/tracer.py) looks the model classes up by
# these names, which predate the single ensemble type, and wraps ``predict``.
RegressionTree = ForestModel = BoostedModel = TreeEnsemble


def _pack(members, n_features, info, *, base=-0.0, rate=1.0, average=False):
    """One :class:`TreeEnsemble` from the level-ordered ``(feature,
    threshold, value)`` arrays of its members, as :func:`_grow` returns them."""
    offsets = np.zeros(len(members) + 1, dtype=np.int64)
    np.cumsum([arrays[0].size for arrays in members], out=offsets[1:])
    feature, threshold, value = map(np.concatenate, zip(*members))
    return TreeEnsemble(
        feature, threshold, value, offsets,
        n_features=n_features, base=base, rate=rate, average=average, info=info,
    )


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


# The split search's element budget.  Narrow nodes' (node, feature) rows are
# batched into blocks of at most this many elements, so each temporary stays
# under 64 KiB of float64 and the allocator keeps reusing the same small
# blocks.  A node whose candidate rows hold more elements is searched on its
# own, in the buffers of a :class:`_Work` allocated once per fit and written
# with ``out=``: temporaries that size would be handed back to the OS and
# faulted in again on every search.  Only the boundary scores, a small share
# of the elements, are still allocated per search.
_BLOCK = 8000


class _Work:
    """Split-search buffers for a node of up to ``cells`` (row, position)
    elements, reused by every wide node of a fit.

    ``pos`` holds sorted row ids, ``usable`` the boundary mask, and
    ``ys``, ``csum`` and ``csq`` the gathered targets and their two prefix
    sums; ``csum`` holds the sorted feature values first, which the search
    no longer reads once the boundaries are found.
    """

    def __init__(self, cells):
        self.pos = np.empty(cells, dtype=np.intp)
        self.usable = np.empty(cells, dtype=bool)
        self.ys, self.csum, self.csq = np.empty((3, cells))

    @staticmethod
    def view(buffer, rows, width):
        return buffer[: rows * width].reshape(rows, width)


def _presort(X, rows):
    """The transposed rows of ``X`` and their ``(d + 1) x n`` row order.

    Every feature is sorted stably, so tied values keep row order, and the
    last row of the order lists the rows as they are.
    """
    Xr = X.T.take(rows, axis=1)
    d, n = Xr.shape
    order = np.empty((d + 1, n), dtype=np.intp)
    for j in range(d):
        order[j] = np.argsort(Xr[j], kind="stable")
    order[d] = np.arange(n)
    return Xr, order


def _grow(Xr, yr, order, params, feature_rng, max_features, work, root=None):
    """Grow one tree level by level over presorted rows.

    Return its node arrays and each row's leaf mean.  ``order`` comes from
    :func:`_presort` and is overwritten.  ``order[j, :m]`` lists the rows of
    the current level's nodes, grouped by node in level order, each group
    sorted by feature ``j``; ``order[d, :m]`` keeps each group in row order.
    One pass over a level scores every candidate feature of every node, and
    a stable sort on the child index regroups ``order`` for the next level,
    so each group stays sorted without sorting it again.  A row's leaf mean
    is filled when the row leaves the search, and equals what the tree
    predicts for it, since ``x > threshold`` is the negation of ``x <=
    threshold`` on finite features.  The node arrays, ``(feature,
    threshold, value)``, are the levels concatenated: the level order
    :class:`TreeEnsemble` stores a member in.

    ``work`` is a :class:`_Work` of ``min(max_features, d) * n`` cells, as
    wide as the root's candidate rows.  ``root`` is the half of the root's
    split search that reads ``Xr``, on every feature (see
    :func:`_best_splits`), built by :func:`_node_bounds` from ``order`` as
    :func:`_presort` returns it.
    """
    d, n = Xr.shape
    fitted = np.empty(n)
    sizes = np.array([n])
    levels = []
    depth = 0
    while True:
        m = int(sizes.sum())
        starts = np.cumsum(sizes) - sizes
        slot_rows = order[d, :m]
        in_rows = yr[slot_rows]
        feature = np.full(sizes.size, _LEAF, dtype=np.int32)
        threshold = np.zeros(sizes.size)
        means = _segment_means(in_rows, starts, sizes)
        levels.append((feature, threshold, means))
        # rows that split again are overwritten one level down
        fitted[slot_rows] = np.repeat(means, sizes)
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
        # huge targets overflow, and their splits lose
        with np.errstate(all="ignore"):
            j, thr, found = _best_splits(
                Xr, yr, order[:, :m], starts[nodes], sizes[nodes], cand,
                params.min_samples_leaf, work, root if depth == 0 else None,
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
    return tuple(map(np.concatenate, zip(*levels))), fitted


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


def _best_splits(Xr, yr, order, starts, sizes, cand, min_leaf, work, root=None):
    """Best split of every node; return (feature, threshold, found) arrays.

    Node ``k`` covers ``order[:, starts[k]:starts[k] + sizes[k]]`` and may
    split on the ascending features ``cand[k]``.  Each (node, feature) pair
    is one row of a prefix sum that starts at zero on its own sorted
    segment, so its scores are the ones a scan of that node alone computes,
    bit for bit.  Only the boundaries between distinct values are scored:
    a geometry feature of the benchmark matrix takes one value per
    geometry, so most positions cannot end a left child.

    The search has two halves.  The half that reads ``Xr`` finds each
    row's sorted positions and its boundaries (:func:`_node_bounds`,
    :func:`_block_bounds`); the half that reads ``yr`` scores the
    boundaries (:func:`_scores`).  ``root``, when given, is the first half
    for a level holding one node of every row on every feature, built once
    by the caller, since a boosting stage changes only the targets.  Any
    other node whose candidate rows hold more than ``_BLOCK`` elements is
    searched on its own in ``work`` (:func:`_node_min`).  Narrower nodes'
    pairs are batched by size class, which pads a row to at most twice its
    length, into blocks of at most ``_BLOCK`` elements.  Within a row the
    first minimum wins (the lowest threshold); across a node's features
    the first strictly lower score wins (the lowest index).  A target whose
    square overflows makes every split of its node score inf or NaN, so
    the node does not split; a child's sum whose square overflows while the
    squares sum finitely scores -inf, and that split wins.
    """
    n_nodes, n_cand = cand.shape
    pair_node = np.repeat(np.arange(n_nodes), n_cand)
    pair_feature = cand.ravel()
    pair_size = sizes[pair_node]
    score = np.empty((n_nodes, n_cand))
    at = np.empty((n_nodes, n_cand), dtype=np.intp)
    wide = (sizes * n_cand > _BLOCK) | (root is not None)
    for k in np.flatnonzero(wide):
        if root is None:
            bounds = _node_bounds(Xr, order, starts[k], sizes[k], cand[k], min_leaf, work)
        else:
            bounds = root
        best, row, pos = _node_min(_scores(yr, bounds, work), bounds.row, bounds.at)
        # the winner alone among the node's rows, so the argmin across them
        # below picks it; inf rows at position 0 stand for the others
        score[k] = math.inf
        at[k] = 0
        score[k, row] = best
        at[k, row] = pos
    # the narrow nodes' pairs, batched by size class
    pair_score = score.reshape(-1)
    pair_at = at.reshape(-1)
    narrow = np.flatnonzero(~wide[pair_node])
    size_class = np.frexp(pair_size[narrow] - 1)[1]
    for cls in np.unique(size_class):
        members = narrow[size_class == cls]
        per_block = max(1, _BLOCK // int(pair_size[members].max()))
        for first in range(0, members.size, per_block):
            block = members[first : first + per_block]
            node = pair_node[block]
            bounds = _block_bounds(
                Xr, order, starts[node], sizes[node], pair_feature[block], min_leaf
            )
            # a block is small: spread its scores over rows of inf
            full = np.full(bounds.pos.shape, math.inf)
            full[bounds.row, bounds.at] = _scores(yr, bounds)
            pair_score[block] = full.min(axis=1)
            pair_at[block] = full.argmin(axis=1)
    pick = np.argmin(score, axis=1)
    k = np.arange(n_nodes)
    feature = cand[k, pick]
    slot = starts + at[k, pick]
    lo = Xr[feature, order[feature, slot]]
    hi = Xr[feature, order[feature, slot + 1]]
    mid = 0.5 * (lo + hi)
    # the midpoint of adjacent doubles can round up to the upper value;
    # fall back so the right child stays nonempty
    return feature, np.where(mid >= hi, lo, mid), score[k, pick] < math.inf


def _node_min(score, row, at):
    """The lowest of one node's boundary scores, its row and position.

    Boundary ``i`` lies after position ``at[i]`` of row ``row[i]``.
    Boundaries run by row, then by position, so the first minimum is the
    one the per-row ``min``/``argmin`` over full-width rows of inf followed
    by an ``argmin`` across the rows picks: the lowest position of the
    lowest row.  A NaN is the minimum wherever it occurs, and a node without
    boundaries scores inf; neither splits.
    """
    if not score.size:
        return math.inf, 0, 0
    i = int(np.argmin(score))
    return score[i], row[i], at[i]


class _Bounds(NamedTuple):
    """The half of a split search that reads X, for a set of sorted rows.

    Row ``r`` lists the ids of one node's rows sorted by one feature in
    ``pos[r]``.  Boundary ``i`` lies after position ``at[i]`` of row
    ``row[i]``: the sorted values differ there and both children keep at
    least ``min_samples_leaf`` rows.  ``left[i]`` and ``last[i]`` are the
    flat indices of that position and of the row's last one in a
    ``pos``-shaped array, and ``n_left`` and ``n_right`` the child sizes as
    floats, which divide exactly as the integer ones would.  Boundaries are
    ordered by row, then by position.
    """

    pos: np.ndarray
    row: np.ndarray
    at: np.ndarray
    left: np.ndarray
    last: np.ndarray
    n_left: np.ndarray
    n_right: np.ndarray


def _node_bounds(Xr, order, start, size, features, min_leaf, work=None):
    """:class:`_Bounds` of one node on each of ``features``, unpadded.

    The sorted rows live in ``work`` and stay valid until its next search;
    without ``work`` they get buffers of their own, which nothing else
    overwrites.
    """
    rows = features.size
    size = int(size)
    if work is None:
        work = _Work(rows * size)
    pos = _Work.view(work.pos, rows, size)
    xs = _Work.view(work.csum, rows, size)
    for r, j in enumerate(features):
        pos[r] = order[j, start : start + size]
        # "clip" never clips valid ids; it spares a copy "raise" makes of out
        np.take(Xr[j], pos[r], out=xs[r], mode="clip")
    # a left child of at + 1 rows keeps both children at least min_leaf
    # rows for at in [lo, hi)
    lo = min_leaf - 1
    hi = max(lo, size - min_leaf)
    usable = np.less(xs[:, lo:hi], xs[:, lo + 1 : hi + 1],
                     out=_Work.view(work.usable, rows, hi - lo))
    row, at = np.nonzero(usable)
    at += lo
    left = row * size + at
    n_left = at + 1.0
    return _Bounds(pos, row, at, left, row * size + (size - 1), n_left, size - n_left)


def _block_bounds(Xr, order, starts, sizes, features, min_leaf):
    """:class:`_Bounds` of a block of (node, feature) rows, padded to the
    widest node.

    A padded position leaves the right child empty and fails the size test.
    """
    width = int(sizes.max())
    if starts[0] == starts[-1]:
        # one node: its sorted segments are plain slices, nothing is padded
        pos = order[features, starts[0] : starts[0] + width]
    else:
        slot = np.minimum(starts[:, None] + np.arange(width), order.shape[1] - 1)
        pos = order[features[:, None], slot]
    # a flat take gathers about twice as fast as 2-D fancy indexing
    xs = np.take(Xr, pos + (features * Xr.shape[1])[:, None])
    n_left = np.arange(1.0, width)
    usable = xs[:, :-1] < xs[:, 1:]
    if min_leaf > 1:
        usable &= n_left >= min_leaf
    usable &= sizes[:, None] - n_left >= min_leaf
    row, at = np.nonzero(usable)
    n_left = n_left[at]
    row_size = sizes[row]
    first = row * width
    return _Bounds(pos, row, at, first + at, first + row_size - 1, n_left,
                   row_size - n_left)


def _scores(yr, bounds, work=None):
    """The half of a split search that reads y: the score of every boundary.

    The targets are gathered once and summed along each row; only the
    boundaries are scored, with the operands and operations a full-width
    pass would take, so the scores, and with them ties, the first-minimum
    rule and inf or NaN scores, are the same bit for bit.  With ``work``
    the gather and the prefix sums are written into its buffers.
    """
    rows, width = bounds.pos.shape
    if work is None:
        ys = yr[bounds.pos]
        csum = csq = None
    else:
        ys, csum, csq = (_Work.view(buf, rows, width)
                         for buf in (work.ys, work.csum, work.csq))
        np.take(yr, bounds.pos, out=ys, mode="clip")
    csum = np.cumsum(ys, axis=1, out=csum)
    csq = np.cumsum(np.multiply(ys, ys, out=ys), axis=1, out=csq)
    sum_left = csum.take(bounds.left)
    sq_left = csq.take(bounds.left)
    sum_right = csum.take(bounds.last)
    sum_right -= sum_left
    sq_right = csq.take(bounds.last)
    sq_right -= sq_left
    # (sq_left - sum_left * sum_left / n_left)
    #     + (sq_right - sum_right * sum_right / n_right), in place
    scored = np.multiply(sum_left, sum_left)
    scored /= bounds.n_left
    np.subtract(sq_left, scored, out=scored)
    np.multiply(sum_right, sum_right, out=sum_right)
    sum_right /= bounds.n_right
    np.subtract(sq_right, sum_right, out=sum_right)
    scored += sum_right
    return scored


def fit_tree(X, y, params: TreeParams | None = None) -> TreeEnsemble:
    """Fit an exact greedy least-squares tree."""
    X, y = _check_training_pair(X, y)
    params = params or TreeParams()
    Xr, order = _presort(X, np.arange(X.shape[0]))
    arrays, _ = _grow(Xr, y, order, params, feature_rng=None,
                      max_features=X.shape[1], work=_Work(X.size))
    return _pack([arrays], X.shape[1], {"params": params})


def fit_forest(
    X,
    y,
    n_trees: int = 100,
    seed: int = 0,
    params: TreeParams | None = None,
    bootstrap: bool = True,
    max_features: int | None = None,
) -> TreeEnsemble:
    """Fit a random forest regressor; the prediction is the members' mean.

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
    work = _Work(max_features * n)
    members = []
    for k in range(n_trees):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        rows = rng.integers(0, n, size=n) if bootstrap else all_rows
        Xr, order = _presort(X, rows)
        arrays, _ = _grow(Xr, y[rows], order, params, rng, max_features, work)
        members.append(arrays)
    info = {"params": params, "seed": seed, "bootstrap": bootstrap,
            "max_features": max_features}
    return _pack(members, d, info, average=True)


def fit_gbm(
    X,
    y,
    n_trees: int = 300,
    max_depth: int | None = 3,
    learning_rate: float = 0.05,
    min_samples_leaf: int = 1,
) -> TreeEnsemble:
    """Fit least-squares gradient boosting.

    The base prediction is the target mean; every stage fits a depth-capped
    tree to the current residuals and adds it with the learning rate as
    shrinkage.  Because each tree projects the residuals onto leaf means,
    the training MSE recorded in ``info["train_mse_path"]`` (one entry
    before any stage, then one per stage) never increases for rates in
    (0, 1].

    X is checked and presorted once per fit; each stage grows from a copy
    of that presort.  Every stage's root holds every row and may split on
    every feature, and only its targets change from stage to stage, so the
    half of the root's split search that reads X (sorted positions,
    distinct-value boundaries, child sizes) is built once per fit too; a
    stage gathers and sums its residuals in buffers allocated once per fit.
    A stage adds the leaf means the grower assigned to the training rows
    while partitioning them, which are the tree's predictions for those
    rows, so no stage walks its tree again.  The result is the same, bit
    for bit, as fitting each stage with :func:`fit_tree` and adding its
    ``predict(X)``.
    """
    X, y = _check_training_pair(X, y)
    if n_trees < 1:
        raise ValueError("boosting needs at least one stage")
    if not 0.0 < learning_rate <= 1.0:
        raise ValueError(f"learning_rate must be in (0, 1], got {learning_rate}")
    params = TreeParams(max_depth=max_depth, min_samples_leaf=min_samples_leaf)
    n, d = X.shape
    Xr, presorted = _presort(X, np.arange(n))
    order = np.empty_like(presorted)
    root = _node_bounds(Xr, presorted, 0, n, np.arange(d), min_samples_leaf)
    work = _Work(d * n)
    base = float(np.mean(y))
    current = np.full(y.shape, base)
    path = [float(np.mean((y - current) ** 2))]
    stages = []
    for _ in range(n_trees):
        residual = y - current
        # an overflowing mean or leaf value makes the residuals infinite
        if not np.isfinite(residual).all():
            raise ValueError("targets must be finite")
        np.copyto(order, presorted)
        arrays, fitted = _grow(
            Xr, residual, order, params, feature_rng=None, max_features=d,
            work=work, root=root,
        )
        stages.append(arrays)
        current = current + learning_rate * fitted
        path.append(float(np.mean((y - current) ** 2)))
    info = {"params": params, "learning_rate": learning_rate,
            "train_mse_path": tuple(path)}
    return _pack(stages, d, info, base=base, rate=learning_rate)
