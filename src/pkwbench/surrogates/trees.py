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

    Member ``k`` owns nodes ``offsets[k]:offsets[k + 1]`` of the two node
    arrays.  ``feature[i] == -1`` marks node ``i`` as a leaf, and
    ``value[i]`` holds the leaf's training-target mean, its prediction.  An
    internal node's ``value[i]`` is its threshold: the node routes
    ``x <= value[i]`` to its left child and the rest to its right child.

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
        # child[i] = 2s + k + 1 for node i of member k, where s counts the
        # splits ahead of node i in the whole array.  It is summed in place
        # from its increments, so no other array of every node is made.
        # From a member's first node to the next member's, it grows by
        # twice the member's splits plus one.
        child = np.empty(n, dtype=np.int64)
        child[0] = 1
        child[1:] = inner[:-1]
        child[1:] *= 2
        child[offsets[1:-1]] += 1
        np.cumsum(child, out=child)
        spans = np.diff(child[offsets[:-1]], append=child[-1] + 2 * inner[-1] + 1)
        wrong = sizes != spans
        if wrong.any():
            k = int(np.argmax(wrong))
            raise ValueError(f"member {k} has {sizes[k]} nodes and {spans[k] // 2} "
                             "splits; a member with m splits has 2m + 1 nodes")
        # In a valid member, the members ahead of member k hold
        # (offsets[k] - k) / 2 splits, so 2s + k + 1 is offsets[k] + 2r + 1
        # for the member's r-th split: its left child's global id.
        object.__setattr__(self, "child", child)

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
                    rows.take(at[pending] + self.feature[cur]) > self.value[cur])
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
    """One :class:`TreeEnsemble` from the level-ordered ``(feature, value)``
    arrays of its members, as :func:`_grow` returns them.

    ``members`` is emptied.  The arrays are packed one kind at a time and
    each member's array is dropped once copied, so packing holds the
    members and one packed kind, not the members and the whole model.
    """
    offsets = np.zeros(len(members) + 1, dtype=np.int64)
    np.cumsum([arrays[0].size for arrays in members], out=offsets[1:])
    kinds = [list(parts) for parts in zip(*members)]
    members.clear()
    packed = []
    for parts in kinds:
        out = np.empty(offsets[-1], dtype=parts[0].dtype)
        for k, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
            out[lo:hi] = parts[k]
            parts[k] = None
        packed.append(out)
    return TreeEnsemble(
        *packed, offsets,
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
# blocks.  A node whose candidate rows hold more elements is a block of its
# own, unpadded, with temporaries allocated per search.  Buffers kept for
# such nodes through a fit saved few page faults: one 300-stage fit_gbm on
# the benchmark's 3,040 x 9 matrix, in a fresh process pinned to one CPU,
# took 624 minor faults with them and 633 without.
_BLOCK = 8000

# The rows a forest grows together: consecutive trees join a group while
# their distinct rows add up to at most _GROUP_ROWS (a group holds at least
# one tree), and share every level's passes, whose cost is mostly fixed per
# numpy call.  The budget is counted in distinct rows because a group's
# memory grows with them, about 180 bytes each for the sorted features,
# their order, the targets and the counts.  A level of at most 12,288 rows
# still has at most 6,144 splits, so every child key fits in uint16 and the
# regroup's stable argsorts stay on numpy's radix sort: 26 us per 3,040
# keys, against 231 us as int32.
# Four trees of the benchmark's 3,040 rows took 0.69x the bench time for
# 2.7% more peak memory (BENCH_16.json).  A bootstrap tree holds about
# 1,920 of them, so a group now holds six.
_GROUP_ROWS = 12_288


def _sort_keys(X):
    """Each feature's presort key: its dense value ranks in the narrowest
    unsigned type that holds them.

    The ranks are order-isomorphic to the values and tie exactly where the
    values tie (``-0.0 == 0.0``), so a stable sort on them gives the order
    a stable sort on the values gives, bit for bit.  numpy sorts keys of at
    most 16 bits stably with a radix sort: 24 us per 3,040 ``uint16`` keys,
    against about 240 us for a stable float64 argsort.  A feature with more
    than 65,536 distinct values gets ``uint32`` ranks, which numpy sorts
    stably by comparison, as it sorts the values.
    """
    keys = []
    for column in X.T:
        values, ranks = np.unique(column, return_inverse=True)
        keys.append(ranks.astype(np.min_scalar_type(values.size - 1)))
    return keys


def _sort_order(X):
    """The presort of one tree on every row of ``X``, as ``(d + 1) x n``
    row ids: row ``j`` lists the rows sorted stably on feature ``j`` (on its
    :func:`_sort_keys`), so tied values keep row order, and row ``d`` lists
    them as they are."""
    n, d = X.shape
    order = np.empty((d + 1, n), dtype=np.intp)
    for j, key in enumerate(_sort_keys(X)):
        order[j] = np.argsort(key, kind="stable")
    order[d] = np.arange(n)
    return order


def _presort(X, ranked, rows, sizes):
    """The transposed rows of ``X`` and their ``(d + 1) x m`` order, for
    trees whose rows lie end to end.

    Tree ``t`` holds the next ``sizes[t]`` entries of ``rows``: distinct
    row ids in ascending order.  Its segment of order row ``j`` lists its
    positions sorted by feature ``j``, ties in row order, as ``ranked``, the
    fit's :func:`_sort_order`, lists the rows: that order filtered to the
    tree's rows, one boolean compress per feature and no sort, for a tree
    on every row too.  The last row of the order lists the positions as
    they are.
    """
    n, d = X.shape
    m = rows.size
    Xr = np.empty((d, m))
    for j, column in enumerate(X.T):
        # one feature at a time: a take along an axis copies all of X first
        np.take(column, rows, out=Xr[j])
    order = np.empty((d + 1, m), dtype=np.intp)
    order[d] = np.arange(m)
    start = 0
    for size in sizes:
        kept = np.zeros(n, dtype=bool)
        position = np.empty(n, dtype=np.intp)
        tree_rows = rows[start : start + size]
        kept[tree_rows] = True
        position[tree_rows] = order[d, start : start + size]
        # each feature keeps exactly the tree's rows, so the compressed
        # matrix lists them feature by feature
        picked = ranked[:d][kept[ranked[:d]]]
        np.take(position, picked.reshape(d, size), out=order[:d, start : start + size])
        start += size
    return Xr, order


def _with_squares(y, counts=None):
    """Each target in the real part and its square in the imaginary part,
    each times the row's count when ``counts`` are given.

    Complex addition adds the parts apart, so one ``cumsum`` of gathered
    targets gives both prefix sums of the split search, each the same
    sequential float sum a float ``cumsum`` of its part makes.  On the
    benchmark's 9 x 3,040 matrix, the gather and that one sum take 149 us,
    against 251 us for a float gather, the squares and two sums.
    """
    out = np.empty(y.size, dtype=np.complex128)
    out.real = y
    # a huge target squares to inf, and its node's splits lose
    with np.errstate(over="ignore"):
        np.multiply(y, y, out=out.imag)
        if counts is not None:
            out.real *= counts
            out.imag *= counts
    return out


def _grow(Xr, yr, order, params, max_features, feature_rngs=(None,), sizes=None,
          counts=None, root=None, fitted=None, buffer=None):
    """Grow one tree per generator, together, level by level over
    presorted rows, and return each tree's node arrays in that order.

    Tree ``t``'s root holds the ``t``-th run of ``sizes[t]`` consecutive
    positions (every position without ``sizes``) and draws its feature
    subsets from ``feature_rngs[t]``.

    ``counts``, when given, weights each position by the times its row was
    drawn.  The split search then sums ``w * y`` and ``w * y**2``, a
    child's size is the prefix sum of its counts (:func:`_block_bounds`,
    which alone applies ``min_samples_leaf``), ``min_samples_split``
    applies to a node's summed counts, and a node's value is
    ``np.add.reduce(w * y) / np.add.reduce(w)`` over its positions in row
    order.  Without counts each position counts once and no count is read.
    Candidate thresholds are midpoints between distinct values either way.

    ``order`` comes from :func:`_presort` or :func:`_sort_order`; it lists
    the root level's rows, and the levels below are regrouped into
    ``buffer``, an array of its shape, or into ``order`` itself when no
    buffer is given.  So a caller that grows many trees from one presort
    passes a buffer and never copies the presort, which stays as it was.
    At each level, row ``j`` of the rows lists the rows of the level's
    nodes, grouped by node in level order, the first tree's nodes first,
    each group sorted by feature ``j``; row ``d`` keeps each group in row
    order.  One pass over a level scores every candidate feature of every
    node of every tree, and a stable sort on the child index regroups the
    rows for the next level, so each group stays sorted without sorting
    it again.  A node's split and children depend on its own rows alone,
    and with fewer than ``d`` candidate features, each tree that has
    splittable nodes at a depth draws one permutation per node from its
    own generator, for those nodes in level order, as it would alone; a
    tree with none draws nothing.  So a tree grown next to others is, bit
    for bit, the tree grown alone.  With one root, nothing is tracked per
    tree.

    A tree's node arrays, ``(feature, value)``, are its levels concatenated,
    each split node's threshold in place of its mean: the level order
    :class:`TreeEnsemble` stores a member in.  ``fitted``, when given,
    receives each row's leaf mean when the row leaves the search, which
    equals what its tree predicts for it, since ``x > threshold`` is the
    negation of ``x <= threshold`` on finite features.

    ``root``, with one root only, is the half of the root's split search
    that reads ``Xr``, on every feature (see :func:`_best_splits`), built
    by :func:`_block_bounds` from ``order`` as one node of every row.
    """
    d, n = Xr.shape
    if buffer is None:
        buffer = order
    y_sq = _with_squares(yr, counts)
    n_roots = len(feature_rngs)
    several = n_roots > 1
    sizes = np.array([n] if sizes is None else sizes)
    tree = np.arange(n_roots)  # each node's tree, with several roots
    trees = []
    levels = []
    rows = order  # the presort at the root, the buffer below it
    depth = 0
    while True:
        m = int(sizes.sum())
        starts = np.cumsum(sizes) - sizes
        slot_rows = rows[d, :m]
        in_rows = yr[slot_rows]
        feature = np.full(sizes.size, _LEAF, dtype=np.int32)
        if counts is None:
            weights = sizes
            means = _segment_sums(in_rows, starts, sizes)
        else:
            # whole counts: any order sums them exactly
            weights = np.add.reduceat(counts[slot_rows], starts)
            means = _segment_sums(y_sq.real[slot_rows], starts, sizes)
        means /= weights
        levels.append((feature, means))
        if several:
            trees.append(tree)
        if fitted is not None:
            # rows that split again are overwritten one level down
            fitted[slot_rows] = np.repeat(means, sizes)
        if params.max_depth is not None and depth >= params.max_depth:
            break
        y_min = np.minimum.reduceat(in_rows, starts)
        y_max = np.maximum.reduceat(in_rows, starts)
        del in_rows  # level-wide temporaries go before the split search
        nodes = np.flatnonzero((weights >= params.min_samples_split) & (y_min != y_max))
        if not nodes.size:
            break
        if max_features >= d:
            cand = np.broadcast_to(np.arange(d), (nodes.size, d))
        else:
            # a permutation of the features per splittable node, in level
            # order, drawn in place, each tree's from its own generator
            cand = np.tile(np.arange(d), (nodes.size, 1))
            ends = (np.cumsum(np.bincount(tree[nodes], minlength=n_roots))
                    if several else [nodes.size])
            for rng, lo, hi in zip(feature_rngs, [0, *ends], ends):
                if hi > lo:
                    block = cand[lo:hi]
                    rng.permuted(block, axis=1, out=block)
            cand = cand[:, :max_features]
            cand.sort(axis=1)
        # huge targets overflow, and their splits lose
        with np.errstate(all="ignore"):
            j, thr, found = _best_splits(
                Xr, y_sq, rows[:, :m], starts[nodes], sizes[nodes], cand,
                params.min_samples_leaf, root if depth == 0 else None, counts,
            )
        split = nodes[found]
        if not split.size:
            break
        feature[split] = j[found]
        means[split] = thr[found]  # a split node holds its threshold
        if several:
            tree = np.repeat(tree[split], 2)
        # the r-th split node's children are 2r (left) and 2r + 1 (right);
        # rows of unsplit nodes get a key of 2 * split.size or one more and
        # sort past the rows that are kept.  Keys of at most 16 bits sort
        # on numpy's radix sort, 8-bit ones in one pass: 15 us per 3,040
        # keys, against 22 us as 16-bit ones and 112 us as int32.
        key_type = np.min_scalar_type(2 * split.size + 1)
        child = np.full(sizes.size, 2 * split.size, dtype=key_type)
        child[split] = 2 * np.arange(split.size)
        # a flat take gathers about twice as fast as 2-D fancy indexing;
        # an unsplit node reads feature 0 against its mean and keeps its key
        # past the rest
        flat = np.maximum(feature, 0).astype(np.intp)
        flat *= n
        slot_node = np.repeat(np.arange(sizes.size), sizes)
        slot_key = child[slot_node] + (
            Xr.take(flat[slot_node] + slot_rows) > means[slot_node]
        )
        key = np.empty(n, dtype=key_type)
        key[slot_rows] = slot_key
        sizes = np.bincount(slot_key)[: 2 * split.size]
        del slot_node, slot_key  # and before the next level's
        kept = int(sizes.sum())
        depth += 1
        # below the depth cap only the row order is read again
        last = params.max_depth is not None and depth >= params.max_depth
        for r in range(d if last else 0, d + 1):
            row = rows[r, :m]
            buffer[r, :kept] = row[np.argsort(key[row], kind="stable")[:kept]]
        rows = buffer
    arrays = tuple(map(np.concatenate, zip(*levels)))
    if not several:
        return [arrays]
    # each tree's nodes, still in level order
    tree = np.concatenate(trees)
    by_tree = np.argsort(tree, kind="stable")
    cuts = np.cumsum(np.bincount(tree, minlength=n_roots))[:-1]
    return list(zip(*(np.split(a[by_tree], cuts) for a in arrays)))


def _segment_sums(values, starts, sizes):
    """``np.add.reduce`` of every segment, bit for bit, batching equal
    sizes; divided by its size, a sum is the segment's ``np.mean``.

    A row of a 2-D ``np.add.reduce`` sums in the same pairwise order as the
    1-D reduction makes, which padding would change.
    """
    out = np.empty(sizes.size)
    by_size = np.argsort(sizes, kind="stable")
    bounds = [0, *(np.flatnonzero(np.diff(sizes[by_size])) + 1).tolist(), sizes.size]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        group = by_size[lo:hi]
        width = int(sizes[group[0]])
        if hi - lo == 1:
            start = int(starts[group[0]])
            out[group[0]] = np.add.reduce(values[start : start + width])
        else:
            block = values[starts[group, None] + np.arange(width)]
            out[group] = np.add.reduce(block, axis=1)
    return out


def _best_splits(Xr, y_sq, order, starts, sizes, cand, min_leaf, root=None, counts=None):
    """Best split of every node; return (feature, threshold, found) arrays.

    Node ``k`` covers ``order[:, starts[k]:starts[k] + sizes[k]]`` and may
    split on the ascending features ``cand[k]``.  Each (node, feature) pair
    is one row of a prefix sum that starts at zero on its own sorted
    segment, so its scores are the ones a scan of that node alone computes,
    bit for bit.  Only the boundaries between distinct values are scored:
    a geometry feature of the benchmark matrix takes one value per
    geometry, so most positions cannot end a left child.

    The search has two halves.  The half that reads ``Xr`` finds each
    row's sorted positions and its boundaries (:func:`_block_bounds`); the
    half that reads the targets, ``y_sq`` from :func:`_with_squares`,
    scores the boundaries (:func:`_scores`).  ``root``, when given, is the
    first half for a level holding one node of every row on every feature,
    built once by the caller, since a boosting stage changes only the
    targets.  Any other node whose candidate rows hold more than
    ``_BLOCK`` elements is searched on its own, as a block of one node,
    and its winner picked from its boundaries alone (:func:`_node_min`);
    when no node is narrower, nothing else runs.  Narrower nodes' pairs
    are batched by size class, which pads a row to at most twice its
    length, into blocks of at most ``_BLOCK`` elements.  Within a row the
    first minimum wins (the lowest threshold); across a node's features
    the first strictly lower score wins (the lowest index).  A target whose
    square overflows makes every split of its node score inf or NaN, so
    the node does not split; a child's sum whose square overflows while
    the squares sum finitely scores -inf, and that split wins.  With
    ``counts`` the rows are weighted: ``y_sq`` holds the weighted sums and
    the X half counts the child sizes.
    """
    n_nodes, n_cand = cand.shape
    score = np.empty((n_nodes, n_cand))
    at = np.empty((n_nodes, n_cand), dtype=np.intp)
    wide = (sizes * n_cand > _BLOCK) | (root is not None)
    for k in np.flatnonzero(wide):
        if root is None:
            # one block of the node's rows, one row per candidate feature
            bounds = _block_bounds(Xr, order, np.repeat(starts[k], n_cand),
                                   np.repeat(sizes[k], n_cand), cand[k], min_leaf, counts)
        else:
            bounds = root
        best, row, pos = _node_min(_scores(y_sq, bounds), bounds.row, bounds.at)
        # the winner alone among the node's rows, so the argmin across them
        # below picks it; inf rows at position 0 stand for the others
        score[k] = math.inf
        at[k] = 0
        score[k, row] = best
        at[k, row] = pos
    if not wide.all():
        # the narrow nodes' pairs, batched by size class
        pair_node = np.repeat(np.arange(n_nodes), n_cand)
        pair_feature = cand.ravel()
        pair_size = sizes[pair_node]
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
                    Xr, order, starts[node], sizes[node], pair_feature[block], min_leaf,
                    counts,
                )
                # a block is small: spread its scores over rows of inf
                full = np.full(bounds.pos.shape, math.inf)
                full[bounds.row, bounds.at] = _scores(y_sq, bounds)
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
    floats, which divide exactly as the integer ones would.  A grower that
    weights rows by counts counts them in the sizes and in the
    ``min_samples_leaf`` rule too.  Boundaries are ordered by row, then by
    position.
    """

    pos: np.ndarray
    row: np.ndarray
    at: np.ndarray
    left: np.ndarray
    last: np.ndarray
    n_left: np.ndarray
    n_right: np.ndarray


def _block_bounds(Xr, order, starts, sizes, features, min_leaf, counts=None):
    """:class:`_Bounds` of a block of (node, feature) rows, padded to the
    widest node.

    A padded position repeats the row's last one, so no boundary lies in
    the padding.  A block of one node, as a wide node is searched, reads
    its sorted rows as slices of ``order`` and pads nothing.  Without
    ``counts`` a left child of ``at + 1`` positions holds that many rows;
    with them, the child sizes are the prefix sums of the counts along
    each row.  The ``min_samples_leaf`` rule is applied to those sizes.
    """
    width = int(sizes.max())
    if starts[0] == starts[-1]:
        # one node: its sorted segments are plain slices
        pos = order[features, starts[0] : starts[0] + width]
    else:
        slot = np.minimum(starts[:, None] + np.arange(width), (starts + sizes - 1)[:, None])
        pos = order[features[:, None], slot]
    # a flat take gathers about twice as fast as 2-D fancy indexing
    xs = np.take(Xr, pos + (features * Xr.shape[1])[:, None])
    row, at = np.nonzero(xs[:, :-1] < xs[:, 1:])
    size = sizes[row]
    first = row * width
    left = first + at
    last = first + size - 1
    if counts is None:
        n_left = at + 1.0
        total = size
    else:
        weights = np.cumsum(counts.take(pos), axis=1)
        n_left = weights.take(left)
        total = weights.take(last)
    n_right = total - n_left
    if min_leaf > 1:
        # with min_leaf 1 every child of a boundary holds a row
        keep = (n_left >= min_leaf) & (n_right >= min_leaf)
        return _Bounds(pos, *(a[keep] for a in (row, at, left, last, n_left, n_right)))
    return _Bounds(pos, row, at, left, last, n_left, n_right)


def _scores(y_sq, bounds):
    """The half of a split search that reads y: the score of every boundary.

    ``y_sq`` holds each row's target and its square (:func:`_with_squares`).
    They are gathered once and summed along each row in one complex
    ``cumsum``, whose real and imaginary parts are the two prefix sums,
    each added in the same order as a float ``cumsum`` of its part.  Only
    the boundaries are scored, with the operands and operations a
    full-width pass would take, so the scores, and with them ties, the
    first-minimum rule and inf or NaN scores, are the same bit for bit.
    """
    sums = y_sq.take(bounds.pos)
    np.cumsum(sums, axis=1, out=sums)
    left = sums.take(bounds.left)
    right = sums.take(bounds.last)
    right -= left
    # (sq_left - sum_left * sum_left / n_left)
    #     + (sq_right - sum_right * sum_right / n_right), in place
    scored = np.multiply(left.real, left.real)
    scored /= bounds.n_left
    np.subtract(left.imag, scored, out=scored)
    # the last sum adds two contiguous arrays, as a float pass does: numpy's
    # vector and scalar loops may return different NaNs of two NaN addends
    right_sum = np.multiply(right.real, right.real)
    right_sum /= bounds.n_right
    np.subtract(right.imag, right_sum, out=right_sum)
    scored += right_sum
    return scored


def fit_tree(X, y, params: TreeParams | None = None) -> TreeEnsemble:
    """Fit an exact greedy least-squares tree."""
    X, y = _check_training_pair(X, y)
    params = params or TreeParams()
    members = _grow(X.T.copy(), y, _sort_order(X), params, X.shape[1])
    return _pack(members, X.shape[1], {"params": params})


def _grow_bagged(X, y, ranked, group, params, max_features):
    """Grow one forest tree per ``(generator, rows, counts)`` entry of
    ``group``, together, each on its own rows.

    A tree's ``rows`` are its distinct row ids in ascending order and
    ``counts`` the times each was drawn, or ``None`` for a tree on every
    row once; the generator draws the tree's feature subsets.  The trees
    take consecutive runs of the group's arrays, presorted from the fit's
    ``ranked`` order (:func:`_presort`).  The arrays are built in place and
    live only for this call, so a fit holds one group's at a time.
    """
    rngs, rows, counts = zip(*group)
    sizes = [r.size for r in rows]
    rows = np.concatenate(rows)
    yr = y[rows]
    Xr, order = _presort(X, ranked, rows, sizes)
    del rows  # one copy of the group's rows less while it grows
    counts = None if counts[0] is None else np.concatenate(counts)
    return _grow(Xr, yr, order, params, max_features, rngs, sizes, counts)


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
    which draws the tree's bootstrap resample of the full training size
    and then a fresh feature subset at each split (``ceil(d / 3)``
    features unless overridden).  Trees grow level by level, so the
    subsets come from the tree's generator one depth at a time: at each
    depth, every node of the tree that passes the stopping rules gets the
    first ``max_features`` entries of its own random permutation of the
    features, in left-to-right order.

    A bootstrap tree grows on the rows it drew at least once, each weighted
    by ``np.bincount`` of its draws, as scikit-learn grows Breiman's
    forests: about 63.2% (1 - 1/e) of the rows, with the split scores, the
    leaf means and the ``min_samples_leaf`` and ``min_samples_split`` sizes
    counted over the draws (see :func:`_grow`).  The candidate thresholds
    are those of the duplicated rows; sums over counts round differently
    from sums over duplicates, so leaf values can differ from such a
    tree's in the last bits, and near-tied splits can go the other way.
    X is sorted once per fit, and each tree's presort is that order
    filtered to its rows.

    The trees grow together in groups of at most ``_GROUP_ROWS`` rows
    (at least one tree), counting each tree's distinct rows, each group
    from several roots in one :func:`_grow` call, so they share every
    level's passes.  Members are independent and each draws only from its
    own generator, so the forest is the same, bit for bit, for any group
    size.  The budget is counted in rows because a group's memory and its
    child keys grow with its rows, not its trees.  With ``n_trees=1``,
    ``bootstrap=False`` and ``max_features`` equal to the full feature
    count the result degenerates to :func:`fit_tree`.
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
    ranked = _sort_order(X)
    members = []
    group = []
    used = 0
    for k in range(n_trees):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        rows, counts = ranked[d], None
        if bootstrap:
            counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
            rows = np.flatnonzero(counts)
            counts = counts[rows].astype(float)
        if group and used + rows.size > _GROUP_ROWS:
            members += _grow_bagged(X, y, ranked, group, params, max_features)
            group, used = [], 0
        group.append((rng, rows, counts))
        used += rows.size
    members += _grow_bagged(X, y, ranked, group, params, max_features)
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

    X is checked and presorted once per fit.  Each stage reads its root
    level from that presort, which no stage writes, and regroups the
    levels below into one buffer allocated once per fit, so no stage
    copies the presort.  Every stage's root holds every row and may split
    on every feature, and only its targets change from stage to stage, so
    the half of the root's split search that reads X (sorted positions,
    distinct-value boundaries, child sizes) is built once per fit too.
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
    Xr, presorted = X.T.copy(), _sort_order(X)
    root = _block_bounds(Xr, presorted, np.zeros(d, dtype=np.intp), np.full(d, n),
                         np.arange(d), min_samples_leaf)
    buffer = np.empty_like(presorted)
    fitted = np.empty(n)
    base = float(np.mean(y))
    current = np.full(y.shape, base)
    path = [float(np.mean((y - current) ** 2))]
    stages = []
    for _ in range(n_trees):
        residual = y - current
        # an overflowing mean or leaf value makes the residuals infinite
        if not np.isfinite(residual).all():
            raise ValueError("targets must be finite")
        stages += _grow(Xr, residual, presorted, params, d, root=root, fitted=fitted,
                        buffer=buffer)
        current = current + learning_rate * fitted
        path.append(float(np.mean((y - current) ** 2)))
    info = {"params": params, "learning_rate": learning_rate,
            "train_mse_path": tuple(path)}
    return _pack(stages, d, info, base=base, rate=learning_rate)
