"""Regression trees, bagged forests, and least-squares gradient boosting.

All three fit to one type, :class:`TreeEnsemble`: the node arrays of every
member tree packed end to end, with one predict loop for every kind.  The
tree fitter is exact greedy CART: every split candidate is the midpoint
of two consecutive distinct sorted values, and the winner minimizes the
summed within-child squared error.  Ties are broken deterministically by the
lowest feature index, then the lowest threshold, so a fit is a pure function
of its inputs.  Samples with feature value <= threshold go to the left child.

A node with more rows than the distinct values of its candidate features
is scored from histograms over those values, whose bins are each
feature's value ranks, so every candidate is found and nothing is
binned approximately: the "hist" split finding of XGBoost (Chen &
Guestrin, KDD 2016) and LightGBM (Ke et al., NeurIPS 2017), with
LightGBM's sibling subtraction.  Smaller nodes are read from their rows
sorted by each feature.  Either way each (node, feature) pair is one row
of prefix sums, over the feature's bins or over the node's sorted rows,
and one scorer picks every row's best boundary.  Histograms sum the
targets in another order, so a near-tied split can go either way.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..errors import EmptyData, ShapeMismatch

__all__ = [
    "TreeParams",
    "TreeEnsemble",
    "fit_tree",
    "fit_forest",
    "fit_gbm",
    "fit_gbm_sets",
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


def _pack(chunks, n_features, info, *, base=-0.0, rate=1.0, average=False):
    """One :class:`TreeEnsemble` from chunks of its members in member
    order, each ``(feature, value, n_nodes)`` as :func:`_grow` returns
    them: the level-ordered node arrays of consecutive members laid end to
    end, and each member's node count.

    ``chunks`` is emptied.  The arrays are packed one kind at a time and
    each chunk's array is dropped once copied, so packing holds the chunks
    and one packed kind, not the chunks and the whole model.
    """
    n_nodes = np.concatenate([chunk[2] for chunk in chunks])
    offsets = np.zeros(n_nodes.size + 1, dtype=np.int64)
    np.cumsum(n_nodes, out=offsets[1:])
    kinds = [list(parts) for parts in zip(*chunks)][:2]
    chunks.clear()
    packed = []
    for parts in kinds:
        out = np.empty(offsets[-1], dtype=parts[0].dtype)
        at = 0
        for k, part in enumerate(parts):
            out[at : at + part.size] = part
            at += part.size
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


# Narrow nodes' element budget: their (node, feature) rows are
# batched into blocks of at most this many elements, so each temporary
# stays under 64 KiB of float64 and the allocator keeps reusing the same
# small blocks.  A narrow node holds at most the mean distinct-value count
# of its candidate features in rows, so only candidates averaging more than
# 4,000 distinct values make a block of a single row.  predict batches its
# (row, member) cells by the same budget.
_BLOCK = 8000

# The histogram bins scored at a time.  A histogram is kept at its
# feature's bins, but is scored in a block of rows padded to the widest,
# and scoring takes about 55 bytes of temporaries a padded bin, so this
# bounds them to about 3.6 MB; on the benchmark's 3,040 x 9 matrix, at most
# 159 bins a feature, every level is scored at once.  A paper-scale tree
# (57,684 x 9, 19 to 2,986 bins a feature) peaked at 73 MB RSS scoring
# whole levels, and at 62 MB with this bound.
_HIST_CELLS = 65_536

# The rows a forest grows together: consecutive trees join a group while
# their distinct rows add up to at most _GROUP_ROWS (a group holds at least
# one tree), and share every level's passes, whose cost is mostly fixed per
# numpy call.  The budget is counted in distinct rows because a group's
# memory grows with them, about 130 bytes each for the ranks, the sorted
# rows of narrow nodes, the targets and the counts.  A level of at most
# 12,288 rows still has at most 6,144 splits, so every child key fits in
# uint16 and the regroup's stable argsorts stay on numpy's radix sort:
# 26 us per 3,040 keys, against 231 us as int32.
# Four trees of the benchmark's 3,040 rows took 0.69x the bench time for
# 2.7% more peak memory (BENCH_16.json).  A bootstrap tree holds about
# 1,920 of them, so a group now holds six.  Boosting groups its fits by
# _BOOST_ROWS instead.
_GROUP_ROWS = 12_288

# The rows a group of boosting fits grows in lockstep (fit_gbm_sets),
# counted as _GROUP_ROWS counts a forest's, over each fit's rows.  Each
# level of a group's stage scores every root's nodes over the union's
# bins, so its scoring blocks fill toward _HIST_CELLS, which a lone
# depth-3 tree on 3,040 rows never nears, and peak memory grows with the
# budget.  On the benchmark's gbm-matrix (12 fits of 304 to 3,040 rows),
# bench time and peak RSS against separate fits, one run each at seed 14,
# were: 6,144 rows 0.83x and +1.7 MB; 7,168 rows 0.77x and +2.1 MB; 8,192
# rows 0.81x and +2.7 MB.  12,288 rows (seed 11) took 0.67x and +6.3 MB,
# past the benchmark's 10% bound on peak RSS.  Over ten pairs, 7,168 rows
# read 0.74x and +1.9 MB (BENCH_27.json).
_BOOST_ROWS = 7_168


def _ranks(X):
    """Each feature's sorted distinct values, and every row's rank among
    them as a ``(d, n)`` array in the narrowest unsigned type that holds
    every feature's ranks.

    The ranks are order-isomorphic to the values and tie exactly where the
    values tie (``-0.0 == 0.0``), so the grower reads nothing else: a
    stable sort on them orders rows as a stable sort on the values does, a
    node's rows fall into one histogram bin per distinct value, and a row
    goes left of a split exactly when its rank is at most that of the
    split's lower value.  Thresholds are read from the distinct values.
    """
    columns = [np.unique(column, return_inverse=True) for column in X.T]
    top = max(values.size for values, _ in columns) - 1
    ranks = np.empty(X.shape[::-1], dtype=np.min_scalar_type(top))
    for j, (_, inverse) in enumerate(columns):
        ranks[j] = inverse
    return [values for values, _ in columns], ranks


def _sort_rows(ranks, bins, rows, sizes, out):
    """Write each node's rows, sorted stably on feature ``j``, into
    ``out[j]`` for every feature.

    ``rows`` lists the nodes' rows grouped by node, ``sizes[k]`` for node
    ``k``, each group in row order, so tied values keep row order.  A
    stable sort on the ranks, then one on the node, keeps every group in
    rank order; keys of at most 16 bits, as every feature's ranks of fewer
    than 65,537 distinct values are cast, sort on numpy's radix sort.
    """
    node = None
    if sizes.size > 1:
        node = np.repeat(np.arange(sizes.size).astype(np.min_scalar_type(sizes.size - 1)),
                         sizes)
    for j, n_bins in enumerate(bins):
        key = ranks[j].take(rows).astype(np.min_scalar_type(n_bins - 1), copy=False)
        by = np.argsort(key, kind="stable")
        if node is not None:
            by = by[np.argsort(node[by], kind="stable")]
        np.take(rows, by, out=out[j])


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


def _grow(ranks, values, yr, params, max_features, feature_rngs=None, sizes=None,
          counts=None, fitted=None, root_bins=None):
    """Grow one tree per root, together, level by level, and return their
    node arrays.

    ``ranks`` and ``values`` are :func:`_ranks` of the rows, with ``values``
    taken over every row of the fit.  Tree ``t``'s root holds the ``t``-th
    run of ``sizes[t]`` consecutive rows (one root of every row without
    ``sizes``) and, with fewer than ``d`` candidate features, draws its
    feature subsets from ``feature_rngs[t]``.

    ``counts``, when given, weights each row by the times it was drawn.
    The split search then sums ``w * y`` and ``w * y**2``, a child's size
    is the sum of its counts, ``min_samples_leaf`` and ``min_samples_split``
    apply to those sums, and a node's value is ``np.add.reduce(w * y) /
    np.add.reduce(w)`` over its rows in row order.  Without counts each row
    counts once and no count is read.  Candidate thresholds are midpoints
    between consecutive distinct values of the node either way.

    Each level lists its rows grouped by node in level order, the first
    tree's nodes first, each group in row order; one pass over a level
    scores every candidate feature of every node of every tree, and a
    stable sort on the child index regroups the rows for the next level.
    A node is *wide* when its rows times its candidate features outnumber
    the bins of those features: the distinct values of the fit or, with
    ``root_bins``, of the node's root.  ``root_bins[t, j]`` counts the
    distinct values of feature ``j`` on root ``t``'s rows, so roots that
    stand for separate fits, ranked over their union, each route their
    nodes as a fit on their own rows would.  A wide node's (node, feature)
    pairs are rows of histogram bins (:func:`_wide_histograms`,
    :func:`_wide_splits`), and the last level's histograms are dropped
    before the scores are taken.  A *narrow* node's pairs are rows of its
    rows sorted by each feature (:func:`_narrow_splits`).  One scorer,
    :func:`_row_splits`, takes both kinds of row.
    Sorted rows are kept only for narrow nodes and their descendants, each
    level's regrouped from the last by the same stable sort on the child
    index; a narrow node without them, the root or a child of a wide node,
    sorts its rows on its ranks (:func:`_sort_rows`).  So a level whose
    nodes are all wide reads and regroups no sorted rows.

    A node's split and children depend on its own rows alone, and its
    parent's histograms, and with fewer than ``d`` candidate features, each
    tree that has splittable nodes at a depth draws one permutation per
    node from its own generator, for those nodes in level order, as it
    would alone; a tree with none draws nothing.  So a tree grown next to
    others is, bit for bit, the tree grown alone.  Values of other roots'
    rows are bins that none of a root's rows fill: its histograms sum
    exact zeros there, its thresholds are read from the values its rows
    hold, and every score's first minimum stays first, so with
    ``root_bins`` the tree is also the one grown on its rows' own
    :func:`_ranks`.  With one root, nothing is tracked per tree.

    Returns ``(feature, value, n_nodes)``: the trees' node arrays laid end
    to end in root order, and each tree's node count.  A tree's arrays are
    its levels concatenated, each split node's threshold in place of its
    mean: the level order :class:`TreeEnsemble` stores a member in.
    ``fitted``, when given, receives each row's leaf mean when the row
    leaves the search, which equals what its tree predicts for it, since
    ``x > threshold`` is the negation of ``x <= threshold`` on finite
    features.
    """
    d, n = ranks.shape
    bins = np.array([v.size for v in values])
    edges = np.concatenate(values)
    first_edge = np.cumsum(bins) - bins
    y_sq = _with_squares(yr, counts)
    sizes = np.array([n] if sizes is None else sizes)
    n_roots = sizes.size
    several = n_roots > 1
    n_cand = min(max_features, d)
    full = n_cand == d
    every = np.broadcast_to(np.arange(d), (n, d))  # every feature, for any node
    tree = np.arange(n_roots)  # each node's tree, with several roots
    trees = []
    levels = []
    rows = np.arange(n)  # the level's rows, grouped by node, each in row order
    order = None  # the sorted rows of the nodes that keep them
    ranked = np.zeros(sizes.size, dtype=bool)  # nodes whose sorted rows are in order
    begin = np.zeros(sizes.size, dtype=np.intp)  # where a ranked node's rows begin
    held = 0  # entries of each row of order in use
    carry = None  # the last level's histograms, for subtraction
    depth = 0
    while True:
        starts = np.cumsum(sizes) - sizes
        in_rows = yr[rows]
        feature = np.full(sizes.size, _LEAF, dtype=np.int32)
        if counts is None:
            weights = sizes
            means = _segment_sums(in_rows, starts, sizes)
        else:
            # whole counts: any order sums them exactly
            weights = np.add.reduceat(counts[rows], starts)
            means = _segment_sums(y_sq.real[rows], starts, sizes)
        means /= weights
        levels.append((feature, means))
        if several:
            trees.append(tree)
        if fitted is not None:
            # rows that split again are overwritten one level down
            fitted[rows] = np.repeat(means, sizes)
        if params.max_depth is not None and depth >= params.max_depth:
            break
        y_min = np.minimum.reduceat(in_rows, starts)
        y_max = np.maximum.reduceat(in_rows, starts)
        del in_rows  # level-wide temporaries go before the split search
        nodes = np.flatnonzero((weights >= params.min_samples_split) & (y_min != y_max))
        if not nodes.size:
            break
        if full:
            cand = every[: nodes.size]
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
            cand = cand[:, :n_cand]
            cand.sort(axis=1)
        # a node is wide when its rows on its candidates outnumber their bins
        if root_bins is not None:
            n_bins = root_bins[tree[nodes][:, None], cand].sum(axis=1)
        else:
            n_bins = bins.sum() if full else bins[cand].sum(axis=1)
        wide = sizes[nodes] * n_cand > n_bins
        narrow = nodes[~wide]
        fresh = narrow[~ranked[narrow]]
        if fresh.size:
            fresh_rows = rows[_segments(starts[fresh], sizes[fresh])]
            if order is None or order.shape[1] < held + fresh_rows.size:
                # only as wide as the sorted rows held: in a group of fits,
                # the few narrow nodes of its small fits hold far fewer
                # rows than the group
                grown = np.empty((d, held + fresh_rows.size), dtype=np.intp)
                if held:
                    grown[:, :held] = order[:, :held]
                order = grown
            _sort_rows(ranks, bins, fresh_rows, sizes[fresh],
                       order[:, held : held + fresh_rows.size])
            begin[fresh] = held + np.cumsum(sizes[fresh]) - sizes[fresh]
            ranked[fresh] = True
            held += fresh_rows.size
            del fresh_rows
        # huge targets overflow, and their splits lose
        with np.errstate(all="ignore"):
            # each pair's best score, and the ranks of its left child's top
            # value and of its right child's lowest
            score = np.empty(cand.shape)
            cut = np.empty(cand.shape, dtype=np.intp)
            above = np.empty(cand.shape, dtype=np.intp)
            hists = None
            if wide.any():
                hists = _wide_histograms(ranks, bins, y_sq, counts, rows, starts, sizes,
                                         nodes[wide], cand[wide], carry)
                carry = None  # the parents' histograms go before the scores
                score[wide], cut[wide], above[wide] = _wide_splits(
                    *hists, bins[cand[wide]], params.min_samples_leaf)
            if narrow.size:
                score[~wide], cut[~wide], above[~wide] = _narrow_splits(
                    ranks, y_sq, counts, order, begin[narrow], sizes[narrow], cand[~wide],
                    params.min_samples_leaf,
                )
        # across a node's features the first strictly lower score wins
        pick = np.argmin(score, axis=1)
        k = np.arange(nodes.size)
        found = score[k, pick] < math.inf
        split = nodes[found]
        if not split.size:
            break
        j = cand[k, pick][found]
        cut = cut[k, pick][found]
        lo = edges[first_edge[j] + cut]
        hi = edges[first_edge[j] + above[k, pick][found]]
        with np.errstate(over="ignore"):
            mid = 0.5 * (lo + hi)
        feature[split] = j
        # a split node holds its threshold; the midpoint of adjacent doubles
        # can round up to the upper value, so fall back to the lower one
        # and the right child stays nonempty
        means[split] = np.where(mid >= hi, lo, mid)
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
        # a row goes right when its rank passes the left child's top rank;
        # an unsplit node reads feature 0 against rank 0 and keeps its key
        # past the rest
        flat = np.zeros(sizes.size, dtype=np.intp)
        flat[split] = j * n
        top = np.zeros(sizes.size, dtype=np.intp)
        top[split] = cut
        slot_key = np.repeat(child, sizes) + (
            ranks.take(np.repeat(flat, sizes) + rows) > np.repeat(top, sizes))
        carry = None
        if full and hists is not None:
            # each split node's row in this level's histograms, or -1
            row_of = np.full(sizes.size, -1)
            row_of[nodes[wide]] = np.arange(np.count_nonzero(wide))
            carry = hists, row_of[split]
        keep = ranked[split]
        kept = int(sizes[split][keep].sum()) if held else 0
        depth += 1
        # below the depth cap only the row order is read again
        if params.max_depth is not None and depth >= params.max_depth:
            kept = 0
        if kept:
            # each row's child key by row id, for the sorted rows
            key = np.empty(n, dtype=key_type)
            key[rows] = slot_key
        sizes = np.bincount(slot_key)[: 2 * split.size]
        rows = rows[np.argsort(slot_key, kind="stable")[: sizes.sum()]]
        del slot_key  # and before the next level's
        if not kept:
            held = 0
            ranked = np.zeros(sizes.size, dtype=bool)
            begin = np.zeros(sizes.size, dtype=np.intp)
            continue
        # each ranked split node's sorted rows go to its children, still
        # sorted; the other nodes' are not regrouped
        for r in range(d):
            row = order[r, :held]
            order[r, :kept] = row[np.argsort(key[row], kind="stable")[:kept]]
        held = kept
        ranked = np.repeat(keep, 2)
        begin = np.cumsum(sizes * ranked) - sizes * ranked
    feature, value = map(np.concatenate, zip(*levels))
    if not several:
        return feature, value, np.array([feature.size])
    # each tree's nodes, still in level order
    tree = np.concatenate(trees)
    by_tree = np.argsort(tree, kind="stable")
    return feature[by_tree], value[by_tree], np.bincount(tree, minlength=n_roots)


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


def _segments(starts, sizes):
    """The positions of every segment ``starts[k]`` to ``starts[k] +
    sizes[k]``, laid end to end."""
    ends = np.cumsum(sizes)
    return np.arange(ends[-1]) + np.repeat(starts - ends + sizes, sizes)


def _scores(left, total, n_left, n_right):
    """The summed squared error of the two children of a split, from the
    left child's sums of the targets, in the real part, and of their
    squares, in the imaginary part, the node's sums ``total``, and each
    child's size.

    The sums come from one complex ``cumsum`` along a row of sorted targets
    or of histogram bins, each part added in the same order as a float
    ``cumsum`` of it, and are scored with the operands and operations of a
    float pass, so ties, the first-minimum rule and inf or NaN scores are
    the same, bit for bit, as with two float prefix sums.  The formula is
    elementwise, so :func:`_row_splits` scores every position of a row,
    boundary or not.  Once its own part is scored, ``left`` is overwritten
    with the right child's sums, ``total - left``, so the right child takes
    no array of its own.
    """
    # (sq_left - sum_left * sum_left / n_left)
    #     + (sq_right - sum_right * sum_right / n_right), in place
    scored = np.multiply(left.real, left.real)
    scored /= n_left
    np.subtract(left.imag, scored, out=scored)
    right = np.subtract(total, left, out=left)
    # the last sum adds two contiguous arrays, as a float pass does: numpy's
    # vector and scalar loops may return different NaNs of two NaN addends
    right_sum = np.multiply(right.real, right.real)
    right_sum /= n_right
    np.subtract(right.imag, right_sum, out=right_sum)
    scored += right_sum
    return scored


def _narrow_splits(ranks, y_sq, counts, order, begin, sizes, cand, min_leaf):
    """Each narrow node's best split on each of its candidate features:
    ``(score, cut, above)`` arrays of the shape of ``cand``, the last two the
    ranks of the left child's top value and of the right child's lowest.

    Node ``k`` lists its rows sorted by feature ``j`` in ``order[j,
    begin[k]:begin[k] + sizes[k]]``.  Each (node, feature) pair is one row
    of a prefix sum that starts at zero on its own sorted rows, so its
    scores are the ones a scan of that node alone computes, bit for bit,
    and :func:`_row_splits` scores it.  A boundary follows each position
    whose rank the next one's passes.  Pairs are batched by size class,
    which pads a row to at most twice its length, into blocks of at most
    ``_BLOCK`` elements; a padded position repeats the row's last one, so
    no boundary lies in the padding.  Without ``counts`` a left child of
    ``i + 1`` positions holds that many rows; with them, the child sizes
    are the prefix sums of the counts along each row.
    """
    n_nodes, n_cand = cand.shape
    n = ranks.shape[1]
    score = np.empty(n_nodes * n_cand)
    cut = np.empty(n_nodes * n_cand, dtype=np.intp)
    above = np.empty(n_nodes * n_cand, dtype=np.intp)
    pair_node = np.repeat(np.arange(n_nodes), n_cand)
    pair_feature = cand.ravel()
    pair_size = sizes[pair_node]
    size_class = np.frexp(pair_size - 1)[1]
    for cls in np.unique(size_class):
        members = np.flatnonzero(size_class == cls)
        per_block = max(1, _BLOCK // int(pair_size[members].max()))
        for first in range(0, members.size, per_block):
            block = members[first : first + per_block]
            features = pair_feature[block]
            starts = begin[pair_node[block]]
            last = pair_size[block] - 1
            width = int(last.max()) + 1
            if starts[0] == starts[-1]:
                # one node: its sorted rows are plain slices
                pos = order[features, starts[0] : starts[0] + width]
            else:
                slot = np.minimum(starts[:, None] + np.arange(width), (starts + last)[:, None])
                pos = order[features[:, None], slot]
            # a flat take gathers about twice as fast as 2-D fancy indexing
            xs = np.take(ranks, pos + (features * n)[:, None])
            edge = np.zeros(pos.shape, dtype=bool)
            np.less(xs[:, :-1], xs[:, 1:], out=edge[:, :-1])
            if counts is None:
                running = np.empty(pos.shape)
                running[:] = np.arange(1.0, width + 1)
            else:
                running = np.cumsum(counts.take(pos), axis=1)
            sums = y_sq.take(pos)
            np.cumsum(sums, axis=1, out=sums)
            score[block], at = _row_splits(running, sums, edge, last, min_leaf)
            at += np.arange(0, pos.size, width)
            cut[block] = xs.take(at)
            above[block] = xs.take(at + 1)
    return score.reshape(cand.shape), cut.reshape(cand.shape), above.reshape(cand.shape)


def _wide_histograms(ranks, bins, y_sq, counts, rows, starts, sizes, nodes, cand,
                     carry=None):
    """The histograms of a level's wide nodes, as :func:`_histograms`
    returns them.

    ``carry``, with every feature a candidate, holds the last level's
    histograms and the index in them of each split node, or -1.  A node
    whose parent has histograms there and that holds more rows than its
    sibling, or as many and is the right child, takes its parent's
    histograms minus its sibling's, which are built from the sibling's rows
    whether the sibling is searched or not.  Counts subtract exactly.
    Every other node builds its own.
    """
    if carry is None:
        return _histograms(ranks, bins, y_sq, counts, rows, starts, sizes, nodes, cand)
    parents, parent_row = carry
    parent = parent_row[nodes // 2]
    sibling = nodes ^ 1
    # the larger child, or the right one of two equal children
    sub = (parent >= 0) & (sizes[nodes] + (nodes & 1) > sizes[sibling])
    # the node each histogram is built for, in ascending order: the
    # node itself or, for the larger child, its sibling
    target = np.where(sub, sibling, nodes)
    first = np.ones(target.size, dtype=bool)
    np.not_equal(target[1:], target[:-1], out=first[1:])
    built = target[first]
    inverse = np.cumsum(first) - 1
    # every node's candidates are every feature, so each node's bins are
    # one row of bins.sum()
    hists = _histograms(ranks, bins, y_sq, counts, rows, starts, sizes, built,
                        cand[: built.size])
    hists = [part.reshape(built.size, -1)[inverse] for part in hists]
    for part, held in zip(hists, parents):
        part[sub] = held.reshape(-1, part.shape[1])[parent[sub]] - part[sub]
    return [part.ravel() for part in hists]


def _histograms(ranks, bins, y_sq, counts, rows, starts, sizes, nodes, cand):
    """The histograms of every (node, candidate) pair of ``nodes``: the
    summed count and the summed ``w * y`` and ``w * y**2``, as real and
    imaginary parts, per bin of the pair's feature.

    Each is one flat array of the pairs' bins laid end to end, in the order
    of ``cand``, node by node, each pair taking its feature's ``bins``.  A
    bin sums its rows in row order, as ``np.bincount`` over the node's rows
    alone sums them.  Without ``counts`` the counts are integers.
    """
    n_cand = cand.shape[1]
    size = sizes[nodes]
    # the level's rows are every node's rows
    pos = rows if nodes.size == sizes.size else rows[_segments(starts[nodes], size)]
    node = np.repeat(np.arange(nodes.size), size)
    # each pair's first bin
    pair_bins = bins[cand]
    offset = np.cumsum(pair_bins).reshape(cand.shape) - pair_bins
    # a take along the rows of a contiguous (candidates, nodes) array
    # gathers faster than fancy indexing of its transpose
    key = np.ascontiguousarray(offset.T).take(node, axis=1)
    if n_cand == ranks.shape[0]:
        key += ranks.take(pos, axis=1)
    else:
        key += ranks.take(np.ascontiguousarray(cand.T).take(node, axis=1) * ranks.shape[1]
                          + pos)
    key = key.ravel()
    del node
    total = int(pair_bins.sum())
    # each row's values once per candidate, as the keys list the rows
    drawn = None
    if counts is not None:
        drawn = np.empty((n_cand, pos.size))
        drawn[:] = counts[pos]
    count = np.bincount(key, None if drawn is None else drawn.ravel(), total)
    del drawn
    # complex addition adds the parts apart, each bin in key order.  A
    # candidate's keys fill its own bins, so one add.at per candidate adds
    # every bin in that order, and a 1-D add.at of the rows' values takes
    # numpy's fast path: 61 us for 9 x 3,040 keys, against 91 us for one
    # add.at of every key and its broadcast copy of the values, which took
    # 16 bytes a key
    sums = np.zeros(total, dtype=np.complex128)
    values = y_sq[pos]
    for keys in key.reshape(n_cand, -1):
        np.add.at(sums, keys, values)
    return count, sums


def _wide_splits(count, sums, pair_bins, min_leaf):
    """Each wide (node, candidate) pair's best split, from its histograms
    (:func:`_histograms`) and its feature's bins ``pair_bins``: ``(score,
    cut, above)`` arrays of the shape of ``pair_bins``, as
    :func:`_narrow_splits` returns them.

    The prefix sums of a histogram row over its bins, which start at zero,
    give every candidate split of the pair: each boundary between two
    filled bins, the consecutive distinct values of the node.  Counts are
    whole numbers, summed exactly, so the candidates and the child sizes
    are those of a scan over sorted rows; only the sums of the targets are
    added in another order.  :func:`_row_splits` scores the rows.  Pairs
    are scored in blocks of at most ``_HIST_CELLS`` bins, each row padded
    with empty bins to the widest.
    """
    sizes = pair_bins.ravel()
    width = int(sizes.max())
    ends = np.cumsum(sizes)
    last = sizes - 1
    fill = np.arange(width) <= last[:, None]
    step = max(1, _HIST_CELLS // width)
    score = np.empty(sizes.size)
    cut = np.empty(sizes.size, dtype=np.intp)
    above = np.empty(sizes.size, dtype=np.intp)
    for i in range(0, sizes.size, step):
        lo, hi = ends[i] - sizes[i], ends[min(i + step, sizes.size) - 1]
        mask = fill[i : i + step]
        blocks = []
        for part in (count, sums):
            block = np.zeros(mask.shape, dtype=part.dtype)
            block[mask] = part[lo:hi]
            blocks.append(block)
        running, block_sums = blocks
        # a filled bin ends a left child
        edge = running > 0
        np.cumsum(running, axis=1, out=running)
        np.cumsum(block_sums, axis=1, out=block_sums)
        at = slice(i, i + step)
        score[at], pick = _row_splits(running, block_sums, edge, last[at], min_leaf)
        cut[at] = pick
        # the first bin whose running count passes the pick's is the next filled
        above[at] = np.argmax(running > running[np.arange(pick.size), pick][:, None], axis=1)
    return tuple(part.reshape(pair_bins.shape) for part in (score, cut, above))


def _row_splits(running, sums, edge, last, min_leaf):
    """Each row's best split: its score and the position of the left
    child's last element, or inf where no boundary passes the size rules.

    A row is a (node, feature) pair's sorted rows or histogram bins, padded
    past its position ``last``.  ``running`` and ``sums`` are its prefix
    sums of the child sizes and of the targets (:func:`_with_squares`),
    whose values at ``last`` are the node's totals, whatever the padding
    holds.  ``edge`` marks the positions that may end a left child: a
    sorted position whose value the next one's passes, or a filled bin.
    One that leaves the right child empty, or a child below ``min_leaf``,
    is dropped.  Every position is scored and those that
    end no boundary are replaced by inf, so within a row the first minimum
    wins (the lowest threshold); a NaN is the minimum wherever it occurs,
    and a row without boundaries scores inf: neither splits.  ``sums`` and
    ``edge`` are overwritten.
    """
    first = np.arange(0, sums.size, sums.shape[1])  # each row's flat start
    ends = first + last
    n_right = running.take(ends)[:, None] - running
    edge &= n_right > 0
    if min_leaf > 1:
        edge &= (running >= min_leaf) & (n_right >= min_leaf)
    # the totals are a copy: a view into sums would make the in-place right
    # sums copy every row
    scored = _scores(sums, sums.take(ends)[:, None], running, n_right)
    scored[~edge] = math.inf
    at = scored.argmin(axis=1)
    return scored.take(first + at), at


def fit_tree(X, y, params: TreeParams | None = None) -> TreeEnsemble:
    """Fit an exact greedy least-squares tree."""
    X, y = _check_training_pair(X, y)
    params = params or TreeParams()
    values, ranks = _ranks(X)
    return _pack([_grow(ranks, values, y, params, X.shape[1])], X.shape[1],
                 {"params": params})


def _grow_bagged(values, ranks, y, group, params, max_features):
    """Grow one forest tree per ``(generator, rows, counts)`` entry of
    ``group``, together, each on its own rows, as one chunk of
    :func:`_pack`.

    A tree's ``rows`` are its distinct row ids in ascending order and
    ``counts`` the times each was drawn, or ``None`` for a tree on every
    row once; the generator draws the tree's feature subsets.  The trees
    take consecutive runs of the group's ranks, gathered from the fit's
    :func:`_ranks`.  The arrays live only for this call, so a fit holds one
    group's at a time.
    """
    rngs, rows, counts = zip(*group)
    sizes = [r.size for r in rows]
    rows = np.concatenate(rows)
    counts = None if counts[0] is None else np.concatenate(counts)
    return _grow(ranks.take(rows, axis=1), values, y[rows], params, max_features, rngs,
                 sizes, counts)


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
    X is ranked once per fit, and each tree reads its rows' ranks.

    The trees grow together in groups of at most ``_GROUP_ROWS`` rows
    (at least one tree), counting each tree's distinct rows, each group
    from several roots in one :func:`_grow` call, so they share every
    level's passes.  A tree whose rows would overflow the group is drawn,
    then dropped while the group grows, and drawn again from a fresh
    generator of the same seed, so no group grows beside the next one's
    rows.  Members are independent and each draws only from its own
    generator, so the forest is the same, bit for bit, for any group size.
    The budget is counted in rows because a group's memory and its child
    keys grow with its rows, not its trees.  With ``n_trees=1``,
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
    values, ranks = _ranks(X)

    def draw(k):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        if not bootstrap:
            return rng, np.arange(n), None
        counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
        rows = np.flatnonzero(counts)
        return rng, rows, counts[rows].astype(float)

    chunks = []
    group = []
    used = 0
    for k in range(n_trees):
        tree = draw(k)
        size = tree[1].size
        if group and used + size > _GROUP_ROWS:
            del tree
            chunks.append(_grow_bagged(values, ranks, y, group, params, max_features))
            group, used = [], 0
            tree = draw(k)
        group.append(tree)
        used += size
    chunks.append(_grow_bagged(values, ranks, y, group, params, max_features))
    info = {"params": params, "seed": seed, "bootstrap": bootstrap,
            "max_features": max_features}
    return _pack(chunks, d, info, average=True)


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

    X is checked and ranked once per fit, and every stage reads those
    ranks; a stage's wide nodes, every node on the benchmark's rows but
    small ones, are scored from histograms, so no stage sorts rows for
    them.  A stage adds the leaf means the grower assigned to the training
    rows while partitioning them, which are the tree's predictions for
    those rows, so no stage walks its tree again.  The result is the same,
    bit for bit, as fitting each stage with :func:`fit_tree` and adding its
    ``predict(X)``.  This is the one-fit case of the stage loop that
    :func:`fit_gbm_sets` runs over a group of fits.
    """
    X, y = _check_training_pair(X, y)
    params = _boosting_params(n_trees, max_depth, learning_rate, min_samples_leaf)
    values, ranks = _ranks(X)
    (model,) = _boost(values, ranks, y, [X.shape[0]], n_trees, params, learning_rate)
    return model


def fit_gbm_sets(
    X,
    y,
    row_sets,
    n_trees: int = 300,
    max_depth: int | None = 3,
    learning_rate: float = 0.05,
    min_samples_leaf: int = 1,
):
    """Yield ``fit_gbm(X[rows], y[rows], ...)`` for each ``rows`` of
    ``row_sets``, in order, bit for bit.

    Consecutive sets are boosted together in groups: a set joins a group
    while the group's rows add up to at most ``_BOOST_ROWS``, and a group
    holds at least one set, so a larger set grows alone.  A group's rows
    are ranked once, over their union, and each stage grows every set's
    tree in one :func:`_grow` call, one root per set, so the sets share
    every level's passes.  The grower's wide rule reads each root's own
    distinct values, so every node is scored as it would be in its set's
    own fit (see :func:`_grow`).

    A group holds its stages as one ``(feature, value)`` pair per stage and
    packs a set's model only when it is asked for, so a caller that drops
    each model before taking the next holds one at a time.
    ``X`` and ``y`` are checked as :func:`fit_gbm` checks them, every row
    at once.  Sets may share rows; each must hold at least one.
    """
    X, y = _check_training_pair(X, y)
    params = _boosting_params(n_trees, max_depth, learning_rate, min_samples_leaf)
    groups = []
    used = _BOOST_ROWS
    for rows in row_sets:
        if not len(rows):
            raise EmptyData("cannot fit on an empty row set")
        if used + len(rows) > _BOOST_ROWS:
            groups.append([])
            used = 0
        groups[-1].append(rows)
        used += len(rows)
    for group in groups:
        rows = np.concatenate(group)
        values, ranks = _ranks(X[rows])
        yield from _boost(values, ranks, y[rows], [len(r) for r in group], n_trees,
                          params, learning_rate)


def _boosting_params(n_trees, max_depth, learning_rate, min_samples_leaf):
    if n_trees < 1:
        raise ValueError("boosting needs at least one stage")
    if not 0.0 < learning_rate <= 1.0:
        raise ValueError(f"learning_rate must be in (0, 1], got {learning_rate}")
    return TreeParams(max_depth=max_depth, min_samples_leaf=min_samples_leaf)


def _boost(values, ranks, y, sizes, n_trees, params, learning_rate):
    """Boost one model per run of ``sizes[m]`` consecutive rows, together,
    and yield each run's model in run order.

    ``values`` and ``ranks`` are :func:`_ranks` of every run's rows.  Each
    stage grows every run's tree in one :func:`_grow` call, a root per run,
    whose wide rule reads each root's own distinct values when there are
    several.  Each run keeps its own base, current predictions and
    training MSE, taken on its own slice of the rows.  Each stage is kept
    as one ``(feature, value)`` pair for every run, not one per run, the
    pairs are joined once the stages end, and a run's model is packed only
    when it is taken.
    """
    d, n = ranks.shape
    sizes = np.asarray(sizes)
    runs = [slice(end - size, end) for size, end in zip(sizes, np.cumsum(sizes))]
    root_bins = _root_bins(values, ranks, sizes) if len(runs) > 1 else None
    bases = [float(np.mean(y[run])) for run in runs]
    current = np.repeat(bases, sizes)
    paths = [[float(np.mean((y[run] - current[run]) ** 2))] for run in runs]
    fitted = np.empty(n)
    stages = []
    for _ in range(n_trees):
        residual = y - current
        # an overflowing mean or leaf value makes the residuals infinite
        if not np.isfinite(residual).all():
            raise ValueError("targets must be finite")
        stages.append(_grow(ranks, values, residual, params, d, sizes=sizes, fitted=fitted,
                            root_bins=root_bins))
        current = current + learning_rate * fitted
        for run, path in zip(runs, paths):
            path.append(float(np.mean((y[run] - current[run]) ** 2)))
    del residual, current, fitted
    # each stage's node count for each run, and where those nodes start
    n_nodes = np.array([stage[2] for stage in stages])
    feature, value = (np.concatenate(kind) for kind in list(zip(*stages))[:2])
    del stages
    first = (np.cumsum(n_nodes) - n_nodes.ravel()).reshape(n_nodes.shape)
    for m, (base, path) in enumerate(zip(bases, paths)):
        at = _segments(first[:, m], n_nodes[:, m])
        info = {"params": params, "learning_rate": learning_rate,
                "train_mse_path": tuple(path)}
        yield _pack([(feature[at], value[at], n_nodes[:, m])], d, info, base=base,
                    rate=learning_rate)


def _root_bins(values, ranks, sizes):
    """The ``root_bins`` of :func:`_grow` for roots of ``sizes[t]``
    consecutive rows: the distinct values of each feature on each root's
    rows, an ``(n_roots, d)`` array."""
    root = np.repeat(np.arange(sizes.size), sizes)
    out = np.empty((sizes.size, len(values)), dtype=np.intp)
    for j, feature_values in enumerate(values):
        seen = np.zeros((sizes.size, feature_values.size), dtype=bool)
        seen[root, ranks[j]] = True
        out[:, j] = seen.sum(axis=1)
    return out
