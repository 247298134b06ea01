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
and one scorer picks every row's best boundary, in blocks of rows taken
in order of their widths.  Histograms sum the targets in another order,
so a near-tied split can go either way.  Trees of a forest, and fits of
a boosting group, grow together in groups of consecutive members under a
row budget.  Every stage of a boosting group grows from the same roots,
so the group builds the half of its root level's search that reads no
targets once and reads it in every stage.
"""

from __future__ import annotations

import dataclasses
import math
import operator

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
        for name in ("max_depth", "min_samples_leaf", "min_samples_split"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _count(name, getattr(self, name)))
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")


def _count(name, value):
    """``value`` as an ``int``, or a ``ValueError`` that names ``name`` when
    it is not a whole number: a bool, a float, or anything else that
    ``operator.index`` refuses.  A float count would be read as a bound
    (2.5 levels grow 3) or fail deep inside a fit."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


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
    y = np.asarray(y, dtype=float)
    if not (y.ndim == 1 or y.ndim == 2 and y.shape[1] == 1):
        raise ShapeMismatch(f"target must be 1-D or one column, got shape {y.shape}")
    y = y.reshape(-1)
    if X.shape[0] == 0:
        raise EmptyData("cannot fit on an empty design matrix")
    if X.shape[1] == 0:
        raise ShapeMismatch("design matrix has no feature columns")
    if y.shape[0] != X.shape[0]:
        raise ShapeMismatch(f"{X.shape[0]} rows but {y.shape[0]} targets")
    if not np.isfinite(y).all():
        raise ValueError("targets must be finite")
    return X, y


# The cells a block of sorted rows holds in the narrow search (_blocks), and
# the (row, member) cells predict walks at a time.  A narrow level's rows run
# from two positions to a few hundred on the benchmark's 3,040 x 9 matrix,
# and a block pads its rows to its widest, so a larger budget pads short
# rows to long ones: against 16,384 cells a full-depth tree took 0.87-0.90x
# and a 10-tree forest 0.97-0.98x (one pinned CPU, four runs of 12
# alternating pairs), and paper-scale (57,684 x 9) fits 0.98-1.03x
# (BENCH_32.json).  predict's rows do not interact, so any block gives the
# same bytes; a paper-scale batch (7,201 rows, a 10-tree forest) took
# 21-25 ms at 8,000, 16,384 or 65,536 cells, and the bound keeps its index
# arrays at about 64 KB each.
_BLOCK = 8000

# The cells a block of histogram rows holds in the wide search (_blocks).
# Scoring takes about 55 bytes of temporaries a padded cell, so this
# bounds them to about 0.9 MB, inside a core's 2 MiB L2 cache; 65,536
# cells took 1.24-1.33x the time of 16,384 in lockstep boosting fits
# (BENCH_29.json).  Histogram rows are long (19 to 2,986 bins a feature at
# paper scale), so a block holds few of them and each scorer call's fixed
# cost counts: a 30-stage paper-scale boosting fit made 720 scorer calls
# at 8,192 cells against 330 here, and its scoring took 8% longer
# (BENCH_32.json).  A lone depth-3 boosting tree on the benchmark's matrix
# (at most 159 bins a feature, 1,431 in all) scores every level in one
# block.
_HIST_CELLS = 16_384

# The rows a forest grows together (_groups): a group's trees share every
# level's passes, whose cost is mostly fixed per numpy call.  The budget is
# counted in distinct rows because a group's memory grows with them, about
# 130 bytes each for the ranks, the sorted rows of narrow nodes, the
# targets and the counts.  A bootstrap tree of the benchmark's 3,040 rows
# holds about 1,920, so a group holds six.  Four trees together took 0.69x
# the bench time for 2.7% more peak memory (BENCH_16.json).  At
# _BOOST_ROWS a 10-tree fit forms one group and took 0.86-0.91x the time,
# but its traced peak went from 3.4 to 5.2 MB (BENCH_32.json), so the
# forest keeps the smaller budget.
_GROUP_ROWS = 12_288

# The rows a group of boosting fits grows in lockstep (fit_gbm_sets, by
# _groups), counted over each fit's rows.  Each root reads its own fit's
# bins, so what grows with the group's rows is its per-row arrays, the
# largest its roots' histogram keys, 8 bytes a row and feature, which the
# group builds once and holds for all of its stages (_held_roots): 1.7 MB
# for the 23,123 rows of the benchmark's 12 fits, and 4.2 MB for a lone
# paper-scale fit of 57,684 rows.  On the benchmark's gbm-matrix the 12
# fits (23,123 to 23,142 rows in all at seeds 1-15) form one group of 300
# grower calls: over ten pairs bench_ref_s read
# 0.66x that of groups of 7,168 rows and peak RSS 2.8 MB more
# (BENCH_29.json), and at _GROUP_ROWS the same fits took 1.11-1.15x the time
# (BENCH_32.json).  A level of at most 24,576 rows has at most 12,288 splits,
# so every child key fits in uint16 and the regroup's stable argsorts stay
# on numpy's radix sort: 26 us per 3,040 keys, against 231 us as int32.  At
# paper scale only id-f10 and id-f20 share a group.
_BOOST_ROWS = 24_576


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


def _tables(values):
    """What the grower reads of the roots' tables ``values``, each a list
    of every feature's sorted distinct values: each table's bins per
    feature, a ``(tables, d)`` array, every table's values laid end to end,
    and where each table's feature starts in them.  A fit computes it once
    for all of its :func:`_grow` calls."""
    bins = np.array([[v.size for v in table] for table in values])
    edges = np.concatenate([v for table in values for v in table])
    first_edge = (np.cumsum(bins) - bins.ravel()).reshape(bins.shape)
    return bins, edges, first_edge


def _grow(ranks, tables, yr, params, max_features, feature_rngs=None, sizes=None,
          counts=None, fitted=None, roots=None):
    """Grow one tree per root, together, level by level, and return their
    node arrays.

    Tree ``t``'s root holds the ``t``-th run of ``sizes[t]`` consecutive
    rows (one root of every row without ``sizes``) and, with fewer than
    ``d`` candidate features, draws its feature subsets from
    ``feature_rngs[t]``.  ``tables`` is :func:`_tables` of the roots'
    tables: one table that every root reads, as a tree or a forest's trees
    read their fit's, or one table a root, as the fits of a boosting group
    each read their own.  ``ranks`` is :func:`_ranks` of each root's rows
    among its table's values, laid end to end.  A node reads its root's
    table for everything that counts values: its bins, its histograms, its
    thresholds and the wide rule.

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
    its table's bins of those features.  A wide node's (node, feature)
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

    ``roots``, a dict a boosting group keeps across its stages, holds the
    root level's half of the wide search that reads no targets
    (:func:`_held_roots`): a stage whose wide roots are those it was built
    for reads it instead of building its own, and any other stage builds
    it anew.  Every stage grows from the same rows, ranks and tables, so
    the held half is the one the stage would build, bit for bit.

    A node's split and children depend on its own rows alone, its
    parent's histograms and its root's table, and with fewer than ``d``
    candidate features, each tree that has splittable nodes at a depth
    draws one permutation per node from its own generator, for those nodes
    in level order, as it would alone; a tree with none draws nothing.  So
    a tree grown next to others is, bit for bit, the tree grown alone on
    its table.  With one root, nothing is tracked per tree.

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
    bins, edges, first_edge = tables
    y_sq = _with_squares(yr, counts)
    sizes = np.array([n] if sizes is None else sizes)
    n_roots = sizes.size
    several = n_roots > 1
    own = bins.shape[0] > 1  # each root reads its own table
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
        # each (node, candidate) pair's bins, from the node's table; a
        # node is wide when its rows on its candidates outnumber them
        table = tree[nodes][:, None] if own else 0
        pair_bins = bins[table, cand]
        wide = sizes[nodes] * n_cand > pair_bins.sum(axis=1)
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
            _sort_rows(ranks, bins.max(axis=0), fresh_rows, sizes[fresh],
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
                wide_bins = pair_bins[wide]
                layout = bounds = None
                if roots is not None and not depth:
                    layout, bounds = _held_roots(roots, ranks, wide_bins, counts, rows, starts,
                                                 sizes, nodes[wide], cand[wide],
                                                 params.min_samples_leaf)
                hists = _wide_histograms(ranks, wide_bins, y_sq, counts, rows, starts, sizes,
                                         nodes[wide], cand[wide], carry, layout)
                carry = None  # the parents' histograms go before the scores
                score[wide], cut[wide], above[wide] = _wide_splits(
                    *hists, wide_bins, params.min_samples_leaf, bounds)
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
        first = first_edge[tree[split] if own else 0, j]
        lo = edges[first + cut]
        hi = edges[first + above[k, pick][found]]
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
            # where each split node's row starts in this level's
            # histograms, or -1
            width = wide_bins.sum(axis=1)
            row_at = np.full(sizes.size, -1)
            row_at[nodes[wide]] = np.cumsum(width) - width
            carry = hists, row_at[split]
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
    whose rank the next one's passes.  Pairs are scored in the blocks of
    :func:`_blocks`, of at most ``_BLOCK`` cells, each row padded by
    repeating its last position, so no boundary lies in the padding.
    Without ``counts`` a left child of ``i + 1`` positions holds that many
    rows; with them, the child sizes are the prefix sums of the counts
    along each row.
    """
    n_cand = cand.shape[1]
    n = ranks.shape[1]
    pair_feature = cand.ravel()
    # where each pair's sorted rows start in the flat order
    pair_start = np.repeat(begin, n_cand) + pair_feature * order.shape[1]
    pair_size = np.repeat(sizes, n_cand)
    score = np.empty(pair_feature.size)
    cut = np.empty(pair_feature.size, dtype=np.intp)
    above = np.empty(pair_feature.size, dtype=np.intp)
    for block, width in _blocks(pair_size, _BLOCK):
        features = pair_feature[block]
        starts = pair_start[block]
        last = pair_size[block] - 1
        # each row's sorted rows, its last one repeated to the block's width;
        # a flat take gathers about twice as fast as 2-D fancy indexing
        pos = order.take(np.minimum(starts[:, None] + np.arange(width),
                                    (starts + last)[:, None]))
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


def _wide_layout(ranks, pair_bins, counts, rows, starts, sizes, nodes, cand, carry=None,
                 key_type=np.intp):
    """The half of :func:`_wide_histograms` that reads no targets: where
    each row of the level's wide ``nodes`` falls in their histograms, and
    their counts.

    Returns ``(key, pos, count, moves)``.  ``pos`` lists the rows whose
    histograms are built, node by node, and ``key[c, i]`` is the bin that
    row ``pos[i]`` fills on its node's ``c``-th candidate: a ``(candidates,
    rows)`` array of ``key_type``, intp, 8 bytes a row and candidate, unless
    a narrower type is asked for.  ``count`` is the
    summed count per bin, ``np.bincount`` of the keys, and integers without
    ``counts``.  ``moves`` lists each subtracted row as ``(to, row, parent,
    width)``: bins ``to`` to ``to + width`` take the parent's bins from
    ``parent`` minus bins ``row`` onward of the level's own, the sibling's
    row or the sibling's rows built in this node's (see
    :func:`_wide_histograms`); the counts here are already subtracted.
    """
    width = pair_bins.sum(axis=1)
    at = np.cumsum(width) - width
    total = int(width.sum())
    # the histogram rows that are built, and the node whose rows fill each
    build, source, moves = slice(None), nodes, []
    if carry is not None:
        (parents, _), parent_at = carry
        parent = parent_at[nodes // 2]
        sibling = nodes ^ 1
        # the larger child, or the right one of two equal children
        sub = (parent >= 0) & (sizes[nodes] + (nodes & 1) > sizes[sibling])
        slot = np.full(sizes.size, -1)
        slot[nodes] = np.arange(nodes.size)
        # a larger child whose sibling is built here reads the sibling's row
        reuse = sub & (slot[sibling] >= 0)
        build = ~reuse
        source = np.where(sub, sibling, nodes)[build]
        k = np.flatnonzero(sub)
        # the sibling's own row, or its rows built in this node's
        row = np.where(reuse[k], at[slot[sibling[k]]], at[k])
        moves = list(zip(*(part.tolist() for part in (at[k], row, parent[k], width[k]))))
    # pair (k, c)'s bins start at bin offset[k, c]; bins of a subtracted
    # row stay zero until it is subtracted
    offset = at[build, None] + np.cumsum(pair_bins[build], axis=1) - pair_bins[build]
    offset = offset.astype(key_type, copy=False)
    n_cand = cand.shape[1]
    size = sizes[source]
    # the level's rows are every node's rows
    pos = rows if source.size == sizes.size else rows[_segments(starts[source], size)]
    node = np.repeat(np.arange(source.size), size)
    # a take along the rows of a contiguous (candidates, nodes) array
    # gathers faster than fancy indexing of its transpose
    key = np.ascontiguousarray(offset.T).take(node, axis=1)
    if n_cand == ranks.shape[0]:
        key += ranks.take(pos, axis=1)
    else:
        key += ranks.take(
            np.ascontiguousarray(cand[build].T).take(node, axis=1) * ranks.shape[1] + pos)
    del node
    # each row's count once per candidate, as the keys list the rows
    drawn = None
    if counts is not None:
        drawn = np.empty((n_cand, pos.size))
        drawn[:] = counts[pos]
    count = np.bincount(key.ravel(), None if drawn is None else drawn.ravel(), total)
    del drawn
    for to, row, whole, w in moves:
        np.subtract(parents[whole : whole + w], count[row : row + w], out=count[to : to + w])
    return key, pos, count, moves


def _wide_histograms(ranks, pair_bins, y_sq, counts, rows, starts, sizes, nodes, cand,
                     carry=None, layout=None):
    """The histograms of every (node, candidate) pair of a level's wide
    ``nodes``: the summed count and the summed ``w * y`` and ``w * y**2``,
    as real and imaginary parts, per bin of the pair's feature.

    Each is one flat array of the pairs' bins laid end to end, in the order
    of ``cand``, node by node, pair ``(k, c)`` taking ``pair_bins[k, c]``
    bins.  A bin sums its rows in row order, as ``np.bincount`` over the
    node's rows alone sums them.  Without ``counts`` the counts are
    integers.  The counts are :func:`_wide_layout`'s, which reads no
    targets; ``layout``, when given, is that layout of these arguments,
    held from an earlier boosting stage, and its counts are returned as
    they are.  Only the sums are built here, from its keys.

    ``carry``, with every feature a candidate, holds the last level's
    histograms and where each split node's row of them starts, or -1.  A
    node whose parent has histograms there and that holds more rows than
    its sibling, or as many and is the right child, takes its parent's
    histograms minus its sibling's: the sibling's own row when the sibling
    is a wide node of the level, or else one built from the sibling's rows
    in the node's own row.  Counts subtract exactly.  Every other node, and
    every node without ``carry``, builds its own.  A node's row spans its
    root's bins of every feature, so rows of different roots differ in
    width, and a node, its sibling and their parent share one.  Every row
    is built or subtracted in place, so the level holds its rows and its
    parents' and no copy of either.
    """
    if layout is None:
        layout = _wide_layout(ranks, pair_bins, counts, rows, starts, sizes, nodes, cand,
                              carry)
    key, pos, count, moves = layout
    del layout
    # complex addition adds the parts apart, each bin in key order.  A
    # candidate's keys fill its own bins, so one add.at per candidate adds
    # every bin in that order, and a 1-D add.at of the rows' values takes
    # numpy's fast path: 61 us for 9 x 3,040 keys, against 91 us for one
    # add.at of every key and its broadcast copy of the values, which took
    # 16 bytes a key
    sums = np.zeros(count.size, dtype=np.complex128)
    values = y_sq[pos]
    for keys in key:
        np.add.at(sums, keys, values)
    del key, pos, values
    if moves:
        parents = carry[0][1]
        for to, row, whole, w in moves:
            np.subtract(parents[whole : whole + w], sums[row : row + w],
                        out=sums[to : to + w])
    return count, sums


def _wide_bounds(count, pair_bins, min_leaf):
    """The half of :func:`_wide_splits` that reads no targets, one block of
    :func:`_blocks` at a time, of at most ``_HIST_CELLS`` cells.

    Yields each block's ``(block, held, running, edge, n_right, last)``:
    the pairs it holds, their bins ``held``, each row padded by repeating
    its last bin, which leaves the right child empty, the prefix sums of
    their counts, the boundaries that pass the size rules, the right
    child's sizes (:func:`_boundaries`) and each row's last position.
    """
    sizes = pair_bins.ravel()
    at = np.cumsum(sizes) - sizes
    for block, width in _blocks(sizes, _HIST_CELLS):
        last = sizes[block] - 1
        held = at[block, None] + np.minimum(np.arange(width), last[:, None])
        running = count.take(held)
        # a filled bin ends a left child; one past the last leaves the
        # right child empty, and _boundaries drops it
        edge = running > 0
        np.cumsum(running, axis=1, out=running)
        yield block, held, running, edge, _boundaries(running, edge, last, min_leaf), last


def _wide_splits(count, sums, pair_bins, min_leaf, bounds=None):
    """Each wide (node, candidate) pair's best split, from its histograms
    (:func:`_wide_histograms`) and its bins ``pair_bins``: ``(score, cut,
    above)`` arrays of the shape of ``pair_bins``, as :func:`_narrow_splits`
    returns them.

    The prefix sums of a histogram row over its bins, which start at zero,
    give every candidate split of the pair: each boundary between two
    filled bins, the consecutive distinct values of the node.  Counts are
    whole numbers, summed exactly, so the candidates and the child sizes
    are those of a scan over sorted rows; only the sums of the targets are
    added in another order.  The counts' half, :func:`_wide_bounds`, reads
    no targets; ``bounds``, when given, is that half of these arguments as
    a list, held from an earlier boosting stage.  :func:`_row_splits`
    scores each of its blocks from the sums.
    """
    score = np.empty(pair_bins.size)
    cut = np.empty(pair_bins.size, dtype=np.intp)
    above = np.empty(pair_bins.size, dtype=np.intp)
    if bounds is None:
        bounds = _wide_bounds(count, pair_bins, min_leaf)
    for block, held, running, edge, n_right, last in bounds:
        block_sums = sums.take(held)
        np.cumsum(block_sums, axis=1, out=block_sums)
        score[block], pick = _row_splits(running, block_sums, edge, last, min_leaf, n_right)
        cut[block] = pick
        # the first bin whose running count passes the pick's is the next filled
        above[block] = np.argmax(
            running > running[np.arange(pick.size), pick][:, None], axis=1)
    return tuple(part.reshape(pair_bins.shape) for part in (score, cut, above))


def _held_roots(held, ranks, pair_bins, counts, rows, starts, sizes, nodes, cand, min_leaf):
    """The root level's :func:`_wide_layout` and :func:`_wide_bounds`, as
    a list, for its wide ``nodes``, from ``held`` when it holds them for
    those nodes, or else built, made read-only and held in place of what
    ``held`` held.

    A boosting group's stages grow from the same rows, ranks and tables,
    so the half of the root level's search that reads no targets changes
    only with its wide roots: a root whose residuals are all equal does not
    split and drops out.  A group holds its root keys for all of its
    stages, in the narrowest unsigned type that holds the level's bins: 2
    bytes a row and feature on the benchmark's rows, against 8 as intp.
    """
    if "nodes" not in held or not np.array_equal(held["nodes"], nodes):
        held.clear()  # the stale half goes before the new one is built
        layout = _wide_layout(ranks, pair_bins, counts, rows, starts, sizes, nodes, cand,
                              key_type=np.min_scalar_type(int(pair_bins.sum()) - 1))
        bounds = list(_wide_bounds(layout[2], pair_bins, min_leaf))
        for part in (*layout, *(part for block in bounds for part in block)):
            if isinstance(part, np.ndarray):
                part.flags.writeable = False
        held.update(nodes=nodes, layout=layout, bounds=bounds)
    return held["layout"], held["bounds"]


def _blocks(widths, cells):
    """Cut rows of ``widths`` positions into blocks to score, and yield
    each block's rows and its width.

    The rows are taken in order of their widths, a stable sort, and a
    block holds the most of them, one at least, that padded to the last
    and widest hold at most ``cells`` cells.  When every row fits one
    block, the block is every row in its own order, as a slice.  A row is
    scored elementwise and its totals are read at its own last position,
    and its padding repeats that position, so no blocking changes a row's
    result.
    """
    top = int(widths.max())
    if widths.size * top <= cells:
        yield slice(None), top
        return
    by_width = np.argsort(widths, kind="stable")
    sorted_widths = widths[by_width]
    lo = 0
    while lo < widths.size:
        # past cells // width rows a block overflows at any width
        room = sorted_widths[lo : lo + max(1, cells // int(sorted_widths[lo]))]
        held = np.arange(1, room.size + 1) * room
        hi = lo + max(1, int(np.searchsorted(held, cells, side="right")))
        yield by_width[lo:hi], int(sorted_widths[hi - 1])
        lo = hi


def _boundaries(running, edge, last, min_leaf):
    """Drop from ``edge``, in place, the positions that leave a row's right
    child empty or a child below ``min_leaf``, and return the right
    child's sizes at every position.

    A row is padded past its position ``last``, and ``running``, its
    prefix sums of the child sizes, holds the node's size there.
    """
    ends = np.arange(0, running.size, running.shape[1]) + last
    n_right = running.take(ends)[:, None] - running
    edge &= n_right > 0
    if min_leaf > 1:
        edge &= (running >= min_leaf) & (n_right >= min_leaf)
    return n_right


def _row_splits(running, sums, edge, last, min_leaf, n_right=None):
    """Each row's best split: its score and the position of the left
    child's last element, or inf where no boundary passes the size rules.

    A row is a (node, feature) pair's sorted rows or histogram bins, padded
    past its position ``last``.  ``running`` and ``sums`` are its prefix
    sums of the child sizes and of the targets (:func:`_with_squares`),
    whose values at ``last`` are the node's totals, whatever the padding
    holds.  ``edge`` marks the positions that may end a left child: a
    sorted position whose value the next one's passes, or a filled bin.
    :func:`_boundaries` drops those that leave the right child empty or a
    child below ``min_leaf``, unless ``n_right``, the right child's sizes,
    is given, and ``edge`` with it already holds only those that pass.
    Every position is scored and those that end no boundary are replaced
    by inf, so within a row the first minimum wins (the lowest threshold);
    a NaN is the minimum wherever it occurs, and a row without boundaries
    scores inf: neither splits.  ``sums`` is overwritten, and ``edge`` when
    ``n_right`` is not given.
    """
    if n_right is None:
        n_right = _boundaries(running, edge, last, min_leaf)
    first = np.arange(0, sums.size, sums.shape[1])  # each row's flat start
    ends = first + last
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
    return _pack([_grow(ranks, _tables([values]), y, params, X.shape[1])], X.shape[1],
                 {"params": params})


def _groups(member, n_members, budget):
    """Yield members ``0`` to ``n_members - 1`` in groups of consecutive
    members whose rows add up to at most ``budget``; a group holds at least
    one member, so zero members yield no group.

    ``member(k)`` returns member ``k`` and its row count.  A member whose
    rows would overflow the group is dropped, the group is yielded, and the
    member is made again once the caller asks for the next group, so no
    group is handed over beside the next one's first member.
    """
    group, used = [], 0
    for k in range(n_members):
        item, rows = member(k)
        if group and used + rows > budget:
            del item
            yield group
            group, used = [], 0
            item, rows = member(k)
        group.append(item)
        used += rows
    if group:
        yield group


def _grow_bagged(tables, ranks, y, group, params, max_features):
    """Grow one forest tree per ``(generator, rows, counts)`` entry of
    ``group``, together, each on its own rows, as one chunk of
    :func:`_pack`.

    A tree's ``rows`` are its distinct row ids in ascending order and
    ``counts`` the times each was drawn, or ``None`` for a tree on every
    row once; the generator draws the tree's feature subsets.  The trees
    take consecutive runs of the group's ranks, gathered from the fit's
    :func:`_ranks`, and read the fit's :func:`_tables`.  The arrays live
    only for this call, so a fit holds one group's at a time.
    """
    rngs, rows, counts = zip(*group)
    sizes = [r.size for r in rows]
    rows = np.concatenate(rows)
    counts = None if counts[0] is None else np.concatenate(counts)
    return _grow(ranks.take(rows, axis=1), tables, y[rows], params, max_features, rngs,
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

    The trees grow together in the groups of :func:`_groups`, of at most
    ``_GROUP_ROWS`` distinct rows, each group from several roots in one
    :func:`_grow` call, so they share every level's passes.  A tree whose
    rows would overflow the group is drawn, then dropped while the group
    grows, and drawn again from a fresh generator of the same seed, so no
    group grows beside the next one's rows.  Members are independent and
    each draws only from its own generator, so the forest is the same, bit
    for bit, for any group size.  The budget is counted in rows because a
    group's memory and its child keys grow with its rows, not its trees.
    With ``n_trees=1``, ``bootstrap=False`` and ``max_features`` equal to
    the full feature count the result degenerates to :func:`fit_tree`.
    """
    X, y = _check_training_pair(X, y)
    n_trees = _count("n_trees", n_trees)
    if n_trees < 1:
        raise ValueError("a forest needs at least one tree")
    params = params or TreeParams()
    d = X.shape[1]
    max_features = math.ceil(d / 3) if max_features is None else _count(
        "max_features", max_features)
    if not 1 <= max_features <= d:
        raise ValueError(f"max_features must be in [1, {d}], got {max_features}")
    n = X.shape[0]
    values, ranks = _ranks(X)
    tables = _tables([values])

    def draw(k):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        if not bootstrap:
            return (rng, np.arange(n), None), n
        counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
        rows = np.flatnonzero(counts)
        return (rng, rows, counts[rows].astype(float)), rows.size

    chunks = [_grow_bagged(tables, ranks, y, group, params, max_features)
              for group in _groups(draw, n_trees, _GROUP_ROWS)]
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
    ``predict(X)``.  It is the one model :func:`fit_gbm_sets` yields for
    the one set of every row.
    """
    X, y = _check_training_pair(X, y)
    (model,) = fit_gbm_sets(X, y, [np.arange(X.shape[0])], n_trees, max_depth,
                            learning_rate, min_samples_leaf)
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

    Consecutive sets are boosted together in the groups of
    :func:`_groups`, of at most ``_BOOST_ROWS`` rows, so a larger set grows
    alone.  Each set is
    ranked on its own rows, as :func:`fit_gbm` ranks them, and each stage
    grows every set's tree in one :func:`_grow` call, one root per set,
    each reading its set's own table, so the sets share every level's
    passes and every node is scored as in its set's own fit.  A group
    builds its roots' histogram layout once and reads it in every stage
    whose wide roots are the same (see :func:`_boost`).

    A group holds its stages as one ``(feature, value)`` pair per stage and
    packs a set's model only when it is asked for, so a caller that drops
    each model before taking the next holds one at a time.
    ``X`` and ``y`` are checked as :func:`fit_gbm` checks them, every row
    at once, and every set before any is ranked: each must be a 1-D array
    of integer row indices in ``[0, len(X))`` holding at least one row.
    Sets may share rows.
    """
    X, y = _check_training_pair(X, y)
    n_trees = _count("n_trees", n_trees)
    if n_trees < 1:
        raise ValueError("boosting needs at least one stage")
    if not 0.0 < learning_rate <= 1.0:
        raise ValueError(f"learning_rate must be in (0, 1], got {learning_rate}")
    params = TreeParams(max_depth=max_depth, min_samples_leaf=min_samples_leaf)
    sets = []
    for k, rows in enumerate(row_sets):
        rows = np.asarray(rows)
        if rows.ndim == 1 and not rows.size:
            raise EmptyData(f"row set {k} is empty: cannot fit on an empty row set")
        if rows.ndim != 1 or rows.dtype.kind not in "iu":
            raise ValueError(f"row set {k} must be a 1-D array of integer row indices, "
                             f"got {rows.ndim}-D {rows.dtype}")
        if rows.min() < 0 or rows.max() >= X.shape[0]:
            raise ValueError(f"row set {k} holds row indices outside [0, {X.shape[0]})")
        sets.append(rows)
    for group in _groups(lambda k: (sets[k], sets[k].size), len(sets), _BOOST_ROWS):
        values, ranks = zip(*(_ranks(X[rows]) for rows in group))
        ranks = np.concatenate(ranks, axis=1)
        yield from _boost(values, ranks, y[np.concatenate(group)], [r.size for r in group],
                          n_trees, params, learning_rate)


def _boost(values, ranks, y, sizes, n_trees, params, learning_rate):
    """Boost one model per run of ``sizes[m]`` consecutive rows, together,
    and yield each run's model in run order.

    ``values[m]`` is run ``m``'s sorted distinct values per feature and
    ``ranks`` each run's rows ranked among them, laid end to end
    (:func:`_ranks` of each run's rows).  Each stage grows every run's tree
    in one :func:`_grow` call, a root per run reading its own table; the
    tables' :func:`_tables` are taken once for every stage.  Every stage
    grows from the same roots, rows and ranks, so the half of the root
    level's wide search that reads no targets, its histogram keys and
    counts and the counts' side of its split search, is built once and
    held, read-only, for every stage whose wide roots are the same
    (:func:`_held_roots`); a root whose residuals are all equal drops out,
    and the next stage builds it anew.  Each
    run keeps its own base, current predictions and training MSE, taken on
    its own slice of the rows: one :func:`_segment_sums` of every run's
    squared errors a stage gives each run's ``np.mean``, bit for bit.  Each
    stage is kept as one ``(feature, value)`` pair for every run, not one
    per run, the pairs are joined once the stages end, and a run's model is
    packed only when it is taken.
    """
    d, n = ranks.shape
    tables = _tables(values)
    held = {}  # the root level's layout, across the stages
    sizes = np.asarray(sizes)
    starts = np.cumsum(sizes) - sizes
    bases = _segment_sums(y, starts, sizes) / sizes
    current = np.repeat(bases, sizes)
    residual = y - current
    paths = [_segment_sums(residual * residual, starts, sizes) / sizes]
    fitted = np.empty(n)
    stages = []
    for _ in range(n_trees):
        # an overflowing mean or leaf value makes the residuals infinite
        if not np.isfinite(residual).all():
            raise ValueError("targets must be finite")
        stages.append(_grow(ranks, tables, residual, params, d, sizes=sizes, fitted=fitted,
                            roots=held))
        current = current + learning_rate * fitted
        residual = y - current
        paths.append(_segment_sums(residual * residual, starts, sizes) / sizes)
    del residual, current, fitted, held
    paths = np.array(paths).T
    # each stage's node count for each run, and where those nodes start
    n_nodes = np.array([stage[2] for stage in stages])
    feature, value = (np.concatenate(kind) for kind in list(zip(*stages))[:2])
    del stages
    first = (np.cumsum(n_nodes) - n_nodes.ravel()).reshape(n_nodes.shape)
    for m, (base, path) in enumerate(zip(bases.tolist(), paths)):
        at = _segments(first[:, m], n_nodes[:, m])
        info = {"params": params, "learning_rate": learning_rate,
                "train_mse_path": tuple(path.tolist())}
        yield _pack([(feature[at], value[at], n_nodes[:, m])], d, info, base=base,
                    rate=learning_rate)
