"""CART decision trees (Gini impurity) and bagged random forests on flat node arrays.

Fit.  One grower fits every tree: a forest's trees grow together, and a
plain tree is the one-tree case that draws nothing.  The training columns
are stable-argsorted once per fit.  A row of tree ``t`` has the id
``t * n + row``, and a ``(classes, ids)`` table holds each id's bootstrap
count in the row of its class (a plain tree's counts are all 1).  A
tree's root table holds each distinct row of its bootstrap once, in that
value order, giving a ``(d, m)`` row-order table (the presorted attribute
lists of SLIQ; Mehta, Agrawal & Rissanen, EDBT 1996); its count weighs the
row, as in Louppe, arXiv:1407.7502, 2014.  Tables hold ids in the smallest
unsigned dtype.  A node owns the table of its own distinct rows, and a
split partitions every row of it by one byte per id; the partition is
stable, so each child's table stays in value order.  A child that its
class counts make a leaf gets no table.  Equal values may sit in any
order: no cut falls between them, so their order changes no count the
search reads.

Scheduler.  Each tree keeps its own stack of the nodes still to place:
leaf codes, split codes and nodes with a table.  A step takes the node with
a table on top of each tree's stack, in turn, until their candidate
positions (one per candidate feature and distinct row) would pass
``GROW_BLOCK_POSITIONS``, and at least one node; a tree that draws nothing
adds the other nodes with tables on its stack.  It searches them all in one
flat pass.  Each (node, feature) pair is a segment of ``m`` positions in
value order.  Class weights are cumulated one class per row of a
class-major ``(classes, positions)`` table, so the weights and sizes left
and right of each cut are the integers a table that repeats each row by
its count would give, and the weighted Gini of the cut after every
position comes from the same elementwise operations as the per-node
definition; ``+inf`` marks a segment's last position and positions whose
next value is equal.  ``np.minimum.reduceat`` gives each segment's best,
whose first position is its cut.  The features are then compared in
ascending order, a later one winning only if ``candidate < best - 1e-15``.
The threshold is the midpoint of the two values around the cut.  Each
child's class weights come from the cumulative weights, and decide at once
whether it takes a table; a leaf's class is the majority, ties going to
the lowest class.  A searched node's place on its stack then takes its
split code and its children, so each tree places its nodes in preorder.

Class-sum order.  The Gini sums the squared class fractions as ``np.sum``
does over a contiguous class axis: in sequence below 8 classes, pairwise
from 8 up.  A forest's trees count the forest's classes, so a class a
bootstrap lacks adds exact zeros.  Below 8 classes that leaves every bit as
a tree grown on its own classes would have it; from 8 classes up, a tree
whose bootstrap lacks a class may differ from it in the last bit.

RNG contract.  A forest's tree searches ``k = ceil(sqrt(d))`` features per
split.  A node is splittable when its depth is below the maximum, its
weight (its rows counted with their bootstrap counts) is 2 or more, and it
is impure.  When ``k`` is below the column count, each splittable node
searches, in depth-first, left-first preorder, the set that one
``rng.choice(d, size=k, replace=False)`` on the tree's own stream would
draw there.  The tree draws ``CANDIDATE_BLOCK_NODES`` such sets at once: one
broadcast ``rng.integers`` makes ``choice``'s bounded draws for each set in
turn, Floyd's ``k`` and then the ``k - 1`` of its shuffle, which only
orders the set; the block is sorted.  The draws left when a tree is grown
are never read.  This equals ``choice`` while numpy takes Floyd's path,
which it does unless ``d > 10000`` and ``k > d // 50``, and
``ceil(sqrt(d))`` never is both.  The scheduler interleaves trees, never
the nodes of a tree that draws: each such tree searches the node on top of
its own explicit stack, so its sets are taken as by the recursive
definition, and a deep tree needs no recursion.  A plain tree searches
every feature and draws nothing, so it searches its stacked nodes in any
order.

Node layout.  A fitted tree is a ``_Nodes`` table of flat preorder arrays, in
the smallest integer dtypes that hold them: ``feature``, ``threshold``,
``right`` and ``value`` (the leaf's class code).  The left child of node ``i``
is ``i + 1``.  A leaf has a NaN threshold and a ``right`` that points to
itself, so ``x <= threshold`` is false and a descent step leaves it in place.
A fit places each tree's nodes as codes in preorder and builds the links
from the leaf bits, as loading does (see Packing).  A tree predicts by
walking its nodes row by row.  A forest concatenates its trees into one
table.  It keeps that table, each tree's root offset and the deepest
tree's depth; no per-tree object is made.  The forest scores rows in blocks of
``PREDICT_BLOCK_ROWS``: each block goes through every tree in ``depth``
vectorised gather steps over a ``(trees, rows)`` node-index array, and
votes with one ``bincount``.  A step costs eight
NumPy calls, so a single record instead builds a next-node table: for each
node, ``i + 1`` where the record's feature is ``<= threshold`` and ``right``
otherwise.  A leaf's entry is itself, so ``depth`` jumps
``node = step.take(node)`` reach the same leaves as the level-wise descent,
bit for bit (a NaN feature goes right in both).  The table costs a pass over every node,
so only a forest of at most ``TABLE_MAX_NODES`` nodes takes it (pointer-style
traversal; Asadi, Lin & de Vries, IEEE TKDE 26:2281, 2014).

Packing.  A tree or forest pickles as its ``modelbytes`` blob.  A packed
table keeps what fixes a preorder tree (Jacobson, FOCS 1989): a leaf bit per
node, each split's feature and threshold, and each leaf's class.  A
threshold is an index into its feature's sorted distinct bit patterns, which
keep -0.0 apart from 0.0; the blob stores the leaf bits packed and each
index in the smallest integer dtype.  A node's excess counts splits minus
leaves up to and including it; the left subtree of split ``i`` ends at the
first later node whose excess is one below ``excess[i]``, and its right
child follows.  Loading finds every end with one sort of (excess, node) keys
and one ``searchsorted``.  A forest's blob leaves out the tree roots, as
tree ``t`` ends where the excess first reads ``-t - 1``; loading rebuilds
them.
"""
from __future__ import annotations

from collections import deque
from typing import NamedTuple

import numpy as np

from ..errors import UsageError
from ..modelbytes import Packed


# candidate positions one grower step searches, one per (candidate feature, row)
# of each node taken; a step takes at least one node
GROW_BLOCK_POSITIONS = 8192
# candidate sets a forest's tree draws at once; a 150-tree fit on 230 x 10
# reaches 10-23 splittable nodes per tree
CANDIDATE_BLOCK_NODES = 32


class _Nodes(NamedTuple):
    """Flat preorder node arrays of one tree, or of every tree of a forest."""

    feature: np.ndarray  # 0 at a leaf
    threshold: np.ndarray  # NaN at a leaf
    right: np.ndarray  # a leaf's own index
    value: np.ndarray  # leaf class code; 0 at a split

    def _pack(self) -> tuple:
        # see Packing above
        leaf = self.right == np.arange(len(self.right))
        split_feature = self.feature[~leaf]
        # the distinct bit patterns, then one key per split, feature-major over
        # them: the sorted distinct keys run feature by feature, pattern by pattern
        bits, pattern = np.unique(self.threshold[~leaf].view(np.uint64), return_inverse=True)
        width = max(len(bits), 1)
        keys, inverse = np.unique(split_feature.astype(np.intp) * width + pattern, return_inverse=True)
        counts = np.bincount(keys // width)  # distinct thresholds per feature
        index = inverse - _starts(counts)[split_feature]
        return leaf, split_feature, counts, index, bits[keys % width].view(float), self.value[leaf]

    @classmethod
    def _unpack(cls, values: tuple) -> _Nodes:
        leaf, split_feature, counts, index, thresholds, leaf_value = values
        split = np.flatnonzero(~leaf)
        feature = np.zeros(len(leaf), split_feature.dtype)
        feature[split] = split_feature
        threshold = np.full(len(leaf), np.nan)
        threshold[split] = thresholds[_starts(counts)[split_feature] + index]
        value = np.zeros(len(leaf), leaf_value.dtype)
        value[leaf] = leaf_value
        return cls(feature, threshold, _right_links(leaf), value)


def _right_links(leaf: np.ndarray) -> np.ndarray:
    """Each node's ``right`` in a preorder table of trees, from its leaf bits."""
    n = len(leaf)
    split = np.flatnonzero(~leaf)
    # the left subtree of split i ends at the first later node whose excess is
    # one below excess[i], found by one search of the sorted (excess, node) keys
    excess = _excess(leaf)
    low = excess.min()
    keys = np.sort((excess - low) * n + np.arange(n))
    right = np.arange(n)
    right[split] = keys[np.searchsorted(keys, (excess[split] - 1 - low) * n + split + 1)] % n + 1
    return _compact(right, n - 1)


def _excess(leaf: np.ndarray) -> np.ndarray:
    """Splits minus leaves in preorder, up to and including each node."""
    return np.cumsum(np.where(leaf, -1, 1))


def _compact(values, largest: int) -> np.ndarray:
    return np.asarray(values, dtype=np.min_scalar_type(largest))


def _starts(lengths: np.ndarray) -> np.ndarray:
    """Exclusive running sum: where each of consecutive runs of ``lengths`` begins."""
    starts = np.zeros(len(lengths), dtype=np.intp)
    np.cumsum(lengths[:-1], out=starts[1:])
    return starts


def _class_sum(rows: np.ndarray) -> np.ndarray:
    """The sum over the first (class) axis, adding the classes in sequence."""
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


def _gini(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per position, ``1 - sum(fracs**2)`` over classes, with ``fracs`` of the
    ``(classes, positions)`` counts over the ``(positions,)`` sizes.

    The sum is ``np.sum`` over a contiguous class axis, bit for bit: below 8
    terms that adds the classes in sequence, from 8 up it adds them pairwise.
    """
    if len(counts) < 8:  # one class at a time, which holds two rows of positions
        total = counts[0] / sizes
        np.square(total, out=total)
        for row in counts[1:]:
            square = row / sizes
            total += np.square(square, out=square)
    else:
        squares = counts / sizes
        total = np.sum(np.ascontiguousarray(np.square(squares, out=squares).T), axis=1)
    return np.subtract(1.0, total, out=total)


class _Tree:
    """A tree in growth: its nodes so far in preorder, and the stack of its
    nodes still to place, whose top, when it has a table, waits for a search."""

    __slots__ = ("offset", "rng", "sets", "taken", "stack", "codes")

    def __init__(self, offset: int, rng):
        self.offset = offset  # the first id of the tree's rows
        self.rng = rng
        # the drawn candidate sets, and how many nodes took one
        self.sets, self.taken = (), CANDIDATE_BLOCK_NODES
        # a leaf's class code, ~i for the fit's i-th split, or a (row-order table, depth) to search
        self.stack = []
        self.codes = []  # the placed nodes: a leaf's class code, or ~i for the fit's i-th split

    def next_search(self, d: int, n_candidates: int) -> bool:
        """Place the nodes on top of the stack up to the next one with a table,
        which takes the next candidate set of the block when the tree draws;
        False when none is left."""
        stack, codes = self.stack, self.codes
        while stack:
            if stack[-1].__class__ is tuple:
                if n_candidates < d:
                    if self.taken == CANDIDATE_BLOCK_NODES:
                        self.sets = _candidate_sets(self.rng, d, n_candidates, CANDIDATE_BLOCK_NODES)
                        self.taken = 0
                    self.taken += 1
                return True
            codes.append(stack.pop())
        return False


def _candidate_sets(rng, d: int, k: int, n_sets: int) -> np.ndarray:
    """The next ``n_sets`` candidate sets of ``k < d`` features, one ascending
    row each, in the smallest unsigned dtype (150 trees keep a block each).

    Each row holds the set that one ``rng.choice(d, size=k, replace=False)``
    call would draw there, in another order.  That call makes Floyd's ``k``
    bounded draws below ``d - k + 1`` ... ``d``, then the ``k - 1`` of its
    shuffle below ``k`` ... ``2``, which only reorder the set.  One
    broadcast ``rng.integers`` makes those draws for every row.
    """
    highs = np.concatenate([np.arange(d - k + 1, d + 1), np.arange(k, 1, -1)])
    sets = rng.integers(0, np.tile(highs, n_sets)).reshape(n_sets, -1)[:, :k]
    for i in range(1, k):  # Floyd's rule: a value already taken gives way to the draw's top
        taken = (sets[:, :i] == sets[:, i : i + 1]).any(axis=1)
        sets[taken, i] = d - k + i
    sets.sort(axis=1)
    return _compact(sets, d - 1)


class _Cuts(NamedTuple):
    """What one step's search finds, per node in the order searched."""

    winner: list  # the winner's slot in the candidate features; -1 when every one is constant
    split: np.ndarray  # the nodes that split
    features: np.ndarray  # the features they split on
    thresholds: np.ndarray  # and their thresholds
    counts: np.ndarray  # (class, side, node) weights of the left and right children
    children: list  # per node (left, right): -width for a child with a table, else its class code
    lefts: np.ndarray  # the flat tables of the children that take one, in node order
    rights: np.ndarray


class _Rows(NamedTuple):
    """The training rows of a fit by id, ``tree * n + row``."""

    columns: np.ndarray  # (d, n): the training columns
    weights: np.ndarray  # (classes, ids): the bootstrap count of each id in its class's row, else 0
    count: np.dtype  # holds the weight of the heaviest root
    side: np.ndarray  # a scratch byte per id


def _side_counts(rows: _Rows, ids, seg_start, seg_len) -> np.ndarray:
    """The ``(class, side, position)`` weights left and right of the cut after
    each position of the segments, from one cumulative count over all of them.

    The cumulative count wraps around in ``rows.count``.  Every count it
    gives is a difference within one segment, at most the node's weight, so
    the wrapped differences are exact.
    """
    counted = rows.weights.take(ids, axis=1)
    # cum[c, p + 1]: the weight of class c up to position p, counted from the first segment
    cum = np.zeros((len(counted), len(ids) + 1), dtype=rows.count)
    np.cumsum(counted, axis=1, out=cum[:, 1:])
    side_counts = np.empty((len(counted), 2, len(ids)), dtype=rows.count)
    starts = np.repeat(cum.take(seg_start, axis=1), seg_len, axis=1)
    ends = np.repeat(cum.take(seg_start + seg_len, axis=1), seg_len, axis=1)
    np.subtract(cum[:, 1:], starts, out=side_counts[:, 0])
    np.subtract(ends, cum[:, 1:], out=side_counts[:, 1])
    return side_counts


def _search(rows: _Rows, tables: list, features, offsets, room) -> _Cuts:
    """The Gini-best cut of every node of one step, in one flat pass.

    ``tables`` are the nodes' ``(d, m)`` row-order tables of distinct ids and
    ``features`` the ``(nodes, F)`` ascending candidate features.
    ``offsets`` holds each node's ``tree * n``, and ``room`` tells whether
    its children are below the maximum depth.

    Each (node, feature) pair is a segment of ``m`` positions in value order,
    and the cut after a position gets its weighted Gini from class-major
    cumulative weights.  A node that stays a leaf counts as all left, with
    its own class code.
    """
    d, n = rows.columns.shape
    n_nodes, n_feat = features.shape
    sizes = np.array([table.shape[1] for table in tables])
    flat = np.concatenate([table.ravel() for table in tables])
    seg_len = np.repeat(sizes, n_feat)
    seg_start = _starts(seg_len)
    seg_end = seg_start + seg_len
    n_positions = int(seg_end[-1])
    in_seg = np.arange(n_positions) - np.repeat(seg_start, seg_len)
    source = _starts(d * sizes)[:, None] + features * sizes[:, None]
    ids = flat.take(np.repeat(source.ravel(), seg_len) + in_seg)
    xs = rows.columns.ravel().take(np.repeat((features * n - offsets[:, None]).ravel(), seg_len) + ids)

    # the same integers as with each row repeated by its count
    side_counts = _side_counts(rows, ids, seg_start, seg_len)
    n_classes = len(side_counts)
    side_sizes = _class_sum(side_counts).astype(float)
    node_sizes = side_sizes[0] + side_sizes[1]
    with np.errstate(divide="ignore", invalid="ignore"):  # a segment's last position cuts nothing
        impurity = _gini(side_counts.reshape(n_classes, -1), side_sizes.ravel()).reshape(2, -1)
        impurity *= side_sizes
        weighted = impurity[0] + impurity[1]
        weighted /= node_sizes
    no_cut = np.empty(n_positions, dtype=bool)
    no_cut[:-1] = xs[1:] == xs[:-1]  # no cut between equal values
    no_cut[seg_end - 1] = True
    np.putmask(weighted, no_cut, np.inf)

    # each segment's best; a constant feature has no cut, so its best is inf.
    # The features are compared in ascending order, a later one winning only
    # if its Gini is below the best's by more than 1e-15
    best = np.minimum.reduceat(weighted, seg_start)
    winner = []
    for gini in best.reshape(n_nodes, n_feat).tolist():
        k_best, g_best = -1, np.inf
        for k, g in enumerate(gini):
            if g < g_best - 1e-15:
                k_best, g_best = k, g
        winner.append(k_best)
    slots = np.array(winner)
    is_split = slots >= 0
    split = np.flatnonzero(is_split)

    # each node's rows in the winner's value order, or in its first candidate's
    # when it stays a leaf, where every position ties at inf
    win_seg = np.arange(0, n_nodes * n_feat, n_feat) + np.maximum(slots, 0)
    win_start = seg_start[win_seg]
    node_start = _starts(sizes)
    win = np.repeat(win_start - node_start, sizes) + np.arange(len(flat) // d)
    # the first best position is the cut
    hits = np.flatnonzero(weighted.take(win) == np.repeat(best[win_seg], sizes))
    cut_at = win[hits[np.searchsorted(hits, node_start[split])]]
    thresholds = np.full(n_nodes, np.nan)
    thresholds[split] = 0.5 * (xs[cut_at] + xs[cut_at + 1])
    # the rows with x <= threshold lead the value order; rounding may put xs[j + 1] among them
    goes_left = xs.take(win) <= np.repeat(thresholds, sizes)
    n_left = np.add.reduceat(goes_left, node_start, dtype=np.intp)

    # (class, side, node): the children's weights, those of the cut after the
    # last left position; a node that stays a leaf is all left
    counts = side_counts.take(win_start + np.where(is_split, n_left, sizes) - 1, axis=2)
    child_sizes = _class_sum(counts)
    widths = np.stack([n_left, sizes - n_left])
    # a child takes a table when it may split: below the maximum depth, of
    # weight 2 or more, and impure
    takes_table = is_split & room & (child_sizes >= 2) & (counts.max(axis=0) < child_sizes)
    children = np.where(takes_table, -widths, counts.argmax(axis=0)).T  # ties go to the lowest class

    # stable partition of the tables of the children that take one
    lefts = rights = flat[:0]
    if takes_table.any():
        goes = takes_table.astype(np.uint8)
        goes[1] *= 2  # 1: the left table, 2: the right one, 0: none
        rows.side[ids.take(win)] = np.where(
            goes_left, np.repeat(goes[0], sizes), np.repeat(goes[1], sizes)
        )
        at = rows.side.take(flat)
        lefts, rights = flat.compress(at == 1), flat.compress(at == 2)
    return _Cuts(
        winner, split, features[split, slots[split]], thresholds[split], counts, children.tolist(),
        lefts, rights,
    )


def _grow(X, codes, n_classes: int, max_depth: int, n_candidates: int, bootstraps):
    """Grow one tree per ``(counts, rng)`` of ``bootstraps``.

    ``counts`` holds how often the tree's bootstrap draws each row of ``X``,
    or is None for every row once.  A split searches ``n_candidates``
    features: ``rng`` draws them when that is below the column count, and
    may be None otherwise.  Each step searches the waiting node of as many
    trees as fit in ``GROW_BLOCK_POSITIONS``, taken in turn, at least one; a
    tree that draws nothing adds its other waiting nodes that fit.  Returns
    the trees' ``_Nodes`` in one table, each tree's root in it, and the
    depth of the deepest tree.
    """
    n, d = X.shape
    trees, weights = [], []
    for counts, rng in bootstraps:
        trees.append(_Tree(len(trees) * n, rng))
        if counts is None:
            counts = np.ones(n, np.uint8)
        weights.append(_compact(counts, counts.max(initial=0)))
    weights = np.concatenate(weights)
    codes = np.tile(_compact(codes, n_classes - 1), len(trees))
    class_weights = np.zeros((n_classes, len(weights)), dtype=weights.dtype)
    for code, row in enumerate(class_weights):
        np.multiply(weights, codes == code, out=row)
    root_counts = class_weights.reshape(n_classes, len(trees), n).sum(axis=2).T  # (trees, classes)
    sizes = root_counts.sum(axis=1)
    rows = _Rows(
        np.ascontiguousarray(X.T), class_weights, np.min_scalar_type(sizes.max(initial=0)),
        np.zeros(len(weights), dtype=np.uint8),
    )
    splits = (sizes >= 2) & (root_counts.max(axis=1) < sizes) & (n_candidates > 0) & (max_depth > 0)
    order = np.argsort(rows.columns, axis=1, kind="stable").astype(np.min_scalar_type(len(weights) - 1))
    waiting = deque()
    majorities = root_counts.argmax(axis=1).tolist()  # ties go to the lowest class
    for tree, majority, split in zip(trees, majorities, splits.tolist()):
        if split:  # each distinct row of the value order once
            held = (weights[tree.offset : tree.offset + n] > 0).take(order)
            tree.stack.append((order.compress(held.ravel()).reshape(d, -1) + tree.offset, 0))
        else:
            tree.stack.append(majority)
        if tree.next_search(d, n_candidates):
            waiting.append(tree)
    all_features = np.arange(d)
    split_features, split_thresholds = [], []
    n_splits = deepest = 0
    while waiting:
        tree = waiting.popleft()
        batch, nodes = [tree], [(tree, len(tree.stack) - 1)]
        budget = GROW_BLOCK_POSITIONS - n_candidates * tree.stack[-1][0].shape[1]
        while waiting and n_candidates * waiting[0].stack[-1][0].shape[1] <= budget:
            tree = waiting.popleft()
            budget -= n_candidates * tree.stack[-1][0].shape[1]
            batch.append(tree)
            nodes.append((tree, len(tree.stack) - 1))
        if n_candidates < d:
            features = np.array([tree.sets[tree.taken - 1] for tree in batch], dtype=np.intp)
        else:
            # a tree that draws nothing may search its other waiting nodes too
            for tree in batch:
                for i in range(len(tree.stack) - 2, -1, -1):
                    node = tree.stack[i]
                    if node.__class__ is tuple and d * node[0].shape[1] <= budget:
                        budget -= d * node[0].shape[1]
                        nodes.append((tree, i))
            features = np.tile(all_features, (len(nodes), 1))
        entries = [tree.stack[i] for tree, i in nodes]
        depths = np.array([depth for _, depth in entries])
        offsets = np.array([tree.offset for tree, _ in nodes])
        cuts = _search(rows, [table for table, _ in entries], features, offsets, depths + 1 < max_depth)
        if len(cuts.split):
            split_features.append(cuts.features)
            split_thresholds.append(cuts.thresholds)
            deepest = max(deepest, int(depths[cuts.split].max()) + 1)
        lefts, rights = cuts.lefts, cuts.rights
        # each node's place on its stack takes its code and then its children's
        # entries; a tree's nodes come in descending place, so each place holds
        left_at = right_at = 0
        for (tree, i), k, (left, right), (_, depth) in zip(nodes, cuts.winner, cuts.children, entries):
            if k < 0:  # every candidate is constant: the node stays a leaf
                tree.stack[i] = left
                continue
            if right < 0:
                end = right_at - d * right
                # a right child may wait long on the stack: a copy frees the step's buffer
                right = (rights[right_at:end].reshape(d, -right).copy(), depth + 1)
                right_at = end
            if left < 0:
                end = left_at - d * left
                left = (lefts[left_at:end].reshape(d, -left), depth + 1)
                left_at = end
            tree.stack[i : i + 1] = right, left, ~n_splits
            n_splits += 1
        for tree in batch:
            if tree.next_search(d, n_candidates):
                waiting.append(tree)

    node_codes = np.array([code for tree in trees for code in tree.codes])
    leaf = node_codes >= 0
    feature = np.zeros(len(node_codes), dtype=np.min_scalar_type(d - 1))
    threshold = np.full(len(node_codes), np.nan)
    if split_features:
        at = ~node_codes[~leaf]
        feature[~leaf] = np.concatenate(split_features)[at]
        threshold[~leaf] = np.concatenate(split_thresholds)[at]
    nodes = _Nodes(
        feature=feature,
        threshold=threshold,
        right=_right_links(leaf),
        value=_compact(np.where(leaf, node_codes, 0), n_classes - 1),
    )
    roots = _compact(_starts(np.array([len(tree.codes) for tree in trees])), len(leaf) - 1)
    return nodes, roots, deepest


class DecisionTreeClassifier(Packed):
    """CART with Gini impurity, midpoint thresholds, and no pruning.

    Every split searches every feature.
    """

    _packed_fields = ("max_depth", "classes_", "depth_", "_nodes")

    def __init__(self, max_depth: int = 15):
        if max_depth < 1:
            raise UsageError("max_depth must be >= 1")
        self.max_depth = int(max_depth)
        self.classes_: np.ndarray | None = None
        self.depth_ = 0
        self._nodes: _Nodes | None = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2 or len(X) != len(y):
            raise UsageError("X must be 2-D with one label per row")
        self.classes_, codes = np.unique(y, return_inverse=True)
        self._nodes, _, self.depth_ = _grow(
            X, codes, len(self.classes_), self.max_depth, X.shape[1], [(None, None)]
        )
        return self

    def _check_fitted(self) -> None:
        if self._nodes is None:
            raise UsageError("model is not fitted")

    def predict(self, X):
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        # one tree is cheaper to walk row by row than to descend in vectorised steps
        feature, threshold, right, value = (a.tolist() for a in self._nodes)
        codes = []
        for row in X.tolist():
            i = 0
            while right[i] != i:
                i = i + 1 if row[feature[i]] <= threshold[i] else right[i]
            codes.append(value[i])
        return self.classes_[codes]


# rows scored together by a forest; a block's (trees, rows) node indices bound predict's memory
PREDICT_BLOCK_ROWS = 1024
# nodes of the largest forest that scores one record through a next-node table;
# a larger forest, and every block of more than one row, descends level by level
TABLE_MAX_NODES = 16384


class RandomForestClassifier(Packed):
    """Bootstrap-aggregated CART trees with sqrt-sized feature subsets.

    Bootstrap samples are full training-set size drawn with replacement;
    every tree gets its own RNG stream spawned deterministically from the
    forest seed, and prediction is a majority vote with ties resolved toward
    the lowest class index.  The first predict after a fit or a load casts
    the node links to intp once.  One record, in a forest of at most
    ``TABLE_MAX_NODES`` nodes, is scored through a next-node table, one
    gather per depth level; a larger forest or block descends level by
    level, with the same votes.  A pickle holds the node table in its
    succinct form (see Packing in the module docstring), and neither the
    tree roots nor the cast links; loading rebuilds the roots from the leaf
    bits.
    """

    _packed_fields = ("n_trees", "max_depth", "seed", "classes_", "_nodes", "_depth")
    _derived_fields = ("_roots", "_walk")
    # (roots, feature, right, each node's index + 1) as intp, the index type
    # of every take in a descent; built on first use
    _walk: tuple | None = None

    def __init__(self, n_trees: int = 150, max_depth: int = 15, seed: int = 0):
        if n_trees < 1:
            raise UsageError("n_trees must be >= 1")
        self.n_trees = int(n_trees)
        self.max_depth = int(max_depth)
        self.seed = int(seed)
        self.classes_: np.ndarray | None = None
        self._nodes: _Nodes | None = None
        self._roots: np.ndarray | None = None
        self._depth = 0

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2 or len(X) != len(y):
            raise UsageError("X must be 2-D with one label per row")
        self.classes_, codes = np.unique(y, return_inverse=True)
        self._walk = None
        n, d = X.shape
        k = len(self.classes_)
        n_candidates = int(np.ceil(np.sqrt(d)))
        streams = np.random.SeedSequence(self.seed).spawn(self.n_trees)

        def bootstraps():  # drawn one tree at a time, as the grower takes them
            for stream in streams:
                rng = np.random.default_rng(stream)
                yield np.bincount(rng.integers(0, n, size=n), minlength=n), rng

        self._nodes, self._roots, self._depth = _grow(
            X, codes, k, self.max_depth, n_candidates, bootstraps()
        )
        return self

    def _check_fitted(self) -> None:
        if self._nodes is None:
            raise UsageError("model is not fitted")

    def predict(self, X):
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        if len(X) <= PREDICT_BLOCK_ROWS:
            return self._vote(X)
        starts = range(0, len(X), PREDICT_BLOCK_ROWS)
        return np.concatenate([self._vote(X[i : i + PREDICT_BLOCK_ROWS]) for i in starts])

    def _vote(self, X: np.ndarray) -> np.ndarray:
        n_rows, d = X.shape
        nodes = self._nodes
        if self._walk is None:
            links = (self._roots, nodes.feature, nodes.right)
            self._walk = (*(a.astype(np.intp) for a in links), np.arange(1, len(nodes.right) + 1))
        roots, feature, right, following = self._walk
        if self._depth and n_rows == 1 and len(right) <= TABLE_MAX_NODES:
            # the record's next node from every node; a leaf's is itself
            step = np.where(X[0].take(feature) <= nodes.threshold, following, right)
            node = roots[:, None]  # (trees, rows)
            for _ in range(self._depth):
                node = step.take(node)
        else:
            values = X.ravel()
            row_starts = np.arange(n_rows) * d
            node = np.repeat(roots[:, None], n_rows, axis=1)  # (trees, rows)
            for _ in range(self._depth):
                x = values.take(feature.take(node) + row_starts)
                node = np.where(x <= nodes.threshold.take(node), node + 1, right.take(node))
        k = len(self.classes_)
        codes = nodes.value.take(node) + k * np.arange(n_rows)
        votes = np.bincount(codes.ravel(), minlength=k * n_rows).reshape(n_rows, k)
        return self.classes_[np.argmax(votes, axis=1)]

    def _restore(self) -> None:
        self._roots = None
        if self._nodes is not None:
            right = self._nodes.right
            excess, first = np.unique(_excess(right == np.arange(len(right))), return_index=True)
            ends = first[excess < 0][::-1]  # tree t ends where the excess first reads -t - 1
            self._roots = _compact(np.concatenate([[0], ends[:-1] + 1]), len(right) - 1)
