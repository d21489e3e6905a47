"""CART decision trees (Gini impurity) and bagged random forests on flat node arrays.

Fit.  One grower fits every tree: a forest's trees grow together, and a
plain tree is the one-tree case that draws nothing.  The training columns
are stable-argsorted once per fit; a tree's root table repeats each row id
of that value order as often as its bootstrap holds the row, giving a
``(d, n)`` row-order table (the presorted attribute lists of SLIQ; Mehta,
Agrawal & Rissanen, EDBT 1996).  Tables hold ids of the training rows in
the smallest unsigned dtype.  A node owns the ``(d, m)`` table of its own
rows, and a split partitions every row of it with the go-left mask; the
partition is stable, so each child's table stays in value order.  Equal
values may sit in any order: no cut falls between them, so their order
changes no count the search reads.

Scheduler.  Each tree keeps its own preorder stack.  A step takes the
waiting node of each tree in turn until their candidate positions (one per
candidate feature and row) would pass ``GROW_BLOCK_POSITIONS``, and at least
one node, then searches them all in one flat pass.  Each (node, feature)
pair is a segment of ``m`` positions in value order.  Class counts are
cumulated one class per row of a class-major ``(classes, positions)``
table; the weighted Gini of the cut after every position comes from the
same elementwise operations as the per-node definition, and ``+inf`` marks
a segment's last position and positions whose next value is equal.
``np.minimum.reduceat`` gives each segment's best, whose first position is
its cut.  The features are then compared in ascending order, a later one
winning only if ``candidate < best - 1e-15``.  The threshold is the midpoint
of the two values around the cut.  Each child's class counts come from the
cumulative counts, so a leaf costs no NumPy call; its class is the
majority, ties going to the lowest class.  The children come from two
boolean compresses of all the step's tables at once.

Class-sum order.  The Gini sums the squared class fractions as ``np.sum``
does over a contiguous class axis: in sequence below 8 classes, pairwise
from 8 up.  A forest's trees count the forest's classes, so a class a
bootstrap lacks adds exact zeros.  Below 8 classes that leaves every bit as
a tree grown on its own classes would have it; from 8 classes up, a tree
whose bootstrap lacks a class may differ from it in the last bit.

RNG contract.  A forest's tree searches ``k = ceil(sqrt(d))`` features per
split.  When ``k`` is below the column count, each splittable node (not a
leaf made by depth, size or purity) searches, in depth-first, left-first
preorder, the set that one ``rng.choice(d, size=k, replace=False)`` on the
tree's own stream would draw there.  The tree draws ``CANDIDATE_BLOCK_NODES``
such sets at once: one broadcast ``rng.integers`` makes ``choice``'s bounded
draws for each set in turn, Floyd's ``k`` and then the ``k - 1`` of its
shuffle, which only orders the set; the search sorts it anyway.  The draws
left when a tree is grown are never read.  This equals ``choice`` while
numpy takes Floyd's path, which it does unless ``d > 10000`` and
``k > d // 50``, and ``ceil(sqrt(d))`` never is both.  The scheduler
interleaves trees, never the nodes of one tree: each tree visits its nodes
from its own explicit stack in that order, so its sets are taken as by the
recursive definition, and a deep tree needs no recursion.  A plain tree
searches every feature and draws nothing.

Node layout.  A fitted tree is a ``_Nodes`` table of flat preorder arrays, in
the smallest integer dtypes that hold them: ``feature``, ``threshold``,
``right`` and ``value`` (the leaf's class code).  The left child of node ``i``
is ``i + 1``.  A leaf has a NaN threshold and a ``right`` that points to
itself, so ``x <= threshold`` is false and a descent step leaves it in place.
A tree predicts by walking its nodes row by row.  A forest concatenates its
trees into one table.  It keeps that table, each tree's root offset, the
deepest tree's depth and a ``(trees, classes)`` mask of the classes each
bootstrap held, from which a tree's text is rendered in the codes of its own
classes; no per-tree object is made.  The forest scores rows in blocks of
``PREDICT_BLOCK_ROWS``: each block goes through every tree in ``depth``
vectorised gather steps over a ``(trees, rows)`` node-index array, and votes
with one ``bincount``.  A step costs eight NumPy calls, so a single record
instead builds a next-node table: for each node, ``i + 1`` where the record's
feature is ``<= threshold`` and ``right`` otherwise.  A leaf's entry is
itself, so ``depth`` jumps ``node = step.take(node)`` reach the same leaves as
the level-wise descent, bit for bit (a NaN feature goes right in both).  The
table costs a pass over every node, so only a forest of at most
``TABLE_MAX_NODES`` nodes takes it (pointer-style traversal; Asadi, Lin & de
Vries, IEEE TKDE 26:2281, 2014).

Pickles.  A pickled table keeps what fixes a preorder tree (Jacobson, FOCS
1989): a packed leaf bit per node, each split's feature and threshold, and
each leaf's class.  A threshold is an index, in the smallest unsigned dtype,
into its feature's sorted distinct bit patterns, which keep -0.0 apart from
0.0.  A node's excess counts splits minus leaves up to and including it; the
left subtree of split ``i`` ends at the first later node whose excess is one
below ``excess[i]``, and its right child follows.  Loading finds every end
with one sort of (excess, node) keys and one ``searchsorted``, and builds
each array from a dtype string, so the arrays come back bit for bit in
numpy's own dtypes and a loaded tree pickles to the same bytes.  A forest's
pickle leaves out the tree roots, as tree ``t`` ends where the excess first
reads ``-t - 1``, and packs its held-class mask into bits.
"""
from __future__ import annotations

from collections import deque
from typing import NamedTuple

import numpy as np

from ..errors import UsageError


# candidate positions one grower step searches, one per (candidate feature, row)
# of each node taken; a step takes at least one node
GROW_BLOCK_POSITIONS = 4096
# candidate sets a forest's tree draws at once; a 150-tree fit on 230 x 10
# reaches 10-23 splittable nodes per tree
CANDIDATE_BLOCK_NODES = 32


class _Nodes(NamedTuple):
    """Flat preorder node arrays of one tree, or of every tree of a forest."""

    feature: np.ndarray  # 0 at a leaf
    threshold: np.ndarray  # NaN at a leaf
    right: np.ndarray  # a leaf's own index
    value: np.ndarray  # leaf class code; 0 at a split

    def __reduce__(self):
        # see Pickles above
        leaf = self.right == np.arange(len(self.right))
        split_feature = self.feature[~leaf]
        # the distinct bit patterns, then one key per split, feature-major over
        # them: the sorted distinct keys run feature by feature, pattern by pattern
        bits, pattern = np.unique(self.threshold[~leaf].view(np.uint64), return_inverse=True)
        width = max(len(bits), 1)
        keys, inverse = np.unique(split_feature.astype(np.intp) * width + pattern, return_inverse=True)
        counts = np.bincount(keys // width)  # distinct thresholds per feature
        index = inverse - _starts(counts)[split_feature]
        return _load_nodes, (
            np.packbits(leaf), split_feature, _compact(counts, counts.max(initial=0)),
            _compact(index, counts.max(initial=1) - 1), bits[keys % width].view(float), self.value[leaf],
        )


def _load_nodes(leaf_bits, split_feature, counts, index, thresholds, leaf_value) -> _Nodes:
    """Unpickle ``_Nodes``: the same arrays, bit for bit, in numpy's own dtypes."""
    n = len(split_feature) + len(leaf_value)
    leaf = np.unpackbits(leaf_bits, count=n).view(bool)
    split = np.flatnonzero(~leaf)
    feature = np.zeros(n, split_feature.dtype.str)
    feature[split] = split_feature
    threshold = np.full(n, np.nan)
    threshold[split] = thresholds[_starts(counts)[split_feature] + index]
    value = np.zeros(n, leaf_value.dtype.str)
    value[leaf] = leaf_value
    # the left subtree of split i ends at the first later node whose excess is
    # one below excess[i], found by one search of the sorted (excess, node) keys
    excess = _excess(leaf)
    low = excess.min()
    keys = np.sort((excess - low) * n + np.arange(n))
    right = np.arange(n)
    right[split] = keys[np.searchsorted(keys, (excess[split] - 1 - low) * n + split + 1)] % n + 1
    return _Nodes(feature, threshold, _compact(right, n - 1), value)


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


def _sum_of_squares(fracs: np.ndarray) -> np.ndarray:
    """Per position, the sum over classes of ``fracs**2``; ``fracs`` is ``(classes, positions)``.

    The sum is ``np.sum`` over a contiguous class axis, bit for bit: below 8
    terms that adds the classes in sequence, from 8 up it adds them pairwise.
    """
    if len(fracs) < 8:
        total = fracs[0] ** 2
        for row in fracs[1:]:
            total += row**2
        return total
    return np.sum(np.ascontiguousarray((fracs**2).T), axis=1)


def _gini(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    # counts: (classes, positions); sizes: (positions,)
    return 1.0 - _sum_of_squares(counts / sizes)


class _Tree:
    """A tree in growth: its preorder node lists, its stack of nodes still to
    visit, and the node whose split search it waits for."""

    __slots__ = (
        "rng", "sets", "taken", "stack", "feature", "threshold", "right", "value", "depth", "node"
    )

    def __init__(self, rng, root: tuple):
        self.rng = rng
        self.sets, self.taken = (), 0  # the drawn candidate sets, and how many nodes took one
        # (row-order table, class counts, depth, the parent whose right child it is, or -1)
        self.stack = [root]
        self.feature, self.threshold, self.right, self.value = [], [], [], []
        self.depth = 0
        self.node = None  # (row-order table, class counts, depth, index, features)

    def next_search(self, max_depth: int, d: int, n_candidates: int) -> bool:
        """Visit nodes in preorder, each as a leaf, up to the next splittable one.

        That node waits in ``node`` for its search; False when none is left.
        """
        right = self.right
        while self.stack:
            table, counts, depth, parent = self.stack.pop()
            node = len(right)
            if parent >= 0:
                right[parent] = node
            self.depth = max(self.depth, depth)
            m = table.shape[1]
            self.feature.append(0)
            self.threshold.append(np.nan)
            right.append(node)
            self.value.append(counts.index(max(counts)))  # ties go to the lowest class
            if n_candidates and depth < max_depth and m >= 2 and max(counts) < m:
                features = None
                if n_candidates < d:
                    if self.taken == len(self.sets):
                        self.sets = _candidate_sets(
                            self.rng, d, n_candidates, CANDIDATE_BLOCK_NODES
                        )
                        self.taken = 0
                    features = self.sets[self.taken]
                    self.taken += 1
                self.node = (table, counts, depth, node, features)
                return True
        return False

    def nodes(self, d: int, n_classes: int) -> _Nodes:
        return _Nodes(
            feature=_compact(self.feature, d - 1),
            threshold=np.asarray(self.threshold, dtype=float),
            right=_compact(self.right, len(self.right) - 1),
            value=_compact(self.value, n_classes - 1),
        )


def _candidate_sets(rng, d: int, k: int, n_sets: int) -> np.ndarray:
    """The next ``n_sets`` candidate sets of ``k < d`` features, one per row,
    in the smallest unsigned dtype (150 trees keep a block each).

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
    return _compact(sets, d - 1)


def _search(columns, codes, n_classes: int, tables: list, features: np.ndarray):
    """The Gini-best cut of every node of one step, in one flat pass.

    ``tables`` are the nodes' ``(d, m)`` row-order tables and ``features`` the
    ``(nodes, F)`` ascending candidate features.  Each (node, feature) pair is
    a segment of ``m`` positions in value order, and the cut after a position
    gets its weighted Gini from class-major cumulative counts.  Returns, per
    node, the winner's slot in ``features`` (-1 when every candidate is
    constant), its threshold, its number of rows on the left and their class
    counts, and the flat left and right children of every node's table.
    """
    d, n = columns.shape
    n_nodes, n_feat = features.shape
    sizes = np.array([table.shape[1] for table in tables])
    flat = np.concatenate([table.ravel() for table in tables])
    seg_len = np.repeat(sizes, n_feat)
    seg_start = _starts(seg_len)
    seg_end = seg_start + seg_len
    positions = np.arange(seg_end[-1])
    in_seg = positions - np.repeat(seg_start, seg_len)
    source = _starts(d * sizes)[:, None] + features * sizes[:, None]
    rows = flat[np.repeat(source.ravel(), seg_len) + in_seg]
    xs = columns.ravel()[np.repeat(features.ravel() * n, seg_len) + rows]

    # cum[c, p + 1]: the rows of class c up to position p, counted from the first segment
    cum = np.zeros((n_classes, len(positions) + 1), dtype=np.min_scalar_type(len(positions)))
    np.cumsum(codes[rows] == np.arange(n_classes)[:, None], axis=1, out=cum[:, 1:])
    left_counts = cum[:, 1:] - np.repeat(cum[:, seg_start], seg_len, axis=1)
    right_counts = np.repeat(cum[:, seg_end], seg_len, axis=1) - cum[:, 1:]
    left_sizes = in_seg + 1.0
    node_sizes = np.repeat(seg_len, seg_len)
    right_sizes = node_sizes - left_sizes
    with np.errstate(divide="ignore", invalid="ignore"):  # a segment's last position cuts nothing
        weighted = (
            left_sizes * _gini(left_counts, left_sizes)
            + right_sizes * _gini(right_counts, right_sizes)
        ) / node_sizes
    no_cut = np.empty(len(positions), dtype=bool)
    no_cut[:-1] = xs[1:] == xs[:-1]  # no cut between equal values
    no_cut[seg_end - 1] = True
    weighted[no_cut] = np.inf

    # each segment's first best position; a constant feature has no cut, so its best is inf
    best = np.minimum.reduceat(weighted, seg_start)
    hits = np.flatnonzero(weighted == np.repeat(best, seg_len))
    first = hits[np.searchsorted(hits, seg_start)].reshape(n_nodes, n_feat)
    # then the features in ascending order, a later one winning only if its
    # Gini is below the best's by more than 1e-15
    winner = []
    for gini in best.reshape(n_nodes, n_feat).tolist():
        k_best, g_best = -1, np.inf
        for k, g in enumerate(gini):
            if g < g_best - 1e-15:
                k_best, g_best = k, g
        winner.append(k_best)
    winner = np.array(winner)

    split = np.flatnonzero(winner >= 0)
    cut_at = first[split, winner[split]]  # the position the cut follows
    thresholds = np.full(n_nodes, np.nan)
    thresholds[split] = 0.5 * (xs[cut_at] + xs[cut_at + 1])
    # the rows with x <= threshold lead the value order; rounding may put xs[j + 1] among them
    m = sizes[split]
    win_start = cut_at - in_seg[cut_at]
    win = np.repeat(win_start - _starts(m), m) + np.arange(m.sum())
    goes_left = xs[win] <= np.repeat(thresholds[split], m)
    n_left = np.zeros(n_nodes, dtype=np.intp)
    n_left[split] = np.add.reduceat(goes_left, _starts(m), dtype=np.intp)
    left_class_counts = np.zeros((n_nodes, n_classes), dtype=np.intp)
    left_class_counts[split] = (cum[:, win_start + n_left[split]] - cum[:, win_start]).T

    # stable partition of every node's table into the left and right children
    in_left = np.zeros(n_nodes * n, dtype=bool)
    in_left[np.repeat(split * n, m)[goes_left] + rows[win][goes_left]] = True
    in_left = in_left[np.repeat(np.arange(0, n_nodes * n, n), d * sizes) + flat]
    return winner, thresholds, n_left, left_class_counts, flat[in_left], flat[~in_left]


def _grow(X, codes, n_classes: int, max_depth: int, n_candidates: int, bootstraps) -> list:
    """Grow one tree per ``(rows, rng)`` of ``bootstraps``; return each tree's ``_Nodes`` and depth.

    ``rows`` are the tree's training rows, ids into ``X`` that may repeat.
    A split searches ``n_candidates`` features: ``rng`` draws them when that
    is below the column count, and may be None otherwise.  Each step
    searches the waiting node of as many trees as fit in
    ``GROW_BLOCK_POSITIONS``, taken in turn, at least one.
    """
    n, d = X.shape
    columns = np.ascontiguousarray(X.T)
    ids = np.min_scalar_type(max(n - 1, 0))
    order = np.argsort(columns, axis=1, kind="stable").astype(ids)
    trees, waiting = [], deque()
    for rows, rng in bootstraps:
        # the root's table: each row of the value order as often as the tree holds it
        table = np.repeat(order, np.bincount(rows, minlength=n)[order].ravel()).reshape(d, len(rows))
        tree = _Tree(rng, (table, np.bincount(codes[rows], minlength=n_classes).tolist(), 0, -1))
        trees.append(tree)
        if tree.next_search(max_depth, d, n_candidates):
            waiting.append(tree)
    while waiting:
        batch = [waiting.popleft()]
        budget = GROW_BLOCK_POSITIONS - n_candidates * batch[0].node[0].shape[1]
        while waiting and n_candidates * waiting[0].node[0].shape[1] <= budget:
            budget -= n_candidates * waiting[0].node[0].shape[1]
            batch.append(waiting.popleft())
        if n_candidates < d:
            features = np.sort([tree.node[4] for tree in batch], axis=1).astype(np.intp)
        else:
            features = np.tile(np.arange(d), (len(batch), 1))
        winner, thresholds, n_left, left_counts, lefts, rights = _search(
            columns, codes, n_classes, [tree.node[0] for tree in batch], features
        )
        left_at = right_at = 0
        for tree, k, cut, n_l, counts_l, chosen in zip(
            batch, winner.tolist(), thresholds.tolist(), n_left.tolist(),
            left_counts.tolist(), features.tolist(),
        ):
            table, counts, depth, node, _ = tree.node
            n_r = table.shape[1] - n_l
            if k < 0:  # the node stays a leaf; its whole table went right
                right_at += d * n_r
            else:
                left_table = lefts[left_at : left_at + d * n_l].reshape(d, n_l)
                # a right child may wait long on the stack: a copy frees the step's buffer
                right_table = rights[right_at : right_at + d * n_r].reshape(d, n_r).copy()
                left_at += d * n_l
                right_at += d * n_r
                tree.feature[node] = chosen[k]
                tree.threshold[node] = cut
                tree.right[node] = -1  # set when the right child is reached
                tree.value[node] = 0
                counts_r = [c - left for c, left in zip(counts, counts_l)]
                tree.stack.append((right_table, counts_r, depth + 1, node))
                tree.stack.append((left_table, counts_l, depth + 1, -1))
            if tree.next_search(max_depth, d, n_candidates):
                waiting.append(tree)
    return [(tree.nodes(d, n_classes), tree.depth) for tree in trees]


def _tree_text(nodes: list[list], root: int, leaf_codes: list[int]) -> str:
    """``repr`` of the nested ``('split', feature, threshold, left, right)`` /
    ``('leaf', class)`` tuple of the tree at ``root``, built without recursion.

    ``nodes`` holds the ``_Nodes`` arrays as lists; ``leaf_codes`` maps a leaf
    value to the class code the tree's text shows.
    """
    feature, threshold, right, value = nodes
    leaves = [f"('leaf', {code})" for code in leaf_codes]
    splits = {}  # feature -> the text that opens its split
    parts = []
    in_right = []  # one flag per open split: its left subtree is done
    i = root
    while True:
        if right[i] == i:
            parts.append(leaves[value[i]])
            while in_right and in_right[-1]:
                in_right.pop()
                parts.append(")")
            if not in_right:
                return "".join(parts)
            in_right[-1] = True
            parts.append(", ")
        else:
            f = feature[i]
            if f not in splits:
                splits[f] = f"('split', {np.int64(f)!r}, "
            parts.append(f"{splits[f]}{threshold[i]!r}, ")
            in_right.append(False)
        i += 1


class DecisionTreeClassifier:
    """CART with Gini impurity, midpoint thresholds, and no pruning.

    Every split searches every feature.
    """

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
        [(self._nodes, self.depth_)] = _grow(
            X, codes, len(self.classes_), self.max_depth, X.shape[1], [(np.arange(len(X)), None)]
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

    def fitted_state(self) -> dict:
        self._check_fitted()
        nodes = [a.tolist() for a in self._nodes]
        return {"classes": self.classes_, "tree": _tree_text(nodes, 0, range(len(self.classes_)))}


# rows scored together by a forest; a block's (trees, rows) node indices bound predict's memory
PREDICT_BLOCK_ROWS = 1024
# nodes of the largest forest that scores one record through a next-node table;
# a larger forest, and every block of more than one row, descends level by level
TABLE_MAX_NODES = 16384


class RandomForestClassifier:
    """Bootstrap-aggregated CART trees with sqrt-sized feature subsets.

    Bootstrap samples are full training-set size drawn with replacement;
    every tree gets its own RNG stream spawned deterministically from the
    forest seed, and prediction is a majority vote with ties resolved toward
    the lowest class index.  The first predict after a fit or a load casts
    the node links to intp once.  One record, in a forest of at most
    ``TABLE_MAX_NODES`` nodes, is scored through a next-node table, one
    gather per depth level; a larger forest or block descends level by
    level, with the same votes.  A pickle holds the node table in its
    succinct form (see Pickles in the module docstring), the held-class mask
    as packed bits, and neither the tree roots nor the cast links; loading
    rebuilds the roots from the leaf bits.
    """

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
        self._held: np.ndarray | None = None  # (trees, classes): the classes each bootstrap held

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
        self._held = np.zeros((self.n_trees, k), dtype=bool)
        streams = np.random.SeedSequence(self.seed).spawn(self.n_trees)

        def bootstraps():  # drawn one tree at a time, as the grower takes them
            for held, stream in zip(self._held, streams):
                rng = np.random.default_rng(stream)
                sample = rng.integers(0, n, size=n)
                held[codes[sample]] = True
                yield sample, rng

        tables, depths = zip(*_grow(X, codes, k, self.max_depth, n_candidates, bootstraps()))
        sizes = np.array([len(t.right) for t in tables])
        roots = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        total = int(sizes.sum())
        self._nodes = _Nodes(
            feature=np.concatenate([t.feature for t in tables]),
            threshold=np.concatenate([t.threshold for t in tables]),
            right=_compact(
                np.concatenate([t.right + root for t, root in zip(tables, roots)]), total - 1
            ),
            value=_compact(np.concatenate([t.value for t in tables]), k - 1),
        )
        self._roots = _compact(roots, total - 1)
        self._depth = max(depths)
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

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_walk", None)  # a fixed function of _roots and _nodes
        del state["_roots"]  # each tree ends where the excess falls to a new low
        if self._held is not None:
            state["_held"] = np.packbits(self._held)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._roots = None
        if self._nodes is not None:
            right = self._nodes.right
            excess, first = np.unique(_excess(right == np.arange(len(right))), return_index=True)
            ends = first[excess < 0][::-1]  # tree t ends where the excess first reads -t - 1
            self._roots = _compact(np.concatenate([[0], ends[:-1] + 1]), len(right) - 1)
            held = np.unpackbits(self._held, count=len(ends) * len(self.classes_))
            self._held = held.reshape(len(ends), -1).view(bool)

    def fitted_state(self) -> dict:
        self._check_fitted()
        nodes = [a.tolist() for a in self._nodes]
        # each tree's text shows the codes of the classes its own bootstrap held
        return {
            "classes": self.classes_,
            "seed": self.seed,
            "trees": [
                _tree_text(nodes, root, (np.cumsum(held) - 1).tolist())
                for root, held in zip(self._roots.tolist(), self._held)
            ],
        }
