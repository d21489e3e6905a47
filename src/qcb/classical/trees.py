"""CART decision trees (Gini impurity) and bagged random forests on flat node arrays.

Fit.  Each tree stable-argsorts every column of its training matrix once, into
a ``(d, n)`` row-order table (the presorted attribute lists of SLIQ; Mehta,
Agrawal & Rissanen, EDBT 1996).  A node owns the ``(d, m)`` table of its own
rows.  A split partitions every row of that table with the go-left mask; the
partition is stable, so each child's table keeps the ``(value, row)`` order a
per-node stable argsort would give.  A node's candidate features are searched
in one vectorised pass over ``(features, positions, classes)`` arrays: the
cumulative class counts, the weighted Gini of a cut after every position, and
``+inf`` where the next value is equal.  Then ``argmin`` takes each feature's
first best position, and the features are compared in ascending order, a later
one winning only if ``candidate < best - 1e-15``.  The threshold is the midpoint
of the two values around the cut.  Each child's class counts come from its
parent's cumulative counts, so a leaf costs no NumPy call; its class is the
majority, ties going to the lowest class.

RNG contract.  A forest's tree searches ``ceil(sqrt(d))`` features per split;
when that is below the column count it draws one
``rng.choice(d, size=ceil(sqrt(d)), replace=False)`` from its own stream at
each splittable node (not at a leaf made by depth, size or purity), in
depth-first, left-first preorder.  Trees grow from an explicit stack in that
order, never level by level, so the stream is consumed as by the recursive
definition, and a deep tree needs no recursion.  A plain tree searches every
feature and draws nothing.

Node layout.  A fitted tree is a ``_Nodes`` table of flat preorder arrays, in
the smallest integer dtypes that hold them: ``feature``, ``threshold``,
``right`` and ``value`` (the leaf's class code).  The left child of node ``i``
is ``i + 1``.  A leaf has a NaN threshold and a ``right`` that points to
itself, so ``x <= threshold`` is false and a descent step leaves it in place.
A tree predicts by walking its nodes row by row.  A forest grows each tree
on the codes of the classes its bootstrap holds, as a stand-alone tree would
be grown, maps its leaf codes to the forest's classes, and concatenates the
trees into one table.  It keeps that table, each tree's root offset, the
deepest tree's depth and a ``(trees, classes)`` mask of the classes each bootstrap held,
from which a tree's text is rendered in its own codes; no per-tree object
is made.  The forest scores rows in blocks of ``PREDICT_BLOCK_ROWS``: each
block goes through every tree in ``depth`` vectorised gather steps over a
``(trees, rows)`` node-index array, and votes with one ``bincount``.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import UsageError


class _Nodes(NamedTuple):
    """Flat preorder node arrays of one tree, or of every tree of a forest."""

    feature: np.ndarray
    threshold: np.ndarray  # NaN at a leaf
    right: np.ndarray  # a leaf's own index
    value: np.ndarray  # leaf class code; unused at a split


def _compact(values, largest: int) -> np.ndarray:
    return np.asarray(values, dtype=np.min_scalar_type(largest))


def _gini(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    # counts: (features, positions, classes); sizes: (positions,)
    frac = counts / sizes[:, None]
    return 1.0 - np.sum(frac**2, axis=-1)


def _best_split(columns, codes, classes, table, features):
    """The Gini-best cut of one node over its candidate ``features``, or None.

    ``table`` is the node's ``(d, m)`` row-order table.  Returns the winner's
    index in ``features``, the position its cut follows, and its row ids,
    values and cumulative class counts, all in its value order.
    """
    rows = table[features]  # (features, m)
    xs = columns[features[:, None], rows]
    m = rows.shape[1]
    cum = np.cumsum(codes[rows][..., None] == classes, axis=1, dtype=float)
    left_counts = cum[:, :-1]
    left_sizes = np.arange(1.0, m)
    right_sizes = m - left_sizes
    weighted = (
        left_sizes * _gini(left_counts, left_sizes)
        + right_sizes * _gini(cum[:, -1:] - left_counts, right_sizes)
    ) / m
    weighted[xs[:, 1:] == xs[:, :-1]] = np.inf  # no cut between equal values
    positions = np.argmin(weighted, axis=1)
    candidates = weighted[np.arange(len(features)), positions].tolist()
    best = None
    for k, constant in enumerate((xs[:, 0] == xs[:, -1]).tolist()):
        if not constant and (best is None or candidates[k] < candidates[best] - 1e-15):
            best = k
    if best is None:
        return None
    return best, positions[best], rows[best], xs[best], cum[best]


def _grow(X, codes, n_classes: int, max_depth: int, n_candidates: int, rng):
    """Grow one tree in preorder; return its ``_Nodes`` and its depth."""
    n, d = X.shape
    columns = np.ascontiguousarray(X.T)
    all_features = np.arange(d)
    classes = np.arange(n_classes)
    feature, threshold, right, value = [], [], [], []
    depth_reached = 0
    # (row-order table, class counts, depth, the parent whose right child it is, or -1)
    root_counts = np.bincount(codes, minlength=n_classes).tolist()
    stack = [(np.argsort(columns, axis=1, kind="stable"), root_counts, 0, -1)]
    while stack:
        table, counts, depth, parent = stack.pop()
        node = len(right)
        if parent >= 0:
            right[parent] = node
        depth_reached = max(depth_reached, depth)
        m = table.shape[1]
        split = None
        if depth < max_depth and m >= 2 and max(counts) < m:
            if n_candidates < d:
                features = np.sort(rng.choice(d, size=n_candidates, replace=False))
            else:
                features = all_features
            split = _best_split(columns, codes, classes, table, features)
        if split is None:
            feature.append(0)
            threshold.append(np.nan)
            right.append(node)
            value.append(counts.index(max(counts)))  # ties go to the lowest class
            continue
        k, j, rows, xs, cum = split
        cut = 0.5 * (xs[j] + xs[j + 1])
        # the rows with x <= cut lead the value order; rounding may put xs[j + 1] among them
        n_left = int(np.count_nonzero(xs <= cut))
        go_left = np.zeros(n, dtype=bool)
        go_left[rows[:n_left]] = True
        in_left = go_left[table]
        left_counts = cum[n_left - 1].astype(int).tolist() if n_left else [0] * n_classes
        right_counts = [c - left for c, left in zip(counts, left_counts)]
        feature.append(int(features[k]))
        threshold.append(cut)
        right.append(-1)  # set when the right child is reached
        value.append(0)
        stack.append((table[~in_left].reshape(d, m - n_left), right_counts, depth + 1, node))
        stack.append((table[in_left].reshape(d, n_left), left_counts, depth + 1, -1))
    nodes = _Nodes(
        feature=_compact(feature, d - 1),
        threshold=np.asarray(threshold, dtype=float),
        right=_compact(right, len(right) - 1),
        value=_compact(value, n_classes - 1),
    )
    return nodes, depth_reached


def _tree_text(nodes: list[list], root: int, leaf_codes: list[int]) -> str:
    """``repr`` of the nested ``('split', feature, threshold, left, right)`` /
    ``('leaf', class)`` tuple of the tree at ``root``, built without recursion.

    ``nodes`` holds the ``_Nodes`` arrays as lists; ``leaf_codes`` maps a leaf
    value to the class code the tree's text shows.
    """
    feature, threshold, right, value = nodes
    parts = []
    in_right = []  # one flag per open split: its left subtree is done
    i = root
    while True:
        if right[i] == i:
            parts.append(f"('leaf', {leaf_codes[value[i]]})")
            while in_right and in_right[-1]:
                in_right.pop()
                parts.append(")")
            if not in_right:
                return "".join(parts)
            in_right[-1] = True
            parts.append(", ")
        else:
            parts.append(f"('split', {np.int64(feature[i])!r}, {threshold[i]!r}, ")
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
        self._nodes, self.depth_ = _grow(
            X, codes, len(self.classes_), self.max_depth, X.shape[1], None
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


class RandomForestClassifier:
    """Bootstrap-aggregated CART trees with sqrt-sized feature subsets.

    Bootstrap samples are full training-set size drawn with replacement;
    every tree gets its own RNG stream spawned deterministically from the
    forest seed, and prediction is a majority vote with ties resolved toward
    the lowest class index.
    """

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
        n, d = X.shape
        k = len(self.classes_)
        n_candidates = int(np.ceil(np.sqrt(d)))
        self._held = np.zeros((self.n_trees, k), dtype=bool)
        tables, depths = [], []
        for held, stream in zip(self._held, np.random.SeedSequence(self.seed).spawn(self.n_trees)):
            rng = np.random.default_rng(stream)
            sample = rng.integers(0, n, size=n)
            # a tree is grown on the codes of the classes its bootstrap holds,
            # as a stand-alone tree would be, then its leaves get forest codes
            held[codes[sample]] = True
            local = np.cumsum(held) - 1
            nodes, depth = _grow(
                X[sample], local[codes[sample]], int(local[-1]) + 1, self.max_depth, n_candidates, rng
            )
            tables.append(nodes._replace(value=np.flatnonzero(held)[nodes.value]))
            depths.append(depth)
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
        starts = range(0, max(len(X), 1), PREDICT_BLOCK_ROWS)
        return np.concatenate([self._vote(X[i : i + PREDICT_BLOCK_ROWS]) for i in starts])

    def _vote(self, X: np.ndarray) -> np.ndarray:
        n_rows, d = X.shape
        values = X.ravel()
        row_starts = np.arange(0, n_rows * d, d)
        nodes = self._nodes
        node = np.repeat(self._roots.astype(np.intp)[:, None], n_rows, axis=1)  # (trees, rows)
        for _ in range(self._depth):
            x = values.take(nodes.feature.take(node) + row_starts)
            node = np.where(x <= nodes.threshold.take(node), node + 1, nodes.right.take(node))
        k = len(self.classes_)
        codes = nodes.value.take(node) + k * np.arange(n_rows)
        votes = np.bincount(codes.ravel(), minlength=k * n_rows).reshape(n_rows, k)
        return self.classes_[np.argmax(votes, axis=1)]

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
