"""CART decision trees (Gini impurity) and bagged random forests."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import UsageError


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    leaf_class: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini_columns(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    # counts: (cuts, classes); sizes: (cuts,)
    with np.errstate(invalid="ignore"):
        frac = counts / sizes[:, None]
    return 1.0 - np.sum(frac**2, axis=1)


def _best_split(X, codes, row_idx, features, n_classes):
    """Scan midpoint thresholds of each candidate feature; minimize weighted Gini."""
    m = len(row_idx)
    best = None  # (weighted_gini, feature, threshold)
    y_node = codes[row_idx]
    for feature in features:
        x = X[row_idx, feature]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        if xs[0] == xs[-1]:
            continue
        ys = y_node[order]
        onehot = np.zeros((m, n_classes))
        onehot[np.arange(m), ys] = 1.0
        cum = np.cumsum(onehot, axis=0)
        cuts = np.nonzero(xs[1:] != xs[:-1])[0]  # split after position cut
        left_counts = cum[cuts]
        left_sizes = (cuts + 1).astype(float)
        right_counts = cum[-1] - left_counts
        right_sizes = m - left_sizes
        weighted = (
            left_sizes * _gini_columns(left_counts, left_sizes)
            + right_sizes * _gini_columns(right_counts, right_sizes)
        ) / m
        j = int(np.argmin(weighted))
        candidate = float(weighted[j])
        if best is None or candidate < best[0] - 1e-15:
            threshold = 0.5 * (xs[cuts[j]] + xs[cuts[j] + 1])
            best = (candidate, feature, threshold)
    return best


class DecisionTreeClassifier:
    """CART with Gini impurity, midpoint thresholds, and no pruning.

    ``max_features`` enables per-split random feature subsets (used by the
    forest); the plain tree considers every feature at every split.
    """

    def __init__(self, max_depth: int = 15, max_features: int | None = None, rng=None):
        if max_depth < 1:
            raise UsageError("max_depth must be >= 1")
        self.max_depth = int(max_depth)
        self.max_features = max_features
        self._rng = rng
        self.classes_: np.ndarray | None = None
        self.root_: _Node | None = None
        self.depth_ = 0

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2 or len(X) != len(y):
            raise UsageError("X must be 2-D with one label per row")
        self.classes_, codes = np.unique(y, return_inverse=True)
        self.depth_ = 0
        self.root_ = self._grow(X, codes, np.arange(len(y)), depth=0)
        return self

    def _majority(self, codes, row_idx) -> int:
        counts = np.bincount(codes[row_idx], minlength=len(self.classes_))
        return int(np.argmax(counts))  # ties go to the lowest class index

    def _grow(self, X, codes, row_idx, depth) -> _Node:
        self.depth_ = max(self.depth_, depth)
        y_node = codes[row_idx]
        if depth >= self.max_depth or len(row_idx) < 2 or np.all(y_node == y_node[0]):
            return _Node(leaf_class=self._majority(codes, row_idx))
        d = X.shape[1]
        if self.max_features is not None and self.max_features < d:
            features = np.sort(self._rng.choice(d, size=self.max_features, replace=False))
        else:
            features = np.arange(d)
        best = _best_split(X, codes, row_idx, features, len(self.classes_))
        if best is None:
            return _Node(leaf_class=self._majority(codes, row_idx))
        _, feature, threshold = best
        mask = X[row_idx, feature] <= threshold
        left = self._grow(X, codes, row_idx[mask], depth + 1)
        right = self._grow(X, codes, row_idx[~mask], depth + 1)
        return _Node(feature=feature, threshold=threshold, left=left, right=right)

    def predict(self, X):
        if self.root_ is None:
            raise UsageError("model is not fitted")
        X = np.asarray(X, dtype=float)
        out = np.empty(len(X), dtype=int)
        for i, row in enumerate(X):
            node = self.root_
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.leaf_class
        return self.classes_[out]

    def _serialize(self, node: _Node) -> tuple:
        if node.is_leaf:
            return ("leaf", node.leaf_class)
        return (
            "split",
            node.feature,
            float(node.threshold),
            self._serialize(node.left),
            self._serialize(node.right),
        )

    def fitted_state(self) -> dict:
        if self.root_ is None:
            raise UsageError("model is not fitted")
        return {"classes": self.classes_, "tree": repr(self._serialize(self.root_))}


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
        self.trees_: list[DecisionTreeClassifier] = []

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2 or len(X) != len(y):
            raise UsageError("X must be 2-D with one label per row")
        self.classes_ = np.unique(y)
        n, d = X.shape
        max_features = int(np.ceil(np.sqrt(d)))
        self.trees_ = []
        streams = np.random.SeedSequence(self.seed).spawn(self.n_trees)
        for stream in streams:
            rng = np.random.default_rng(stream)
            sample = rng.integers(0, n, size=n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth, max_features=max_features, rng=rng
            )
            tree.fit(X[sample], y[sample])
            self.trees_.append(tree)
        return self

    def predict(self, X):
        if not self.trees_:
            raise UsageError("model is not fitted")
        X = np.asarray(X, dtype=float)
        votes = np.zeros((len(X), len(self.classes_)), dtype=int)
        class_index = {c: i for i, c in enumerate(self.classes_)}
        for tree in self.trees_:
            pred = tree.predict(X)
            for i, label in enumerate(pred):
                votes[i, class_index[label]] += 1
        return self.classes_[np.argmax(votes, axis=1)]

    def fitted_state(self) -> dict:
        if not self.trees_:
            raise UsageError("model is not fitted")
        return {
            "classes": self.classes_,
            "seed": self.seed,
            "trees": [t.fitted_state()["tree"] for t in self.trees_],
        }
