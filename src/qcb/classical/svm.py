"""Support vector classification via sequential minimal optimization.

One binary soft-margin SMO solver (Platt-style working-set selection, made
fully deterministic) wrapped in a one-vs-one multi-class voter.  Kernels:
RBF computed from features, or a caller-precomputed Gram matrix so the same
solver consumes quantum kernels unchanged.

The solver keeps its scalars as Python floats: alpha, the labels and the Gram
diagonal are lists, and the error cache E is one array read with ``E.item``.
Every scalar operation is the one a numpy float64 would do (IEEE-754 double
arithmetic, ``max``/``min`` on the same operands, ``**2`` through libm
``pow``), in the same order, and the E update is the same elementwise
``(d1 * K[:, i1] + d2 * K[:, i2]) + (b_new - b)``, read from a transposed copy
of the Gram so that each column is a contiguous row.  So alpha and the bias
carry the same bits as a solver on numpy scalars.  The non-bound index set
is rebuilt only when an alpha enters or leaves the open interval (0, C).

A fitted classifier folds its one-vs-one pairs into decision arrays: the
sorted union of the pairs' support rows, a dense (support, pairs) matrix of
dual coefficients, the bias vector and two (pairs, classes) one-hot tables
that turn each pair's sign into a vote.  Scoring a batch is one kernel
against the support rows (RBF) or one column gather (precomputed), one
matmul and two small vote matmuls.  The pairs themselves (training-row
indices, coefficients, bias) are the fitted state, with only the support
rows of the training matrix for the RBF kernel.  A pickle is the packed
bytes of that state (``qcb.modelbytes``), and loading rebuilds the decision
arrays from the pairs.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import UsageError
from ..modelbytes import Packed

_EPS = 1e-12


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    # np.add.reduce is what np.sum calls, without its wrapper
    sq = (
        np.add.reduce(A**2, axis=1)[:, None]
        + np.add.reduce(B**2, axis=1)[None, :]
        - 2.0 * A @ B.T
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


class _BinarySmo:
    """Soft-margin dual solver for labels in {-1, +1} on a Gram matrix."""

    def __init__(self, C: float, tol: float, max_passes: int = 2000):
        self.C = C
        self.tol = tol
        self.max_passes = max_passes

    def solve(self, K: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
        n = len(y)
        C, tol = self.C, self.tol
        upper = C - _EPS
        labels = y.tolist()
        alpha = [0.0] * n
        diag = K.diagonal().tolist()
        K_at = K.item
        columns = np.ascontiguousarray(K.T)  # columns[i] is K[:, i]
        # error cache: E_i = f(x_i) - y_i with f = sum_j alpha_j y_j K_ij + b
        E = -y.astype(float)
        E_at = E.item
        update = np.empty(n)
        scratch = np.empty(n)
        free = [False] * n  # alpha strictly inside (0, C), read per step
        free_mask = np.zeros(n, dtype=bool)  # the same flags, for the index set
        non_bound = free_mask.nonzero()[0]
        b = 0.0

        def step(i1: int, i2: int) -> bool:
            nonlocal b, non_bound
            if i1 == i2:
                return False
            a1_old, a2_old = alpha[i1], alpha[i2]
            y1, y2 = labels[i1], labels[i2]
            s = y1 * y2
            # max(0.0, x) and min(C, x) written out: the same operand wins
            if s > 0:
                low, high = a1_old + a2_old - C, a1_old + a2_old
            else:
                low, high = a2_old - a1_old, C + a2_old - a1_old
            low = low if low > 0.0 else 0.0
            high = high if high < C else C
            if high - low < _EPS:
                return False
            k11, k12, k22 = diag[i1], K_at(i1, i2), diag[i2]
            e1, e2 = E_at(i1), E_at(i2)
            eta = k11 + k22 - 2.0 * k12
            if eta > _EPS:
                a2 = a2_old + y2 * (e1 - e2) / eta
                a2 = low if low > a2 else a2
                a2 = high if high < a2 else a2
            else:
                # flat direction (duplicate points): evaluate the objective at both ends
                f1 = y1 * (e1 + b) - a1_old * k11 - s * a2_old * k12
                f2 = y2 * (e2 + b) - s * a1_old * k12 - a2_old * k22
                l1 = a1_old + s * (a2_old - low)
                h1 = a1_old + s * (a2_old - high)
                obj_low = (
                    l1 * f1 + low * f2 + 0.5 * l1**2 * k11 + 0.5 * low**2 * k22
                    + s * low * l1 * k12
                )
                obj_high = (
                    h1 * f1 + high * f2 + 0.5 * h1**2 * k11 + 0.5 * high**2 * k22
                    + s * high * h1 * k12
                )
                if obj_low < obj_high - _EPS:
                    a2 = low
                elif obj_high < obj_low - _EPS:
                    a2 = high
                else:
                    return False
            if abs(a2 - a2_old) < _EPS * (a2 + a2_old + _EPS):
                return False
            a1 = a1_old + s * (a2_old - a2)

            d1 = y1 * (a1 - a1_old)
            d2 = y2 * (a2 - a2_old)
            b1 = b - e1 - d1 * k11 - d2 * k12
            b2 = b - e2 - d1 * k12 - d2 * k22
            free1 = _EPS < a1 < upper
            free2 = _EPS < a2 < upper
            if free1:
                b_new = b1
            elif free2:
                b_new = b2
            else:
                b_new = 0.5 * (b1 + b2)
            np.multiply(columns[i1], d1, out=update)
            np.multiply(columns[i2], d2, out=scratch)
            np.add(update, scratch, out=update)
            np.add(update, b_new - b, out=update)
            np.add(E, update, out=E)
            b = b_new
            alpha[i1], alpha[i2] = a1, a2
            if free1 != free[i1] or free2 != free[i2]:
                free[i1] = free_mask[i1] = free1
                free[i2] = free_mask[i2] = free2
                non_bound = free_mask.nonzero()[0]
            return True

        def examine(i2: int) -> int:
            candidates = non_bound  # unchanged until a step succeeds
            if len(candidates) > 1:
                gaps = np.abs(E[candidates] - E_at(i2))
                if step(int(candidates[gaps.argmax()]), i2):
                    return 1
            for i1 in candidates.tolist():
                if step(i1, i2):
                    return 1
            for i1 in range(n):
                if step(i1, i2):
                    return 1
            return 0

        examine_all = True
        passes = 0
        while passes < self.max_passes:
            passes += 1
            changed = 0
            for i2 in range(n) if examine_all else non_bound.tolist():
                r2 = E_at(i2) * labels[i2]
                a2 = alpha[i2]
                if (r2 < -tol and a2 < upper) or (r2 > tol and a2 > _EPS):
                    changed += examine(i2)
            if examine_all:
                if changed == 0:
                    break
                examine_all = False
            elif changed == 0:
                examine_all = True
        return np.array(alpha), b


class _Decision(NamedTuple):
    """A fitted one-vs-one voter as dense arrays (rebuilt from the pairs)."""

    support: np.ndarray  # sorted training-row indices of every pair's support
    coef: np.ndarray  # (support, pairs) dual coefficients alpha * y
    bias: np.ndarray  # (pairs,)
    first: np.ndarray  # (pairs, classes) one-hot of the class a pair votes for on score >= 0
    second: np.ndarray  # (pairs, classes) one-hot of the other class


def _decision_arrays(pairs: list[dict], n_classes: int) -> _Decision:
    support = np.unique(np.concatenate([pair["indices"] for pair in pairs]))
    coef = np.zeros((len(support), len(pairs)))
    first = np.zeros((len(pairs), n_classes), dtype=int)
    second = np.zeros_like(first)
    for j, pair in enumerate(pairs):
        coef[np.searchsorted(support, pair["indices"]), j] = pair["coef"]
        a, b = pair["classes"]
        first[j, a] = second[j, b] = 1
    bias = np.array([pair["bias"] for pair in pairs], dtype=float)
    return _Decision(support, coef, bias, first, second)


class SvmClassifier(Packed):
    """One-vs-one soft-margin SVM over an RBF or precomputed kernel.

    ``gamma="scale"`` follows the 1/(n_features * Var(X)) convention.  With
    ``kernel="precomputed"``, ``fit`` expects the training Gram matrix and
    ``predict`` expects the test-vs-train cross-kernel.
    """

    _packed_fields = (
        "C", "kernel", "gamma", "tol", "classes_", "gamma_", "_X_train", "_n_train", "_pairs",
        "constant_class_",
    )
    _derived_fields = ("_decision",)  # a fixed function of _pairs

    def __init__(self, C: float = 1.0, kernel: str = "rbf", gamma="scale", tol: float = 1e-3):
        if kernel not in ("rbf", "precomputed"):
            raise UsageError(f"unsupported kernel {kernel!r}")
        if C <= 0:
            raise UsageError("C must be > 0")
        self.C = float(C)
        self.kernel = kernel
        self.gamma = gamma
        self.tol = float(tol)
        self.classes_: np.ndarray | None = None
        self.gamma_: float | None = None
        self._X_train: np.ndarray | None = None  # RBF: the support rows only
        self._n_train = 0
        self._pairs: list[dict] = []
        self._decision: _Decision | None = None
        self.constant_class_ = None

    def _resolve_gamma(self, X: np.ndarray) -> float:
        if self.gamma == "scale":
            var = float(X.var())
            return 1.0 / (X.shape[1] * var) if var > 0 else 1.0
        return float(self.gamma)

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2 or len(X) != len(y):
            raise UsageError("X must be 2-D with one label per row")
        self.constant_class_ = None
        self.gamma_ = None
        self._X_train = None
        self._pairs = []
        self._decision = None
        self.classes_ = np.unique(y)
        self._n_train = len(y)
        if len(self.classes_) == 1:
            self.constant_class_ = self.classes_[0]
            return self
        if self.kernel == "precomputed":
            if X.shape[0] != X.shape[1]:
                raise UsageError("precomputed kernel must be square on fit")
            gram = X
        else:
            self.gamma_ = self._resolve_gamma(X)
            gram = rbf_kernel(X, X, self.gamma_)

        _, codes = np.unique(y, return_inverse=True)
        k = len(self.classes_)
        for a in range(k):
            for b in range(a + 1, k):
                subset = np.nonzero((codes == a) | (codes == b))[0]
                y_pair = np.where(codes[subset] == a, 1.0, -1.0)
                solver = _BinarySmo(self.C, self.tol)
                alpha, bias = solver.solve(gram[np.ix_(subset, subset)], y_pair)
                support = np.nonzero(alpha > _EPS)[0]
                self._pairs.append(
                    {
                        "classes": (a, b),
                        "indices": subset[support],
                        "coef": alpha[support] * y_pair[support],
                        "bias": bias,
                    }
                )
        self._decision = _decision_arrays(self._pairs, k)
        if self.kernel == "rbf":
            self._X_train = X[self._decision.support]
        return self

    def _restore(self) -> None:
        self._decision = (
            _decision_arrays(self._pairs, len(self.classes_)) if self._pairs else None
        )

    def decision_votes(self, X) -> np.ndarray:
        """One-vs-one votes per row and class; a pair's tie goes to its first class."""
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        precomputed = self.kernel == "precomputed"
        if precomputed and (X.ndim != 2 or X.shape[1] != self._n_train):
            raise UsageError(f"cross-kernel must have {self._n_train} columns, got {X.shape}")
        decision = self._decision
        if decision is None:
            return np.zeros((len(X), len(self.classes_)), dtype=int)
        if precomputed:
            kernel = X[:, decision.support]
        else:
            kernel = rbf_kernel(X, self._X_train, self.gamma_)
        won = kernel @ decision.coef + decision.bias >= 0.0
        return won @ decision.first + ~won @ decision.second

    def predict(self, X):
        self._check_fitted()
        if self.constant_class_ is not None:
            return np.full(len(X), self.constant_class_, dtype=self.classes_.dtype)
        votes = self.decision_votes(X)
        return self.classes_[np.argmax(votes, axis=1)]

    def _check_fitted(self):
        if self.classes_ is None:
            raise UsageError("model is not fitted")
