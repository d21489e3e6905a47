"""Support vector classification via sequential minimal optimization.

One binary soft-margin SMO solver (Platt-style working-set selection, made
fully deterministic) wrapped in a one-vs-one multi-class voter.  Kernels:
RBF computed from features, or a caller-precomputed Gram matrix so the same
solver consumes quantum kernels unchanged.
"""
from __future__ import annotations

import numpy as np

from ..errors import UsageError

_EPS = 1e-12


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    sq = (
        np.sum(A**2, axis=1)[:, None]
        + np.sum(B**2, axis=1)[None, :]
        - 2.0 * A @ B.T
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


class _BinarySmo:
    """Soft-margin dual solver for labels in {-1, +1} on a Gram matrix."""

    def __init__(self, C: float, tol: float, max_passes: int = 2000):
        self.C = C
        self.tol = tol
        self.max_passes = max_passes

    def solve(self, K: np.ndarray, y: np.ndarray):
        n = len(y)
        alpha = np.zeros(n)
        self._b = 0.0
        # error cache: E_i = f(x_i) - y_i with f = sum_j alpha_j y_j K_ij + b
        self._E = -y.astype(float)
        self._K = K
        self._y = y
        self._alpha = alpha

        examine_all = True
        passes = 0
        while passes < self.max_passes:
            passes += 1
            changed = 0
            if examine_all:
                candidates = range(n)
            else:
                candidates = np.nonzero((alpha > _EPS) & (alpha < self.C - _EPS))[0]
            for i2 in candidates:
                changed += self._examine(int(i2))
            if examine_all:
                if changed == 0:
                    break
                examine_all = False
            elif changed == 0:
                examine_all = True
        return alpha, self._b

    def _examine(self, i2: int) -> int:
        alpha, y, E, C = self._alpha, self._y, self._E, self.C
        r2 = E[i2] * y[i2]
        if not ((r2 < -self.tol and alpha[i2] < C - _EPS) or (r2 > self.tol and alpha[i2] > _EPS)):
            return 0
        non_bound = np.nonzero((alpha > _EPS) & (alpha < C - _EPS))[0]
        if len(non_bound) > 1:
            gaps = np.abs(E[non_bound] - E[i2])
            i1 = int(non_bound[np.argmax(gaps)])
            if self._step(i1, i2):
                return 1
        for i1 in non_bound:
            if self._step(int(i1), i2):
                return 1
        for i1 in range(len(y)):
            if self._step(i1, i2):
                return 1
        return 0

    def _step(self, i1: int, i2: int) -> bool:
        if i1 == i2:
            return False
        alpha, y, E, K, C = self._alpha, self._y, self._E, self._K, self.C
        a1_old, a2_old = alpha[i1], alpha[i2]
        y1, y2 = y[i1], y[i2]
        s = y1 * y2
        if s > 0:
            low, high = max(0.0, a1_old + a2_old - C), min(C, a1_old + a2_old)
        else:
            low, high = max(0.0, a2_old - a1_old), min(C, C + a2_old - a1_old)
        if high - low < _EPS:
            return False
        k11, k12, k22 = K[i1, i1], K[i1, i2], K[i2, i2]
        eta = k11 + k22 - 2.0 * k12
        if eta > _EPS:
            a2 = a2_old + y2 * (E[i1] - E[i2]) / eta
            a2 = min(max(a2, low), high)
        else:
            # flat direction (duplicate points): evaluate the objective at both ends
            f1 = y1 * (E[i1] + self._b) - a1_old * k11 - s * a2_old * k12
            f2 = y2 * (E[i2] + self._b) - s * a1_old * k12 - a2_old * k22
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
        b1 = self._b - E[i1] - d1 * k11 - d2 * k12
        b2 = self._b - E[i2] - d1 * k12 - d2 * k22
        if _EPS < a1 < C - _EPS:
            b_new = b1
        elif _EPS < a2 < C - _EPS:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)
        self._E += d1 * K[:, i1] + d2 * K[:, i2] + (b_new - self._b)
        self._b = b_new
        alpha[i1], alpha[i2] = a1, a2
        return True


class SvmClassifier:
    """One-vs-one soft-margin SVM over an RBF or precomputed kernel.

    ``gamma="scale"`` follows the 1/(n_features * Var(X)) convention.  With
    ``kernel="precomputed"``, ``fit`` expects the training Gram matrix and
    ``predict`` expects the test-vs-train cross-kernel.
    """

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
        self._X_train: np.ndarray | None = None
        self._n_train = 0
        self._pairs: list[dict] = []
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
            self._X_train = X
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
        return self

    def _cross_kernel(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if self.kernel == "precomputed":
            if X.ndim != 2 or X.shape[1] != self._n_train:
                raise UsageError(
                    f"cross-kernel must have {self._n_train} columns, got {X.shape}"
                )
            return X
        return rbf_kernel(X, self._X_train, self.gamma_)

    def decision_votes(self, X) -> np.ndarray:
        self._check_fitted()
        kernel = self._cross_kernel(X)
        votes = np.zeros((kernel.shape[0], len(self.classes_)), dtype=int)
        for pair in self._pairs:
            scores = kernel[:, pair["indices"]] @ pair["coef"] + pair["bias"]
            a, b = pair["classes"]
            winner = np.where(scores >= 0.0, a, b)
            votes[np.arange(len(winner)), winner] += 1
        return votes

    def predict(self, X):
        self._check_fitted()
        if self.constant_class_ is not None:
            return np.full(len(X), self.constant_class_, dtype=self.classes_.dtype)
        votes = self.decision_votes(X)
        return self.classes_[np.argmax(votes, axis=1)]

    def _check_fitted(self):
        if self.classes_ is None:
            raise UsageError("model is not fitted")

    def max_kkt_violation(self, gram: np.ndarray, y) -> float:
        """Largest KKT violation of the stored dual solution (for auditing)."""
        self._check_fitted()
        y = np.asarray(y)
        _, codes = np.unique(y, return_inverse=True)
        worst = 0.0
        for pair in self._pairs:
            a, b = pair["classes"]
            subset = np.nonzero((codes == a) | (codes == b))[0]
            y_pair = np.where(codes[subset] == a, 1.0, -1.0)
            alpha = np.zeros(len(subset))
            positions = {int(g): p for p, g in enumerate(subset)}
            for g, c in zip(pair["indices"], pair["coef"]):
                alpha[positions[int(g)]] = abs(c)
            f = gram[np.ix_(subset, subset)] @ (
                alpha * y_pair
            ) + pair["bias"]
            margin = y_pair * f
            at_zero = alpha <= _EPS
            at_c = alpha >= self.C - _EPS
            free = ~(at_zero | at_c)
            worst = max(
                worst,
                float(np.max(np.maximum(0.0, 1.0 - margin[at_zero]), initial=0.0)),
                float(np.max(np.maximum(0.0, margin[at_c] - 1.0), initial=0.0)),
                float(np.max(np.abs(margin[free] - 1.0), initial=0.0)),
            )
        return worst

    def fitted_state(self) -> dict:
        self._check_fitted()
        return {
            "classes": self.classes_,
            "constant_class": self.constant_class_,
            "gamma": self.gamma_,
            "pairs": [
                {
                    "classes": pair["classes"],
                    "indices": pair["indices"],
                    "coef": pair["coef"],
                    "bias": pair["bias"],
                }
                for pair in self._pairs
            ],
        }
