"""Multinomial logistic regression trained by full-batch gradient descent."""
from __future__ import annotations

import math

import numpy as np

from ..errors import UsageError

# the reductions behind ndarray.sum and ndarray.max, without their Python wrappers
_sum = np.add.reduce
_max = np.maximum.reduce


class LogisticRegressionClassifier:
    """Softmax regression with L2 strength 1/C on the weights (bias excluded).

    Plain gradient descent with a backtracking (Armijo) line search: at the
    problem sizes this package targets, determinism and a provably
    non-increasing loss matter more than quasi-Newton speed.  Training stops
    when the gradient norm drops below ``tol`` or after ``max_iter``
    accepted steps; ``n_iter_`` counts the accepted steps, and the fitted
    model keeps no per-step history.  The bias lives as an extra all-ones
    design column internally, excluded from the penalty.
    """

    def __init__(self, C: float = 1.0, max_iter: int = 1000, tol: float = 1e-5):
        if C <= 0:
            raise UsageError("C must be > 0")
        self.C = float(C)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.classes_: np.ndarray | None = None
        self.weights_: np.ndarray | None = None
        self.bias_: np.ndarray | None = None
        self.n_iter_ = 0
        self.constant_class_ = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2 or len(X) != len(y):
            raise UsageError("X must be 2-D with one label per row")
        self.classes_, codes = np.unique(y, return_inverse=True)
        n, d = X.shape
        k = len(self.classes_)
        if k == 1:
            self.constant_class_ = self.classes_[0]
            self.weights_ = np.zeros((d, 1))
            self.bias_ = np.zeros(1)
            return self

        design = np.hstack([X, np.ones((n, 1))])
        # flat index of each row's own class in a C-ordered (n, k) array
        own = np.arange(n) * k + codes
        reg = 1.0 / (self.C * n)

        # The head is refit at every evaluation of a circuit's training
        # loss, so these two closures avoid numpy's Python-level wrappers
        # (np.mean, np.sum, 2-D fancy indexing, temporaries); each value is
        # computed by the same operations in the same order as the textbook
        # form, which tests/oracles.py keeps.
        def loss_and_probs(params):
            # the softmax probabilities fall out of the loss evaluation, so
            # the gradient of an accepted step needs only one extra matmul
            Z = design @ params
            shift = _max(Z, axis=1, keepdims=True)
            probs = Z - shift
            np.exp(probs, out=probs)
            norm = _sum(probs, axis=1, keepdims=True)
            log_norm = np.log(norm[:, 0]) + shift[:, 0]
            data_term = float(_sum(log_norm - Z.ravel()[own]) / n)
            w = params[:d]
            penalty = 0.5 * reg * float(_sum(w * w, axis=None))
            probs /= norm
            return data_term + penalty, probs

        def grad_from_probs(params, probs):
            # consumes probs: subtracting the one-hot labels in place
            probs.ravel()[own] -= 1.0
            probs /= n
            grad = design.T @ probs
            grad[:d] += reg * params[:d]
            return grad

        params = np.zeros((d + 1, k))
        loss, probs = loss_and_probs(params)
        grad = grad_from_probs(params, probs)
        step = 1.0
        for iteration in range(self.max_iter):
            grad_norm_sq = float(_sum(grad * grad, axis=None))
            if math.sqrt(grad_norm_sq) < self.tol:
                break
            accepted = False
            for _ in range(40):
                candidate = params - step * grad
                candidate_loss, candidate_probs = loss_and_probs(candidate)
                if candidate_loss <= loss - 1e-4 * step * grad_norm_sq:
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
            params, loss = candidate, candidate_loss
            grad = grad_from_probs(params, candidate_probs)
            step = min(step * 1.5, 64.0)
            self.n_iter_ = iteration + 1
        self.weights_ = params[:d]
        self.bias_ = params[d]
        return self

    def decision_scores(self, X) -> np.ndarray:
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        return X @ self.weights_ + self.bias_

    def predict(self, X):
        self._check_fitted()
        if self.constant_class_ is not None:
            return np.full(len(X), self.constant_class_, dtype=self.classes_.dtype)
        scores = self.decision_scores(X)
        return self.classes_[np.argmax(scores, axis=1)]

    def _check_fitted(self):
        if self.weights_ is None:
            raise UsageError("model is not fitted")

    def fitted_state(self) -> dict:
        self._check_fitted()
        return {
            "classes": self.classes_,
            "weights": self.weights_,
            "bias": self.bias_,
            "constant_class": self.constant_class_,
        }
