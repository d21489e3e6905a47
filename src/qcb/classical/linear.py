"""Multinomial logistic regression trained by a damped Newton method."""
from __future__ import annotations

import math

import numpy as np

from ..errors import UsageError
from ..modelbytes import Packed

# the reductions behind ndarray.sum and ndarray.max, without their Python wrappers
_sum = np.add.reduce
_max = np.maximum.reduce


class LogisticRegressionClassifier(Packed):
    """Softmax regression with L2 strength 1/C on the weights (bias excluded).

    Training is Newton's method on the convex penalised log-loss (IRLS,
    Hastie, Tibshirani & Friedman, ESL section 4.4), damped by a backtracking
    (Armijo) line search from the full step, so the loss never rises.  The
    unknowns are ``(d+1)*k`` numbers, one dense solve per iteration: at the
    problem sizes this package targets a handful of iterations reaches the
    gradient tolerance, where fixed-step gradient descent needs thousands.
    Training stops when the gradient norm drops below ``tol`` or after
    ``max_iter`` accepted steps; ``n_iter_`` counts the accepted steps, and
    the fitted model keeps no per-step history.  The bias lives as an extra
    all-ones design column internally, excluded from the penalty.  ``fit``
    starts from zero unless given a ``start`` of shape ``(d+1, k)``: the
    weights, then the bias row.  The loss is convex, so a start near the
    minimum only saves iterations.
    """

    _packed_fields = ("C", "max_iter", "tol", "classes_", "weights_", "bias_", "n_iter_", "constant_class_")

    def __init__(self, C: float = 1.0, max_iter: int = 100, tol: float = 1e-5):
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

    def fit(self, X, y, start=None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2 or len(X) != len(y):
            raise UsageError("X must be 2-D with one label per row")
        self.n_iter_ = 0
        self.constant_class_ = None
        self.classes_, codes = np.unique(y, return_inverse=True)
        n, d = X.shape
        k = len(self.classes_)
        if start is not None:
            start = np.array(start, dtype=float)
            if start.shape != (d + 1, k):
                raise UsageError(f"start must have shape {(d + 1, k)}, got {start.shape}")
        if k == 1:
            self.constant_class_ = self.classes_[0]
            self.weights_ = np.zeros((d, 1))
            self.bias_ = np.zeros(1)
            return self

        design = np.hstack([X, np.ones((n, 1))])
        # flat index of each row's own class in a C-ordered (n, k) array
        own = np.arange(n) * k + codes
        reg = 1.0 / (self.C * n)
        size = (d + 1) * k
        # the flattened (d+1, k) unknowns are C-ordered: the weights come
        # first, the k biases are the last k entries
        weight_diag = (np.arange(d * k), np.arange(d * k))
        # The loss is flat along an equal shift of all k biases, so the
        # Hessian is singular in that one direction.  The gradient is
        # orthogonal to it (its bias rows sum to zero over the classes), so
        # adding the all-ones outer product on the bias block makes the
        # system solvable and leaves the minimum-norm Newton step unchanged.
        bias_block = slice(d * k, size)
        diag = np.arange(k)

        def loss_and_probs(params):
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
            residual = probs.copy()
            residual.ravel()[own] -= 1.0
            residual /= n
            grad = design.T @ residual
            grad[:d] += reg * params[:d]
            return grad

        def hessian(probs):
            # (blockdiag_a(D' diag(P_a) D) - M'M) / n with M = rows of D (x) P
            M = (design[:, :, None] * probs[:, None, :]).reshape(n, size)
            H = -(M.T @ M)
            blocks = (M.T @ design).reshape(d + 1, k, d + 1)
            H.reshape(d + 1, k, d + 1, k)[:, diag, :, diag] += blocks.transpose(1, 0, 2)
            H /= n
            H[weight_diag] += reg
            H[bias_block, bias_block] += 1.0
            return H

        params = np.zeros((d + 1, k)) if start is None else start
        loss, probs = loss_and_probs(params)
        for iteration in range(self.max_iter):
            grad = grad_from_probs(params, probs)
            if math.sqrt(float(_sum(grad * grad, axis=None))) < self.tol:
                break
            newton = np.linalg.solve(hessian(probs), grad.ravel()).reshape(d + 1, k)
            slope = float(_sum(grad * newton, axis=None))
            step = 1.0
            accepted = False
            for _ in range(40):
                candidate = params - step * newton
                candidate_loss, candidate_probs = loss_and_probs(candidate)
                if candidate_loss <= loss - 1e-4 * step * slope:
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
            params, loss, probs = candidate, candidate_loss, candidate_probs
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
