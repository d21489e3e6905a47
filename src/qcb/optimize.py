"""Derivative-free optimization of circuit parameters.

The engine is one Nelder-Mead simplex search capped by a count of loss
evaluations: the objectives here are unconstrained, so the simplex method
covers what a linear-approximation trust-region solver would while staying
dependency-free.  The vertices are one ``(dim + 1, dim)`` array, their losses
one array.  Accuracy-style losses are piecewise constant, so one stable
``np.lexsort`` orders the vertices by loss, then by their coordinates in
order, to keep runs deterministic, and evaluations are cached by exact
parameter bytes so simplex re-visits do not count against the cap.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, UsageError

# standard simplex coefficients: reflection, expansion, contraction, shrink
_ALPHA = 1.0
_CHI = 2.0
_PSI = 0.5
_SIGMA = 0.5

# offset of each initial vertex from x0 along one axis
_INITIAL_STEP = 0.5
# the search stops once both the loss spread and the vertex spread are this small
_TOLERANCE = 1e-4


@dataclass
class OptResult:
    """Best point ever evaluated, its loss, and the count of loss evaluations.

    No per-evaluation history is kept: a trained model stores this result.
    """

    best_params: np.ndarray
    best_loss: float
    n_evals: int

    @property
    def ok(self) -> bool:
        return bool(np.isfinite(self.best_loss))


def random_init(dim: int, seed: int) -> np.ndarray:
    """Draw ``dim`` starting angles uniformly from [0, 2*pi)."""
    if dim < 1:
        raise UsageError("dim must be >= 1")
    return np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=dim)


class _BudgetExhausted(Exception):
    pass


class _Evaluator:
    """Counts, caches, and sanitizes loss evaluations."""

    def __init__(self, loss: Callable[[np.ndarray], float], max_evals: int):
        self._loss = loss
        self._max = max_evals
        self._cache: dict[bytes, float] = {}
        self.n_evals = 0
        self.best_loss = np.inf
        self.best_params: np.ndarray | None = None

    def __call__(self, x: np.ndarray) -> float:
        key = x.tobytes()
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if self.n_evals >= self._max:
            raise _BudgetExhausted
        raw = self._loss(x)
        self.n_evals += 1
        value = float(raw) if np.isfinite(raw) else np.inf
        self._cache[key] = value
        # on ties the first point evaluated wins, so a flat landscape keeps x0
        if value < self.best_loss or self.best_params is None:
            self.best_loss = value
            self.best_params = x.copy()
        return value


def minimize(
    loss: Callable[[np.ndarray], float],
    x0: Sequence[float],
    max_evals: int,
) -> OptResult:
    """Minimize a black-box loss with one Nelder-Mead simplex started at ``x0``.

    ``max_evals`` caps the number of loss evaluations, the ones that build
    the initial simplex included.  Non-finite loss values are treated as
    +inf and the search continues; if every evaluation is non-finite the
    returned result has ``ok`` False.  The result always carries the best
    point ever evaluated, not the final simplex centroid.
    """
    if max_evals < 1:
        raise ConfigurationError("max_evals must be >= 1")
    start = np.asarray(x0, dtype=float).ravel()
    if start.size < 1:
        raise UsageError("x0 must have at least one element")
    dim = start.size
    evaluate = _Evaluator(loss, max_evals)

    # x0, then x0 stepped along one axis each; a -0.0 off that axis keeps its sign
    points = np.tile(start, (dim + 1, 1))
    points[np.arange(1, dim + 1), np.arange(dim)] += _INITIAL_STEP
    try:
        values = np.array([evaluate(point) for point in points])

        while True:
            # by loss, then by coordinate 0, 1, ...: lexsort's last key sorts first
            order = np.lexsort((*points.T[::-1], values))
            points, values = points[order], values[order]

            flat = np.isfinite(values[-1]) and values[-1] - values[0] <= _TOLERANCE
            tight = np.max(np.abs(points[1:] - points[0])) <= _TOLERANCE
            if flat and tight:
                break

            centroid = np.mean(points[:-1], axis=0)
            worst = points[-1]
            reflected = centroid + _ALPHA * (centroid - worst)
            f_reflected = evaluate(reflected)

            if f_reflected < values[0]:
                expanded = centroid + _CHI * (centroid - worst)
                f_expanded = evaluate(expanded)
                if f_expanded < f_reflected:
                    points[-1], values[-1] = expanded, f_expanded
                else:
                    points[-1], values[-1] = reflected, f_reflected
            elif f_reflected < values[-2]:
                points[-1], values[-1] = reflected, f_reflected
            else:
                # contract outside if the reflection beats the worst vertex, else inside;
                # keep the contraction if it beats the worst and ties or beats the reflection
                step = _PSI * (centroid - worst)
                contracted = centroid + step if f_reflected < values[-1] else centroid - step
                f_contracted = evaluate(contracted)
                if f_contracted < values[-1] and f_contracted <= f_reflected:
                    points[-1], values[-1] = contracted, f_contracted
                else:
                    # shrink toward the current best vertex, evaluating in vertex order
                    for k in range(1, dim + 1):
                        points[k] = points[0] + _SIGMA * (points[k] - points[0])
                        values[k] = evaluate(points[k])
    except _BudgetExhausted:
        pass

    # the first evaluation always runs, so best_params is set
    return OptResult(
        best_params=evaluate.best_params,
        best_loss=evaluate.best_loss,
        n_evals=evaluate.n_evals,
    )
