"""Paired significance tests and confidence intervals.

Student-t tail probabilities go through a continued-fraction regularized
incomplete beta evaluation, and t quantiles invert the CDF by bisection, so
the statistics need no dependency beyond numpy.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import exp, lgamma, log, log1p, sqrt
from typing import NamedTuple

import numpy as np

from ..errors import UsageError

_BETA_EPS = 1e-15
_BETA_MAX_ITER = 500


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz evaluation of the continued fraction for the incomplete beta."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        coeff = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + coeff * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + coeff / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        coeff = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + coeff * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + coeff / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) accurate to ~1e-10 over the t-statistic range."""
    if a <= 0 or b <= 0:
        raise UsageError("a and b must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log1p(-x)
    )
    front = exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: float) -> float:
    """P(T <= t) for Student's t with ``df`` degrees of freedom."""
    if df <= 0:
        raise UsageError("df must be positive")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return 1.0 - tail if t > 0 else tail


def student_t_two_sided_p(t: float, df: float) -> float:
    """Two-sided p-value for an observed t statistic."""
    if not np.isfinite(t):
        return 0.0
    x = df / (df + t * t)
    return min(1.0, regularized_incomplete_beta(df / 2.0, 0.5, x))


@lru_cache(maxsize=256)
def student_t_ppf(q: float, df: float) -> float:
    """Quantile of Student's t via bisection on the CDF, cached by (q, df)."""
    if not 0.0 < q < 1.0:
        raise UsageError("q must be in (0, 1)")
    if df <= 0:
        raise UsageError("df must be positive")
    if q == 0.5:
        return 0.0
    if q < 0.5:
        return -student_t_ppf(1.0 - q, df)
    lo, hi = 0.0, 1.0
    while student_t_cdf(hi, df) < q:
        hi *= 2.0
        if hi > 1e12:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_cdf(mid, df) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


class TTestResult(NamedTuple):
    t: float
    p: float
    cohens_d: float
    n: int


def paired_ttest(a, b) -> TTestResult:
    """Two-sided paired t-test with Cohen's d on the paired differences.

    Degenerate cases: identical vectors report (t=0, p=1, d=0); a constant
    nonzero difference has zero spread, reported as t = +/-inf with p = 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise UsageError("inputs must be equal-length vectors")
    n = len(a)
    if n < 2:
        raise UsageError("need at least 2 pairs")
    diff = a - b
    mean = float(diff.mean())
    sd = float(diff.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, p=1.0, cohens_d=0.0, n=n)
        sign = 1.0 if mean > 0 else -1.0
        return TTestResult(t=sign * np.inf, p=0.0, cohens_d=sign * np.inf, n=n)
    t = mean / (sd / sqrt(n))
    return TTestResult(
        t=t,
        p=student_t_two_sided_p(t, n - 1),
        cohens_d=mean / sd,
        n=n,
    )


def confidence_interval(scores, level: float = 0.95) -> tuple[float, float]:
    """Mean and half-width of the two-sided t confidence interval."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or len(scores) < 2:
        raise UsageError("need at least 2 scores")
    if not 0.0 < level < 1.0:
        raise UsageError("level must be in (0, 1)")
    n = len(scores)
    mean = float(scores.mean())
    sd = float(scores.std(ddof=1))
    critical = student_t_ppf(0.5 * (1.0 + level), n - 1)
    return mean, critical * sd / sqrt(n)


def significance_stars(p: float) -> str:
    """Conventional significance markers: * <0.05, ** <0.01, *** <0.001."""
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""
