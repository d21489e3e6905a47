import mpmath as mp
import numpy as np
import pytest

from qcb.errors import UsageError
from qcb.evalharness.stats import (
    confidence_interval,
    paired_ttest,
    regularized_incomplete_beta,
    significance_stars,
    student_t_cdf,
    student_t_ppf,
)

mp.mp.dps = 30


def oracle_two_sided_p(t, df):
    x = df / (df + t * t)
    return float(mp.betainc(df / 2, 0.5, 0, x, regularized=True))


class TestIncompleteBeta:
    def test_against_mpmath_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = float(rng.uniform(0.4, 15))
            b = float(rng.uniform(0.4, 15))
            x = float(rng.uniform(0, 1))
            expected = float(mp.betainc(a, b, 0, x, regularized=True))
            assert abs(regularized_incomplete_beta(a, b, x) - expected) < 1e-10

    def test_boundaries(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_symmetry_identity(self):
        # I_x(a, b) = 1 - I_{1-x}(b, a)
        for a, b, x in [(2.0, 5.0, 0.3), (0.5, 0.5, 0.7), (7.0, 1.5, 0.9)]:
            lhs = regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert abs(lhs - rhs) < 1e-12


class TestStudentT:
    def test_cdf_at_zero(self):
        assert student_t_cdf(0.0, 5) == 0.5

    def test_cdf_symmetry(self):
        for t, df in [(1.3, 3), (2.7, 10), (0.4, 1)]:
            assert abs(student_t_cdf(t, df) + student_t_cdf(-t, df) - 1.0) < 1e-12

    def test_ppf_inverts_cdf(self):
        for q in (0.6, 0.9, 0.975, 0.995):
            for df in (1, 2, 4, 24):
                t = student_t_ppf(q, df)
                assert abs(student_t_cdf(t, df) - q) < 1e-9

    def test_tabulated_critical_values(self):
        # classic two-sided 95% critical values
        assert abs(student_t_ppf(0.975, 1) - 12.706204736174704) < 1e-3
        assert abs(student_t_ppf(0.975, 4) - 2.7764) < 1e-3
        assert abs(student_t_ppf(0.975, 24) - 2.0639) < 1e-3

    def test_cached_quantiles_equal_uncached_bit_for_bit(self):
        grid = [(q, df) for q in (0.025, 0.6, 0.975, 0.995) for df in (1, 4, 24)]
        cached = [student_t_ppf(q, df) for q, df in grid]
        hits = student_t_ppf.cache_info().hits
        again = [student_t_ppf(q, df) for q, df in grid]
        assert student_t_ppf.cache_info().hits == hits + len(grid)
        fresh = []
        for q, df in grid:
            student_t_ppf.cache_clear()  # the q < 0.5 branch calls the cached function
            fresh.append(student_t_ppf.__wrapped__(q, df))
        assert np.array(cached).tobytes() == np.array(fresh).tobytes()
        assert np.array(again).tobytes() == np.array(fresh).tobytes()


class TestPairedTTest:
    def test_identical_vectors_equality_branch(self):
        a = np.array([0.7, 0.8, 0.9, 0.6])
        result = paired_ttest(a, a.copy())
        assert result.t == 0.0
        assert result.p == 1.0
        assert result.cohens_d == 0.0

    def test_constant_nonzero_difference(self):
        a = np.array([2.0, 3.0, 4.0, 5.0])
        result = paired_ttest(a, a - 1.0)
        assert result.t == np.inf
        assert result.p == 0.0
        assert result.cohens_d == np.inf
        flipped = paired_ttest(a - 1.0, a)
        assert flipped.t == -np.inf

    def test_textbook_example_frozen_oracle_values(self):
        # diff = [0.5, 1.5, 1.0, 2.0, 1.0]
        b = np.zeros(5)
        a = np.array([0.5, 1.5, 1.0, 2.0, 1.0])
        result = paired_ttest(a, b)
        assert abs(result.t - 4.706787243316416) < 1e-12
        assert abs(result.p - 0.0092616967595144252) < 1e-6
        assert abs(result.cohens_d - 2.10493924633687) < 1e-12

    def test_p_matches_incomplete_beta_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            a = rng.normal(size=n)
            b = a + rng.normal(scale=0.5, size=n) + rng.uniform(-0.3, 0.3)
            result = paired_ttest(a, b)
            assert abs(result.p - oracle_two_sided_p(result.t, n - 1)) < 1e-6

    def test_errors(self):
        with pytest.raises(UsageError):
            paired_ttest([1.0], [2.0])
        with pytest.raises(UsageError):
            paired_ttest([1.0, 2.0], [1.0, 2.0, 3.0])


class TestConfidenceInterval:
    def test_equal_scores_zero_width(self):
        mean, half = confidence_interval(np.full(6, 0.8))
        assert abs(mean - 0.8) < 1e-15
        assert abs(half) < 1e-12

    def test_two_point_frozen_value(self):
        mean, half = confidence_interval(np.array([0.8, 0.9]), level=0.95)
        assert abs(mean - 0.85) < 1e-12
        assert abs(half - 0.63531023680873507) < 1e-3

    def test_monotone_in_level(self):
        scores = np.array([0.7, 0.75, 0.8, 0.85, 0.9])
        widths = [confidence_interval(scores, level)[1] for level in (0.8, 0.9, 0.95, 0.99)]
        assert all(w1 < w2 for w1, w2 in zip(widths, widths[1:]))

    def test_requires_two_scores(self):
        with pytest.raises(UsageError):
            confidence_interval([0.5])


class TestStars:
    def test_thresholds(self):
        assert significance_stars(0.0005) == "***"
        assert significance_stars(0.005) == "**"
        assert significance_stars(0.03) == "*"
        assert significance_stars(0.2) == ""
