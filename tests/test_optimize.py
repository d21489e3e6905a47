import numpy as np
import pytest

from qcb.errors import ConfigurationError, UsageError
from qcb.optimize import OptResult, minimize, random_init


class TestRandomInit:
    def test_reproducible(self):
        assert np.array_equal(random_init(8, 42), random_init(8, 42))

    def test_range(self):
        values = random_init(8, 3)
        assert np.all(values >= 0.0)
        assert np.all(values < 2 * np.pi)

    def test_mean_close_to_pi(self):
        values = np.concatenate([random_init(1000, s) for s in range(10)])
        assert abs(values.mean() - np.pi) < 0.05

    def test_bad_dim(self):
        with pytest.raises(UsageError):
            random_init(0, 1)


class TestMinimize:
    def test_quadratic_reaches_minimum(self):
        result = minimize(lambda v: float(np.sum((v - 1.0) ** 2)), [0.0, 0.0], 150)
        assert result.ok
        assert result.best_loss < 1e-3
        assert np.all(np.abs(result.best_params - 1.0) < 0.05)

    def test_constant_loss_terminates_early_at_x0(self):
        calls = []

        def loss(v):
            calls.append(v.copy())
            return 5.0

        result = minimize(loss, [0.0, 0.0], 150)
        assert result.best_loss == 5.0
        assert np.array_equal(result.best_params, [0.0, 0.0])
        assert result.n_evals < 150

    def test_cosine_valley(self):
        result = minimize(lambda v: -np.cos(v[0]), [2.5], 150)
        assert result.best_loss < -1 + 1e-2
        folded = np.mod(result.best_params[0] + np.pi, 2 * np.pi) - np.pi
        assert abs(folded) < 0.2

    def test_budget_of_one_returns_x0(self):
        result = minimize(lambda v: float(np.sum(v**2)), [3.0, 4.0], 1)
        assert result.n_evals == 1
        assert np.array_equal(result.best_params, [3.0, 4.0])
        assert result.best_loss == 25.0

    def test_budget_never_exceeded(self):
        for cap in (1, 5, 20, 60):
            count = 0

            def loss(v):
                nonlocal count
                count += 1
                return float(np.sin(v).sum())

            result = minimize(loss, np.zeros(4), cap)
            assert count == result.n_evals
            assert result.n_evals <= cap + 5  # cap + dim + 1 allowance

    def test_non_finite_treated_as_infinite(self):
        def loss(v):
            if v[0] > 0.4:
                return np.nan
            return float((v[0] + 1.0) ** 2)

        result = minimize(loss, [0.0], 80)
        assert result.ok
        assert result.best_params[0] <= 0.4
        assert result.best_loss < 1e-2

    def test_all_non_finite_flagged(self):
        result = minimize(lambda v: np.inf, [0.0, 0.0], 10)
        assert not result.ok
        assert result.best_loss == np.inf

    def test_monotone_running_minimum(self):
        rng = np.random.default_rng(17)
        recorded = []

        def loss(v):
            value = float(np.sum(v**2) + np.sin(5 * v).sum())
            recorded.append((v.copy(), value))
            return value

        result = minimize(loss, rng.uniform(-2, 2, size=3), 120)
        values = [value for _, value in recorded]
        # the search converges before its cap; every evaluation is counted once
        assert len(recorded) == result.n_evals <= 120
        assert result.best_loss == min(values)
        assert np.array_equal(result.best_params, recorded[values.index(min(values))][0])

    def test_deterministic(self):
        def run():
            recorded = []

            def loss(v):
                value = float(np.sum((v - 0.3) ** 2) * (1 + 0.1 * np.cos(v[0])))
                recorded.append((v.tobytes(), value))
                return value

            return minimize(loss, [1.0, -1.0], 90), recorded

        (a, recorded_a), (b, recorded_b) = run(), run()
        assert np.array_equal(a.best_params, b.best_params)
        assert a.best_loss == b.best_loss
        assert recorded_a == recorded_b
        assert len(recorded_a) == a.n_evals <= 90

    def test_cached_reevaluations_do_not_consume_budget(self):
        evaluated = []

        def loss(v):
            evaluated.append(v.tobytes())
            return 1.0  # fully flat: triggers shrink steps that revisit vertices

        minimize(loss, np.zeros(2), 100)
        assert len(evaluated) == len(set(evaluated))

    def test_piecewise_constant_loss_stays_deterministic(self):
        def loss(v):
            return float(np.floor(np.abs(v[0]) * 2) / 2)

        a = minimize(loss, [1.3], 40)
        b = minimize(loss, [1.3], 40)
        assert np.array_equal(a.best_params, b.best_params)

    def test_empty_x0_rejected(self):
        with pytest.raises(UsageError):
            minimize(lambda v: 0.0, [], 150)

    def test_budget_validation(self):
        with pytest.raises(ConfigurationError):
            minimize(lambda v: 0.0, [0.0], 0)
