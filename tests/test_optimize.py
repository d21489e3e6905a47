import numpy as np
import pytest

from qcb.errors import ConfigurationError, UsageError
from qcb.optimize import OptResult, minimize, random_init

from oracles import list_minimize


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


def _quadratic(v):
    return float(np.sum((v - 0.7) ** 2 * np.arange(1, len(v) + 1)))


_ACCURACY_ROWS = np.random.default_rng(5).normal(size=(24, 6))
_ACCURACY_LABELS = np.random.default_rng(6).integers(0, 2, size=24).astype(bool)


def _accuracy_like(v):
    # a negative training accuracy: plateaus, and exact ties between vertices
    scores = _ACCURACY_ROWS[:, : len(v)] @ np.cos(v)
    return -float(np.mean((scores > 0) == _ACCURACY_LABELS))


def _non_finite(v):
    if v[0] > 0.3:
        return np.nan
    if np.sum(v) < -1.0:
        return -np.inf
    return float(np.sum(np.sin(3 * v)))


def _flat(v):
    return 1.0


class TestSameSearchAsListSimplex:
    """The array simplex calls the loss on the same points, in the same order,
    and returns the same result as the list-based reference, at every budget."""

    @staticmethod
    def _trace(optimizer, loss, x0, max_evals):
        calls = []

        def recorded(v):
            calls.append(v.tobytes())
            return loss(v)

        result = optimizer(recorded, x0, max_evals)
        return calls, result.best_params.tobytes(), result.best_loss, result.n_evals

    @pytest.mark.parametrize(
        "loss", [_quadratic, _accuracy_like, _non_finite, _flat], ids=lambda f: f.__name__
    )
    @pytest.mark.parametrize("dim", [1, 2, 3, 6])
    def test_every_budget(self, loss, dim):
        x0 = np.random.default_rng(dim).uniform(-1.0, 1.0, size=dim)
        x0[0] = -0.0  # a start vertex built by adding to every coordinate would make this +0.0
        for max_evals in range(1, 151):
            want = self._trace(list_minimize, loss, x0, max_evals)
            assert self._trace(minimize, loss, x0, max_evals) == want, max_evals

    def test_a_budget_runs_out_mid_shrink(self):
        # on a flat loss in 3-D, evaluations 7-9 are the first shrink, toward x0
        calls, *_ = self._trace(minimize, _flat, np.zeros(3), 150)
        assert calls[6] == np.array([0.0, 0.0, 0.25]).tobytes()
        for max_evals in (7, 8):
            got = self._trace(minimize, _flat, np.zeros(3), max_evals)
            assert got == self._trace(list_minimize, _flat, np.zeros(3), max_evals)
            assert got[0] == calls[:max_evals]
