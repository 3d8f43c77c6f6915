"""Least-squares estimators against an independent normal-equations oracle."""

import numpy as np
import pytest

from softdss.errors import SingularSystemError
from softdss.linalg import (
    DEFAULT_GAMMA,
    RCOND,
    fails_rank_test,
    lse_batch,
    ridge_solve,
    rls_init,
    rls_solve,
    rls_update,
)


def gaussian_elimination_solve(m, rhs):
    """Plain Gaussian elimination with partial pivoting (test oracle)."""
    m = np.array(m, dtype=float)
    rhs = np.array(rhs, dtype=float)
    n = m.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(m[col:, col])))
        if m[pivot, col] == 0:
            raise ZeroDivisionError("singular")
        m[[col, pivot]] = m[[pivot, col]]
        rhs[[col, pivot]] = rhs[[pivot, col]]
        for row in range(col + 1, n):
            factor = m[row, col] / m[col, col]
            m[row, col:] -= factor * m[col, col:]
            rhs[row] -= factor * rhs[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (rhs[row] - m[row, row + 1 :] @ x[row + 1 :]) / m[row, row]
    return x


def normal_equations_oracle(a, y):
    return gaussian_elimination_solve(a.T @ a, a.T @ y)


class TestLseBatch:
    def test_identity_system(self):
        x = lse_batch(np.eye(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 2.0, 3.0])

    def test_diagonal_solve(self):
        x = lse_batch(np.diag([1.0, 2.0]), np.array([2.0, 6.0]))
        np.testing.assert_allclose(x, [2.0, 3.0])

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(20, 5))
        y = rng.normal(size=20)
        np.testing.assert_allclose(
            lse_batch(a, y), normal_equations_oracle(a, y), atol=1e-10
        )

    def test_rank_deficient_raises(self):
        a = np.column_stack([np.ones(5), np.ones(5)])
        with pytest.raises(SingularSystemError):
            lse_batch(a, np.arange(5.0))

    def test_wide_system_rejected(self):
        with pytest.raises(ValueError):
            lse_batch(np.ones((2, 3)), np.ones(2))

    def test_residual_local_optimality(self):
        # no random perturbation of the solution may lower the residual
        rng = np.random.default_rng(7)
        a = rng.normal(size=(30, 6))
        y = rng.normal(size=30)
        x = lse_batch(a, y)
        base = np.linalg.norm(a @ x - y)
        for _ in range(100):
            delta = rng.normal(size=6) * 1e-3
            assert np.linalg.norm(a @ (x + delta) - y) >= base


class TestRls:
    def test_init_definition(self):
        state = rls_init(2, gamma=1e6)
        np.testing.assert_array_equal(state.estimate, [0.0, 0.0])
        np.testing.assert_array_equal(state.covariance, 1e6 * np.eye(2))

    def test_init_scalar(self):
        state = rls_init(1, gamma=1.0)
        np.testing.assert_array_equal(state.estimate, [0.0])
        np.testing.assert_array_equal(state.covariance, [[1.0]])

    def test_init_consequent_sized(self):
        # 81 rules x 5 coefficients for the four-input grid network
        state = rls_init(405, gamma=1e6)
        assert state.estimate.shape == (405,)
        assert np.all(state.estimate == 0.0)

    def test_init_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            rls_init(2, gamma=0.0)
        with pytest.raises(ValueError):
            rls_init(2, gamma=-1.0)

    def test_one_step_closed_form(self):
        # estimate after one unit observation is 2*gamma/(1+gamma)
        gamma = 1e6
        state = rls_update(rls_init(1, gamma), [1.0], 2.0)
        assert state.estimate[0] == pytest.approx(2 * gamma / (1 + gamma), abs=1e-12)

    def test_full_pass_matches_batch(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(30, 6))
        y = rng.normal(size=30)
        np.testing.assert_allclose(
            rls_solve(a, y, gamma=1e8), lse_batch(a, y), atol=1e-8
        )

    def test_consistent_repeat_is_noop(self):
        rng = np.random.default_rng(5)
        state = rls_init(4, gamma=1e6)
        for _ in range(6):
            state = rls_update(state, rng.normal(size=4), rng.normal())
        row = rng.normal(size=4)
        target = float(row @ state.estimate)  # consistent observation: zero residual
        once = rls_update(state, row, target)
        twice = rls_update(once, row, target)
        np.testing.assert_allclose(twice.estimate, once.estimate, atol=1e-9)

    def test_non_finite_rejected(self):
        state = rls_init(2)
        with pytest.raises(ValueError):
            rls_update(state, [np.nan, 1.0], 1.0)
        with pytest.raises(ValueError):
            rls_update(state, [1.0, 1.0], np.inf)


class TestRlsInvariants:
    def test_equivalence_many_systems(self):
        # sequential updates agree with the batch solution on full-rank systems
        rng = np.random.default_rng(11)
        for _ in range(20):
            rows = int(rng.integers(8, 40))
            cols = int(rng.integers(2, min(rows, 9)))
            a = rng.normal(size=(rows, cols))
            y = rng.normal(size=rows)
            diff = np.abs(rls_solve(a, y, gamma=1e8) - lse_batch(a, y)).max()
            assert diff < 1e-6

    def test_covariance_symmetric_positive_definite(self):
        rng = np.random.default_rng(13)
        state = rls_init(5, gamma=1e6)
        for _ in range(40):
            state = rls_update(state, rng.normal(size=5), rng.normal())
            asym = np.abs(state.covariance - state.covariance.T).max()
            scale = np.abs(state.covariance).max()
            assert asym <= 1e-9 * max(scale, 1.0)
            np.linalg.cholesky(state.covariance)  # raises if any pivot <= 0


def curve_regressors(rng, rows=80):
    """ANFIS-style regressors of 2-D points that lie near a 1-D curve.

    Three gaussian MFs per input give 9 rules x 3 coefficients = 27 columns,
    whose numerical rank is below 27 because the points hug (t, t^2), like
    the bench data hugs its anchor curve.
    """
    t = rng.uniform(0, 1, size=rows)
    X = np.column_stack([t, t**2]) + rng.uniform(-1e-3, 1e-3, size=(rows, 2))
    centers = np.linspace(0, 1, 3)
    m0 = np.exp(-((X[:, :1] - centers) ** 2) / 0.08)
    m1 = np.exp(-((X[:, 1:] - centers) ** 2) / 0.08)
    w = (m0[:, :, None] * m1[:, None, :]).reshape(rows, 9)
    wbar = w / w.sum(axis=1, keepdims=True)
    xa = np.column_stack([X, np.ones(rows)])
    return (wbar[:, :, None] * xa[:, None, :]).reshape(rows, 27), np.sin(3 * t)


class TestRidgeSolve:
    """ridge_solve is the closed form of rls_solve started at S = gamma * I."""

    def assert_matches_rls(self, a, y):
        x_ridge, x_rls = ridge_solve(a, y), rls_solve(a, y, DEFAULT_GAMMA)
        np.testing.assert_allclose(x_ridge, x_rls, rtol=0, atol=1e-8)
        np.testing.assert_allclose(a @ x_ridge, a @ x_rls, rtol=0, atol=1e-10)

    def test_tall_full_rank_matches_rls(self):
        # entries in [0, 1], the scale of normalized-strength regressors
        rng = np.random.default_rng(21)
        self.assert_matches_rls(rng.uniform(0, 1, size=(60, 5)), rng.uniform(0, 1, size=60))

    def test_rank_deficient_matches_rls(self):
        a, y = curve_regressors(np.random.default_rng(22))
        with pytest.raises(SingularSystemError):
            lse_batch(a, y)
        self.assert_matches_rls(a, y)

    def test_underdetermined_matches_rls(self):
        rng = np.random.default_rng(23)
        self.assert_matches_rls(rng.normal(size=(8, 20)), rng.normal(size=8))

    def test_equals_augmented_least_squares(self):
        # ridge is least squares on [A; I / sqrt(gamma)] against [y; 0]
        rng = np.random.default_rng(24)
        a, y = rng.normal(size=(40, 6)), rng.normal(size=40)
        augmented = np.vstack([a, np.eye(6) / np.sqrt(DEFAULT_GAMMA)])
        expected = np.linalg.lstsq(augmented, np.concatenate([y, np.zeros(6)]), rcond=None)[0]
        np.testing.assert_allclose(ridge_solve(a, y), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("solve", [lse_batch, ridge_solve])
    def test_non_finite_rejected_like_lse_batch(self, solve):
        with pytest.raises(ValueError, match="system entries must be finite"):
            solve([[np.nan, 1.0], [1.0, 1.0]], [1.0, 2.0])
        with pytest.raises(ValueError, match="system entries must be finite"):
            solve(np.eye(2), [1.0, np.inf])


def matrix_with_condition(rng, rows, cols, cond):
    """Random (rows, cols) matrix with singular values spaced from 1 down to 1 / cond."""
    u, _ = np.linalg.qr(rng.normal(size=(rows, cols)))
    v, _ = np.linalg.qr(rng.normal(size=(cols, cols)))
    return (u * np.geomspace(1.0, 1.0 / cond, cols)) @ v.T


class TestRankCertificate:
    """A column block that fails the rank test proves `lse_batch` refuses the whole matrix."""

    @pytest.mark.parametrize("factor", [0.5, 0.99, 0.999, 1.001, 1.01, 2.0])
    def test_certified_block_means_lse_refuses(self, factor):
        # the block's condition number sits just below or just above 1 / RCOND
        rng = np.random.default_rng(int(factor * 1000))
        for scale in (1e-3, 1.0, 1e3):
            block = matrix_with_condition(rng, 60, 8, factor / RCOND)
            extra = scale * rng.normal(size=(60, 5))
            a = np.hstack([extra[:, :2], block, extra[:, 2:]])
            y = rng.normal(size=60)
            certified = fails_rank_test(block)
            assert certified == (factor > 1.0)
            if certified:
                for full in (block, a):
                    with pytest.raises(SingularSystemError):
                        lse_batch(full, y)
            else:
                # with no other columns the block alone passes lse_batch too
                assert lse_batch(block, y).shape == (8,)

    def test_full_rank_never_certified(self):
        # a realizable full-rank system: no block is certified, lse_batch fits it
        rng = np.random.default_rng(23)
        a = rng.normal(size=(80, 12))
        y = a @ rng.normal(size=12)
        cols = a.shape[1]
        for width in range(1, cols + 1):
            for start in range(cols - width + 1):
                assert not fails_rank_test(a[:, start : start + width])
        np.testing.assert_allclose(a @ lse_batch(a, y), y, rtol=0, atol=1e-10)

    def test_zero_column_certified(self):
        a = np.column_stack([np.ones(5), np.zeros(5)])
        assert fails_rank_test(a)
        with pytest.raises(SingularSystemError):
            lse_batch(a, np.ones(5))
