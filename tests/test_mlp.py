"""Feed-forward evaluation, backprop gradient, and SCG training behaviour."""

import math

import numpy as np
import pytest

from softdss.mlp import (
    MlpModel,
    mlp_forward_batch,
    mlp_gradient,
    mlp_init,
    mlp_loss,
    scg_train,
)


def naive_forward(model, x):
    """Loop-based evaluation straight off the weight layout (test oracle)."""
    d, h = model.input_dim, model.hidden_units
    w = model.weights
    out = 0.0
    for j in range(h):
        z = w[d * h + j]  # hidden bias
        for i in range(d):
            z += w[j * d + i] * x[i]
        out += w[d * h + h + j] * math.tanh(z)
    return out + w[-1]


def finite_difference_gradient(model, X, d, h=1e-6):
    w = model.weights
    out = np.zeros(w.shape)
    for k in range(w.shape[0]):
        up, down = w.copy(), w.copy()
        up[k] += h
        down[k] -= h
        out[k] = (
            mlp_loss(MlpModel(model.input_dim, model.hidden_units, up), X, d)
            - mlp_loss(MlpModel(model.input_dim, model.hidden_units, down), X, d)
        ) / (2 * h)
    return out


class TestForward:
    def test_all_zero_weights(self):
        model = MlpModel(3, 4, np.zeros((3 + 1) * 4 + 4 + 1))
        assert mlp_forward_batch(model, [[1.0, -2.0, 0.5]])[0] == 0.0

    def test_output_bias_only(self):
        w = np.zeros((2 + 1) * 1 + 1 + 1)
        w[-1] = 0.7
        model = MlpModel(2, 1, w)
        assert mlp_forward_batch(model, [[3.0, -1.0]])[0] == 0.7

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        model = mlp_init(4, 7, seed=0)
        X = rng.normal(size=(50, 4))
        for x, y in zip(X, mlp_forward_batch(model, X)):
            assert y == pytest.approx(naive_forward(model, x), abs=1e-12)

    def test_weight_length_validated(self):
        with pytest.raises(ValueError):
            MlpModel(2, 3, np.zeros(5))


class TestGradient:
    def test_zero_residual_zero_gradient(self):
        model = mlp_init(2, 3, seed=1)
        X = np.random.default_rng(1).normal(size=(20, 2))
        d = mlp_forward_batch(model, X)  # targets equal outputs exactly
        np.testing.assert_allclose(mlp_gradient(model, X, d), 0.0, atol=1e-12)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(2)
        model = mlp_init(3, 5, seed=2)
        X = rng.normal(size=(25, 3))
        d = rng.normal(size=25)
        analytic = mlp_gradient(model, X, d)
        numeric = finite_difference_gradient(model, X, d)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-7)

    def test_sum_linearity(self):
        rng = np.random.default_rng(3)
        model = mlp_init(2, 4, seed=3)
        X = rng.normal(size=(15, 2))
        d = rng.normal(size=15)
        g1 = mlp_gradient(model, X, d)
        g2 = mlp_gradient(model, np.vstack([X, X]), np.concatenate([d, d]))
        np.testing.assert_allclose(g2, 2 * g1, rtol=1e-12)


class TestScg:
    def test_accepted_error_sequence_non_increasing(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, size=(100, 2))
        y = 0.3 * X[:, 0] - 0.2 * X[:, 1] + 0.1
        model = mlp_init(2, 6, seed=4)
        _, report = scg_train(model, (X, y), None, epochs=150)
        curve = np.array(report.rmse_per_epoch)
        assert np.all(np.diff(curve) <= 1e-12)

    def test_fits_additive_target(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, size=(100, 2))
        y = X[:, 0] + X[:, 1]
        model = mlp_init(2, 5, seed=5)
        trained, report = scg_train(model, (X, y), None, epochs=500)
        assert report.final_train_rmse < 1e-3

    def test_reports_test_rmse(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 1, size=(80, 2))
        y = 0.5 * X[:, 0]
        Xt = rng.uniform(0, 1, size=(20, 2))
        yt = 0.5 * Xt[:, 0]
        _, report = scg_train(mlp_init(2, 4, seed=6), (X, y), (Xt, yt), epochs=200)
        assert report.final_test_rmse is not None
        assert report.final_test_rmse < 0.05

    def test_bit_identical_given_seed(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 1, size=(60, 3))
        y = X @ np.array([0.2, -0.4, 0.6])
        m1, r1 = scg_train(mlp_init(3, 5, seed=7), (X, y), None, epochs=100)
        m2, r2 = scg_train(mlp_init(3, 5, seed=7), (X, y), None, epochs=100)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        assert r1.rmse_per_epoch == r2.rmse_per_epoch

    def test_curve_length_equals_epochs(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, size=(30, 2))
        y = X[:, 0]
        _, report = scg_train(mlp_init(2, 3, seed=8), (X, y), None, epochs=40)
        assert len(report.rmse_per_epoch) == 40

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            scg_train(mlp_init(2, 2), (np.zeros((2, 2)), np.zeros(2)), None, epochs=0)

    def test_init_is_seeded_and_bounded(self):
        a = mlp_init(4, 10, seed=9)
        b = mlp_init(4, 10, seed=9)
        np.testing.assert_array_equal(a.weights, b.weights)
        d, h = 4, 10
        assert np.abs(a.weights[: d * h + h]).max() <= 1 / np.sqrt(d)
        assert np.abs(a.weights[d * h + h :]).max() <= 1 / np.sqrt(h)
