"""Feed-forward evaluation, backprop gradient, and SCG training behaviour."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from softdss import tace
from softdss.bench import BenchConfig
from softdss.errors import TrainingDivergedError, finite_data
from softdss.mlp import (
    LAMBDA0,
    SIGMA0,
    MlpModel,
    _backward,
    _forward,
    _rmse_from_loss,
    mlp_forward_batch,
    mlp_gradient,
    mlp_init,
    mlp_loss,
    scg_train,
)
from softdss.report import TrainReport


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


def reference_gradient(model, X, d):
    """Backprop with fresh temporaries at every step (test oracle for the buffered pass)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = np.asarray(d, dtype=float)
    w1, b1, w2, b2 = model.unpack()
    z = X @ w1.T + b1
    hidden = np.tanh(z)
    y = hidden @ w2 + b2
    r = y - d
    dw2 = hidden.T @ r
    db2 = r.sum()
    dh = np.outer(r, w2) * (1.0 - hidden * hidden)
    dw1 = dh.T @ X
    db1 = dh.sum(axis=0)
    return np.concatenate([dw1.ravel(), db1, dw2, [db2]])


def reference_scg_train(model, train, test, epochs, seed=0):
    """SCG through the public loss and gradient, one closure call per evaluation.

    The test oracle for `scg_train`'s shared buffers and shared forward
    pass; it also returns the iterations whose step was accepted.
    """
    X, d = finite_data(*train)
    X = np.atleast_2d(X)
    n_samples = d.shape[0]
    w = model.weights.copy()
    n = w.shape[0]

    def loss(wv):
        return mlp_loss(replace(model, weights=wv), X, d)

    def grad(wv):
        return mlp_gradient(replace(model, weights=wv), X, d)

    lam, lam_bar = LAMBDA0, 0.0
    e_now = loss(w)
    r = -grad(w)
    p = r.copy()
    success = True
    delta_raw = 0.0
    curve, accepted_at = [], []
    start = time.perf_counter()
    for k in range(1, epochs + 1):
        if not np.isfinite(e_now):
            raise TrainingDivergedError(k, f"non-finite loss at iteration {k}")
        p_norm2 = float(p @ p)
        if p_norm2 == 0.0:
            curve.extend([_rmse_from_loss(e_now, n_samples)] * (epochs - len(curve)))
            break
        if success:
            sigma_k = SIGMA0 / np.sqrt(p_norm2)
            s = (grad(w + sigma_k * p) - (-r)) / sigma_k
            delta_raw = float(p @ s)
        delta = delta_raw + (lam - lam_bar) * p_norm2
        if delta <= 0:
            lam_bar = 2.0 * (lam - delta / p_norm2)
            delta = -delta + lam * p_norm2
            lam = lam_bar
        mu = float(p @ r)
        if mu == 0.0:
            p = r.copy()
            curve.append(_rmse_from_loss(e_now, n_samples))
            continue
        alpha = mu / delta
        e_trial = loss(w + alpha * p)
        cmp = 2.0 * delta * (e_now - e_trial) / mu**2
        if cmp >= 0:
            accepted_at.append(k)
            w = w + alpha * p
            e_now = e_trial
            r_new = -grad(w)
            lam_bar = 0.0
            success = True
            if k % n == 0:
                p = r_new.copy()
            else:
                beta = float(r_new @ r_new - r_new @ r) / mu
                p = r_new + beta * p
            r = r_new
            if cmp >= 0.75:
                lam *= 0.25
        else:
            lam_bar = lam
            success = False
        if cmp < 0.25:
            lam += delta * (1.0 - cmp) / p_norm2
        curve.append(_rmse_from_loss(e_now, n_samples))

    trained = replace(model, weights=w)
    final_train = _rmse_from_loss(e_now, n_samples)
    final_test = None
    if test is not None:
        Xt, dt = test
        resid = mlp_forward_batch(trained, Xt) - np.asarray(dt, dtype=float)
        final_test = float(np.sqrt(np.mean(resid**2)))
    report = TrainReport(curve, final_train, final_test, time.perf_counter() - start, seed)
    report.extras["final_lambda"] = lam
    return trained, report, accepted_at


def small_problem(seed=0, h=2, n=40):
    """A tiny noisy regression on which SCG rejects some steps and restarts."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = np.sin(3 * X[:, 0]) * X[:, 1] + rng.normal(scale=0.1, size=n)
    return mlp_init(2, h, seed=seed), X, y


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


class TestBufferedPass:
    def test_gradient_and_loss_match_fresh_temporaries(self):
        rng = np.random.default_rng(10)
        model = mlp_init(4, 30, seed=10)
        X = rng.uniform(0, 1, size=(90, 4))
        d = rng.uniform(0, 1, size=90)
        assert np.array_equal(mlp_gradient(model, X, d), reference_gradient(model, X, d))
        resid = mlp_forward_batch(model, X) - d
        assert mlp_loss(model, X, d) == 0.5 * float(resid @ resid)

    def test_reused_buffers_give_mlp_gradient_bit_for_bit(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 1, size=(90, 4))
        d = rng.uniform(0, 1, size=90)
        hidden, dh = np.empty((90, 32)), np.empty((90, 32))
        for seed in range(3):  # the buffers carry the previous call's values
            model = mlp_init(4, 32, seed=seed)
            w1, b1, w2, b2 = model.unpack()
            resid = _forward(X, w1, b1, w2, b2, d, hidden)
            got = _backward(X, w2, hidden, resid, dh)
            assert np.array_equal(got, mlp_gradient(model, X, d))


def matrix_split(dataset, seed):
    cfg = BenchConfig()
    master = tace.normalize(tace.generate(cfg.data_seed, cfg.n, jitter=cfg.jitter))
    tr, te = tace.split(master, cfg.datasets[dataset], seed)
    return (tr.x, tr.y), (te.x, te.y)


class TestScgMatchesReference:
    def assert_same(self, model, train, test, epochs):
        got, report = scg_train(model, train, test, epochs, seed=1)
        want, want_report, accepted_at = reference_scg_train(model, train, test, epochs, seed=1)
        assert np.array_equal(got.weights, want.weights)
        assert report.rmse_per_epoch == want_report.rmse_per_epoch
        assert report.final_train_rmse == want_report.final_train_rmse
        assert report.final_test_rmse == want_report.final_test_rmse
        assert report.extras["final_lambda"] == want_report.extras["final_lambda"]
        steps = report.extras["scg_steps"]
        assert steps["accepted"] == len(accepted_at)
        assert steps["accepted"] + steps["rejected"] <= epochs
        return report, accepted_at

    @pytest.mark.parametrize("dataset, h", [("A", 30), ("B", 32)])
    def test_bench_sizes(self, dataset, h):
        train, test = matrix_split(dataset, 1)
        self.assert_same(mlp_init(len(tace.FIELDS), h, seed=1), train, test, 150)

    def test_rejected_steps_and_restarts(self):
        model, X, y = small_problem()
        report, accepted_at = self.assert_same(model, (X, y), None, 60)
        assert report.extras["scg_steps"]["rejected"] > 0
        n = model.weights.size
        assert any(k % n == 0 for k in accepted_at)  # a steepest-descent restart ran

    def test_curve_changes_only_at_accepted_steps(self):
        model, X, y = small_problem(seed=10)
        _, report = scg_train(model, (X, y), None, 60)
        _, _, accepted_at = reference_scg_train(model, (X, y), None, 60)
        curve = report.rmse_per_epoch
        changed = {k for k in range(2, len(curve) + 1) if curve[k - 1] != curve[k - 2]}
        assert changed <= set(accepted_at)
        steps = report.extras["scg_steps"]
        assert steps["rejected"] > 0
        assert steps["accepted"] + steps["rejected"] <= 60


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

    @pytest.mark.parametrize("args,message", [
        ((4, 0), "hidden_units must be an integer >= 1, got 0"),
        ((0, 3), "input_dim must be an integer >= 1, got 0"),
        ((4, 2.5), "hidden_units must be an integer >= 1, got 2.5"),
    ])
    def test_init_names_a_bad_size(self, args, message):
        # (4, 0) used to warn of a division by zero, then raise an OverflowError from the RNG
        with pytest.raises(ValueError, match=f"^{message}$"):
            mlp_init(*args)

    def test_init_is_seeded_and_bounded(self):
        a = mlp_init(4, 10, seed=9)
        b = mlp_init(4, 10, seed=9)
        np.testing.assert_array_equal(a.weights, b.weights)
        d, h = 4, 10
        assert np.abs(a.weights[: d * h + h]).max() <= 1 / np.sqrt(d)
        assert np.abs(a.weights[d * h + h :]).max() <= 1 / np.sqrt(h)
