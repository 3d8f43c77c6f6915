"""Takagi-Sugeno network: layer math, regressor rows, hybrid learning, step size."""

from collections import Counter

import numpy as np
import pytest

from softdss import anfis, tace
from softdss.anfis import (
    AnfisModel,
    StepSizeController,
    anfis_train,
    backprop_epoch,
    forward_batch,
    hybrid_epoch,
    premise_gradient,
    update_step_size,
)
from softdss.bench import BenchConfig, unit_variables
from softdss.errors import DegenerateCoverageError, SingularSystemError
from softdss.fuzzy import LinguisticVariable, TriangleMF
from softdss.linalg import DEFAULT_GAMMA, lse_batch, ridge_solve, rls_solve


def small_model(n_inputs=2, n_mfs=2, shape="gaussian", seed=None):
    variables = [
        LinguisticVariable.uniform(f"x{i}", 0.0, 1.0, n_mfs, shape=shape)
        for i in range(n_inputs)
    ]
    model = AnfisModel.grid(variables)
    if seed is not None:
        rng = np.random.default_rng(seed)
        model = AnfisModel.grid(
            variables, consequents=rng.normal(size=(model.n_rules, n_inputs + 1))
        )
    return model


def interior_model(n_inputs=2, n_mfs=2, shape="gaussian", seed=None):
    """Like small_model but with MF centers away from the range bounds,
    so small parameter perturbations never trip validation or projection."""
    variables = []
    for i in range(n_inputs):
        inner = LinguisticVariable.uniform(f"x{i}", 0.25, 0.75, n_mfs, shape=shape)
        variables.append(LinguisticVariable(f"x{i}", 0.0, 1.0, inner.mfs))
    model = AnfisModel.grid(variables)
    if seed is not None:
        rng = np.random.default_rng(seed)
        model = AnfisModel.grid(
            variables, consequents=rng.normal(size=(model.n_rules, n_inputs + 1))
        )
    return model


def total_error(model, X, y):
    pred, _ = forward_batch(model, X)
    return 0.5 * float(np.sum((pred - y) ** 2))


class TestForward:
    def test_zero_consequents_give_zero_output(self):
        model = small_model(4, 3)
        rng = np.random.default_rng(0)
        for _ in range(10):
            y, _ = forward_batch(model, [rng.uniform(0, 1, size=4)])
            assert y[0] == 0.0

    def test_normalized_strengths_sum_to_one(self):
        model = small_model(3, 3, seed=1)
        rng = np.random.default_rng(1)
        _, trace = forward_batch(model, rng.uniform(0, 1, size=(50, 3)))
        np.testing.assert_allclose(trace.wbar.sum(axis=1), 1.0, atol=1e-12)

    def test_single_rule_is_linear_consequent(self):
        variables = [LinguisticVariable.uniform(f"x{i}", 0.0, 1.0, 1) for i in range(2)]
        model = AnfisModel.grid(variables, consequents=[[2.0, -1.0, 0.25]])
        y, _ = forward_batch(model, [[0.3, 0.8]])
        assert y[0] == pytest.approx(2.0 * 0.3 - 1.0 * 0.8 + 0.25, abs=1e-12)

    def test_degenerate_coverage_raises_with_index(self):
        variables = [
            LinguisticVariable("x0", 0.0, 1.0, [TriangleMF(0.0, 0.1, 0.2)]),
        ]
        model = AnfisModel.grid(variables)
        with pytest.raises(DegenerateCoverageError, match="sample 1"):
            forward_batch(model, np.array([[0.1], [0.9]]))

    def test_rule_reorder_invariance(self):
        model = small_model(2, 3, seed=3)
        rng = np.random.default_rng(3)
        perm = rng.permutation(model.n_rules)
        permuted = AnfisModel(
            inputs=model.inputs,
            rules=[model.rules[i] for i in perm],
            consequents=model.consequents[perm],
        )
        for _ in range(20):
            x = rng.uniform(0, 1, size=2)
            y0, _ = forward_batch(model, [x])
            y1, _ = forward_batch(permuted, [x])
            assert y1[0] == pytest.approx(y0[0], abs=1e-12)


class TestRegressorRow:
    def test_single_rule_row(self):
        variables = [LinguisticVariable.uniform(f"x{i}", 0.0, 4.0, 1) for i in range(2)]
        model = AnfisModel.grid(variables)
        _, trace = forward_batch(model, [[2.0, 3.0]])
        np.testing.assert_array_equal(trace.regressors[0], [2.0, 3.0, 1.0])

    def test_row_dot_consequents_reproduces_forward(self):
        rng = np.random.default_rng(5)
        model = small_model(3, 2, seed=5)
        for _ in range(100):
            x = rng.uniform(0, 1, size=3)
            y, trace = forward_batch(model, [x])
            assert trace.regressors[0] @ model.consequents.ravel() == pytest.approx(y[0], abs=1e-12)

    def test_full_grid_row_length(self):
        model = small_model(4, 3)
        _, trace = forward_batch(model, [[0.5, 0.5, 0.5, 0.5]])
        assert trace.regressors[0].shape == (405,)


class TestHybridEpoch:
    def test_realizable_target_nails_consequents(self):
        # data generated by a model with identical premises: post-LSE RMSE ~ 0
        rng = np.random.default_rng(7)
        teacher = small_model(2, 2, seed=7)
        X = rng.uniform(0, 1, size=(60, 2))
        y, _ = forward_batch(teacher, X)
        student = AnfisModel.grid(teacher.inputs)
        solves = Counter()
        _, rmse = hybrid_epoch(student, X, y, StepSizeController(0.01), solves)
        assert rmse < 1e-8
        # full rank: no column block certifies it, so the exact solve runs
        assert solves == {"lstsq": 1}

    def test_eta_arithmetic(self):
        # step length k splits over the gradient norm: k=0.1, |g|=5 -> eta 0.02
        k, grad = 0.1, np.array([3.0, 4.0])
        eta = k / np.sqrt(np.sum(grad**2))
        assert eta == pytest.approx(0.02)
        # the premise step moves parameters by exactly -eta * g
        model = interior_model(2, 2, seed=8)
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, size=(40, 2))
        y = rng.uniform(0, 1, size=40)
        pred, trace = forward_batch(model, X)
        g = premise_gradient(model, trace, pred - y)
        before = model.premise_vector()
        stepped, _ = backprop_epoch(model, X, y, StepSizeController(k))
        delta = stepped.premise_vector() - before
        np.testing.assert_allclose(delta, -(k / np.linalg.norm(g)) * g, atol=1e-12)

    def test_premise_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(9)
        for shape in ("gaussian", "gbell", "triangle", "trapezoid"):
            model = interior_model(2, 2, shape=shape, seed=9)
            X = rng.uniform(0.05, 0.95, size=(30, 2))
            y = rng.uniform(0, 1, size=30)
            pred, trace = forward_batch(model, X)
            grad = premise_gradient(model, trace, pred - y)
            vec = model.premise_vector()
            h = 1e-6
            checked = 0
            for k in rng.permutation(vec.shape[0]):
                up, down = vec.copy(), vec.copy()
                up[k] += h
                down[k] -= h
                e_up = total_error(model.with_premise_vector(up, project=False), X, y)
                e_dn = total_error(model.with_premise_vector(down, project=False), X, y)
                numeric = (e_up - e_dn) / (2 * h)
                if abs(numeric) < 1e-10:  # flat directions carry no signal to compare
                    continue
                assert grad[k] == pytest.approx(numeric, rel=1e-4, abs=1e-8)
                checked += 1
            assert checked >= 3

    def test_lse_is_optimal_in_consequent_space(self):
        rng = np.random.default_rng(10)
        model = small_model(2, 2, seed=10)
        X = rng.uniform(0, 1, size=(50, 2))
        y = rng.uniform(0, 1, size=50)
        # fit consequents, then measure error with the premises that built A
        trained, _ = hybrid_epoch(model, X, y, StepSizeController(1e-12))
        _, trace = forward_batch(model, X)
        base_resid = trace.regressors @ trained.consequents.ravel() - y
        base = float(base_resid @ base_resid)
        flat = trained.consequents.ravel()
        for _ in range(100):
            perturbed = flat + rng.normal(size=flat.shape) * 1e-4
            resid = trace.regressors @ perturbed - y
            assert float(resid @ resid) >= base - 1e-12


    def test_rank_deficient_batch_matches_rls_fallback(self):
        # points on the line x1 = x0 make the 27-column regressor matrix
        # singular, so the consequents come from the gamma*I-regularized solve;
        # rules (i, j) and (j, i) fire alike, so the strength columns prove it
        rng = np.random.default_rng(17)
        model = small_model(2, 3)
        t = rng.uniform(0, 1, size=60)
        X = np.column_stack([t, t])
        y = np.sin(3 * t)
        _, trace = forward_batch(model, X)
        solves = Counter()
        trained, rmse = hybrid_epoch(model, X, y, StepSizeController(0.01), solves)
        assert solves == {"certified": 1}
        expected = trace.regressors @ rls_solve(trace.regressors, y, DEFAULT_GAMMA)
        fitted = trace.regressors @ trained.consequents.ravel()
        np.testing.assert_allclose(fitted, expected, rtol=0, atol=1e-9)
        assert rmse == pytest.approx(float(np.sqrt(np.mean((expected - y) ** 2))), abs=1e-9)


class TestStepSizeHeuristics:
    def test_four_reductions_grow_k(self):
        ctl = StepSizeController(0.1)
        for err in (5.0, 4.0, 3.0, 2.0, 1.0):
            ctl = update_step_size(ctl, err)
        assert ctl.k == pytest.approx(0.11)

    def test_alternating_shrinks_k(self):
        ctl = StepSizeController(0.1)
        for err in (1.0, 2.0, 1.0, 2.0, 1.0):
            ctl = update_step_size(ctl, err)
        assert ctl.k == pytest.approx(0.09)

    def test_flat_sequence_unchanged(self):
        ctl = StepSizeController(0.1)
        for err in (3.0, 3.0, 3.0, 3.0, 3.0):
            ctl = update_step_size(ctl, err)
        assert ctl.k == 0.1

    def test_window_resets_after_firing(self):
        ctl = StepSizeController(0.1)
        for err in (5.0, 4.0, 3.0, 2.0, 1.0):
            ctl = update_step_size(ctl, err)
        # three more reductions are not enough to fire again
        for err in (0.9, 0.8, 0.7):
            ctl = update_step_size(ctl, err)
        assert ctl.k == pytest.approx(0.11)
        ctl = update_step_size(ctl, 0.6)
        assert ctl.k == pytest.approx(0.121)

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError):
            update_step_size(StepSizeController(0.1), -1.0)

    def test_randomized_audit_against_reference(self):
        # the rules fire exactly when the five-error window says they should
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(5, 12))
            errors = rng.integers(0, 4, size=n).astype(float)
            ctl = StepSizeController(1.0)
            window: list[float] = []
            expected_k = 1.0
            for e in errors:
                ctl = update_step_size(ctl, e)
                window.append(e)
                window = window[-5:]
                if len(window) == 5:
                    diffs = np.diff(window)
                    if np.all(diffs < 0):
                        expected_k *= 1.1
                        window = [e]
                    elif np.all(diffs != 0) and np.all(np.sign(diffs)[1:] == -np.sign(diffs)[:-1]):
                        expected_k *= 0.9
                        window = [e]
                assert ctl.k == pytest.approx(expected_k)


class TestTraining:
    def test_epoch_count_recorded(self):
        rng = np.random.default_rng(12)
        model = small_model(2, 2)
        X = rng.uniform(0, 1, size=(80, 2))
        y = 0.5 * X[:, 0] + 0.25 * X[:, 1]
        _, report = anfis_train(model, (X, y), None, epochs=15)
        assert len(report.rmse_per_epoch) == 15

    def test_solver_paths_counted(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, size=(80, 2))
        y = 0.5 * X[:, 0] + 0.25 * X[:, 1]
        _, report = anfis_train(small_model(2, 2), (X, y), None, epochs=4)
        # four epochs plus the final re-identification, all full rank
        assert report.extras == {"consequent_solves": {"lstsq": 5, "ridge": 0, "certified": 0}}
        _, report = anfis_train(small_model(2, 2), (X, y), None, epochs=4, mode="backprop")
        assert report.extras == {}

    def test_zero_epochs_rejected(self):
        model = small_model(2, 2)
        with pytest.raises(ValueError):
            anfis_train(model, (np.zeros((1, 2)), np.zeros(1)), None, epochs=0)

    def test_backprop_only_with_zero_consequents_is_inert(self):
        # zero consequents zero out the premise gradient: nothing moves
        rng = np.random.default_rng(13)
        model = small_model(2, 2)
        X = rng.uniform(0, 1, size=(50, 2))
        y = rng.uniform(0, 1, size=50)
        trained, report = anfis_train(model, (X, y), None, epochs=5, mode="backprop")
        assert np.ptp(report.rmse_per_epoch) == 0.0
        np.testing.assert_array_equal(trained.premise_vector(), model.premise_vector())
        pred, _ = forward_batch(trained, X)
        assert np.all(pred == 0.0)

    def test_hybrid_beats_zero_model_and_reports_test_rmse(self):
        rng = np.random.default_rng(14)
        model = small_model(2, 3)
        X = rng.uniform(0, 1, size=(120, 2))
        y = np.sin(3 * X[:, 0]) * 0.3 + 0.4 * X[:, 1]
        Xt = rng.uniform(0, 1, size=(40, 2))
        yt = np.sin(3 * Xt[:, 0]) * 0.3 + 0.4 * Xt[:, 1]
        _, report = anfis_train(model, (X, y), (Xt, yt), epochs=10)
        assert report.final_train_rmse < float(np.sqrt(np.mean(y**2)))
        assert report.final_test_rmse is not None
        assert report.rmse_per_epoch[-1] <= report.rmse_per_epoch[0]

    @pytest.mark.parametrize("shape", ["gaussian", "gbell", "trapezoid", "triangle"])
    def test_final_train_rmse_is_the_returned_models(self, shape):
        # hybrid mode reads the final RMSE off the re-identification's regressors
        rng = np.random.default_rng(16)
        X = rng.uniform(0, 1, size=(120, 2))
        y = np.sin(3 * X[:, 0]) * 0.3 + 0.4 * X[:, 1]
        trained, report = anfis_train(small_model(2, 3, shape=shape), (X, y), None, epochs=4)
        pred, _ = forward_batch(trained, X)
        assert report.final_train_rmse == float(np.sqrt(np.mean((pred - y) ** 2)))

    def test_projection_keeps_shapes_valid(self):
        rng = np.random.default_rng(15)
        model = small_model(2, 3, shape="trapezoid")
        X = rng.uniform(0, 1, size=(60, 2))
        y = rng.uniform(0, 1, size=60)
        trained, _ = anfis_train(model, (X, y), None, epochs=8, k0=0.2)
        for var in trained.inputs:
            for mf in var.mfs:
                a, b, c, d = mf.params
                assert a <= b <= c <= d
                assert var.lo <= mf.center <= var.hi

    def test_deterministic(self):
        rng = np.random.default_rng(16)
        X = rng.uniform(0, 1, size=(60, 2))
        y = rng.uniform(0, 1, size=60)
        m1, r1 = anfis_train(small_model(2, 2), (X, y), None, epochs=5)
        m2, r2 = anfis_train(small_model(2, 2), (X, y), None, epochs=5)
        np.testing.assert_array_equal(m1.consequents, m2.consequents)
        assert r1.rmse_per_epoch == r2.rmse_per_epoch


def identify_consequents_oracle(regressors, y, n_inputs, solves=None):
    """Consequent solve that always tries `lse_batch` first, with no block certificate (test oracle)."""
    if regressors.shape[0] < regressors.shape[1]:
        flat, path = ridge_solve(regressors, y), "ridge"
    else:
        try:
            flat, path = lse_batch(regressors, y), "lstsq"
        except SingularSystemError:
            flat, path = ridge_solve(regressors, y), "ridge"
    if solves is not None:
        solves[path] += 1
    return flat


class TestCertifiedSolve:
    @pytest.fixture(scope="class")
    def split_a(self):
        config = BenchConfig()
        master = tace.normalize(tace.generate(config.data_seed, config.n, jitter=config.jitter))
        return tace.split(master, config.datasets["A"], 1)

    @pytest.mark.parametrize("shape", ["gaussian", "gbell", "trapezoid", "triangle"])
    def test_bench_fit_bit_identical_to_lstsq_first(self, split_a, shape, monkeypatch):
        # bench split A, seed 1, 15 epochs: every solve is certified, and the
        # certificate changes nothing against trying lstsq first
        train, test = split_a

        def fit():
            model = AnfisModel.grid(unit_variables(3, shape))
            model, report = anfis_train(model, (train.x, train.y), None, epochs=15, seed=1)
            return model, report, forward_batch(model, test.x)[0]

        model, report, pred = fit()
        assert report.extras == {"consequent_solves": {"lstsq": 0, "ridge": 0, "certified": 16}}
        monkeypatch.setattr(anfis, "_identify_consequents", identify_consequents_oracle)
        want_model, want_report, want_pred = fit()
        assert want_report.extras == {"consequent_solves": {"lstsq": 0, "ridge": 16, "certified": 0}}
        assert np.array_equal(report.rmse_per_epoch, want_report.rmse_per_epoch)
        assert np.array_equal(model.consequents, want_model.consequents)
        assert np.array_equal(pred, want_pred)
