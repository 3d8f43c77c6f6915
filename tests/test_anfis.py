"""Takagi-Sugeno network: layer math, regressor rows, hybrid learning, step size."""

import dataclasses
import re
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softdss import anfis, tace
from softdss.anfis import (
    AnfisModel,
    StepSizeController,
    anfis_train,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected_naming_variable(self, bad):
        # neither clipped to the range's end (inf) nor passed on as a nan output
        X = np.full((3, 2), 0.5)
        X[1, 1] = bad
        with pytest.raises(ValueError, match="'x1'.*non-finite"):
            forward_batch(small_model(2, 2, seed=3), X)

    def test_trace_x_is_the_clipped_input(self):
        # one clip serves the fuzzification and the regressors: trace.x is each column
        # clipped by its variable, bit for bit, -0.0 at a bound included
        variables = [LinguisticVariable.uniform("x0", 0.0, 1.0, 2),
                     LinguisticVariable.uniform("x1", -3.0, 5.0, 3, shape="trapezoid")]
        model = AnfisModel.grid(variables, np.random.default_rng(4).normal(size=(6, 3)))
        X = np.array([[-0.5, 9.0], [1.5, -3.5], [-0.0, -3.0], [1.0, 5.0 + 1e-15],
                      [np.nextafter(0.0, -1.0), -0.0], [0.25, 4.0]])
        _, trace = forward_batch(model, X)
        want = np.column_stack([var.clip(X[:, v]) for v, var in enumerate(variables)])
        assert np.array_equal(trace.x, want)
        assert np.array_equal(np.signbit(trace.x), np.signbit(want))
        assert np.array_equal(trace.xa[:, :2], trace.x)
        assert trace.x[:4].tolist() == [[0.0, 5.0], [1.0, -3.0], [-0.0, -3.0], [1.0, 5.0]]

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


class TestLayerFive:
    """The output as sum_r wbar_r * f_r; the regressor matrix only on demand."""

    def test_forward_builds_no_regressors(self):
        rng = np.random.default_rng(40)
        model = small_model(3, 2, seed=40)
        y, trace = forward_batch(model, rng.uniform(0, 1, size=(30, 3)))
        assert "regressors" not in trace.__dict__
        assert np.array_equal(y, (trace.wbar * (trace.xa @ model.consequents.T)).sum(axis=1))
        want = (trace.wbar[:, :, None] * trace.xa[:, None, :]).reshape(30, -1)
        assert np.array_equal(trace.regressors, want)
        assert trace.regressors is trace.regressors  # built once

    def test_batch_peak_memory_below_the_regressor_matrix(self):
        model = small_model(4, 3, seed=41)
        X = np.random.default_rng(41).uniform(0, 1, size=(5000, 4))
        forward_batch(model, X[:10])  # the model's cached layer and rule table, outside the peak
        regressor_bytes = X.shape[0] * model.n_rules * (model.n_inputs + 1) * 8
        tracemalloc.start()
        try:
            y, trace = forward_batch(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.shape == (5000,) and "regressors" not in trace.__dict__
        assert peak < regressor_bytes, f"peak {peak} B >= {regressor_bytes} B"


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
        layer, antecedents = model.input_layer, model.antecedent_index
        trace, consequents, residuals = anfis._fit_consequents(layer, antecedents, X, y, None)
        g = premise_gradient(trace, consequents, residuals)
        stepped, _, _ = anfis._epoch(layer, antecedents, X, y, k, None)
        # the gradient's order is the input layer's: variable, MF, parameter
        delta = np.concatenate([np.subtract(new.params, old.params)
                                for v, var in enumerate(model.inputs)
                                for new, old in zip(stepped.to_variables()[v].mfs, var.mfs)])
        np.testing.assert_allclose(delta, -(k / np.linalg.norm(g)) * g, atol=1e-12)

    def test_premise_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(9)
        for shape in ("gaussian", "gbell", "triangle", "trapezoid"):
            model = interior_model(2, 2, shape=shape, seed=9)
            X = rng.uniform(0.05, 0.95, size=(30, 2))
            y = rng.uniform(0, 1, size=30)
            pred, trace = forward_batch(model, X)
            grad = premise_gradient(trace, model.consequents, pred - y)
            layer = model.input_layer
            h = 1e-6
            checked = 0
            for k in rng.permutation(grad.shape[0]):
                # one parameter moved by -+h; `project` leaves these interior MFs as they are
                step = np.zeros(grad.shape[0])
                step[k] = h
                e_up = total_error(replace(model, inputs=layer.stepped(-step).to_variables()), X, y)
                e_dn = total_error(replace(model, inputs=layer.stepped(step).to_variables()), X, y)
                numeric = (e_up - e_dn) / (2 * h)
                if abs(numeric) < 1e-10:  # flat directions carry no signal to compare
                    continue
                assert grad[k] == pytest.approx(numeric, rel=1e-4, abs=1e-8)
                checked += 1
            assert checked >= 3

    def test_one_input_layer_per_epoch(self, monkeypatch):
        # each epoch runs on the model's layer, and only the model it returns builds another
        built = []
        init = anfis.InputLayer.__init__
        monkeypatch.setattr(anfis.InputLayer, "__init__",
                            lambda layer, variables: built.append(1) or init(layer, variables))
        rng = np.random.default_rng(18)
        X = rng.uniform(0, 1, size=(50, 2))
        y = np.sin(3 * X[:, 0]) * 0.3 + 0.4 * X[:, 1]
        model = small_model(2, 3)
        for epoch in range(1, 4):
            model, _ = hybrid_epoch(model, X, y, StepSizeController(0.05))
            assert len(built) == epoch

    def test_data_checked_as_anfis_train_checks_them(self):
        rng = np.random.default_rng(19)
        X = rng.uniform(0, 1, size=(30, 2))
        y = rng.uniform(0, 1, size=30)
        model = small_model(2, 2)
        y[3] = np.nan
        with pytest.raises(ValueError, match=r"^y holds non-finite values$"):
            hybrid_epoch(model, X, y, StepSizeController(0.01))
        with pytest.raises(ValueError, match=re.escape(
                "X has shape (30, 2) but y has shape (20,): row counts differ")):
            hybrid_epoch(model, X, y[10:], StepSizeController(0.01))
        with pytest.raises(ValueError, match="training data must be non-empty"):
            hybrid_epoch(model, X[:0], y[:0], StepSizeController(0.01))

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
        assert solves == {"certified": 1, "strengths": 1}
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
        assert report.extras == {"consequent_solves": {"lstsq": 5, "ridge": 0, "certified": 0},
                                 "certified_blocks": {"strengths": 0, "strengths_x0": 0},
                                 "fired_rules": 4}

    @pytest.mark.parametrize("mode", ["backprop", "Hybrid", ""])
    def test_hybrid_is_the_only_mode(self, mode):
        X = np.random.default_rng(12).uniform(0, 1, size=(20, 2))
        with pytest.raises(ValueError, match="mode"):
            anfis_train(small_model(2, 2), (X, X[:, 0]), None, epochs=1, mode=mode)

    @pytest.mark.parametrize("k0", [np.nan, np.inf, 0.0, -0.1])
    def test_bad_step_size_named(self, k0):
        X = np.random.default_rng(12).uniform(0, 1, size=(20, 2))
        with pytest.raises(ValueError, match=f"^k0 must be a finite step size > 0, got {k0}$"):
            anfis_train(small_model(2, 2), (X, X[:, 0]), None, epochs=1, k0=k0)

    @pytest.mark.parametrize("shape", ["gaussian", "trapezoid"])
    @pytest.mark.parametrize("epochs", [1, 15])
    def test_one_model_per_fit(self, shape, epochs, monkeypatch):
        # the fit runs on the given model's input layer and rule table and builds one model, at
        # the end, whatever the epoch count: one rule check and no `dataclasses.replace`
        rng = np.random.default_rng(19)
        X = rng.uniform(0, 1, size=(60, 2))
        y = np.sin(3 * X[:, 0]) * 0.3 + 0.4 * X[:, 1]
        model = small_model(2, 3, shape=shape)
        calls = Counter()
        table, init, post = anfis.antecedent_table, anfis.InputLayer.__init__, AnfisModel.__post_init__

        def spy(name, real):
            return lambda *args, **kwargs: calls.update([name]) or real(*args, **kwargs)

        monkeypatch.setattr(anfis, "antecedent_table", spy("antecedent_table", table))
        monkeypatch.setattr(anfis.InputLayer, "__init__", spy("InputLayer", init))
        monkeypatch.setattr(AnfisModel, "__post_init__", spy("AnfisModel", post))
        for module in (dataclasses, anfis):
            monkeypatch.setattr(module, "replace", spy("replace", dataclasses.replace),
                                raising=False)
        trained, report = anfis_train(model, (X, y), (X[:20], y[:20]), epochs=epochs)
        assert len(report.rmse_per_epoch) == epochs
        # the one InputLayer is the given model's, which had not built it yet
        assert calls == {"antecedent_table": 1, "InputLayer": 1, "AnfisModel": 1}

    def test_nan_premise_step_raises_in_its_epoch(self, monkeypatch):
        # a nan in the third epoch's gradient raises the MF's own ValueError at that step
        rng = np.random.default_rng(20)
        X = rng.uniform(0, 1, size=(60, 2))
        y = np.sin(3 * X[:, 0]) * 0.3 + 0.4 * X[:, 1]
        grads = []

        def gradient(trace, consequents, residuals):
            grads.append(premise_gradient(trace, consequents, residuals))
            if len(grads) == 3:
                grads[-1][1] = np.nan  # the first MF's sigma
            return grads[-1]

        monkeypatch.setattr(anfis, "premise_gradient", gradient)
        with pytest.raises(ValueError, match="^sigma must be positive, got nan$"):
            anfis_train(small_model(2, 3), (X, y), None, epochs=10)
        assert len(grads) == 3

    def test_zero_epochs_rejected(self):
        model = small_model(2, 2)
        with pytest.raises(ValueError):
            anfis_train(model, (np.zeros((1, 2)), np.zeros(1)), None, epochs=0)

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
        # the final RMSE is the returned model's own output's, as forward_batch gives it
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


def fired_columns_oracle(wbar, xa, y, solves=None):
    """`_identify_consequents` as `identify_consequents_oracle` on the full regressors, except
    that where some rule never fires, the ridge solve runs over the fired rules' columns
    alone, gathered from the full matrix, and every unfired rule gets consequents of 0.0
    (test oracle)."""
    full, width = anfis._regressors(wbar, xa), xa.shape[1]
    paths = Counter()
    flat = identify_consequents_oracle(full, y, width - 1, paths)
    fired = wbar.any(axis=0)
    if fired.all():
        consequents, regressors = flat.reshape(wbar.shape[1], width), full
    else:
        # the zero columns make the full system rank deficient, so `flat` is its ridge
        # solve; solve again on the fired columns, row-major as the solver builds them, so
        # that BLAS sums in the same order
        regressors = np.ascontiguousarray(full[:, np.repeat(fired, width)])
        consequents = np.zeros((wbar.shape[1], width))
        consequents[fired] = ridge_solve(regressors, y).reshape(-1, width)
    if solves is not None:
        solves.update(paths)
    return consequents, regressors @ consequents[fired].ravel() - y


class TestCertifiedSolve:
    @pytest.fixture(scope="class")
    def split_a(self):
        config = BenchConfig()
        master = tace.normalize(tace.generate(config.data_seed, config.n, jitter=config.jitter))
        return tace.split(master, config.datasets["A"], 1)

    @pytest.mark.parametrize("shape", ["gaussian", "gbell", "trapezoid", "triangle"])
    def test_bench_fit_bit_identical_to_lstsq_first(self, split_a, shape, monkeypatch):
        # bench split A, seed 1, 15 epochs: every solve is certified, and the certificate
        # changes nothing against trying lstsq first.  Where every rule fires (gaussian,
        # gbell) the oracle is `identify_consequents_oracle` on the full regressors; where
        # some rule never fires (trapezoid, triangle) it solves the fired rules' columns alone
        train, test = split_a

        def fit():
            model = AnfisModel.grid(unit_variables(3, shape))
            model, report = anfis_train(model, (train.x, train.y), None, epochs=15, seed=1)
            return model, report, forward_batch(model, test.x)[0]

        model, report, pred = fit()
        solves, blocks = report.extras["consequent_solves"], report.extras["certified_blocks"]
        assert solves == {"lstsq": 0, "ridge": 0, "certified": 16}
        assert sum(blocks.values()) == 16
        assert report.extras["fired_rules"] == {"gaussian": 81, "gbell": 81,
                                                "trapezoid": 31, "triangle": 52}[shape]
        monkeypatch.setattr(anfis, "_identify_consequents", fired_columns_oracle)
        want_model, want_report, want_pred = fit()
        assert want_report.extras["consequent_solves"] == {"lstsq": 0, "ridge": 16, "certified": 0}
        assert np.array_equal(report.rmse_per_epoch, want_report.rmse_per_epoch)
        assert np.array_equal(model.consequents, want_model.consequents)
        assert np.array_equal(pred, want_pred)


@st.composite
def systems_with_unfired_rules(draw):
    """(wbar, xa, y): a tall system whose (P, R) strengths have 1 to R - 1 zero columns, rows
    normalized over the fired rules as layer 4 gives them, and xa = [x, 1]."""
    n_rules, n_inputs = draw(st.integers(2, 9)), draw(st.integers(1, 3))
    fired = draw(st.lists(st.booleans(), min_size=n_rules, max_size=n_rules)
                 .filter(lambda f: 0 < sum(f) < n_rules))
    n_samples = draw(st.integers(n_rules * (n_inputs + 1), 2 * n_rules * (n_inputs + 1) + 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.uniform(0.0, 1.0, size=(n_samples, n_rules)) ** draw(st.sampled_from([1, 4]))
    w[:, ~np.array(fired)] = 0.0
    w[w.sum(axis=1) == 0.0, int(np.argmax(fired))] = 1.0
    xa = np.column_stack([rng.uniform(0.0, 1.0, size=(n_samples, n_inputs)), np.ones(n_samples)])
    return w / w.sum(axis=1)[:, None], xa, rng.normal(size=n_samples)


class TestFiredRuleSolve:
    """The consequent solve runs over the rules that fire; the others get consequents 0.0."""

    @settings(max_examples=200, deadline=None)
    @given(system=systems_with_unfired_rules())
    def test_equals_the_full_ridge_solve(self, system):
        wbar, xa, y = system
        solves = Counter()
        consequents, residuals = anfis._identify_consequents(wbar, xa, y, solves)
        assert solves == {"certified": 1, "strengths": 1}
        unfired = ~wbar.any(axis=0)
        assert np.all(consequents[unfired] == 0.0)
        full = anfis._regressors(wbar, xa)
        want = full @ ridge_solve(full, y)
        fitted = full @ consequents.ravel()
        assert np.linalg.norm(fitted - want) <= 1e-9 * np.linalg.norm(want)
        np.testing.assert_allclose(residuals, fitted - y, rtol=0, atol=1e-12)

    @staticmethod
    def diagonal_data():
        t = np.random.default_rng(17).uniform(0, 1, size=60)
        return np.column_stack([t, t]), np.sin(3 * t)

    @staticmethod
    def forbid_rank_tests(monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a rank test ran")

        monkeypatch.setattr(anfis, "fails_rank_test", boom)
        monkeypatch.setattr(np.linalg, "svd", boom)

    @pytest.mark.parametrize("shape", ["trapezoid", "triangle"])
    def test_unfired_rule_runs_no_rank_test_or_svd(self, shape, monkeypatch):
        # on the line x1 = x0 rules (0, 2) and (2, 0) of a 3 x 3 compact-support grid never
        # fire: their zero strength columns certify the solve, with no SVD taken
        self.forbid_rank_tests(monkeypatch)
        X, y = self.diagonal_data()
        solves = Counter()
        trained, _ = hybrid_epoch(small_model(2, 3, shape=shape), X, y,
                                  StepSizeController(0.01), solves)
        assert solves == {"certified": 1, "strengths": 1}
        assert np.all(trained.consequents[[2, 6]] == 0.0)

    def test_fit_reports_its_fired_rules(self, monkeypatch):
        # the trapezoids' flat tops keep rules (0, 2) and (2, 0) unfired in every epoch
        self.forbid_rank_tests(monkeypatch)
        X, y = self.diagonal_data()
        trained, report = anfis_train(small_model(2, 3, shape="trapezoid"), (X, y), None, epochs=3)
        assert report.extras["consequent_solves"] == {"lstsq": 0, "ridge": 0, "certified": 4}
        assert report.extras["certified_blocks"] == {"strengths": 4, "strengths_x0": 0}
        assert report.extras["fired_rules"] == 7
        assert np.all(trained.consequents[[2, 6]] == 0.0)

    def test_every_rule_fired_keeps_the_rank_test(self, monkeypatch):
        # where every rule fires the certificate still takes its SVD
        calls = Counter()
        real = anfis.fails_rank_test
        monkeypatch.setattr(anfis, "fails_rank_test",
                            lambda block: calls.update(["svd"]) or real(block))
        solves = Counter()
        hybrid_epoch(small_model(2, 3), *self.diagonal_data(), StepSizeController(0.01), solves)
        assert solves == {"certified": 1, "strengths": 1} and calls == {"svd": 1}
