"""Wang-Mendel extraction, gradient tuning, the genetic optimizer, and the trainers' data check."""

import re
from collections import Counter

import numpy as np
import pytest

from softdss import mamdani
from softdss.anfis import AnfisModel, anfis_train
from softdss.cart import grow
from softdss.errors import TrainingDivergedError
from softdss.fuzzy import (
    MF_SHAPES,
    InputLayer,
    LinguisticVariable,
    MamdaniModel,
    TrapezoidMF,
    TriangleMF,
    rule_strengths,
    strength_backprop,
)
from softdss.mamdani import (
    GaConfig,
    decode_centers,
    encode_centers,
    ga_optimize,
    gd_tune,
    surrogate_gradient,
    surrogate_rmse,
    wang_mendel,
)
from softdss.mlp import mlp_init, scg_train
from softdss.report import rmse


def worked_example_setup():
    """Variables crafted so the two textbook samples hit degrees 0.8/0.2/0.6
    and 0.8/0.6/0.8 exactly (rising ramps of width 0.5 make the quotients
    exact in binary floating point)."""
    x1 = LinguisticVariable(
        "x1", 0.0, 2.0,
        [TriangleMF(0.0, 0.5, 1.0), TriangleMF(1.0, 1.5, 2.0)],
        labels=["half", "full"],
    )
    x2 = LinguisticVariable(
        "x2", 0.0, 2.0,
        [TriangleMF(0.0, 0.5, 1.0), TriangleMF(1.2, 1.6, 2.0)],
        labels=["fast", "normal"],
    )
    y = LinguisticVariable(
        "y", 0.0, 2.0,
        [TriangleMF(0.0, 0.5, 1.0), TriangleMF(1.2, 1.6, 2.0)],
        labels=["acceptable", "good"],
    )
    return [x1, x2], y


def brute_force_rules(X, y, inputs, output):
    """Group candidate rules by antecedent, keep the max degree (test oracle)."""
    groups = {}
    for p in range(len(y)):
        ant, degree = [], 1.0
        for v, var in enumerate(inputs):
            degrees = [float(mf.evaluate(var.clip(X[p, v]))) for mf in var.mfs]
            best = int(np.argmax(degrees))
            ant.append(best)
            degree *= degrees[best]
        out_degrees = [float(mf.evaluate(output.clip(y[p]))) for mf in output.mfs]
        cons = int(np.argmax(out_degrees))
        degree *= out_degrees[cons]
        key = tuple(ant)
        if key not in groups or degree > groups[key][0]:
            groups[key] = (degree, cons)
    return {key: val for key, val in groups.items()}


def reference_ga(model, X, y, config, initial_population=None):
    """The GA scoring every individual every generation, no cache (test oracle).

    Draws the same random numbers as `ga_optimize`.  Returns (best genes,
    curve, distinct genomes scored).
    """
    rng = np.random.default_rng(config.seed)
    base, lo, hi = encode_centers(model)
    n_genes = base.shape[0]
    if initial_population is not None:
        pop = np.array(initial_population, dtype=float)
    else:
        pop = np.empty((config.population, n_genes))
        pop[0] = base
        pop[1:] = rng.uniform(lo, hi, size=(config.population - 1, n_genes))
    seen = set()

    def score(population):
        seen.update(ind.tobytes() for ind in population)
        return np.array([-decode_centers(model, ind).rmse(X, y) for ind in population])

    def tournament(fit):
        idx = rng.integers(0, config.population, size=config.tournament_size)
        return idx[np.argmax(fit[idx])]

    fit = score(pop)
    curve = []
    for _ in range(config.generations):
        order = np.argsort(-fit, kind="stable")
        new_pop = [pop[i].copy() for i in order[: config.elite_count]]
        while len(new_pop) < config.population:
            p1, p2 = tournament(fit), tournament(fit)
            cut = int(rng.integers(1, n_genes)) if n_genes > 1 else 0
            child = np.concatenate([pop[p1][:cut], pop[p2][cut:]])
            mask = rng.random(n_genes) < config.mutation_rate
            if np.any(mask):
                child[mask] = rng.uniform(lo[mask], hi[mask])
            new_pop.append(child)
        pop = np.array(new_pop)
        fit = score(pop)
        curve.append(float(fit.max()))
    return pop[int(np.argmax(fit))], curve, len(seen)


def reference_surrogate(model, X, y):
    """The surrogate pass and its center gradient MF by MF, through each MF's own
    `gradient` (test oracle): (surrogate RMSE, gradient).

    The rule weights are multiplied in last, as inference does, and the center gradient
    sums each MF's `location` entries of `gradient(x).T @ d`.
    """
    xc, mu = model.input_layer.fuzzify(X)
    acts = rule_strengths(mu, model.antecedent_index) * model.rule_weights
    z = np.array([mf.centroid() for mf in model.output.mfs])[model.consequent_index]
    den = acts.sum(axis=1)
    fired = den > 0
    safe = np.where(fired, den, 1.0)
    yhat = np.where(fired, (acts @ z) / safe, model.midpoint)
    r_err = (yhat - y) / acts.shape[0]
    coef = np.where(fired[:, None], r_err[:, None] * (z[None, :] - yhat[:, None]) / safe[:, None], 0.0)
    d_mu = strength_backprop(mu, model.antecedent_index, coef * model.rule_weights)
    grads = [(mf.gradient(xc[:, v]).T @ d_mu[v][j])[list(mf.location)].sum()
             for v, var in enumerate(model.inputs) for j, mf in enumerate(var.mfs)]
    act_over_den = np.where(fired[:, None], acts / safe[:, None], 0.0)
    for j in range(model.output.n_mfs):
        grads.append(float(r_err @ act_over_den[:, model.consequent_index == j].sum(axis=1)))
    return rmse(yhat - y), np.array(grads)


def reference_gd(model, X, y, learning_rate, momentum, epochs):
    """Gradient descent decoding a model every epoch (test oracle): (model, curve)."""
    genes, lo, hi = encode_centers(model)
    velocity = np.zeros_like(genes)
    curve = []
    for _ in range(epochs):
        err, grad = reference_surrogate(model, X, y)
        curve.append(err)
        velocity = momentum * velocity - learning_rate * grad
        genes = np.clip(genes + velocity, lo, hi)
        model = decode_centers(model, genes)
    return model, curve


def encode_centers_oracle(model):
    """The center vector and its bounds MF by MF, inputs then output (test oracle)."""
    genes, lo, hi = [], [], []
    for var in list(model.inputs) + [model.output]:
        for mf in var.mfs:
            genes.append(mf.center)
            lo.append(var.lo)
            hi.append(var.hi)
    return np.array(genes), np.array(lo), np.array(hi)


def mf_params(model):
    return [mf.params for var in list(model.inputs) + [model.output] for mf in var.mfs]


def shaped_model(shape, rng, n=120, output_shape="triangle"):
    """A Wang-Mendel model with `shape` input MFs on unlike ranges, and its data."""
    inputs = [LinguisticVariable.uniform("x0", 0.0, 1.0, 3, shape=shape),
              LinguisticVariable.uniform("x1", -2.0, 3.0, 2, shape=shape)]
    output = LinguisticVariable.uniform("y", 0.0, 1.0, 3, shape=output_shape)
    X = np.column_stack([rng.uniform(0, 1, n), rng.uniform(-2.5, 3.5, n)])
    y = np.clip(0.5 * X[:, 0] + 0.1 * X[:, 1] + 0.1 * rng.standard_normal(n), 0, 1)
    return wang_mendel(X, y, inputs, output), X, y


def tace_style_model(rng):
    inputs = [
        LinguisticVariable.uniform(f"x{i}", 0.0, 1.0, 3, shape="triangle") for i in range(2)
    ]
    output = LinguisticVariable.uniform("y", 0.0, 1.0, 3, shape="triangle")
    X = rng.uniform(0, 1, size=(60, 2))
    y = np.clip(0.6 * X[:, 0] + 0.4 * X[:, 1], 0, 1)
    return wang_mendel(X, y, inputs, output), X, y


class TestWangMendel:
    def test_worked_example_degrees_exact(self):
        inputs, output = worked_example_setup()
        # memberships 0.8 in half, 0.2 in fast, 0.6 in acceptable
        X = np.array([[0.4, 0.1]])
        y = np.array([0.3])
        model = wang_mendel(X, y, inputs, output)
        assert len(model.rules) == 1
        rule = model.rules[0]
        assert rule.antecedent == (0, 0)
        assert rule.consequent == 0
        assert rule.weight == 0.8 * 0.2 * 0.6
        assert rule.weight == pytest.approx(0.096, abs=1e-15)

    def test_conflict_resolution_keeps_max_degree(self):
        inputs, output = worked_example_setup()
        # same antecedent regions, degrees 0.096 vs 0.384: the larger survives
        X = np.array([[0.4, 0.1], [0.4, 0.3]])
        y = np.array([0.3, 0.4])
        model = wang_mendel(X, y, inputs, output)
        assert len(model.rules) == 1
        assert model.rules[0].weight == 0.8 * 0.6 * 0.8
        assert model.rules[0].weight == pytest.approx(0.384, abs=1e-15)

    def test_single_pair_single_rule(self):
        inputs, output = worked_example_setup()
        model = wang_mendel(np.array([[0.5, 0.5]]), np.array([0.5]), inputs, output)
        assert len(model.rules) == 1

    def test_antecedents_distinct_and_bounded(self):
        rng = np.random.default_rng(0)
        model, X, _ = tace_style_model(rng)
        antecedents = [r.antecedent for r in model.rules]
        assert len(antecedents) == len(set(antecedents))
        assert len(model.rules) <= 9

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(5, 100))
            inputs = [
                LinguisticVariable.uniform(f"x{i}", 0.0, 1.0, int(rng.integers(2, 4)))
                for i in range(2)
            ]
            output = LinguisticVariable.uniform("y", 0.0, 1.0, 3, shape="triangle")
            X = rng.uniform(0, 1, size=(n, 2))
            y = rng.uniform(0, 1, size=n)
            model = wang_mendel(X, y, inputs, output)
            oracle = brute_force_rules(X, y, inputs, output)
            assert {r.antecedent for r in model.rules} == set(oracle)
            for rule in model.rules:
                degree, cons = oracle[rule.antecedent]
                assert rule.weight == pytest.approx(degree, abs=1e-12)
                assert rule.consequent == cons

    def test_output_fuzzified_through_a_layer_table(self, monkeypatch):
        def per_variable(self, x):
            raise AssertionError("wang_mendel fuzzified a variable on its own")

        monkeypatch.setattr(LinguisticVariable, "fuzzify", per_variable)
        rng = np.random.default_rng(2)
        inputs = [LinguisticVariable.uniform(f"x{i}", 0.0, 1.0, 3) for i in range(2)]
        output = LinguisticVariable.uniform("y", -1.0, 2.0, 4, shape="trapezoid")
        X, y = rng.uniform(0, 1, size=(80, 2)), rng.uniform(-1.5, 2.5, size=80)
        model = wang_mendel(X, y, inputs, output)
        oracle = brute_force_rules(X, y, inputs, output)
        assert {r.antecedent: (r.weight, r.consequent) for r in model.rules} == oracle

    def test_wrong_width_reported_against_the_inputs(self):
        inputs = [LinguisticVariable.uniform(f"x{i}", 0.0, 1.0, 3) for i in range(4)]
        output = LinguisticVariable.uniform("y", 0.0, 1.0, 3, shape="triangle")
        X = np.random.default_rng(3).uniform(0, 1, size=(10, 3))
        with pytest.raises(ValueError, match=re.escape("expected (rows, 4) inputs, got shape (10, 3)")):
            wang_mendel(X, np.full(10, 0.5), inputs, output)


class TestGdTune:
    def test_zero_learning_rate_is_inert(self):
        rng = np.random.default_rng(2)
        model, X, y = tace_style_model(rng)
        before = encode_centers(model)[0]
        tuned, report = gd_tune(model, X, y, learning_rate=0.0, momentum=0.3, epochs=5)
        np.testing.assert_array_equal(encode_centers(tuned)[0], before)
        assert np.ptp(report.rmse_per_epoch) == 0.0

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        model, X, y = tace_style_model(rng)
        # move centers into the interior so every gene is perturbable
        genes, lo, hi = encode_centers(model)
        genes = lo + (hi - lo) * np.sort(rng.uniform(0.15, 0.85, size=genes.shape))
        model = decode_centers(model, genes)
        genes, lo, hi = encode_centers(model)
        grad = surrogate_gradient(model, X, y)
        h = 1e-6
        checked = 0
        for k in rng.permutation(genes.shape[0])[:30]:
            up, down = genes.copy(), genes.copy()
            up[k] += h
            down[k] -= h
            if up[k] > hi[k] or down[k] < lo[k]:
                continue
            def mean_err(g):
                m = decode_centers(model, g)
                return 0.5 * surrogate_rmse(m, X, y) ** 2
            numeric = (mean_err(up) - mean_err(down)) / (2 * h)
            if abs(numeric) < 1e-12:
                continue
            assert grad[k] == pytest.approx(numeric, rel=1e-3, abs=1e-9)
            checked += 1
        assert checked >= 8  # 9 genes total; at most one may be flat

    def test_curve_is_each_epochs_surrogate_rmse(self):
        # the epoch's error shares the gradient's surrogate pass; it must equal
        # surrogate_rmse of the model that epoch starts from, bit for bit
        rng = np.random.default_rng(9)
        model, X, y = tace_style_model(rng)
        _, report = gd_tune(model, X, y, learning_rate=0.5, momentum=0.3, epochs=4)
        assert report.rmse_per_epoch[0] == surrogate_rmse(model, X, y)
        for k in range(1, 4):
            tuned, _ = gd_tune(model, X, y, learning_rate=0.5, momentum=0.3, epochs=k)
            assert report.rmse_per_epoch[k] == surrogate_rmse(tuned, X, y)

    def test_small_step_never_increases_first_epoch(self):
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            model, X, y = tace_style_model(rng)
            e0 = surrogate_rmse(model, X, y)
            tuned, _ = gd_tune(model, X, y, learning_rate=1e-4, momentum=0.0, epochs=1)
            assert surrogate_rmse(tuned, X, y) <= e0 + 1e-12

    def test_reference_settings_reduce_error(self):
        rng = np.random.default_rng(4)
        model, X, y = tace_style_model(rng)
        initial = model.rmse(X, y)
        tuned, report = gd_tune(model, X, y, learning_rate=0.5, momentum=0.3, epochs=10)
        assert tuned.rmse(X, y) < initial
        assert len(report.rmse_per_epoch) == 10

    def test_centers_stay_in_range(self):
        rng = np.random.default_rng(5)
        model, X, y = tace_style_model(rng)
        tuned, _ = gd_tune(model, X, y, learning_rate=2.0, momentum=0.5, epochs=15)
        genes, lo, hi = encode_centers(tuned)
        assert np.all(genes >= lo) and np.all(genes <= hi)

    def test_divergence_aborts_with_epoch(self):
        # a pathological surrogate landscape: gigantic learning rate oscillates
        rng = np.random.default_rng(6)
        model, X, y = tace_style_model(rng)
        try:
            gd_tune(model, X, y, learning_rate=1e9, momentum=0.99, epochs=200)
        except TrainingDivergedError as exc:
            assert exc.epoch > 0
        # centers are clamped to the variable range, so divergence may be
        # impossible on this landscape; reaching here without error is valid

    def test_negative_learning_rate_rejected(self):
        rng = np.random.default_rng(7)
        model, X, y = tace_style_model(rng)
        with pytest.raises(ValueError):
            gd_tune(model, X, y, learning_rate=-0.1)

    @pytest.mark.parametrize("kwargs,message", [
        ({"momentum": np.nan}, "momentum must be finite, got nan"),
        ({"momentum": -np.inf}, "momentum must be finite, got -inf"),
        ({"learning_rate": np.inf}, "learning_rate must be finite and >= 0, got inf"),
        ({"learning_rate": np.nan}, "learning_rate must be finite and >= 0, got nan"),
    ])
    def test_non_finite_step_named(self, kwargs, message):
        # these used to fail inside decode_centers, naming a triangle's knots
        model, X, y = tace_style_model(np.random.default_rng(7))
        with pytest.raises(ValueError, match=f"^{message}$"):
            gd_tune(model, X, y, **kwargs)


class TestGaOptimize:
    def test_elitism_monotone_best_fitness(self):
        rng = np.random.default_rng(8)
        model, X, y = tace_style_model(rng)
        config = GaConfig(population=12, generations=25, mutation_rate=0.05, seed=1)
        _, curve = ga_optimize(model, X, y, config)
        assert len(curve) == 25
        assert np.all(np.diff(curve) >= 0)

    def test_no_variation_keeps_population_frozen(self):
        rng = np.random.default_rng(9)
        model, X, y = tace_style_model(rng)
        genes = encode_centers(model)[0]
        clones = np.tile(genes, (6, 1))
        config = GaConfig(population=6, generations=10, mutation_rate=0.0, seed=2)
        best, curve = ga_optimize(model, X, y, config, initial_population=clones)
        assert len(set(curve)) == 1  # nothing can change without a variation source
        np.testing.assert_array_equal(encode_centers(best)[0], genes)

    def test_final_at_least_initial(self):
        rng = np.random.default_rng(10)
        model, X, y = tace_style_model(rng)
        initial_fitness = -model.rmse(X, y)
        config = GaConfig(population=10, generations=20, mutation_rate=0.02, seed=3)
        best, curve = ga_optimize(model, X, y, config)
        assert curve[-1] >= initial_fitness - 1e-12
        assert -best.rmse(X, y) == pytest.approx(curve[-1], abs=1e-12)

    def test_evolved_centers_within_ranges(self):
        rng = np.random.default_rng(11)
        model, X, y = tace_style_model(rng)
        config = GaConfig(population=8, generations=15, mutation_rate=0.2, seed=4)
        best, _ = ga_optimize(model, X, y, config)
        genes, lo, hi = encode_centers(best)
        assert np.all(genes >= lo) and np.all(genes <= hi)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(12)
        model, X, y = tace_style_model(rng)
        config = GaConfig(population=8, generations=10, mutation_rate=0.05, seed=5)
        best1, curve1 = ga_optimize(model, X, y, config)
        best2, curve2 = ga_optimize(model, X, y, config)
        assert curve1 == curve2
        np.testing.assert_array_equal(encode_centers(best1)[0], encode_centers(best2)[0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GaConfig(population=1)
        with pytest.raises(ValueError):
            GaConfig(mutation_rate=1.5)
        with pytest.raises(ValueError):
            GaConfig(population=5, elite_count=5)

    @pytest.mark.parametrize(
        "config",
        [
            GaConfig(population=12, generations=15, mutation_rate=0.05, seed=6),
            GaConfig(population=10, generations=12, mutation_rate=0.1, elite_count=3, seed=7),
            GaConfig(population=8, generations=10, mutation_rate=0.0, seed=8),
        ],
        ids=["default", "three-elites", "no-mutation"],
    )
    def test_matches_cache_free_reference(self, config):
        rng = np.random.default_rng(13)
        model, X, y = tace_style_model(rng)
        evaluations = Counter()
        best, curve = ga_optimize(model, X, y, config, evaluations=evaluations)
        want_genes, want_curve, distinct = reference_ga(model, X, y, config)
        assert curve == want_curve
        np.testing.assert_array_equal(encode_centers(best)[0], want_genes)
        assert evaluations["distinct"] == distinct
        assert evaluations["lookups"] == config.population * (config.generations + 1)
        assert distinct < evaluations["lookups"]  # the elite alone repeats every generation

    def test_identical_population_scored_once(self):
        rng = np.random.default_rng(14)
        model, X, y = tace_style_model(rng)
        clones = np.tile(encode_centers(model)[0], (6, 1))
        config = GaConfig(population=6, generations=5, mutation_rate=0.0, seed=9)
        evaluations = Counter()
        ga_optimize(model, X, y, config, initial_population=clones, evaluations=evaluations)
        assert evaluations == Counter(distinct=1, lookups=36)


class TestNonFiniteData:
    """Every trainer, and every Mamdani scoring entry point, checks its data through
    `errors.finite_data`."""

    @pytest.mark.parametrize("bad", ["X", "y"])
    @pytest.mark.parametrize(
        "trainer",
        ["wang_mendel", "gd_tune", "ga_optimize", "anfis_train", "scg_train", "cart_grow",
         "surrogate_rmse", "surrogate_gradient", "mamdani_rmse"],
    )
    def test_rejected_naming_argument(self, trainer, bad):
        rng = np.random.default_rng(15)
        model, X, y = tace_style_model(rng)
        X, y = X.copy(), y.copy()
        if bad == "X":
            X[3, 1] = np.nan
        else:
            y[5] = np.inf
        calls = {
            "wang_mendel": lambda: wang_mendel(X, y, model.inputs, model.output),
            "gd_tune": lambda: gd_tune(model, X, y, epochs=2),
            "ga_optimize": lambda: ga_optimize(
                model, X, y, GaConfig(population=4, generations=2, seed=1)),
            "anfis_train": lambda: anfis_train(AnfisModel.grid(model.inputs), (X, y), None, 1),
            "scg_train": lambda: scg_train(mlp_init(2, 3), (X, y), None, 2),
            "cart_grow": lambda: grow(X, y),
            "surrogate_rmse": lambda: surrogate_rmse(model, X, y),
            "surrogate_gradient": lambda: surrogate_gradient(model, X, y),
            "mamdani_rmse": lambda: model.rmse(X, y),
        }
        with pytest.raises(ValueError, match=f"^{bad} holds non-finite values"):
            calls[trainer]()


class TestRowCounts:
    """X and y of different row counts are rejected by every trainer family and every Mamdani
    scoring entry point, naming both shapes."""

    @pytest.mark.parametrize("targets", [59, 1])  # one target must not be broadcast
    @pytest.mark.parametrize("trainer", ["wang_mendel", "anfis_train", "scg_train", "cart_grow",
                                         "surrogate_rmse", "surrogate_gradient", "mamdani_rmse"])
    def test_mismatched_rows_rejected(self, trainer, targets):
        rng = np.random.default_rng(16)
        model, X, y = tace_style_model(rng)
        y = y[:targets]  # 60 rows of X
        calls = {
            "wang_mendel": lambda: wang_mendel(X, y, model.inputs, model.output),
            "anfis_train": lambda: anfis_train(AnfisModel.grid(model.inputs), (X, y), None, 1),
            "scg_train": lambda: scg_train(mlp_init(2, 3), (X, y), None, 2),
            "cart_grow": lambda: grow(X, y),
            "surrogate_rmse": lambda: surrogate_rmse(model, X, y),
            "surrogate_gradient": lambda: surrogate_gradient(model, X, y),
            "mamdani_rmse": lambda: model.rmse(X, y),
        }
        message = rf"^X has shape \(60, 2\) but y has shape \({targets},\): row counts differ$"
        with pytest.raises(ValueError, match=message):
            calls[trainer]()


class TestWangMendelOrder:
    def test_rules_sorted_by_antecedent(self):
        rng = np.random.default_rng(17)
        inputs = [LinguisticVariable.uniform(f"x{i}", 0.0, 1.0, 2 + i, shape="triangle")
                  for i in range(3)]
        output = LinguisticVariable.uniform("y", 0.0, 1.0, 3, shape="triangle")
        X, y = rng.uniform(0, 1, size=(300, 3)), rng.uniform(0, 1, size=300)
        model = wang_mendel(X, y, inputs, output)
        oracle = brute_force_rules(X, y, inputs, output)
        assert [r.antecedent for r in model.rules] == sorted(oracle)
        assert [(r.weight, r.consequent) for r in model.rules] == [oracle[a] for a in sorted(oracle)]

    def test_first_row_of_maximal_degree_wins(self):
        # y = 0.2 and y = 0.3 have the same degree (0.6) in different output sets, so the
        # row that comes first picks the consequent
        output = LinguisticVariable.uniform("y", 0.0, 1.0, 3, shape="triangle")
        inputs = [LinguisticVariable.uniform("x", 0.0, 1.0, 3, shape="triangle")]
        X = np.array([[0.1], [0.1], [0.9]])
        first = wang_mendel(X, np.array([0.2, 0.3, 0.9]), inputs, output)
        second = wang_mendel(X, np.array([0.3, 0.2, 0.9]), inputs, output)
        assert [(r.antecedent, r.consequent) for r in first.rules] == [((0,), 0), ((2,), 2)]
        assert [(r.antecedent, r.consequent) for r in second.rules] == [((0,), 1), ((2,), 2)]
        assert first.rules[0].weight == second.rules[0].weight


class TestTableTuning:
    """Both tuners on the base model's layer tables: the bits of a model decoded per step."""

    @pytest.mark.parametrize("shape", ["gaussian", "gbell", "trapezoid", "triangle"])
    def test_encode_centers_reads_the_tables(self, shape):
        rng = np.random.default_rng(30)
        model, _, _ = shaped_model(shape, rng, output_shape="trapezoid")
        _, lo, hi = encode_centers(model)
        for m in (model, decode_centers(model, rng.uniform(lo, hi))):
            for got, want in zip(encode_centers(m), encode_centers_oracle(m)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("shape", ["gaussian", "gbell", "trapezoid", "triangle"])
    def test_fitness_is_decoded_rmse(self, shape):
        rng = np.random.default_rng(31)
        model, X, y = shaped_model(shape, rng, output_shape="trapezoid" if shape == "gbell" else "triangle")
        base, lo, hi = encode_centers(model)
        fitness = mamdani._fitness(model, X, y)
        genomes = [base, lo, hi, np.where(lo == 0.0, -0.0, lo), lo - 1.0, hi + 1.0]
        for _ in range(60):
            genes = rng.uniform(lo, hi)
            at_bound = rng.random(genes.size) < 0.3
            genes[at_bound] = np.where(rng.random(genes.size) < 0.5, lo, hi)[at_bound]
            genomes.append(genes)
        for genes in genomes:
            try:
                want = -decode_centers(model, genes).rmse(X, y)
            except ValueError as exc:  # a moved trapezoid center may round past its bound
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    fitness(genes)
                continue
            assert fitness(genes) == want

    def test_center_rounded_out_of_range_raises_as_decode_does(self):
        # this trapezoid's center moved to 0.0 lands on -5.6e-17, outside [0, 1]
        knots = (0.35779519670907023, 0.4858353588317891, 0.8894878343490003, 0.9340435159562497)
        inputs = [LinguisticVariable("x", 0.0, 1.0, [TrapezoidMF(*knots)])]
        output = LinguisticVariable.uniform("y", 0.0, 1.0, 2, shape="triangle")
        X, y = np.array([[0.6], [0.7]]), np.array([0.2, 0.9])
        model = wang_mendel(X, y, inputs, output)
        genes = encode_centers(model)[0]
        genes[0] = 0.0
        with pytest.raises(ValueError) as decoded:
            decode_centers(model, genes)
        assert str(decoded.value) == "variable 'x': MF center -5.551115123125783e-17 outside [0.0, 1.0]"
        with pytest.raises(ValueError) as moved:
            mamdani._fitness(model, X, y)(genes)
        assert str(moved.value) == str(decoded.value)
        with pytest.raises(ValueError) as tuned:
            ga_optimize(model, X, y, GaConfig(population=2, generations=1, seed=1),
                        initial_population=[genes, genes])
        assert str(tuned.value) == str(decoded.value)

    @pytest.mark.parametrize("shape,seed", [("triangle", 41), ("gaussian", 42), ("gbell", 43),
                                            ("trapezoid", 44)])
    def test_gd_matches_a_decode_per_epoch(self, shape, seed):
        model, X, y = shaped_model(shape, np.random.default_rng(seed))
        tuned, report = gd_tune(model, X, y, learning_rate=0.5, momentum=0.3, epochs=6)
        want, curve = reference_gd(model, X, y, 0.5, 0.3, 6)
        assert mf_params(tuned) == mf_params(want)
        assert report.rmse_per_epoch == curve
        assert report.final_train_rmse == want.rmse(X, y)
        assert [v.labels for v in tuned.inputs] == [v.labels for v in model.inputs]
        assert tuned.rules == model.rules

    def test_surrogate_gradient_matches_per_mf(self):
        for shape, seed in (("triangle", 45), ("gaussian", 46), ("gbell", 47), ("trapezoid", 48)):
            model, X, y = shaped_model(shape, np.random.default_rng(seed))
            err, grad = reference_surrogate(model, X, y)
            assert surrogate_rmse(model, X, y) == err
            assert np.array_equal(surrogate_gradient(model, X, y), grad)

    def test_surrogate_reads_the_inference_activations(self, monkeypatch):
        model, X, y = shaped_model("gaussian", np.random.default_rng(49))
        assert len(set(model.rule_weights.tolist()) - {1.0}) > 1
        seen = []
        activations = MamdaniModel.activations

        def recording(self, mu):
            seen.append(activations(self, mu))
            return seen[-1]

        monkeypatch.setattr(MamdaniModel, "activations", recording)
        surrogate_rmse(model, X, y)
        model.infer_batch(X)
        assert len(seen) == 2 and np.array_equal(seen[0], seen[1])
        # the weights multiplied in last
        mu = model.input_layer.fuzzify(X)[1]
        want = rule_strengths(mu, model.antecedent_index) * model.rule_weights
        assert np.array_equal(seen[0], want)

    @staticmethod
    def _count_builds(monkeypatch):
        built = []
        post_init = MamdaniModel.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(MamdaniModel, "__post_init__", counting)
        return built

    def test_ga_builds_only_the_returned_model(self, monkeypatch):
        model, X, y = tace_style_model(np.random.default_rng(51))
        built = self._count_builds(monkeypatch)
        decoded = []
        monkeypatch.setattr(mamdani, "decode_centers",
                            lambda m, g: decoded.append(g) or decode_centers(m, g))

        def no_inference(self, X):
            raise AssertionError("ga_optimize ran infer_batch")

        monkeypatch.setattr(MamdaniModel, "infer_batch", no_inference)
        best, _ = ga_optimize(model, X, y, GaConfig(population=10, generations=8, seed=2))
        assert built == [best] and len(decoded) == 1

    def test_gd_builds_one_model_and_no_per_mf_gradient(self, monkeypatch):
        model, X, y = tace_style_model(np.random.default_rng(52))
        built = self._count_builds(monkeypatch)

        def per_mf(self, x):
            raise AssertionError("gd_tune differentiated MF by MF")

        for cls in MF_SHAPES.values():
            monkeypatch.setattr(cls, "gradient", per_mf)
        monkeypatch.setattr(mamdani, "decode_centers", per_mf)
        tuned, _ = gd_tune(model, X, y, epochs=5)
        assert built == [tuned]

    def test_gd_builds_variables_only_for_its_result(self, monkeypatch):
        # one `to_variables` per layer, for the returned model; no epoch builds an output variable
        model, X, y = tace_style_model(np.random.default_rng(53))
        built = []
        to_variables = InputLayer.to_variables
        monkeypatch.setattr(InputLayer, "to_variables",
                            lambda layer: built.append(layer.names) or to_variables(layer))
        gd_tune(model, X, y)
        assert built == [["x0", "x1"], ["y"]]
