"""Wang-Mendel extraction, gradient tuning, the genetic optimizer, and the trainers' data check."""

from collections import Counter

import numpy as np
import pytest

from softdss.anfis import AnfisModel, anfis_train
from softdss.cart import grow
from softdss.errors import TrainingDivergedError
from softdss.fuzzy import LinguisticVariable, TriangleMF
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
    """Every trainer checks its training data through `errors.finite_data`."""

    @pytest.mark.parametrize("bad", ["X", "y"])
    @pytest.mark.parametrize(
        "trainer",
        ["wang_mendel", "gd_tune", "ga_optimize", "anfis_train", "scg_train", "cart_grow"],
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
        }
        with pytest.raises(ValueError, match=f"^{bad} holds non-finite values"):
            calls[trainer]()


class TestRowCounts:
    """X and y of different row counts are rejected by every trainer family, naming both shapes."""

    @pytest.mark.parametrize("targets", [59, 1])  # one target must not be broadcast
    @pytest.mark.parametrize("trainer", ["wang_mendel", "anfis_train", "scg_train", "cart_grow"])
    def test_mismatched_rows_rejected(self, trainer, targets):
        rng = np.random.default_rng(16)
        model, X, y = tace_style_model(rng)
        y = y[:targets]  # 60 rows of X
        calls = {
            "wang_mendel": lambda: wang_mendel(X, y, model.inputs, model.output),
            "anfis_train": lambda: anfis_train(AnfisModel.grid(model.inputs), (X, y), None, 1),
            "scg_train": lambda: scg_train(mlp_init(2, 3), (X, y), None, 2),
            "cart_grow": lambda: grow(X, y),
        }
        message = rf"^X has shape \(60, 2\) but y has shape \({targets},\): row counts differ$"
        with pytest.raises(ValueError, match=message):
            calls[trainer]()
