"""Acceptance criteria, one test per criterion, each printing a PASS line.

The two ordering criteria and the computational-load criterion share one
full-default benchmark run (module-scoped fixture, several minutes).  Run
with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import csv
import time
from dataclasses import replace

import numpy as np
import pytest

from softdss import tace
from softdss.anfis import (
    AnfisModel,
    StepSizeController,
    forward_batch,
    hybrid_epoch,
    premise_gradient,
    update_step_size,
)
from softdss.bench import BenchConfig, run_bench
from softdss.cart import grow, predict_batch, prune_sequence
from softdss.cli import main as cli_main
from softdss.fuzzy import LinguisticVariable
from softdss.linalg import lse_batch, rls_init, rls_update
from softdss.mamdani import (
    decode_centers,
    encode_centers,
    surrogate_gradient,
    surrogate_rmse,
    wang_mendel,
)
from softdss.mlp import MlpModel, mlp_gradient, mlp_init, mlp_loss

from test_cart import brute_force_root_split
from test_mamdani_learn import brute_force_rules, worked_example_setup


def report(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def interior_anfis(n_inputs, n_mfs, shape, seed):
    variables = []
    for i in range(n_inputs):
        inner = LinguisticVariable.uniform(f"x{i}", 0.25, 0.75, n_mfs, shape=shape)
        variables.append(LinguisticVariable(f"x{i}", 0.0, 1.0, inner.mfs))
    rng = np.random.default_rng(seed)
    n_rules = int(np.prod([v.n_mfs for v in variables]))
    return AnfisModel.grid(
        variables, consequents=rng.normal(size=(n_rules, n_inputs + 1))
    )


@pytest.fixture(scope="module")
def full_bench(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_bench")
    start = time.perf_counter()
    result = run_bench(BenchConfig(), out)
    wall = time.perf_counter() - start
    return out, result, wall


def _runs(result, paradigm, dataset):
    return {
        r["seed"]: r
        for r in result["runs"]
        if r["paradigm"] == paradigm and r["dataset"] == dataset and "error" not in r
    }


def test_criterion_01_rls_equals_batch_lse():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        rows = int(rng.integers(12, 51))
        cols = int(rng.integers(2, 11))
        a = rng.normal(size=(rows, cols))
        y = rng.normal(size=rows)
        state = rls_init(cols, gamma=1e8)
        for row, target in zip(a, y):
            state = rls_update(state, row, target)
        worst = max(worst, float(np.abs(state.estimate - lse_batch(a, y)).max()))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-6 and elapsed < 5.0,
        f"RLS == batch LSE on 50 systems, max abs diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_gradient_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(7)

    # ANFIS premise gradients: 1e-4 relative
    anfis_checked, anfis_ok = 0, True
    for si, shape in enumerate(("gaussian", "gbell", "triangle", "trapezoid")):
        model = interior_anfis(2, 3, shape, seed=si)
        X = rng.uniform(0.05, 0.95, size=(25, 2))
        y = rng.uniform(0, 1, size=25)
        pred, trace = forward_batch(model, X)
        grad = premise_gradient(trace, model.consequents, pred - y)
        h = 1e-6
        for k in range(grad.shape[0]):
            step = np.zeros(grad.shape[0])
            step[k] = h  # one parameter moved by -+h; `project` leaves interior MFs as they are

            def total_e(step):
                moved = replace(model, inputs=model.input_layer.stepped(step).to_variables())
                p, _ = forward_batch(moved, X)
                return 0.5 * float(np.sum((p - y) ** 2))

            numeric = (total_e(-step) - total_e(step)) / (2 * h)
            if abs(numeric) < 1e-8:  # below the central-difference noise floor
                continue
            anfis_ok &= abs(grad[k] - numeric) <= 1e-4 * max(abs(numeric), 1e-8)
            anfis_checked += 1

    # Mamdani GD gradients: 1e-3 relative
    mam_checked, mam_ok = 0, True
    for trial in range(6):
        trial_rng = np.random.default_rng(100 + trial)
        inputs = [
            LinguisticVariable.uniform(f"x{i}", 0.0, 1.0, 3, shape="triangle")
            for i in range(2)
        ]
        output = LinguisticVariable.uniform("y", 0.0, 1.0, 3, shape="triangle")
        X = trial_rng.uniform(0, 1, size=(40, 2))
        yv = np.clip(0.6 * X[:, 0] + 0.4 * X[:, 1], 0, 1)
        model = wang_mendel(X, yv, inputs, output)
        genes, lo, hi = encode_centers(model)
        genes = lo + (hi - lo) * np.sort(trial_rng.uniform(0.15, 0.85, size=genes.shape))
        model = decode_centers(model, genes)
        genes, lo, hi = encode_centers(model)
        grad = surrogate_gradient(model, X, yv)
        h = 1e-6
        for k in range(genes.shape[0]):
            up, down = genes.copy(), genes.copy()
            up[k] += h
            down[k] -= h
            if up[k] > hi[k] or down[k] < lo[k]:
                continue

            def mean_e(g):
                return 0.5 * surrogate_rmse(decode_centers(model, g), X, yv) ** 2

            numeric = (mean_e(up) - mean_e(down)) / (2 * h)
            if abs(numeric) < 1e-12:
                continue
            mam_ok &= abs(grad[k] - numeric) <= 1e-3 * max(abs(numeric), 1e-9)
            mam_checked += 1

    # MLP gradients: 1e-6 relative
    net = mlp_init(4, 12, seed=3)  # 73 weights
    X = rng.normal(size=(30, 4))
    d = rng.normal(size=30)
    grad = mlp_gradient(net, X, d)
    h = 1e-6
    mlp_checked, mlp_ok = 0, True
    for k in range(net.weights.shape[0]):
        up, down = net.weights.copy(), net.weights.copy()
        up[k] += h
        down[k] -= h
        numeric = (
            mlp_loss(MlpModel(4, 12, up), X, d) - mlp_loss(MlpModel(4, 12, down), X, d)
        ) / (2 * h)
        mlp_ok &= abs(grad[k] - numeric) <= 1e-6 * max(abs(numeric), 1e-3)
        mlp_checked += 1

    elapsed = time.perf_counter() - start
    ok = (
        anfis_ok and mam_ok and mlp_ok
        and anfis_checked >= 50 and mam_checked >= 50 and mlp_checked >= 50
        and elapsed < 30.0
    )
    report(
        2,
        ok,
        f"gradient oracles: anfis {anfis_checked} params @1e-4, "
        f"mamdani {mam_checked} @1e-3, mlp {mlp_checked} @1e-6, {elapsed:.1f}s",
    )


def test_criterion_03_lse_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(31)

    # realizable target: post-LSE training RMSE vanishes in epoch 1
    teacher = interior_anfis(2, 2, "gaussian", seed=5)
    X = rng.uniform(0, 1, size=(80, 2))
    y_real, _ = forward_batch(teacher, X)
    student = AnfisModel.grid(teacher.inputs)
    _, rmse1 = hybrid_epoch(student, X, y_real, StepSizeController(0.01))

    # per-epoch consequent optimality under perturbation
    model = AnfisModel.grid(interior_anfis(2, 2, "gaussian", seed=6).inputs)
    y = rng.uniform(0, 1, size=80)
    controller = StepSizeController(0.01)
    never_improved = True
    for _ in range(5):
        _, trace = forward_batch(model, X)
        model, epoch_rmse = hybrid_epoch(model, X, y, controller)
        base = float(np.sum((trace.regressors @ model.consequents.ravel() - y) ** 2))
        flat = model.consequents.ravel()
        for _ in range(100):
            perturbed = flat + rng.normal(size=flat.shape) * 1e-4
            sse = float(np.sum((trace.regressors @ perturbed - y) ** 2))
            never_improved &= sse >= base - 1e-12
        controller = update_step_size(controller, epoch_rmse)
    elapsed = time.perf_counter() - start
    ok = rmse1 < 1e-8 and never_improved and elapsed < 60.0
    report(
        3,
        ok,
        f"LSE optimality: realizable epoch-1 RMSE {rmse1:.2e}, "
        f"500 perturbations never improved SSE, {elapsed:.1f}s",
    )


def test_criterion_04_step_size_heuristics():
    ctl = StepSizeController(0.1)
    for err in (5.0, 4.0, 3.0, 2.0, 1.0):
        ctl = update_step_size(ctl, err)
    grew = ctl.k == pytest.approx(0.11)
    ctl = StepSizeController(0.1)
    for err in (1.0, 2.0, 1.0, 2.0, 1.0):
        ctl = update_step_size(ctl, err)
    shrank = ctl.k == pytest.approx(0.09)
    ctl = StepSizeController(0.1)
    for err in (3.0, 3.0, 3.0, 3.0, 3.0):
        ctl = update_step_size(ctl, err)
    flat = ctl.k == 0.1

    # randomized audit: firing must match an independent window-tracker
    rng = np.random.default_rng(41)
    audit_ok = True
    for _ in range(1000):
        n = int(rng.integers(5, 12))
        errors = rng.integers(0, 4, size=n).astype(float)
        ctl = StepSizeController(1.0)
        window: list[float] = []
        expected_k = 1.0
        for e in errors:
            ctl = update_step_size(ctl, e)
            window = (window + [e])[-5:]
            if len(window) == 5:
                diffs = np.diff(window)
                if np.all(diffs < 0):
                    expected_k *= 1.1
                    window = [e]
                elif np.all(diffs != 0) and np.all(
                    np.sign(diffs)[1:] == -np.sign(diffs)[:-1]
                ):
                    expected_k *= 0.9
                    window = [e]
            audit_ok &= ctl.k == pytest.approx(expected_k)
    ok = grew and shrank and flat and audit_ok
    report(
        4,
        ok,
        "step-size rules fire on the two example sequences and nowhere else "
        "in a 1000-case audit",
    )


def test_criterion_05_wang_mendel_exactness():
    inputs, output = worked_example_setup()
    m1 = wang_mendel(np.array([[0.4, 0.1]]), np.array([0.3]), inputs, output)
    exact_low = m1.rules[0].weight == 0.8 * 0.2 * 0.6
    m2 = wang_mendel(
        np.array([[0.4, 0.1], [0.4, 0.3]]), np.array([0.3, 0.4]), inputs, output
    )
    kept_max = (
        len(m2.rules) == 1 and m2.rules[0].weight == 0.8 * 0.6 * 0.8
    )

    rng = np.random.default_rng(51)
    oracle_ok = True
    for _ in range(20):
        n = int(rng.integers(5, 101))
        ins = [
            LinguisticVariable.uniform(f"x{i}", 0.0, 1.0, int(rng.integers(2, 4)))
            for i in range(2)
        ]
        out = LinguisticVariable.uniform("y", 0.0, 1.0, 3, shape="triangle")
        X = rng.uniform(0, 1, size=(n, 2))
        yv = rng.uniform(0, 1, size=n)
        model = wang_mendel(X, yv, ins, out)
        oracle = brute_force_rules(X, yv, ins, out)
        oracle_ok &= {r.antecedent for r in model.rules} == set(oracle)
        for rule in model.rules:
            degree, cons = oracle[rule.antecedent]
            oracle_ok &= abs(rule.weight - degree) < 1e-12 and rule.consequent == cons
    ok = exact_low and kept_max and oracle_ok
    report(
        5,
        ok,
        "worked-example degrees 0.096/0.384 exact, conflict keeps 0.384, "
        "20 datasets match the brute-force group-max oracle",
    )


def test_criterion_06_gaussian_beats_trapezoid(full_bench):
    _, result, _ = full_bench
    detail = []
    ok = True
    sweep_wall = 0.0
    for ds in ("A", "B"):
        gauss = _runs(result, "anfis-gaussian", ds)
        trap = _runs(result, "anfis-trapezoid", ds)
        sweep_wall += sum(r["wall_time"] for r in gauss.values())
        sweep_wall += sum(r["wall_time"] for r in trap.values())
        wins = sum(
            gauss[s]["test_rmse"] < trap[s]["test_rmse"] for s in (1, 2, 3)
        )
        detail.append(f"{ds}: gaussian wins {wins}/3")
        ok &= wins >= 2
    ok &= sweep_wall < 600.0
    report(6, ok, f"gaussian vs trapezoid test RMSE, {'; '.join(detail)}, "
                  f"sweep wall {sweep_wall:.0f}s")


def test_criterion_07_takagi_sugeno_wins(full_bench):
    _, result, wall = full_bench
    paradigms = {"anfis": "anfis-gaussian", "mamdani-ga": "mamdani-ga",
                 "mlp": "mlp", "cart": "cart"}
    detail = []
    ok = True
    for ds in ("A", "B"):
        per_seed = {
            name: _runs(result, key, ds) for name, key in paradigms.items()
        }
        wins = 0
        for s in (1, 2, 3):
            scores = {name: runs[s]["test_rmse"] for name, runs in per_seed.items()}
            wins += min(scores, key=scores.get) == "anfis"
        detail.append(f"{ds}: anfis lowest {wins}/3")
        ok &= wins >= 2
    ok &= wall < 1800.0
    report(7, ok, f"paradigm ordering, {'; '.join(detail)}, bench wall {wall:.0f}s")


def test_criterion_08_cart_cheapest(full_bench):
    _, result, _ = full_bench
    cart_wall = sum(
        r["wall_time"] for r in result["runs"] if r["paradigm"] == "cart"
    )
    anfis_wall = sum(
        r["wall_time"] for r in result["runs"] if r["paradigm"] == "anfis-gaussian"
    )
    report(
        8,
        cart_wall < anfis_wall,
        f"computational load: cart {cart_wall:.1f}s < anfis hybrid {anfis_wall:.1f}s",
    )


def test_criterion_09_ga_contract(full_bench):
    _, result, _ = full_bench
    ok = True
    detail = []
    for ds in ("A", "B"):
        runs = _runs(result, "mamdani-ga", ds)
        improved = 0
        for s in (1, 2, 3):
            run = runs[s]
            curve = run["curve"]
            ok &= len(curve) == 100 and np.all(np.diff(curve) >= 0)
            improved += run["test_rmse"] < run["extras"]["untuned_test_rmse"]
        detail.append(f"{ds}: improved {improved}/3 seeds")
        ok &= improved >= 2
    report(9, ok, f"GA: monotone best fitness over 100 generations, {'; '.join(detail)}")


def test_criterion_10_cart_oracles():
    rng = np.random.default_rng(101)
    split_ok, prune_ok, leaf_ok = True, True, True
    for _ in range(20):
        n = int(rng.integers(10, 31))
        X = rng.uniform(size=(n, 2))
        y = rng.uniform(size=n)
        tree = grow(X, y, min_leaf=2)
        oracle = brute_force_root_split(X, y, min_leaf=2)
        if oracle is None:
            split_ok &= tree.is_leaf
        else:
            split_ok &= (
                not tree.is_leaf
                and tree.split_variable == oracle[1]
                and abs(tree.threshold - oracle[2]) < 1e-12
            )
        seq = prune_sequence(tree, X, y, folds=5, seed=1, min_leaf=2)
        alphas = [e.alpha for e in seq]
        counts = [e.terminal_count for e in seq]
        prune_ok &= all(a < b for a, b in zip(alphas, alphas[1:]))
        prune_ok &= all(a >= b for a, b in zip(counts, counts[1:]))
        preds = predict_batch(tree, X)
        for leaf_pred in np.unique(preds):
            members = preds == leaf_pred
            leaf_ok &= abs(y[members].mean() - leaf_pred) < 1e-12
    ok = split_ok and prune_ok and leaf_ok
    report(
        10,
        ok,
        "20 instances: root split == exhaustive enumeration, alphas strictly "
        "increase, terminal counts non-increasing, leaves are target means",
    )


def test_criterion_11_data_fidelity():
    clean = tace.interpolate_inputs(np.arange(11.0))
    anchors = np.array([tuple(s) for s in tace.anchor_table()])
    anchors_ok = np.array_equal(clean, anchors[:, :4]) and np.array_equal(
        anchors[:, 4], np.arange(11.0)
    )
    data = tace.generate(99, 10_000, jitter=False)
    mono_ok = True
    for j, increasing in ((0, True), (1, False), (2, True), (3, False)):
        order = np.argsort(data.x[:, j], kind="stable")
        diffs = np.diff(data.y[order])
        mono_ok &= bool(np.all(diffs >= -1e-12) if increasing else np.all(diffs <= 1e-12))
    report(
        11,
        anchors_ok and mono_ok,
        "jitter-off generator reproduces all 11 anchors exactly; "
        "monotonicity scan passes on 10^4 samples",
    )


def test_criterion_12_reproducibility(tmp_path):
    config = (
        '{"seeds": [1, 2], "n": 200, '
        '"anfis": {"epochs": 2, "shapes": ["gaussian", "trapezoid"]}, '
        '"mamdani": {"gd_epochs": 2, "population": 6, "generations": 3}, '
        '"mlp": {"hidden": {"A": 5, "B": 5}, "epochs": 20}, '
        '"cart": {"min_leaf": 5, "folds": 3}}'
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["bench", "--out", str(a), "--config", config]) == 0
    assert cli_main(["bench", "--out", str(b), "--config", config]) == 0

    def strip_wall(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("wall_time")
        return [tuple(c for i, c in enumerate(row) if i != drop) for row in rows]

    identical = strip_wall(a / "summary.csv") == strip_wall(b / "summary.csv")
    identical &= (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
    report(
        12,
        identical,
        "two cmd_bench executions produce byte-identical summaries "
        "(wall-time column excluded)",
    )
