"""The four workloads and the run procedure they share.

Every workload runs the same steps:

1. prepare data from the workload seed: the n = 1000 master set the matrix
   uses, its train/test splits, and a separate 5000-row held-out draw;
2. fit each of its training chains, round after round, until the chain's
   share of the time budget is spent (at least one round);
3. serve its models: one client in a closed loop sends one-row queries,
   interleaved with batches of BATCH_ROWS rows.  Latency and throughput are
   read at the 90th percentile of the query and batch times (see README.md,
   "Noise").

`score` differs in two ways: its fits are set-up, not measurement, and it
serves the models after a save_model / load_model round trip, through
LoadedModel.  The training workloads serve their in-memory models through
each paradigm's own batch predictor, so modelio stays idle there.

softdss is only ever reached through module attributes (`anfis.anfis_train`,
never a name imported from it), so the traced run's wrappers see these calls.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from softdss import anfis, bench, cart, mamdani, mlp, modelio, tace

from measure import percentile

CONFIG = bench.BenchConfig()  # the matrix defaults: n, split fractions, *Settings
HOLDOUT_ROWS = 5000
HOLDOUT_SEED_OFFSET = 1_000_000
BATCH_ROWS = 200
QUERIES_PER_BATCH = 16
MIN_QUERIES = 3000       # 30 beyond the p99 in details
MIN_BATCHES = 100        # 10 beyond the p90
GATED_PERCENTILE = 90
SETUP_REPEATS = 3        # data preparation and the model I/O round trip
SETUP_FIT_SECONDS = 3.0  # score: per-chain fit budget inside set-up
FIT_SHARE = 0.5          # training workloads: fitting budget as a share of --seconds
TOLERANCE = 1e-12        # one-row query vs the matching batch row


def _predict(kind: str, model, X) -> np.ndarray:
    """In-memory prediction on normalized rows through the paradigm's own batch call."""
    if kind == "anfis":
        return anfis.forward_batch(model, X)[0]
    if kind == "mamdani":
        return model.infer_batch(X)[0]
    if kind == "mlp":
        return mlp.mlp_forward_batch(model, X)
    return cart.predict_batch(model, X)


# ---------------------------------------------------------------------------
# training chains: exactly what softdss.bench trains, minus file output
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Split:
    dataset: str
    seed: int  # the matrix seed: drives init, GA and CV folds
    train: tace.Dataset
    test: tace.Dataset


def _fit_anfis(shape, epochs=CONFIG.anfis.epochs):
    def fit(sp: Split):
        cfg = CONFIG.anfis
        model = anfis.AnfisModel.grid(bench.unit_variables(cfg.mf_count, shape))
        model, _ = anfis.anfis_train(
            model, (sp.train.x, sp.train.y), (sp.test.x, sp.test.y), epochs,
            mode="hybrid", k0=cfg.step_size, seed=sp.seed,
        )
        return model
    return fit


def _fit_mamdani(mode):
    def fit(sp: Split):
        cfg = CONFIG.mamdani
        base = mamdani.wang_mendel(
            sp.train.x, sp.train.y,
            bench.unit_variables(cfg.input_mfs, "triangle"),
            bench.unit_score_variable(cfg.output_mfs),
        )
        if mode == "gd":
            model, _ = mamdani.gd_tune(
                base, sp.train.x, sp.train.y, cfg.learning_rate, cfg.momentum, cfg.gd_epochs)
            return model
        ga = mamdani.GaConfig(
            population=cfg.population, generations=cfg.generations,
            mutation_rate=cfg.mutation_rate, tournament_size=cfg.tournament_size,
            elite_count=cfg.elite_count, seed=sp.seed,
        )
        model, _ = mamdani.ga_optimize(base, sp.train.x, sp.train.y, ga)
        return model
    return fit


def _fit_mlp(sp: Split):
    cfg = CONFIG.mlp
    model = mlp.mlp_init(len(tace.FIELDS), cfg.hidden[sp.dataset], seed=sp.seed)
    model, _ = mlp.scg_train(
        model, (sp.train.x, sp.train.y), (sp.test.x, sp.test.y), cfg.epochs, seed=sp.seed)
    return model


def _fit_cart(sp: Split):
    cfg = CONFIG.cart
    tree = cart.grow(sp.train.x, sp.train.y, min_leaf=cfg.min_leaf)
    seq = cart.prune_sequence(
        tree, sp.train.x, sp.train.y, folds=cfg.folds, seed=sp.seed, min_leaf=cfg.min_leaf)
    return cart.select_min_cost(seq)


@dataclass(frozen=True)
class Chain:
    name: str
    kind: str
    fit: Callable[[Split], object]


ANFIS_GAUSSIAN = Chain("anfis-gaussian", "anfis", _fit_anfis("gaussian"))
ANFIS_TRAPEZOID = Chain("anfis-trapezoid", "anfis", _fit_anfis("trapezoid"))
MAMDANI_GA = Chain("mamdani-ga", "mamdani", _fit_mamdani("ga"))
MAMDANI_GD = Chain("mamdani-gd", "mamdani", _fit_mamdani("gd"))
MLP = Chain("mlp", "mlp", _fit_mlp)
CART = Chain("cart", "cart", _fit_cart)
# score serves an ANFIS model trained for one epoch: its structure (81 rules,
# gaussian MFs) and so its cost per call are the same as after 15 epochs, and
# 14 more epochs of the row-by-row RLS fallback would add about 20 s to every
# score run's set-up at the seed commit.  anfis-hybrid times the full fit.
ANFIS_SERVED = Chain("anfis-gaussian-1epoch", "anfis", _fit_anfis("gaussian", epochs=1))

FIRST_SPLIT = (("A", 1),)
MATRIX_SPLITS = tuple((ds, s) for ds in ("A", "B") for s in CONFIG.seeds)


@dataclass(frozen=True)
class Workload:
    chains: tuple
    splits: tuple
    serve_loaded: bool = False  # score: fits are set-up; serve through modelio


WORKLOADS = {
    "anfis-hybrid": Workload((ANFIS_GAUSSIAN, ANFIS_TRAPEZOID), FIRST_SPLIT),
    "mamdani-tune": Workload((MAMDANI_GA, MAMDANI_GD), FIRST_SPLIT),
    "crisp-train": Workload((MLP, CART), MATRIX_SPLITS),
    "score": Workload((ANFIS_SERVED, MAMDANI_GD, MLP, CART), FIRST_SPLIT, serve_loaded=True),
}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

@dataclass
class Ops:
    """Operations attempted and failed; a failure is a raise, a non-finite
    value or a failed correctness check."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)
            print(f"FAIL {message}", file=sys.stderr)


@dataclass
class Data:
    splits: list
    holdout_x_phys: np.ndarray
    holdout: tace.Dataset


def make_data(seed: int, split_specs) -> Data:
    master = tace.normalize(tace.generate(seed, CONFIG.n, jitter=CONFIG.jitter))
    raw = tace.generate(HOLDOUT_SEED_OFFSET + seed, HOLDOUT_ROWS, jitter=CONFIG.jitter)
    splits = []
    for ds, s in split_specs:
        tr, te = tace.split(master, CONFIG.datasets[ds], 1000 * seed + s)
        splits.append(Split(ds, s, tr, te))
    return Data(splits, raw.x, tace.normalize(raw))


def _rmse(pred, y) -> float:
    return float(np.sqrt(np.mean((np.asarray(pred) - y) ** 2)))


@dataclass
class ChainResult:
    chain: Chain
    fit_s: float          # mean seconds per fit over every round
    rounds: int
    models: list          # first round's model per split (None where it failed)


def fit_chain(chain: Chain, splits, budget: float, ops: Ops) -> ChainResult:
    """Fit every split, round after round, until `budget` seconds of fitting (>= 1 round)."""
    spent, rounds, first = 0.0, 0, None
    while rounds == 0 or spent < budget:
        models = []
        for sp in splits:
            ops.attempted += 1
            t0 = time.perf_counter()
            try:
                model = chain.fit(sp)
            except Exception as exc:  # a failed fit is counted, the run goes on
                spent += time.perf_counter() - t0
                ops.fail(f"{chain.name} fit on {sp.dataset}/{sp.seed} raised {exc!r}")
                models.append(None)
                continue
            spent += time.perf_counter() - t0
            if not math.isfinite(_rmse(_predict(chain.kind, model, sp.test.x), sp.test.y)):
                ops.fail(f"{chain.name} fit on {sp.dataset}/{sp.seed}: non-finite test RMSE")
                model = None
            models.append(model)
        rounds += 1
        if first is None:
            first = models
    return ChainResult(chain, spent / (rounds * len(splits)), rounds, first)


def _round_trip(models, directory: Path):
    loaded = []
    for i, (_, model) in enumerate(models):
        path = directory / f"model{i}.json"
        modelio.save_model(model, path)
        loaded.append(modelio.load_model(path))
    return loaded


def run(name: str, seed: int, seconds: float, out_dir: Path,
        import_s: list, import_probe: Callable[[], float]) -> dict:
    """One workload run: returns end-to-end metrics, op counts and details.

    `import_s` holds this process's import time; `import_probe` times a
    fresh interpreter's import before each training chain, after the last
    one and at the end, so the set-up's import share is a median over at
    least five moments of the run.
    """
    wl = WORKLOADS[name]
    ops = Ops()

    prep = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        data = make_data(seed, wl.splits)
        prep.append(time.perf_counter() - t0)
    setup_s = statistics.median(prep)

    budget = SETUP_FIT_SECONDS if wl.serve_loaded else FIT_SHARE * seconds / len(wl.chains)
    import_s = list(import_s)
    chains, fit_wall = [], 0.0
    for ch in wl.chains:
        import_s.append(import_probe())
        t0 = time.perf_counter()
        chains.append(fit_chain(ch, data.splits, budget, ops))
        fit_wall += time.perf_counter() - t0
    if wl.serve_loaded:
        setup_s += fit_wall
    import_s.append(import_probe())

    # held-out accuracy and the reference output of every served model per
    # batch slice, computed once, outside any timing
    hx, hy = data.holdout.x, data.holdout.y
    slices = [slice(k, k + BATCH_ROWS) for k in range(0, HOLDOUT_ROWS, BATCH_ROWS)]
    rmse_by_chain = {}
    for cr in chains:
        rm = [_rmse(_predict(cr.chain.kind, m, hx), hy) for m in cr.models if m is not None]
        if rm:
            rmse_by_chain[cr.chain.name] = float(np.mean(rm))
    served = [(cr.chain.kind, cr.models[0]) for cr in chains if cr.models[0] is not None]
    refs = [np.concatenate([_predict(kind, m, hx[sl]) for sl in slices]) for kind, m in served]

    loaded = None
    if wl.serve_loaded:
        io_s = []
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                loaded = _round_trip(served, Path(tmp))
                io_s.append(time.perf_counter() - t0)
        setup_s += statistics.median(io_s)

    latencies, batch_times = _serve(data, slices, served, loaded, refs, seconds, ops)
    import_s.append(import_probe())
    setup_s += statistics.median(import_s)

    metrics = {
        "setup_s": (setup_s, "s"),
        "fit_s": (statistics.geometric_mean([cr.fit_s for cr in chains]), "s"),
        "test_rmse": (statistics.geometric_mean(rmse_by_chain.values()), "rmse"),
        "ok_ratio": ((ops.attempted - ops.failed) / ops.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "query_p90_ms": (percentile(latencies, GATED_PERCENTILE) * 1e3, "ms"),
        "batch_rows_per_s": (BATCH_ROWS / percentile(batch_times, GATED_PERCENTILE), "1/s"),
    }
    details = {
        "chains": {cr.chain.name: {"fit_s": cr.fit_s, "rounds": cr.rounds,
                                   "holdout_rmse": rmse_by_chain.get(cr.chain.name)}
                   for cr in chains},
        "queries": len(latencies),
        "import_s": import_s,
        "query_mean_ms": statistics.fmean(latencies) * 1e3,
        "query_p50_ms": percentile(latencies, 50) * 1e3,
        "query_p99_ms": percentile(latencies, 99) * 1e3,
        "batches": len(batch_times),
        "batch_rows": BATCH_ROWS,
        "batch_mean_rows_per_s": BATCH_ROWS * len(batch_times) / sum(batch_times),
        "served_models": [kind for kind, _ in served],
        "failures": ops.messages,
    }
    return {"metrics": metrics, "ops": ops, "details": details}


def _serve(data, slices, served, loaded, refs, duration, ops):
    """One client in a closed loop: QUERIES_PER_BATCH one-row queries, then one
    batch, repeated for `duration` seconds.  Interleaving exposes queries and
    batches to the same stretch of machine time.  Returns the query latencies
    and the times of the batches that passed the check, in seconds."""
    hx = data.holdout.x
    latencies, batch_times = [], []
    start = time.perf_counter()
    i = b = 0
    while i < MIN_QUERIES or b < MIN_BATCHES or time.perf_counter() - start < duration:
        for _ in range(QUERIES_PER_BATCH):
            row = i % HOLDOUT_ROWS
            lat = _query(data, row, served, loaded, refs, ops)
            if lat is not None:
                latencies.append(lat)
            i += 1
        sl = slices[b % len(slices)]
        b += 1
        ops.attempted += 1
        try:
            t0 = time.perf_counter()
            if loaded is None:
                outs = [_predict(kind, m, hx[sl]) for kind, m in served]
            else:
                outs = [lm.predict_normalized(hx[sl]) for lm in loaded]
            dt = time.perf_counter() - t0
        except Exception as exc:
            ops.fail(f"batch {b} raised {exc!r}")
            continue
        # same rows, same slicing: a loaded model must match the in-memory one exactly
        if all(np.array_equal(out, ref[sl]) for out, ref in zip(outs, refs)):
            batch_times.append(dt)
        else:
            ops.fail(f"batch {b}: output differs from the in-memory model's")
    return latencies, batch_times


def _query(data, row, served, loaded, refs, ops):
    """Score one situation with every served model; returns the latency, or None on failure."""
    ops.attempted += 1
    try:
        t0 = time.perf_counter()
        if loaded is None:
            xq = data.holdout.x[row:row + 1]
            outs = [float(_predict(kind, m, xq)[0]) for kind, m in served]
        else:
            xq = data.holdout_x_phys[row]
            outs = [lm.predict_score(xq) for lm in loaded]
        lat = time.perf_counter() - t0
    except Exception as exc:
        ops.fail(f"query on row {row} raised {exc!r}")
        return None
    for j, out in enumerate(outs):
        want = float(refs[j][row])
        if loaded is not None:
            lo, hi = loaded[j].output_range
            if not lo <= out <= hi:
                ops.fail(f"query on row {row}: score {out} outside {lo}..{hi}")
                return None
            out, want = (out - lo) / (hi - lo), min(max(want, 0.0), 1.0)
        if not (math.isfinite(out) and abs(out - want) <= TOLERANCE):
            ops.fail(f"query on row {row}: model {j} gave {out!r}, batch row gives {want!r}")
            return None
    return lat
