"""Benchmark harness: the full paradigm x dataset x seed experiment.

Regenerates the decision dataset, carves the two train/test splits (A: 90%,
B: 80%) per seed, trains every paradigm, sweeps the four membership shapes
for the Takagi-Sugeno network, and writes seed-averaged summary tables plus
per-run curves and model files.

All errors are RMSE on [0, 1]-normalized targets so numbers are comparable
across paradigms.  Sub-run failures are recorded and the matrix continues.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import cart as cart_mod
from . import tace
from .anfis import AnfisModel, anfis_train
from .errors import finite_data, is_finite_number
from .fuzzy import MF_SHAPES, LinguisticVariable
from .mamdani import GaConfig, ga_optimize, gd_tune, wang_mendel
from .mlp import mlp_init, scg_train
from .modelio import load_model, save_model
from .report import rmse, write_csv

INPUT_LABELS = {
    "fuel": ("low", "half", "full"),
    "intercept_time": ("fast", "normal", "slow"),
    "weapon": ("insufficient", "enough", "sufficient"),
    "danger": ("endanger", "danger", "very_danger"),
}
SCORE_LABELS = ("bad", "acceptable", "good")

COMPARED_PARADIGMS = ("anfis", "mamdani-ga", "mlp", "cart")


def _check_ints(section: str, settings, least: dict) -> None:
    """ValueError naming the first field of `least` that is not an integer >= its bound."""
    for name, bound in least.items():
        value = getattr(settings, name)
        if not (type(value) is int and value >= bound):  # JSON true and 2.0 are not integers
            raise ValueError(f"{section} {name} must be an integer >= {bound}, got {value!r}")


def _check_number(section: str, settings, name: str, ok, want: str) -> None:
    value = getattr(settings, name)
    if not (is_finite_number(value) and ok(value)):
        raise ValueError(f"{section} {name} must be {want}, got {value!r}")


@dataclass
class AnfisSettings:
    epochs: int = 15
    mf_count: int = 3
    shapes: tuple = ("gaussian", "gbell", "trapezoid", "triangle")
    step_size: float = 0.01

    def __post_init__(self):
        _check_ints("anfis", self, {"epochs": 1, "mf_count": 1})
        shapes = self.shapes
        if not (isinstance(shapes, (list, tuple)) and all(s in MF_SHAPES for s in shapes)
                and len(set(shapes)) == len(shapes)):
            raise ValueError(f"anfis shapes must be distinct names from {sorted(MF_SHAPES)}, "
                             f"got {shapes!r}")
        self.shapes = tuple(shapes)
        _check_number("anfis", self, "step_size", lambda v: v > 0, "a finite number > 0")


@dataclass
class MamdaniSettings:
    input_mfs: int = 3
    output_mfs: int = 3
    learning_rate: float = 0.5
    momentum: float = 0.3
    gd_epochs: int = 10
    population: int = 50
    generations: int = 100
    mutation_rate: float = 0.01
    tournament_size: int = 3
    elite_count: int = 1

    def __post_init__(self):
        _check_ints("mamdani", self, {"input_mfs": 1, "output_mfs": 1, "gd_epochs": 1,
                                      "population": 2, "generations": 1, "tournament_size": 1,
                                      "elite_count": 0})
        if not self.elite_count < self.population:
            raise ValueError(f"mamdani elite_count must be < population ({self.population}), "
                             f"got {self.elite_count}")
        _check_number("mamdani", self, "learning_rate", lambda v: v >= 0, "a finite number >= 0")
        _check_number("mamdani", self, "momentum", lambda v: True, "a finite number")
        _check_number("mamdani", self, "mutation_rate", lambda v: 0 <= v <= 1, "a number in [0, 1]")


@dataclass
class MlpSettings:
    # units per dataset; one run's count once `_run_cell` or `train` has picked it
    hidden: dict = field(default_factory=lambda: {"A": 30, "B": 32})
    epochs: int = 1000

    def __post_init__(self):
        _check_ints("mlp", self, {"epochs": 1})
        hidden = self.hidden
        if not all(type(units) is int and units >= 1
                   for units in (hidden.values() if isinstance(hidden, dict) else [hidden])):
            raise ValueError(f"mlp hidden must be an integer >= 1, or an object mapping datasets "
                             f"to one, got {hidden!r}")


@dataclass
class CartSettings:
    min_leaf: int = 5
    folds: int = 10

    def __post_init__(self):
        _check_ints("cart", self, {"min_leaf": 1, "folds": 2})


@dataclass
class BenchConfig:
    seeds: tuple = (1, 2, 3)
    datasets: dict = field(default_factory=lambda: {"A": 0.9, "B": 0.8})
    n: int = 1000
    data_seed: int = 7
    jitter: bool = True
    anfis: AnfisSettings = field(default_factory=AnfisSettings)
    mamdani: MamdaniSettings = field(default_factory=MamdaniSettings)
    mlp: MlpSettings = field(default_factory=MlpSettings)
    cart: CartSettings = field(default_factory=CartSettings)

    def __post_init__(self):
        seeds = self.seeds
        if not (isinstance(seeds, (list, tuple)) and seeds
                and all(type(s) is int and s >= 0 for s in seeds)
                and len(set(seeds)) == len(seeds)):  # a repeated seed would rewrite its runs
            raise ValueError(f"seeds must be distinct integers >= 0, at least one, got {seeds!r}")
        self.seeds = tuple(seeds)
        _check_ints("config", self, {"n": 1, "data_seed": 0})
        if type(self.jitter) is not bool:
            raise ValueError(f"config jitter must be true or false, got {self.jitter!r}")
        if not (isinstance(self.datasets, dict) and self.datasets):
            raise ValueError(f"config datasets must be a non-empty object of fractions, "
                             f"got {self.datasets!r}")
        hidden = self.mlp.hidden
        if not (isinstance(hidden, dict) and set(self.datasets) <= set(hidden)):
            names = ", ".join(sorted(self.datasets))
            raise ValueError(f"mlp hidden must map every dataset ({names}) to an integer >= 1, "
                             f"got {hidden!r}")
        rows = self.n
        for name, frac in self.datasets.items():
            if not (is_finite_number(frac) and 0.0 < frac < 1.0):
                raise ValueError(f"dataset {name!r} fraction must be in (0, 1), got {frac}")
            try:  # `tace.split`'s training rows; CART cross-validates on them
                rows = min(rows, tace.train_rows(self.n, frac))
            except ValueError as exc:
                raise ValueError(f"dataset {name!r}: {exc}") from None
        if self.cart.folds > rows:
            raise ValueError(f"cart.folds must be <= {rows}, the rows of the smallest training "
                             f"split for n = {self.n}, got {self.cart.folds}")

    @classmethod
    def from_dict(cls, d: dict) -> "BenchConfig":
        check_keys(d, field_names(cls), "config")
        kwargs = dict(d)
        for key, sub in (("anfis", AnfisSettings), ("mamdani", MamdaniSettings),
                         ("mlp", MlpSettings), ("cart", CartSettings)):
            if key in kwargs:
                if not isinstance(kwargs[key], dict):
                    raise ValueError(f"config section {key!r} must be an object")
                check_keys(kwargs[key], field_names(sub), key)
                kwargs[key] = sub(**kwargs[key])
        return cls(**kwargs)


def field_names(settings_cls) -> set[str]:
    return {f.name for f in fields(settings_cls)}


def check_keys(d: dict, allowed, where: str) -> None:
    """Raise ValueError naming every key of a config dict that is not allowed."""
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")


def unit_variables(mf_count: int, shape: str) -> list[LinguisticVariable]:
    """The four input variables on normalized [0, 1] coordinates."""
    return [
        LinguisticVariable.uniform(
            name, 0.0, 1.0, mf_count, shape=shape,
            labels=INPUT_LABELS[name][:mf_count] if mf_count <= 3 else None,
        )
        for name in tace.FIELDS
    ]


def unit_score_variable(mf_count: int) -> LinguisticVariable:
    return LinguisticVariable.uniform(
        "score", 0.0, 1.0, mf_count, shape="triangle",
        labels=SCORE_LABELS[:mf_count] if mf_count <= 3 else None,
    )


@dataclass
class Trained:
    """What `train_paradigm` returns for one run."""

    model: object
    curve: list        # per-epoch or per-generation values; the prune sequence for CART
    header: tuple      # curve CSV header; empty for CART, whose ladder writes its own
    train_rmse: float
    test_rmse: float | None
    extras: dict

    def save(self, model_path, curve_path) -> None:
        save_model(self.model, model_path)  # first: a model it refuses leaves no file
        if self.header:
            write_csv(curve_path, self.header,
                      ([i, repr(float(v))] for i, v in enumerate(self.curve, start=1)))
        else:
            cart_mod.write_relative_error_csv(curve_path, self.curve)


def train_paradigm(kind, train, test, settings, seed) -> Trained:
    """Train one paradigm on normalized (X, y) data; the one training path.

    `kind` is "anfis-<shape>", "mamdani-gd", "mamdani-ga", "mlp" or "cart",
    and `settings` the matching AnfisSettings, MamdaniSettings, MlpSettings
    or CartSettings.  For "mlp", `settings.hidden` is this run's unit count,
    not the per-dataset table.  `test` may be None, and then so is the
    returned test RMSE.  A non-finite test value is a ValueError naming the
    test split.
    """
    Xtr, ytr = train
    if test is not None:
        try:
            test = finite_data(*test)
        except ValueError as exc:
            raise ValueError(f"test split: {exc}") from None
    epoch_header = ("epoch", "train_rmse")
    if kind.startswith("anfis-"):
        model = AnfisModel.grid(unit_variables(settings.mf_count, kind.removeprefix("anfis-")))
        model, report = anfis_train(
            model, train, test, settings.epochs, k0=settings.step_size, seed=seed
        )
        return Trained(model, report.rmse_per_epoch, epoch_header,
                       report.final_train_rmse, report.final_test_rmse, report.extras)
    if kind in ("mamdani-gd", "mamdani-ga"):
        inputs = unit_variables(settings.input_mfs, "triangle")
        output = unit_score_variable(settings.output_mfs)
        base = wang_mendel(Xtr, ytr, inputs, output)
        extras = {
            "rule_count": len(base.rules),
            "untuned_train_rmse": base.rmse(Xtr, ytr),
            "untuned_test_rmse": None if test is None else base.rmse(*test),
        }
        if kind == "mamdani-gd":
            model, report = gd_tune(
                base, Xtr, ytr, settings.learning_rate, settings.momentum, settings.gd_epochs
            )
            curve, header = report.rmse_per_epoch, epoch_header
            train_rmse = report.final_train_rmse
        else:
            ga_cfg = GaConfig(
                population=settings.population,
                generations=settings.generations,
                mutation_rate=settings.mutation_rate,
                tournament_size=settings.tournament_size,
                elite_count=settings.elite_count,
                seed=seed,
            )
            evaluations = Counter()
            model, curve = ga_optimize(base, Xtr, ytr, ga_cfg, evaluations=evaluations)
            header = ("generation", "best_fitness")
            extras["ga_evaluations"] = dict(evaluations)
            train_rmse = -curve[-1]  # the best genome's fitness, -model.rmse(Xtr, ytr)
        test_rmse = None if test is None else model.rmse(*test)
        return Trained(model, list(curve), header, train_rmse, test_rmse, extras)
    if kind == "mlp":
        model = mlp_init(len(tace.FIELDS), settings.hidden, seed=seed)
        model, report = scg_train(model, train, test, settings.epochs, seed=seed)
        return Trained(model, report.rmse_per_epoch, epoch_header, report.final_train_rmse,
                       report.final_test_rmse, {"hidden_units": settings.hidden, **report.extras})
    if kind == "cart":
        tree = cart_mod.grow(Xtr, ytr, min_leaf=settings.min_leaf)
        seq = cart_mod.prune_sequence(
            tree, Xtr, ytr, folds=settings.folds, seed=seed, min_leaf=settings.min_leaf
        )
        best = cart_mod.select_min_cost(seq)
        test_rmse = None if test is None else rmse(cart_mod.predict_batch(best, test[0]) - test[1])
        extras = {
            "terminal_count": cart_mod.count_leaves(best),
            "full_terminal_count": cart_mod.count_leaves(tree),
            "ladder_length": len(seq),
        }
        return Trained(best, seq, (), rmse(cart_mod.predict_batch(best, Xtr) - ytr),
                       test_rmse, extras)
    raise ValueError(f"unknown paradigm {kind!r}")


def _run_cell(runs_dir, paradigm, dataset, seed, settings, train, test) -> dict:
    """Train one matrix cell, write its files and return its run entry; a failure is
    recorded in the entry, not raised."""
    tag = f"{paradigm}_{dataset}_seed{seed}"
    start = time.perf_counter()
    entry = {"paradigm": paradigm, "dataset": dataset, "seed": seed}
    try:
        if paradigm == "mlp":
            settings = replace(settings, hidden=settings.hidden[dataset])
        run = train_paradigm(paradigm, train, test, settings, seed)
        model_path = runs_dir / f"{tag}.model.json"
        curve_path = runs_dir / f"{tag}.{'curve' if run.header else 'relerr'}.csv"
        run.save(model_path, curve_path)
        entry.update(
            train_rmse=run.train_rmse,
            test_rmse=run.test_rmse,
            model_path=str(model_path),
            curve_path=str(curve_path),
        )
        if run.header:
            entry["curve"] = run.curve
        if run.extras:
            entry["extras"] = run.extras
    except Exception as exc:  # sub-run failures must not kill the matrix
        entry["error"] = f"{type(exc).__name__}: {exc}"
    entry["wall_time"] = time.perf_counter() - start
    return entry


def run_bench(config: BenchConfig, out_dir) -> dict:
    """Run the complete benchmark matrix and write all report files."""
    out = Path(out_dir)
    runs_dir = out / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    master = tace.normalize(tace.generate(config.data_seed, config.n, jitter=config.jitter))
    first_predictions = {}
    for ds_name in sorted(config.datasets):
        frac = config.datasets[ds_name]
        for seed in config.seeds:
            tr, te = tace.split(master, frac, seed)
            train, test = (tr.x, tr.y), (te.x, te.y)
            cells = [(f"anfis-{shape}", config.anfis) for shape in config.anfis.shapes]
            cells += [("mamdani-gd", config.mamdani), ("mamdani-ga", config.mamdani),
                      ("mlp", config.mlp), ("cart", config.cart)]
            for paradigm, settings in cells:
                runs.append(_run_cell(runs_dir, paradigm, ds_name, seed, settings, train, test))
            if ds_name == "B" and seed == config.seeds[0]:
                first_predictions = _collect_predictions(runs, ds_name, seed, test)
    report = _assemble(runs, config, master)
    _write_outputs(report, config, out, first_predictions)
    return report


def _collect_predictions(runs, ds_name, seed, test) -> dict:
    """Per-paradigm predictions over the full Dataset B test set (first seed)."""
    Xte, yte = test
    cols = {"actual": np.asarray(yte)}
    for run in runs:
        if run["dataset"] != ds_name or run["seed"] != seed or "error" in run:
            continue
        loaded = load_model(run["model_path"])
        cols[run["paradigm"]] = loaded.predict_normalized(Xte)
    return cols


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    """What a run's bits depend on besides its config: numpy, its BLAS and LAPACK build, the
    thread variables in effect (None where unset) and the CPU count.  `report.json` only."""
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]
    except TypeError:  # numpy before 1.26 can only print its build
        build = None
    return {
        "numpy": np.__version__,
        "build_dependencies": build,
        "thread_variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "cpu_count": os.cpu_count(),
    }


def _assemble(runs, config, master) -> dict:
    summary = {}
    for run in runs:
        if "error" in run:
            continue
        key = (run["paradigm"], run["dataset"])
        summary.setdefault(key, []).append(run)
    rows = []
    for (paradigm, dataset), entries in sorted(summary.items()):
        rows.append(
            {
                "paradigm": paradigm,
                "dataset": dataset,
                "train_rmse": float(np.mean([e["train_rmse"] for e in entries])),
                "test_rmse": float(np.mean([e["test_rmse"] for e in entries])),
                "wall_time": float(np.mean([e["wall_time"] for e in entries])),
                "n_seeds": len(entries),
            }
        )
    # the gaussian-MF network is the Takagi-Sugeno entry in the comparison
    best = {}
    for ds_name in sorted(config.datasets):
        scores = {}
        for row in rows:
            name = "anfis" if row["paradigm"] == "anfis-gaussian" else row["paradigm"]
            if name in COMPARED_PARADIGMS and row["dataset"] == ds_name:
                scores[name] = row["test_rmse"]
        if scores:
            best[ds_name] = min(scores, key=scores.get)
    failures = [
        {k: run[k] for k in ("paradigm", "dataset", "seed", "error")}
        for run in runs
        if "error" in run
    ]
    return {
        "config": asdict(config),
        "master_size": len(master),
        "runs": runs,
        "summary": rows,
        "best_paradigm_by_test_rmse": best,
        "failures": failures,
        "environment": _environment(),
    }


def _write_outputs(report, config, out, predictions) -> None:
    summary = report["summary"]
    write_csv(out / "summary.csv",
              ["paradigm", "dataset", "train_rmse", "test_rmse", "n_seeds", "wall_time"],
              ([row["paradigm"], row["dataset"], repr(row["train_rmse"]), repr(row["test_rmse"]),
                row["n_seeds"], repr(row["wall_time"])] for row in summary))
    shapes = [f"anfis-{s}" for s in config.anfis.shapes]
    write_csv(out / "sweep.csv", ["shape", "dataset", "train_rmse", "test_rmse"],
              ([row["paradigm"].removeprefix("anfis-"), row["dataset"],
                repr(row["train_rmse"]), repr(row["test_rmse"])]
               for row in summary if row["paradigm"] in shapes))
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if predictions:
        write_csv(out / "predictions_B.csv", list(predictions),
                  ([repr(float(v)) for v in row] for row in zip(*predictions.values())))
