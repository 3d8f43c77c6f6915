"""Benchmark harness: the full paradigm x dataset x seed experiment.

Regenerates the decision dataset, carves the two train/test splits (A: 90%,
B: 80%) per seed, trains every paradigm, sweeps the four membership shapes
for the Takagi-Sugeno network, and writes seed-averaged summary tables plus
per-run curves and model files.

All errors are RMSE on [0, 1]-normalized targets so numbers are comparable
across paradigms.  Sub-run failures are recorded and the matrix continues.
"""

from __future__ import annotations

import csv
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import cart as cart_mod
from . import tace
from .anfis import AnfisModel, anfis_train
from .errors import finite_data
from .fuzzy import LinguisticVariable
from .mamdani import GaConfig, ga_optimize, gd_tune, wang_mendel
from .mlp import mlp_init, scg_train
from .modelio import save_model
from .report import rmse, write_curve_csv

INPUT_LABELS = {
    "fuel": ("low", "half", "full"),
    "intercept_time": ("fast", "normal", "slow"),
    "weapon": ("insufficient", "enough", "sufficient"),
    "danger": ("endanger", "danger", "very_danger"),
}
SCORE_LABELS = ("bad", "acceptable", "good")

COMPARED_PARADIGMS = ("anfis", "mamdani-ga", "mlp", "cart")


@dataclass
class AnfisSettings:
    epochs: int = 15
    mf_count: int = 3
    shapes: tuple = ("gaussian", "gbell", "trapezoid", "triangle")
    step_size: float = 0.01


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


@dataclass
class MlpSettings:
    hidden: dict = field(default_factory=lambda: {"A": 30, "B": 32})  # units per dataset
    epochs: int = 1000


@dataclass
class CartSettings:
    min_leaf: int = 5
    folds: int = 10


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
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        for name, frac in self.datasets.items():
            if not 0.0 < frac < 1.0:
                raise ValueError(f"dataset {name!r} fraction must be in (0, 1), got {frac}")

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
        if "seeds" in kwargs:
            kwargs["seeds"] = tuple(kwargs["seeds"])
        if "anfis" in kwargs:
            kwargs["anfis"] = replace(kwargs["anfis"], shapes=tuple(kwargs["anfis"].shapes))
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
        if self.header:
            write_curve_csv(curve_path, self.curve, header=self.header)
        else:
            cart_mod.write_relative_error_csv(curve_path, self.curve)
        save_model(self.model, model_path)


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
        test_rmse = None if test is None else model.rmse(*test)
        return Trained(model, list(curve), header, model.rmse(Xtr, ytr), test_rmse, extras)
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


class BenchRunner:
    """Executes the run matrix and assembles report files."""

    def __init__(self, config: BenchConfig, out_dir):
        self.config = config
        self.out = Path(out_dir)
        self.runs_dir = self.out / "runs"
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        self.runs: list[dict] = []

    def _run(self, paradigm, dataset, seed, settings, train, test) -> None:
        """Train one matrix cell and write its files; a failure is recorded, not raised."""
        tag = f"{paradigm}_{dataset}_seed{seed}"
        start = time.perf_counter()
        entry = {"paradigm": paradigm, "dataset": dataset, "seed": seed}
        try:
            if paradigm == "mlp":
                settings = replace(settings, hidden=settings.hidden[dataset])
            run = train_paradigm(paradigm, train, test, settings, seed)
            model_path = self.runs_dir / f"{tag}.model.json"
            curve_path = self.runs_dir / f"{tag}.{'curve' if run.header else 'relerr'}.csv"
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
        self.runs.append(entry)

    # -- matrix ---------------------------------------------------------------

    def run(self) -> dict:
        cfg = self.config
        master = tace.normalize(tace.generate(cfg.data_seed, cfg.n, jitter=cfg.jitter))
        first_predictions = {}
        for ds_name in sorted(cfg.datasets):
            frac = cfg.datasets[ds_name]
            for seed in cfg.seeds:
                tr, te = tace.split(master, frac, seed)
                train, test = (tr.x, tr.y), (te.x, te.y)
                cells = [(f"anfis-{shape}", cfg.anfis) for shape in cfg.anfis.shapes]
                cells += [("mamdani-gd", cfg.mamdani), ("mamdani-ga", cfg.mamdani),
                          ("mlp", cfg.mlp), ("cart", cfg.cart)]
                for paradigm, settings in cells:
                    self._run(paradigm, ds_name, seed, settings, train, test)
                if ds_name == "B" and seed == cfg.seeds[0]:
                    first_predictions = self._collect_predictions(ds_name, seed, test)
        report = self._assemble(master)
        self._write_outputs(report, first_predictions)
        return report

    def _collect_predictions(self, ds_name, seed, test) -> dict:
        """Per-paradigm predictions over the full Dataset B test set (first seed)."""
        from .modelio import load_model

        Xte, yte = test
        cols = {"actual": np.asarray(yte)}
        for run in self.runs:
            if run["dataset"] != ds_name or run["seed"] != seed or "error" in run:
                continue
            loaded = load_model(run["model_path"])
            cols[run["paradigm"]] = loaded.predict_normalized(Xte)
        return cols

    def _assemble(self, master) -> dict:
        summary = {}
        for run in self.runs:
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
        for ds_name in sorted(self.config.datasets):
            scores = {}
            for row in rows:
                name = "anfis" if row["paradigm"] == "anfis-gaussian" else row["paradigm"]
                if name in COMPARED_PARADIGMS and row["dataset"] == ds_name:
                    scores[name] = row["test_rmse"]
            if scores:
                best[ds_name] = min(scores, key=scores.get)
        failures = [
            {k: run[k] for k in ("paradigm", "dataset", "seed", "error")}
            for run in self.runs
            if "error" in run
        ]
        return {
            "config": asdict(self.config),
            "master_size": len(master),
            "runs": self.runs,
            "summary": rows,
            "best_paradigm_by_test_rmse": best,
            "failures": failures,
        }

    def _write_outputs(self, report, predictions) -> None:
        with open(self.out / "summary.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["paradigm", "dataset", "train_rmse", "test_rmse", "n_seeds", "wall_time"]
            )
            for row in report["summary"]:
                writer.writerow(
                    [
                        row["paradigm"],
                        row["dataset"],
                        repr(row["train_rmse"]),
                        repr(row["test_rmse"]),
                        row["n_seeds"],
                        repr(row["wall_time"]),
                    ]
                )
        shapes = [f"anfis-{s}" for s in self.config.anfis.shapes]
        with open(self.out / "sweep.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["shape", "dataset", "train_rmse", "test_rmse"])
            for row in report["summary"]:
                if row["paradigm"] in shapes:
                    writer.writerow(
                        [
                            row["paradigm"].removeprefix("anfis-"),
                            row["dataset"],
                            repr(row["train_rmse"]),
                            repr(row["test_rmse"]),
                        ]
                    )
        with open(self.out / "report.json", "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        if predictions:
            names = list(predictions)
            with open(self.out / "predictions_B.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(names)
                for i in range(len(predictions["actual"])):
                    writer.writerow([repr(float(predictions[n][i])) for n in names])


def run_bench(config: BenchConfig, out_dir) -> dict:
    """Run the complete benchmark matrix and write all report files."""
    return BenchRunner(config, out_dir).run()
