"""Benchmark harness integration at reduced scale: structure, files, determinism."""

import csv
import json
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from softdss import tace
from softdss.bench import (
    AnfisSettings,
    BenchConfig,
    CartSettings,
    MamdaniSettings,
    MlpSettings,
    Trained,
    _environment,
    run_bench,
    train_paradigm,
)
from softdss.cart import PrunedEntry, TreeNode, write_relative_error_csv
from softdss.fuzzy import MamdaniModel
from softdss.mlp import mlp_init


def small_config(**overrides):
    base = dict(
        seeds=(1, 2),
        n=150,
        data_seed=7,
        anfis=AnfisSettings(epochs=2, shapes=("gaussian", "trapezoid")),
        mamdani=MamdaniSettings(gd_epochs=3, population=6, generations=4),
        mlp=MlpSettings(hidden={"A": 5, "B": 6}, epochs=25),
        cart=CartSettings(min_leaf=5, folds=3),
    )
    base.update(overrides)
    return BenchConfig(**base)


@pytest.fixture(scope="module")
def bench_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    report = run_bench(small_config(), out)
    return out, report


class TestReportStructure:
    def test_no_failures(self, bench_out):
        _, report = bench_out
        assert report["failures"] == []

    def test_all_paradigms_and_datasets_present(self, bench_out):
        _, report = bench_out
        pairs = {(r["paradigm"], r["dataset"]) for r in report["summary"]}
        for ds in ("A", "B"):
            for paradigm in ("anfis-gaussian", "anfis-trapezoid", "mamdani-gd",
                             "mamdani-ga", "mlp", "cart"):
                assert (paradigm, ds) in pairs

    def test_summary_is_seed_average(self, bench_out):
        _, report = bench_out
        for row in report["summary"]:
            runs = [
                r for r in report["runs"]
                if r["paradigm"] == row["paradigm"] and r["dataset"] == row["dataset"]
            ]
            want = sum(r["test_rmse"] for r in runs) / len(runs)
            assert row["test_rmse"] == pytest.approx(want, rel=1e-12)
            assert row["n_seeds"] == 2

    def test_best_paradigm_flagged_per_dataset(self, bench_out):
        _, report = bench_out
        assert set(report["best_paradigm_by_test_rmse"]) == {"A", "B"}
        for name in report["best_paradigm_by_test_rmse"].values():
            assert name in ("anfis", "mamdani-ga", "mlp", "cart")

    def test_cart_runs_carry_terminal_count(self, bench_out):
        out, report = bench_out
        for run in report["runs"]:
            if run["paradigm"] == "cart":
                extras = run["extras"]
                assert extras["terminal_count"] >= 1
                # one relative-error row per ladder entry, full tree to root alone
                with open(run["curve_path"], newline="") as fh:
                    rows = list(csv.DictReader(fh))
                assert extras["ladder_length"] == len(rows) >= 1
                assert int(rows[0]["terminal_nodes"]) == extras["full_terminal_count"]
                assert int(rows[-1]["terminal_nodes"]) == 1
        for name in ("summary.csv", "sweep.csv"):
            assert "ladder" not in (out / name).read_text()

    def test_anfis_runs_carry_solver_counts(self, bench_out):
        out, report = bench_out
        for run in report["runs"]:
            if run["paradigm"].startswith("anfis-"):
                solves = run["extras"]["consequent_solves"]
                assert set(solves) == {"lstsq", "ridge", "certified"}
                assert sum(solves.values()) == 3  # 2 epochs + final solve
                blocks = run["extras"]["certified_blocks"]
                assert set(blocks) == {"strengths", "strengths_x0"}
                assert sum(blocks.values()) == solves["certified"]
        for name in ("summary.csv", "sweep.csv"):
            assert "solves" not in (out / name).read_text()
            assert "strengths" not in (out / name).read_text()

    def test_ga_runs_carry_evaluation_counts(self, bench_out):
        out, _ = bench_out
        report = json.loads((out / "report.json").read_text())
        for run in report["runs"]:
            if run["paradigm"] == "mamdani-ga":
                counts = run["extras"]["ga_evaluations"]
                assert counts["lookups"] == 6 * (4 + 1)  # population x (generations + 1)
                assert 1 <= counts["distinct"] < counts["lookups"]
            else:
                assert "ga_evaluations" not in run.get("extras", {})
        for name in ("summary.csv", "sweep.csv"):
            assert "evaluations" not in (out / name).read_text()

    def test_mlp_runs_carry_scg_counters(self, bench_out):
        out, _ = bench_out
        report = json.loads((out / "report.json").read_text())
        for run in report["runs"]:
            if run["paradigm"] == "mlp":
                extras = run["extras"]
                assert extras["hidden_units"] == {"A": 5, "B": 6}[run["dataset"]]
                steps = extras["scg_steps"]
                assert steps["accepted"] >= 1
                assert steps["accepted"] + steps["rejected"] <= 25
                assert extras["final_lambda"] >= 0.0
        for name in ("summary.csv", "sweep.csv"):
            text = (out / name).read_text()
            assert "scg_steps" not in text and "lambda" not in text

    def test_mamdani_runs_carry_untuned_baseline(self, bench_out):
        _, report = bench_out
        for run in report["runs"]:
            if run["paradigm"].startswith("mamdani"):
                assert "untuned_test_rmse" in run["extras"]
                assert run["extras"]["rule_count"] >= 1


class TestFiles:
    def test_summary_csv_columns(self, bench_out):
        out, _ = bench_out
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["paradigm", "dataset", "train_rmse", "test_rmse", "n_seeds", "wall_time"]
        assert len(rows) > 1

    def test_sweep_csv_covers_shapes(self, bench_out):
        out, _ = bench_out
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert {(r[0], r[1]) for r in rows} == {
            (shape, ds) for shape in ("gaussian", "trapezoid") for ds in ("A", "B")
        }

    def test_curves_and_models_written(self, bench_out):
        out, report = bench_out
        for run in report["runs"]:
            assert Path(run["model_path"]).exists()
            assert Path(run["curve_path"]).exists()

    def test_predictions_for_dataset_b(self, bench_out):
        out, _ = bench_out
        with open(out / "predictions_B.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "actual"
        assert len(rows) == 1 + 30  # 20% test split of 150 samples

    def test_report_json_loads(self, bench_out):
        out, _ = bench_out
        with open(out / "report.json") as fh:
            report = json.load(fh)
        assert report["master_size"] == 150

    def test_report_json_records_environment(self, bench_out, monkeypatch):
        out, _ = bench_out
        env = json.loads((out / "report.json").read_text())["environment"]
        assert env["numpy"] == np.__version__
        assert env["build_dependencies"] == np.show_config(mode="dicts")["Build Dependencies"]
        assert set(env["thread_variables"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS"}
        assert env["cpu_count"] == os.cpu_count()
        # the environment never reaches the byte-compared tables
        for name in ("summary.csv", "sweep.csv"):
            text = (out / name).read_text()
            assert "numpy" not in text and "THREADS" not in text and np.__version__ not in text
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        threads = _environment()["thread_variables"]
        assert threads["OMP_NUM_THREADS"] == "3" and threads["MKL_NUM_THREADS"] is None


    def test_csv_bytes(self, tmp_path):
        """Header line, CRLF line ends and repr floats, byte for byte, for each CSV kind."""
        curve = tmp_path / "curve.csv"
        run = Trained(mlp_init(4, 2, seed=1), [0.5, 1 / 3], ("epoch", "train_rmse"), 0.5, None, {})
        run.save(tmp_path / "model.json", curve)
        assert curve.read_bytes() == b"epoch,train_rmse\r\n1,0.5\r\n2,0.3333333333333333\r\n"
        ladder, leaf = tmp_path / "relerr.csv", TreeNode(0.5, 2, 0.32)
        write_relative_error_csv(ladder, [PrunedEntry(0.0, leaf, 3, 0.1),
                                          PrunedEntry(0.25, leaf, 1, 0.3)])
        assert ladder.read_bytes() == (b"terminal_nodes,alpha,cv_cost,relative_error\r\n"
                                       b"3,0.0,0.1,0.33333333333333337\r\n1,0.25,0.3,1.0\r\n")
        data = tmp_path / "data.csv"
        x = np.array([[500.0, 30.0, 60.0, 4.0], [0.1, 59.5, 100.0, 1 / 3]])
        tace.save_csv(tace.Dataset(x, np.array([5.0, 2.5])), data)
        assert data.read_bytes() == (b"fuel,intercept_time,weapon,danger,score\r\n"
                                     b"500.0,30.0,60.0,4.0,5.0\r\n"
                                     b"0.1,59.5,100.0,0.3333333333333333,2.5\r\n")


class TestReproducibility:
    def test_summaries_byte_identical_modulo_wall_time(self, tmp_path):
        def strip_wall(path):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            drop = rows[0].index("wall_time")
            return [[c for i, c in enumerate(row) if i != drop] for row in rows]

        cfg = small_config(seeds=(3,), n=100)
        a, b = tmp_path / "a", tmp_path / "b"
        run_bench(cfg, a)
        run_bench(cfg, b)
        assert strip_wall(a / "summary.csv") == strip_wall(b / "summary.csv")
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
        assert (a / "predictions_B.csv").read_bytes() == (b / "predictions_B.csv").read_bytes()

    def test_config_roundtrip_from_dict(self):
        cfg = small_config()
        blob = {
            "seeds": [1, 2],
            "n": 150,
            "data_seed": 7,
            "anfis": {"epochs": 2, "shapes": ["gaussian", "trapezoid"]},
            "mamdani": {"gd_epochs": 3, "population": 6, "generations": 4},
            "mlp": {"hidden": {"A": 5, "B": 6}, "epochs": 25},
            "cart": {"min_leaf": 5, "folds": 3},
        }
        assert BenchConfig.from_dict(blob) == cfg

    @pytest.mark.parametrize("key,value,least", [
        ("folds", 0, 2), ("folds", 1, 2), ("folds", 2.0, 2),
        ("min_leaf", 0, 1), ("min_leaf", "5", 1),
    ])
    def test_cart_settings_checked(self, key, value, least):
        message = rf"^cart {key} must be an integer >= {least}, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            CartSettings(**{key: value})
        with pytest.raises(ValueError, match=message):
            BenchConfig.from_dict({"cart": {key: value}})

    @pytest.mark.parametrize("section,key,value,message", [
        ("anfis", "epochs", 0, "anfis epochs must be an integer >= 1, got 0"),
        ("anfis", "mf_count", 2.0, "anfis mf_count must be an integer >= 1, got 2.0"),
        ("anfis", "shapes", ["nope"], "anfis shapes must be distinct names from "
                                      "['gaussian', 'gbell', 'trapezoid', 'triangle'], got ['nope']"),
        ("anfis", "shapes", "gaussian", "anfis shapes must be distinct names from "
                                        "['gaussian', 'gbell', 'trapezoid', 'triangle'], got 'gaussian'"),
        ("anfis", "shapes", ["gbell", "gbell"], "anfis shapes must be distinct names from "
                                                "['gaussian', 'gbell', 'trapezoid', 'triangle'], "
                                                "got ['gbell', 'gbell']"),
        ("anfis", "step_size", 0, "anfis step_size must be a finite number > 0, got 0"),
        ("anfis", "step_size", "0.1", "anfis step_size must be a finite number > 0, got '0.1'"),
        ("mamdani", "input_mfs", 0, "mamdani input_mfs must be an integer >= 1, got 0"),
        ("mamdani", "output_mfs", True, "mamdani output_mfs must be an integer >= 1, got True"),
        ("mamdani", "gd_epochs", 0, "mamdani gd_epochs must be an integer >= 1, got 0"),
        ("mamdani", "population", 1, "mamdani population must be an integer >= 2, got 1"),
        ("mamdani", "generations", 0, "mamdani generations must be an integer >= 1, got 0"),
        ("mamdani", "tournament_size", 0, "mamdani tournament_size must be an integer >= 1, got 0"),
        ("mamdani", "elite_count", -1, "mamdani elite_count must be an integer >= 0, got -1"),
        ("mamdani", "elite_count", 50, "mamdani elite_count must be < population (50), got 50"),
        ("mamdani", "learning_rate", -0.5, "mamdani learning_rate must be a finite number >= 0, "
                                           "got -0.5"),
        ("mamdani", "momentum", float("nan"), "mamdani momentum must be a finite number, got nan"),
        ("mamdani", "mutation_rate", 1.5, "mamdani mutation_rate must be a number in [0, 1], got 1.5"),
    ])
    def test_fuzzy_settings_checked(self, section, key, value, message):
        settings = {"anfis": AnfisSettings, "mamdani": MamdaniSettings}[section]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            settings(**{key: value})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BenchConfig.from_dict({section: {key: value}})

    def test_shapes_list_becomes_tuple(self):
        assert AnfisSettings(shapes=["triangle"]).shapes == ("triangle",)

    @pytest.mark.parametrize("seeds", [["a"], [1, 1], [], [-1], [2.0], [True], 3, "12"])
    def test_seeds_are_distinct_integers(self, seeds):
        message = f"seeds must be distinct integers >= 0, at least one, got {seeds!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BenchConfig.from_dict({"seeds": seeds})

    def test_cart_folds_checked_against_the_smallest_training_split(self):
        # n = 10 gives 9 (A, 0.9) and 8 (B, 0.8) training rows
        assert BenchConfig.from_dict({"n": 10, "cart": {"folds": 8}}).cart.folds == 8
        message = ("cart.folds must be <= 8, the rows of the smallest training split for "
                   "n = 10, got 10")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BenchConfig.from_dict({"seeds": [1], "n": 10})
        with pytest.raises(ValueError, match=r"^cart.folds must be <= 8, .* got 9$"):
            BenchConfig(n=10, cart=CartSettings(folds=9))

    @pytest.mark.parametrize("config,message", [
        ({"jitter": "no"}, "config jitter must be true or false, got 'no'"),
        ({"jitter": 1}, "config jitter must be true or false, got 1"),
        ({"datasets": [1]}, "config datasets must be a non-empty object of fractions, got [1]"),
        ({"datasets": {}}, "config datasets must be a non-empty object of fractions, got {}"),
        ({"datasets": {"A": 0.9, "C": 0.5}},
         "mlp hidden must map every dataset (A, C) to an integer >= 1, got {'A': 30, 'B': 32}"),
        ({"mlp": {"hidden": 5}}, "mlp hidden must map every dataset (A, B) to an integer >= 1, "
                                 "got 5"),
        ({"mlp": {"hidden": "x"}}, "mlp hidden must be an integer >= 1, or an object mapping "
                                   "datasets to one, got 'x'"),
        ({"mlp": {"hidden": {"A": 30, "B": 0}}}, "mlp hidden must be an integer >= 1, or an "
                                                 "object mapping datasets to one, "
                                                 "got {'A': 30, 'B': 0}"),
        ({"mlp": {"epochs": 2.5}}, "mlp epochs must be an integer >= 1, got 2.5"),
        ({"mlp": {"epochs": 0}}, "mlp epochs must be an integer >= 1, got 0"),
    ])
    def test_data_and_mlp_settings_checked(self, config, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BenchConfig.from_dict(config)

    @pytest.mark.parametrize("hidden", [4, {"A": 5, "C": 1}])
    def test_mlp_settings_take_a_count_or_a_table(self, hidden):
        assert MlpSettings(hidden=hidden).hidden == hidden
        with pytest.raises(ValueError, match="^mlp hidden must be an integer >= 1"):
            MlpSettings(hidden=True)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            BenchConfig(datasets={"A": 1.5})


class TestFailureIsolation:
    def test_failed_subrun_recorded_and_matrix_continues(self, tmp_path):
        # an mlp hidden-unit table missing dataset B breaks only the mlp runs; the config
        # refuses such a table, so the entry goes after the check
        cfg = small_config(seeds=(1,), mlp=MlpSettings(hidden={"A": 5, "B": 5}, epochs=10))
        del cfg.mlp.hidden["B"]
        report = run_bench(cfg, tmp_path)
        failed = {(f["paradigm"], f["dataset"]) for f in report["failures"]}
        assert failed == {("mlp", "B")}
        finished = {(r["paradigm"], r["dataset"]) for r in report["runs"] if "error" not in r}
        assert ("cart", "B") in finished and ("anfis-gaussian", "B") in finished


class TestMamdaniTrainRmse:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("kind", ["mamdani-gd", "mamdani-ga"])
    def test_tuner_value_is_the_models_rmse(self, kind, seed, monkeypatch):
        """The tuner's own final error (GD's final_train_rmse, the GA's last best
        fitness negated) is the tuned model's training RMSE, bit for bit, so the
        run does not score its training rows again."""
        tr, te = tace.split(tace.normalize(tace.generate(7, 150)), 0.8, seed)
        scored = []
        rmse = MamdaniModel.rmse

        def recording(model, X, y):
            scored.append("train" if len(X) == len(tr.x) else "test")
            return rmse(model, X, y)

        monkeypatch.setattr(MamdaniModel, "rmse", recording)
        run = train_paradigm(kind, (tr.x, tr.y), (te.x, te.y), small_config().mamdani, seed)
        monkeypatch.undo()
        tuned = ["train", "test"] if kind == "mamdani-gd" else ["test"]  # gd_tune's final RMSE
        assert scored == ["train", "test"] + tuned  # the untuned model, then the tuned one
        assert run.train_rmse == run.model.rmse(tr.x, tr.y)
        if kind == "mamdani-ga":
            assert run.train_rmse == -run.curve[-1]


class TestTestSplitChecked:
    @pytest.mark.parametrize("kind", ["anfis-gaussian", "mamdani-gd", "mlp", "cart"])
    def test_non_finite_test_value_rejected_naming_split(self, kind):
        cfg = small_config()
        settings = {"anfis-gaussian": cfg.anfis, "mamdani-gd": cfg.mamdani,
                    "mlp": replace(cfg.mlp, hidden=5), "cart": cfg.cart}[kind]
        tr, te = tace.split(tace.normalize(tace.generate(7, 150)), 0.8, 1)
        Xte = te.x.copy()
        Xte[0, 1] = np.nan
        with pytest.raises(ValueError, match="^test split: X holds non-finite values"):
            train_paradigm(kind, (tr.x, tr.y), (Xte, te.y), settings, 1)
