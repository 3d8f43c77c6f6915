"""CLI contracts: subcommands, exit codes, file formats, model round-trips."""

import json

import numpy as np
import pytest

from softdss import tace
from softdss.anfis import AnfisModel
from softdss.bench import (
    AnfisSettings,
    CartSettings,
    MamdaniSettings,
    MlpSettings,
    train_paradigm,
    unit_variables,
)
from softdss.cart import TreeNode
from softdss.cli import main
from softdss.mlp import mlp_init
from softdss.modelio import load_model, predict_normalized, save_model


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tace.csv"
    assert main(["generate-data", "--seed", "1", "--n", "250", "--out", str(path)]) == 0
    return path


class TestGenerateData:
    def test_line_count(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, _, _ = run_cli(capsys, "generate-data", "--seed", "1", "--n", "1000", "--out", str(out))
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 1001

    def test_idempotent(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "generate-data", "--seed", "3", "--n", "100", "--out", str(a))
        run_cli(capsys, "generate-data", "--seed", "3", "--n", "100", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_anchors_mode_is_expert_table(self, tmp_path, capsys):
        out = tmp_path / "anchors.csv"
        code, _, _ = run_cli(capsys, "generate-data", "--anchors", "--out", str(out))
        assert code == 0
        data = tace.load_csv(out)
        assert len(data) == 11
        expected = np.array([tuple(s) for s in tace.anchor_table()])
        np.testing.assert_array_equal(np.column_stack([data.x, data.y]), expected)

    def test_unwritable_path_is_runtime_error(self, capsys):
        code, _, err = run_cli(
            capsys, "generate-data", "--out", "/nonexistent-dir/x.csv"
        )
        assert code == 2
        assert "/nonexistent-dir/x.csv" in err


class TestTrain:
    def test_anfis_curve_rows(self, data_csv, tmp_path, capsys):
        model = tmp_path / "anfis.json"
        code, out, _ = run_cli(
            capsys, "train", "--model", "anfis", "--data", str(data_csv),
            "--out", str(model), "--epochs", "15", "--shape", "gaussian",
        )
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "anfis"
        curve = (tmp_path / "anfis.curve.csv").read_text().strip().split("\n")
        assert curve[0] == "epoch,train_rmse"
        assert len(curve) == 16

    def test_cart_reports_terminal_count(self, data_csv, tmp_path, capsys):
        model = tmp_path / "cart.json"
        code, out, _ = run_cli(
            capsys, "train", "--model", "cart", "--data", str(data_csv), "--out", str(model),
        )
        assert code == 0
        report = json.loads(out)
        assert report["extras"]["terminal_count"] >= 1

    def test_ga_curve_rows(self, data_csv, tmp_path, capsys):
        model = tmp_path / "ga.json"
        code, out, _ = run_cli(
            capsys, "train", "--model", "mamdani-ga", "--data", str(data_csv),
            "--out", str(model), "--epochs", "12",
            "--config", '{"population": 6}',
        )
        assert code == 0
        curve = (tmp_path / "ga.curve.csv").read_text().strip().split("\n")
        assert curve[0] == "generation,best_fitness"
        assert len(curve) == 13

    def test_unknown_kind_is_usage_error(self, data_csv, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "train", "--model", "nonsense", "--data", str(data_csv),
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 1

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("fuel,intercept_time,weapon,danger,score\n1,2,3,4,5\n1,2,3\n")
        code, _, err = run_cli(
            capsys, "train", "--model", "cart", "--data", str(bad),
            "--out", str(tmp_path / "m.json"),
        )
        assert code == 2
        assert "line 3" in err


    def test_non_finite_csv_is_rejected(self, tmp_path, capsys):
        bad = tmp_path / "nan.csv"
        bad.write_text("fuel,intercept_time,weapon,danger,score\n1,2,3,4,5\nnan,2,3,4,5\n")
        out = tmp_path / "m.json"
        code, _, err = run_cli(
            capsys, "train", "--model", "cart", "--data", str(bad), "--out", str(out),
        )
        assert code == 2  # like any other malformed data file
        assert "line 3: fuel is not finite" in err
        assert not out.exists()

    def test_anfis_summary_reports_solver_path(self, data_csv, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "train", "--model", "anfis", "--data", str(data_csv),
            "--out", str(tmp_path / "anfis.json"), "--epochs", "2",
        )
        assert code == 0
        solves = json.loads(out)["extras"]["consequent_solves"]
        assert set(solves) == {"lstsq", "ridge", "certified"}
        assert sum(solves.values()) == 3

    def test_ga_summary_reports_evaluation_count(self, data_csv, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "train", "--model", "mamdani-ga", "--data", str(data_csv),
            "--out", str(tmp_path / "ga.json"),
            "--config", '{"population": 6, "generations": 3}',
        )
        assert code == 0
        counts = json.loads(out)["extras"]["ga_evaluations"]
        assert counts["lookups"] == 6 * (3 + 1)
        assert 1 <= counts["distinct"] < counts["lookups"]

    def test_ga_on_non_finite_data_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "inf.csv"
        bad.write_text("fuel,intercept_time,weapon,danger,score\n1,2,3,4,5\n1,2,3,4,inf\n")
        out = tmp_path / "ga.json"
        code, _, err = run_cli(
            capsys, "train", "--model", "mamdani-ga", "--data", str(bad), "--out", str(out),
        )
        assert code == 2
        assert "line 3: score is not finite" in err
        assert not out.exists()

    def test_unknown_config_key_is_usage_error(self, data_csv, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "train", "--model", "mamdani-ga", "--data", str(data_csv),
            "--out", str(tmp_path / "ga.json"), "--config", '{"populaton": 6}',
        )
        assert code == 1
        assert "populaton" in err

    def test_epochs_for_cart_is_usage_error(self, data_csv, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "train", "--model", "cart", "--data", str(data_csv),
            "--out", str(tmp_path / "cart.json"), "--epochs", "5",
        )
        assert code == 1
        assert "--epochs" in err


# (CLI arguments, train_paradigm kind, the settings those arguments stand for)
TRAIN_CASES = [
    (["--model", "anfis", "--shape", "trapezoid", "--epochs", "2", "--config", '{"mf_count": 2}'],
     "anfis-trapezoid", AnfisSettings(epochs=2, mf_count=2)),
    (["--model", "mamdani-gd", "--epochs", "3", "--config", '{"momentum": 0.1}'],
     "mamdani-gd", MamdaniSettings(gd_epochs=3, momentum=0.1)),
    (["--model", "mamdani-ga", "--epochs", "2", "--config", '{"population": 6}'],
     "mamdani-ga", MamdaniSettings(population=6, generations=2)),
    (["--model", "mlp", "--epochs", "15", "--config", '{"hidden_units": 4}'],
     "mlp", MlpSettings(hidden=4, epochs=15)),
    (["--model", "cart", "--config", '{"folds": 3}'], "cart", CartSettings(folds=3)),
]


@pytest.mark.parametrize("argv,kind,settings", TRAIN_CASES, ids=[c[1] for c in TRAIN_CASES])
def test_train_writes_what_train_paradigm_trains(argv, kind, settings, data_csv, tmp_path, capsys):
    out = tmp_path / "cli.json"
    code, _, _ = run_cli(capsys, "train", *argv, "--data", str(data_csv), "--out", str(out),
                         "--seed", "2")
    assert code == 0
    data = tace.normalize(tace.load_csv(data_csv))
    run = train_paradigm(kind, (data.x, data.y), None, settings, 2)
    run.save(tmp_path / "lib.json", tmp_path / "lib.curve.csv")
    assert out.read_bytes() == (tmp_path / "lib.json").read_bytes()
    assert (tmp_path / "cli.curve.csv").read_bytes() == (tmp_path / "lib.curve.csv").read_bytes()


class TestBenchConfig:
    @pytest.mark.parametrize("config,key", [
        ('{"seed": [1]}', "seed"),
        ('{"anfis": {"epoch": 2}}', "epoch"),
    ])
    def test_unknown_key_is_usage_error(self, config, key, tmp_path, capsys):
        code, _, err = run_cli(capsys, "bench", "--out", str(tmp_path), "--config", config)
        assert code == 1
        assert key in err

    def test_non_object_section_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "bench", "--out", str(tmp_path), "--config", '{"anfis": 5}')
        assert code == 1
        assert "'anfis' must be an object" in err


@pytest.fixture(scope="module")
def cart_model(data_csv, tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "cart.json"
    assert main(["train", "--model", "cart", "--data", str(data_csv), "--out", str(path)]) == 0
    return path


class TestPredict:

    def test_anchor_midpoint(self, cart_model, capsys):
        code, out, _ = run_cli(capsys, "predict", "--model", str(cart_model), "500,30,60,4")
        assert code == 0
        assert float(out.strip()) == pytest.approx(5.0, abs=0.75)

    def test_extremes_ordered(self, cart_model, capsys):
        _, low, _ = run_cli(capsys, "predict", "--model", str(cart_model), "0,60,0,10")
        _, high, _ = run_cli(capsys, "predict", "--model", str(cart_model), "1000,1,100,0")
        assert float(low.strip()) < float(high.strip())
        assert 0.0 <= float(low.strip()) <= 10.0
        assert 0.0 <= float(high.strip()) <= 10.0

    def test_out_of_range_names_field(self, cart_model, capsys):
        code, _, err = run_cli(capsys, "predict", "--model", str(cart_model), "--", "-5,30,60,4")
        assert code == 2
        assert "fuel" in err

    def test_wrong_arity_is_usage_error(self, cart_model, capsys):
        code, _, _ = run_cli(capsys, "predict", "--model", str(cart_model), "1,2,3")
        assert code == 1

    def test_non_finite_input_names_field(self, cart_model):
        loaded = load_model(cart_model)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="weapon"):
                loaded.predict_score([500, 30, value, 4])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_model_score_is_runtime_error(self, tmp_path, capsys):
        # finite weights whose output overflows
        path = tmp_path / "overflow.json"
        save_model(mlp_init(4, 3, seed=1), path)
        payload = json.loads(path.read_text())
        payload["model"]["weights"] = [1e308] * len(payload["model"]["weights"])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="non-finite score"):
            load_model(path).predict_score([500, 30, 60, 4])
        code, out, err = run_cli(capsys, "predict", "--model", str(path), "500,30,60,4")
        assert code == 2
        assert out == ""
        assert "non-finite score" in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_mlp_weights_rejected_at_load(self, tmp_path, capsys, value):
        path = tmp_path / "nan.json"
        save_model(mlp_init(4, 3, seed=1), path)
        payload = json.loads(path.read_text())
        payload["model"]["weights"][0] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="weights hold non-finite") as info:
            load_model(path)
        assert str(path) in str(info.value)
        code, out, err = run_cli(capsys, "predict", "--model", str(path), "500,30,60,4")
        assert code == 2
        assert out == ""
        assert "weights" in err

    def test_missing_model_field_names_file_and_field(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        save_model(mlp_init(4, 3, seed=1), path)
        payload = json.loads(path.read_text())
        del payload["model"]["weights"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="weights") as info:
            load_model(path)
        assert str(path) in str(info.value)
        code, _, err = run_cli(capsys, "predict", "--model", str(path), "500,30,60,4")
        assert code == 2
        assert "ValueError" in err and "weights" in err

    @pytest.mark.parametrize("node,field,value,message", [
        ("root", "threshold", float("nan"), "threshold is nan, not a finite number"),
        ("right", "prediction", float("inf"), "prediction is inf, not a finite number"),
        ("left", "prediction", True, "prediction is True, not a finite number"),
        ("root", "split_variable", 7, r"split_variable is 7, not an integer in \[0, 4\)"),
        ("root", "split_variable", 0.5, r"split_variable is 0.5, not an integer in \[0, 4\)"),
    ], ids=["nan-threshold", "inf-leaf-prediction", "boolean-leaf-prediction",
            "split-variable-7", "split-variable-0.5"])
    def test_bad_tree_rejected_at_load(self, tmp_path, capsys, node, field, value, message):
        tree = TreeNode(0.5, 2, 0.32, split_variable=0, threshold=0.4,
                        left=TreeNode(0.1, 1, 0.0), right=TreeNode(0.9, 1, 0.0))
        path = tmp_path / "tree.json"
        save_model(tree, path)
        payload = json.loads(path.read_text())
        body = payload["model"]["tree"]
        (body if node == "root" else body[node])[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message) as info:
            load_model(path)
        assert str(path) in str(info.value)
        code, out, err = run_cli(capsys, "predict", "--model", str(path), "500,30,50,5")
        assert code == 2
        assert out == ""
        assert field in err

    @pytest.mark.parametrize("edit", [
        lambda c: c[3].__setitem__(2, float("nan")),
        lambda c: c.pop(),
        lambda c: c[0].append(0.0),
    ], ids=["nan-value", "missing-rule-row", "extra-column"])
    def test_bad_anfis_consequents_rejected_at_load(self, tmp_path, capsys, edit):
        path = tmp_path / "anfis.json"
        save_model(AnfisModel.grid(unit_variables(2, "gaussian")), path)
        payload = json.loads(path.read_text())
        edit(payload["model"]["consequents"])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"consequents must be a \(16, 5\) array") as info:
            load_model(path)
        assert str(info.value).count(str(path)) == 1
        code, out, err = run_cli(capsys, "predict", "--model", str(path), "500,30,50,5")
        assert code == 2
        assert out == ""
        assert "consequents" in err

    @pytest.mark.parametrize("params,shown", [
        ([0.5], r"\[0\.5\]"),
        ([0.5, float("inf")], r"\[0\.5, inf\]"),
    ], ids=["one-gaussian-param", "infinite-sigma"])
    def test_bad_mf_params_rejected_at_load(self, tmp_path, capsys, params, shown):
        path = tmp_path / "anfis.json"
        save_model(AnfisModel.grid(unit_variables(2, "gaussian")), path)
        payload = json.loads(path.read_text())
        payload["model"]["inputs"][0]["mfs"][0]["params"] = params
        path.write_text(json.dumps(payload))
        message = f"gaussian params must be a list of 2 finite numbers, got {shown}"
        with pytest.raises(ValueError, match=message) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: gaussian params")
        code, out, err = run_cli(capsys, "predict", "--model", str(path), "500,30,50,5")
        assert code == 2
        assert out == ""
        assert f"ValueError: {path}: gaussian params" in err

    @pytest.mark.parametrize("rule,message", [
        ([5, 0, 0, 0], "antecedent index 5 out of range for 'fuel'"),
        ([0, -1, 0, 0], "antecedent index -1 out of range for 'intercept_time'"),
        ([0, 0, 0], r"antecedent \(0, 0, 0\) does not match input count 4"),
        ([0, 1.5, 0, 0], "antecedent indices must be integers"),
    ], ids=["index-past-mfs", "negative-index", "short-rule", "float-index"])
    def test_bad_anfis_rule_rejected_at_load(self, tmp_path, capsys, rule, message):
        path = tmp_path / "anfis.json"
        save_model(AnfisModel.grid(unit_variables(2, "gaussian")), path)
        payload = json.loads(path.read_text())
        payload["model"]["rules"][3] = rule
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: antecedent")
        assert str(info.value).count(str(path)) == 1
        code, out, err = run_cli(capsys, "predict", "--model", str(path), "500,30,50,5")
        assert code == 2
        assert out == ""
        assert f"ValueError: {path}: antecedent" in err

    def test_score_uses_the_files_input_ranges(self, tmp_path, capsys):
        # one split on normalized fuel: <= 0.4 scores 0.1, above scores 0.9
        tree = TreeNode(0.5, 2, 0.32, split_variable=0, threshold=0.4,
                        left=TreeNode(0.1, 1, 0.0), right=TreeNode(0.9, 1, 0.0))
        default, wide = tmp_path / "default.json", tmp_path / "wide.json"
        save_model(tree, default)
        save_model(tree, wide, input_ranges=((0.0, 2000.0),) + tace.FIELD_RANGES[1:])
        # 500 litres is 0.5 of the default fuel range but 0.25 of (0, 2000)
        assert load_model(default).predict_score([500, 30, 60, 4]) == 9.0
        assert load_model(wide).predict_score([500, 30, 60, 4]) == 1.0
        code, out, _ = run_cli(capsys, "predict", "--model", str(wide), "1500,30,60,4")
        assert code == 0
        assert float(out) == 9.0

    @pytest.mark.parametrize("ranges", [
        [[0, 1000], [0, 60], [0, 100]],
        [[0, 1000], [0, 60], [0, 100], [10, 0]],
        [[0, 1000], [0, 60], [0, 100], [0, "x"]],
    ], ids=["three-fields", "reversed", "non-numeric"])
    def test_bad_input_ranges_rejected(self, cart_model, tmp_path, ranges):
        payload = json.loads(cart_model.read_text())
        payload["input_ranges"] = ranges
        path = tmp_path / "ranges.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="input_ranges"):
            load_model(path)


class TestModelRoundTrip:
    def _trained_models(self, data_csv):
        """One in-memory model per kind, trained tiny on the shared CSV."""
        from softdss.anfis import AnfisModel, anfis_train
        from softdss.bench import unit_score_variable, unit_variables
        from softdss.cart import grow
        from softdss.mamdani import GaConfig, ga_optimize, wang_mendel
        from softdss.mlp import mlp_init, scg_train

        data = tace.normalize(tace.load_csv(data_csv))
        X, y = data.x, data.y
        anfis, _ = anfis_train(
            AnfisModel.grid(unit_variables(2, "gaussian")), (X, y), None, epochs=2
        )
        wm = wang_mendel(X, y, unit_variables(3, "triangle"), unit_score_variable(3))
        ga, _ = ga_optimize(wm, X, y, GaConfig(population=4, generations=2, seed=1))
        net, _ = scg_train(mlp_init(4, 4, seed=1), (X, y), None, epochs=10)
        tree = grow(X, y, min_leaf=5)
        return {"anfis": anfis, "mamdani": ga, "mlp": net, "cart": tree}

    def test_load_predict_agrees_with_memory(self, data_csv, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, size=(100, 4))
        for kind, model in self._trained_models(data_csv).items():
            path = tmp_path / f"{kind}.json"
            save_model(model, path)
            loaded = load_model(path)
            assert loaded.kind == kind
            np.testing.assert_allclose(
                loaded.predict_normalized(X), predict_normalized(model, X), atol=1e-12
            )
            # worst situation scores below best situation for every paradigm
            low = loaded.predict_score([0, 60, 0, 10])
            high = loaded.predict_score([1000, 1, 100, 0])
            assert low < high
            assert 0.0 <= low <= 10.0 and 0.0 <= high <= 10.0

    def test_save_load_identity(self, tmp_path):
        from softdss.mlp import mlp_init

        model = mlp_init(4, 6, seed=5)
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.model.weights, model.weights)
        assert loaded.kind == "mlp"
        assert loaded.input_ranges == tace.FIELD_RANGES
