"""CLI contracts: subcommands, exit codes, file formats, model round-trips."""

import json
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from softdss import tace
from softdss.anfis import AnfisModel
from softdss.bench import (
    AnfisSettings,
    CartSettings,
    MamdaniSettings,
    MlpSettings,
    train_paradigm,
    unit_score_variable,
    unit_variables,
)
from softdss.cart import TreeNode, grow
from softdss.cli import main
from softdss.fuzzy import MF_SHAPES, LinguisticVariable, MamdaniModel, MamdaniRule
from softdss.mamdani import decode_centers, encode_centers, wang_mendel
from softdss.mlp import mlp_init
from softdss.modelio import (
    FORMAT_TAG,
    KINDS,
    load_model,
    model_kind,
    predict_normalized,
    save_model,
)

from test_tace import normalize_inputs_oracle


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

    @pytest.mark.parametrize("flag, value, want", [
        ("--n", "0", ">= 1"), ("--seed", "-1", ">= 0"), ("--n", "ten", ">= 1")])
    def test_bad_count_is_usage_error_naming_flag(self, tmp_path, capsys, flag, value, want):
        out = tmp_path / "d.csv"
        code, _, err = run_cli(capsys, "generate-data", flag, value, "--out", str(out))
        assert code == 1
        assert f"argument {flag}: expected an integer {want}, got '{value}'" in err
        assert not out.exists()


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

    @pytest.mark.parametrize("model, flag, value, want", [
        ("cart", "--seed", "-1", ">= 0"), ("mlp", "--epochs", "0", ">= 1")])
    def test_bad_count_is_usage_error_naming_flag(self, data_csv, tmp_path, capsys,
                                                  model, flag, value, want):
        code, _, err = run_cli(
            capsys, "train", "--model", model, "--data", str(data_csv),
            "--out", str(tmp_path / "m.json"), flag, value,
        )
        assert code == 1
        assert f"argument {flag}: expected an integer {want}, got '{value}'" in err

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

    def test_out_of_range_csv_is_rejected(self, tmp_path, capsys):
        bad = tmp_path / "score.csv"
        bad.write_text("fuel,intercept_time,weapon,danger,score\n1,2,3,4,5\n1,2,3,4,99\n")
        out = tmp_path / "m.json"
        code, _, err = run_cli(
            capsys, "train", "--model", "cart", "--data", str(bad), "--out", str(out),
        )
        assert code == 2
        assert "line 3: score=99 outside [0, 10]" in err
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

    def test_bad_cart_folds_is_usage_error(self, data_csv, tmp_path, capsys):
        out = tmp_path / "cart.json"
        code, _, err = run_cli(
            capsys, "train", "--model", "cart", "--data", str(data_csv),
            "--out", str(out), "--config", '{"folds": 0}',
        )
        assert code == 1
        assert "cart --config: cart folds must be an integer >= 2, got 0" in err
        assert not out.exists()

    def test_bad_mamdani_setting_is_usage_error(self, data_csv, tmp_path, capsys):
        out = tmp_path / "ga.json"
        code, _, err = run_cli(
            capsys, "train", "--model", "mamdani-ga", "--data", str(data_csv),
            "--out", str(out), "--config", '{"input_mfs": 0}',
        )
        assert code == 1
        assert "mamdani-ga --config: mamdani input_mfs must be an integer >= 1, got 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("config,message", [
        ('{"epochs": 2.5}', "mlp --config: mlp epochs must be an integer >= 1, got 2.5"),
        ('{"hidden_units": "x"}', "mlp --config: hidden_units must be an integer >= 1, got 'x'"),
        ('{"hidden_units": {"A": 5}}',
         "mlp --config: hidden_units must be an integer >= 1, got {'A': 5}"),
    ], ids=["epochs-float", "hidden-string", "hidden-table"])
    def test_bad_mlp_setting_is_usage_error(self, config, message, data_csv, tmp_path, capsys):
        out = tmp_path / "mlp.json"
        code, _, err = run_cli(
            capsys, "train", "--model", "mlp", "--data", str(data_csv), "--out", str(out),
            "--config", config,
        )
        assert code == 1
        assert message in err
        assert not out.exists()

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

    def test_bad_cart_folds_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "bench"
        config = '{"cart": {"folds": 0}}'
        code, _, err = run_cli(capsys, "bench", "--out", str(out), "--config", config)
        assert code == 1
        assert "bench --config: cart folds must be an integer >= 2, got 0" in err
        assert not out.exists()  # rejected before any cell runs

    @pytest.mark.parametrize("config,message", [
        ('{"anfis": {"epochs": 0}}', "anfis epochs must be an integer >= 1, got 0"),
        ('{"seeds": ["a"]}', "seeds must be distinct integers >= 0, at least one, got ['a']"),
        ('{"seeds": [1, 1]}', "seeds must be distinct integers >= 0, at least one, got [1, 1]"),
        ('{"seeds": [1], "n": 10}', "cart.folds must be <= 8, the rows of the smallest "
                                    "training split for n = 10, got 10"),
        ('{"jitter": "no"}', "config jitter must be true or false, got 'no'"),
        ('{"datasets": [1]}', "config datasets must be a non-empty object of fractions, got [1]"),
        ('{"datasets": {}}', "config datasets must be a non-empty object of fractions, got {}"),
        ('{"datasets": {"C": 0.5}}', "mlp hidden must map every dataset (C) to an integer >= 1, "
                                     "got {'A': 30, 'B': 32}"),
        ('{"mlp": {"epochs": 2.5}}', "mlp epochs must be an integer >= 1, got 2.5"),
        ('{"anfis": {"shapes": [[]]}}', "anfis shapes must be distinct names from "
                                        "['gaussian', 'gbell', 'trapezoid', 'triangle'], got [[]]"),
        ('{"seeds": [1], "n": 20, "datasets": {"A": 0.98}, "mlp": {"hidden": {"A": 3}, '
         '"epochs": 5}, "anfis": {"epochs": 1, "shapes": ["gaussian"]}, "mamdani": '
         '{"generations": 1, "population": 4}, "cart": {"folds": 2}}',
         "dataset 'A': train_fraction 0.98 of 20 rows leaves 20 training and 0 test rows; "
         "each side needs at least one"),
        ('{"n": 20, "datasets": {"A": 0.5, "B": 0.02}, "mlp": {"hidden": {"A": 3, "B": 3}}, '
         '"cart": {"folds": 2}}',
         "dataset 'B': train_fraction 0.02 of 20 rows leaves 0 training and 20 test rows; "
         "each side needs at least one"),
    ])
    def test_bad_setting_is_usage_error_before_any_cell(self, config, message, tmp_path, capsys):
        out = tmp_path / "bench"
        code, _, err = run_cli(capsys, "bench", "--out", str(out), "--config", config)
        assert code == 1
        assert f"bench --config: {message}" in err
        assert not out.exists()

    def test_non_object_section_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "bench", "--out", str(tmp_path), "--config", '{"anfis": 5}')
        assert code == 1
        assert "'anfis' must be an object" in err


def small_mamdani(n_inputs=4):
    rules = [MamdaniRule((0,) * n_inputs, 0, 0.5), MamdaniRule((1,) * n_inputs, 2, 1.0)]
    return MamdaniModel(unit_variables(2, "triangle")[:n_inputs], unit_score_variable(3), rules)


def small_tree():
    """One split on normalized fuel: <= 0.4 scores 0.1, above scores 0.9."""
    return TreeNode(0.5, 2, 0.32, split_variable=0, threshold=0.4,
                    left=TreeNode(0.1, 1, 0.0), right=TreeNode(0.9, 1, 0.0))


def small_mlp():
    return mlp_init(4, 3, seed=1)


def model_payload(model):
    """The file payload of `model` with the default ranges, built without `save_model`'s checks."""
    kind = model_kind(model)
    return {"format": FORMAT_TAG, "input_ranges": [list(r) for r in tace.FIELD_RANGES],
            "output_range": list(tace.SCORE_RANGE),
            "model": {"kind": kind, **KINDS[kind].encode(model)}}


def small_anfis():
    return AnfisModel.grid(unit_variables(2, "gaussian"))


def load_model_of(model, **ranges):
    """`model` as `load_model` reads it back from a `save_model` file with `ranges`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(model, path, **ranges)
        return load_model(path)


RULE = ("model", "rules", 0)
# model maker, (payload key path, new value) or None for the unedited payload,
# and the field the message names
BAD_MODEL_FILES = [
    pytest.param(small_mamdani, (RULE + ("consequent",), 1.5), "consequent", id="float-consequent"),
    pytest.param(small_mamdani, (RULE + ("consequent",), "1"), "consequent", id="string-consequent"),
    pytest.param(small_mamdani, (RULE + ("consequent",), True), "consequent", id="bool-consequent"),
    pytest.param(small_mamdani, (RULE + ("antecedent", 1), True), "antecedent", id="bool-antecedent"),
    pytest.param(small_anfis, (("model", "rules", 3, 1), True), "antecedent",
                 id="bool-anfis-antecedent"),
    # rule indices past the C long range: once an OverflowError from the int cast
    pytest.param(small_anfis, (("model", "rules", 3, 1), 10**30),
                 f"antecedent index {10**30} out of range for 'intercept_time'",
                 id="huge-anfis-antecedent"),
    pytest.param(small_mamdani, (RULE + ("antecedent", 2), -10**30),
                 f"antecedent index {-10**30} out of range for 'weapon'",
                 id="huge-negative-antecedent"),
    pytest.param(small_mamdani, (RULE + ("consequent",), 10**30),
                 f"consequent index {10**30} out of range", id="huge-consequent"),
    pytest.param(small_mamdani, (RULE + ("weight",), "0.5"), "weight", id="string-weight"),
    pytest.param(small_mamdani, (RULE + ("weight",), None), "weight", id="null-weight"),
    pytest.param(small_mamdani, (("model", "rules"), []), "rules", id="no-mamdani-rules"),
    pytest.param(lambda: small_mamdani(3), None, "inputs", id="3-input-mamdani"),
    pytest.param(lambda: mlp_init(3, 3, seed=1), None, "input_dim", id="3-input-mlp"),
    pytest.param(lambda: AnfisModel.grid(unit_variables(2, "gaussian")[:3]), None, "inputs",
                 id="3-input-anfis"),
    pytest.param(small_mamdani, (("model", "inputs", 0, "range"), [0.0]), "range",
                 id="one-element-range"),
    pytest.param(small_mamdani, (("model", "output", "range"), ["0", "1"]), "range",
                 id="string-range"),
    pytest.param(small_mlp, (("model", "hidden_units"), "5"), "hidden_units",
                 id="string-hidden-units"),
    pytest.param(small_mlp, (("model", "input_dim"), 4.0), "input_dim", id="float-input-dim"),
    pytest.param(small_tree, (("model", "tree"), []), "tree", id="list-tree"),
    pytest.param(small_tree, (("output_range",), [10.0, 0.0]), "output_range",
                 id="reversed-output-range"),
    # fields of the wrong JSON type
    pytest.param(small_tree, (("model",), []), "model is [], not an object", id="list-model"),
    pytest.param(small_tree, (("model", "kind"), ["cart"]), "unknown model kind", id="list-kind"),
    pytest.param(small_anfis, (("model", "rules"), 5), "anfis rules is 5", id="int-anfis-rules"),
    pytest.param(small_anfis, (("model", "rules", 3), 5), "anfis rules[3] is 5",
                 id="int-anfis-rule"),
    pytest.param(small_anfis, (("model", "inputs"), 5), "anfis inputs is 5", id="int-anfis-inputs"),
    pytest.param(small_anfis, (("model", "inputs", 1), []), "anfis inputs[1] is []",
                 id="list-variable"),
    pytest.param(small_anfis, (("model", "inputs", 0, "mfs"), 3), "anfis inputs[0] mfs is 3",
                 id="int-mfs"),
    pytest.param(small_anfis, (("model", "inputs", 0, "mfs", 1), 3), "anfis inputs[0] mfs[1] is 3",
                 id="int-mf"),
    pytest.param(small_anfis, (("model", "inputs", 0, "mfs", 1, "shape"), []),
                 "unknown membership shape", id="list-mf-shape"),
    pytest.param(small_mamdani, (("model", "rules"), 5), "mamdani rules is 5",
                 id="int-mamdani-rules"),
    pytest.param(small_mamdani, (RULE, 5), "mamdani rules[0] is 5", id="int-mamdani-rule"),
    pytest.param(small_mamdani, (RULE + ("antecedent",), 5), "mamdani rules[0] antecedent is 5",
                 id="int-antecedent"),
    pytest.param(small_mamdani, (("model", "output"), 5), "mamdani output is 5", id="int-output"),
    pytest.param(small_mlp, (("model", "weights"), {}), "weights", id="object-weights"),
    pytest.param(small_mlp, (("model", "weights"), ["a"]), "weights", id="string-weights"),
    pytest.param(small_tree, (("model", "tree", "sample_count"), "x"), "sample_count",
                 id="string-sample-count"),
    pytest.param(small_tree, (("model", "tree", "left", "sample_count"), -1), "sample_count",
                 id="negative-sample-count"),
    pytest.param(small_tree, (("model", "tree", "right", "sse"), None), "sse", id="null-sse"),
]


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

    @pytest.mark.parametrize("values", ["-1e9,30,60,4", "-.5,30,60,4"])
    def test_negative_first_value_reaches_range_check(self, cart_model, capsys, values):
        code, _, err = run_cli(capsys, "predict", "--model", str(cart_model), values)
        assert code == 2
        assert "fuel=" in err and "outside" in err

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

    @pytest.mark.parametrize("make,edit,field", BAD_MODEL_FILES)
    def test_malformed_model_file_named_at_load(self, tmp_path, capsys, make, edit, field):
        path = tmp_path / "model.json"
        payload = model_payload(make())
        if edit is not None:
            keys, value = edit
            node = payload
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")
        assert field in str(info.value)
        code, out, err = run_cli(capsys, "predict", "--model", str(path), "500,30,50,5")
        assert code == 2
        assert out == ""
        assert field in err
        assert err.startswith("softdss: ") and err.count("\n") == 1

    @pytest.mark.parametrize("make,ranges,field", [
        (lambda: mlp_init(3, 3, seed=1), {}, "input_dim is 3, not 4"),
        (lambda: small_mamdani(3), {}, "mamdani inputs hold 3 variables, not 4"),
        (small_tree, {"output_range": (10.0, 0.0)}, "output_range"),
        (small_tree, {"input_ranges": tace.FIELD_RANGES[:3]}, "input_ranges"),
    ], ids=["3-input-mlp", "3-input-mamdani", "reversed-output-range", "three-input-ranges"])
    def test_save_refuses_what_load_refuses(self, tmp_path, make, ranges, field):
        path = tmp_path / "model.json"
        with pytest.raises(ValueError) as info:
            save_model(make(), path, **ranges)
        assert str(info.value).startswith(f"{path}: ")
        assert field in str(info.value)
        assert not path.exists()

    @pytest.mark.parametrize("make", [small_anfis, small_mamdani, small_mlp, small_tree],
                             ids=["anfis", "mamdani", "mlp", "cart"])
    def test_score_takes_exactly_one_situation(self, tmp_path, monkeypatch, make):
        path = tmp_path / "model.json"
        save_model(make(), path)
        loaded = load_model(path)
        want = loaded.predict_score([500, 30, 50, 5])
        assert loaded.predict_score(np.array([[500, 30, 50, 5]])) == want

        def no_normalization(*args):
            raise AssertionError("a malformed situation was normalized")

        monkeypatch.setattr(tace, "normalize_inputs", no_normalization)
        for bad, shape in [([500, 30, 50, 5, 99], "(5,)"), ([500, 30, 50], "(3,)"),
                           (7.0, "()"), ([[500, 30, 50, 5], [0, 60, 0, 10]], "(2, 4)"),
                           ([[[500, 30, 50, 5]]], "(1, 1, 4)")]:
            with pytest.raises(ValueError) as info:
                loaded.predict_score(bad)
            assert str(info.value) == f"expected one situation of 4 values, got shape {shape}"
        for bad, shape in [(np.full((3, 5), 0.5), "(3, 5)"), (np.full(3, 0.5), "(1, 3)")]:
            with pytest.raises(ValueError) as info:
                loaded.predict_normalized(bad)
            assert str(info.value) == f"expected (rows, 4) inputs, got shape {shape}"

    @pytest.mark.parametrize("bad", [[1j, 2, 3, 4], np.array([500, 30, 50, 5 + 1j]), {"a": 1},
                                     ["fuel", 30, 50, 5], [[500, 30], [50]]],
                             ids=["complex-value", "complex-array", "object", "word", "ragged"])
    def test_score_refuses_what_is_not_real_numbers(self, bad):
        loaded = load_model_of(small_tree())
        with pytest.raises(ValueError, match="^a situation must hold 4 real numbers, got "):
            loaded.predict_score(bad)

    @pytest.mark.parametrize("case", [(kind, shape) for kind in ("anfis", "mamdani")
                                      for shape in MF_SHAPES] + [("mlp", None), ("cart", None)],
                             ids=lambda case: "-".join(filter(None, case)))
    def test_score_equals_the_per_column_chain_bit_for_bit(self, case):
        """predict_score against the chain it replaced: the per-column normalize, the
        checked wrapper and np.clip, at, inside and beyond the field ranges."""
        bounds = np.array(tace.FIELD_RANGES)
        span = bounds[:, 1] - bounds[:, 0]
        rng = np.random.default_rng(0)
        rows = [bounds[:, 0], bounds[:, 1], bounds[:, 0] - span, bounds[:, 1] + 10 * span,
                np.where(np.arange(4) % 2, bounds[:, 0], bounds[:, 1]),
                *rng.uniform(bounds[:, 0] - span, bounds[:, 1] + span, size=(20, 4))]
        for seed in range(3):
            model = random_model(*case, np.random.default_rng(seed))
            for output_range in [tace.SCORE_RANGE, (-0.0, 1.0), (-5.0, 5.0)]:
                loaded = load_model_of(model, output_range=output_range)
                lo, hi = output_range
                for x in rows:
                    yn = float(loaded.predict_normalized(normalize_inputs_oracle(x))[0])
                    want = float(np.clip(yn * (hi - lo) + lo, lo, hi))
                    assert np.float64(loaded.predict_score(x)).tobytes() == np.float64(want).tobytes()

    def test_score_keeps_a_signed_zero_tie_as_np_clip_does(self):
        # leaves at 0 and 1: a score of exactly lo or hi, where a clip could pick either zero
        tree = TreeNode(0.5, 2, 0.5, split_variable=0, threshold=0.4,
                        left=TreeNode(0.0, 1, 0.0), right=TreeNode(1.0, 1, 0.0))
        for lo, hi in [(-0.0, 10.0), (-10.0, -0.0), (0.0, 10.0)]:
            loaded = load_model_of(tree, output_range=(lo, hi))
            for x in ([0, 30, 50, 5], [500, 30, 50, 5]):  # the 0 leaf, the 1 leaf
                yn = float(loaded.predict_normalized(normalize_inputs_oracle(x))[0])
                want = np.clip(yn * (hi - lo) + lo, lo, hi)
                assert np.float64(loaded.predict_score(x)).tobytes() == want.tobytes()


def random_model(kind, shape, rng):
    """A model of `kind` with random parameters; `shape` is the fuzzy kinds' MF shape."""
    X, y = rng.uniform(size=(60, 4)), rng.uniform(size=60)
    if kind == "anfis":
        model = AnfisModel.grid(unit_variables(2, shape))
        noise = rng.normal(scale=0.02, size=model.input_layer.n_params)
        model = replace(model, inputs=model.input_layer.stepped(-noise).to_variables())
        return replace(model, consequents=rng.normal(size=model.consequents.shape))
    if kind == "mamdani":
        output = LinguisticVariable.uniform("score", 0.0, 1.0, 3, shape=shape)
        base = wang_mendel(X, y, unit_variables(3, shape), output)
        _, lo, hi = encode_centers(base)
        return decode_centers(base, rng.uniform(lo, hi))
    if kind == "mlp":
        return mlp_init(4, int(rng.integers(1, 9)), seed=int(rng.integers(2**31)))
    return grow(X, y, min_leaf=int(rng.integers(1, 10)))


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

    @settings(max_examples=200, deadline=None)
    @given(
        case=st.sampled_from([(kind, shape) for kind in ("anfis", "mamdani") for shape in MF_SHAPES]
                             + [("mlp", None), ("cart", None)]),
        seed=st.integers(0, 2**32 - 1),
        X=arrays(np.float64, st.tuples(st.integers(1, 30), st.just(4)), elements=st.floats(0, 1)),
    )
    def test_round_trip_is_exact(self, tmp_path_factory, case, seed, X):
        """Every kind and MF shape: predictions bit-equal after reload, and a re-save is
        byte-equal to the first file."""
        model = random_model(*case, np.random.default_rng(seed))
        first, again = (tmp_path_factory.getbasetemp() / name for name in ("m1.json", "m2.json"))
        save_model(model, first)
        loaded = load_model(first)
        assert np.array_equal(predict_normalized(loaded.model, X), predict_normalized(model, X))
        save_model(loaded.model, again, loaded.input_ranges, loaded.output_range)
        assert again.read_bytes() == first.read_bytes()

    def test_save_load_identity(self, tmp_path):
        from softdss.mlp import mlp_init

        model = mlp_init(4, 6, seed=5)
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.model.weights, model.weights)
        assert loaded.kind == "mlp"
        assert loaded.input_ranges == tace.FIELD_RANGES
