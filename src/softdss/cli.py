"""Command-line harness: generate-data, train, predict, bench.

Exit codes: 0 success, 1 usage error, 2 runtime error.  Training operates on
[0, 1]-normalized data internally; CSV files and predict inputs/outputs stay
in physical units.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path

from . import tace
from .bench import (
    AnfisSettings,
    BenchConfig,
    CartSettings,
    MamdaniSettings,
    MlpSettings,
    check_keys,
    field_names,
    run_bench,
    train_paradigm,
)
from .fuzzy import MF_SHAPES
from .modelio import load_model

SETTINGS = {
    "anfis": AnfisSettings,
    "mamdani-gd": MamdaniSettings,
    "mamdani-ga": MamdaniSettings,
    "mlp": MlpSettings,
    "cart": CartSettings,
}
EPOCH_FIELDS = {"anfis": "epochs", "mamdani-gd": "gd_epochs", "mamdani-ga": "generations",
                "mlp": "epochs"}
HIDDEN_UNITS = 30


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a word starting "-<digit>" or "-.<digit>" is a value, such as predict's
        # "-1e9,30,60,4"; argparse's default takes only a bare negative number
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # usage problems exit 1, not argparse's default 2
        raise _UsageError(message)


def _integer(minimum: int):
    """argparse type: an integer >= minimum; argparse names the flag on failure."""

    def parse(text):
        try:
            if int(text) >= minimum:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")

    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="softdss", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate-data", help="write a seeded decision dataset CSV")
    gen.add_argument("--seed", type=_integer(0), default=1)
    gen.add_argument("--n", type=_integer(1), default=1000)
    gen.add_argument("--out", required=True)
    gen.add_argument("--jitter", choices=("on", "off"), default="on")
    gen.add_argument("--anchors", action="store_true",
                     help="write exactly the 11 expert anchor rows")

    tr = sub.add_parser("train", help="train one paradigm on a dataset CSV")
    tr.add_argument("--model", required=True, choices=tuple(SETTINGS))
    tr.add_argument("--data", required=True)
    tr.add_argument("--test", default=None, help="optional held-out CSV")
    tr.add_argument("--out", required=True, help="model JSON path")
    tr.add_argument("--epochs", type=_integer(1), default=None)
    tr.add_argument("--shape", choices=tuple(MF_SHAPES), default="gaussian")
    tr.add_argument("--seed", type=_integer(0), default=1)
    tr.add_argument("--config", default=None, help="JSON file or literal with hyperparameters")

    pr = sub.add_parser("predict", help="score a situation with a saved model")
    pr.add_argument("--model", required=True)
    pr.add_argument("values", help="fuel,intercept_time,weapon,danger in physical units")

    be = sub.add_parser("bench", help="run the full benchmark matrix")
    be.add_argument("--out", required=True, help="output directory")
    be.add_argument("--config", default=None, help="JSON file or literal with overrides")
    return parser


def _load_json_arg(arg):
    if arg is None:
        return {}
    path = Path(arg)
    text = path.read_text() if path.exists() else arg
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"--config is not valid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise _UsageError("--config must be a JSON object")
    return value


def _cmd_generate_data(args) -> int:
    if args.anchors:
        dataset = tace.anchors_dataset()
    else:
        dataset = tace.generate(args.seed, args.n, jitter=args.jitter == "on")
    try:
        tace.save_csv(dataset, args.out)
    except OSError as exc:
        raise RuntimeError(f"cannot write {args.out}: {exc.strerror}") from None
    print(f"wrote {len(dataset)} samples to {args.out}")
    return 0


def _load_normalized(path):
    data = tace.normalize(tace.load_csv(path))
    return data.x, data.y


def _train_settings(args):
    """The kind's *Settings: --config keys are its field names, --epochs its epoch field.

    `shapes` and the per-dataset `hidden` table are bench-only; `--shape` and
    the mlp key `hidden_units` take their place.
    """
    opts = _load_json_arg(args.config)
    allowed = field_names(SETTINGS[args.model]) - {"shapes", "hidden"}
    if args.model == "mlp":
        allowed.add("hidden_units")
    try:
        check_keys(opts, allowed, f"{args.model} --config")
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if args.model == "mlp":
        units = opts["hidden"] = opts.pop("hidden_units", HIDDEN_UNITS)
        if not (type(units) is int and units >= 1):  # `MlpSettings` also takes the bench's table
            raise _UsageError(f"mlp --config: hidden_units must be an integer >= 1, got {units!r}")
    if args.epochs is not None:
        if args.model not in EPOCH_FIELDS:
            raise _UsageError(f"--epochs does not apply to {args.model}")
        opts[EPOCH_FIELDS[args.model]] = args.epochs
    try:
        return SETTINGS[args.model](**opts)
    except ValueError as exc:
        raise _UsageError(f"{args.model} --config: {exc}") from None


def _cmd_train(args) -> int:
    settings = _train_settings(args)
    kind = f"anfis-{args.shape}" if args.model == "anfis" else args.model
    train = _load_normalized(args.data)
    test = _load_normalized(args.test) if args.test else None
    out_path = Path(args.out)
    curve_path = out_path.with_suffix(".curve.csv")
    start = time.perf_counter()
    run = train_paradigm(kind, train, test, settings, args.seed)
    run.save(out_path, curve_path)
    summary = {
        "kind": args.model,
        "train_rmse": run.train_rmse,
        "test_rmse": run.test_rmse,
        "wall_time": time.perf_counter() - start,
        "seed": args.seed,
        "model_path": str(out_path),
        "curve_path": str(curve_path),
        "extras": run.extras,
    }
    print(json.dumps(summary, indent=1, sort_keys=True))
    return 0


def _cmd_predict(args) -> int:
    parts = args.values.split(",")
    if len(parts) != 4:
        raise _UsageError(f"expected 4 comma-separated values, got {len(parts)}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise _UsageError(f"non-numeric input value in {args.values!r}") from None
    loaded = load_model(args.model)
    for name, value, (lo, hi) in zip(tace.FIELDS, values, loaded.input_ranges):
        if not lo <= value <= hi:
            raise RuntimeError(f"{name}={value:g} outside [{lo:g}, {hi:g}]")
    print(repr(loaded.predict_score(values)))
    return 0


def _cmd_bench(args) -> int:
    try:
        config = BenchConfig.from_dict(_load_json_arg(args.config))
    except ValueError as exc:
        raise _UsageError(f"bench --config: {exc}") from None
    report = run_bench(config, args.out)
    print(json.dumps(
        {
            "out": str(args.out),
            "summary": report["summary"],
            "best_paradigm_by_test_rmse": report["best_paradigm_by_test_rmse"],
            "failures": report["failures"],
        },
        indent=1,
        sort_keys=True,
    ))
    return 0


_COMMANDS = {
    "generate-data": _cmd_generate_data,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"softdss: error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"softdss: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"softdss: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
