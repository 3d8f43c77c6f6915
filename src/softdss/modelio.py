"""JSON persistence for every model kind plus a uniform prediction wrapper.

Saved files carry an envelope with the model kind and the physical input /
output ranges so a loaded model can score raw (unnormalized) situations.
All numeric values serialize through Python floats, whose repr round-trips
exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import cart as cart_mod
from . import tace
from .anfis import AnfisModel, forward_batch
from .errors import is_range, json_typed
from .fuzzy import MamdaniModel
from .mlp import MlpModel, mlp_forward_batch

FORMAT_TAG = "softdss-model"


@dataclass(frozen=True)
class Kind:
    """How one model kind is written to a file, read back and run.  A predictor looks
    its function up per call, so one patched on its module or class still serves."""

    cls: type
    encode: Callable  # model -> the file's "model" fields besides "kind"
    decode: Callable  # (those fields, input count) -> model; ValueError names a bad field
    predict: Callable  # (model, (n, d) rows on [0, 1]) -> (n,) outputs


KINDS = {
    "anfis": Kind(AnfisModel, AnfisModel.to_dict, AnfisModel.from_dict,
                  lambda m, X: forward_batch(m, X)[0]),
    "mamdani": Kind(MamdaniModel, MamdaniModel.to_dict, MamdaniModel.from_dict,
                    lambda m, X: m.infer_batch(X)[0]),
    "mlp": Kind(MlpModel, MlpModel.to_dict, MlpModel.from_dict,
                lambda m, X: mlp_forward_batch(m, X)),
    "cart": Kind(cart_mod.TreeNode, lambda t: {"tree": t.to_dict()},
                 lambda d, n: cart_mod.TreeNode.from_dict(d["tree"], n),
                 lambda m, X: cart_mod.predict_batch(m, X)),
}


def model_kind(model) -> str:
    for name, kind in KINDS.items():
        if isinstance(model, kind.cls):
            return name
    raise TypeError(f"unknown model type {type(model).__name__}")


def predict_normalized(model, X) -> np.ndarray:
    """Model output on [0, 1]-normalized inputs, uniformly across kinds."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return KINDS[model_kind(model)].predict(model, X)


@dataclass
class LoadedModel:
    """A deserialized model plus the physical ranges it was trained against."""

    kind: str
    model: object
    input_ranges: tuple
    output_range: tuple

    def __post_init__(self):
        # predict_score normalizes with this (d, 2) array; built once, not per query
        self._range_table = np.array(self.input_ranges, dtype=float)

    def predict_normalized(self, X) -> np.ndarray:
        """`predict_normalized` of the model; ValueError for rows not one value per input."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.ndim != 2 or X.shape[1] != len(self.input_ranges):
            raise ValueError(f"expected (rows, {len(self.input_ranges)}) inputs, got shape {X.shape}")
        return predict_normalized(self.model, X)

    def predict_score(self, x_physical) -> float:
        """Crisp decision score in physical units, clipped into the output range.

        `x_physical` is one situation, one real number per input, of shape (n,)
        or (1, n); inputs are normalized with the file's own `input_ranges`.

        Raises ValueError for a value that is not a real number, for any other
        shape, naming the expected count and the shape it got, for a non-finite
        input value, naming its field, and for a model that yields a non-finite
        score.
        """
        n = len(self.input_ranges)
        try:
            if isinstance(x_physical, np.ndarray) and x_physical.dtype.kind == "c":
                raise TypeError  # the cast would drop the imaginary part with only a warning
            x = np.asarray(x_physical, dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"a situation must hold {n} real numbers, "
                             f"got {x_physical!r}") from None
        if x.shape not in ((n,), (1, n)):
            raise ValueError(f"expected one situation of {n} values, got shape {x.shape}")
        x = x.reshape(1, n)
        finite = np.isfinite(x)
        if not finite.all():
            field = tace.FIELDS[int(np.argmin(finite.all(axis=0)))]
            raise ValueError(f"{field} is not finite")
        # one (1, n) row, already checked: straight to the module-level predictor
        yn = float(predict_normalized(self.model, tace.normalize_inputs(x, self._range_table))[0])
        if not math.isfinite(yn):
            raise ValueError(f"{self.kind} model yields a non-finite score ({yn!r})")
        lo, hi = self.output_range
        # np.clip's comparisons: a tie at a signed-zero bound keeps the score, NaN passes
        return float(min(max(yn * (hi - lo) + lo, lo), hi))


def save_model(model, path, input_ranges=tace.FIELD_RANGES, output_range=tace.SCORE_RANGE) -> None:
    """Write `model`'s file, or raise the ValueError `load_model` would and write nothing."""
    kind = model_kind(model)
    payload = {
        "format": FORMAT_TAG,
        "input_ranges": [list(r) for r in input_ranges],
        "output_range": list(output_range),
        "model": {"kind": kind, **KINDS[kind].encode(model)},
    }
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    _decode_payload(json.loads(text), path)
    with open(path, "w") as fh:
        fh.write(text)


def load_model(path) -> LoadedModel:
    """The model of a `save_model` file; ValueError, path first, names a malformed field."""
    with open(path) as fh:
        return _decode_payload(json.load(fh), path)


def _decode_payload(payload, path) -> LoadedModel:
    """The model a parsed file describes; ValueError, `path` first, names a malformed field."""
    if not (isinstance(payload, dict) and payload.get("format") == FORMAT_TAG):
        raise ValueError(f"{path}: not a {FORMAT_TAG} file")
    try:
        # predict_score normalizes with these, so each field needs a finite lo < hi
        ranges, out = payload["input_ranges"], payload["output_range"]
        if not (isinstance(ranges, list) and len(ranges) == len(tace.FIELDS)
                and all(map(is_range, ranges))):
            raise ValueError(
                f"input_ranges must hold {len(tace.FIELDS)} finite [lo, hi] pairs, lo < hi"
            )
        if not is_range(out):
            raise ValueError(f"output_range is {out!r}, not a finite [lo, hi] pair, lo < hi")
        body = json_typed(payload["model"], dict, "model")
        kind = KINDS.get(body["kind"]) if isinstance(body["kind"], str) else None
        if kind is None:
            raise ValueError(f"unknown model kind {body['kind']!r}")
        return LoadedModel(body["kind"], kind.decode(body, len(ranges)),
                           tuple(map(tuple, ranges)), tuple(out))
    except KeyError as exc:
        raise ValueError(f"{path}: model file lacks field {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
