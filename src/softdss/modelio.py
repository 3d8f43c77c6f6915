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

import numpy as np

from . import cart as cart_mod
from . import tace
from .anfis import AnfisModel, forward_batch
from .errors import is_finite_number
from .fuzzy import MamdaniModel
from .mlp import MlpModel, mlp_forward_batch

FORMAT_TAG = "softdss-model"


def model_kind(model) -> str:
    if isinstance(model, AnfisModel):
        return "anfis"
    if isinstance(model, MamdaniModel):
        return "mamdani"
    if isinstance(model, MlpModel):
        return "mlp"
    if isinstance(model, cart_mod.TreeNode):
        return "cart"
    raise TypeError(f"unknown model type {type(model).__name__}")


def model_to_dict(model) -> dict:
    kind = model_kind(model)
    body = {"tree": model.to_dict()} if kind == "cart" else model.to_dict()
    return {"kind": kind, **body}


def model_from_dict(d: dict):
    kind = d.get("kind")
    if kind == "anfis":
        return AnfisModel.from_dict(d)
    if kind == "mamdani":
        return MamdaniModel.from_dict(d)
    if kind == "mlp":
        return MlpModel.from_dict(d)
    if kind == "cart":
        return cart_mod.TreeNode.from_dict(d["tree"])
    raise ValueError(f"unknown model kind {kind!r}")


def predict_normalized(model, X) -> np.ndarray:
    """Model output on [0, 1]-normalized inputs, uniformly across kinds."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    kind = model_kind(model)
    if kind == "anfis":
        return forward_batch(model, X)[0]
    if kind == "mamdani":
        return model.infer_batch(X)[0]
    if kind == "mlp":
        return mlp_forward_batch(model, X)
    return cart_mod.predict_batch(model, X)


@dataclass
class LoadedModel:
    """A deserialized model plus the physical ranges it was trained against."""

    kind: str
    model: object
    input_ranges: tuple
    output_range: tuple

    def predict_normalized(self, X) -> np.ndarray:
        return predict_normalized(self.model, X)

    def predict_score(self, x_physical) -> float:
        """Crisp decision score in physical units, clipped into the output range.

        Inputs are normalized with the file's own `input_ranges`.

        Raises ValueError for a non-finite input value, naming its field, and
        for a model that yields a non-finite score.
        """
        x = np.atleast_2d(np.asarray(x_physical, dtype=float))
        finite = np.isfinite(x)
        if not finite.all():
            field = tace.FIELDS[int(np.argmin(finite.all(axis=0)))]
            raise ValueError(f"{field} is not finite")
        yn = float(self.predict_normalized(tace.normalize_inputs(x, self.input_ranges))[0])
        if not math.isfinite(yn):
            raise ValueError(f"{self.kind} model yields a non-finite score ({yn!r})")
        lo, hi = self.output_range
        return float(np.clip(yn * (hi - lo) + lo, lo, hi))


def save_model(model, path, input_ranges=tace.FIELD_RANGES, output_range=tace.SCORE_RANGE) -> None:
    payload = {
        "format": FORMAT_TAG,
        "input_ranges": [list(r) for r in input_ranges],
        "output_range": list(output_range),
        "model": model_to_dict(model),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path) -> LoadedModel:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != FORMAT_TAG:
        raise ValueError(f"{path}: not a {FORMAT_TAG} file")
    try:
        body = payload["model"]
        if body["kind"] == "anfis":
            _check_consequents(path, body)
        try:
            model = model_from_dict(body)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        loaded = LoadedModel(
            kind=body["kind"],
            model=model,
            input_ranges=tuple(tuple(r) for r in payload["input_ranges"]),
            output_range=tuple(payload["output_range"]),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: model file lacks field {exc.args[0]!r}") from None
    # predict_score normalizes with these, so each field needs a finite lo < hi
    ranges = loaded.input_ranges
    if len(ranges) != len(tace.FIELDS) or not all(map(_is_range, ranges)):
        raise ValueError(
            f"{path}: input_ranges must hold {len(tace.FIELDS)} finite [lo, hi] pairs, lo < hi"
        )
    if loaded.kind == "cart":
        _check_tree(path, loaded.model)
    return loaded


def _is_range(r) -> bool:
    return len(r) == 2 and all(map(is_finite_number, r)) and r[0] < r[1]


def _check_consequents(path, body) -> None:
    """ANFIS consequents must be an (R, d + 1) array of finite numbers: R rules, d inputs."""
    rows, cols = len(body["rules"]), len(body["inputs"]) + 1
    c = body["consequents"]
    if not (isinstance(c, list) and len(c) == rows and all(
        isinstance(r, list) and len(r) == cols and all(map(is_finite_number, r)) for r in c
    )):
        raise ValueError(f"{path}: anfis consequents must be a ({rows}, {cols}) array of finite numbers")


def _check_tree(path, node) -> None:
    """Each node needs a finite prediction; each split a finite threshold and a
    split_variable that indexes one of the input fields."""

    def need(name, ok, want="a finite number"):
        if not ok:
            raise ValueError(f"{path}: cart tree {name} is {getattr(node, name)!r}, not {want}")

    need("prediction", is_finite_number(node.prediction))
    if not node.is_leaf:
        var, d = node.split_variable, len(tace.FIELDS)
        need("split_variable", type(var) is int and 0 <= var < d, f"an integer in [0, {d})")
        need("threshold", is_finite_number(node.threshold))
        _check_tree(path, node.left)
        _check_tree(path, node.right)
