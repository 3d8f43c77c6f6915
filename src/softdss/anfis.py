"""Takagi-Sugeno fuzzy network with hybrid learning.

The model grid-partitions its input variables into rules whose consequents
are linear in the inputs.  A forward pass fuzzifies (layer 2), takes product
firing strengths (layer 3), normalizes them (layer 4), weights the linear
rule outputs (layer 5) and sums (layer 6): y = sum_r wbar_r * f_r with
f_r = p_r . x + q_r, from the (P, R) rule outputs `xa @ consequents.T`.
The flattened (P, R * (d + 1)) regressor matrix, wbar outer [x, 1], is
built only for the consequent solve, which is linear in it.

Hybrid learning alternates, once per epoch:
  * consequent identification by least squares with the premises frozen,
    which is globally optimal in the consequent subspace (the epoch error is
    measured here, so that optimality is observable per epoch), then
  * steepest descent on the membership parameters with the consequents
    frozen, with step length k along the normalized gradient direction
    (learning rate = k / ||gradient||).
Training runs on the input layer (`fuzzy.InputLayer`), whose table holds the
premise parameters (set S1): its kernels give the gradient (`param_gradients`)
and take the step (`stepped`).  A fit builds one `AnfisModel`, at the end.
The step size k adapts by two heuristics: four consecutive error reductions
grow it by 10%, four strictly alternating changes shrink it by 10%.

The consequent solve uses the exact, rank-tested `lse_batch` where it can: a
realizable target must be fitted to round-off in one epoch (acceptance
criterion 3), and a ridge term alone leaves an error of about 1e-6 there.
When the regressor matrix is rank deficient or has fewer rows than columns
it takes `ridge_solve`, the closed form of sequential least squares started
at S = gamma * I with Jang's large gamma.  Before the full SVD, two column
blocks are tested: the constant-term columns (the normalized strengths),
then those with the x_0 columns beside them.  A block that fails the rank
test proves the whole matrix fails it (`linalg.fails_rank_test`), so the
solve goes to `ridge_solve` at once.  On the default bench matrix this
settles all 384 consequent solves of its 24 fits, at a fraction of the cost
of the full SVD.  `anfis_train` counts the solves that took each path, and
the block that certified each certified one, in its report's extras.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateCoverageError,
    SingularSystemError,
    finite_data,
    is_finite_number,
    json_typed,
)
from .fuzzy import (
    InputLayer,
    LinguisticVariable,
    antecedent_table,
    grid_partition,
    inputs_from_dict,
    rule_strengths,
    strength_backprop,
)
from .linalg import fails_rank_test, lse_batch, ridge_solve
from .report import TrainReport, rmse

DEFAULT_STEP_SIZE = 0.01


@dataclass(frozen=True)
class AnfisModel:
    """Premise variables (parameter set S1) plus per-rule linear consequents (set S2)."""

    inputs: list[LinguisticVariable]
    rules: list[tuple[int, ...]]
    consequents: np.ndarray  # (n_rules, n_inputs + 1), last column is the constant term

    def __post_init__(self):
        n_rules = len(self.rules)
        want = (n_rules, len(self.inputs) + 1)
        if self.consequents.shape != want:
            raise ValueError(f"consequents must have shape {want}, got {self.consequents.shape}")
        self.antecedent_index  # checks every rule's MF indices

    @classmethod
    def grid(cls, inputs, consequents=None) -> "AnfisModel":
        """Grid-partitioned model; consequents start at zero unless given."""
        inputs = list(inputs)
        rules = grid_partition(inputs)
        if consequents is None:
            consequents = np.zeros((len(rules), len(inputs) + 1))
        return cls(inputs=inputs, rules=rules, consequents=np.asarray(consequents, dtype=float))

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    @property
    def n_rules(self) -> int:
        return len(self.rules)

    @cached_property
    def antecedent_index(self) -> np.ndarray:
        """(n_rules, n_inputs) MF index of every rule's antecedent."""
        return antecedent_table(self.rules, self.inputs)

    @cached_property
    def input_layer(self) -> InputLayer:
        return InputLayer(self.inputs)

    def to_dict(self) -> dict:
        return {
            "inputs": [v.to_dict() for v in self.inputs],
            "rules": [list(r) for r in self.rules],
            "consequents": self.consequents.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict, n_inputs: int) -> "AnfisModel":
        """The model a `to_dict` body describes; ValueError names a malformed field."""
        inputs = inputs_from_dict(d, "anfis", n_inputs)
        rules = [tuple(json_typed(r, list, f"anfis rules[{k}]"))
                 for k, r in enumerate(json_typed(d["rules"], list, "anfis rules"))]
        shape, c = (len(rules), n_inputs + 1), d["consequents"]
        if not (isinstance(c, list) and len(c) == shape[0] and all(
            isinstance(r, list) and len(r) == shape[1] and all(map(is_finite_number, r)) for r in c
        )):
            raise ValueError(f"anfis consequents must be a {shape} array of finite numbers")
        return cls(inputs, rules, np.asarray(c, dtype=float))


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

@dataclass
class ForwardTrace:
    """Every intermediate layer of a batch forward pass, kept for backprop, with the input
    layer and rule table that produced it.  `regressors` is built on first access, by the
    consequent solve; a prediction never reads it."""

    layer: InputLayer
    antecedents: np.ndarray  # (R, d) MF index of every rule's antecedent
    x: np.ndarray            # clipped inputs (P, d)
    memberships: list        # per variable: (n_mfs, P) degrees (layer 2)
    w: np.ndarray            # firing strengths (P, R) (layer 3)
    wsum: np.ndarray         # (P,)
    wbar: np.ndarray         # normalized strengths (P, R) (layer 4)
    xa: np.ndarray           # inputs with appended 1 (P, d + 1)

    @cached_property
    def regressors(self) -> np.ndarray:
        """(P, R * (d + 1)): wbar outer xa, flattened per rule."""
        return (self.wbar[:, :, None] * self.xa[:, None, :]).reshape(self.wbar.shape[0], -1)

    def outputs(self, consequents) -> tuple[np.ndarray, np.ndarray]:
        """Layers 5-6: the (P, R) rule outputs f = xa @ consequents.T and y = sum_r wbar_r f_r."""
        f = self.xa @ consequents.T
        return f, (self.wbar * f).sum(axis=1)


def _forward(layer: InputLayer, antecedents, X) -> ForwardTrace:
    """Layers 2-4 of a batch on `layer` and the (R, d) `antecedents`."""
    # one clip and one fuzzification of all inputs; a nan or inf is rejected by its variable's name
    Xc, memberships = layer.fuzzify(np.atleast_2d(np.asarray(X, dtype=float)))
    w = rule_strengths(memberships, antecedents)
    wsum = w.sum(axis=1)
    dead = wsum <= 0.0
    if np.any(dead):
        raise DegenerateCoverageError(
            f"no rule fires for sample {int(np.argmax(dead))}; cannot normalize"
        )
    wbar = w / wsum[:, None]
    xa = np.empty((Xc.shape[0], Xc.shape[1] + 1))
    xa[:, :-1] = Xc
    xa[:, -1] = 1.0
    return ForwardTrace(layer, antecedents, Xc, memberships, w, wsum, wbar, xa)


def forward_batch(model: AnfisModel, X) -> tuple[np.ndarray, ForwardTrace]:
    """Outputs and full trace for a batch of samples."""
    trace = _forward(model.input_layer, model.antecedent_index, X)
    return trace.outputs(model.consequents)[1], trace


# ---------------------------------------------------------------------------
# hybrid learning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepSizeController:
    """Adaptive step size k with a window of the last five epoch errors."""

    k: float = DEFAULT_STEP_SIZE
    history: tuple[float, ...] = ()

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError(f"step size must be positive, got {self.k}")


def update_step_size(controller: StepSizeController, new_error: float) -> StepSizeController:
    """Apply the two step-size heuristics after an epoch.

    Four consecutive reductions: k grows 10% and the window resets.  Four
    strictly alternating increase/decrease transitions: k shrinks 10% and
    the window resets.  Anything else leaves k untouched.
    """
    if new_error < 0:
        raise ValueError(f"error must be >= 0, got {new_error}")
    hist = (controller.history + (float(new_error),))[-5:]
    if len(hist) == 5:
        diffs = np.diff(hist)
        if np.all(diffs < 0):
            return StepSizeController(controller.k * 1.1, (hist[-1],))
        signs = np.sign(diffs)
        if np.all(signs != 0) and np.all(signs[1:] == -signs[:-1]):
            return StepSizeController(controller.k * 0.9, (hist[-1],))
    return StepSizeController(controller.k, hist)


def premise_gradient(trace: ForwardTrace, consequents, residuals) -> np.ndarray:
    """Gradient of E = 1/2 sum(residual^2) w.r.t. the premise parameters of `trace.layer`,
    flat in its order (variable, MF, parameter), with the rules' `consequents` frozen.

    Backpropagates through the normalization layer here, through the product
    layer with `strength_backprop` and through the MFs with `param_gradients`.
    """
    residuals = np.asarray(residuals, dtype=float)
    f, y = trace.outputs(consequents)
    coef = residuals[:, None] * (f - y[:, None]) / trace.wsum[:, None]
    d_mu = strength_backprop(trace.memberships, trace.antecedents, coef)
    return trace.layer.param_gradients(trace.x, d_mu)


def _certified_rank_deficient(regressors, n_inputs: int) -> str | None:
    """The column block that proves `lse_batch` would refuse the regressors, or None: the
    constant-term columns ("strengths", the normalized strengths) or, if they pass, those
    together with the x_0 columns ("strengths_x0")."""
    width = n_inputs + 1
    strengths = regressors[:, n_inputs::width]
    if fails_rank_test(strengths):
        return "strengths"
    if fails_rank_test(np.hstack([regressors[:, 0::width], strengths])):
        return "strengths_x0"
    return None


def _identify_consequents(regressors, y, n_inputs: int, solves: Counter | None = None):
    """Least-squares consequents; `solves` counts the path taken.

    The paths are "lstsq" (exact), "ridge" (underdetermined, or `lse_batch`
    refused the system) and "certified" (ridge, with `lse_batch` skipped
    because a column block proved the system rank deficient).  A certified
    solve is also counted under the name of its block.
    """
    if regressors.shape[0] < regressors.shape[1]:
        # an underdetermined batch is always singular; gamma*I regularizes it
        flat, paths = ridge_solve(regressors, y), ("ridge",)
    elif block := _certified_rank_deficient(regressors, n_inputs):
        flat, paths = ridge_solve(regressors, y), ("certified", block)
    else:
        try:
            flat, paths = lse_batch(regressors, y), ("lstsq",)
        except SingularSystemError:
            flat, paths = ridge_solve(regressors, y), ("ridge",)
    if solves is not None:
        solves.update(paths)
    return flat


def _fit_consequents(layer: InputLayer, antecedents, X, y, solves: Counter | None):
    """Consequents by least squares with the premises frozen; (trace, consequents, residuals)."""
    trace = _forward(layer, antecedents, X)
    flat = _identify_consequents(trace.regressors, y, antecedents.shape[1], solves)
    return trace, flat.reshape(antecedents.shape[0], -1), trace.regressors @ flat - y


def _epoch(layer: InputLayer, antecedents, X, y, k: float, solves: Counter | None):
    """One hybrid epoch on the input layer's table: (stepped layer, consequents, epoch RMSE).
    The premise step moves every parameter by -eta * gradient, eta = k / ||gradient||."""
    if y.shape[0] == 0:
        raise ValueError("training data must be non-empty")
    trace, consequents, residuals = _fit_consequents(layer, antecedents, X, y, solves)
    grad = premise_gradient(trace, consequents, residuals)
    norm = float(np.sqrt(grad @ grad))
    if norm != 0.0:
        layer = layer.stepped((k / norm) * grad)
    return layer, consequents, rmse(residuals)


def hybrid_epoch(
    model: AnfisModel, X, y, controller: StepSizeController, solves: Counter | None = None
) -> tuple[AnfisModel, float]:
    """One epoch of `anfis_train` on `model`: (updated model, epoch RMSE).  A given `solves`
    counter counts the consequent solve as the trainer's extras do.  The data are checked as
    `anfis_train` checks them."""
    X, y = finite_data(X, y)
    layer, consequents, epoch_rmse = _epoch(model.input_layer, model.antecedent_index, X, y,
                                            controller.k, solves)
    return AnfisModel(layer.to_variables(), model.rules, consequents), epoch_rmse


def anfis_train(
    model: AnfisModel,
    train: tuple,
    test: tuple | None,
    epochs: int,
    mode: str = "hybrid",
    k0: float = DEFAULT_STEP_SIZE,
    seed: int = 0,
) -> tuple[AnfisModel, TrainReport]:
    """Train by hybrid learning for a fixed number of epochs.

    `mode` must be "hybrid", the only trainer.  The report's extras count the
    consequent solves by path in `consequent_solves` (`lstsq`, `ridge`, and
    `certified`: ridge without the `lstsq` attempt; they sum to epochs + 1),
    and the certified ones by the block that proved them in `certified_blocks`.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if mode != "hybrid":
        raise ValueError(f"mode must be 'hybrid', got {mode!r}")
    if not (np.isfinite(k0) and k0 > 0):
        raise ValueError(f"k0 must be a finite step size > 0, got {k0}")
    X, y = finite_data(*train)
    layer, antecedents = model.input_layer, model.antecedent_index
    controller = StepSizeController(k0)
    curve = []
    solves = Counter()
    start = time.perf_counter()
    for _ in range(epochs):
        layer, _, epoch_rmse = _epoch(layer, antecedents, X, y, controller.k, solves)
        curve.append(epoch_rmse)
        controller = update_step_size(controller, epoch_rmse)
    # consequents are defined by least squares given the premises; after the
    # last premise step re-identify them so the returned model is coherent, and
    # report its train RMSE off its own layer-5 output, as `forward_batch` gives it
    trace, consequents, _ = _fit_consequents(layer, antecedents, X, y, solves)
    residuals = trace.outputs(consequents)[1] - y
    final_test = None
    if test is not None:
        pred = _forward(layer, antecedents, test[0]).outputs(consequents)[1]
        final_test = rmse(pred - np.asarray(test[1], dtype=float))
    extras = {"consequent_solves": {p: solves[p] for p in ("lstsq", "ridge", "certified")},
              "certified_blocks": {b: solves[b] for b in ("strengths", "strengths_x0")}}
    model = AnfisModel(layer.to_variables(), model.rules, consequents)
    wall = time.perf_counter() - start
    return model, TrainReport(curve, rmse(residuals), final_test, wall, seed, extras)
