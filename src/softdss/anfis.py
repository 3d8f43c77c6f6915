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
    which is globally optimal in the consequent subspace, then
  * steepest descent on the membership parameters with the consequents
    frozen, with step length k along the normalized gradient direction
    (learning rate = k / ||gradient||).
The premise parameters (set S1) live in one place, the input layer's table
(`fuzzy.InputLayer`): its per-shape kernels give the gradient
(`param_gradients`) and take the step, with each shape's `project` (`stepped`).
The step size k adapts by two heuristics: four consecutive error reductions
grow it by 10%, four strictly alternating changes shrink it by 10%.

The epoch error is measured after the consequent update and before the
premise update, so the least-squares optimality is observable per epoch.

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
of the full SVD.  `anfis_train` counts the solves that took each path in its
report's extras.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace
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
    """Every intermediate layer of a batch forward pass, kept for backprop.

    `regressors` is built on first access, by the consequent solve; a
    prediction never reads it.
    """

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


def _rule_outputs(wbar, xa, consequents) -> tuple[np.ndarray, np.ndarray]:
    """Layers 5-6: the (P, R) rule outputs f = xa @ consequents.T and y = sum_r wbar_r f_r."""
    f = xa @ consequents.T
    return f, (wbar * f).sum(axis=1)


def forward_batch(model: AnfisModel, X) -> tuple[np.ndarray, ForwardTrace]:
    """Outputs and full trace for a batch of samples."""
    # one clip and one fuzzification of all inputs; a nan or inf is rejected by its variable's name
    Xc, memberships = model.input_layer.fuzzify(np.atleast_2d(np.asarray(X, dtype=float)))
    w = rule_strengths(memberships, model.antecedent_index)
    wsum = w.sum(axis=1)
    dead = wsum <= 0.0
    if np.any(dead):
        raise DegenerateCoverageError(
            f"no rule fires for sample {int(np.argmax(dead))}; cannot normalize"
        )
    wbar = w / wsum[:, None]
    xa = np.column_stack([Xc, np.ones(Xc.shape[0])])
    _, y = _rule_outputs(wbar, xa, model.consequents)
    return y, ForwardTrace(Xc, memberships, w, wsum, wbar, xa)


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


def premise_gradient(model: AnfisModel, trace: ForwardTrace, residuals) -> np.ndarray:
    """Gradient of E = 1/2 sum(residual^2) w.r.t. the premise parameters, flat in the input
    layer's order (variable, MF, parameter).

    Backpropagates through the normalization layer here, through the product
    layer with `strength_backprop` and through the MFs with `param_gradients`.
    """
    residuals = np.asarray(residuals, dtype=float)
    f, y = _rule_outputs(trace.wbar, trace.xa, model.consequents)
    coef = residuals[:, None] * (f - y[:, None]) / trace.wsum[:, None]
    d_mu = strength_backprop(trace.memberships, model.antecedent_index, coef)
    return model.input_layer.param_gradients(trace.x, d_mu)


def _apply_premise_step(model: AnfisModel, grad: np.ndarray, k: float) -> AnfisModel:
    """Move every premise parameter by -eta * grad, eta = k / ||grad||, on the layer's table."""
    norm = float(np.sqrt(grad @ grad))
    if norm == 0.0:
        return model
    return replace(model, inputs=model.input_layer.stepped((k / norm) * grad).to_variables())


def _certified_rank_deficient(regressors, n_inputs: int) -> bool:
    """True when a column block proves `lse_batch` would refuse the regressors.

    Tests the constant-term columns (the normalized strengths) and, if they
    pass, those together with the x_0 columns.
    """
    width = n_inputs + 1
    strengths = regressors[:, n_inputs::width]
    if fails_rank_test(strengths):
        return True
    return fails_rank_test(np.hstack([regressors[:, 0::width], strengths]))


def _identify_consequents(regressors, y, n_inputs: int, solves: Counter | None = None):
    """Least-squares consequents; `solves` counts the path taken.

    The paths are "lstsq" (exact), "ridge" (underdetermined, or `lse_batch`
    refused the system) and "certified" (ridge, with `lse_batch` skipped
    because a column block proved the system rank deficient).
    """
    if regressors.shape[0] < regressors.shape[1]:
        # an underdetermined batch is always singular; gamma*I regularizes it
        flat, path = ridge_solve(regressors, y), "ridge"
    elif _certified_rank_deficient(regressors, n_inputs):
        flat, path = ridge_solve(regressors, y), "certified"
    else:
        try:
            flat, path = lse_batch(regressors, y), "lstsq"
        except SingularSystemError:
            flat, path = ridge_solve(regressors, y), "ridge"
    if solves is not None:
        solves[path] += 1
    return flat


def _fit_consequents(model: AnfisModel, X, y, solves: Counter | None):
    """Consequents by least squares with the premises frozen; (model, trace, residuals).

    The returned model keeps the input layer `forward_batch` built: its inputs are the same.
    """
    _, trace = forward_batch(model, X)
    flat = _identify_consequents(trace.regressors, y, model.n_inputs, solves)
    fitted = replace(model, consequents=flat.reshape(model.n_rules, model.n_inputs + 1))
    fitted.__dict__["input_layer"] = model.input_layer  # seeds the cached_property
    return fitted, trace, trace.regressors @ flat - y


def hybrid_epoch(
    model: AnfisModel, X, y, controller: StepSizeController, solves: Counter | None = None
) -> tuple[AnfisModel, float]:
    """One forward (consequent LSE) plus one backward (premise descent) pass.

    Returns the updated model and the epoch RMSE, measured after the
    consequent update and before the premise update.  A given `solves`
    counter is incremented under the consequent solve's path.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[0] == 0:
        raise ValueError("training data must be non-empty")
    model, trace, residuals = _fit_consequents(model, X, y, solves)
    grad = premise_gradient(model, trace, residuals)
    return _apply_premise_step(model, grad, controller.k), rmse(residuals)


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

    `mode` must be "hybrid", the only trainer.  The report's extras hold
    `consequent_solves`, the number of consequent solves that went through
    `lstsq`, through `ridge` and through `certified` (ridge without the
    `lstsq` attempt); they sum to epochs + 1.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if mode != "hybrid":
        raise ValueError(f"mode must be 'hybrid', got {mode!r}")
    if not (np.isfinite(k0) and k0 > 0):
        raise ValueError(f"k0 must be a finite step size > 0, got {k0}")
    X, y = finite_data(*train)
    controller = StepSizeController(k0)
    curve = []
    solves = Counter(lstsq=0, ridge=0, certified=0)
    start = time.perf_counter()
    for _ in range(epochs):
        model, epoch_rmse = hybrid_epoch(model, X, y, controller, solves)
        curve.append(epoch_rmse)
        controller = update_step_size(controller, epoch_rmse)
    # consequents are defined by least squares given the premises; after the
    # last premise step re-identify them so the returned model is coherent, and
    # report its train RMSE off its own layer-5 output, as `forward_batch` gives it
    model, trace, _ = _fit_consequents(model, X, y, solves)
    residuals = _rule_outputs(trace.wbar, trace.xa, model.consequents)[1] - y
    final_test = None
    if test is not None:
        Xt, yt = test
        final_test = rmse(forward_batch(model, Xt)[0] - np.asarray(yt, dtype=float))
    extras = {"consequent_solves": dict(solves)}
    wall = time.perf_counter() - start
    return model, TrainReport(curve, rmse(residuals), final_test, wall, seed, extras)
