"""Takagi-Sugeno fuzzy network with hybrid learning.

The model grid-partitions its input variables into rules whose consequents
are linear in the inputs.  A forward pass fuzzifies (layer 2), takes product
firing strengths (layer 3), normalizes them (layer 4), weights the linear
rule outputs (layer 5) and sums (layer 6).

Hybrid learning alternates, once per epoch:
  * consequent identification by least squares with the premises frozen,
    which is globally optimal in the consequent subspace, then
  * steepest descent on the membership parameters with the consequents
    frozen, with step length k along the normalized gradient direction
    (learning rate = k / ||gradient||).
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

from .errors import DegenerateCoverageError, SingularSystemError, finite_data
from .fuzzy import (
    LinguisticVariable,
    antecedent_table,
    grid_partition,
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

    # -- premise parameter vector ------------------------------------------

    def premise_vector(self) -> np.ndarray:
        """All MF shape parameters flattened: variable order, MF order, parameter order."""
        out = []
        for var in self.inputs:
            for mf in var.mfs:
                out.extend(mf.params)
        return np.array(out)

    def with_premise_vector(self, vec, project: bool = True) -> "AnfisModel":
        """Rebuild the model from a flat premise vector.

        With `project` enabled each MF's class repairs its raw parameters
        first (`MembershipFunction.project`: widths clamped positive, knots
        re-sorted, centers pulled back into range) so gradient steps can
        never produce an invalid shape.
        """
        vec = np.asarray(vec, dtype=float)
        pos = 0
        new_inputs = []
        for var in self.inputs:
            new_mfs = []
            for mf in var.mfs:
                n = len(mf.params)
                params = vec[pos : pos + n]
                pos += n
                new_mfs.append(
                    type(mf).project(params, var.lo, var.hi) if project else mf.with_params(params)
                )
            new_inputs.append(var.replace_mfs(new_mfs))
        if pos != vec.shape[0]:
            raise ValueError(f"premise vector length {vec.shape[0]} != expected {pos}")
        return replace(self, inputs=new_inputs)

    def to_dict(self) -> dict:
        return {
            "inputs": [v.to_dict() for v in self.inputs],
            "rules": [list(r) for r in self.rules],
            "consequents": self.consequents.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AnfisModel":
        return cls(
            inputs=[LinguisticVariable.from_dict(v) for v in d["inputs"]],
            rules=[tuple(r) for r in d["rules"]],
            consequents=np.asarray(d["consequents"], dtype=float),
        )


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

@dataclass
class ForwardTrace:
    """Every intermediate layer of a batch forward pass, kept for backprop."""

    x: np.ndarray            # clipped inputs (P, d)
    memberships: list        # per variable: (P, n_mfs) degrees (layer 2)
    w: np.ndarray            # firing strengths (P, R) (layer 3)
    wsum: np.ndarray         # (P,)
    wbar: np.ndarray         # normalized strengths (P, R) (layer 4)
    xa: np.ndarray           # inputs with appended 1 (P, d + 1)
    regressors: np.ndarray   # (P, R * (d + 1)): wbar outer xa, flattened per rule


def forward_batch(model: AnfisModel, X) -> tuple[np.ndarray, ForwardTrace]:
    """Outputs and full trace for a batch of samples."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.n_inputs:
        raise ValueError(f"expected {model.n_inputs} inputs, got {X.shape[1]}")
    Xc = np.column_stack([var.clip(X[:, v]) for v, var in enumerate(model.inputs)])
    # fuzzify clips as var.clip does, and rejects a nan or inf input by name
    memberships = [var.fuzzify(X[:, v]) for v, var in enumerate(model.inputs)]
    P, R = Xc.shape[0], model.n_rules
    w = rule_strengths(memberships, model.antecedent_index, np.ones((P, R)))
    wsum = w.sum(axis=1)
    dead = wsum <= 0.0
    if np.any(dead):
        raise DegenerateCoverageError(
            f"no rule fires for sample {int(np.argmax(dead))}; cannot normalize"
        )
    wbar = w / wsum[:, None]
    xa = np.column_stack([Xc, np.ones(P)])
    regressors = (wbar[:, :, None] * xa[:, None, :]).reshape(P, R * (model.n_inputs + 1))
    y = regressors @ model.consequents.ravel()
    return y, ForwardTrace(Xc, memberships, w, wsum, wbar, xa, regressors)


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
    """Gradient of E = 1/2 sum(residual^2) w.r.t. the flat premise vector.

    Backpropagates through the normalization layer here and through the
    product layer with `strength_backprop`.
    """
    residuals = np.asarray(residuals, dtype=float)
    f = trace.xa @ model.consequents.T                    # (P, R) rule outputs
    y = (trace.wbar * f).sum(axis=1)
    coef = residuals[:, None] * (f - y[:, None]) / trace.wsum[:, None]
    d_mu = strength_backprop(trace.memberships, model.antecedent_index, coef, np.ones_like(trace.w))
    parts = []
    for v, var in enumerate(model.inputs):
        x_v = trace.x[:, v]
        for j, mf in enumerate(var.mfs):
            parts.append(mf.gradient(x_v).T @ d_mu[v][j])
    return np.concatenate(parts)


def _apply_premise_step(model: AnfisModel, grad: np.ndarray, k: float) -> AnfisModel:
    """Move every premise parameter by -eta * grad with eta = k / ||grad||."""
    norm = float(np.sqrt(grad @ grad))
    if norm == 0.0:
        return model
    return model.with_premise_vector(model.premise_vector() - (k / norm) * grad)


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
    """Consequents by least squares with the premises frozen; (model, trace, residuals)."""
    _, trace = forward_batch(model, X)
    flat = _identify_consequents(trace.regressors, y, model.n_inputs, solves)
    model = replace(model, consequents=flat.reshape(model.n_rules, model.n_inputs + 1))
    return model, trace, trace.regressors @ flat - y


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
    # last premise step re-identify them so the returned model is coherent
    model, _, residuals = _fit_consequents(model, X, y, solves)
    final_test = None
    if test is not None:
        Xt, yt = test
        final_test = rmse(forward_batch(model, Xt)[0] - np.asarray(yt, dtype=float))
    extras = {"consequent_solves": dict(solves)}
    wall = time.perf_counter() - start
    return model, TrainReport(curve, rmse(residuals), final_test, wall, seed, extras)
