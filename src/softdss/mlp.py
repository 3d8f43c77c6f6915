"""Single-hidden-layer feed-forward network trained by scaled conjugate gradient.

The trainer follows Moller's algorithm: conjugate direction updates with the
directional second-order term estimated by finite differencing the gradient
along the search direction, a Levenberg-Marquardt-style damping scalar
raised or lowered from the comparison parameter, and no line search.  One
"epoch" is one SCG iteration over the full batch gradient.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import TrainingDivergedError, finite_data
from .report import TrainReport, rmse

SIGMA0 = 1e-4
LAMBDA0 = 1e-6


def _unpack(w: np.ndarray, d: int, h: int):
    """(w1 (h, d), b1, w2, b2) as views of the flat weight vector."""
    w1 = w[: d * h].reshape(h, d)
    b1 = w[d * h : d * h + h]
    w2 = w[d * h + h : d * h + 2 * h]
    b2 = w[-1]
    return w1, b1, w2, b2


@dataclass(frozen=True)
class MlpModel:
    """tanh hidden layer, identity output; weights kept as one flat vector."""

    input_dim: int
    hidden_units: int
    weights: np.ndarray

    def __post_init__(self):
        want = (self.input_dim + 1) * self.hidden_units + self.hidden_units + 1
        if self.weights.shape != (want,):
            raise ValueError(f"weights must have length {want}, got {self.weights.shape}")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights hold non-finite values")

    def unpack(self):
        return _unpack(self.weights, self.input_dim, self.hidden_units)

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden_units": self.hidden_units,
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict, n_inputs: int) -> "MlpModel":
        """The model a `to_dict` body describes; ValueError names a malformed field."""
        for name in ("input_dim", "hidden_units"):
            if not (type(d[name]) is int and d[name] > 0):
                raise ValueError(f"mlp {name} is {d[name]!r}, not a positive integer")
        if d["input_dim"] != n_inputs:
            raise ValueError(f"mlp input_dim is {d['input_dim']}, not {n_inputs}")
        w = d["weights"]
        if not (isinstance(w, list) and all(type(v) in (int, float) for v in w)):
            raise ValueError("mlp weights must be a list of numbers")
        return cls(d["input_dim"], d["hidden_units"], np.asarray(w, dtype=float))


def mlp_init(input_dim: int, hidden_units: int, seed: int = 0) -> MlpModel:
    """Uniform +/- 1/sqrt(fan-in) init, seeded."""
    for name, units in (("input_dim", input_dim), ("hidden_units", hidden_units)):
        if not (isinstance(units, (int, np.integer)) and units >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {units!r}")
    rng = np.random.default_rng(seed)
    d, h = input_dim, hidden_units
    lim1 = 1.0 / np.sqrt(d)
    lim2 = 1.0 / np.sqrt(h)
    w = np.concatenate(
        [
            rng.uniform(-lim1, lim1, size=d * h + h),
            rng.uniform(-lim2, lim2, size=h + 1),
        ]
    )
    return MlpModel(d, h, w)


def mlp_forward_batch(model: MlpModel, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    w1, b1, w2, b2 = model.unpack()
    hidden = np.tanh(X @ w1.T + b1)
    return hidden @ w2 + b2


def _forward(X, w1, b1, w2, b2, d, hidden) -> np.ndarray:
    """Fill `hidden` (n, h) with tanh(X w1^T + b1); return the residual y - d."""
    np.matmul(X, w1.T, out=hidden)
    hidden += b1
    np.tanh(hidden, out=hidden)
    return hidden @ w2 + b2 - d


def _backward(X, w2, hidden, resid, dh) -> np.ndarray:
    """Gradient from `_forward`'s `hidden` and residual; overwrites `hidden` and `dh`.

    dh is outer(resid, w2) * (1 - hidden*hidden), built in place with the
    same operations in the same order, so the result is bit-identical to
    the form with fresh temporaries.
    """
    dw2 = hidden.T @ resid
    db2 = resid.sum()
    hidden *= hidden
    np.subtract(1.0, hidden, out=hidden)
    np.multiply.outer(resid, w2, out=dh)
    dh *= hidden
    dw1 = dh.T @ X
    db1 = dh.sum(axis=0)
    return np.concatenate([dw1.ravel(), db1, dw2, [db2]])


def _sse(resid: np.ndarray) -> float:
    return 0.5 * float(resid @ resid)


def _batch(model: MlpModel, X, d):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return X, np.asarray(d, dtype=float), np.empty((X.shape[0], model.hidden_units))


def mlp_loss(model: MlpModel, X, d) -> float:
    """Sum-squared-error objective 1/2 sum (d - y)^2."""
    X, d, hidden = _batch(model, X, d)
    return _sse(_forward(X, *model.unpack(), d, hidden))


def mlp_gradient(model: MlpModel, X, d) -> np.ndarray:
    """Exact backpropagated gradient of the sum-squared-error objective."""
    X, d, hidden = _batch(model, X, d)
    w1, b1, w2, b2 = model.unpack()
    resid = _forward(X, w1, b1, w2, b2, d, hidden)
    return _backward(X, w2, hidden, resid, np.empty_like(hidden))


def _rmse_from_loss(loss: float, n: int) -> float:
    return float(np.sqrt(2.0 * loss / n))


def scg_train(
    model: MlpModel, train: tuple, test: tuple | None, epochs: int, seed: int = 0
) -> tuple[MlpModel, TrainReport]:
    """Scaled conjugate gradient for a fixed number of iterations.

    Weight updates are only accepted when the comparison parameter is
    non-negative, so the recorded error sequence never increases across
    accepted steps.  The search direction restarts to steepest descent
    every weight-count iterations.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    X, d = finite_data(*train)
    X = np.atleast_2d(X)
    n_samples = d.shape[0]
    w = model.weights.copy()
    n = w.shape[0]

    d_in, h = model.input_dim, model.hidden_units
    hidden = np.empty((X.shape[0], h))  # (n, h) work arrays, allocated once per fit
    dh = np.empty_like(hidden)

    def forward(wv):
        """Residual at `wv`; leaves that point's hidden layer in `hidden`."""
        return _forward(X, *_unpack(wv, d_in, h), d, hidden)

    def grad(wv, resid):
        """Gradient at `wv`, given that the last `forward` call was at `wv`."""
        return _backward(X, _unpack(wv, d_in, h)[2], hidden, resid, dh)

    lam, lam_bar = LAMBDA0, 0.0
    resid = forward(w)
    e_now = _sse(resid)
    r = -grad(w, resid)
    p = r.copy()
    success = True
    delta_raw = 0.0
    accepted = rejected = 0
    curve = []
    start = time.perf_counter()
    for k in range(1, epochs + 1):
        if not np.isfinite(e_now):
            raise TrainingDivergedError(k, f"non-finite loss at iteration {k}")
        p_norm2 = float(p @ p)
        if p_norm2 == 0.0:
            curve.extend([_rmse_from_loss(e_now, n_samples)] * (epochs - len(curve)))
            break
        if success:
            sigma_k = SIGMA0 / np.sqrt(p_norm2)
            w_sigma = w + sigma_k * p
            s = (grad(w_sigma, forward(w_sigma)) - (-r)) / sigma_k
            delta_raw = float(p @ s)
        delta = delta_raw + (lam - lam_bar) * p_norm2
        if delta <= 0:  # make the Hessian estimate positive definite
            lam_bar = 2.0 * (lam - delta / p_norm2)
            delta = -delta + lam * p_norm2
            lam = lam_bar
        mu = float(p @ r)
        if mu == 0.0:
            p = r.copy()
            curve.append(_rmse_from_loss(e_now, n_samples))
            continue
        alpha = mu / delta
        w_trial = w + alpha * p
        resid = forward(w_trial)
        e_trial = _sse(resid)
        cmp = 2.0 * delta * (e_now - e_trial) / mu**2
        if cmp >= 0:  # accepted step; its gradient reuses the trial forward pass
            accepted += 1
            w = w_trial
            e_now = e_trial
            r_new = -grad(w, resid)
            lam_bar = 0.0
            success = True
            if k % n == 0:
                p = r_new.copy()
            else:
                beta = float(r_new @ r_new - r_new @ r) / mu
                p = r_new + beta * p
            r = r_new
            if cmp >= 0.75:
                lam *= 0.25
        else:
            rejected += 1
            lam_bar = lam
            success = False
        if cmp < 0.25:
            lam += delta * (1.0 - cmp) / p_norm2
        curve.append(_rmse_from_loss(e_now, n_samples))

    trained = replace(model, weights=w)
    final_train = _rmse_from_loss(e_now, n_samples)
    final_test = None
    if test is not None:
        Xt, dt = test
        final_test = rmse(mlp_forward_batch(trained, Xt) - np.asarray(dt, dtype=float))
    extras = {"scg_steps": {"accepted": accepted, "rejected": rejected}, "final_lambda": lam}
    report = TrainReport(
        curve, final_train, final_test, time.perf_counter() - start, seed, extras
    )
    return trained, report
