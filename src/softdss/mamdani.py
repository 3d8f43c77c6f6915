"""Learning a Mamdani rule base from data.

Structure comes from the Wang-Mendel method: every sample proposes the rule
made of its maximal-membership region per coordinate, each proposal carries a
degree (product of those maximal memberships), and among proposals sharing an
antecedent only the maximum-degree rule survives, its degree stored as the
rule weight.

Parameters are then tuned two ways:

* `gd_tune` - batch gradient descent with momentum on the MF centers.  The
  max/centroid pipeline is not differentiable, so the training objective uses
  a differentiable surrogate (activation-weighted average of the consequent
  centroids); reported RMSE always comes from the full inference pipeline.
* `ga_optimize` - a real-valued genetic algorithm over the same centers with
  tournament selection, one-point crossover, re-initialising mutation and
  elitism, scored by the full pipeline RMSE.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import TrainingDivergedError, finite_data
from .fuzzy import MamdaniModel, MamdaniRule, rule_strengths, strength_backprop
from .report import TrainReport, rmse


def wang_mendel(X, y, inputs, output) -> MamdaniModel:
    """One candidate rule per sample, conflict-resolved by maximum degree.

    Argmax ties break toward the lowest MF index; rules come out sorted by
    antecedent so the result is independent of sample order up to degree
    ties.
    """
    X, y = finite_data(X, y)
    if X.shape[0] == 0:
        raise ValueError("wang_mendel needs at least one sample")
    in_idx, in_deg = [], []
    for v, var in enumerate(inputs):
        mu = var.fuzzify(X[:, v])
        in_idx.append(mu.argmax(axis=1))
        in_deg.append(mu.max(axis=1))
    mu_out = output.fuzzify(y)
    out_idx = mu_out.argmax(axis=1)
    # degree = product over inputs in variable order, then the output degree
    degree = in_deg[0].copy()
    for d in in_deg[1:]:
        degree = degree * d
    degree = degree * mu_out.max(axis=1)
    best: dict[tuple, tuple[float, int]] = {}
    for p in range(X.shape[0]):
        ant = tuple(int(idx[p]) for idx in in_idx)
        if ant not in best or degree[p] > best[ant][0]:
            best[ant] = (float(degree[p]), int(out_idx[p]))
    rules = [
        MamdaniRule(ant, cons, weight)
        for ant, (weight, cons) in sorted(best.items())
    ]
    return MamdaniModel(inputs=list(inputs), output=output, rules=rules)


# ---------------------------------------------------------------------------
# center parameter encoding (shared by GD and GA)
# ---------------------------------------------------------------------------

def encode_centers(model: MamdaniModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten all tunable MF centers: inputs then output, variable then MF order.

    Returns (genes, lower_bounds, upper_bounds); the bounds are each gene's
    owning variable range.
    """
    genes, lo, hi = [], [], []
    for var in list(model.inputs) + [model.output]:
        for mf in var.mfs:
            genes.append(mf.center)
            lo.append(var.lo)
            hi.append(var.hi)
    return np.array(genes), np.array(lo), np.array(hi)


def decode_centers(model: MamdaniModel, genes) -> MamdaniModel:
    """Rebuild the model with every MF translated so its center hits the gene."""
    genes = np.asarray(genes, dtype=float)
    pos = 0
    new_vars = []
    for var in list(model.inputs) + [model.output]:
        mfs = []
        for mf in var.mfs:
            target = float(np.clip(genes[pos], var.lo, var.hi))
            mfs.append(mf.translate(target - mf.center))
            pos += 1
        new_vars.append(var.replace_mfs(mfs))
    return MamdaniModel(inputs=new_vars[:-1], output=new_vars[-1], rules=model.rules)


# ---------------------------------------------------------------------------
# gradient-descent tuning
# ---------------------------------------------------------------------------

def _surrogate_forward(model: MamdaniModel, X):
    """Differentiable stand-in: activation-weighted average of consequent centroids."""
    X = np.asarray(X, dtype=float)
    mu = [var.fuzzify(X[:, v]) for v, var in enumerate(model.inputs)]
    acts = rule_strengths(mu, model.antecedent_index, np.tile(model.rule_weights, (X.shape[0], 1)))
    z = np.array([mf.centroid() for mf in model.output.mfs])[model.consequent_index]
    den = acts.sum(axis=1)
    fired = den > 0
    safe = np.where(fired, den, 1.0)
    yhat = np.where(fired, (acts @ z) / safe, model.midpoint)
    return yhat, acts, den, fired, mu, z


def surrogate_rmse(model: MamdaniModel, X, y) -> float:
    return rmse(_surrogate_forward(model, X)[0] - np.asarray(y, dtype=float))


def surrogate_gradient(model: MamdaniModel, X, y) -> np.ndarray:
    """Gradient of the mean squared surrogate error w.r.t. the center vector."""
    return _surrogate_backward(model, X, y, _surrogate_forward(model, X))


def _surrogate_backward(model: MamdaniModel, X, y, forward) -> np.ndarray:
    """`surrogate_gradient` from an existing `_surrogate_forward(model, X)` result."""
    y = np.asarray(y, dtype=float)
    yhat, acts, den, fired, mu, z = forward
    P = acts.shape[0]
    safe = np.where(fired, den, 1.0)
    r_err = (yhat - y) / P                                   # d(mean 1/2 err^2)/d yhat
    coef = np.where(fired[:, None], r_err[:, None] * (z[None, :] - yhat[:, None]) / safe[:, None], 0.0)
    d_mu = strength_backprop(mu, model.antecedent_index, coef, np.tile(model.rule_weights, (P, 1)))
    grads = []
    for v, var in enumerate(model.inputs):
        x_v = var.clip(X[:, v])
        for j, mf in enumerate(var.mfs):
            grads.append(float(mf.center_gradient(x_v) @ d_mu[v][j]))
    # output centers: d yhat / d z_j = sum of activations with consequent j / den
    act_over_den = np.where(fired[:, None], acts / safe[:, None], 0.0)
    for j in range(model.output.n_mfs):
        share = act_over_den[:, model.consequent_index == j].sum(axis=1)
        grads.append(float(r_err @ share))
    return np.array(grads)


def gd_tune(
    model: MamdaniModel,
    X,
    y,
    learning_rate: float = 0.5,
    momentum: float = 0.3,
    epochs: int = 10,
) -> tuple[MamdaniModel, TrainReport]:
    """Batch gradient descent with classical momentum on all MF centers."""
    if learning_rate < 0:
        raise ValueError(f"learning_rate must be >= 0, got {learning_rate}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    X, y = finite_data(X, y)
    genes, lo, hi = encode_centers(model)
    velocity = np.zeros_like(genes)
    curve = []
    initial = None
    start = time.perf_counter()
    for epoch in range(1, epochs + 1):
        # one surrogate pass gives the epoch's error and its gradient
        forward = _surrogate_forward(model, X)
        err = rmse(forward[0] - y)
        curve.append(err)
        if initial is None:
            initial = err
        elif initial > 0 and err > 1e6 * initial:
            raise TrainingDivergedError(epoch, f"gd_tune diverged at epoch {epoch}")
        grad = _surrogate_backward(model, X, y, forward)
        velocity = momentum * velocity - learning_rate * grad
        genes = np.clip(genes + velocity, lo, hi)
        model = decode_centers(model, genes)
    final_train = model.rmse(X, y)
    report = TrainReport(curve, final_train, None, time.perf_counter() - start, 0)
    return model, report


# ---------------------------------------------------------------------------
# genetic algorithm tuning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaConfig:
    population: int = 50
    generations: int = 100
    mutation_rate: float = 0.01
    tournament_size: int = 3
    elite_count: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")
        if not 0 <= self.elite_count < self.population:
            raise ValueError("elite_count must be < population")


def ga_optimize(
    model: MamdaniModel,
    X,
    y,
    config: GaConfig,
    initial_population=None,
    evaluations: Counter | None = None,
) -> tuple[MamdaniModel, list[float]]:
    """Evolve the MF centers; fitness is -RMSE through the full pipeline.

    The first individual is the unmodified model, the rest are drawn
    uniformly within each gene's variable range (unless an explicit
    initial population is supplied).  Returns the best individual decoded
    back into a model and the best-fitness-per-generation curve.

    Each distinct genome is scored once per call: fitness is a pure function
    of the genes, so re-scoring a copy (an elite, a clone from crossover)
    would only repeat the same arithmetic.  A given `evaluations` counter
    gets "distinct", the genomes scored, and "lookups", the fitness values
    the GA asked for.
    """
    X, y = finite_data(X, y)
    rng = np.random.default_rng(config.seed)
    base, lo, hi = encode_centers(model)
    n_genes = base.shape[0]
    if initial_population is not None:
        pop = np.array(initial_population, dtype=float)
        if pop.shape != (config.population, n_genes):
            raise ValueError(f"initial population must have shape {(config.population, n_genes)}")
    else:
        pop = np.empty((config.population, n_genes))
        pop[0] = base
        pop[1:] = rng.uniform(lo, hi, size=(config.population - 1, n_genes))

    scored: dict[bytes, float] = {}

    def fitness_of(genes):
        key = genes.tobytes()
        if key not in scored:
            scored[key] = -decode_centers(model, genes).rmse(X, y)
        return scored[key]

    def tournament(fit):
        idx = rng.integers(0, config.population, size=config.tournament_size)
        return idx[np.argmax(fit[idx])]

    fit = np.array([fitness_of(ind) for ind in pop])
    curve = []
    for _ in range(config.generations):
        order = np.argsort(-fit, kind="stable")
        new_pop = [pop[i].copy() for i in order[: config.elite_count]]
        while len(new_pop) < config.population:
            p1, p2 = tournament(fit), tournament(fit)
            cut = int(rng.integers(1, n_genes)) if n_genes > 1 else 0
            child = np.concatenate([pop[p1][:cut], pop[p2][cut:]])
            mask = rng.random(n_genes) < config.mutation_rate
            if np.any(mask):
                child[mask] = rng.uniform(lo[mask], hi[mask])
            new_pop.append(child)
        pop = np.array(new_pop)
        fit = np.array([fitness_of(ind) for ind in pop])
        curve.append(float(fit.max()))
    if evaluations is not None:
        evaluations["distinct"] += len(scored)
        evaluations["lookups"] += config.population * (config.generations + 1)
    best = pop[int(np.argmax(fit))]
    return decode_centers(model, best), curve
