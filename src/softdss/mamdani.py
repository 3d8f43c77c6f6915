"""Learning a Mamdani rule base from data.

Structure comes from the Wang-Mendel method: every sample proposes the rule
made of its maximal-membership region per coordinate, each proposal carries a
degree (product of those maximal memberships), and among proposals sharing an
antecedent only the maximum-degree rule survives, its degree stored as the
rule weight.

Parameters are then tuned two ways:

* `gd_tune` - batch gradient descent with momentum on the MF centers.  The
  max/centroid pipeline is not differentiable, so the training objective uses
  a differentiable surrogate: the consequent centroids averaged with the
  inference's own rule activations (`MamdaniModel.activations`), differentiated
  through the input layer's one table backward pass (`center_gradients`).
  Reported RMSE always comes from the full inference pipeline.
* `ga_optimize` - a real-valued genetic algorithm over the same centers with
  tournament selection, one-point crossover, re-initialising mutation and
  elitism, scored by the full pipeline RMSE.

Wang-Mendel fuzzifies its inputs and its output through layer tables, and both
tuners read the centers, their ranges and the output centroids from the
model's input and output layer tables, move the centers there
(`InputLayer.moved`) and build a model only for the result, as
`decode_centers` does from the base model's tables.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import TrainingDivergedError, finite_data
from .fuzzy import InputLayer, MamdaniModel, MamdaniRule, strength_backprop
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
    mu_in = InputLayer(inputs).fuzzify(X)[1]  # per input, (n_mfs, P)
    in_idx, in_deg = [mu.argmax(axis=0) for mu in mu_in], [mu.max(axis=0) for mu in mu_in]
    mu_out = InputLayer([output]).fuzzify(y[:, None])[1][0]  # (n_mfs, P), as the inputs'
    out_idx = mu_out.argmax(axis=0)
    # degree = product over inputs in variable order, then the output degree
    degree = in_deg[0].copy()
    for d in in_deg[1:]:
        degree = degree * d
    degree = degree * mu_out.max(axis=0)
    # rows by antecedent, then by falling degree; the sort is stable, so among rows of one
    # antecedent and the maximal degree the first row leads its group
    order = np.lexsort([-degree] + in_idx[::-1])
    ants = np.stack(in_idx, axis=1)[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (ants[1:] != ants[:-1]).any(axis=1)
    rules = [
        MamdaniRule(tuple(map(int, ant)), int(out_idx[p]), float(degree[p]))
        for ant, p in zip(ants[first], order[first])
    ]
    return MamdaniModel(inputs=list(inputs), output=output, rules=rules)


# ---------------------------------------------------------------------------
# center parameter encoding (shared by GD and GA)
# ---------------------------------------------------------------------------

def encode_centers(model: MamdaniModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten all tunable MF centers: inputs then output, variable then MF order.

    Returns (genes, lower_bounds, upper_bounds) from the input and output layer tables; the
    bounds are each gene's owning variable range.
    """
    layers = (model.input_layer, model.output_layer)
    ranges = [np.repeat(np.hstack([layer.lo, layer.hi]), np.diff(layer.bounds), axis=0)
              for layer in layers]
    lo, hi = np.concatenate(ranges).T.copy()
    return np.concatenate([layer.centers() for layer in layers]), lo, hi


def decode_centers(model: MamdaniModel, genes) -> MamdaniModel:
    """Rebuild the model with every MF translated so its center hits the gene, clipped to its
    variable's range: the `_moved_layers` tables the tuners score, built into a model."""
    _, lo, hi = encode_centers(model)
    layer, out_layer = _moved_layers(model.input_layer, model.output_layer, genes, lo, hi)
    return MamdaniModel(layer.to_variables(), out_layer.to_variables()[0], model.rules)


def _moved_layers(layer, out_layer, genes, lo, hi):
    """The input and output layer tables with every center moved to its gene, clipped to its
    variable's range."""
    deltas = np.clip(genes, lo, hi) - np.concatenate([layer.centers(), out_layer.centers()])
    n_in = layer.bounds[-1]
    return layer.moved(deltas[:n_in]), out_layer.moved(deltas[n_in:])


# ---------------------------------------------------------------------------
# gradient-descent tuning
# ---------------------------------------------------------------------------

def _surrogate(model: MamdaniModel, layer: InputLayer, z, xc, y):
    """(outputs, gradient) of the differentiable stand-in, the activation-weighted average
    of consequent centroids, at clipped inputs `xc`: the gradient of its mean squared error
    w.r.t. the center vector, inputs then output.

    `layer` holds the input MFs and `z` the output sets' centroids, the model's own or those
    of moved tables; the model gives the rules and their activations.
    """
    mu = layer.degrees(xc)
    acts = model.activations(mu)
    z = z[model.consequent_index]
    den = acts.sum(axis=1)
    fired = den > 0
    safe = np.where(fired, den, 1.0)
    yhat = np.where(fired, (acts @ z) / safe, model.midpoint)
    r_err = (yhat - y) / acts.shape[0]                        # d(mean 1/2 err^2)/d yhat
    coef = np.where(fired[:, None], r_err[:, None] * (z - yhat[:, None]) / safe[:, None], 0.0)
    d_mu = strength_backprop(mu, model.antecedent_index, coef * model.rule_weights)
    # output centers: d yhat / d z_j = sum of activations with consequent j / den
    share = np.where(fired[:, None], acts / safe[:, None], 0.0)
    out_grads = [r_err @ share[:, rules].sum(axis=1) for rules in model.consequent_rules]
    return yhat, np.concatenate([layer.center_gradients(xc, d_mu), out_grads])


def surrogate_rmse(model: MamdaniModel, X, y) -> float:
    X, y = finite_data(X, y)
    layer = model.input_layer
    return rmse(_surrogate(model, layer, model.output_layer.centroids(), layer.clip(X), y)[0] - y)


def surrogate_gradient(model: MamdaniModel, X, y) -> np.ndarray:
    """Gradient of the mean squared surrogate error w.r.t. the center vector."""
    X, y = finite_data(X, y)
    layer = model.input_layer
    return _surrogate(model, layer, model.output_layer.centroids(), layer.clip(X), y)[1]


def gd_tune(
    model: MamdaniModel,
    X,
    y,
    learning_rate: float = 0.5,
    momentum: float = 0.3,
    epochs: int = 10,
) -> tuple[MamdaniModel, TrainReport]:
    """Batch gradient descent with classical momentum on all MF centers.

    Each epoch moves the layer tables from the epoch's own centers, as a
    `decode_centers` of the previous epoch's model would; one model is built,
    at the end.
    """
    if not (np.isfinite(learning_rate) and learning_rate >= 0):
        raise ValueError(f"learning_rate must be finite and >= 0, got {learning_rate}")
    if not np.isfinite(momentum):
        raise ValueError(f"momentum must be finite, got {momentum}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    X, y = finite_data(X, y)
    genes, lo, hi = encode_centers(model)
    xc = model.input_layer.clip(X)
    layer, out_layer = model.input_layer, model.output_layer
    velocity = np.zeros_like(genes)
    curve = []
    initial = None
    start = time.perf_counter()
    for epoch in range(1, epochs + 1):
        # one surrogate pass gives the epoch's error and its gradient
        yhat, grad = _surrogate(model, layer, out_layer.centroids(), xc, y)
        err = rmse(yhat - y)
        curve.append(err)
        if initial is None:
            initial = err
        elif initial > 0 and err > 1e6 * initial:
            raise TrainingDivergedError(epoch, f"gd_tune diverged at epoch {epoch}")
        velocity = momentum * velocity - learning_rate * grad
        genes = np.clip(genes + velocity, lo, hi)
        layer, out_layer = _moved_layers(layer, out_layer, genes, lo, hi)
    model = MamdaniModel(layer.to_variables(), out_layer.to_variables()[0], model.rules)
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


def _fitness(model: MamdaniModel, X, y):
    """genes -> -decode_centers(model, genes).rmse(X, y), bit for bit, from the model's
    moved layer tables: X is checked and clipped once, and no model is built."""
    y = np.asarray(y, dtype=float)
    _, lo, hi = encode_centers(model)
    xc = model.input_layer.clip(X)

    def fitness(genes) -> float:
        layer, out_layer = _moved_layers(model.input_layer, model.output_layer, genes, lo, hi)
        sets = out_layer.degrees(model.grid_column)[0]
        return -rmse(model.infer_degrees(layer.degrees(xc), sets)[0] - y)

    return fitness


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
    the GA asked for.  A genome is scored on the base model's moved tables,
    `-decode_centers(model, genes).rmse(X, y)` bit for bit; only the best is
    decoded into a model.
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
    fitness = _fitness(model, X, y)

    def fitness_of(genes):
        key = genes.tobytes()
        if key not in scored:
            scored[key] = fitness(genes)
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
