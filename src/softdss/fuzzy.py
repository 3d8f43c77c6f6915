"""Fuzzy primitives: membership functions, linguistic variables, the rule layer, Mamdani inference.

Membership functions come in four parametric shapes (gaussian, generalized
bell, trapezoid, triangle).  Every shape evaluates through one static,
broadcasting kernel `degrees(x, *params)`, and knows how to differentiate
itself with respect to its own parameters (the backbone of gradient tuning).
A linguistic variable builds a table of its MFs' parameters once and
fuzzifies with one kernel call per shape present.  Each class's `location`
names the parameters that "moving the center" shifts; from it the base class
derives `translate` and `center_gradient` for all four.  The `project`
classmethod repairs raw parameters after a gradient step: the base version
sorts the knots of the piecewise-linear shapes and pulls their center into
range, and the gaussian and gbell override it with their width floors.

Both fuzzy systems share the rule layer: a rule fires with the product of
its antecedent degrees (`rule_strengths`); `strength_backprop` differentiates it.

Mamdani inference uses product implication (activation scales the consequent
set), pointwise-max aggregation on a uniform discretization of the output
range, and centroid defuzzification.  A model builds its output grid, the
output sets on it and each set's rule columns once, at its first inference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import is_finite_number
from .report import rmse

OUTPUT_GRID_POINTS = 201
# rows per block of Mamdani aggregation: a (160, 201) float64 block is 257 KB
AGGREGATION_BLOCK_ROWS = 160
# `project` floors widths at this fraction of the variable's range (gbell's b at the factor itself)
_MIN_WIDTH_FACTOR = 1e-6


# ---------------------------------------------------------------------------
# membership function shapes
# ---------------------------------------------------------------------------

class MembershipFunction:
    """Base of the four shapes: the constructor takes the parameters in `__slots__` order,
    and `location` holds the indices of those a center move shifts.  Each shape's static
    `degrees(x, *params)` evaluates it, broadcasting `x` against scalar or array parameters."""

    __slots__ = ()
    location: tuple[int, ...] = ()

    @property
    def params(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def with_params(self, params):
        return type(self)(*params)

    def evaluate(self, x):
        return self.degrees(np.asarray(x, dtype=float), *self.params)

    def centroid(self) -> float:
        return self.center  # by symmetry; the piecewise-linear shapes override it

    def translate(self, delta: float) -> "MembershipFunction":
        """The same shape moved by `delta` along the axis."""
        params = list(self.params)
        for i in self.location:
            params[i] += delta
        return self.with_params(params)

    def center_gradient(self, x):
        """d degree / d center: the parameter gradient summed over `location`."""
        return self.gradient(x)[..., self.location].sum(axis=-1)

    @classmethod
    def project(cls, params, lo, hi) -> "MembershipFunction":
        """The shape from raw knots: sorted, then translated so the center lies in [lo, hi]."""
        mf = cls(*np.sort(params))
        return mf.translate(np.clip(mf.center, lo, hi) - mf.center)


class GaussianMF(MembershipFunction):
    """exp(-(x - center)^2 / (2 sigma^2)), parameters (center, sigma)."""

    shape = "gaussian"
    __slots__ = ("c", "sigma")
    location = (0,)

    def __init__(self, center: float, sigma: float):
        if not sigma > 0:  # also rejects NaN
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.c = float(center)
        self.sigma = float(sigma)

    @staticmethod
    def degrees(x, c, sigma):
        z = (x - c) / sigma
        return np.exp(-0.5 * z * z)

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        mu = self.evaluate(x)
        d = x - self.c
        dc = mu * d / self.sigma**2
        ds = mu * d * d / self.sigma**3
        return np.stack([dc, ds], axis=-1)

    @property
    def center(self) -> float:
        return self.c

    @classmethod
    def project(cls, params, lo, hi) -> "GaussianMF":
        c, sigma = params
        return cls(np.clip(c, lo, hi), max(sigma, _MIN_WIDTH_FACTOR * (hi - lo)))


class GBellMF(MembershipFunction):
    """Generalized bell 1 / (1 + ((x - center)/a)^(2b)), parameters (a, b, center)."""

    shape = "gbell"
    __slots__ = ("a", "b", "c")
    location = (2,)

    def __init__(self, a: float, b: float, center: float):
        if not (a > 0 and b > 0):  # also rejects NaN
            raise ValueError(f"gbell needs a > 0 and b > 0, got a={a}, b={b}")
        self.a = float(a)
        self.b = float(b)
        self.c = float(center)

    @staticmethod
    def _t(x, a, c):
        z = (x - c) / a
        return z * z

    @staticmethod
    def degrees(x, a, b, c):
        t = GBellMF._t(x, a, c)
        with np.errstate(over="ignore"):
            if np.ndim(b) == 0:
                u = t**b
            else:
                # one scalar exponent per MF row: numpy squares a scalar 2 exactly, while an
                # exponent array takes its SIMD pow, whose last bit differs
                u = np.stack([row**e for row, e in zip(t, np.ravel(b))])
        return 1.0 / (1.0 + u)

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        t = self._t(x, self.a, self.c)
        with np.errstate(over="ignore", invalid="ignore"):
            u = t**self.b
            mu = 1.0 / (1.0 + u)
            core = u * mu * mu  # u / (1 + u)^2, -> 0 for u -> inf
        core = np.where(np.isfinite(u), core, 0.0)
        pos = t > 0
        da = 2.0 * self.b * core / self.a
        with np.errstate(divide="ignore", invalid="ignore"):
            db = np.where(pos, -core * np.log(np.where(pos, t, 1.0)), 0.0)
            dc = np.where(pos, 2.0 * self.b * core / np.where(pos, x - self.c, 1.0), 0.0)
        return np.stack([da, db, dc], axis=-1)

    @property
    def center(self) -> float:
        return self.c

    @classmethod
    def project(cls, params, lo, hi) -> "GBellMF":
        a, b, c = params
        min_width = _MIN_WIDTH_FACTOR * (hi - lo)
        return cls(max(a, min_width), max(b, _MIN_WIDTH_FACTOR), np.clip(c, lo, hi))


def _ramps(rising, falling):
    """The degree off the peak of a piecewise-linear shape, from its two ramp quotients.

    On the rising side `falling` is >= 1 and `rising` <= 1, and the other way
    round, because rounding keeps the order of the knots; outside the support
    one ramp is negative.  So the smaller ramp, floored at 0, is the degree
    the ramp masks would pick, bit for bit.  A ramp whose knots coincide is
    +-inf (or nan, only at the peak, which the caller sets to 1); `fmax` sends
    a nan from a nan input to 0, as the masks did; `+ 0.0` turns a -0.0 into their 0.0.
    """
    return np.fmax(np.minimum(rising, falling), 0.0) + 0.0


def _trapezoid_gradient(x, a, b, c, d):
    """d degree / d (a, b, c, d) of a trapezoid; at a kink, the derivative from the left."""
    zeros = np.zeros(np.shape(x))
    da, db, dc, dd = zeros, zeros, zeros, zeros
    if b > a:
        r = (x > a) & (x <= b)
        w = (b - a) ** 2
        da = np.where(r, (x - b) / w, zeros)
        db = np.where(r, -(x - a) / w, zeros)
    if d > c:
        f = (x > c) & (x <= d)
        w = (d - c) ** 2
        dc = np.where(f, (d - x) / w, zeros)
        dd = np.where(f, (x - c) / w, zeros)
    return np.stack([da, db, dc, dd], axis=-1)


class TrapezoidMF(MembershipFunction):
    """Piecewise-linear trapezoid with knots a <= b <= c <= d."""

    shape = "trapezoid"
    __slots__ = ("a", "b", "c", "d")
    location = (0, 1, 2, 3)

    def __init__(self, a: float, b: float, c: float, d: float):
        if not (a <= b <= c <= d):
            raise ValueError(f"trapezoid knots must be ordered, got {(a, b, c, d)}")
        self.a, self.b, self.c, self.d = float(a), float(b), float(c), float(d)

    @staticmethod
    def degrees(x, a, b, c, d):
        with np.errstate(divide="ignore", invalid="ignore"):
            rising = (x - a) / (b - a)
            falling = (d - x) / (d - c)
        return np.where((x >= b) & (x <= c), 1.0, _ramps(rising, falling))

    def gradient(self, x):
        return _trapezoid_gradient(np.asarray(x, dtype=float), self.a, self.b, self.c, self.d)

    @property
    def center(self) -> float:
        return 0.5 * (self.b + self.c)

    def centroid(self) -> float:
        den = 3.0 * ((self.d + self.c) - (self.a + self.b))
        if den == 0:  # degenerate spike
            return self.center
        num = (self.d**2 + self.c**2 + self.c * self.d) - (self.a**2 + self.b**2 + self.a * self.b)
        return num / den


class TriangleMF(MembershipFunction):
    """Piecewise-linear triangle with knots a <= b <= c, peak at b: the trapezoid (a, b, b, c)."""

    shape = "triangle"
    __slots__ = ("a", "b", "c")
    location = (0, 1, 2)

    def __init__(self, a: float, b: float, c: float):
        if not (a <= b <= c):
            raise ValueError(f"triangle knots must be ordered, got {(a, b, c)}")
        self.a, self.b, self.c = float(a), float(b), float(c)

    @staticmethod
    def degrees(x, a, b, c):
        return TrapezoidMF.degrees(x, a, b, b, c)

    def gradient(self, x):
        # the trapezoid with b == c; the peak's two columns never both hold a ramp, and
        # picking the live one (not summing) keeps the sign of an underflowed -0.0
        x = np.asarray(x, dtype=float)
        g = _trapezoid_gradient(x, self.a, self.b, self.b, self.c)
        return np.stack([g[..., 0], np.where(x > self.b, g[..., 2], g[..., 1]), g[..., 3]], axis=-1)

    @property
    def center(self) -> float:
        return self.b

    def centroid(self) -> float:
        return (self.a + self.b + self.c) / 3.0


MF_SHAPES = {
    "gaussian": GaussianMF,
    "gbell": GBellMF,
    "trapezoid": TrapezoidMF,
    "triangle": TriangleMF,
}


def mf_to_dict(mf: MembershipFunction) -> dict:
    return {"shape": mf.shape, "params": [float(p) for p in mf.params]}


def mf_from_dict(d: dict) -> MembershipFunction:
    try:
        cls = MF_SHAPES[d["shape"]]
    except KeyError:
        raise ValueError(f"unknown membership shape {d.get('shape')!r}") from None
    params, n = d["params"], len(cls.__slots__)
    if not (isinstance(params, list) and len(params) == n and all(map(is_finite_number, params))):
        raise ValueError(f"{cls.shape} params must be a list of {n} finite numbers, got {params!r}")
    return cls(*params)


# ---------------------------------------------------------------------------
# linguistic variables and rule machinery
# ---------------------------------------------------------------------------

class LinguisticVariable:
    """A named input or output dimension partitioned into labeled fuzzy sets.

    The first `fuzzify` reads the MFs' parameters into a table that later
    calls reuse, so change MFs through `replace_mfs`, never in place.
    """

    def __init__(self, name: str, lo: float, hi: float, mfs, labels=None):
        if not lo < hi:
            raise ValueError(f"variable {name!r} needs lo < hi, got [{lo}, {hi}]")
        mfs = list(mfs)
        if not mfs:
            raise ValueError(f"variable {name!r} needs at least one membership function")
        if labels is None:
            labels = [f"mf{i}" for i in range(len(mfs))]
        labels = list(labels)
        if len(labels) != len(mfs):
            raise ValueError(f"variable {name!r}: {len(labels)} labels for {len(mfs)} MFs")
        for mf in mfs:
            if not lo <= mf.center <= hi:
                raise ValueError(
                    f"variable {name!r}: MF center {mf.center} outside [{lo}, {hi}]"
                )
        self.name = name
        self.lo = float(lo)
        self.hi = float(hi)
        self.mfs = mfs
        self.labels = labels

    @property
    def n_mfs(self) -> int:
        return len(self.mfs)

    def clip(self, x):
        """Values outside the declared physical range are clipped before evaluation."""
        # the method skips np.clip's dispatch layer, a tenth of a one-row fuzzify
        return np.asarray(x, dtype=float).clip(self.lo, self.hi)

    @cached_property
    def _kernel_table(self) -> list:
        """One (shape class, MF columns, per-parameter (k, 1) arrays) entry per shape present."""
        columns: dict[type, list[int]] = {}
        for j, mf in enumerate(self.mfs):
            columns.setdefault(type(mf), []).append(j)
        return [
            (cls, np.array(cols), tuple(np.array([self.mfs[j].params for j in cols]).T[:, :, None]))
            for cls, cols in columns.items()
        ]

    def fuzzify(self, x):
        """Degrees of all MFs at x; shape = x.shape + (n_mfs,), C-ordered.

        A nan or inf in x is a ValueError naming the variable.

        One kernel call per shape class, over an (n_mfs, samples) layout so
        numpy's inner loops run over the samples.
        """
        x = np.asarray(x, dtype=float)
        if np.count_nonzero(np.isfinite(x)) != x.size:  # cheaper than .all() on one row
            raise ValueError(f"variable {self.name!r} got a non-finite input")
        cx = self.clip(x)
        if cx.ndim == 0:  # numpy's scalar power can differ in the last bit from its array power
            return np.array([mf.evaluate(cx) for mf in self.mfs])
        out = np.empty(cx.shape + (self.n_mfs,))
        rows, flat = out.reshape(-1, self.n_mfs).T, cx.reshape(-1)
        for cls, cols, params in self._kernel_table:
            rows[cols] = cls.degrees(flat, *params)
        return out

    def replace_mfs(self, mfs) -> "LinguisticVariable":
        return LinguisticVariable(self.name, self.lo, self.hi, mfs, self.labels)

    @classmethod
    def uniform(cls, name, lo, hi, n_mfs, shape="gaussian", labels=None):
        """Evenly spread MFs whose neighbours cross near degree 0.5.

        Centers sit on a uniform grid over [lo, hi]; widths follow from the
        grid spacing, adjusted per shape so adjacent sets intersect at 0.5.
        Triangles come out isosceles.
        """
        if n_mfs < 1:
            raise ValueError("n_mfs must be >= 1")
        lo, hi = float(lo), float(hi)
        if n_mfs == 1:
            centers = [0.5 * (lo + hi)]
            h = hi - lo
        else:
            h = (hi - lo) / (n_mfs - 1)
            centers = [lo + i * h for i in range(n_mfs)]
        mfs = []
        for c in centers:
            if shape == "gaussian":
                mfs.append(GaussianMF(c, h / (2.0 * math.sqrt(2.0 * math.log(2.0)))))
            elif shape == "gbell":
                mfs.append(GBellMF(h / 2.0, 2.0, c))
            elif shape == "trapezoid":
                mfs.append(TrapezoidMF(c - 0.75 * h, c - 0.25 * h, c + 0.25 * h, c + 0.75 * h))
            elif shape == "triangle":
                mfs.append(TriangleMF(c - h, c, c + h))
            else:
                raise ValueError(f"unknown membership shape {shape!r}")
        return cls(name, lo, hi, mfs, labels)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "range": [self.lo, self.hi],
            "mfs": [dict(mf_to_dict(mf), label=lab) for mf, lab in zip(self.mfs, self.labels)],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LinguisticVariable":
        mfs = [mf_from_dict(m) for m in d["mfs"]]
        labels = [m.get("label", f"mf{i}") for i, m in enumerate(d["mfs"])]
        return cls(d["name"], d["range"][0], d["range"][1], mfs, labels)


def grid_partition(variables) -> list[tuple[int, ...]]:
    """Cartesian product of MF indices, one antecedent tuple per rule.

    Tuples come out in lexicographic order; 4 variables x 3 MFs gives the
    canonical 81-rule grid.
    """
    variables = list(variables)
    if not variables:
        raise ValueError("grid_partition needs at least one variable")
    return list(itertools.product(*(range(v.n_mfs) for v in variables)))


def antecedent_table(antecedents, inputs) -> np.ndarray:
    """The rules' antecedents as an (R, n_inputs) integer array.

    Raises ValueError for an antecedent of the wrong length, a non-integer
    index, or an index outside its input's MFs.
    """
    n_mfs = [var.n_mfs for var in inputs]
    for ant in antecedents:
        if len(ant) != len(n_mfs):
            raise ValueError(f"antecedent {tuple(ant)} does not match input count {len(n_mfs)}")
    table = np.array(antecedents).reshape(len(antecedents), len(n_mfs))
    if not table.size:
        return table.astype(int)
    if table.dtype.kind not in "iu":
        raise ValueError(f"antecedent indices must be integers, got {table.dtype} values")
    bad = np.argwhere((table < 0) | (table >= n_mfs))
    if bad.size:
        r, v = bad[0]
        raise ValueError(f"antecedent index {table[r, v]} out of range for {inputs[v].name!r}")
    return table


def rule_strengths(memberships, antecedents, start) -> np.ndarray:
    """(P, R) strengths: a copy of `start` times each rule's degrees, in input order.

    `memberships[v]` holds input v's (P, n_mfs) degrees; `antecedents` is (R, n_inputs).
    The copy keeps the C order of a full (P, R) `start`; row sums over the result depend on it.
    """
    strengths = np.array(start, dtype=float)
    for v, mu in enumerate(memberships):
        strengths *= mu[:, antecedents[:, v]]
    return strengths


def strength_backprop(memberships, antecedents, coef, start) -> list[np.ndarray]:
    """d sum(coef * rule_strengths(...)) / d degree, one (n_mfs, P) array per input.

    A rule's other degrees are multiplied out, never divided out, so a zero degree is safe.
    """
    grads = []
    for v, mu in enumerate(memberships):
        others = memberships[:v] + memberships[v + 1 :]
        weighted = coef * rule_strengths(others, np.delete(antecedents, v, axis=1), start)
        uses = antecedents[:, v]
        grads.append(np.stack([weighted[:, uses == j].sum(axis=1) for j in range(mu.shape[1])]))
    return grads


# ---------------------------------------------------------------------------
# Mamdani model and inference
# ---------------------------------------------------------------------------

def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class MamdaniRule:
    """If inputs match `antecedent` then output is MF `consequent`, weighted."""

    antecedent: tuple[int, ...]
    consequent: int
    weight: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"rule weight must be in [0, 1], got {self.weight}")


@dataclass(frozen=True)
class MamdaniModel:
    inputs: list[LinguisticVariable]
    output: LinguisticVariable
    rules: list[MamdaniRule]

    def __post_init__(self):
        self.antecedent_index  # checks every antecedent
        cons = self.consequent_index
        bad = cons[(cons < 0) | (cons >= self.output.n_mfs)]
        if bad.size:
            raise ValueError(f"consequent index {bad[0]} out of range")

    @cached_property
    def antecedent_index(self) -> np.ndarray:
        """(R, n_inputs) MF index of every rule's antecedent."""
        return antecedent_table([r.antecedent for r in self.rules], self.inputs)

    @cached_property
    def rule_weights(self) -> np.ndarray:
        return np.array([r.weight for r in self.rules], dtype=float)

    @cached_property
    def consequent_index(self) -> np.ndarray:
        return np.array([r.consequent for r in self.rules], dtype=int)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.output.lo + self.output.hi)

    def output_grid(self) -> np.ndarray:
        return np.linspace(self.output.lo, self.output.hi, OUTPUT_GRID_POINTS)

    # inference set-up, built once per model and never written to

    @cached_property
    def _grid(self) -> np.ndarray:
        return _read_only(self.output_grid())

    @cached_property
    def consequent_sets(self) -> np.ndarray:
        """(n_output_mfs, grid points) degrees of every output set on the output grid."""
        return _read_only(np.ascontiguousarray(self.output.fuzzify(self._grid).T))

    @cached_property
    def consequent_rules(self) -> list[np.ndarray]:
        """Per output MF, the indices of the rules concluding it."""
        return [np.flatnonzero(self.consequent_index == j) for j in range(self.output.n_mfs)]

    def infer_batch(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Crisp outputs by scaling implication, max aggregation, centroid.

        One sample is a one-row batch.  Activation is the rule weight times
        the product of the antecedent degrees.  Rules sharing a consequent MF
        are collapsed through their maximal activation before aggregation,
        which is exact for the scaling implication.  Returns (outputs,
        fired_mask); a sample no rule fires for gets the midpoint of the
        output range and a False flag.
        """
        X = np.asarray(X, dtype=float)
        P = X.shape[0]
        mu = [var.fuzzify(X[:, v]) for v, var in enumerate(self.inputs)]
        acts = rule_strengths(mu, self.antecedent_index, np.ones((P, len(self.rules))))
        acts *= self.rule_weights
        m_out = self.output.n_mfs
        act_by_cons = np.zeros((P, m_out))
        for j, cols in enumerate(self.consequent_rules):
            if cols.size:
                act_by_cons[:, j] = acts[:, cols].max(axis=1)
        grid, cons_vals = self._grid, self.consequent_sets
        # max over consequents of activation x consequent set, one row block
        # at a time so the product temporary stays cache-sized
        agg = np.empty((P, grid.size))
        scratch = np.empty((min(P, AGGREGATION_BLOCK_ROWS), grid.size))
        for start in range(0, P, AGGREGATION_BLOCK_ROWS):
            rows = slice(start, start + AGGREGATION_BLOCK_ROWS)
            block = agg[rows]
            prod = scratch[: block.shape[0]]
            np.multiply(act_by_cons[rows, 0, None], cons_vals[0], out=block)
            for j in range(1, m_out):
                np.multiply(act_by_cons[rows, j, None], cons_vals[j], out=prod)
                np.maximum(block, prod, out=block)
        den = agg.sum(axis=1)
        fired = den > 0
        safe = np.where(fired, den, 1.0)
        out = np.where(fired, agg @ grid / safe, self.midpoint)
        return out, fired

    def rmse(self, X, y) -> float:
        return rmse(self.infer_batch(X)[0] - np.asarray(y, dtype=float))

    def to_dict(self) -> dict:
        return {
            "inputs": [v.to_dict() for v in self.inputs],
            "output": self.output.to_dict(),
            "rules": [
                {"antecedent": list(r.antecedent), "consequent": r.consequent, "weight": r.weight}
                for r in self.rules
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MamdaniModel":
        return cls(
            inputs=[LinguisticVariable.from_dict(v) for v in d["inputs"]],
            output=LinguisticVariable.from_dict(d["output"]),
            rules=[
                MamdaniRule(tuple(r["antecedent"]), r["consequent"], r["weight"])
                for r in d["rules"]
            ],
        )

