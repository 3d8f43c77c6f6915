"""Fuzzy primitives: membership functions, linguistic variables, the rule layer, Mamdani inference.

Membership functions come in four parametric shapes (gaussian, generalized
bell, trapezoid, triangle).  Every shape evaluates through one static,
broadcasting kernel `degrees(x, *params)`, and knows how to differentiate
itself with respect to its own parameters (the backbone of gradient tuning).
A fuzzy model's `InputLayer` holds the parameters of all its input MFs in one
table, built once per model, and fuzzifies every input of a batch with one
kernel call per shape present; a lone variable's `fuzzify` is the one-input
case.  Each class's `location` names the parameters that "moving the
center" shifts.  The static `gradients`, `center_of`, `centroid_of` and
`project` kernels take the same scalar or (k, 1) parameter arrays as
`degrees`; `project` repairs raw parameters after a gradient step (the base
version sorts the knots and pulls the center into range, the gaussian and
gbell floor their widths).  So a layer's table is where MF parameters are
read, differentiated and stepped, with no MF object: it reads centers and
centroids (`InputLayer.centers`, `centroids`), moves centers along `location`
(`InputLayer.moved`), steps every parameter (`stepped`) and differentiates
them in one backward pass (`param_gradients`, summed over `location` by
`center_gradients`).

Both fuzzy systems share the rule layer: a rule fires with the product of
its antecedent degrees (`rule_strengths`); `strength_backprop` differentiates it.
A Mamdani rule's activation, that product times the rule weight
(`MamdaniModel.activations`), serves inference and the GD surrogate alike.

Mamdani inference uses product implication (activation scales the consequent
set), pointwise-max aggregation on a uniform discretization of the output
range, and centroid defuzzification.  A model builds its output grid, the
output sets on it and each set's rule columns once, at its first inference.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import finite_data, is_finite_number, is_range, json_typed
from .report import rmse

OUTPUT_GRID_POINTS = 201
# rows per block of Mamdani aggregation: a (160, 201) float64 block is 257 KB
AGGREGATION_BLOCK_ROWS = 160
# `project` floors widths at this fraction of the variable's range (gbell's b at the factor itself)
_MIN_WIDTH_FACTOR = 1e-6
# translations `project` may add to bring a rounded center back into range; in 60000 random
# steps of a 3-MF trapezoid variable (scale 0.05 to 1) none needed more than two
_MAX_NUDGES = 32


# ---------------------------------------------------------------------------
# membership function shapes
# ---------------------------------------------------------------------------

class MembershipFunction:
    """Base of the four shapes: the constructor takes the parameters in `__slots__` order,
    and `location` holds the indices of those a center move shifts.  Each shape's static
    kernels broadcast `x` against scalar or (k, 1) array parameters: `degrees(x, *params)`
    evaluates it, `gradients(x, *params)` gives d degree / d parameter, one array per
    parameter, `center_of(*params)` its center and `centroid_of(*params)` its centroid."""

    __slots__ = ()
    location: tuple[int, ...] = ()

    @property
    def params(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def with_params(self, params):
        return type(self)(*params)

    def evaluate(self, x):
        return self.degrees(np.asarray(x, dtype=float), *self.params)

    def gradient(self, x):
        """d degree / d parameter at x; the last axis runs over the parameters."""
        return np.stack(self.gradients(np.asarray(x, dtype=float), *self.params), axis=-1)

    @property
    def center(self) -> float:
        return self.center_of(*self.params)

    @classmethod
    def centroid_of(cls, *params):
        return cls.center_of(*params)  # by symmetry; the piecewise-linear shapes override it

    def centroid(self) -> float:
        return float(self.centroid_of(*self.params))

    @classmethod
    def project(cls, lo, hi, *params):
        """Raw knots repaired: sorted, then translated so the center lies in [lo, hi].

        The center recomputed from the translated knots can round just past
        its bound (0.5 * (b + c) of a trapezoid); those knots are then
        translated farther inward, by a nudge that starts at the miss and
        doubles while they still miss, because a miss below half an ulp of
        the knots does not move them.  One common translation keeps them
        ordered.
        """
        knots = np.sort(params, axis=0)
        center = cls.center_of(*knots)
        target = _clip(center, lo, hi)
        shift, nudge = target - center, 0.0
        for _ in range(_MAX_NUDGES):
            moved = tuple(k + shift if i in cls.location else k for i, k in enumerate(knots))
            center = cls.center_of(*moved)
            out = (center < lo) | (center > hi)
            if not np.any(out):
                break
            nudge = np.where(out, 2 * nudge + (target - center), 0.0)
            shift = shift + nudge
        return moved


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
        with np.errstate(over="ignore"):  # a tiny sigma sends z * z to inf, and the degree to 0
            z = (x - c) / sigma
            return np.exp(-0.5 * z * z)

    @staticmethod
    def gradients(x, c, sigma):
        d = x - c
        # a huge sigma cubes to inf, not to an OverflowError; a tiny one to 0, handled below
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            mu = GaussianMF.degrees(x, c, sigma)
            sigma2, sigma3 = _powers(sigma, 2), _powers(sigma, 3)
            dc = mu * d / sigma2
            ds = mu * d * d / sigma3
            tiny = sigma3 == 0
            if np.any(tiny):  # every ds is 0/0 or x/0: divide by sigma once per power instead
                z = np.where(mu > 0, d / sigma, 0.0)  # a zero degree has a zero gradient
                dc = np.where(tiny & ~np.isfinite(dc), mu * z / sigma, dc)
                ds = np.where(tiny, mu * z * z / sigma, ds)
        return dc, ds

    gradient = MembershipFunction.gradient  # each shape's own: perfbench wraps it by class

    @staticmethod
    def center_of(c, sigma):
        return c

    @staticmethod
    def project(lo, hi, c, sigma):
        return _clip(c, lo, hi), np.maximum(sigma, _MIN_WIDTH_FACTOR * (hi - lo))


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
    def _u(t, b):
        """t ** b; over (k, 1) parameters one scalar exponent per MF row: numpy squares a
        scalar 2 exactly, while an exponent array takes its SIMD pow, whose last bit differs."""
        if np.ndim(b) == 0:
            return t**b
        return np.stack([row**e for row, e in zip(t, np.ravel(b))])

    @staticmethod
    def degrees(x, a, b, c):
        t = GBellMF._t(x, a, c)
        with np.errstate(over="ignore"):
            u = GBellMF._u(t, b)
        return 1.0 / (1.0 + u)

    @staticmethod
    def gradients(x, a, b, c):
        with np.errstate(over="ignore", invalid="ignore"):
            t = GBellMF._t(x, a, c)
            u = GBellMF._u(t, b)
            mu = 1.0 / (1.0 + u)
            core = u * mu * mu  # u / (1 + u)^2, -> 0 for u -> inf
        core = np.where(np.isfinite(u), core, 0.0)
        pos = t > 0
        da = 2.0 * b * core / a
        with np.errstate(divide="ignore", invalid="ignore"):
            # where t overflows to inf, core is 0 and so is db's limit: log(1) keeps 0 * inf out
            db = np.where(pos, -core * np.log(np.where(pos & (t < np.inf), t, 1.0)), 0.0)
            dc = np.where(pos, 2.0 * b * core / np.where(pos, x - c, 1.0), 0.0)
        return da, db, dc

    gradient = MembershipFunction.gradient  # each shape's own: perfbench wraps it by class

    @staticmethod
    def center_of(a, b, c):
        return c

    @staticmethod
    def project(lo, hi, a, b, c):
        min_width = _MIN_WIDTH_FACTOR * (hi - lo)
        return np.maximum(a, min_width), np.maximum(b, _MIN_WIDTH_FACTOR), _clip(c, lo, hi)


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


def _clip(v, lo, hi):
    """np.clip, where a value equal to its (k, 1) array bound keeps its own bits as with scalars."""
    clipped = np.clip(v, lo, hi)
    return np.where(clipped == v, v, clipped)


def _powers(v, e):
    """v ** e as numpy's scalar power, element by element: an array power can differ in the
    last bit, so a (k, 1) parameter array gets the bits of each MF's own scalar power."""
    if np.ndim(v) == 0:
        return np.float64(v) ** e
    return np.array([np.float64(s) ** e for s in np.ravel(v)]).reshape(np.shape(v))


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

    @staticmethod
    def gradients(x, a, b, c, d):
        """At a kink, the derivative from the left; a ramp of zero width has none."""
        with np.errstate(over="ignore"):  # a gap past 1e154 squares to inf, not to an OverflowError
            rise, fall = _powers(b - a, 2), _powers(d - c, 2)
        r = (x > a) & (x <= b) & (b > a)
        f = (x > c) & (x <= d) & (d > c)
        with np.errstate(divide="ignore", invalid="ignore"):  # zero widths: masked out below
            return (np.where(r, (x - b) / rise, 0.0), np.where(r, -(x - a) / rise, 0.0),
                    np.where(f, (d - x) / fall, 0.0), np.where(f, (x - c) / fall, 0.0))

    gradient = MembershipFunction.gradient  # each shape's own: perfbench wraps it by class

    @staticmethod
    def center_of(a, b, c, d):
        return 0.5 * (b + c)

    @staticmethod
    def centroid_of(a, b, c, d):
        den = 3.0 * ((d + c) - (a + b))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            sa, sb, sc, sd = (_powers(k, 2) for k in (a, b, c, d))
            value = np.where(den == 0, 0.5 * (b + c),  # a degenerate spike: its center
                             ((sd + sc + c * d) - (sa + sb + a * b)) / den)
        bad = np.flatnonzero(~np.isfinite(value))
        if bad.size:  # knots so far apart that the squares overflow
            knots = tuple(float(np.ravel(k)[bad[0]]) for k in (a, b, c, d))
            raise ValueError(f"trapezoid {knots} has no finite centroid")
        return value


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

    @staticmethod
    def gradients(x, a, b, c):
        # the trapezoid with b == c; the peak's two columns never both hold a ramp, and
        # picking the live one (not summing) keeps the sign of an underflowed -0.0
        da, db, dc, dd = TrapezoidMF.gradients(x, a, b, b, c)
        return da, np.where(x > b, dc, db), dd

    gradient = MembershipFunction.gradient  # each shape's own: perfbench wraps it by class

    @staticmethod
    def center_of(a, b, c):
        return b

    @staticmethod
    def centroid_of(a, b, c):
        return (a + b + c) / 3.0


MF_SHAPES = {
    "gaussian": GaussianMF,
    "gbell": GBellMF,
    "trapezoid": TrapezoidMF,
    "triangle": TriangleMF,
}


def mf_from_dict(d: dict, field: str) -> MembershipFunction:
    try:
        cls = MF_SHAPES[json_typed(d, dict, field)["shape"]]
    except (KeyError, TypeError):
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

    The first `fuzzify` reads the MFs' parameters into a one-input
    `InputLayer` that later calls reuse, so change MFs through `replace_mfs`,
    never in place.  A model fuzzifies all its inputs through its own layer
    instead, with one kernel call per shape present in the model.
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
        return np.asarray(x, dtype=float).clip(self.lo, self.hi)

    @cached_property
    def _layer(self) -> "InputLayer":
        return InputLayer([self])

    def fuzzify(self, x):
        """Degrees of all MFs at x; shape = x.shape + (n_mfs,), C-ordered.

        A nan or inf in x is a ValueError naming the variable.  An array is
        fuzzified as the one input of an `InputLayer`; a scalar goes through
        each MF's `evaluate`.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:  # numpy's scalar power can differ in the last bit from its array power
            cx = self._layer.clip(x.reshape(1, 1))[0, 0]
            return np.array([mf.evaluate(cx) for mf in self.mfs])
        return self._layer.fuzzify(x.reshape(-1, 1))[1][0].T.copy().reshape(x.shape + (self.n_mfs,))

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
            "mfs": [{"shape": mf.shape, "params": [float(p) for p in mf.params], "label": lab}
                    for mf, lab in zip(self.mfs, self.labels)],
        }

    @classmethod
    def from_dict(cls, d: dict, field: str = "variable") -> "LinguisticVariable":
        """The variable a `to_dict` body describes; `field` names it in a ValueError."""
        if not is_range(json_typed(d, dict, field)["range"]):
            raise ValueError(f"variable {d['name']!r} range {d['range']!r} is not a finite lo < hi "
                             "with a finite span")
        entries = json_typed(d["mfs"], list, f"{field} mfs")
        mfs = [mf_from_dict(m, f"{field} mfs[{j}]") for j, m in enumerate(entries)]
        labels = [m.get("label", f"mf{j}") for j, m in enumerate(entries)]
        return cls(d["name"], *d["range"], mfs, labels)


class InputLayer:
    """The input side of a fuzzy model: every input MF's parameters in one table.

    The table groups the MFs by shape class and holds each one's input and
    its row in a (total MFs, P) degree matrix; rows run variable by variable,
    MF by MF.  `fuzzify` checks, clips and fuzzifies a whole (P, n_inputs)
    batch with one kernel call per shape present, whatever the number of
    inputs.  The kernels are elementwise, so each degree has the bits of that
    MF's own `evaluate`.  Built from the variables' MFs once: change MFs
    through `replace_mfs`, or move the table's centers with `moved`.
    """

    def __init__(self, variables):
        variables = list(variables)
        self.names = [var.name for var in variables]
        self.labels = [var.labels for var in variables]
        self.lo = np.array([[var.lo] for var in variables])
        self.hi = np.array([[var.hi] for var in variables])
        self.bounds = list(itertools.accumulate((var.n_mfs for var in variables), initial=0))
        groups: dict[type, list] = {}
        mfs = [(v, mf) for v, var in enumerate(variables) for mf in var.mfs]
        for row, (v, mf) in enumerate(mfs):
            groups.setdefault(type(mf), []).append((v, row, mf.params))
        # per shape: (class, input of each MF, degree row of each MF, per-parameter (k, 1) arrays)
        self.kernels = [
            (cls, np.array([g[0] for g in group]), np.array([g[1] for g in group]),
             tuple(np.array([g[2] for g in group]).T[:, :, None]))
            for cls, group in groups.items()
        ]
        self.n_params = sum(at.size * len(params) for _, _, at, params in self.kernels)

    @cached_property
    def param_index(self) -> list[np.ndarray]:
        """Per shape, (k, parameters per MF) positions in the flat variable, MF, parameter order."""
        sizes = np.zeros(self.bounds[-1], dtype=int)
        for _, _, at, params in self.kernels:
            sizes[at] = len(params)
        starts = np.cumsum(sizes) - sizes
        return [starts[at][:, None] + np.arange(len(params)) for _, _, at, params in self.kernels]

    def clip(self, X) -> np.ndarray:
        """X clipped to each variable's range, as the transpose of a C-ordered (n_inputs, P)
        array, so each input's column is contiguous.

        X must be (P, n_inputs); a nan or inf is a ValueError naming the first
        variable that holds one.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.names):
            raise ValueError(f"expected (rows, {len(self.names)}) inputs, got shape {X.shape}")
        finite = np.isfinite(X)
        if np.count_nonzero(finite) != X.size:  # cheaper than .all() on one row
            bad = int(np.argmin(finite.all(axis=0)))
            raise ValueError(f"variable {self.names[bad]!r} got a non-finite input")
        columns = X.T.clip(self.lo, self.hi, out=np.empty(X.shape[::-1]))
        # a value equal to its bound keeps its own bits (-0.0 at a bound of 0.0), as numpy's
        # clip does with scalar bounds, like `LinguisticVariable.clip`, but not with array bounds
        np.copyto(columns, X.T, where=columns == X.T)
        return columns.T

    def fuzzify(self, X) -> tuple[np.ndarray, list[np.ndarray]]:
        """(clipped X as `clip` returns it, `degrees` of it)."""
        Xc = self.clip(X)
        return Xc, self.degrees(Xc)

    def degrees(self, Xc) -> list[np.ndarray]:
        """Per input its (n_mfs, P) degrees at `Xc`, inputs already clipped by `clip`.

        Each input's degrees are a C-contiguous row block of the one (total
        MFs, P) degree matrix: views, not copies.
        """
        rows = np.empty((self.bounds[-1], Xc.shape[0]))
        for cls, source, at, params in self.kernels:
            rows[at] = cls.degrees(Xc.T[source], *params)  # numpy's inner loops run over P
        return [rows[a:b] for a, b in zip(self.bounds, self.bounds[1:])]

    def centers(self, kernel="center_of") -> np.ndarray:
        """Every MF's center, or its shape's other per-MF `kernel`, in row order."""
        out = np.empty(self.bounds[-1])
        for cls, _, at, params in self.kernels:
            out[at] = np.ravel(getattr(cls, kernel)(*params))
        return out

    def centroids(self) -> np.ndarray:
        """Every MF's centroid, in row order."""
        return self.centers("centroid_of")

    def param_gradients(self, Xc, d_mu) -> np.ndarray:
        """d E / d parameter, flat in variable, MF, parameter order, at clipped `Xc`, from
        d E / d degree `d_mu` (per input, (n_mfs, P)): one `gradients` call and one stacked
        product per shape, with the bits of each MF's own `gradient(x).T @ d`."""
        d_mu = np.concatenate(d_mu)
        out = np.empty(self.n_params)
        for (cls, source, at, params), index in zip(self.kernels, self.param_index):
            grads = np.stack(cls.gradients(Xc.T[source], *params), axis=-1)  # (k, P, parameters)
            out[index] = np.matmul(grads.transpose(0, 2, 1), d_mu[at][:, :, None])[:, :, 0]
        return out

    def center_gradients(self, Xc, d_mu) -> np.ndarray:
        """d E / d center per MF row, in row order: `param_gradients(Xc, d_mu)` summed over
        each shape's `location`, the parameters a center move shifts."""
        grads = self.param_gradients(Xc, d_mu)
        out = np.empty(self.bounds[-1])
        for (cls, _, at, _), index in zip(self.kernels, self.param_index):
            out[at] = grads[index[:, cls.location]].sum(axis=1)
        return out

    def _with_params(self, params) -> "InputLayer":
        """The layer with each shape's parameter arrays replaced, in `kernels` order."""
        layer = copy.copy(self)
        layer.kernels = [(cls, src, at, p) for (cls, src, at, _), p in zip(self.kernels, params)]
        return layer

    def moved(self, deltas) -> "InputLayer":
        """The layer with MF row r translated by deltas[r], added to its `location` parameters.

        A moved center outside its variable's range (or nan) raises the
        ValueError that the moved MFs and their `LinguisticVariable` raise.
        """
        deltas = np.asarray(deltas, dtype=float)
        layer = self._with_params(
            tuple(p + deltas[at][:, None] if i in cls.location else p for i, p in enumerate(params))
            for cls, _, at, params in self.kernels)
        for cls, source, _, params in layer.kernels:
            c = cls.center_of(*params)
            if not np.all((self.lo[source] <= c) & (c <= self.hi[source])):
                layer.to_variables()  # the variables' own check names the first bad MF
        return layer

    def stepped(self, step) -> "InputLayer":
        """The layer with every parameter moved by -step (flat, in `param_gradients`' order) and
        repaired by its shape's `project`.

        A stepped parameter that is not finite raises the ValueError that the
        MFs and their `LinguisticVariable` raise (a nan width), or one naming
        the variable where they accept it (an infinite width).
        """
        step = np.asarray(step, dtype=float)
        if step.shape != (self.n_params,):
            raise ValueError(f"step of shape {step.shape} for {self.n_params} parameters")
        layer = self._with_params(
            cls.project(self.lo[source], self.hi[source],
                        *(p - step[i][:, None] for p, i in zip(params, index.T)))
            for (cls, source, _, params), index in zip(self.kernels, self.param_index))
        for cls, source, _, params in layer.kernels:
            finite = np.isfinite(params).all(axis=(0, 2))  # per MF of this shape
            if not finite.all():
                layer.to_variables()  # the variables' own check names the first bad MF
                name = self.names[source[np.argmin(finite)]]
                raise ValueError(f"variable {name!r}: a stepped {cls.shape} MF is not finite")
        return layer

    def to_variables(self) -> list[LinguisticVariable]:
        """The layer's variables with the MFs its table holds, as `moved` or `stepped` left them."""
        mfs = [None] * self.bounds[-1]
        for cls, _, at, params in self.kernels:
            for i, row in enumerate(at):
                mfs[row] = cls(*(float(p[i, 0]) for p in params))
        ranges = zip(self.lo[:, 0].tolist(), self.hi[:, 0].tolist())
        return [LinguisticVariable(name, lo, hi, mfs[a:b], labels)
                for name, labels, (lo, hi), a, b in zip(
                    self.names, self.labels, ranges, self.bounds, self.bounds[1:])]


def inputs_from_dict(d: dict, kind: str, n_inputs: int) -> list[LinguisticVariable]:
    """The input variables of a fuzzy model's `to_dict` body; ValueError names a bad field."""
    inputs = json_typed(d["inputs"], list, f"{kind} inputs")
    if len(inputs) != n_inputs:
        raise ValueError(f"{kind} inputs hold {len(inputs)} variables, not {n_inputs}")
    return [LinguisticVariable.from_dict(v, f"{kind} inputs[{i}]") for i, v in enumerate(inputs)]


def grid_partition(variables) -> list[tuple[int, ...]]:
    """Cartesian product of MF indices, one antecedent tuple per rule.

    Tuples come out in lexicographic order; 4 variables x 3 MFs gives the
    canonical 81-rule grid.
    """
    variables = list(variables)
    if not variables:
        raise ValueError("grid_partition needs at least one variable")
    return list(itertools.product(*(range(v.n_mfs) for v in variables)))


def _is_index(v) -> bool:
    return type(v) is int or isinstance(v, np.integer)  # not a bool, a float or a string


def antecedent_table(antecedents, inputs) -> np.ndarray:
    """The rules' antecedents as an (R, n_inputs) integer array.

    Raises ValueError for an antecedent of the wrong length, a non-integer
    index, or an index outside its input's MFs.
    """
    n_mfs = [var.n_mfs for var in inputs]
    for ant in antecedents:
        if len(ant) != len(n_mfs):
            raise ValueError(f"antecedent {tuple(ant)} does not match input count {len(n_mfs)}")
        if not all(map(_is_index, ant)):
            raise ValueError(f"antecedent indices must be integers, got {tuple(ant)}")
    try:
        table = np.array(antecedents, dtype=int).reshape(len(antecedents), len(n_mfs))
    except OverflowError:  # an index past the C long range, which the check below reports
        table = np.array(antecedents, dtype=object).reshape(len(antecedents), len(n_mfs))
    bad = np.argwhere((table < 0) | (table >= n_mfs))
    if bad.size:
        r, v = bad[0]
        raise ValueError(f"antecedent index {table[r, v]} out of range for {inputs[v].name!r}")
    return table


def rule_strengths(memberships, antecedents) -> np.ndarray:
    """(P, R) strengths: the product of the rules' degrees, in input order.

    `memberships[v]` is input v's (n_mfs, P) degrees, `antecedents` is (R, n_inputs).  Row
    gathers take the product in place.  Row sums need the result's C order.
    """
    strengths = 1.0
    for v, mu in enumerate(memberships):
        gathered = mu[antecedents[:, v]]
        gathered *= strengths
        strengths = gathered
    return np.array(np.transpose(strengths), order="C")


def strength_backprop(memberships, antecedents, coef) -> list[np.ndarray]:
    """d sum(coef * rule_strengths(...)) / d degree, one (n_mfs, P) array per input.

    A rule's other degrees are multiplied out, never divided out, so a zero degree is safe.
    """
    grads = []
    for v, mu in enumerate(memberships):
        others = memberships[:v] + memberships[v + 1 :]
        weighted = coef * rule_strengths(others, np.delete(antecedents, v, axis=1))
        uses = antecedents[:, v]
        grads.append(np.stack([weighted[:, uses == j].sum(axis=1) for j in range(mu.shape[0])]))
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
        if not _is_index(self.consequent):
            raise ValueError(f"rule consequent must be an integer, got {self.consequent!r}")
        w = self.weight
        if isinstance(w, bool) or not (isinstance(w, (int, float)) and 0.0 <= w <= 1.0):
            raise ValueError(f"rule weight must be a number in [0, 1], got {w!r}")


@dataclass(frozen=True)
class MamdaniModel:
    inputs: list[LinguisticVariable]
    output: LinguisticVariable
    rules: list[MamdaniRule]

    def __post_init__(self):
        self.antecedent_index  # checks every antecedent
        # Python ints, checked before `consequent_index` casts them to C longs
        bad = [r.consequent for r in self.rules if not 0 <= r.consequent < self.output.n_mfs]
        if bad:
            raise ValueError(f"consequent index {bad[0]} out of range")

    @cached_property
    def antecedent_index(self) -> np.ndarray:
        """(R, n_inputs) MF index of every rule's antecedent."""
        return antecedent_table([r.antecedent for r in self.rules], self.inputs)

    @cached_property
    def input_layer(self) -> InputLayer:
        return InputLayer(self.inputs)

    @cached_property
    def output_layer(self) -> InputLayer:
        return InputLayer([self.output])

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
    def grid_column(self) -> np.ndarray:
        """The output grid as `output_layer.clip` returns it, for `output_layer.degrees`."""
        return _read_only(self.output_layer.clip(self._grid[:, None]))

    @cached_property
    def consequent_sets(self) -> np.ndarray:
        """(n_output_mfs, grid points) degrees of every output set on the output grid."""
        return _read_only(self.output_layer.degrees(self.grid_column)[0])

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
        return self.infer_degrees(self.input_layer.fuzzify(X)[1], self.consequent_sets)

    def activations(self, mu) -> np.ndarray:
        """(P, R) rule activations from the input degrees `mu`, per input (n_mfs, P): the
        product of each rule's antecedent degrees, times its weight."""
        acts = rule_strengths(mu, self.antecedent_index)
        acts *= self.rule_weights
        return acts

    def infer_degrees(self, mu, cons_vals) -> tuple[np.ndarray, np.ndarray]:
        """`infer_batch` from the input degrees `mu`, per input (n_mfs, P), and the output
        sets `cons_vals` on the output grid, through this model's rules: a tuner passes the
        degrees and sets of a moved table."""
        P = mu[0].shape[1]
        acts = self.activations(mu)
        m_out = self.output.n_mfs
        act_by_cons = np.zeros((P, m_out))
        for j, cols in enumerate(self.consequent_rules):
            if cols.size:
                act_by_cons[:, j] = acts[:, cols].max(axis=1)
        grid = self._grid
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
        X, y = finite_data(X, y)
        return rmse(self.infer_batch(X)[0] - y)

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
    def from_dict(cls, d: dict, n_inputs: int) -> "MamdaniModel":
        """The model a `to_dict` body describes; ValueError names a malformed field."""
        inputs = inputs_from_dict(d, "mamdani", n_inputs)
        if not json_typed(d["rules"], list, "mamdani rules"):
            raise ValueError("mamdani rules are empty")
        rules = []
        for k, r in enumerate(d["rules"]):
            r = json_typed(r, dict, f"mamdani rules[{k}]")
            antecedent = json_typed(r["antecedent"], list, f"mamdani rules[{k}] antecedent")
            rules.append(MamdaniRule(tuple(antecedent), r["consequent"], r["weight"]))
        return cls(inputs, LinguisticVariable.from_dict(d["output"], "mamdani output"), rules)
