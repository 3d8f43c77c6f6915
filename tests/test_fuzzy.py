"""Membership shapes, gradients vs finite differences, and Mamdani inference."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from softdss.anfis import AnfisModel, forward_batch
from softdss.fuzzy import (
    AGGREGATION_BLOCK_ROWS,
    MF_SHAPES,
    OUTPUT_GRID_POINTS,
    GaussianMF,
    GBellMF,
    LinguisticVariable,
    MamdaniModel,
    MamdaniRule,
    TrapezoidMF,
    TriangleMF,
    grid_partition,
    rule_strengths,
    strength_backprop,
)


def firing_strengths(variables, x):
    """Product firing strength of every grid rule at one sample (ANFIS layer 3)."""
    _, trace = forward_batch(AnfisModel.grid(variables), [x])
    return dict(zip(grid_partition(variables), trace.w[0]))


def reference_infer(model, x):
    """Mamdani inference rule by rule for one sample (test oracle): (output, fired)."""
    acts = []
    for rule in model.rules:
        w = 1.0
        for var, idx, xi in zip(model.inputs, rule.antecedent, x):
            w *= float(var.mfs[idx].evaluate(var.clip(xi)))
        acts.append(rule.weight * w)
    acts = np.array(acts)
    if not np.any(acts > 0):
        return model.midpoint, False
    grid = model.output_grid()
    cons = np.stack([model.output.mfs[r.consequent].evaluate(grid) for r in model.rules])
    agg = (acts[:, None] * cons).max(axis=0)
    den = agg.sum()
    if den == 0:
        return model.midpoint, False
    return float(agg @ grid / den), True


def dense_infer_batch(model, X):
    """Mamdani inference with the whole (P, m, 201) product materialized
    (test oracle for the blocked aggregation): (outputs, fired)."""
    X = np.asarray(X, dtype=float)
    P = X.shape[0]
    mu = [var.fuzzify(X[:, v]) for v, var in enumerate(model.inputs)]
    acts = np.ones((P, len(model.rules)))
    for i, rule in enumerate(model.rules):
        for v, idx in enumerate(rule.antecedent):
            acts[:, i] *= mu[v][:, idx]
        acts[:, i] *= rule.weight
    m_out = model.output.n_mfs
    act_by_cons = np.zeros((P, m_out))
    for j in range(m_out):
        cols = [i for i, r in enumerate(model.rules) if r.consequent == j]
        if cols:
            act_by_cons[:, j] = acts[:, cols].max(axis=1)
    grid = model.output_grid()
    cons_vals = np.stack([mf.evaluate(grid) for mf in model.output.mfs])
    agg = (act_by_cons[:, :, None] * cons_vals[None, :, :]).max(axis=1)
    den = agg.sum(axis=1)
    fired = den > 0
    safe = np.where(fired, den, 1.0)
    return np.where(fired, agg @ grid / safe, model.midpoint), fired


def reference_strengths(memberships, antecedents, start):
    """rule_strengths one rule and one input at a time (test oracle)."""
    out = np.array(start, dtype=float)
    for r, antecedent in enumerate(antecedents):
        for v, j in enumerate(antecedent):
            out[:, r] = out[:, r] * memberships[v][:, j]
    return out


def reference_backprop(memberships, antecedents, coef, start):
    """strength_backprop one rule and one input at a time (test oracle).

    A rule adds coef * start * (its degrees on the other inputs) to the row of
    each MF it uses, in rule order; with fewer than 8 rules per MF that is
    also the order numpy sums a row in.
    """
    grads = [np.zeros((mu.shape[1], start.shape[0])) for mu in memberships]
    for r, antecedent in enumerate(antecedents):
        for v, j in enumerate(antecedent):
            others = start[:, r].copy()
            for u, k in enumerate(antecedent):
                if u != v:
                    others = others * memberships[u][:, k]
            grads[v][j] = grads[v][j] + coef[:, r] * others
    return grads


def finite_difference_grad(mf, x, h=1e-6):
    """Central finite differences over the shape parameters (test oracle)."""
    params = np.array(mf.params, dtype=float)
    out = np.zeros(params.shape)
    for k in range(params.shape[0]):
        up, down = params.copy(), params.copy()
        up[k] += h
        down[k] -= h
        out[k] = (mf.with_params(up).evaluate(x) - mf.with_params(down).evaluate(x)) / (2 * h)
    return out


def random_mf(shape, rng):
    if shape == "gaussian":
        return GaussianMF(rng.uniform(-2, 2), rng.uniform(0.3, 3.0))
    if shape == "gbell":
        return GBellMF(rng.uniform(0.5, 3.0), rng.uniform(1.0, 5.0), rng.uniform(-2, 2))
    knots = np.sort(rng.uniform(-3, 3, size=4))
    if shape == "trapezoid":
        return TrapezoidMF(*knots)
    return TriangleMF(*knots[:3])


SHAPES = ("gaussian", "gbell", "trapezoid", "triangle")


def translate_oracle(mf, delta):
    """The per-class `translate` bodies that `location` replaced (test oracle)."""
    if mf.shape == "gaussian":
        return GaussianMF(mf.c + delta, mf.sigma)
    if mf.shape == "gbell":
        return GBellMF(mf.a, mf.b, mf.c + delta)
    if mf.shape == "trapezoid":
        return TrapezoidMF(mf.a + delta, mf.b + delta, mf.c + delta, mf.d + delta)
    return TriangleMF(mf.a + delta, mf.b + delta, mf.c + delta)


def center_gradient_oracle(mf, x):
    """The per-class `center_gradient` bodies that `location` replaced (test oracle)."""
    if mf.shape == "gaussian":
        return mf.gradient(x)[..., 0]
    if mf.shape == "gbell":
        return mf.gradient(x)[..., 2]
    return mf.gradient(x).sum(axis=-1)


def project_params_oracle(shape, params, lo, hi):
    """The shape switch ANFIS used before `MembershipFunction.project` (test oracle)."""
    params = np.asarray(params, dtype=float).copy()
    min_width = 1e-6 * (hi - lo)
    if shape == "gaussian":
        params[0] = np.clip(params[0], lo, hi)
        params[1] = max(params[1], min_width)
    elif shape == "gbell":
        params[0] = max(params[0], min_width)
        params[1] = max(params[1], 1e-6)
        params[2] = np.clip(params[2], lo, hi)
    elif shape in ("triangle", "trapezoid"):
        params.sort()
        center = params[1] if shape == "triangle" else 0.5 * (params[1] + params[2])
        params += np.clip(center, lo, hi) - center
    return params


def evaluate_oracle(mf, x):
    """The per-class `evaluate` bodies that the shape kernels replaced (test oracle)."""
    x = np.asarray(x, dtype=float)
    if mf.shape == "gaussian":
        z = (x - mf.c) / mf.sigma
        return np.exp(-0.5 * z * z)
    if mf.shape == "gbell":
        z = (x - mf.c) / mf.a
        with np.errstate(over="ignore"):
            u = (z * z) ** mf.b
        return 1.0 / (1.0 + u)
    out = np.zeros(np.shape(x))
    if mf.shape == "trapezoid":
        out = np.where((x >= mf.b) & (x <= mf.c), 1.0, out)
        if mf.b > mf.a:
            out = np.where((x > mf.a) & (x < mf.b), (x - mf.a) / (mf.b - mf.a), out)
        if mf.d > mf.c:
            out = np.where((x > mf.c) & (x < mf.d), (mf.d - x) / (mf.d - mf.c), out)
        return out
    if mf.b > mf.a:
        out = np.where((x > mf.a) & (x < mf.b), (x - mf.a) / (mf.b - mf.a), out)
    if mf.c > mf.b:
        out = np.where((x > mf.b) & (x < mf.c), (mf.c - x) / (mf.c - mf.b), out)
    return np.where(x == mf.b, 1.0, out)


def fuzzify_oracle(var, x):
    """`LinguisticVariable.fuzzify` as one `evaluate` per MF, stacked (test oracle)."""
    cx = var.clip(np.asarray(x, dtype=float))
    return np.stack([evaluate_oracle(mf, cx) for mf in var.mfs], axis=-1)


# knots drawn from a coarse lattice often coincide, giving degenerate ramps
_unit = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))
_width = st.floats(1e-3, 2.0)
MF_STRATEGIES = {
    "gaussian": st.builds(GaussianMF, _unit, _width),
    "gbell": st.builds(
        GBellMF, _width, st.one_of(st.just(2.0), st.sampled_from([0.5, 1.0, 3.0]), st.floats(0.1, 6.0)), _unit
    ),
    "trapezoid": st.lists(_unit, min_size=4, max_size=4).map(lambda k: TrapezoidMF(*sorted(k))),
    "triangle": st.lists(_unit, min_size=3, max_size=3).map(lambda k: TriangleMF(*sorted(k))),
}


@st.composite
def variables(draw):
    """A variable on [0, 1] with MFs of one shape, or of several shapes mixed."""
    shapes = draw(st.one_of(
        st.sampled_from(SHAPES).map(lambda s: [s]),
        st.lists(st.sampled_from(SHAPES), min_size=2, max_size=4, unique=True),
    ))
    mfs = draw(st.lists(st.one_of(*(MF_STRATEGIES[s] for s in shapes)), min_size=1, max_size=5))
    return LinguisticVariable("v", 0.0, 1.0, mfs)


@st.composite
def fuzzify_inputs(draw, var):
    """A scalar, one row or 900 rows, with some points exactly at the knots and a nan."""
    knots = [float(p) for mf in var.mfs for p in mf.params]
    point = st.one_of(st.sampled_from(knots), st.floats(-0.5, 1.5), st.just(float("nan")))
    kind = draw(st.sampled_from(["scalar", "one-row", "900-row"]))
    if kind == "scalar":
        return draw(point)
    if kind == "one-row":
        return np.array([draw(point)])
    x = np.random.default_rng(draw(st.integers(0, 2**16))).uniform(-0.2, 1.2, size=900)
    x[: len(knots) + 1] = knots + [float("nan")]
    return x


class TestShapeKernels:
    """`fuzzify` (one kernel call per shape) and `evaluate` against the per-MF code they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_fuzzify_matches_stacked_evaluate(self, data):
        var = data.draw(variables())
        x_raw = data.draw(fuzzify_inputs(var))
        if np.isnan(x_raw).any():
            with pytest.raises(ValueError, match="'v'"):
                var.fuzzify(x_raw)
        # fuzzify sees the nan replaced; the kernels below still take it
        x = np.where(np.isnan(x_raw), 0.5, x_raw)
        with np.errstate(over="ignore"):  # a subnormal ramp width overflows in both
            got, want = var.fuzzify(x), fuzzify_oracle(var, x)
        assert got.shape == want.shape == np.shape(x) + (var.n_mfs,)
        assert got.flags.c_contiguous
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        cx = var.clip(np.asarray(x_raw, dtype=float))
        for mf in var.mfs:
            with np.errstate(over="ignore"):
                one, ref = mf.evaluate(cx), evaluate_oracle(mf, cx)
            assert np.shape(one) == np.shape(ref)
            assert np.array_equal(one, ref, equal_nan=True)
            assert np.array_equal(np.signbit(one), np.signbit(ref))

    @pytest.mark.parametrize("b", [2.0, 2.5, 0.7])
    def test_gbell_exponent_per_mf(self, b):
        # several bells on one variable, so each row of the kernel carries its own exponent
        mfs = [GBellMF(0.1 + 0.05 * k, b + k, 0.2 * k) for k in range(5)]
        var = LinguisticVariable("v", 0.0, 1.0, mfs)
        x = np.random.default_rng(1).uniform(0, 1, size=900)
        assert np.array_equal(var.fuzzify(x), fuzzify_oracle(var, x))

    def test_scalar_and_negative_zero(self):
        # a scalar takes numpy's scalar power, as `evaluate` does (its array power differs
        # in the last bit at 0.55); a ramp of -0.0 leaves the kernel as the masks' 0.0
        var = LinguisticVariable("v", 0.0, 1.0, [GBellMF(0.3, 2.7, 0.1), TriangleMF(0.0, 0.5, 1.0)])
        for x in (0.55, -0.0, np.full(20, -0.0)):
            got, want = var.fuzzify(x), fuzzify_oracle(var, x)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_degenerate_knots_at_the_knots(self):
        mfs = [TriangleMF(0.0, 0.0, 0.5), TriangleMF(0.5, 1.0, 1.0), TriangleMF(0.5, 0.5, 0.5),
               TrapezoidMF(0.0, 0.0, 0.5, 0.5), TrapezoidMF(0.25, 0.5, 0.5, 0.75)]
        var = LinguisticVariable("v", 0.0, 1.0, mfs)
        x = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 0.1, 0.6])
        with np.errstate(all="raise"):  # no 0/0 escapes the kernels as a warning
            got = var.fuzzify(x)
        assert np.array_equal(got, fuzzify_oracle(var, x))
        assert got[2].tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]


def triangle_gradient_oracle(mf, x):
    """The triangle's own ramp-mask gradient, before it became a trapezoid with b == c (test oracle)."""
    x = np.asarray(x, dtype=float)
    zeros = np.zeros(np.shape(x))
    da, db, dc = zeros.copy(), zeros.copy(), zeros.copy()
    if mf.b > mf.a:
        r = (x > mf.a) & (x <= mf.b)
        w = (mf.b - mf.a) ** 2
        da = np.where(r, (x - mf.b) / w, da)
        db = np.where(r, -(x - mf.a) / w, db)
    if mf.c > mf.b:
        f = (x > mf.b) & (x <= mf.c)
        w = (mf.c - mf.b) ** 2
        db = np.where(f, (mf.c - x) / w, db)
        dc = np.where(f, (x - mf.b) / w, dc)
    return np.stack([da, db, dc], axis=-1)


class TestTriangleIsTrapezoid:
    """`TriangleMF` evaluates and differentiates as the trapezoid with b == c, bit for bit."""

    @staticmethod
    def _bits(a):
        return np.asarray(a, dtype=float).view(np.uint64)

    def test_matches_own_mask_code(self):
        rng = np.random.default_rng(5)
        lattice = [0.0, 0.25, 0.5, 1.0]
        shapes = [(0.0, 2.0, 3.0), (0.0, 0.0, 1.0), (0.0, 1.0, 1.0), (0.5, 0.5, 0.5)]
        shapes += [tuple(np.sort(rng.choice(lattice, 3))) for _ in range(200)]
        shapes += [tuple(np.sort(rng.uniform(-2, 2, 3))) for _ in range(800)]
        for a, b, c in shapes:
            mf = TriangleMF(a, b, c)
            knots = np.array(mf.params)
            # each knot, one ulp either side, the smallest subnormals (whose ramp
            # terms underflow to a signed zero), both infinities and nan
            x = np.concatenate([
                knots, np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf),
                [5e-324, -5e-324, 0.0, -0.0, np.inf, -np.inf, np.nan], rng.uniform(-3, 3, 20),
            ])
            for pts in (x, *x[:3]):  # the batch, and each knot as a scalar
                with np.errstate(invalid="ignore"):
                    got, want = mf.gradient(pts), triangle_gradient_oracle(mf, pts)
                    deg, deg_want = TriangleMF.degrees(pts, a, b, c), evaluate_oracle(mf, pts)
                assert np.shape(got) == np.shape(want)
                assert np.array_equal(self._bits(got), self._bits(want))
                assert np.array_equal(self._bits(deg), self._bits(deg_want))


class TestEvaluation:
    def test_gaussian_center(self):
        assert GaussianMF(5.0, 2.0).evaluate(5.0) == 1.0

    def test_triangle_ramp_midpoint(self):
        assert TriangleMF(0.0, 1.0, 2.0).evaluate(0.5) == 0.5

    def test_gbell_center(self):
        assert GBellMF(2.0, 4.0, 6.0).evaluate(6.0) == 1.0

    def test_trapezoid_plateau_and_ramps(self):
        mf = TrapezoidMF(0.0, 1.0, 2.0, 4.0)
        assert mf.evaluate(1.5) == 1.0
        assert mf.evaluate(0.5) == 0.5
        assert mf.evaluate(3.0) == 0.5
        assert mf.evaluate(-1.0) == 0.0
        assert mf.evaluate(5.0) == 0.0

    def test_range_invariant_random_draws(self):
        rng = np.random.default_rng(0)
        for shape in SHAPES:
            for _ in range(2500):
                mf = random_mf(shape, rng)
                v = float(mf.evaluate(rng.uniform(-10, 10)))
                assert 0.0 <= v <= 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            GaussianMF(0.0, 0.0)
        with pytest.raises(ValueError):
            GBellMF(-1.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            TrapezoidMF(0.0, 2.0, 1.0, 3.0)
        with pytest.raises(ValueError):
            TriangleMF(1.0, 0.0, 2.0)

    @pytest.mark.parametrize("make", [
        lambda nan: GaussianMF(0.5, nan),
        lambda nan: GBellMF(nan, 2.0, 0.5),
        lambda nan: GBellMF(0.2, nan, 0.5),
        lambda nan: GaussianMF.project([0.5, nan], 0.0, 1.0),
        lambda nan: GBellMF.project([nan, 2.0, 0.5], 0.0, 1.0),
        lambda nan: GBellMF.project([0.2, nan, 0.5], 0.0, 1.0),
    ], ids=["gaussian-sigma", "gbell-a", "gbell-b",
            "project-gaussian-sigma", "project-gbell-a", "project-gbell-b"])
    def test_nan_width_rejected(self, make):
        with pytest.raises(ValueError):
            make(float("nan"))


class TestGradients:
    def test_gaussian_center_symmetry(self):
        grad = GaussianMF(3.0, 1.5).gradient(3.0)
        assert grad[0] == 0.0

    def test_gaussian_matches_finite_difference(self):
        mf = GaussianMF(5.0, 2.0)
        np.testing.assert_allclose(
            mf.gradient(6.0), finite_difference_grad(mf, 6.0), rtol=1e-5
        )

    def test_triangle_endpoint_left_sided(self):
        # at the left support endpoint the derivative from the left is zero
        grad = TriangleMF(0.0, 1.0, 2.0).gradient(0.0)
        assert np.all(np.isfinite(grad))
        np.testing.assert_array_equal(grad, [0.0, 0.0, 0.0])
        # at the peak the left-sided (rising) branch applies
        peak = TriangleMF(0.0, 1.0, 2.0).gradient(1.0)
        assert peak[1] == pytest.approx(-1.0)

    def test_all_shapes_match_finite_difference(self):
        rng = np.random.default_rng(1)
        for shape in SHAPES:
            checked = 0
            while checked < 1000:
                mf = random_mf(shape, rng)
                x = rng.uniform(-4, 4)
                if shape in ("trapezoid", "triangle"):
                    # stay away from kinks where one-sided values differ
                    if min(abs(x - p) for p in mf.params) < 1e-3:
                        continue
                if shape == "gbell" and abs(x - mf.center) < 1e-3:
                    continue
                analytic = mf.gradient(x)
                numeric = finite_difference_grad(mf, x)
                scale = max(np.abs(numeric).max(), 1e-8)
                assert np.abs(analytic - numeric).max() <= 1e-4 * max(scale, 1.0)
                checked += 1

    def test_center_gradient_is_translation_derivative(self):
        rng = np.random.default_rng(2)
        h = 1e-6
        for shape in SHAPES:
            for _ in range(200):
                mf = random_mf(shape, rng)
                x = rng.uniform(-4, 4)
                if shape in ("trapezoid", "triangle") and min(
                    abs(x - p) for p in mf.params
                ) < 1e-3:
                    continue
                numeric = (
                    float(mf.translate(h).evaluate(x)) - float(mf.translate(-h).evaluate(x))
                ) / (2 * h)
                assert float(mf.center_gradient(x)) == pytest.approx(numeric, abs=2e-4)


class TestShapeLocation:
    """`location` and the base-class `translate`, `center_gradient` and
    `project` against the per-shape code they replaced."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_translate_and_center_gradient_match_oracles(self, shape):
        rng = np.random.default_rng(3)
        degenerate = [TriangleMF(0.2, 0.2, 0.2), TriangleMF(0.0, 0.0, 1.0), TrapezoidMF(0, 0, 1, 1)]
        mfs = [random_mf(shape, rng) for _ in range(300)]
        mfs += [mf for mf in degenerate if mf.shape == shape]
        for mf in mfs:
            delta = rng.uniform(-2, 2)
            assert mf.translate(delta).params == translate_oracle(mf, delta).params
            # random points plus every knot, where the one-sided branches meet
            x = np.concatenate([rng.uniform(-4, 4, size=40), mf.params])
            assert np.array_equal(mf.center_gradient(x), center_gradient_oracle(mf, x))
            assert np.array_equal(mf.center_gradient(x[0]), center_gradient_oracle(mf, x[0]))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_project_matches_oracle(self, shape):
        rng = np.random.default_rng(4)
        cls = MF_SHAPES[shape]
        for _ in range(500):
            lo = rng.uniform(-2, 1)
            hi = lo + rng.uniform(0.1, 3)
            # negative widths, unordered knots and centers outside [lo, hi]
            raw = rng.uniform(lo - 2, hi + 2, size=len(cls.__slots__))
            before = raw.copy()
            want = cls(*project_params_oracle(shape, raw, lo, hi))
            assert cls.project(raw, lo, hi).params == want.params
            np.testing.assert_array_equal(raw, before)


class TestLinguisticVariable:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinguisticVariable("v", 1.0, 0.0, [GaussianMF(0.5, 1.0)])
        with pytest.raises(ValueError):
            LinguisticVariable("v", 0.0, 1.0, [])
        with pytest.raises(ValueError):
            LinguisticVariable("v", 0.0, 1.0, [GaussianMF(2.0, 1.0)])

    def test_uniform_initializer_crossings(self):
        # adjacent MFs intersect near degree 0.5 at grid midpoints
        for shape in SHAPES:
            var = LinguisticVariable.uniform("v", 0.0, 1.0, 3, shape=shape)
            mid = 0.25  # midpoint between centers 0.0 and 0.5
            a = float(var.mfs[0].evaluate(mid))
            b = float(var.mfs[1].evaluate(mid))
            assert a == pytest.approx(0.5, abs=0.01)
            assert b == pytest.approx(0.5, abs=0.01)

    def test_fuzzify_clips_out_of_range(self):
        var = LinguisticVariable.uniform("v", 0.0, 1.0, 3)
        np.testing.assert_array_equal(var.fuzzify(-5.0), var.fuzzify(0.0))
        np.testing.assert_array_equal(var.fuzzify(7.0), var.fuzzify(1.0))

    def test_json_roundtrip(self):
        var = LinguisticVariable.uniform("fuel", 0.0, 1000.0, 3, shape="gbell")
        blob = json.dumps(var.to_dict())
        back = LinguisticVariable.from_dict(json.loads(blob))
        assert back.name == var.name
        for mf, mf2 in zip(var.mfs, back.mfs):
            assert mf.params == mf2.params


class TestGridPartition:
    def test_four_by_three_gives_81(self):
        variables = [LinguisticVariable.uniform(f"v{i}", 0, 1, 3) for i in range(4)]
        assert len(grid_partition(variables)) == 81

    def test_three_squared(self):
        variables = [LinguisticVariable.uniform(f"v{i}", 0, 1, 3) for i in range(2)]
        rules = grid_partition(variables)
        assert len(rules) == 9
        assert rules[0] == (0, 0)
        assert rules[-1] == (2, 2)

    def test_single(self):
        assert grid_partition([LinguisticVariable.uniform("v", 0, 1, 1)]) == [(0,)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            grid_partition([])

    def test_size_is_product_of_counts(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            counts = rng.integers(1, 5, size=int(rng.integers(1, 4)))
            variables = [
                LinguisticVariable.uniform(f"v{i}", 0, 1, int(c)) for i, c in enumerate(counts)
            ]
            assert len(grid_partition(variables)) == int(np.prod(counts))


class TestFiringStrength:
    def _vars(self):
        return [LinguisticVariable.uniform(f"v{i}", 0.0, 1.0, 3, shape="triangle") for i in range(2)]

    def test_product_identity(self):
        variables = self._vars()
        # both inputs at MF centers: degrees (1, 1)
        assert firing_strengths(variables, [0.5, 0.5])[(1, 1)] == 1.0

    def test_annihilator(self):
        variables = self._vars()
        assert firing_strengths(variables, [1.0, 0.5])[(0, 0)] == 0.0

    def test_arithmetic(self):
        v = LinguisticVariable("v", 0.0, 1.0, [TriangleMF(0.0, 0.5, 1.0)])
        w = LinguisticVariable("w", 0.0, 1.0, [TriangleMF(0.0, 0.5, 1.0)])
        # degrees 0.8 and 0.2 multiply to 0.16
        got = firing_strengths([v, w], [0.4, 0.1])[(0, 0)]
        assert got == pytest.approx(0.16, abs=1e-12)

    def test_monotone_in_member_degree(self):
        variables = self._vars()
        x = [0.3, 0.6]
        base = firing_strengths(variables, x)[(1, 1)]
        # moving one coordinate away from its MF center lowers that degree only
        assert firing_strengths(variables, [0.2, 0.6])[(1, 1)] <= base


class TestMamdaniInference:
    def _model(self, rules, output_mfs=None, n_inputs=1):
        inputs = [
            LinguisticVariable.uniform(f"x{i}", 0.0, 1.0, 3, shape="triangle")
            for i in range(n_inputs)
        ]
        if output_mfs is None:
            output = LinguisticVariable.uniform("y", 0.0, 1.0, 3, shape="triangle")
        else:
            output = LinguisticVariable("y", 0.0, 1.0, output_mfs)
        return MamdaniModel(inputs=inputs, output=output, rules=rules)

    def test_single_rule_symmetric_consequent(self):
        output = [TriangleMF(0.4, 0.6, 0.8)]
        model = self._model([MamdaniRule((1,), 0, 1.0)], output_mfs=output)
        out, fired = model.infer_batch([[0.5]])  # center of middle MF: activation 1
        assert fired[0]
        assert out[0] == pytest.approx(0.6, abs=1e-9)

    def test_no_rule_fires_returns_midpoint_with_flag(self):
        # triangle MFs leave x=1.0 uncovered by the first MF
        model = self._model([MamdaniRule((0,), 0, 1.0)])
        out, fired = model.infer_batch([[1.0]])
        assert not fired[0]
        assert out[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected_naming_variable(self, bad):
        # a nan degree of 0 would fire no rule and score the midpoint without a word
        model = self._model([MamdaniRule((0, 1), 0, 1.0)], n_inputs=2)
        with pytest.raises(ValueError, match="'x1'.*non-finite"):
            model.infer_batch([[0.5, bad]])

    def test_two_symmetric_consequents_balance(self):
        output = [TriangleMF(0.1, 0.2, 0.3), TriangleMF(0.7, 0.8, 0.9)]
        rules = [MamdaniRule((1,), 0, 1.0), MamdaniRule((1,), 1, 1.0)]
        model = self._model(rules, output_mfs=output)
        out, _ = model.infer_batch([[0.5]])
        assert out[0] == pytest.approx(0.5, abs=1e-3)

    def test_output_stays_in_range(self):
        rng = np.random.default_rng(4)
        inputs = [LinguisticVariable.uniform(f"x{i}", 0.0, 1.0, 3) for i in range(2)]
        output = LinguisticVariable.uniform("y", 0.0, 1.0, 3, shape="triangle")
        rules = [
            MamdaniRule(ant, int(rng.integers(0, 3)), float(rng.uniform(0.2, 1)))
            for ant in grid_partition(inputs)
        ]
        model = MamdaniModel(inputs=inputs, output=output, rules=rules)
        out, _ = model.infer_batch(rng.uniform(0, 1, size=(300, 2)))
        assert np.all((0.0 <= out) & (out <= 1.0))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        inputs = [LinguisticVariable.uniform(f"x{i}", 0.0, 1.0, 3, shape="triangle") for i in range(2)]
        output = LinguisticVariable.uniform("y", 0.0, 1.0, 3, shape="triangle")
        rules = [
            MamdaniRule(ant, int(rng.integers(0, 3)), float(rng.uniform(0.2, 1)))
            for ant in grid_partition(inputs)
        ]
        model = MamdaniModel(inputs=inputs, output=output, rules=rules)
        X = rng.uniform(0, 1, size=(50, 2))
        batch, fired = model.infer_batch(X)
        for i in range(X.shape[0]):
            output, single_fired = reference_infer(model, X[i])
            assert fired[i] == single_fired
            assert batch[i] == pytest.approx(output, abs=1e-12)

    def test_model_json_roundtrip(self):
        inputs = [LinguisticVariable.uniform("x", 0.0, 1.0, 2, shape="gaussian")]
        output = LinguisticVariable.uniform("y", 0.0, 1.0, 2, shape="triangle")
        rules = [MamdaniRule((0,), 1, 0.5), MamdaniRule((1,), 0, 0.25)]
        model = MamdaniModel(inputs=inputs, output=output, rules=rules)
        back = MamdaniModel.from_dict(json.loads(json.dumps(model.to_dict())))
        assert back.rules == model.rules
        x = [[0.3]]
        assert back.infer_batch(x)[0][0] == model.infer_batch(x)[0][0]


class TestMamdaniSetUp:
    """The output grid, output sets and rule columns are built once per model."""

    def test_cached_sets_equal_fresh_evaluation(self):
        output = LinguisticVariable("y", 0.0, 1.0, [
            TriangleMF(0.0, 0.0, 0.5), GaussianMF(0.5, 0.2), TrapezoidMF(0.4, 0.6, 0.8, 1.0),
        ])
        inputs = [LinguisticVariable.uniform("x", 0.0, 1.0, 3, shape="triangle")]
        rules = [MamdaniRule((0,), 2), MamdaniRule((1,), 0), MamdaniRule((2,), 2)]
        model = MamdaniModel(inputs=inputs, output=output, rules=rules)
        grid = model.output_grid()
        assert np.array_equal(model.consequent_sets, np.stack([mf.evaluate(grid) for mf in output.mfs]))
        assert np.array_equal(model.consequent_sets, np.stack([evaluate_oracle(mf, grid) for mf in output.mfs]))
        assert model.consequent_sets.flags.c_contiguous
        assert not model.consequent_sets.flags.writeable
        assert [c.tolist() for c in model.consequent_rules] == [[1], [], [0, 2]]
        assert model.consequent_sets is model.consequent_sets

    def test_rule_indices_checked(self):
        inputs = [LinguisticVariable.uniform("x", 0.0, 1.0, 2, shape="triangle")]
        output = LinguisticVariable.uniform("y", 0.0, 1.0, 2, shape="triangle")
        for rule, message in [
            (MamdaniRule((2,), 0), "antecedent index 2 out of range for 'x'"),
            (MamdaniRule((0, 0), 0), "does not match input count 1"),
            (MamdaniRule((0,), 2), "consequent index 2 out of range"),
        ]:
            with pytest.raises(ValueError, match=message):
                MamdaniModel(inputs=inputs, output=output, rules=[MamdaniRule((1,), 1), rule])


class TestBlockedAggregation:
    """`infer_batch` aggregates in row blocks; it must equal the dense oracle bit for bit."""

    @staticmethod
    def _model(rng, n_rules, consequents=(0, 1, 2)):
        inputs = [
            LinguisticVariable.uniform(f"x{i}", 0.0, 1.0, 3, shape="triangle") for i in range(4)
        ]
        output = LinguisticVariable.uniform("y", 0.0, 1.0, 3, shape="triangle")
        grid = grid_partition(inputs)
        picks = rng.choice(len(grid), size=n_rules, replace=False)
        rules = [
            MamdaniRule(grid[k], int(rng.choice(consequents)), float(rng.uniform(0.05, 1)))
            for k in sorted(picks)
        ]
        return MamdaniModel(inputs=inputs, output=output, rules=rules)

    @pytest.mark.parametrize(
        "rows", [1, AGGREGATION_BLOCK_ROWS - 1, AGGREGATION_BLOCK_ROWS + 1, 900]
    )
    def test_matches_dense_oracle(self, rows):
        rng = np.random.default_rng(rows)
        model = self._model(rng, 30)
        X = rng.uniform(0, 1, size=(rows, 4))
        out, fired = model.infer_batch(X)
        want, want_fired = dense_infer_batch(model, X)
        assert np.array_equal(out, want)
        assert np.array_equal(fired, want_fired)

    def test_unused_consequent_and_unfired_rows(self):
        rng = np.random.default_rng(21)
        model = self._model(rng, 6, consequents=(0, 2))  # output MF 1 has no rule
        X = rng.uniform(0, 1, size=(AGGREGATION_BLOCK_ROWS + 40, 4))
        out, fired = model.infer_batch(X)
        want, want_fired = dense_infer_batch(model, X)
        assert 0 < fired.sum() < fired.size  # some rows fire no rule
        assert np.array_equal(out, want)
        assert np.array_equal(fired, want_fired)

    def test_empty_rule_list(self):
        model = self._model(np.random.default_rng(22), 0)
        X = np.random.default_rng(23).uniform(0, 1, size=(AGGREGATION_BLOCK_ROWS + 1, 4))
        out, fired = model.infer_batch(X)
        want, want_fired = dense_infer_batch(model, X)
        assert not fired.any()
        assert np.array_equal(out, want)
        assert np.array_equal(fired, want_fired)


class TestRuleKernels:
    """`rule_strengths` and `strength_backprop` against per-rule loops, bit for bit."""

    @staticmethod
    def _case(X, n_mfs=(3, 2, 2)):
        """Triangle degrees of X, the grid antecedent table and a random coef."""
        variables = [
            LinguisticVariable.uniform(f"x{v}", 0.0, 1.0, m, shape="triangle")
            for v, m in enumerate(n_mfs)
        ]
        memberships = [var.fuzzify(X[:, v]) for v, var in enumerate(variables)]
        antecedents = np.array(grid_partition(variables))
        coef = np.random.default_rng(31).normal(size=(X.shape[0], antecedents.shape[0]))
        return memberships, antecedents, coef

    @staticmethod
    def _assert_matches(memberships, antecedents, coef, start):
        before = start.copy()
        got = rule_strengths(memberships, antecedents, start)
        assert np.array_equal(got, reference_strengths(memberships, antecedents, start))
        grads = strength_backprop(memberships, antecedents, coef, start)
        want = reference_backprop(memberships, antecedents, coef, start)
        assert len(grads) == len(want)
        for g, w in zip(grads, want):
            assert np.array_equal(g, w)
        assert np.array_equal(start, before)  # start is read, never written
        return got, grads

    def test_zero_degree_never_divides(self):
        # x0 = 0.9 lies outside the support of the first triangle of input 0
        X = np.array([[0.9, 0.3, 0.6], [0.2, 0.5, 1.0], [0.45, 0.0, 0.75]])
        memberships, antecedents, coef = self._case(X)
        assert memberships[0][0, 0] == 0.0
        got, grads = self._assert_matches(memberships, antecedents, coef, np.ones(coef.shape))
        assert np.all(got[0, antecedents[:, 0] == 0] == 0.0)
        # the rules using that MF still pass the other inputs' degrees back to it
        assert np.all(np.isfinite(grads[0])) and grads[0][0, 0] != 0.0

    def test_empty_rule_list(self):
        X = np.random.default_rng(32).uniform(0, 1, size=(5, 3))
        memberships, _, _ = self._case(X)
        antecedents = np.zeros((0, 3), dtype=int)
        no_rules = np.zeros((5, 0))
        got, grads = self._assert_matches(memberships, antecedents, no_rules, no_rules + 1.0)
        assert got.shape == (5, 0)
        assert [g.shape for g in grads] == [(3, 5), (2, 5), (2, 5)]
        assert not any(g.any() for g in grads)

    def test_weighted_start(self):
        rng = np.random.default_rng(33)
        X = rng.uniform(-0.1, 1.1, size=(40, 3))
        memberships, antecedents, coef = self._case(X)
        weights = rng.uniform(0.05, 1.0, size=antecedents.shape[0])
        self._assert_matches(memberships, antecedents, coef, np.tile(weights, (40, 1)))


def _one_row_models(shape, seed):
    rng = np.random.default_rng(seed)
    inputs = [LinguisticVariable.uniform(f"x{i}", 0.0, 1.0, 3, shape=shape) for i in range(2)]
    output = LinguisticVariable.uniform("y", 0.0, 1.0, 3, shape="triangle")
    rules = [
        MamdaniRule(ant, int(rng.integers(0, 3)), float(rng.uniform(0.1, 1.0)))
        for ant in grid_partition(inputs)
    ]
    anfis = AnfisModel.grid(inputs, rng.normal(size=(9, 3)))
    return anfis, MamdaniModel(inputs=inputs, output=output, rules=rules)


class TestOneRowMatchesBatch:
    """A one-row call gives its row of the batch call.

    The rows agree up to the summation order of the final matrix product,
    which adds a lone row's terms in another order than a row of a larger
    product.  A dot product of n terms is within n * eps of the exact value,
    relative to the sum of the terms' magnitudes, so two orders are within
    2 * n * eps of each other.
    """

    EPS = np.finfo(float).eps

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        seed=st.integers(0, 2**16),
        X=arrays(float, st.tuples(st.integers(1, 30), st.just(2)),
                 elements=st.floats(-0.25, 1.25)),
    )
    def test_anfis_and_mamdani(self, shape, seed, X):
        anfis, mamdani = _one_row_models(shape, seed)
        y, trace = forward_batch(anfis, X)
        terms = np.abs(trace.regressors) @ np.abs(anfis.consequents.ravel())
        n = trace.regressors.shape[1]
        out, fired = mamdani.infer_batch(X)
        for i in range(X.shape[0]):
            row = X[i : i + 1]
            assert abs(forward_batch(anfis, row)[0][0] - y[i]) <= 2 * n * self.EPS * terms[i]
            one, one_fired = mamdani.infer_batch(row)
            assert one_fired[0] == fired[i]
            # the centroid's numerator and denominator each sum 201 non-negative terms
            tol = 2 * 2 * OUTPUT_GRID_POINTS * self.EPS * abs(out[i])
            assert abs(one[0] - out[i]) <= tol
