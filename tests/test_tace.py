"""Dataset regeneration: anchors, monotonicity, splits, normalization, CSV."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from softdss import tace


EXPECTED_ANCHORS = [
    (0, 60, 0, 10, 0),
    (100, 55, 15, 8, 1),
    (200, 50, 25, 7, 2),
    (300, 40, 30, 5, 3),
    (400, 35, 40, 4.5, 4),
    (500, 30, 60, 4, 5),
    (600, 25, 70, 3, 6),
    (700, 15, 85, 2, 7),
    (800, 10, 90, 1.5, 8),
    (900, 5, 96, 1, 9),
    (1000, 1, 100, 0, 10),
]


class TestAnchorTable:
    def test_eleven_rows(self):
        table = tace.anchor_table()
        assert len(table) == 11
        for row, expected in zip(table, EXPECTED_ANCHORS):
            assert tuple(row) == pytest.approx(expected)

    def test_extreme_rows(self):
        table = tace.anchor_table()
        assert tuple(table[0]) == (0, 60, 0, 10, 0)
        assert tuple(table[5]) == (500, 30, 60, 4, 5)
        assert tuple(table[10]) == (1000, 1, 100, 0, 10)


class TestGenerate:
    def test_interpolator_reproduces_anchor(self):
        # latent t = 5.0 with no jitter lands exactly on anchor row 5
        row = tace.interpolate_inputs([5.0])[0]
        np.testing.assert_array_equal(row, [500, 30, 60, 4])

    def test_interpolator_reproduces_all_anchors(self):
        grid = tace.interpolate_inputs(np.arange(11.0))
        expected = np.array(EXPECTED_ANCHORS)[:, :4]
        np.testing.assert_array_equal(grid, expected)

    def test_requested_size(self):
        assert len(tace.generate(1, 1000)) == 1000

    def test_samples_within_ranges(self):
        data = tace.generate(9, 2000)
        for j, (lo, hi) in enumerate(tace.FIELD_RANGES):
            assert data.x[:, j].min() >= lo
            assert data.x[:, j].max() <= hi
        assert data.y.min() >= 0 and data.y.max() <= 10

    def test_monotonic_without_jitter(self):
        # brute-force scan: score ordering follows each factor's ordering
        data = tace.generate(3, 500, jitter=False)
        for j, increasing in ((0, True), (1, False), (2, True), (3, False)):
            order = np.argsort(data.x[:, j], kind="stable")
            scores = data.y[order]
            diffs = np.diff(scores)
            assert np.all(diffs >= -1e-12) if increasing else np.all(diffs <= 1e-12)

    def test_deterministic(self):
        a = tace.generate(5, 100)
        b = tace.generate(5, 100)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            tace.generate(1, 0)


class TestSplit:
    def test_ninety_ten(self):
        train, test = tace.split(tace.generate(1, 1000), 0.9, seed=1)
        assert (len(train), len(test)) == (900, 100)

    def test_eighty_twenty(self):
        train, test = tace.split(tace.generate(1, 1000), 0.8, seed=1)
        assert (len(train), len(test)) == (800, 200)

    def test_same_seed_same_split(self):
        data = tace.generate(2, 200)
        a_train, a_test = tace.split(data, 0.8, seed=9)
        b_train, b_test = tace.split(data, 0.8, seed=9)
        np.testing.assert_array_equal(a_train.x, b_train.x)
        np.testing.assert_array_equal(a_test.y, b_test.y)

    def test_disjoint_union(self):
        data = tace.generate(4, 50)
        train, test = tace.split(data, 0.7, seed=0)
        merged = np.vstack([train.x, test.x])
        assert merged.shape == data.x.shape
        # every original row appears exactly once
        original = {tuple(row) for row in data.x}
        recovered = {tuple(row) for row in merged}
        assert original == recovered

    def test_bad_fraction_rejected(self):
        data = tace.generate(1, 10)
        for frac in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                tace.split(data, frac, seed=1)

    @pytest.mark.parametrize("frac,train,test", [(0.98, 20, 0), (0.02, 0, 20)])
    def test_empty_side_rejected(self, frac, train, test):
        # 20 rows at 0.98 round to 20 training rows, at 0.02 to none
        message = (f"train_fraction {frac} of 20 rows leaves {train} training and {test} test "
                   "rows; each side needs at least one")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tace.split(tace.generate(1, 20), frac, seed=1)
        assert tace.train_rows(20, 0.96) == 19 and tace.train_rows(20, 0.04) == 1


class TestNormalization:
    def test_midpoint_and_endpoint(self):
        data = tace.Dataset(
            x=np.array([[500.0, 30.0, 50.0, 10.0]]), y=np.array([10.0]), seed=0
        )
        norm = tace.normalize(data)
        assert norm.x[0, 0] == 0.5
        assert norm.x[0, 3] == 1.0
        assert norm.y[0] == 1.0

    def test_roundtrip(self):
        data = tace.generate(6, 1000)
        back = tace.denormalize(tace.normalize(data))
        assert np.abs(back.x - data.x).max() < 1e-12
        assert np.abs(back.y - data.y).max() < 1e-12


def normalize_inputs_oracle(x, ranges=tace.FIELD_RANGES):
    """The per-column loop that `normalize_inputs`'s one broadcast replaced (test oracle)."""
    x = np.atleast_2d(np.asarray(x, dtype=float)).copy()
    for j, (lo, hi) in enumerate(ranges):
        x[:, j] = (x[:, j] - lo) / (hi - lo)
    return x


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def rows_and_ranges(draw):
    """(x, ranges): 1-5 rows of any floats, nan and inf too, and one finite lo < hi per column."""
    d = draw(st.integers(1, 6))
    ranges = []
    for _ in range(d):
        lo, hi = sorted(draw(st.lists(finite_floats, min_size=2, max_size=2, unique=True)))
        ranges.append((lo, hi))
    shape = draw(st.sampled_from([(d,), (draw(st.integers(1, 5)), d)]))
    return draw(arrays(np.float64, shape, elements=st.floats(width=64))), tuple(ranges)


class TestNormalizeInputs:
    @settings(max_examples=300, deadline=None)
    @given(case=rows_and_ranges(), as_array=st.booleans())
    def test_equals_the_per_column_loop_bit_for_bit(self, case, as_array):
        x, ranges = case
        with np.errstate(all="ignore"):  # a span past the float range, an inf minus an inf
            want = normalize_inputs_oracle(x, ranges)
            got = tace.normalize_inputs(x, np.array(ranges) if as_array else ranges)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_default_ranges_are_the_fields(self):
        got = tace.normalize_inputs([500, 30, 60, 4])
        assert got.tolist() == [[0.5, 0.5, 0.6, 0.4]]

    @pytest.mark.parametrize("x,shape", [
        (np.full((2, 5), 1.0), "(2, 5)"),   # the fifth column used to pass through as it was
        (np.full((2, 3), 1.0), "(2, 3)"),   # used to raise IndexError
        (np.full(3, 1.0), "(1, 3)"),
        (np.full((1, 1, 4), 1.0), "(1, 1, 4)"),
    ], ids=["five-columns", "three-columns", "three-values", "three-dims"])
    def test_width_mismatch_is_value_error(self, x, shape):
        with pytest.raises(ValueError, match=rf"^expected \(rows, 4\) inputs, got shape {re.escape(shape)}$"):
            tace.normalize_inputs(x)


class TestCsv:
    def test_roundtrip_exact(self, tmp_path):
        data = tace.generate(7, 123)
        path = tmp_path / "d.csv"
        tace.save_csv(data, path)
        back = tace.load_csv(path)
        np.testing.assert_array_equal(back.x, data.x)
        np.testing.assert_array_equal(back.y, data.y)

    def test_header_and_line_count(self, tmp_path):
        path = tmp_path / "d.csv"
        tace.save_csv(tace.generate(1, 10), path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "fuel,intercept_time,weapon,danger,score"
        assert len(lines) == 11

    def test_malformed_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("fuel,intercept_time,weapon,danger,score\n1,2,3\n")
        with pytest.raises(ValueError, match="line 2"):
            tace.load_csv(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "fuel,intercept_time,weapon,danger,score\n1,2,3,4,5\n1,2,x,4,5\n"
        )
        with pytest.raises(ValueError, match="line 3"):
            tace.load_csv(path)

    @pytest.mark.parametrize("row,message", [
        ("1,2,3,4,99", "score=99 outside [0, 10]"),
        ("1,2,3,4,-0.5", "score=-0.5 outside [0, 10]"),
        ("1000.5,2,3,4,5", "fuel=1000.5 outside [0, 1000]"),
        ("1,-1,3,4,5", "intercept_time=-1 outside [0, 60]"),
        ("1,2,101,4,5", "weapon=101 outside [0, 100]"),
        ("1,2,3,10.01,5", "danger=10.01 outside [0, 10]"),
    ])
    def test_out_of_range_reports_line_and_field(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"fuel,intercept_time,weapon,danger,score\n0,60,100,0,10\n{row}\n")
        with pytest.raises(ValueError, match=f"line 3: {re.escape(message)}$"):
            tace.load_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_reports_line_and_field(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"fuel,intercept_time,weapon,danger,score\n1,2,3,4,5\n1,2,{value},4,5\n"
        )
        with pytest.raises(ValueError, match="line 3: weapon is not finite"):
            tace.load_csv(path)
