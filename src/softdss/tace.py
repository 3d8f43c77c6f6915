"""Tactical air-combat decision dataset.

The domain scores a four-factor situation (fuel in litres, intercept time in
minutes, weapon status in percent, danger in points) with a 0..10 decision
value.  Eleven expert anchor rows pin the relationship; the generator draws a
latent advantage t ~ U[0, 10], interpolates every factor column at t, adds a
small uniform jitter to the inputs only, and keeps score = t so the target
stays exactly anchored.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .report import write_csv

FIELDS = ("fuel", "intercept_time", "weapon", "danger")
FIELD_RANGES = ((0.0, 1000.0), (0.0, 60.0), (0.0, 100.0), (0.0, 10.0))
SCORE_RANGE = (0.0, 10.0)
JITTER_FRACTION = 0.02

CSV_HEADER = ("fuel", "intercept_time", "weapon", "danger", "score")

# expert anchors: one row per integer decision score 0..10
_ANCHOR_SCORE = np.arange(11, dtype=float)
_ANCHOR_COLUMNS = np.array(
    [
        [0, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000],  # fuel
        [60, 55, 50, 40, 35, 30, 25, 15, 10, 5, 1],              # intercept time
        [0, 15, 25, 30, 40, 60, 70, 85, 90, 96, 100],            # weapon status
        [10, 8, 7, 5, 4.5, 4, 3, 2, 1.5, 1, 0],                  # danger situation
    ],
    dtype=float,
)


class Sample(NamedTuple):
    fuel: float
    intercept_time: float
    weapon: float
    danger: float
    score: float


@dataclass
class Dataset:
    """Input matrix (n x 4), score vector (n,), plus provenance."""

    x: np.ndarray
    y: np.ndarray
    seed: int | None = None
    normalized: bool = False

    def __len__(self) -> int:
        return self.x.shape[0]


def anchor_table() -> list[Sample]:
    """The eleven expert anchor rows, score 0 through 10."""
    return [
        Sample(*_ANCHOR_COLUMNS[:, i], float(_ANCHOR_SCORE[i]))
        for i in range(_ANCHOR_SCORE.shape[0])
    ]


def interpolate_inputs(t) -> np.ndarray:
    """Piecewise-linear interpolation of each factor column at latent score t."""
    t = np.asarray(t, dtype=float)
    return np.column_stack([np.interp(t, _ANCHOR_SCORE, col) for col in _ANCHOR_COLUMNS])


def generate(seed: int, n: int, jitter: bool = True) -> Dataset:
    """Seeded dataset of n samples consistent with the anchor table.

    Jitter (if on) perturbs each input by up to +/-2% of its field range and
    clips back into range; the score is never jittered so the target function
    stays well defined.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 10.0, size=n)
    x = interpolate_inputs(t)
    if jitter:
        for j, (lo, hi) in enumerate(FIELD_RANGES):
            x[:, j] += rng.uniform(-1.0, 1.0, size=n) * JITTER_FRACTION * (hi - lo)
            np.clip(x[:, j], lo, hi, out=x[:, j])
    return Dataset(x=x, y=t.copy(), seed=seed)


def anchors_dataset() -> Dataset:
    """The anchor table itself as a Dataset (11 rows, no jitter)."""
    return Dataset(x=_ANCHOR_COLUMNS.T.copy(), y=_ANCHOR_SCORE.copy(), seed=None)


def train_rows(n: int, train_fraction: float) -> int:
    """The training rows `split` keeps of n: round(n * train_fraction).

    A ValueError when that leaves no training row or no test row.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n_train = int(round(n * train_fraction))
    if not 0 < n_train < n:
        raise ValueError(f"train_fraction {train_fraction} of {n} rows leaves {n_train} "
                         f"training and {n - n_train} test rows; each side needs at least one")
    return n_train


def split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded uniform shuffle followed by a prefix split of `train_rows` training rows."""
    n = len(dataset)
    n_train = train_rows(n, train_fraction)
    perm = np.random.default_rng(seed).permutation(n)
    tr, te = perm[:n_train], perm[n_train:]
    make = lambda idx: Dataset(
        dataset.x[idx].copy(), dataset.y[idx].copy(), dataset.seed, dataset.normalized
    )
    return make(tr), make(te)


def normalize(dataset: Dataset) -> Dataset:
    """Affine map of every field onto [0, 1] using the declared physical ranges."""
    if dataset.normalized:
        return dataset
    x = dataset.x.copy()
    for j, (lo, hi) in enumerate(FIELD_RANGES):
        x[:, j] = (x[:, j] - lo) / (hi - lo)
    lo, hi = SCORE_RANGE
    y = (dataset.y - lo) / (hi - lo)
    return Dataset(x, y, dataset.seed, normalized=True)


def denormalize(dataset: Dataset) -> Dataset:
    """Inverse of normalize; roundtrips to within float round-off."""
    if not dataset.normalized:
        return dataset
    x = dataset.x.copy()
    for j, (lo, hi) in enumerate(FIELD_RANGES):
        x[:, j] = x[:, j] * (hi - lo) + lo
    lo, hi = SCORE_RANGE
    y = dataset.y * (hi - lo) + lo
    return Dataset(x, y, dataset.seed, normalized=False)


def normalize_inputs(x, ranges=FIELD_RANGES) -> np.ndarray:
    """Physical input row(s) -> [0, 1] coordinates of the given (lo, hi) field ranges.

    `ranges` holds one (lo, hi) pair per column: pairs, or a (d, 2) float array that a
    caller scoring many rows builds once.  ValueError for rows that are not d wide.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    lo, hi = np.asarray(ranges, dtype=float).T
    if x.ndim != 2 or x.shape[1] != lo.shape[0]:
        raise ValueError(f"expected (rows, {lo.shape[0]}) inputs, got shape {x.shape}")
    return (x - lo) / (hi - lo)


def denormalize_score(y):
    """[0, 1] model output -> physical 0..10 decision score."""
    lo, hi = SCORE_RANGE
    return np.asarray(y) * (hi - lo) + lo


def save_csv(dataset: Dataset, path) -> None:
    data = denormalize(dataset) if dataset.normalized else dataset
    write_csv(path, CSV_HEADER, ([repr(float(v)) for v in [*row, score]]
                                 for row, score in zip(data.x, data.y)))


def load_csv(path) -> Dataset:
    """The dataset a `save_csv` file holds; a ValueError names the line and field of a value
    that is not a finite number inside its `FIELD_RANGES` or `SCORE_RANGE` range."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1:
                if tuple(h.strip() for h in row) != CSV_HEADER:
                    raise ValueError(f"{path}: line 1: expected header {','.join(CSV_HEADER)}")
                continue
            if not row:
                continue
            if len(row) != 5:
                raise ValueError(f"{path}: line {lineno}: expected 5 columns, got {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric value") from None
            for name, value, (lo, hi) in zip(CSV_HEADER, values, (*FIELD_RANGES, SCORE_RANGE)):
                if not math.isfinite(value):
                    raise ValueError(f"{path}: line {lineno}: {name} is not finite ({value!r})")
                if not lo <= value <= hi:
                    raise ValueError(
                        f"{path}: line {lineno}: {name}={value:g} outside [{lo:g}, {hi:g}]")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    arr = np.array(rows)
    return Dataset(x=arr[:, :4], y=arr[:, 4], seed=None)
