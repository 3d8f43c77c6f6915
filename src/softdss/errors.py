"""Exception types and the data checks shared across the library."""

import math

import numpy as np


class SingularSystemError(RuntimeError):
    """A least-squares system is rank deficient and has no unique solution."""


class DegenerateCoverageError(RuntimeError):
    """No fuzzy rule fires for a sample, so normalized firing strengths are undefined."""


class TrainingDivergedError(RuntimeError):
    """A training loop's error exploded past the divergence guard."""

    def __init__(self, epoch: int, message: str | None = None):
        self.epoch = epoch
        super().__init__(message or f"training diverged at epoch {epoch}")


def is_finite_number(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)  # JSON true and false are not numbers


def json_typed(v, want: type, name: str):
    """v if it is a JSON object (`want` dict) or list (`want` list); else ValueError naming it."""
    if not isinstance(v, want):
        raise ValueError(f"{name} is {v!r}, not {'an object' if want is dict else 'a list'}")
    return v


def is_range(r) -> bool:
    """r is a [lo, hi] list or tuple of finite numbers with lo < hi and a finite span hi - lo,
    so that normalizing onto it cannot divide by inf."""
    return (isinstance(r, (list, tuple)) and len(r) == 2
            and all(map(is_finite_number, r)) and r[0] < r[1]
            and math.isfinite(float(r[1]) - float(r[0])))


def finite_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) as float arrays; ValueError naming the one that holds nan or inf,
    or both shapes when their row counts differ."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    for name, values in (("X", X), ("y", y)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} holds non-finite values")
    if X.shape[:1] != y.shape[:1]:
        raise ValueError(f"X has shape {X.shape} but y has shape {y.shape}: row counts differ")
    return X, y
