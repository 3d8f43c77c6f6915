"""Batch, ridge and recursive least-squares estimators.

All three solve min ||A x - y||^2.  `lse_batch` does it in one shot through
a numerically stable factorization and refuses a rank-deficient system.
`rls_update` goes one row at a time from an `RlsState` started at x = 0,
S = gamma * I; after the last row that estimate is exactly the ridge
solution (A^T A + I / gamma)^-1 A^T y, which `ridge_solve` computes in
closed form with one factorization of the regularized Gramian.  The gamma*I
start regularizes, so the ridge and recursive forms also answer singular
and underdetermined systems.  For a full-rank system and large gamma all
three agree to high precision, which the test suite checks explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError

DEFAULT_GAMMA = 1e6

# singular values below RCOND * sigma_max count as zero: cond(A) beyond 1e8
# means the normal-equations Gramian A^T A is singular in double precision
RCOND = 1e-8


def fails_rank_test(block) -> bool:
    """True when `block`, and so every matrix it is a column submatrix of, is rank deficient.

    `lse_batch` counts as rank the singular values above RCOND * sigma_max.
    Singular values interlace: a column submatrix B of A has
    sigma_min(B) >= sigma_min(A) and sigma_max(B) <= sigma_max(A) (Golub &
    Van Loan, Matrix Computations, sec. 8.6).  So sigma_min(B) <=
    RCOND * sigma_max(B) gives sigma_min(A) <= RCOND * sigma_max(A), and
    `lse_batch` refuses A without its SVD being taken.  The computed singular
    values carry a rounding error of order eps * sigma_max, eight orders below
    the threshold; the two verdicts can differ only for an A whose own
    sigma_min / sigma_max lies within that rounding of RCOND.
    """
    s = np.linalg.svd(block, compute_uv=False)
    return bool(s[-1] <= RCOND * s[0])


def lse_batch(a, y) -> np.ndarray:
    """Minimizer of ||A x - y||^2 for a tall dense system.

    Backed by a stable factorization (no explicit normal-equations
    inverse).  Raises SingularSystemError when A is numerically rank
    deficient; callers may fall back to `ridge_solve`, whose gamma*I term
    regularizes the problem.
    """
    a, y = _checked_system(a, y)
    rows, cols = a.shape
    if rows < cols:
        raise ValueError(f"need rows >= cols, got {rows}x{cols}")
    x, _, rank, _ = np.linalg.lstsq(a, y, rcond=RCOND)
    if rank < cols:
        raise SingularSystemError(f"system is rank deficient (rank {rank} < {cols})")
    return x


def ridge_solve(a, y) -> np.ndarray:
    """Minimizer of ||A x - y||^2 + ||x||^2 / DEFAULT_GAMMA, for any shape and rank of A.

    This is the closed form of `rls_solve(a, y, DEFAULT_GAMMA)`: the
    recursive estimator started at x = 0, S = gamma * I ends at
    (A^T A + I / gamma)^-1 A^T y.  One solve of that symmetric positive
    definite system replaces the row-by-row loop.
    """
    a, y = _checked_system(a, y)
    gram = a.T @ a
    gram[np.diag_indices_from(gram)] += 1.0 / DEFAULT_GAMMA
    return np.linalg.solve(gram, a.T @ y)


def _checked_system(a, y) -> tuple[np.ndarray, np.ndarray]:
    """(A, y) as float arrays, after the shape and finiteness checks both solvers share."""
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if a.ndim != 2:
        raise ValueError("a must be a 2-D matrix")
    if y.shape[0] != a.shape[0]:
        raise ValueError(f"y must have length {a.shape[0]}, got {y.shape[0]}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(y))):
        raise ValueError("system entries must be finite")
    return a, y


@dataclass(frozen=True)
class RlsState:
    """Running state of the recursive estimator.

    `estimate` is the current solution, `covariance` the gamma-scaled
    inverse-Gramian proxy.  The covariance is re-symmetrised after every
    update so round-off cannot accumulate into asymmetry.
    """

    estimate: np.ndarray
    covariance: np.ndarray
    gamma: float

    @property
    def dim(self) -> int:
        return self.estimate.shape[0]


def rls_init(dim: int, gamma: float = DEFAULT_GAMMA) -> RlsState:
    """Fresh state: zero estimate, gamma * identity covariance."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return RlsState(np.zeros(dim), float(gamma) * np.eye(dim), float(gamma))


def rls_update(state: RlsState, a_row, y: float) -> RlsState:
    """One recursive least-squares step for the observation (a_row, y)."""
    a = np.asarray(a_row, dtype=float).ravel()
    if a.shape[0] != state.dim:
        raise ValueError(f"row length {a.shape[0]} != state dimension {state.dim}")
    if not (np.all(np.isfinite(a)) and np.isfinite(y)):
        raise ValueError("observation must be finite")
    s_a = state.covariance @ a
    gain = s_a / (1.0 + a @ s_a)
    estimate = state.estimate + gain * (float(y) - a @ state.estimate)
    cov = state.covariance - np.outer(gain, s_a)
    cov = 0.5 * (cov + cov.T)
    return RlsState(estimate, cov, state.gamma)


def rls_solve(a, y, gamma: float = DEFAULT_GAMMA) -> np.ndarray:
    """Run the recursive estimator over every row of a system.

    Kept as the reference that `ridge_solve` is tested against; training
    uses the closed form.
    """
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    state = rls_init(a.shape[1], gamma)
    for row, target in zip(a, y):
        state = rls_update(state, row, target)
    return state.estimate
