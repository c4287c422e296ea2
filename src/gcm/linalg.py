"""Dense real matrix primitives used by the estimators.

Orthogonal projectors, the Moore-Penrose inverse and symmetric positive
definite checks, factors, solves and roots. All functions are pure and
operate on float64 arrays. ``as_matrix``, and through it ``check_spd``,
``inv_sqrt_spd``, ``orth_projector`` and ``moore_penrose``, reject NaN/Inf
entries; ``solve_spd``, ``inv_spd`` and ``SpdFactor`` do not check them (a NaN
entry gives NaNs). An ``SpdFactor`` is built once for a matrix that several
solves share (X'X of a design, sigma within a fit), so ``solve_spd`` on it is
a matrix product instead of a factorization.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import InvalidValue, NotSpd, RankDeficient

# Relative cutoffs on singular/eigenvalues. RANK_RTOL is the double-precision
# cliff below which a column is treated as dependent; PINV_RTOL is the
# truncation threshold of the pseudo-inverse.
RANK_RTOL = 1e-10
PINV_RTOL = 1e-12
SYM_RTOL = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite 2-d float64 array or raise InvalidValue."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise InvalidValue(f"{name} must be 2-dimensional, got ndim={out.ndim}")
    if out.size == 0:
        raise InvalidValue(f"{name} must be non-empty")
    if not np.isfinite(out).all():
        raise InvalidValue(f"{name} contains NaN or Inf entries")
    return out


def _spd_spectrum(a, name: str, vectors: bool):
    """The SPD criterion: returns (a, ascending eigenvalues, eigenvectors or None).

    Symmetry is checked relative to the largest entry magnitude and positive
    definiteness requires the smallest eigenvalue to exceed ``RANK_RTOL``
    times the largest. With ``vectors`` the eigenvalues come from the same
    ``eigh`` that yields the eigenvectors, so the input is decomposed once.
    """
    a = as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise NotSpd(f"{name} is not square: shape {a.shape}")
    scale = float(np.abs(a).max())
    if scale == 0.0:
        raise NotSpd(f"{name} is identically zero")
    if float(np.abs(a - a.T).max()) > SYM_RTOL * scale:
        raise NotSpd(f"{name} is not symmetric at relative tolerance {SYM_RTOL:g}")
    w, v = np.linalg.eigh(a) if vectors else (np.linalg.eigvalsh(a), None)
    if w[-1] <= 0.0 or w[0] <= RANK_RTOL * w[-1]:
        raise NotSpd(
            f"{name} is not positive definite: eigenvalues in [{w[0]:.3e}, {w[-1]:.3e}]"
        )
    return a, w, v


def check_spd(a, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is symmetric positive definite at working precision.

    Returns the validated array; see ``_spd_spectrum`` for the criterion.
    """
    return _spd_spectrum(a, name, vectors=False)[0]


def _cholesky_check(a: np.ndarray, name: str) -> None:
    """Raise NotSpd unless ``a`` has a Cholesky factorization."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotSpd(f"{name} has no Cholesky factorization: {exc}") from exc


@dataclass(frozen=True, eq=False)
class SpdFactor:
    """Symmetric positive definite ``a`` with its symmetrized inverse ``inv`` (read-only).

    Construction runs ``solve_spd``'s Cholesky check, so it refuses what
    ``solve_spd`` refuses with the same NotSpd message, then inverts ``a`` once.
    """

    a: np.ndarray
    name: InitVar[str] = "matrix"
    inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, name):
        _cholesky_check(self.a, name)
        inv = np.linalg.inv(self.a)
        inv = (inv + inv.T) / 2.0
        inv.flags.writeable = False
        object.__setattr__(self, "inv", inv)


def solve_spd(a: np.ndarray | SpdFactor, b: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive definite ``a``, an array or an SpdFactor.

    On a factor the solve is ``a.inv @ b``, the check having run when the factor
    was built. On an array the Cholesky factorization is the positive
    definiteness check and the solve itself is LAPACK's ``gesv``, since numpy
    has no triangular solve; a product with the inverse would not stay within
    1e-12 of ``np.linalg.solve`` on ill-conditioned arrays (cond 1e8), which
    this path does.
    """
    if isinstance(a, SpdFactor):
        return a.inv @ b
    _cholesky_check(a, name)
    return np.linalg.solve(a, b)


def inv_spd(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Explicit inverse of a symmetric positive definite matrix, symmetrized."""
    inv = solve_spd(a, np.eye(a.shape[0]), name)
    return (inv + inv.T) / 2.0


def orth_projector(a) -> np.ndarray:
    """Orthogonal projector onto the column space of ``a``.

    Returns P = A (A'A)^{-1} A', symmetric and idempotent with
    trace equal to the column count. Raises RankDeficient when the smallest
    singular value falls below ``RANK_RTOL`` times the largest.
    """
    a = as_matrix(a, "projector input")
    n, k = a.shape
    if k > n:
        raise RankDeficient(f"cannot project onto {k} columns in {n}-dimensional space")
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= RANK_RTOL * s[0]:
        raise RankDeficient(
            f"matrix is rank deficient: singular values in [{s[-1]:.3e}, {s[0]:.3e}]"
        )
    p = a @ solve_spd(a.T @ a, a.T, "Gram matrix")
    return (p + p.T) / 2.0


def moore_penrose(a) -> np.ndarray:
    """Moore-Penrose inverse via SVD with relative truncation ``PINV_RTOL``."""
    a = as_matrix(a, "pseudo-inverse input")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0]))
    keep = s > PINV_RTOL * s[0]
    return (vt[keep].T / s[keep]) @ u[:, keep].T


def inv_sqrt_spd(a) -> np.ndarray:
    """Symmetric positive definite B with B A B = I, via spectral decomposition.

    Refuses the inputs ``check_spd`` refuses, testing the eigenvalues of the
    one ``eigh`` that also gives B.
    """
    _, w, v = _spd_spectrum(a, "inverse square root input", vectors=True)
    b = (v / np.sqrt(w)) @ v.T
    return (b + b.T) / 2.0
