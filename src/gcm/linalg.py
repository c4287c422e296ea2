"""Dense real matrix primitives used by the estimators.

Orthogonal projectors, the Moore-Penrose inverse and symmetric positive
definite checks, factors, solves and roots, on float64 arrays. Each SPD
matrix has one criterion: ``check_spd``, ``SpdFactor`` and ``inv_sqrt_spd``
test the eigenvalues of one ``eigh`` (a factor's inverse comes from it), and
reject NaN/Inf through ``as_matrix`` as ``orth_projector`` and
``moore_penrose`` do. ``gram_factor`` (X'X) and ``solve_spd`` on an array
check by Cholesky, then invert or solve by LU, and do not check for NaN.
``solve_spd`` on an SpdFactor is a matrix product. Every refusal is a
``NotSpd`` naming the matrix; no numpy ``LinAlgError`` leaves this module.
Each covariance (sigma, X'X, sigma_hat, the limit R) is an SpdFactor built once
by the object that holds it; only derived Gram matrices (Z'S^{-1}Z, Z'Z, a
projector's A'A) reach ``solve_spd`` as arrays.
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


def _spd_spectrum(a, name: str):
    """The SPD criterion: returns (a, ascending eigenvalues, eigenvectors).

    Symmetry is checked relative to the largest entry magnitude and positive
    definiteness requires the smallest eigenvalue to exceed ``RANK_RTOL``
    times the largest. The eigenvalues come from the ``eigh`` that yields the
    eigenvectors, so the input is decomposed once.
    """
    a = as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise NotSpd(f"{name} is not square: shape {a.shape}")
    scale = float(np.abs(a).max())
    if scale == 0.0:
        raise NotSpd(f"{name} is identically zero")
    if float(np.abs(a - a.T).max()) > SYM_RTOL * scale:
        raise NotSpd(f"{name} is not symmetric at relative tolerance {SYM_RTOL:g}")
    w, v = np.linalg.eigh(a)
    if w[-1] <= 0.0 or w[0] <= RANK_RTOL * w[-1]:
        raise NotSpd(
            f"{name} is not positive definite: eigenvalues in [{w[0]:.3e}, {w[-1]:.3e}]"
        )
    return a, w, v


def check_spd(a, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is symmetric positive definite at working precision.

    Returns the validated array; see ``_spd_spectrum`` for the criterion.
    """
    return _spd_spectrum(a, name)[0]


def _checked_lu(lu, a: np.ndarray, name: str, *args) -> np.ndarray:
    """``lu(a, *args)`` (numpy's LU solve or inverse) after a Cholesky check of ``a``.

    Raises NotSpd when ``a`` has no Cholesky factorization, or when it has one
    but LU elimination meets an exact zero pivot (an X'X whose smallest
    eigenvalue rounds to zero can pass the Cholesky step).
    """
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotSpd(f"{name} has no Cholesky factorization: {exc}") from exc
    try:
        return lu(a, *args)
    except np.linalg.LinAlgError as exc:
        raise NotSpd(f"{name} is singular at working precision: {exc}") from exc


@dataclass(frozen=True, eq=False)
class SpdFactor:
    """Symmetric positive definite ``a`` with its symmetrized inverse ``inv`` (read-only).

    ``SpdFactor(a, name)`` refuses what ``check_spd(a, name)`` refuses, with
    the same error, and takes ``inv`` from the ``eigh`` of that check.
    """

    a: np.ndarray
    name: InitVar[str] = "matrix"
    inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, name):
        a, w, v = _spd_spectrum(self.a, name)
        _hold(self, a, (v / w) @ v.T)


def _hold(factor: SpdFactor, a: np.ndarray, inv: np.ndarray) -> SpdFactor:
    """Set ``factor``'s matrix and its inverse, symmetrized and read-only."""
    inv = (inv + inv.T) / 2.0
    inv.flags.writeable = False
    object.__setattr__(factor, "a", a)
    object.__setattr__(factor, "inv", inv)
    return factor


def gram_factor(a: np.ndarray) -> SpdFactor:
    """The SpdFactor of X'X: a Cholesky check and an LU inverse, refusing as ``solve_spd`` does."""
    return _hold(object.__new__(SpdFactor), a, _checked_lu(np.linalg.inv, a, "X'X"))


def solve_spd(a: np.ndarray | SpdFactor, b: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive definite ``a``, an array or an SpdFactor.

    On a factor the solve is ``a.inv @ b``. On an array, a derived Gram matrix,
    it is ``gram_factor``'s check, then LAPACK's ``gesv`` (numpy has no triangular
    solve), which stays within 1e-12 of ``np.linalg.solve`` at cond 1e8 where a
    product with the inverse would not.
    """
    if isinstance(a, SpdFactor):
        return a.inv @ b
    return _checked_lu(np.linalg.solve, a, name, b)


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


def inv_sqrt_spd(a, name: str = "matrix") -> np.ndarray:
    """Symmetric positive definite B with B A B = I, via spectral decomposition.

    Refuses the inputs ``check_spd(a, name)`` refuses, with the same error,
    testing the eigenvalues of the one ``eigh`` that also gives B.
    """
    _, w, v = _spd_spectrum(a, name)
    b = (v / np.sqrt(w)) @ v.T
    return (b + b.T) / 2.0
