"""Large-sample inference for the two-stage estimator.

The scaled estimation error sqrt(n) (gamma_hat - gamma) has a limiting
matrix normal law with Kronecker-factored covariance
(C R^{-1} C') x (D (Z' sigma^{-1} Z)^{-1} D'), where R is the limit of
X'X / n. This module builds that law, its finite-sample plug-in, the
whitened statistic whose entries are asymptotically standard normal, and a
chi-square test of gamma = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import estimators, linalg, model
from .errors import DimensionMismatch, InvalidValue


@dataclass(frozen=True, eq=False)
class AsymptoticSpec:
    """Ingredients of the limit law: R = lim X'X/n, the true covariance, Z and the contrast."""

    R: np.ndarray
    sigma: np.ndarray
    Z: np.ndarray
    contrast: model.Contrast

    def __post_init__(self):
        object.__setattr__(self, "R", linalg.check_spd(self.R, "R"))
        object.__setattr__(self, "sigma", linalg.check_spd(self.sigma, "sigma"))
        object.__setattr__(self, "Z", linalg.as_matrix(self.Z, "Z"))
        if self.R.shape[0] != self.contrast.C.shape[1]:
            raise DimensionMismatch(
                f"R is {self.R.shape[0]} x {self.R.shape[0]} but C has "
                f"{self.contrast.C.shape[1]} columns"
            )
        if self.sigma.shape[0] != self.Z.shape[0]:
            raise DimensionMismatch(
                f"sigma is {self.sigma.shape[0]} x {self.sigma.shape[0]} but Z has "
                f"{self.Z.shape[0]} rows"
            )
        if self.Z.shape[1] != self.contrast.D.shape[1]:
            raise DimensionMismatch(
                f"Z has {self.Z.shape[1]} columns but D has {self.contrast.D.shape[1]}"
            )


@dataclass(frozen=True, eq=False)
class AsymptoticLaw:
    """Kronecker factors of the covariance of sqrt(n) (gamma_hat - gamma).

    ``left`` is s x s, ``right`` is t x t; the full s*t covariance of the
    row-stacked error, (gamma_hat - gamma).reshape(-1), is kron(left, right).
    """

    left: np.ndarray
    right: np.ndarray

    def full(self) -> np.ndarray:
        return np.kron(self.left, self.right)


@dataclass(frozen=True, eq=False)
class TestResult:
    """Whitened statistic and the chi-square decision for H: gamma = 0."""

    T_stat: np.ndarray
    chi_sq: float
    dof: int
    p_value: float
    alpha: float
    reject: bool


def cov_factors(
    a: np.ndarray, sigma: np.ndarray, z: np.ndarray, contrast: model.Contrast
) -> AsymptoticLaw:
    """Symmetrized covariance factors C a^{-1} C' and D (Z' sigma^{-1} Z)^{-1} D'.

    ``a`` is X'X for the finite-sample plug-in or R = lim X'X/n for the
    limit law; ``sigma`` is the true, known or first-stage covariance.
    """
    c, d = contrast.C, contrast.D
    left = c @ linalg.solve_spd(a, c.T, "X'X or R")
    g = z.T @ linalg.solve_spd(sigma, z, "sigma")
    right = d @ linalg.solve_spd(g, d.T, "Z' sigma^{-1} Z")
    return AsymptoticLaw(left=(left + left.T) / 2.0, right=(right + right.T) / 2.0)


def asym_cov(spec: AsymptoticSpec) -> AsymptoticLaw:
    """Limit covariance factors C R^{-1} C' and D (Z' sigma^{-1} Z)^{-1} D'."""
    return cov_factors(spec.R, spec.sigma, spec.Z, spec.contrast)


def plugin_cov(data: model.Dataset, contrast: model.Contrast) -> AsymptoticLaw:
    """Finite-sample plug-in covariance factors for gamma_hat.

    Left factor C (X'X)^{-1} C' (not scaled by n) and right factor
    D (Z' sigma_hat^{-1} Z)^{-1} D'. The square roots of the diagonal
    products are the approximate standard errors of the entries of
    gamma_hat.
    """
    estimators._check_contrast(contrast, data.design)
    x = data.design.X
    return cov_factors(x.T @ x, estimators.sigma_hat(data), data.design.Z, contrast)


def standard_errors(law: AsymptoticLaw) -> np.ndarray:
    """Per-entry approximate standard errors sqrt(left_ii * right_jj)."""
    return np.sqrt(np.outer(np.diag(law.left), np.diag(law.right)))


def standardized_stat(data: model.Dataset, contrast: model.Contrast) -> np.ndarray:
    """Whitened estimator (C n(X'X)^{-1} C')^{-1/2} sqrt(n) gamma_hat (D(Z' sigma_hat^{-1} Z)^{-1} D')^{-1/2}.

    Entries are asymptotically iid standard normal under gamma = 0. Raises
    NotSpd when either standardizer is singular (C or D without full row
    rank).
    """
    estimators._check_contrast(contrast, data.design)
    n = data.design.n
    sig = estimators.sigma_hat(data)
    gamma = contrast.apply(estimators._gls_theta(data.design, data.Y, sig))
    x = data.design.X
    law = cov_factors(x.T @ x, sig, data.design.Z, contrast)
    w_left = linalg.inv_sqrt_spd(n * law.left)
    w_right = linalg.inv_sqrt_spd(law.right)
    return w_left @ (np.sqrt(n) * gamma) @ w_right


def chi_sq_p_value(chi_sq: float, dof: int) -> float:
    """Upper tail of the chi-square distribution with integer ``dof`` degrees of freedom.

    Closed form of the regularized upper gamma Q(dof/2, chi_sq/2): a finite
    Poisson sum for even dof, erfc plus half-integer terms for odd dof. Each
    term h^a e^{-h} / Gamma(a + 1) is evaluated in log space, so none overflows.
    """
    k = int(dof)
    if k != dof or k < 1:
        raise InvalidValue(f"dof must be an integer >= 1, got {dof}")
    if chi_sq < 0.0:
        raise InvalidValue(f"chi_sq must be >= 0, got {chi_sq}")
    h = chi_sq / 2.0
    if h == 0.0 or math.isinf(h):
        return 1.0 if h == 0.0 else 0.0
    first, tail = (0.0, 0.0) if k % 2 == 0 else (0.5, math.erfc(math.sqrt(h)))
    log_h = math.log(h)
    terms = [
        math.exp(a * log_h - h - math.lgamma(a + 1.0))
        for a in (first + j for j in range(k // 2))
    ]
    return math.fsum([tail, *terms])


def test_gamma_zero(
    data: model.Dataset, contrast: model.Contrast, alpha: float
) -> TestResult:
    """Chi-square test of H: C theta D' = 0 at level ``alpha``.

    Aggregates the whitened statistic by its squared Frobenius norm, which
    is asymptotically chi-square with s*t degrees of freedom under H. The
    aggregate is invariant to the choice of matrix square root in the
    whitening.
    """
    if not 0.0 < alpha <= 1.0:
        raise InvalidValue(f"alpha must be in (0, 1], got {alpha}")
    t_stat = standardized_stat(data, contrast)
    chi_sq = float(np.sum(t_stat * t_stat))
    dof = t_stat.size
    p_value = chi_sq_p_value(chi_sq, dof)
    return TestResult(
        T_stat=t_stat,
        chi_sq=chi_sq,
        dof=dof,
        p_value=p_value,
        alpha=float(alpha),
        reject=bool(p_value < alpha),
    )
