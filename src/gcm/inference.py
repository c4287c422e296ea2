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
from .errors import InvalidValue


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

    def whiten(self, x: np.ndarray) -> np.ndarray:
        """left^{-1/2} x right^{-1/2} for one s x t matrix or a stack of them."""
        return linalg.inv_sqrt_spd(self.left) @ x @ linalg.inv_sqrt_spd(self.right)


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
    a: np.ndarray | linalg.SpdFactor,
    sigma: np.ndarray | linalg.SpdFactor,
    z: np.ndarray,
    contrast: model.Contrast,
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


def plugin_cov(data: model.Dataset, contrast: model.Contrast) -> AsymptoticLaw:
    """Finite-sample plug-in covariance factors for gamma_hat.

    Left factor C (X'X)^{-1} C' (not scaled by n) and right factor
    D (Z' sigma_hat^{-1} Z)^{-1} D'. The square roots of the diagonal
    products are the approximate standard errors of the entries of
    gamma_hat.
    """
    contrast.check(data.design)
    return cov_factors(data.design.xtx_factor, estimators.sigma_hat(data), data.design.Z, contrast)


def standard_errors(law: AsymptoticLaw) -> np.ndarray:
    """Per-entry approximate standard errors sqrt(left_ii * right_jj)."""
    return np.sqrt(np.outer(np.diag(law.left), np.diag(law.right)))


def standardized_stat(data: model.Dataset, contrast: model.Contrast) -> np.ndarray:
    """Whitened estimator (C n(X'X)^{-1} C')^{-1/2} sqrt(n) gamma_hat (D(Z' sigma_hat^{-1} Z)^{-1} D')^{-1/2}.

    Entries are asymptotically iid standard normal under gamma = 0. Raises
    NotSpd when either standardizer is singular (C or D without full row
    rank).
    """
    contrast.check(data.design)
    n = data.design.n
    sig, theta = estimators.two_stage(data)
    law = cov_factors(data.design.xtx_factor, sig, data.design.Z, contrast)
    return AsymptoticLaw(n * law.left, law.right).whiten(np.sqrt(n) * contrast.apply(theta))


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
