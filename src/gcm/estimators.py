"""Estimators for the growth curve model.

First stage: the invariant quadratic covariance estimator sigma_hat = Y'WY
with W = (I - P_X)/(n - m). Second stage: generalized least squares with
the first-stage estimate plugged in, giving the two-stage estimators of
theta and of gamma = C theta D'. A pseudo-inverse reformulation through
H = sigma^{-1} (P_Z sigma^{-1} P_Z)^+ is kept as an independent
verification path.
"""

from __future__ import annotations

import numpy as np

from . import linalg, model
from .errors import DimensionMismatch, TooFewSamples


def _gls_theta(design: model.Design, y: np.ndarray, sigma: linalg.SpdFactor) -> np.ndarray:
    """Solve the normal equations X'X theta Z' sigma^{-1} Z = X'Y sigma^{-1} Z.

    X'X, sigma and Z' sigma^{-1} Z are symmetric positive definite, so the
    estimator (X'X)^{-1} X' Y sigma^{-1} Z (Z' sigma^{-1} Z)^{-1} takes three
    ``solve_spd`` calls: matrix products with the design's X'X factor and the
    fit's ``sigma`` factor, then a Cholesky check and an LU solve on Z' sigma^{-1} Z.
    """
    x, z = design.X, design.Z
    a = linalg.solve_spd(design.xtx_factor, x.T @ y, "X'X")
    b = linalg.solve_spd(sigma, z, "sigma")
    g = z.T @ b
    return linalg.solve_spd(g, (a @ b).T, "Z' sigma^{-1} Z").T


def sigma_hat(data: model.Dataset) -> linalg.SpdFactor:
    """Invariant quadratic covariance estimator Y'WY, W = (I - P_X)/(n - m), as an SpdFactor.

    Computed through the residuals (I - P_X) Y rather than the explicit
    projector and symmetrized; the matrix is ``.a``, its inverse ``.inv``.
    Building the factor is the positive definiteness check. Raises
    TooFewSamples when n - m < p (the estimate would be singular) and
    NotSpd on degenerate data such as noise-free observations.
    """
    design = data.design
    model.validate(design)
    n, m, p = design.n, design.m, design.p
    if n - m < p:
        raise TooFewSamples(
            f"need n - m >= p for an invertible first stage, got n={n}, m={m}, p={p}"
        )
    x, y = design.X, data.Y
    # the residual is built in the fitted values' buffer: one n x p temporary, not two
    resid = x @ linalg.solve_spd(design.xtx_factor, x.T @ y, "X'X")
    np.subtract(y, resid, out=resid)
    s = resid.T @ resid / (n - m)
    return linalg.SpdFactor((s + s.T) / 2.0, "first-stage covariance estimate")


def theta_hat_known(data: model.Dataset, sigma0: linalg.SpdFactor) -> np.ndarray:
    """Least-squares estimator of theta for a known row covariance, given as an SpdFactor."""
    model.validate(data.design)
    p = sigma0.a.shape[0]
    if p != data.design.p:
        raise DimensionMismatch(f"sigma0 is {p} x {p} but Z has {data.design.p} rows")
    return _gls_theta(data.design, data.Y, sigma0)


def h_matrix(sigma: linalg.SpdFactor, z: np.ndarray) -> np.ndarray:
    """The p x p matrix sigma^{-1} (P_Z sigma^{-1} P_Z)^+ for an SPD sigma.

    Satisfies H Z (Z'Z)^{-1} = sigma^{-1} Z (Z' sigma^{-1} Z)^{-1}, which is
    what makes the pseudo-inverse route agree with the solve route. ``sigma``
    is an SpdFactor: a fit's sigma_hat, or ``SpdFactor(sigma, "sigma")``.
    """
    p = sigma.a.shape[0]
    z = linalg.as_matrix(z, "Z")
    if z.shape[0] != p:
        raise DimensionMismatch(f"Z has {z.shape[0]} rows but sigma is {p} x {p}")
    s_inv = linalg.solve_spd(sigma, np.eye(p), "sigma")
    p_z = linalg.orth_projector(z)
    return s_inv @ linalg.moore_penrose(p_z @ s_inv @ p_z)


def two_stage(data: model.Dataset) -> tuple:
    """The fit of ``data``: (sigma_hat's SpdFactor, the two-stage estimator of theta).

    The GLS solves with sigma_hat, and those of a caller that passes the factor
    on (``inference.standardized_stat``), are matrix products.
    """
    sig = sigma_hat(data)
    return sig, _gls_theta(data.design, data.Y, sig)


def two_stage_theta(data: model.Dataset) -> np.ndarray:
    """Two-stage estimator of theta: GLS with sigma_hat plugged in."""
    return two_stage(data)[1]


def two_stage_gamma(data: model.Dataset, contrast: model.Contrast) -> np.ndarray:
    """Two-stage generalized least-squares estimator of gamma = C theta D'.

    Production path: GLS by three ``solve_spd`` calls with sigma_hat plugged in. Equals
    C @ two_stage_theta(data) @ D' by construction.
    """
    contrast.check(data.design)
    return contrast.apply(two_stage_theta(data))


def two_stage_gamma_pinv(data: model.Dataset, contrast: model.Contrast) -> np.ndarray:
    """Verification path for the two-stage estimator via the H matrix.

    Evaluates C (X'X)^{-1} X' Y H K D' with K = Z (Z'Z)^{-1}. Exercises the
    pseudo-inverse identity Z (Z' S^{-1} Z)^{-1} Z' = (P_Z S^{-1} P_Z)^+ and
    must agree with :func:`two_stage_gamma` to tight tolerance.
    """
    contrast.check(data.design)
    design = data.design
    h = h_matrix(sigma_hat(data), design.Z)
    x, z, y = design.X, design.Z, data.Y
    k = linalg.solve_spd(z.T @ z, z.T, "Z'Z").T
    a = linalg.solve_spd(design.xtx_factor, x.T @ y, "X'X")
    return contrast.apply(a @ h @ k)
