"""First-stage covariance and two-stage GLS estimators against independent oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gcm import estimators, linalg, model
from gcm.errors import DimensionMismatch, NotSpd, TooFewSamples

TIMES4 = (1.0, 2.0, 3.0, 4.0)


def _ar_sigma(p, rho=0.4):
    idx = np.arange(p)
    return rho ** np.abs(np.subtract.outer(idx, idx))


def _spd(rng, p, jitter=0.5):
    g = rng.standard_normal((p, p))
    return g @ g.T + jitter * p * np.eye(p)


def _random_instance(seed, n=20, m=3, p=5, q=2, noise_scale=1.0):
    """Generic full-rank design with gaussian data, for randomized checks."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, m))
    z = rng.standard_normal((p, q))
    design = model.Design(X=x, Z=z)
    theta = rng.standard_normal((m, q))
    sigma = _spd(rng, p)
    noise = model.NoiseSpec(family="gaussian", sigma=sigma)
    data = model.simulate(design, theta, noise, seed=seed + 1)
    if noise_scale != 1.0:
        mean = x @ theta @ z.T
        data = model.Dataset(Y=mean + noise_scale * (data.Y - mean), design=design)
    return data, theta, sigma


# ---------------------------------------------------------------------------
# sigma_hat


def test_sigma_hat_zero_noise_raises_not_spd():
    design = model.potthoff_roy_design(2, 5, TIMES4, 2)
    theta = np.array([[1.0, 0.5], [2.0, 0.25]])
    y = design.X @ theta @ design.Z.T
    data = model.Dataset(Y=y, design=design)
    with pytest.raises(NotSpd):
        estimators.sigma_hat(data)


def test_sigma_hat_too_few_samples():
    data, _, _ = _random_instance(0, n=5, m=2, p=4, q=2)
    with pytest.raises(TooFewSamples):
        estimators.sigma_hat(data)


def test_sigma_hat_intercept_only_matches_sample_covariance():
    # with X a column of ones, Y'WY reduces to the centered covariance with
    # divisor n - 1
    rng = np.random.default_rng(17)
    n, p = 12, 3
    y = rng.standard_normal((n, p))
    design = model.Design(X=np.ones((n, 1)), Z=np.vander((1.0, 2.0, 3.0), 2, increasing=True))
    data = model.Dataset(Y=y, design=design)
    sig = estimators.sigma_hat(data)
    assert_allclose(sig, np.cov(y, rowvar=False), rtol=1e-12, atol=1e-14)


def test_sigma_hat_matches_explicit_projector_oracle():
    rng = np.random.default_rng(8)
    n, m, p = 8, 2, 3
    x = rng.standard_normal((n, m))
    y = rng.standard_normal((n, p))
    design = model.Design(X=x, Z=np.vander((1.0, 2.0, 3.0), 2, increasing=True))
    sig = estimators.sigma_hat(model.Dataset(Y=y, design=design))
    w = (np.eye(n) - linalg.orth_projector(x)) / (n - m)
    assert_allclose(sig, y.T @ w @ y, atol=1e-12)


def test_sigma_hat_translation_invariant():
    data, _, _ = _random_instance(21)
    design = data.design
    rng = np.random.default_rng(99)
    delta = rng.standard_normal((design.m, design.q))
    shifted = model.Dataset(Y=data.Y + design.X @ delta @ design.Z.T, design=design)
    a = estimators.sigma_hat(data)
    b = estimators.sigma_hat(shifted)
    assert np.abs(a - b).max() < 1e-12 * max(1.0, np.abs(a).max())


# ---------------------------------------------------------------------------
# known-covariance estimators


def test_theta_known_exact_recovery_zero_noise():
    design = model.potthoff_roy_design(3, 4, TIMES4, 2)
    theta = np.array([[1.0, 0.5], [2.0, 0.25], [0.5, 1.5]])
    data = model.Dataset(Y=design.X @ theta @ design.Z.T, design=design)
    sigma0 = _ar_sigma(4)
    assert np.abs(estimators.theta_hat_known(data, sigma0) - theta).max() < 1e-10


def test_theta_known_reduces_to_ols_for_canonical_z():
    # Z = [I_q; 0] with identity covariance selects the first q response
    # columns, so the estimator collapses to column-wise OLS
    rng = np.random.default_rng(14)
    n, m, p, q = 15, 3, 5, 2
    x = rng.standard_normal((n, m))
    z = np.vstack([np.eye(q), np.zeros((p - q, q))])
    y = rng.standard_normal((n, p))
    data = model.Dataset(Y=y, design=model.Design(X=x, Z=z))
    theta = estimators.theta_hat_known(data, np.eye(p))
    ols = np.linalg.lstsq(x, y[:, :q], rcond=None)[0]
    assert_allclose(theta, ols, atol=1e-10)


def test_theta_known_normal_equation_residual():
    data, _, sigma = _random_instance(33)
    design = data.design
    theta = estimators.theta_hat_known(data, sigma)
    resid = design.X.T @ (data.Y - design.X @ theta @ design.Z.T) @ np.linalg.solve(sigma, design.Z)
    assert np.abs(resid).max() < 1e-8 * max(1.0, np.abs(data.Y).max())


def test_gamma_known_identity_contrast_equals_theta():
    data, _, sigma = _random_instance(40)
    contrast = model.Contrast(C=np.eye(data.design.m), D=np.eye(data.design.q))
    gamma = estimators.gamma_hat_known(data, sigma, contrast)
    assert np.array_equal(gamma, estimators.theta_hat_known(data, sigma))


def test_gamma_known_zero_noise_exact():
    design = model.potthoff_roy_design(3, 4, TIMES4, 2)
    theta = np.array([[1.0, 0.5], [2.0, 0.25], [0.5, 1.5]])
    data = model.Dataset(Y=design.X @ theta @ design.Z.T, design=design)
    contrast = model.equality_contrast(3, 2)
    gamma = estimators.gamma_hat_known(data, _ar_sigma(4), contrast)
    assert np.abs(gamma - contrast.apply(theta)).max() < 1e-10


def test_gamma_known_matches_explicit_inverse_oracle():
    data, _, sigma = _random_instance(55)
    design = data.design
    rng = np.random.default_rng(56)
    contrast = model.Contrast(
        C=rng.standard_normal((2, design.m)), D=rng.standard_normal((2, design.q))
    )
    gamma = estimators.gamma_hat_known(data, sigma, contrast)
    # straight evaluation with explicit inverses
    s_inv = np.linalg.inv(sigma)
    theta = (
        np.linalg.inv(design.X.T @ design.X)
        @ design.X.T
        @ data.Y
        @ s_inv
        @ design.Z
        @ np.linalg.inv(design.Z.T @ s_inv @ design.Z)
    )
    assert_allclose(gamma, contrast.C @ theta @ contrast.D.T, atol=1e-10)


# ---------------------------------------------------------------------------
# H matrix


def test_h_matrix_identity_covariance_is_projector():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((5, 2))
    h = estimators.h_matrix(np.eye(5), z)
    assert_allclose(h, linalg.orth_projector(z), atol=1e-10)


def test_h_matrix_bridge_identity():
    rng = np.random.default_rng(71)
    z = rng.standard_normal((5, 2))
    sig = _spd(rng, 5)
    h = estimators.h_matrix(sig, z)
    lhs = h @ z @ np.linalg.inv(z.T @ z)
    s_inv = np.linalg.inv(sig)
    rhs = s_inv @ z @ np.linalg.inv(z.T @ s_inv @ z)
    assert np.abs(lhs - rhs).max() < 1e-8


def test_h_matrix_rejects_mismatched_z():
    with pytest.raises(DimensionMismatch):
        estimators.h_matrix(np.eye(4), np.ones((5, 1)))


# ---------------------------------------------------------------------------
# two-stage estimators


def test_two_stage_theta_error_decays_linearly_with_noise():
    scales = (1e-2, 1e-4, 1e-6)
    errors = []
    for scale in scales:
        data, theta, _ = _random_instance(77, n=24, m=3, p=4, q=2, noise_scale=scale)
        errors.append(np.abs(estimators.two_stage_theta(data) - theta).max())
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-5
    # linear decay: each 100x noise drop shrinks the error by roughly 100x
    assert 10 < errors[0] / errors[1] < 1000
    assert 10 < errors[1] / errors[2] < 1000


def test_two_stage_theta_equivariance():
    data, _, _ = _random_instance(81)
    design = data.design
    delta = np.random.default_rng(82).standard_normal((design.m, design.q))
    shifted = model.Dataset(Y=data.Y + design.X @ delta @ design.Z.T, design=design)
    a = estimators.two_stage_theta(data)
    b = estimators.two_stage_theta(shifted)
    assert np.abs(b - (a + delta)).max() < 1e-9


def test_two_stage_theta_matches_pinv_route():
    data, _, _ = _random_instance(90)
    contrast = model.Contrast(C=np.eye(data.design.m), D=np.eye(data.design.q))
    theta = estimators.two_stage_theta(data)
    via_h = estimators.two_stage_gamma_pinv(data, contrast)
    assert np.abs(theta - via_h).max() < 1e-8


def test_two_stage_gamma_identity_contrast_equals_theta():
    data, _, _ = _random_instance(91)
    contrast = model.Contrast(C=np.eye(data.design.m), D=np.eye(data.design.q))
    gamma = estimators.two_stage_gamma(data, contrast)
    assert np.array_equal(gamma, estimators.two_stage_theta(data))


def test_two_stage_gamma_equivariance():
    data, _, _ = _random_instance(92)
    design = data.design
    rng = np.random.default_rng(93)
    contrast = model.Contrast(
        C=rng.standard_normal((2, design.m)), D=rng.standard_normal((1, design.q))
    )
    delta = rng.standard_normal((design.m, design.q))
    shifted = model.Dataset(Y=data.Y + design.X @ delta @ design.Z.T, design=design)
    a = estimators.two_stage_gamma(data, contrast)
    b = estimators.two_stage_gamma(shifted, contrast)
    assert np.abs(b - (a + contrast.apply(delta))).max() < 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_two_stage_paths_agree(seed):
    data, _, _ = _random_instance(100 + seed)
    rng = np.random.default_rng(200 + seed)
    contrast = model.Contrast(
        C=rng.standard_normal((2, data.design.m)),
        D=rng.standard_normal((2, data.design.q)),
    )
    a = estimators.two_stage_gamma(data, contrast)
    b = estimators.two_stage_gamma_pinv(data, contrast)
    assert np.abs(a - b).max() < 1e-8
    # the known-sigma route fed sigma_hat runs the same GLS on the same arrays
    # (the random dense X is unbalanced, so X'X is not diagonal)
    sig = estimators.sigma_hat(data)
    assert np.array_equal(estimators.gamma_hat_known(data, sig, contrast), a)
    assert np.array_equal(estimators.theta_hat_known(data, sig), estimators.two_stage_theta(data))


def test_two_stage_gamma_is_centered_under_uniform_noise():
    # symmetric non-gaussian errors; the replicate mean must sit within the
    # Monte Carlo band around the true transformation
    design = model.potthoff_roy_design(2, 10, (1.0, 2.0, 3.0), 2)
    theta = np.array([[1.0, 0.4], [1.5, 0.8]])
    sigma = _ar_sigma(3)
    noise = model.NoiseSpec(family="uniform", sigma=sigma)
    contrast = model.equality_contrast(2, 2)
    gamma_true = contrast.apply(theta)
    n_rep = 3000
    draws = np.empty((n_rep, gamma_true.size))
    for i in range(n_rep):
        data = model.simulate(design, theta, noise, seed=10_000 + i)
        draws[i] = estimators.two_stage_gamma(data, contrast).reshape(-1)
    se = draws.std(axis=0, ddof=1) / np.sqrt(n_rep)
    bias = draws.mean(axis=0) - gamma_true.reshape(-1)
    assert np.all(np.abs(bias) < 4.0 * se)


def test_contrast_dimension_check():
    data, _, _ = _random_instance(111)
    bad = model.Contrast(C=np.ones((1, data.design.m + 1)), D=np.ones((1, data.design.q)))
    with pytest.raises(DimensionMismatch):
        estimators.two_stage_gamma(data, bad)
