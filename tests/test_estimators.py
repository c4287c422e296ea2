"""First-stage covariance and two-stage GLS estimators against independent oracles."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gcm import estimators, linalg, model
from gcm.errors import DimensionMismatch, NotSpd, TooFewSamples
from shared import TIMES4, ar_sigma, identity_contrast, mean_shift_gaps, spd


def _random_instance(seed, n=20, m=3, p=5, q=2, noise_scale=1.0):
    """Generic full-rank design with gaussian data, for randomized checks."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, m))
    z = rng.standard_normal((p, q))
    design = model.Design(X=x, Z=z)
    theta = rng.standard_normal((m, q))
    sigma = spd(rng, p)
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
    # n - m = 3 < p = 4 is refused; one more row gives n - m = p, the smallest sample that fits
    data, _, _ = _random_instance(0, n=5, m=2, p=4, q=2)
    with pytest.raises(TooFewSamples):
        estimators.sigma_hat(data)
    data, _, _ = _random_instance(0, n=6, m=2, p=4, q=2)
    assert estimators.sigma_hat(data).a.shape == (4, 4)


def test_sigma_hat_intercept_only_matches_sample_covariance():
    # with X a column of ones, Y'WY reduces to the centered covariance with
    # divisor n - 1
    rng = np.random.default_rng(17)
    n, p = 12, 3
    y = rng.standard_normal((n, p))
    design = model.Design(X=np.ones((n, 1)), Z=np.vander((1.0, 2.0, 3.0), 2, increasing=True))
    data = model.Dataset(Y=y, design=design)
    sig = estimators.sigma_hat(data).a
    assert_allclose(sig, np.cov(y, rowvar=False), rtol=1e-12, atol=1e-14)


def test_sigma_hat_matches_explicit_projector_oracle():
    rng = np.random.default_rng(8)
    n, m, p = 8, 2, 3
    x = rng.standard_normal((n, m))
    y = rng.standard_normal((n, p))
    design = model.Design(X=x, Z=np.vander((1.0, 2.0, 3.0), 2, increasing=True))
    sig = estimators.sigma_hat(model.Dataset(Y=y, design=design)).a
    w = (np.eye(n) - linalg.orth_projector(x)) / (n - m)
    assert_allclose(sig, y.T @ w @ y, atol=1e-12)


def test_sigma_hat_translation_invariant():
    data, _, _ = _random_instance(21)
    design = data.design
    rng = np.random.default_rng(99)
    delta = rng.standard_normal((design.m, design.q))
    sigma_gap, _ = mean_shift_gaps(data, identity_contrast(design), delta)
    a = estimators.sigma_hat(data).a
    assert sigma_gap < 1e-12 * max(1.0, np.abs(a).max())


def test_sigma_hat_holds_one_residual_and_matches_the_textbook_formula():
    # the first stage allocates one n x p temporary beyond Y, its residual
    rng = np.random.default_rng(5)
    n, m, p = 100_000, 3, 4
    design = model.Design(X=rng.standard_normal((n, m)), Z=np.vander(TIMES4, 2, increasing=True))
    data = model.Dataset(Y=rng.standard_normal((n, p)), design=design)
    model.validate(design)  # the design's one-time checks and X'X factor, not the fit's cost
    tracemalloc.start()
    try:
        sig = estimators.sigma_hat(data).a
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * data.Y.nbytes
    x, y = design.X, data.Y
    resid = y - x @ (design.xtx_factor.inv @ (x.T @ y))
    s = resid.T @ resid / (n - m)
    assert np.array_equal(sig, (s + s.T) / 2.0)


# ---------------------------------------------------------------------------
# known-covariance estimators


def test_theta_known_exact_recovery_zero_noise():
    design = model.potthoff_roy_design(3, 4, TIMES4, 2)
    theta = np.array([[1.0, 0.5], [2.0, 0.25], [0.5, 1.5]])
    data = model.Dataset(Y=design.X @ theta @ design.Z.T, design=design)
    contrast = model.equality_contrast(3, 2)
    theta_hat = estimators.theta_hat_known(data, linalg.SpdFactor(ar_sigma(4), "sigma0"))
    assert np.abs(theta_hat - theta).max() < 1e-10
    assert np.abs(contrast.apply(theta_hat) - contrast.apply(theta)).max() < 1e-10


def test_theta_known_reduces_to_ols_for_canonical_z():
    # Z = [I_q; 0] with identity covariance selects the first q response
    # columns, so the estimator collapses to column-wise OLS
    rng = np.random.default_rng(14)
    n, m, p, q = 15, 3, 5, 2
    x = rng.standard_normal((n, m))
    z = np.vstack([np.eye(q), np.zeros((p - q, q))])
    y = rng.standard_normal((n, p))
    data = model.Dataset(Y=y, design=model.Design(X=x, Z=z))
    theta = estimators.theta_hat_known(data, linalg.SpdFactor(np.eye(p), "sigma0"))
    ols = np.linalg.lstsq(x, y[:, :q], rcond=None)[0]
    assert_allclose(theta, ols, atol=1e-10)


def test_theta_known_normal_equation_residual():
    data, _, sigma = _random_instance(33)
    design = data.design
    theta = estimators.theta_hat_known(data, linalg.SpdFactor(sigma, "sigma0"))
    resid = design.X.T @ (data.Y - design.X @ theta @ design.Z.T) @ np.linalg.solve(sigma, design.Z)
    assert np.abs(resid).max() < 1e-8 * max(1.0, np.abs(data.Y).max())


def test_gamma_known_matches_explicit_inverse_oracle():
    data, _, sigma = _random_instance(55)
    design = data.design
    rng = np.random.default_rng(56)
    contrast = model.Contrast(
        C=rng.standard_normal((2, design.m)), D=rng.standard_normal((2, design.q))
    )
    gamma = contrast.apply(estimators.theta_hat_known(data, linalg.SpdFactor(sigma, "sigma0")))
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
    h = estimators.h_matrix(linalg.SpdFactor(np.eye(5), "sigma"), z)
    assert_allclose(h, linalg.orth_projector(z), atol=1e-10)


def test_h_matrix_bridge_identity():
    rng = np.random.default_rng(71)
    z = rng.standard_normal((5, 2))
    sig = spd(rng, 5)
    h = estimators.h_matrix(linalg.SpdFactor(sig, "sigma"), z)
    lhs = h @ z @ np.linalg.inv(z.T @ z)
    s_inv = np.linalg.inv(sig)
    rhs = s_inv @ z @ np.linalg.inv(z.T @ s_inv @ z)
    assert np.abs(lhs - rhs).max() < 1e-8


def test_h_matrix_rejects_mismatched_z():
    with pytest.raises(DimensionMismatch) as exc:
        estimators.h_matrix(linalg.SpdFactor(np.eye(4), "sigma"), np.ones((5, 1)))
    assert str(exc.value) == "Z has 5 rows but sigma is 4 x 4"


def test_the_factor_h_matrix_takes_refuses_what_check_spd_refuses():
    # each has a Cholesky factor but fails check_spd (too ill conditioned, not
    # symmetric at SYM_RTOL)
    tilted = spd(np.random.default_rng(17), 4)
    tilted[0, 1] += 1e-6
    for a in (np.diag([1.0, 1.0, 1.0, 1e-12]), tilted):
        np.linalg.cholesky(a)
        with pytest.raises(NotSpd) as expected:
            linalg.check_spd(a, "sigma")
        with pytest.raises(NotSpd) as exc:
            linalg.SpdFactor(a, "sigma")
        assert str(exc.value) == str(expected.value)


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


def test_two_stage_theta_matches_pinv_route():
    data, _, _ = _random_instance(90)
    contrast = identity_contrast(data.design)
    theta = estimators.two_stage_theta(data)
    via_h = estimators.two_stage_gamma_pinv(data, contrast)
    assert np.abs(theta - via_h).max() < 1e-8


def test_two_stage_gamma_identity_contrast_equals_theta():
    data, _, _ = _random_instance(91)
    contrast = identity_contrast(data.design)
    gamma = estimators.two_stage_gamma(data, contrast)
    assert np.array_equal(gamma, estimators.two_stage_theta(data))


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
    assert np.array_equal(contrast.apply(estimators.theta_hat_known(data, sig)), a)
    assert np.array_equal(estimators.theta_hat_known(data, sig), estimators.two_stage_theta(data))


def test_two_stage_gamma_is_centered_under_uniform_noise():
    # symmetric non-gaussian errors; the replicate mean must sit within the
    # Monte Carlo band around the true transformation
    design = model.potthoff_roy_design(2, 10, (1.0, 2.0, 3.0), 2)
    theta = np.array([[1.0, 0.4], [1.5, 0.8]])
    sigma = ar_sigma(3)
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


# ---------------------------------------------------------------------------
# exact finite-sample moments
#
# At small n the model has exact results the large-sample gates cannot see:
# the known-covariance estimator is linear in E, the first stage is a scaled
# Wishart matrix under gaussian errors, and the two-stage estimator's
# covariance is the known-covariance one times Khatri's (1966) factor
# (n - m - 1) / (n - m - 1 - (p - q)). On the unbalanced design below
# (groups of 6 and 8 plus a covariate, n - m = 11, p - q = 3) the factor is
# 10 / 7 = 1.43, far from the limit's 1.

EXACT_REPS = 2500
# Each empirical moment is compared with its exact value in units of its own
# Monte Carlo standard error; 4.5 keeps a fixed-seed false alarm below 1e-3
# over the 120 moments of the largest check.
EXACT_Z = 4.5


def _exact_design():
    group = np.repeat([0, 1], [6, 8])
    covariate = np.linspace(-1.0, 1.0, 14) ** 2
    x = np.column_stack([group == 0, group == 1, covariate]).astype(float)
    z = np.vander(np.arange(1.0, 6.0), 2, increasing=True)
    theta = np.array([[1.0, 0.5], [2.0, -0.25], [0.3, 0.1]])
    sigma = ar_sigma(5) * np.outer(np.linspace(1.0, 2.0, 5), np.linspace(1.0, 2.0, 5))
    return model.Design(X=x, Z=z), theta, sigma


def _known_sigma_cov(design, sigma):
    """(X'X)^-1 kron (Z' sigma^-1 Z)^-1: Cov(theta_hat.reshape(-1)) when sigma is known."""
    g = design.Z.T @ np.linalg.solve(sigma, design.Z)
    return np.kron(np.linalg.inv(design.xtx_factor.a), np.linalg.inv(g))


def _moment_z(samples, mean, cov):
    """z-scores of the sample mean and the upper-triangle second moments about
    ``mean`` of the rows of ``samples``, against their exact values ``mean`` and
    ``cov``: each gap divided by its Monte Carlo standard error."""
    u = samples - mean
    root_r = np.sqrt(len(u))
    mean_z = u.mean(axis=0) / (u.std(axis=0, ddof=1) / root_r)
    iu = np.triu_indices(u.shape[1])
    products = (u[:, :, None] * u[:, None, :])[:, iu[0], iu[1]]
    cov_z = (products.mean(axis=0) - cov[iu]) / (products.std(axis=0, ddof=1) / root_r)
    return mean_z, cov_z


@pytest.mark.parametrize(
    "family, df", [("gaussian", None), ("uniform", None), ("student_t", 6.0)]
)
def test_theta_known_covariance_is_exact_for_every_family(family, df):
    design, theta, sigma = _exact_design()
    noise = model.NoiseSpec(family=family, sigma=sigma, df=df)
    factor = linalg.SpdFactor(sigma, "sigma0")
    thetas = np.array([
        estimators.theta_hat_known(model.simulate(design, theta, noise, seed), factor).reshape(-1)
        for seed in range(EXACT_REPS)
    ])
    cov = _known_sigma_cov(design, sigma)
    mean_z, cov_z = _moment_z(thetas, theta.reshape(-1), cov)
    assert np.abs(mean_z).max() < EXACT_Z
    assert np.abs(cov_z).max() < EXACT_Z
    # power: the two-stage covariance (Khatri's factor) is refused here
    _, inflated_z = _moment_z(thetas, theta.reshape(-1), cov * 10.0 / 7.0)
    assert np.abs(inflated_z).max() > EXACT_Z


@pytest.fixture(scope="module")
def gaussian_two_stage_draws():
    """(design, theta, sigma, sigma_hat draws, two-stage theta draws) under gaussian errors."""
    design, theta, sigma = _exact_design()
    noise = model.NoiseSpec(family="gaussian", sigma=sigma)
    sigmas, thetas = [], []
    for seed in range(EXACT_REPS):
        data = model.simulate(design, theta, noise, seed)
        sigmas.append(estimators.sigma_hat(data).a)
        thetas.append(estimators.two_stage_theta(data).reshape(-1))
    return design, theta, sigma, np.array(sigmas), np.array(thetas)


def test_sigma_hat_has_wishart_moments(gaussian_two_stage_draws):
    # (n - m) sigma_hat ~ Wishart_p(n - m, sigma): E s_ij = sigma_ij and
    # Cov(s_ij, s_kl) = (sigma_ik sigma_jl + sigma_il sigma_jk) / (n - m)
    design, _, sigma, sigmas, _ = gaussian_two_stage_draws
    i, j = np.triu_indices(design.p)
    dof = design.n - design.m
    cov = (sigma[np.ix_(i, i)] * sigma[np.ix_(j, j)] + sigma[np.ix_(i, j)] * sigma[np.ix_(j, i)]) / dof
    assert_allclose(np.diag(cov), (sigma[i, j] ** 2 + sigma[i, i] * sigma[j, j]) / dof)
    mean_z, cov_z = _moment_z(sigmas[:, i, j], sigma[i, j], cov)
    assert np.abs(mean_z).max() < EXACT_Z
    assert np.abs(cov_z).max() < EXACT_Z


def test_two_stage_theta_covariance_is_khatris(gaussian_two_stage_draws):
    design, theta, sigma, _, thetas = gaussian_two_stage_draws
    n, m, p, q = design.n, design.m, design.p, design.q
    factor = (n - m - 1) / (n - m - 1 - (p - q))
    assert factor == pytest.approx(10.0 / 7.0)
    known = _known_sigma_cov(design, sigma)
    mean_z, cov_z = _moment_z(thetas, theta.reshape(-1), factor * known)
    assert np.abs(mean_z).max() < EXACT_Z
    assert np.abs(cov_z).max() < EXACT_Z
    # power: without the factor (the known-covariance and limit law) the check fails
    _, limit_z = _moment_z(thetas, theta.reshape(-1), known)
    assert np.abs(limit_z).max() > EXACT_Z
