"""Design builders, noise families and the simulator."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gcm import estimators, model
from gcm.errors import (
    DegenerateTimes,
    DimensionMismatch,
    InvalidNoise,
    InvalidValue,
    RankDeficient,
    ShapeViolation,
)

TIMES4 = (1.0, 2.0, 3.0, 4.0)


def _ar_sigma(p, rho=0.4):
    idx = np.arange(p)
    return rho ** np.abs(np.subtract.outer(idx, idx))


def _scenario(m=2, r=10, q=2, times=TIMES4, family="gaussian", df=None, theta=None):
    design = model.potthoff_roy_design(m, r, times, q)
    if theta is None:
        theta = np.linspace(0.5, 2.0, m * q).reshape(m, q)
    sigma = _ar_sigma(len(times))
    noise = model.NoiseSpec(family=family, sigma=sigma, df=df)
    return design, theta, noise


# ---------------------------------------------------------------------------
# potthoff_roy_design


def test_design_smallest_case():
    design = model.potthoff_roy_design(2, 1, (0.0, 1.0, 2.0), 2)
    assert np.array_equal(design.X, np.eye(2))
    assert np.array_equal(design.Z, np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]))


@pytest.mark.parametrize("m,r", [(2, 3), (3, 4), (4, 1)])
def test_design_gram_matrix_exact(m, r):
    design = model.potthoff_roy_design(m, r, TIMES4, 2)
    assert np.array_equal(design.X.T @ design.X, r * np.eye(m))
    # hence n (X'X)^{-1} = m I exactly
    n = r * m
    assert np.array_equal(n * np.linalg.inv(design.X.T @ design.X), m * np.eye(m))


def test_design_full_rank_case():
    design = model.potthoff_roy_design(3, 4, (1.0, 2.0, 3.0, 4.0, 5.0), 3)
    assert design.n == 12 and design.p == 5
    model.validate(design)


def test_design_rejects_repeated_times():
    with pytest.raises(DegenerateTimes):
        model.potthoff_roy_design(2, 2, (1.0, 1.0, 2.0), 2)


def test_design_rejects_bad_counts():
    with pytest.raises(ShapeViolation):
        model.potthoff_roy_design(0, 2, TIMES4, 2)
    with pytest.raises(ShapeViolation):
        model.potthoff_roy_design(2, 0, TIMES4, 2)
    with pytest.raises(ShapeViolation):
        model.potthoff_roy_design(2, 2, TIMES4, 5)


def test_design_warns_on_ill_conditioned_polynomial():
    with pytest.warns(UserWarning, match="ill conditioned"):
        model.potthoff_roy_design(2, 6, tuple(np.arange(1.0, 11.0)), 8)


# ---------------------------------------------------------------------------
# equality_contrast


def test_equality_contrast_smallest():
    contrast = model.equality_contrast(2, 2)
    assert np.array_equal(contrast.C, np.array([[1.0, -1.0]]))
    assert np.array_equal(contrast.D, np.array([[0.0, 1.0]]))


@pytest.mark.parametrize("m,q", [(2, 2), (3, 4), (5, 3)])
def test_equality_contrast_annihilates_common_curves(m, q):
    contrast = model.equality_contrast(m, q)
    assert np.array_equal(contrast.C @ np.ones(m), np.zeros(m - 1))
    e_first = np.zeros(q)
    e_first[0] = 1.0
    assert np.array_equal(contrast.D @ e_first, np.zeros(q - 1))
    # equal rows of theta (common curve) map to gamma = 0
    theta = np.tile(np.linspace(1.0, 2.0, q), (m, 1))
    assert np.array_equal(contrast.apply(theta), np.zeros((m - 1, q - 1)))


def test_equality_contrast_rejects_degenerate_sizes():
    with pytest.raises(ShapeViolation):
        model.equality_contrast(1, 2)
    with pytest.raises(ShapeViolation):
        model.equality_contrast(2, 1)


# ---------------------------------------------------------------------------
# validate


def test_validate_accepts_stacked_identity_design():
    x = np.vstack([np.eye(3), np.eye(3)])
    z = np.vander(TIMES4, 2, increasing=True)
    model.validate(model.Design(X=x, Z=z))


def test_validate_rejects_duplicate_column():
    x = np.ones((6, 2))
    z = np.vander(TIMES4, 2, increasing=True)
    with pytest.raises(RankDeficient):
        model.validate(model.Design(X=x, Z=z))


def test_validate_rejects_square_z():
    x = np.vstack([np.eye(2), np.eye(2)])
    z = np.vander((1.0, 2.0), 2, increasing=True)
    with pytest.raises(ShapeViolation):
        model.validate(model.Design(X=x, Z=z))


def test_validate_rejects_too_few_rows():
    x = np.eye(3)
    z = np.vander(TIMES4, 2, increasing=True)
    with pytest.raises(ShapeViolation):
        model.validate(model.Design(X=x, Z=z))


def test_validate_runs_the_rank_svds_once_per_design(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    z = np.vander(TIMES4, 2, increasing=True)
    good = model.Design(X=np.vstack([np.eye(2)] * 3), Z=z)
    for _ in range(3):
        model.validate(good)
    assert calls == [(6, 2), (4, 2)]
    bad_rank = model.Design(X=np.ones((6, 2)), Z=z)
    bad_shape = model.Design(X=np.eye(3), Z=z)
    for _ in range(3):
        with pytest.raises(RankDeficient):
            model.validate(bad_rank)
        with pytest.raises(ShapeViolation):
            model.validate(bad_shape)
    # one more SVD: X of bad_rank; the shape checks come before any SVD
    assert calls == [(6, 2), (4, 2), (6, 2)]


def test_design_and_noise_hold_read_only_copies():
    x = np.vstack([np.eye(2)] * 3)
    z = np.vander(TIMES4, 2, increasing=True)
    sigma = _ar_sigma(4)
    design = model.Design(X=x, Z=z)
    noise = model.NoiseSpec(family="gaussian", sigma=sigma)
    for held in (design.X, design.Z, design.xtx, design.xtx_factor.inv, noise.sigma, noise.chol):
        assert not held.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            held[0, 0] = 5.0
    for given in (x, z, sigma):
        assert given.flags.writeable
    x[0, 0] = 7.0
    assert design.X[0, 0] == 1.0
    assert np.array_equal(design.xtx, design.X.T @ design.X)
    assert np.array_equal(noise.chol, np.linalg.cholesky(sigma))


# ---------------------------------------------------------------------------
# noise specification


def test_noise_rejects_low_degrees_of_freedom():
    sigma = _ar_sigma(3)
    with pytest.raises(InvalidNoise):
        model.NoiseSpec(family="student_t", sigma=sigma, df=4.0)
    with pytest.raises(InvalidNoise):
        model.NoiseSpec(family="student_t", sigma=sigma, df=None)
    for df in (np.inf, np.nan):
        with pytest.raises(InvalidNoise, match="df"):
            model.NoiseSpec(family="student_t", sigma=sigma, df=df)


def test_noise_rejects_unknown_family_and_stray_df():
    sigma = _ar_sigma(3)
    with pytest.raises(InvalidNoise):
        model.NoiseSpec(family="laplace", sigma=sigma)
    with pytest.raises(InvalidNoise):
        model.NoiseSpec(family="gaussian", sigma=sigma, df=6.0)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_is_deterministic():
    design, theta, noise = _scenario()
    a = model.simulate(design, theta, noise, seed=987654321)
    b = model.simulate(design, theta, noise, seed=987654321)
    assert a.Y.tobytes() == b.Y.tobytes()
    c = model.simulate(design, theta, noise, seed=987654322)
    assert not np.array_equal(a.Y, c.Y)


def test_simulate_rejects_mismatched_theta():
    design, _, noise = _scenario()
    for bad, error in (
        (np.ones((3, 2)), DimensionMismatch),
        (np.full((2, 2), np.nan), InvalidValue),
        (np.ones(4), InvalidValue),
    ):
        with pytest.raises(error):
            model.simulate(design, bad, noise, seed=1)


def test_simulate_rejects_mismatched_noise_covariance():
    design, theta, _ = _scenario()
    noise = model.NoiseSpec(family="gaussian", sigma=_ar_sigma(3))
    with pytest.raises(DimensionMismatch):
        model.simulate(design, theta, noise, seed=1)


@pytest.mark.parametrize("family,df", [("gaussian", None), ("uniform", None), ("student_t", 6.0)])
def test_simulate_rows_are_centered(family, df):
    # theta = 0, so Y = E; the mean over many rows must sit inside the CLT band
    n_rows = 100_000
    p = 3
    sigma = _ar_sigma(p)
    design = model.Design(X=np.ones((n_rows, 1)), Z=np.vander((1.0, 2.0, 3.0), 2, increasing=True))
    noise = model.NoiseSpec(family=family, sigma=sigma, df=df)
    data = model.simulate(design, np.zeros((1, 2)), noise, seed=2024)
    se = np.sqrt(np.diag(sigma) / n_rows)
    assert np.all(np.abs(data.Y.mean(axis=0)) < 4.0 * se)


@pytest.mark.parametrize("family,df", [("gaussian", None), ("uniform", None), ("student_t", 6.0)])
def test_simulate_rows_have_target_covariance(family, df):
    n_rows = 100_000
    p = 3
    sigma = _ar_sigma(p)
    design = model.Design(X=np.ones((n_rows, 1)), Z=np.vander((1.0, 2.0, 3.0), 2, increasing=True))
    noise = model.NoiseSpec(family=family, sigma=sigma, df=df)
    data = model.simulate(design, np.zeros((1, 2)), noise, seed=5150)
    emp = np.cov(data.Y, rowvar=False)
    assert np.linalg.norm(emp - sigma) / np.linalg.norm(sigma) < 0.05


def test_sign_flip_leaves_first_stage_unchanged():
    # theta = 0 makes Y the raw error draw; the quadratic estimator cannot
    # distinguish E from -E
    design, _, noise = _scenario(m=2, r=8)
    data = model.simulate(design, np.zeros((2, 2)), noise, seed=31)
    flipped = model.Dataset(Y=-data.Y, design=design)
    a = estimators.sigma_hat(data)
    b = estimators.sigma_hat(flipped)
    assert np.array_equal(a, b)


def test_dataset_shape_checks():
    design, _, _ = _scenario()
    with pytest.raises(DimensionMismatch):
        model.Dataset(Y=np.ones((design.n + 1, design.p)), design=design)
    with pytest.raises(DimensionMismatch):
        model.Dataset(Y=np.ones((design.n, design.p + 1)), design=design)
