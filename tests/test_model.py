"""Design builders, noise families and the simulator."""

import warnings

import numpy as np
import pytest

from gcm import estimators, model
from gcm.errors import (
    DegenerateTimes,
    DimensionMismatch,
    InvalidNoise,
    InvalidValue,
    RankDeficient,
    ShapeViolation,
)
from shared import TIMES4, ar_sigma, balanced_problem, zero_pivot_x


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
    with pytest.raises(DegenerateTimes, match="finite"):
        model.potthoff_roy_design(2, 2, (1.0, np.inf, 2.0), 2)


def test_design_rejects_bad_counts():
    with pytest.raises(ShapeViolation):
        model.potthoff_roy_design(0, 2, TIMES4, 2)
    with pytest.raises(ShapeViolation):
        model.potthoff_roy_design(2, 0, TIMES4, 2)
    with pytest.raises(ShapeViolation):
        model.potthoff_roy_design(2, 2, TIMES4, 5)


def test_design_builds_ill_conditioned_polynomial_without_a_warning():
    # cond(Z) does not track the fit's accuracy, so building a design warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        design = model.potthoff_roy_design(2, 6, tuple(np.arange(1.0, 11.0)), 8)
    assert design.Z.shape == (10, 8)


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


def test_validate_rejects_an_x_whose_gram_matrix_does_not_factor():
    # the singular values of X pass RANK_RTOL, X'X does not factor
    design = model.Design(X=zero_pivot_x()[0], Z=np.vander(TIMES4, 2, increasing=True))
    for _ in range(2):
        with pytest.raises(RankDeficient, match="^X'X "):
            model.validate(design)


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
    sigma = ar_sigma(4)
    design = model.Design(X=x, Z=z)
    noise = model.NoiseSpec(family="gaussian", sigma=sigma)
    held_factors = (design.xtx_factor.a, design.xtx_factor.inv, noise.sigma, noise.factor.inv)
    for held in (design.X, design.Z, *held_factors, noise.chol):
        assert not held.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            held[0, 0] = 5.0
    for given in (x, z, sigma):
        assert given.flags.writeable
    x[0, 0] = 7.0
    assert design.X[0, 0] == 1.0
    assert np.array_equal(design.xtx_factor.a, design.X.T @ design.X)
    assert noise.sigma is noise.factor.a and np.array_equal(noise.sigma, sigma)
    assert np.array_equal(noise.chol, np.linalg.cholesky(sigma))


# ---------------------------------------------------------------------------
# noise specification


def test_noise_rejects_low_degrees_of_freedom():
    sigma = ar_sigma(3)
    with pytest.raises(InvalidNoise):
        model.NoiseSpec(family="student_t", sigma=sigma, df=4.0)
    with pytest.raises(InvalidNoise):
        model.NoiseSpec(family="student_t", sigma=sigma, df=None)
    for df in (np.inf, np.nan):
        with pytest.raises(InvalidNoise, match="df"):
            model.NoiseSpec(family="student_t", sigma=sigma, df=df)


def test_noise_rejects_unknown_family_and_stray_df():
    sigma = ar_sigma(3)
    with pytest.raises(InvalidNoise):
        model.NoiseSpec(family="laplace", sigma=sigma)
    with pytest.raises(InvalidNoise):
        model.NoiseSpec(family="gaussian", sigma=sigma, df=6.0)
    # an unknown family is quoted as an excerpt, however long it is
    with pytest.raises(InvalidNoise, match="unknown noise family") as excinfo:
        model.NoiseSpec(family="x" * 10**6, sigma=sigma)
    assert len(str(excinfo.value)) < 300


# ---------------------------------------------------------------------------
# simulate


def test_simulate_is_deterministic():
    design, theta, noise = balanced_problem()
    a = model.simulate(design, theta, noise, seed=987654321)
    b = model.simulate(design, theta, noise, seed=987654321)
    assert a.Y.tobytes() == b.Y.tobytes()
    c = model.simulate(design, theta, noise, seed=987654322)
    assert not np.array_equal(a.Y, c.Y)


def test_simulate_rejects_mismatched_theta():
    design, _, noise = balanced_problem()
    for bad, error in (
        (np.ones((3, 2)), DimensionMismatch),
        (np.full((2, 2), np.nan), InvalidValue),
        (np.ones(4), InvalidValue),
    ):
        with pytest.raises(error):
            model.simulate(design, bad, noise, seed=1)


@pytest.mark.parametrize("family,df", [("gaussian", None), ("uniform", None), ("student_t", 6.0)])
def test_simulate_draws_the_default_rng_stream_of_its_seed(family, df):
    # the generator is PCG64 on SeedSequence(seed), the stream default_rng(seed) gives
    design, theta, noise = balanced_problem(family=family, df=df)
    seed = 2**63 + 11
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    e = model._standardized_rows(rng, noise, design.n) @ noise.chol.T
    expected = design.X @ theta @ design.Z.T + e
    assert model.simulate(design, theta, noise, seed).Y.tobytes() == expected.tobytes()


def test_simulate_rejects_mismatched_noise_covariance():
    design, theta, _ = balanced_problem()
    noise = model.NoiseSpec(family="gaussian", sigma=ar_sigma(3))
    with pytest.raises(DimensionMismatch):
        model.simulate(design, theta, noise, seed=1)


@pytest.mark.parametrize("family,df", [("gaussian", None), ("uniform", None), ("student_t", 6.0)])
def test_simulate_rows_are_centered(family, df):
    # theta = 0, so Y = E; the mean over many rows must sit inside the CLT band
    n_rows = 100_000
    p = 3
    sigma = ar_sigma(p)
    design = model.Design(X=np.ones((n_rows, 1)), Z=np.vander((1.0, 2.0, 3.0), 2, increasing=True))
    noise = model.NoiseSpec(family=family, sigma=sigma, df=df)
    data = model.simulate(design, np.zeros((1, 2)), noise, seed=2024)
    se = np.sqrt(np.diag(sigma) / n_rows)
    assert np.all(np.abs(data.Y.mean(axis=0)) < 4.0 * se)


@pytest.mark.parametrize("family,df", [("gaussian", None), ("uniform", None), ("student_t", 6.0)])
def test_simulate_rows_have_target_covariance(family, df):
    n_rows = 100_000
    p = 3
    sigma = ar_sigma(p)
    design = model.Design(X=np.ones((n_rows, 1)), Z=np.vander((1.0, 2.0, 3.0), 2, increasing=True))
    noise = model.NoiseSpec(family=family, sigma=sigma, df=df)
    data = model.simulate(design, np.zeros((1, 2)), noise, seed=5150)
    emp = np.cov(data.Y, rowvar=False)
    assert np.linalg.norm(emp - sigma) / np.linalg.norm(sigma) < 0.05


# ---------------------------------------------------------------------------
# shift


def test_shift_moves_the_mean_and_keeps_the_first_stage():
    design, theta, noise = balanced_problem(m=3, r=7)
    data = model.simulate(design, theta, noise, seed=8)
    delta = np.random.default_rng(9).standard_normal((design.m, design.q))
    shifted = model.shift(data, delta)
    assert shifted.design is design
    assert np.array_equal(shifted.Y, data.Y + design.X @ delta @ design.Z.T)
    a = estimators.sigma_hat(data).a
    b = estimators.sigma_hat(shifted).a
    assert np.abs(b - a).max() <= 1e-12 * np.abs(a).max()


def test_shift_rejects_a_delta_that_is_not_m_by_q():
    design, theta, noise = balanced_problem()
    data = model.simulate(design, theta, noise, seed=1)
    for bad, error in (
        (np.ones((3, 2)), DimensionMismatch),
        (np.ones((2, 1)), DimensionMismatch),
        (np.full((2, 2), np.inf), InvalidValue),
        (np.ones(4), InvalidValue),
    ):
        with pytest.raises(error):
            model.shift(data, bad)


def test_shift_validates_the_design_first():
    # a Dataset does not validate its design; shift refuses it as simulate does,
    # before it looks at delta
    design = model.Design(X=np.ones((5, 2)), Z=np.ones((4, 1)))
    data = model.Dataset(Y=np.ones((5, 4)), design=design)
    for delta in (np.ones((2, 1)), np.ones((3, 3))):
        with pytest.raises(RankDeficient):
            model.shift(data, delta)


def test_sign_flip_leaves_first_stage_unchanged():
    # theta = 0 makes Y the raw error draw; the quadratic estimator cannot
    # distinguish E from -E
    design, _, noise = balanced_problem(m=2, r=8)
    data = model.simulate(design, np.zeros((2, 2)), noise, seed=31)
    flipped = model.Dataset(Y=-data.Y, design=design)
    a = estimators.sigma_hat(data).a
    b = estimators.sigma_hat(flipped).a
    assert np.array_equal(a, b)


def test_dataset_shape_checks():
    design, _, _ = balanced_problem()
    with pytest.raises(DimensionMismatch):
        model.Dataset(Y=np.ones((design.n + 1, design.p)), design=design)
    with pytest.raises(DimensionMismatch):
        model.Dataset(Y=np.ones((design.n, design.p + 1)), design=design)
