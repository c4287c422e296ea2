"""Matrix primitive tests: each operation against an independent construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gcm import linalg, model
from gcm.errors import NotSpd, RankDeficient


def _spd(rng, p, jitter=0.5):
    g = rng.standard_normal((p, p))
    return g @ g.T + jitter * p * np.eye(p)


# ---------------------------------------------------------------------------
# solve_spd


def _spd_of_cond(rng, p, log_cond):
    """Random orthogonal basis with eigenvalues spread over 10**log_cond."""
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    a = (q * np.logspace(0.0, -log_cond, p)) @ q.T
    return (a + a.T) / 2.0


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=1, max_value=4),
    log_cond=st.floats(min_value=0.0, max_value=8.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_solve_spd_matches_general_solve(p, k, log_cond, seed):
    rng = np.random.default_rng(seed)
    a = _spd_of_cond(rng, p, log_cond)
    b = rng.standard_normal((p, k))
    x = linalg.solve_spd(a, b)
    assert x.shape == (p, k)
    assert_allclose(x, np.linalg.solve(a, b), rtol=1e-12, atol=1e-12 * np.abs(x).max())
    assert_allclose(a @ x, b, atol=1e-7 * np.abs(b).max())


def _unbalanced_xtx(rng, p, log_cond):
    """X'X (p >= 2) of unequal groups plus a covariate column scaled by 10**(log_cond / 2)."""
    groups = np.repeat(np.eye(p - 1), rng.integers(2, 9, p - 1), axis=0)
    covariate = 10.0 ** (log_cond / 2.0) * rng.standard_normal(groups.shape[0])
    return model.Design(X=np.column_stack([groups, covariate]), Z=np.ones((2, 1))).xtx_factor


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=1, max_value=4),
    log_cond=st.floats(min_value=0.0, max_value=8.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    unbalanced=st.booleans(),
)
def test_factor_solves_match_the_array_path(p, k, log_cond, seed, unbalanced):
    # a solve through the inverse of an SpdFactor is a matrix product; it agrees
    # with the Cholesky-checked LU solve to a tolerance that scales with cond(a)
    rng = np.random.default_rng(seed)
    if unbalanced:
        p = max(p, 2)
        factor = _unbalanced_xtx(rng, p, log_cond)
        a = factor.a
        assert np.abs(a - np.diag(np.diag(a))).max() > 0.0
    else:
        a = _spd_of_cond(rng, p, log_cond)
        factor = linalg.SpdFactor(a)
    assert np.array_equal(factor.inv, factor.inv.T) and not factor.inv.flags.writeable
    b = rng.standard_normal((p, k))
    x = linalg.solve_spd(a, b)
    rtol = 16 * p * np.finfo(float).eps * np.linalg.cond(a)
    assert np.abs(linalg.solve_spd(factor, b) - x).max() <= rtol * np.abs(x).max()
    assert np.abs(linalg.inv_spd(a) - factor.inv).max() <= rtol * np.abs(factor.inv).max()


def test_solve_spd_rejects_indefinite():
    with pytest.raises(NotSpd, match="sigma has no Cholesky factorization"):
        linalg.solve_spd(np.diag([1.0, -1.0, 1.0]), np.ones(3), "sigma")


def _refusal(build):
    """The type and text of the error ``build()`` raises, else None."""
    try:
        build()
    except (NotSpd, np.linalg.LinAlgError) as exc:
        return type(exc).__name__, str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=5),
    low=st.sampled_from([-1.0, -1e-3, -1e-17, 0.0, 1e-17, 1e-3, 1.0]),
    scale=st.sampled_from([0.0, 1e-3, 1.0, 1e3]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_factor_refuses_exactly_what_solve_spd_refuses(p, low, scale, seed):
    # eigenvalues {low} + U(1, 10): indefinite, singular, near-singular or SPD,
    # scaled; a matrix whose Cholesky factor exists but whose LU has a zero
    # pivot raises numpy's LinAlgError from the solve and from the inverse alike
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    w = rng.uniform(1.0, 10.0, p)
    w[0] = low
    a = scale * (q * w) @ q.T
    a = (a + a.T) / 2.0
    refused = _refusal(lambda: linalg.solve_spd(a, np.ones(p), "sigma"))
    assert _refusal(lambda: linalg.SpdFactor(a, "sigma")) == refused
    if refused is not None and refused[0] == "NotSpd":
        assert refused[1].startswith("sigma has no Cholesky factorization: ")


def test_design_xtx_factor_is_one_object_per_design():
    design = model.potthoff_roy_design(3, 4, (1.0, 2.0, 3.0), 2)
    factor = design.xtx_factor
    assert design.xtx_factor is factor and factor.a is design.xtx
    other = model.potthoff_roy_design(3, 4, (1.0, 2.0, 3.0), 2)
    assert other.xtx_factor is not factor
    assert_allclose(factor.inv, np.eye(3) / 4.0, rtol=1e-15)


# ---------------------------------------------------------------------------
# orth_projector


def test_projector_of_identity_is_identity():
    assert_allclose(linalg.orth_projector(np.eye(3)), np.eye(3), atol=1e-14)


def test_projector_of_ones_column_is_averaging_matrix():
    n = 5
    p = linalg.orth_projector(np.ones((n, 1)))
    assert_allclose(p, np.full((n, n), 1.0 / n), atol=1e-14)


def test_projector_seeded_against_qr_oracle():
    rng = np.random.default_rng(61)
    a = rng.standard_normal((6, 2))
    p = linalg.orth_projector(a)
    # independent construction from an orthonormal basis
    q, _ = np.linalg.qr(a)
    assert_allclose(p, q @ q.T, atol=1e-12)
    assert np.abs(p @ p - p).max() < 1e-12
    assert np.abs(p - p.T).max() < 1e-12
    assert np.abs(p @ a - a).max() < 1e-10 * np.abs(a).max()
    assert np.trace(p) == pytest.approx(2.0, abs=1e-10)


def test_projector_rejects_rank_deficient_input():
    a = np.ones((4, 2))
    with pytest.raises(RankDeficient):
        linalg.orth_projector(a)
    with pytest.raises(RankDeficient):
        linalg.orth_projector(np.zeros((3, 1)))


def test_projector_rejects_wide_input():
    with pytest.raises(RankDeficient):
        linalg.orth_projector(np.ones((2, 3)))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    k=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_projector_laws(n, k, seed):
    k = min(k, n)
    a = np.random.default_rng(seed).standard_normal((n, k))
    p = linalg.orth_projector(a)
    assert np.abs(p - p.T).max() < 1e-10
    assert np.abs(p @ p - p).max() < 1e-10
    assert np.abs(p @ a - a).max() < 1e-10 * max(1.0, np.abs(a).max())
    assert abs(np.trace(p) - k) < 1e-10


# ---------------------------------------------------------------------------
# moore_penrose


def test_pinv_zero_matrix():
    out = linalg.moore_penrose(np.zeros((3, 2)))
    assert out.shape == (2, 3)
    assert np.all(out == 0.0)


def test_pinv_diagonal():
    assert_allclose(linalg.moore_penrose(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-15)


def _penrose_residuals(a, a_pinv):
    return (
        np.abs(a @ a_pinv @ a - a).max(),
        np.abs(a_pinv @ a @ a_pinv - a_pinv).max(),
        np.abs((a @ a_pinv).T - a @ a_pinv).max(),
        np.abs((a_pinv @ a).T - a_pinv @ a).max(),
    )


def test_pinv_seeded_rank2_against_numpy_oracle():
    rng = np.random.default_rng(43)
    a = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 3))  # rank 2, 4x3
    out = linalg.moore_penrose(a)
    assert_allclose(out, np.linalg.pinv(a, rcond=1e-12), atol=1e-11)
    scale = max(1.0, np.abs(a).max(), np.abs(out).max())
    for resid in _penrose_residuals(a, out):
        assert resid < 1e-9 * scale


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=1, max_value=6),
    rank=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_penrose_conditions_all_ranks(n, m, rank, seed):
    rank = min(rank, n, m)
    rng = np.random.default_rng(seed)
    if rank == 0:
        a = np.zeros((n, m))
    else:
        a = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, m))
    out = linalg.moore_penrose(a)
    scale = max(1.0, np.abs(a).max(), np.abs(out).max())
    for resid in _penrose_residuals(a, out):
        assert resid < 1e-9 * scale


# ---------------------------------------------------------------------------
# Kronecker / row-stacking vec orientation: kron(A, B) vec_t(M) = vec_t(A M B')
# with vec_t(M) = M.reshape(-1). AsymptoticLaw.full and the normality
# whitener in mc.summarize_cell rely on this pairing.


def test_kron_vec_identity_seeded():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3))
    m = rng.standard_normal((2, 3))
    lhs = np.kron(a, b) @ m.reshape(-1)
    rhs = (a @ m @ b.T).reshape(-1)
    assert_allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    a_rows=st.integers(min_value=1, max_value=4),
    a_cols=st.integers(min_value=1, max_value=4),
    b_rows=st.integers(min_value=1, max_value=4),
    b_cols=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_kron_vec_compatibility(a_rows, a_cols, b_rows, b_cols, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((a_rows, a_cols))
    b = rng.standard_normal((b_rows, b_cols))
    m = rng.standard_normal((a_cols, b_cols))
    lhs = np.kron(a, b) @ m.reshape(-1)
    rhs = (a @ m @ b.T).reshape(-1)
    assert_allclose(lhs, rhs, atol=1e-10)


# ---------------------------------------------------------------------------
# inv_sqrt_spd


def test_inv_sqrt_identity():
    assert_allclose(linalg.inv_sqrt_spd(np.eye(4)), np.eye(4), atol=1e-12)


def test_inv_sqrt_diagonal():
    assert_allclose(
        linalg.inv_sqrt_spd(np.diag([4.0, 9.0])), np.diag([0.5, 1.0 / 3.0]), atol=1e-14
    )


def test_inv_sqrt_seeded_residual():
    a = _spd(np.random.default_rng(3), 3)
    b = linalg.inv_sqrt_spd(a)
    assert np.abs(b @ a @ b - np.eye(3)).max() < 1e-9
    assert np.abs(b - b.T).max() == 0.0
    assert np.abs(b @ a - a @ b).max() < 1e-9


def test_inv_sqrt_rejects_indefinite():
    with pytest.raises(NotSpd):
        linalg.inv_sqrt_spd(np.diag([1.0, -1.0]))
    with pytest.raises(NotSpd):
        linalg.inv_sqrt_spd(np.zeros((2, 2)))
    with pytest.raises(NotSpd):
        linalg.inv_sqrt_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))


@settings(max_examples=200, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=5),
    low=st.sampled_from([-1.0, -1e-3, 0.0, 1e-14, 1e-3, 0.5, 1.0]),
    skew=st.sampled_from([0.0, 1e-13, 1e-6]),
    scale=st.sampled_from([0.0, 1e-3, 1.0, 1e3]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_inv_sqrt_refuses_exactly_what_check_spd_refuses(p, low, skew, scale, seed):
    # eigenvalues {low} + U(1, 10): indefinite, singular, near-singular or SPD,
    # then scaled (0 gives the zero matrix) and optionally made asymmetric
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    w = rng.uniform(1.0, 10.0, p)
    w[0] = low
    a = scale * (q * w) @ q.T
    k = rng.standard_normal((p, p))
    a = (a + a.T) / 2.0 + skew * scale * (k - k.T)
    try:
        linalg.check_spd(a)
    except NotSpd:
        with pytest.raises(NotSpd):
            linalg.inv_sqrt_spd(a)
    else:
        b = linalg.inv_sqrt_spd(a)
        assert np.abs(b @ a @ b - np.eye(p)).max() < 1e-9


# ---------------------------------------------------------------------------
# the projector/pseudo-inverse bridge identity


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_weighted_projection_identity(seed):
    rng = np.random.default_rng(seed)
    p, q = 6, 3
    z = rng.standard_normal((p, q))
    sigma = _spd(rng, p)
    lhs = z @ np.linalg.solve(z.T @ np.linalg.solve(sigma, z), z.T)
    p_z = linalg.orth_projector(z)
    rhs = linalg.moore_penrose(p_z @ np.linalg.inv(sigma) @ p_z)
    assert np.abs(lhs - rhs).max() < 1e-8


def test_weighted_projection_identity_identity_covariance():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((5, 2))
    p_z = linalg.orth_projector(z)
    lhs = z @ np.linalg.solve(z.T @ z, z.T)
    rhs = linalg.moore_penrose(p_z @ p_z)
    assert np.abs(lhs - p_z).max() < 1e-10
    assert np.abs(rhs - p_z).max() < 1e-10


# ---------------------------------------------------------------------------
# validation plumbing


def test_as_matrix_rejects_nan_and_bad_shapes():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        linalg.as_matrix(np.array([[np.inf, 1.0]]))
    with pytest.raises(ValueError):
        linalg.as_matrix(np.ones(3))


def test_check_spd_rejects_asymmetric():
    a = np.array([[1.0, 0.1], [0.0, 1.0]])
    with pytest.raises(NotSpd):
        linalg.check_spd(a)


def test_check_spd_accepts_valid():
    a = _spd(np.random.default_rng(9), 4)
    out = linalg.check_spd(a)
    assert out is a or np.array_equal(out, a)
