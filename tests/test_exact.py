"""Float routes of the p x p algebra against exact rational arithmetic.

A float64 input is an exact binary rational, so ``fractions.Fraction`` gives
the exact value of each quantity for that very input, and a route's error
needs no second float route to trust. Each bound is c * cond * eps, with c
set from measured draws; the near-collinear reproducer asks for 1e-6.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcm import estimators, inference, linalg, model
from shared import NEAR_COLLINEAR_TIMES, ar_sigma, spd_of_cond

EPS = np.finfo(float).eps


def _exact(a):
    return [[Fraction(float(x)) for x in row] for row in np.atleast_2d(a)]


def _exact_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _exact_solve(a, b):
    """a^{-1} b by Gauss-Jordan elimination on Fraction matrices (a nonsingular)."""
    n = len(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = [x / rows[col][col] for x in rows[col]]
        rows[col] = head
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], head)]
    return [row[n:] for row in rows]


def _rel_error(approx, exact) -> float:
    exact = np.array(exact, dtype=float)
    return float(np.abs(approx - exact).max() / np.abs(exact).max())


def _orthonormal(rng, p, k):
    return np.linalg.qr(rng.standard_normal((p, k)))[0]


def _z_of_cond(rng, p, q, log_cond):
    """p x q Z with singular values spread over 10**log_cond."""
    return (_orthonormal(rng, p, q) * np.logspace(0.0, -log_cond, q)) @ _orthonormal(rng, q, q).T


def _sigma(rng, p):
    g = rng.standard_normal((p, p))
    s = g @ g.T + 0.5 * p * np.eye(p)
    return (s + s.T) / 2.0


# c of each bound: over 60,000 draws of these strategies the worst relative
# error / (cond * eps) was 6.9 for SpdFactor.inv, 2.0 for solve_spd(a, I), and
# over cond(Z)^2 * eps 54 for h_matrix and 15 for the right factor; over 20,000
# draws, over cond(Z' S^{-1} Z) * eps 2.5 for the GLS theta, and over
# cond(Z)^2 * eps 14.8 for the closed-form H (68 for h_matrix)
C_INV = 32.0
C_H = 256.0
C_RIGHT = 64.0
C_GLS = 16.0
C_CLOSED_H = 64.0


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=6),
    log_cond=st.floats(min_value=0.0, max_value=8.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_factor_and_array_inverses_are_within_cond_eps_of_the_exact_inverse(p, log_cond, seed):
    a = spd_of_cond(np.random.default_rng(seed), p, log_cond)
    exact = _exact_solve(_exact(a), _exact(np.eye(p)))
    bound = C_INV * np.linalg.cond(a) * EPS
    assert _rel_error(linalg.SpdFactor(a).inv, exact) <= bound
    assert _rel_error(linalg.solve_spd(a, np.eye(p)), exact) <= bound


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=6),
    q=st.integers(min_value=1, max_value=5),
    log_cond=st.floats(min_value=0.0, max_value=4.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_h_and_the_right_factor_are_within_cond_z_squared_eps_of_exact(p, q, log_cond, seed):
    # H = S^{-1} Z (Z' S^{-1} Z)^{-1} Z' and (Z' S^{-1} Z)^{-1}, exactly
    q = min(q, p - 1)
    rng = np.random.default_rng(seed)
    z = _z_of_cond(rng, p, q, log_cond)
    sig = linalg.SpdFactor(_sigma(rng, p), "sigma")
    s_inv_z = _exact_solve(_exact(sig.a), _exact(z))
    g = _exact_matmul(_exact(z.T), s_inv_z)
    h = _exact_matmul(s_inv_z, _exact_solve(g, _exact(z.T)))
    right = _exact_solve(g, _exact(np.eye(q)))
    cond2 = np.linalg.cond(z) ** 2
    h_pinv = estimators.h_matrix(sig, z)
    assert _rel_error(h_pinv, h) <= C_H * cond2 * EPS
    # the closed form by two solve_spd calls, with no projector and no
    # pseudo-inverse: the route a batched H takes
    b = linalg.solve_spd(sig, z, "sigma")
    closed = b @ linalg.solve_spd(z.T @ b, z.T, "Z' sigma^{-1} Z")
    assert _rel_error(closed, h) <= C_CLOSED_H * cond2 * EPS
    assert _rel_error(closed, h_pinv) <= (C_CLOSED_H + C_H) * cond2 * EPS
    contrast = model.Contrast(C=np.eye(1), D=np.eye(q))
    law = inference.cov_factors(linalg.SpdFactor(np.eye(1), "R"), sig, z, contrast)
    assert _rel_error(law.right, right) <= C_RIGHT * cond2 * EPS


def _transpose(a):
    return [list(col) for col in zip(*a)]


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=6),
    q=st.integers(min_value=1, max_value=5),
    m=st.integers(min_value=1, max_value=3),
    log_cond=st.floats(min_value=0.0, max_value=4.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_gls_theta_is_within_cond_g_eps_of_the_exact_solve(p, q, m, log_cond, seed):
    # theta = (X'X)^{-1} X'Y S^{-1} Z G^{-1}, G = Z' S^{-1} Z, exactly; two rows per
    # group make X'X = 2 I, so the error left is the Z side's. Theta's entries are
    # 1 to 2 in size and the noise small, so theta_hat has no cancellation of its own
    q = min(q, p - 1)
    rng = np.random.default_rng(seed)
    z = _z_of_cond(rng, p, q, log_cond)
    sig = linalg.SpdFactor(_sigma(rng, p), "sigma")
    x = np.kron(np.eye(m), np.ones((2, 1)))
    theta = rng.uniform(1.0, 2.0, (m, q)) * rng.choice([-1.0, 1.0], (m, q))
    y = x @ theta @ z.T + 0.1 * rng.standard_normal((2 * m, p))
    xt = _exact(x.T)
    a = _exact_solve(_exact_matmul(xt, _exact(x)), _exact_matmul(xt, _exact(y)))
    b = _exact_solve(_exact(sig.a), _exact(z))
    g = _exact_matmul(_exact(z.T), b)
    exact = _transpose(_exact_solve(g, _transpose(_exact_matmul(a, b))))
    data = model.Dataset(Y=y, design=model.Design(X=x, Z=z))
    bound = C_GLS * np.linalg.cond(np.array(g, dtype=float)) * EPS
    assert _rel_error(estimators.theta_hat_known(data, sig), exact) <= bound


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
def test_theta_and_the_right_factor_on_near_collinear_times_are_within_1e_6_of_exact():
    # the near-collinear times pass validate's rank check (cond(Z) 2.8e9), but
    # Z' sigma_hat^{-1} Z is formed and solved: theta comes out wrong in sign and
    # size and the right factor's diagonal negative. The exact values are of
    # the same float Y, with sigma_hat exact too
    design = model.potthoff_roy_design(2, 20, NEAR_COLLINEAR_TIMES, 3)
    theta = np.array([[1.0, 0.5, 0.25], [2.0, 0.5, 0.25]])
    noise = model.NoiseSpec(family="gaussian", sigma=ar_sigma(5))
    data = model.simulate(design, theta, noise, seed=3)
    contrast = model.Contrast(C=np.array([[1.0, -1.0]]), D=np.eye(3))
    x, z = design.X, design.Z
    xt = _exact(x.T)
    a = _exact_solve(_exact_matmul(xt, _exact(x)), _exact_matmul(xt, _exact(data.Y)))
    fitted = _exact_matmul(_exact(x), a)
    resid = [[y - f for y, f in zip(ry, rf)] for ry, rf in zip(_exact(data.Y), fitted)]
    s = [[v / (design.n - design.m) for v in row]
         for row in _exact_matmul(_transpose(resid), resid)]
    b = _exact_solve(s, _exact(z))
    g = _exact_matmul(_exact(z.T), b)
    exact_theta = _transpose(_exact_solve(g, _transpose(_exact_matmul(a, b))))
    sig = estimators.sigma_hat(data)
    assert _rel_error(estimators.theta_hat_known(data, sig), exact_theta) <= 1e-6
    right = inference.plugin_cov(design, sig, contrast).right
    assert _rel_error(right, _exact_solve(g, _exact(np.eye(3)))) <= 1e-6
