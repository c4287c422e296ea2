"""Asymptotic law, plug-in covariance, whitened statistic and the chi-square test."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from gcm import cli, estimators, fileio, inference, linalg, model
from gcm.errors import NotSpd

TIMES4 = (1.0, 2.0, 3.0, 4.0)


def _ar_sigma(p, rho=0.4):
    idx = np.arange(p)
    return rho ** np.abs(np.subtract.outer(idx, idx))


def _spd(rng, p, jitter=0.5):
    g = rng.standard_normal((p, p))
    return g @ g.T + jitter * p * np.eye(p)


def _pr_data(seed, m=2, r=10, q=2, theta=None, family="gaussian", df=None):
    design = model.potthoff_roy_design(m, r, TIMES4, q)
    if theta is None:
        theta = np.linspace(0.5, 2.0, m * q).reshape(m, q)
    sigma = _ar_sigma(4)
    noise = model.NoiseSpec(family=family, sigma=sigma, df=df)
    return model.simulate(design, theta, noise, seed=seed), theta, sigma


# ---------------------------------------------------------------------------
# cov_factors with R = lim X'X/n: the limit law


def test_cov_factors_balanced_design_left_factor():
    # for the balanced design R = I/m, so the left factor is m C C'
    m, q = 3, 2
    contrast = model.equality_contrast(m, q)
    design = model.potthoff_roy_design(m, 2, TIMES4, q)
    sigma = _ar_sigma(4)
    law = inference.cov_factors(np.eye(m) / m, sigma, design.Z, contrast)
    assert_allclose(law.left, m * contrast.C @ contrast.C.T, atol=1e-12)


def test_cov_factors_identity_substitutions():
    rng = np.random.default_rng(5)
    m, q, p = 3, 2, 5
    z = rng.standard_normal((p, q))
    r_mat = _spd(rng, m)
    contrast = model.Contrast(C=np.eye(m), D=np.eye(q))
    law = inference.cov_factors(r_mat, np.eye(p), z, contrast)
    assert_allclose(law.left, np.linalg.inv(r_mat), atol=1e-10)
    assert_allclose(law.right, np.linalg.inv(z.T @ z), atol=1e-10)


def test_cov_factors_matches_unsimplified_form():
    # the right factor must equal D K'H' sigma H K D' with
    # H = sigma^{-1}(P_Z sigma^{-1} P_Z)^+ and K = Z(Z'Z)^{-1}: the closing
    # simplification of the covariance derivation
    rng = np.random.default_rng(29)
    m, q, p, s, t = 3, 2, 5, 2, 2
    z = rng.standard_normal((p, q))
    sigma = _spd(rng, p)
    r_mat = _spd(rng, m)
    contrast = model.Contrast(
        C=rng.standard_normal((s, m)), D=rng.standard_normal((t, q))
    )
    law = inference.cov_factors(r_mat, sigma, z, contrast)
    h = estimators.h_matrix(sigma, z)
    k = z @ np.linalg.inv(z.T @ z)
    right_unsimplified = contrast.D @ k.T @ h.T @ sigma @ h @ k @ contrast.D.T
    left = contrast.C @ np.linalg.inv(r_mat) @ contrast.C.T
    assert np.abs(law.full() - np.kron(left, right_unsimplified)).max() < 1e-8


# ---------------------------------------------------------------------------
# plugin_cov


def test_plugin_cov_balanced_design_left_factor_exact():
    m, r, q = 3, 5, 2
    data, theta, sigma = _pr_data(1, m=m, r=r, q=q)
    contrast = model.equality_contrast(m, q)
    law = inference.plugin_cov(data, contrast)
    assert_allclose(law.left, contrast.C @ contrast.C.T / r, atol=1e-12)


def test_plugin_cov_right_factor_is_spd_and_symmetric():
    data, _, _ = _pr_data(2)
    contrast = model.Contrast(C=np.eye(2), D=np.eye(2))
    law = inference.plugin_cov(data, contrast)
    assert np.abs(law.right - law.right.T).max() < 1e-10
    assert np.linalg.eigvalsh(law.right)[0] > 0.0


def test_scaled_plugin_left_approaches_limit_for_generic_designs():
    # rows of X drawn iid with second moment Q, so X'X/n -> Q
    rng = np.random.default_rng(77)
    mu = np.array([1.0, -0.5, 0.25])
    q_mat = np.eye(3) + np.outer(mu, mu)
    r_inv = np.linalg.inv(q_mat)
    errs = []
    for n in (200, 20_000):
        x = rng.standard_normal((n, 3)) + mu
        scaled = n * np.linalg.inv(x.T @ x)
        errs.append(np.abs(scaled - r_inv).max())
    assert errs[1] < errs[0]


# ---------------------------------------------------------------------------
# unbalanced designs: unequal group sizes plus a covariate column, so X'X is
# not diagonal and the finite-sample R = X'X/n differs from any group layout


@st.composite
def _unbalanced_problem(draw):
    sizes = draw(st.lists(st.integers(min_value=4, max_value=9), min_size=2, max_size=3))
    p = draw(st.integers(min_value=4, max_value=5))
    q = draw(st.integers(min_value=1, max_value=p - 1))
    m = len(sizes) + 1
    s = draw(st.integers(min_value=1, max_value=m))
    t = draw(st.integers(min_value=1, max_value=q))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    groups = np.repeat(np.eye(len(sizes)), sizes, axis=0)
    x = np.column_stack([groups, rng.standard_normal(groups.shape[0])])
    design = model.Design(X=x, Z=np.vander(np.arange(1.0, p + 1), q, increasing=True))
    sigma = _spd(rng, p)
    theta = rng.standard_normal((m, q))
    noise = model.NoiseSpec(family="gaussian", sigma=sigma)
    data = model.simulate(design, theta, noise, seed=int(rng.integers(2**31)))
    contrast = model.Contrast(C=rng.standard_normal((s, m)), D=rng.standard_normal((t, q)))
    return data, sigma, contrast


@settings(max_examples=25, deadline=None)
@given(problem=_unbalanced_problem())
def test_cov_factors_on_unbalanced_designs(problem):
    data, sigma, contrast = problem
    x, z, n = data.design.X, data.design.Z, data.design.n
    assert np.abs(x.T @ x - np.diag(np.diag(x.T @ x))).max() > 0.0
    c, d = contrast.C, contrast.D

    # the shared factors against explicit inverses
    law = inference.cov_factors(x.T @ x, sigma, z, contrast)
    left = c @ np.linalg.inv(x.T @ x) @ c.T
    right = d @ np.linalg.inv(z.T @ np.linalg.inv(sigma) @ z) @ d.T
    assert_allclose(law.left, left, rtol=1e-9, atol=1e-9 * np.abs(left).max())
    assert_allclose(law.right, right, rtol=1e-9, atol=1e-9 * np.abs(right).max())

    # the estimate report carries the plug-in factors and standard errors
    plugin = inference.plugin_cov(data, contrast)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        inputs = {"y": data.Y, "x": x, "z": z, "c": c, "d": d}
        argv = ["estimate", "--out", str(tmp / "out")]
        for name, mat in inputs.items():
            fileio.write_matrix_csv(str(tmp / f"{name}.csv"), mat)
            argv += [f"--{name}", str(tmp / f"{name}.csv")]
        assert cli.main(argv) == 0
        results = fileio.read_json(str(tmp / "out" / "report.json"))["results"]
    assert np.array_equal(np.asarray(results["cov_left"]), plugin.left)
    assert np.array_equal(np.asarray(results["cov_right"]), plugin.right)
    assert np.array_equal(
        np.asarray(results["std_errors"]), inference.standard_errors(plugin)
    )

    # the left standardizer of the whitened statistic is n times the plug-in left factor
    with mock.patch.object(linalg, "inv_sqrt_spd", wraps=linalg.inv_sqrt_spd) as spy:
        try:
            inference.standardized_stat(data, contrast)
        except NotSpd:
            # documented refusal: with p - q small and a raw Vandermonde Z the
            # plug-in standardizer can be numerically singular
            w = np.linalg.eigvalsh(spy.call_args_list[-1].args[0])
            assert w[0] <= linalg.RANK_RTOL * w[-1]
    assert np.array_equal(spy.call_args_list[0].args[0], n * plugin.left)


# ---------------------------------------------------------------------------
# standardized_stat


def test_standardized_stat_zero_gamma_gives_zero():
    # integer Y with columns summing to zero makes X'Y vanish exactly under
    # an intercept-only X, hence gamma_hat and T are exactly zero
    rng = np.random.default_rng(10)
    n, p = 8, 3
    y = rng.integers(-5, 6, size=(n - 1, p)).astype(float)
    y = np.vstack([y, -y.sum(axis=0)])
    assert np.array_equal(y.sum(axis=0), np.zeros(p))
    design = model.Design(X=np.ones((n, 1)), Z=np.vander((1.0, 2.0, 3.0), 2, increasing=True))
    data = model.Dataset(Y=y, design=design)
    contrast = model.Contrast(C=np.eye(1), D=np.eye(2))
    t_stat = inference.standardized_stat(data, contrast)
    assert np.array_equal(t_stat, np.zeros((1, 2)))
    outcome = inference.test_gamma_zero(data, contrast, alpha=0.05)
    assert outcome.chi_sq == 0.0
    assert outcome.p_value == 1.0
    assert not outcome.reject


def test_standardized_stat_scalar_case_matches_z_formula():
    data, _, _ = _pr_data(11)
    contrast = model.equality_contrast(2, 2)
    t_stat = inference.standardized_stat(data, contrast)
    assert t_stat.shape == (1, 1)
    n = data.design.n
    sig = estimators.sigma_hat(data)
    gamma = estimators.two_stage_gamma(data, contrast)[0, 0]
    c, d = contrast.C, contrast.D
    x, z = data.design.X, data.design.Z
    left = (n * c @ np.linalg.inv(x.T @ x) @ c.T).item()
    right = (d @ np.linalg.inv(z.T @ np.linalg.inv(sig) @ z) @ d.T).item()
    expected = np.sqrt(n) * gamma / np.sqrt(left * right)
    assert t_stat[0, 0] == pytest.approx(expected, abs=1e-10)


def test_standardized_stat_rejects_singular_standardizer():
    data, _, _ = _pr_data(12, m=3)
    c = np.array([[1.0, -1.0, 0.0], [1.0, -1.0, 0.0]])  # duplicated row
    contrast = model.Contrast(C=c, D=np.array([[0.0, 1.0]]))
    with pytest.raises(NotSpd):
        inference.standardized_stat(data, contrast)


def test_whitening_construction_is_exact():
    # whitening the law's own factors must give identity covariance; pure
    # matrix algebra, no simulation
    rng = np.random.default_rng(13)
    left = _spd(rng, 2)
    right = _spd(rng, 3)
    w_left = linalg.inv_sqrt_spd(left)
    w_right = linalg.inv_sqrt_spd(right)
    assert_allclose(w_left @ left @ w_left, np.eye(2), atol=1e-10)
    assert_allclose(w_right @ right @ w_right, np.eye(3), atol=1e-10)
    whitened = np.kron(w_left, w_right) @ np.kron(left, right) @ np.kron(w_left, w_right)
    assert_allclose(whitened, np.eye(6), atol=1e-9)


def test_whiten_matches_the_kronecker_whitener_on_one_matrix_and_a_stack():
    # whitening each s x t matrix is kron(left^{-1/2}, right^{-1/2}) applied to
    # its row-stacked form; only the order of the sums differs
    rng = np.random.default_rng(16)
    law = inference.AsymptoticLaw(left=_spd(rng, 2), right=_spd(rng, 3))
    stack = rng.standard_normal((5, 2, 3))
    kron = np.kron(linalg.inv_sqrt_spd(law.left), linalg.inv_sqrt_spd(law.right))
    expected = (stack.reshape(5, -1) @ kron.T).reshape(5, 2, 3)
    tol = 64 * np.finfo(np.float64).eps * np.abs(expected).max()
    assert_allclose(law.whiten(stack), expected, rtol=0, atol=tol)
    assert_allclose(law.whiten(stack[0]), expected[0], rtol=0, atol=tol)


def test_statistic_invariant_to_left_contrast_scaling():
    data, _, _ = _pr_data(14, m=3)
    rng = np.random.default_rng(15)
    c = rng.standard_normal((2, 3))
    d = np.array([[0.0, 1.0]])
    m_mat = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
    base = inference.test_gamma_zero(data, model.Contrast(C=c, D=d), 0.05)
    scaled = inference.test_gamma_zero(data, model.Contrast(C=m_mat @ c, D=d), 0.05)
    assert scaled.chi_sq == pytest.approx(base.chi_sq, rel=1e-8)


# ---------------------------------------------------------------------------
# chi-square aggregation


def test_chi_sq_p_value_at_tabulated_quantile():
    # 3.841 is the textbook 95th percentile of chi-square with 1 dof
    assert inference.chi_sq_p_value(3.841, 1) == pytest.approx(0.05, abs=1e-3)
    assert inference.chi_sq_p_value(3.8414588206941285, 1) == pytest.approx(0.05, abs=1e-12)


def test_chi_sq_p_value_validates_inputs():
    with pytest.raises(ValueError):
        inference.chi_sq_p_value(-1.0, 1)
    with pytest.raises(ValueError):
        inference.chi_sq_p_value(1.0, 0)
    with pytest.raises(ValueError):
        inference.chi_sq_p_value(1.0, 2.5)


@pytest.mark.parametrize("dof", range(1, 41))
def test_chi_sq_p_value_matches_scipy_oracle(dof):
    # closed-form upper tail vs scipy's incomplete gamma, from 0 to the
    # 1 - 1e-12 quantile and on out to the far tail
    top = stats.chi2.isf(1e-12, dof)
    points = np.concatenate([np.linspace(0.0, top, 400), np.linspace(1000.0, 1300.0, 31)])
    ours = np.array([inference.chi_sq_p_value(float(x), dof) for x in points])
    reference = stats.chi2.sf(points, dof)
    keep = reference > 1e-300
    assert keep.sum() >= 400
    assert_allclose(ours[keep], reference[keep], rtol=1e-12, atol=0.0)


@settings(max_examples=50, deadline=None)
@given(
    chi_a=st.floats(min_value=0.0, max_value=50.0),
    chi_b=st.floats(min_value=0.0, max_value=50.0),
    dof=st.integers(min_value=1, max_value=12),
)
def test_p_value_monotone_in_chi_sq(chi_a, chi_b, dof):
    lo, hi = sorted((chi_a, chi_b))
    assert inference.chi_sq_p_value(hi, dof) <= inference.chi_sq_p_value(lo, dof)


def test_reject_monotone_in_alpha():
    data, _, _ = _pr_data(16)
    contrast = model.equality_contrast(2, 2)
    alphas = (0.001, 0.01, 0.05, 0.2, 0.8, 1.0)
    rejects = [inference.test_gamma_zero(data, contrast, a).reject for a in alphas]
    assert rejects == sorted(rejects)  # once rejecting, stays rejecting


def test_alpha_domain():
    data, _, _ = _pr_data(17)
    contrast = model.equality_contrast(2, 2)
    with pytest.raises(ValueError):
        inference.test_gamma_zero(data, contrast, 0.0)
    with pytest.raises(ValueError):
        inference.test_gamma_zero(data, contrast, 1.5)
    outcome = inference.test_gamma_zero(data, contrast, 1.0)
    assert outcome.reject == (outcome.p_value < 1.0)


# ---------------------------------------------------------------------------
# sampling behavior of the whitened statistic under the null


def test_standardized_stat_is_approximately_standard_normal_under_null():
    # equal group curves, so gamma = 0 under the equality contrast; at
    # n = 500 each whitened entry should have mean ~0 and variance ~1
    m, r, q = 2, 250, 2
    theta = np.array([[1.0, 0.5], [1.0, 0.5]])
    design = model.potthoff_roy_design(m, r, TIMES4, q)
    sigma = _ar_sigma(4)
    noise = model.NoiseSpec(family="gaussian", sigma=sigma)
    contrast = model.equality_contrast(m, q)
    n_rep = 5000
    draws = np.empty(n_rep)
    for i in range(n_rep):
        data = model.simulate(design, theta, noise, seed=50_000 + i)
        draws[i] = inference.standardized_stat(data, contrast)[0, 0]
    assert abs(draws.mean()) < 0.05
    assert 0.9 < draws.var(ddof=1) < 1.1
