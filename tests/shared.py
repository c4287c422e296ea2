"""Values, matrices, laws and drivers (CSV inputs, child interpreters) that several test
modules build the same way.

Not a test module: pytest collects nothing here.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import gcm
from gcm import estimators, fileio, inference, model

TIMES4 = (1.0, 2.0, 3.0, 4.0)
# distinct times that pass validate's rank check, with cond(Z) 2.8e9 at q = 3
NEAR_COLLINEAR_TIMES = tuple(1.0 + 3e-5 * k for k in range(5))


def ar_sigma(p, rho=0.4):
    """The p x p AR(1) correlation matrix rho^|i - j|."""
    idx = np.arange(p)
    return rho ** np.abs(np.subtract.outer(idx, idx))


def balanced_problem(m=2, r=10, q=2, family="gaussian", df=None):
    """(design, theta, noise): the Potthoff-Roy design of m groups of r on TIMES4 with q
    growth terms, theta = linspace(0.5, 2) in m x q and noise of AR(0.4) sigma."""
    design = model.potthoff_roy_design(m, r, TIMES4, q)
    theta = np.linspace(0.5, 2.0, m * q).reshape(m, q)
    return design, theta, model.NoiseSpec(family=family, sigma=ar_sigma(4), df=df)


def write_inputs(directory, Y, X, Z, C, D, S0=None):
    """Write the CSVs of ``gcm estimate`` and ``gcm test`` as ``<name>.csv`` in ``directory``,
    and S0.csv, for --sigma0, when S0 is given."""
    for name, matrix in dict(Y=Y, X=X, Z=Z, C=C, D=D, S0=S0).items():
        if matrix is not None:
            fileio.write_matrix_csv(str(Path(directory) / f"{name}.csv"), matrix)


def estimation_argv(directory, **swap):
    """--y, --x, --z, --c and --d naming the CSVs of ``write_inputs`` in ``directory``.
    ``swap`` names another file for a flag (``y="bad.csv"``) or adds a flag (``sigma0="S0.csv"``,
    ``out="o"``); an absolute path stays as it is."""
    files = {"y": "Y.csv", "x": "X.csv", "z": "Z.csv", "c": "C.csv", "d": "D.csv", **swap}
    return [a for flag, name in files.items() for a in (f"--{flag}", str(Path(directory) / name))]


def read_inputs(directory):
    """The Dataset and Contrast that the CSVs of ``write_inputs`` in ``directory`` hold."""
    y, x, z, c, d = (fileio.read_matrix_csv(str(Path(directory) / f"{n}.csv")) for n in "YXZCD")
    return model.Dataset(Y=y, design=model.Design(X=x, Z=z)), model.Contrast(C=c, D=d)


def child_python(*args, **env) -> subprocess.CompletedProcess:
    """``python args`` in a fresh interpreter, its output captured as text. The ``src`` of
    the gcm this process imported goes first on its PYTHONPATH, so the child imports that
    gcm too; ``env`` sets more variables, or unsets one given as None."""
    src = os.path.dirname(os.path.dirname(gcm.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    environ = {**os.environ, **env, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          timeout=120, env={k: v for k, v in environ.items() if v is not None})


def spd(rng, p, jitter=0.5):
    """A random p x p SPD matrix G G' + jitter p I."""
    g = rng.standard_normal((p, p))
    return g @ g.T + jitter * p * np.eye(p)


def spd_of_cond(rng, p, log_cond):
    """A random orthogonal basis with eigenvalues spread over 10**log_cond."""
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    a = (q * np.logspace(0.0, -log_cond, p)) @ q.T
    return (a + a.T) / 2.0


def zero_pivot_x():
    """The 40 x 3 X = [1, b, b + 3e-9 e] (b, e standard normal) and the rng that drew it.

    X has full column rank at RANK_RTOL (singular value ratio 1.3e-9), yet X'X
    has a Cholesky factor and a zero LU pivot. A caller draws Y from the rng.
    """
    rng = np.random.default_rng(3)
    b = rng.standard_normal(40)
    e = rng.standard_normal(40)
    return np.column_stack([np.ones(40), b, b + 3e-9 * e]), rng


# ---------------------------------------------------------------------------
# reparametrization laws: each transform rewrites (data, contrast) as the same model
# in another basis, so gamma = C theta D' and the chi-square of gamma = 0 stay


def x_basis(data, contrast, a):
    """X -> XA and C -> CA: theta becomes A^{-1} theta."""
    design = model.Design(X=data.design.X @ a, Z=data.design.Z)
    return model.Dataset(Y=data.Y, design=design), model.Contrast(C=contrast.C @ a, D=contrast.D)


def z_basis(data, contrast, t):
    """Z -> ZT and D -> DT: theta becomes theta T^{-T}."""
    design = model.Design(X=data.design.X, Z=data.design.Z @ t)
    return model.Dataset(Y=data.Y, design=design), model.Contrast(C=contrast.C, D=contrast.D @ t)


def y_basis(data, contrast, m):
    """Y -> YM and Z -> M'Z: theta stays, the row covariance becomes M' sigma M."""
    design = model.Design(X=data.design.X, Z=m.T @ data.design.Z)
    return model.Dataset(Y=data.Y @ m, design=design), contrast


def identity_contrast(design):
    """The contrast whose gamma is theta."""
    return model.Contrast(C=np.eye(design.m), D=np.eye(design.q))


def invariance_gaps(data, contrast, transform, matrix) -> tuple:
    """Relative changes of the two-stage gamma_hat and of the chi-square of gamma = 0 when
    ``transform(data, contrast, matrix)`` rewrites the problem; both are 0 in exact arithmetic."""
    fits = [
        (estimators.two_stage_gamma(d, c), inference.test_gamma_zero(d, c, 0.05).chi_sq)
        for d, c in ((data, contrast), transform(data, contrast, matrix))
    ]
    (g0, chi0), (g1, chi1) = fits
    return np.abs(g1 - g0).max() / np.abs(g0).max(), abs(chi1 - chi0) / chi0


def mean_shift_gaps(data, contrast, delta) -> tuple:
    """Largest entrywise changes of sigma_hat and of gamma_hat - C delta D' when Y moves to
    Y + X delta Z' (``model.shift``); both are 0 in exact arithmetic."""
    shifted = model.shift(data, delta)
    s0, s1 = (estimators.sigma_hat(d).a for d in (data, shifted))
    g0, g1 = (estimators.two_stage_gamma(d, contrast) for d in (data, shifted))
    return np.abs(s1 - s0).max(), np.abs(g1 - (g0 + contrast.apply(delta))).max()
