"""Growth curve model: designs, contrasts, noise families and simulation.

The model is Y = X Theta Z' + E with X (n x m) indexing individuals or
groups, Z (p x q) the within-individual profile (typically polynomial in
time), Theta the m x q coefficient matrix and the rows of E iid with mean
zero and covariance Sigma. Sigma and X'X are held as SpdFactors, built once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DegenerateTimes,
    DimensionMismatch,
    InvalidNoise,
    NotSpd,
    RankDeficient,
    ShapeViolation,
    excerpt,
)

NOISE_FAMILIES = ("gaussian", "uniform", "student_t")

# Half-width of the unit-variance symmetric uniform: U(-sqrt(3), sqrt(3)).
_UNIFORM_HALF_WIDTH = float(np.sqrt(3.0))


def _read_only(a) -> np.ndarray:
    """Read-only float64 copy of ``a``; the caller's array stays writable."""
    out = np.array(a, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Design:
    """Pair of full-rank design matrices.

    X is n x m (between-individual design, rows accumulate with sample
    size), Z is p x q (within-individual design, fixed as n grows). Both
    are held as read-only copies, so the quantities derived from them are
    computed once per design and stay valid. ``left_roots`` maps the bytes of
    a contrast's C to the whitening root (C (X'X)^{-1} C')^{-1/2}, which
    ``inference.standardized_stat`` fills on its first fit of the design.
    """

    X: np.ndarray
    Z: np.ndarray
    left_roots: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "X", _read_only(linalg.as_matrix(self.X, "X")))
        object.__setattr__(self, "Z", _read_only(linalg.as_matrix(self.Z, "Z")))

    @functools.cached_property
    def xtx_factor(self) -> linalg.SpdFactor:
        """The Gram matrix X'X, read-only as ``.a``, as the SpdFactor every solve with it shares."""
        return linalg.gram_factor(_read_only(self.X.T @ self.X))

    @functools.cached_property
    def rank_deficient(self) -> str | None:
        """Why X or Z lacks full column rank, else None.

        X and Z are checked at ``RANK_RTOL`` on their singular values, then
        ``xtx_factor`` is built: an X that passes the first check can still
        have an X'X that no factorization survives, and the reason names X'X.
        """
        for mat, name in ((self.X, "X"), (self.Z, "Z")):
            s = np.linalg.svd(mat, compute_uv=False)
            if s[-1] <= linalg.RANK_RTOL * s[0]:
                return f"{name} is rank deficient at tolerance {linalg.RANK_RTOL:g}"
        try:
            self.xtx_factor
        except NotSpd as exc:
            return str(exc)
        return None

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]

    @property
    def p(self) -> int:
        return self.Z.shape[0]

    @property
    def q(self) -> int:
        return self.Z.shape[1]


@dataclass(frozen=True, eq=False)
class Contrast:
    """Estimable transformation gamma = C theta D' with C (s x m), D (t x q)."""

    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "C", linalg.as_matrix(self.C, "C"))
        object.__setattr__(self, "D", linalg.as_matrix(self.D, "D"))

    @property
    def s(self) -> int:
        return self.C.shape[0]

    @property
    def t(self) -> int:
        return self.D.shape[0]

    def apply(self, theta: np.ndarray) -> np.ndarray:
        return self.C @ theta @ self.D.T

    def check(self, design: Design) -> None:
        """Refuse C or D whose column count is not X's or Z's."""
        if self.C.shape[1] != design.m:
            raise DimensionMismatch(f"C has {self.C.shape[1]} columns but X has {design.m}")
        if self.D.shape[1] != design.q:
            raise DimensionMismatch(f"D has {self.D.shape[1]} columns but Z has {design.q}")


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Symmetric error family with row covariance ``sigma``.

    Supported families: gaussian, uniform (symmetric about 0) and student_t
    with a finite df > 4. Base draws are standardized to unit variance per
    coordinate before the covariance transform, so E rows always have
    covariance sigma.
    ``sigma`` is held read-only as ``factor.a``, its SpdFactor, whose one ``eigh``
    checks it; its Cholesky factor is computed once.
    """

    family: str
    sigma: np.ndarray
    df: float | None = None
    factor: linalg.SpdFactor = field(init=False, repr=False)

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise InvalidNoise(
                f"unknown noise family {excerpt(self.family)}; expected one of {NOISE_FAMILIES}"
            )
        if self.family == "student_t":
            if self.df is None or not 4.0 < self.df < math.inf:
                raise InvalidNoise(
                    "student_t noise requires a finite df > 4 (finite fourth moments), "
                    f"got df={self.df!r}"
                )
            object.__setattr__(self, "df", float(self.df))
        elif self.df is not None:
            raise InvalidNoise(f"df is only meaningful for student_t, got {self.family!r}")
        factor = linalg.SpdFactor(_read_only(self.sigma), "sigma")
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "sigma", factor.a)

    @property
    def p(self) -> int:
        return self.sigma.shape[0]

    @functools.cached_property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor L of sigma, sigma = L L'."""
        return _read_only(np.linalg.cholesky(self.sigma))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observation matrix Y (n x p) together with the design that produced it."""

    Y: np.ndarray
    design: Design

    def __post_init__(self):
        object.__setattr__(self, "Y", linalg.as_matrix(self.Y, "Y"))
        if self.Y.shape[0] != self.design.n:
            raise DimensionMismatch(
                f"Y has {self.Y.shape[0]} rows but X has {self.design.n}"
            )
        if self.Y.shape[1] != self.design.p:
            raise DimensionMismatch(
                f"Y has {self.Y.shape[1]} columns but Z has {self.design.p} rows"
            )


def validate(design: Design) -> None:
    """Check the model shape constraints n > m, p > q and full column rank.

    Raises ShapeViolation or RankDeficient; all estimation entry points call
    this before touching the data. The rank verdict, which builds the X'X
    factor, is cached on the design, so the SVDs and the factorization run
    once per design while a bad design raises on every call.
    """
    if design.n <= design.m:
        raise ShapeViolation(f"need n > m, got n={design.n}, m={design.m}")
    if design.p <= design.q:
        raise ShapeViolation(f"need p > q, got p={design.p}, q={design.q}")
    reason = design.rank_deficient
    if reason is not None:
        raise RankDeficient(reason)


def potthoff_roy_design(m: int, r: int, times, q: int) -> Design:
    """Balanced groups-by-time design: m groups of r subjects, polynomial profile.

    X (n x m, n = r*m) stacks the group indicators in blocks of r rows; Z is
    the p x q Vandermonde matrix of the time points with increasing powers,
    row j = (1, t_j, t_j^2, ..., t_j^{q-1}). X'X = r * I_m exactly.
    """
    times = np.asarray(times, dtype=np.float64).ravel()
    p = times.size
    if m < 1 or r < 1:
        raise ShapeViolation(f"need m >= 1 and r >= 1, got m={m}, r={r}")
    if q < 1 or q > p:
        raise ShapeViolation(f"need 1 <= q <= p, got q={q}, p={p}")
    if not np.all(np.isfinite(times)):
        raise DegenerateTimes("time points must be finite")
    # a set, not np.unique, which loads numpy.ma; the times are finite, so float
    # equality decides, -0.0 == 0.0 included
    if len(set(times.tolist())) != p:
        raise DegenerateTimes("time points must be distinct")
    x = np.kron(np.eye(m), np.ones((r, 1)))
    return Design(X=x, Z=np.vander(times, q, increasing=True))


def equality_contrast(m: int, q: int) -> Contrast:
    """Contrast testing equality of all m profiles up to an additive constant.

    C = [I_{m-1} | -1] differences each group against the last; D = [0 | I_{q-1}]
    drops the constant term.
    """
    if m < 2 or q < 2:
        raise ShapeViolation(f"equality contrast needs m >= 2 and q >= 2, got m={m}, q={q}")
    c = np.hstack([np.eye(m - 1), -np.ones((m - 1, 1))])
    d = np.hstack([np.zeros((q - 1, 1)), np.eye(q - 1)])
    return Contrast(C=c, D=d)


def _standardized_rows(rng: np.random.Generator, noise: NoiseSpec, n: int) -> np.ndarray:
    """n x p matrix of iid mean-zero unit-variance draws from the base family."""
    shape = (n, noise.p)
    if noise.family == "gaussian":
        return rng.standard_normal(shape)
    if noise.family == "uniform":
        return rng.uniform(-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH, size=shape)
    df = float(noise.df)
    return rng.standard_t(df, size=shape) * np.sqrt((df - 2.0) / df)


def simulate(design: Design, theta: np.ndarray, noise: NoiseSpec, seed: int) -> Dataset:
    """Draw Y = X theta Z' + E with E rows iid, mean zero, covariance ``noise.sigma``.

    ``theta`` is the m x q coefficient matrix. E is generated as
    (standardized iid matrix) @ L' with L the lower Cholesky factor of the
    noise covariance. The standardized matrix is filled row by row from a
    single stream keyed on ``seed``, so identical inputs and seed reproduce
    Y byte for byte.
    """
    validate(design)
    theta = linalg.as_matrix(theta, "theta")
    if theta.shape != (design.m, design.q):
        raise DimensionMismatch(f"theta must be {design.m} x {design.q}, got {theta.shape}")
    if noise.p != design.p:
        raise DimensionMismatch(
            f"noise covariance is {noise.p} x {noise.p} but Z has {design.p} rows"
        )
    # PCG64 keys its stream on SeedSequence(seed), as default_rng does, without the wrapper
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    e = _standardized_rows(rng, noise, design.n) @ noise.chol.T
    y = design.X @ theta @ design.Z.T + e
    return Dataset(Y=y, design=design)


def shift(data: Dataset, delta: np.ndarray) -> Dataset:
    """The dataset Y + X delta Z' on the same design: ``data`` with theta moved by ``delta``.

    The noise is ``data``'s own, so the shifted dataset has the same first-stage
    residuals and sigma_hat, and its theta estimate moves by ``delta`` up to rounding.
    ``delta`` is m x q and is checked as ``simulate`` checks theta.
    """
    design = data.design
    validate(design)
    delta = linalg.as_matrix(delta, "delta")
    if delta.shape != (design.m, design.q):
        raise DimensionMismatch(f"delta must be {design.m} x {design.q}, got {delta.shape}")
    return Dataset(Y=data.Y + design.X @ delta @ design.Z.T, design=design)
