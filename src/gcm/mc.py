"""Monte Carlo verification harness.

Empirically checks the large-sample behavior of the two-stage estimator on
balanced groups-by-time scenarios: error trends as the group size grows
(consistency), centering of gamma_hat under symmetric errors
(unbiasedness), the Kronecker-factored normal limit of the scaled error
(normality) and the level of the chi-square test (level). ``KINDS`` maps
each of these run kinds to the ``Kind`` spec that is all it adds to the
shared replicate loop, cell summary and tables.

Replicate i of sample-size cell j draws its seed from a substream keyed
only on (seed, j, i), so reports are byte-identical regardless of the
worker count. Each replicate draws one dataset. A level replicate tests it
and, for the power column, the same dataset shifted to the alternative
(``model.shift``), so the null and power tests share their noise (common
random numbers). GCM_THREADS sets the number of worker processes (0 = one per
CPU, default 1), capped at the CPUs this process may run on.
"""

from __future__ import annotations

import math
import numbers
import os
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import estimators, fileio, inference, linalg, model
from .errors import ConfigError, NotSpd, TooFewSamples, excerpt

# Offset to one theta entry that gives level runs their alternative (power is context only).
_ALT_BUMP = 0.5

# Bounds on the work a config may ask for: replicates per cell, entries per data matrix.
MAX_REPLICATIONS = 10**6
MAX_MATRIX_ELEMENTS = 2**24


@dataclass(frozen=True, eq=False)
class Scenario:
    """Balanced simulation scenario: m groups of r subjects on a polynomial profile.

    ``times`` fixes the p measurement points, ``q`` the polynomial
    coefficient count, ``theta`` the m x q group coefficients, ``noise`` the
    error family and its p x p row covariance, and ``contrast`` gives
    gamma = C theta D' (None: identities). The limit of X'X/n is I_m / m for
    every group size r, so the asymptotic law is known in closed form.

    Construction checks the inputs once and builds what every replicate
    reads: the p x q profile matrix ``z`` and ``gamma_true``.
    """

    m: int
    q: int
    times: tuple
    theta: np.ndarray
    noise: model.NoiseSpec
    contrast: model.Contrast | None = None
    z: np.ndarray = field(init=False, repr=False)
    gamma_true: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m, q = check_int(self.m, "m"), check_int(self.q, "q")
        times = tuple(check_floats(self.times, "times", 1).tolist())
        theta = check_floats(self.theta, "theta", 2)
        if theta.shape != (m, q):
            raise ConfigError(f"theta must be {m} x {q}, got {theta.shape}")
        if self.noise.p != len(times):
            p = len(times)
            raise ConfigError(f"sigma must be {p} x {p}, got {self.noise.sigma.shape}")
        contrast = self.contrast
        if contrast is None:
            contrast = model.Contrast(C=np.eye(m), D=np.eye(q))
        if contrast.C.shape[1] != m or contrast.D.shape[1] != q:
            raise ConfigError(
                f"contrast must have m={m} and q={q} columns, got "
                f"C {contrast.C.shape}, D {contrast.D.shape}"
            )
        built = {
            "m": m,
            "q": q,
            "times": times,
            "theta": theta,
            "contrast": contrast,
            "z": np.vander(np.asarray(times), q, increasing=True),
            "gamma_true": contrast.apply(theta),
        }
        for name, value in built.items():
            object.__setattr__(self, name, value)

    def check_size(self, r, key: str) -> int:
        """Group size ``key``, refused if Y (n x p) or X (n x m) exceeds MAX_MATRIX_ELEMENTS."""
        r = check_int(r, key)
        if r * self.m * max(self.m, len(self.times)) > MAX_MATRIX_ELEMENTS:
            raise ConfigError(f"{key} {r} needs more than {MAX_MATRIX_ELEMENTS} entries in Y or X")
        return r

    def design(self, r: int) -> model.Design:
        return model.potthoff_roy_design(self.m, r, self.times, self.q)

    def law(self) -> inference.AsymptoticLaw:
        """Closed-form limit covariance factors; R = lim X'X/n is I_m / m."""
        r_limit = linalg.SpdFactor(np.eye(self.m) / self.m, "R")
        return inference.cov_factors(r_limit, self.noise.factor, self.z, self.contrast)

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        required = ("m", "q", "times", "theta", "sigma")
        fileio.check_keys(d, "scenario", required, ("noise", "contrast"))
        noise = d.get("noise", {"family": "gaussian"})
        fileio.check_keys(noise, "scenario noise", ("family",), ("df",))
        df = noise.get("df")
        try:
            spec = model.NoiseSpec(
                family=noise["family"],
                sigma=check_floats(d["sigma"], "sigma", 2),
                df=None if df is None else check_floats(df, "df", 0),
            )
        except NotSpd as exc:
            raise ConfigError(f"scenario key 'sigma': {exc}") from exc
        theta = check_floats(d["theta"], "theta", 2)
        contrast = _contrast(d.get("contrast", "identity"), *theta.shape)
        return cls(d["m"], d["q"], d["times"], theta, noise=spec, contrast=contrast)


def check_int(value, key: str, low: int = 1, high: float = math.inf) -> int:
    """Config ``key`` as an integer in [low, high); non-integers are refused, never truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not low <= value < high:
        raise ConfigError(f"{key} must be an integer in [{low}, {high}), got {excerpt(value)}")
    return int(value)


def check_floats(value, key: str, ndim: int):
    """Config ``key`` as a finite float (ndim 0) or ndim-d float64 array, else a ConfigError.

    Strings and booleans are refused, never coerced."""
    try:
        out = np.asarray(value, dtype=np.float64) if _real_leaves(value, ndim) else None
    except (ValueError, OverflowError):  # ragged rows, an int beyond float range
        out = None
    if out is None or out.ndim != ndim or not np.isfinite(out).all():
        kind = ("a finite number", "a list of finite numbers",
                "a list of equal-length rows of finite numbers")[ndim]
        raise ConfigError(f"{key} must be {kind}, got {excerpt(value)}")
    return float(out) if ndim == 0 else out


def _real_leaves(value, depth: int) -> bool:
    """Whether every leaf of the lists or arrays ``value``, nested ``depth`` levels at
    most, is a real non-bool number; deeper lists are not looked into."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    if isinstance(value, (list, tuple)):
        return depth > 0 and all(_real_leaves(v, depth - 1) for v in value)
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _contrast(entry, m, q) -> model.Contrast | None:
    """The contrast of a config entry for an m x q theta: 'identity' (None), 'equality' or
    explicit c/d. The caller passes theta's shape, so a huge m or q builds no matrix."""
    if entry == "identity":
        return None
    if entry == "equality":
        return model.equality_contrast(m, q)
    if isinstance(entry, dict) and set(entry) == {"c", "d"}:
        return model.Contrast(
            C=check_floats(entry["c"], "contrast c", 2), D=check_floats(entry["d"], "contrast d", 2)
        )
    raise ConfigError("contrast must be 'identity', 'equality' or an object with keys 'c' and 'd'")


@dataclass(frozen=True, eq=False)
class McConfig:
    """One harness run: a scenario, the group sizes to sweep, replication count and seed.

    Checks the values every run kind shares, bounded distinct sizes and replications, and
    the test level ``alpha``, which level runs read."""

    scenario: Scenario
    sample_sizes: tuple
    replications: int
    seed: int
    alpha: float = 0.05

    def __post_init__(self):
        if not isinstance(self.sample_sizes, (list, tuple)) or not self.sample_sizes:
            raise ConfigError("sample_sizes must be a non-empty list of integers, "
                              f"got {excerpt(self.sample_sizes)}")
        sizes = tuple(self.scenario.check_size(r, "sample_sizes entry") for r in self.sample_sizes)
        if len(set(sizes)) != len(sizes):
            raise ConfigError(f"sample_sizes must not repeat a size, got {excerpt(list(sizes))}")
        alpha = check_floats(self.alpha, "alpha", 0)
        if not 0.0 < alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
        checked = {
            "sample_sizes": sizes,
            "replications": check_int(self.replications, "replications", 1, MAX_REPLICATIONS + 1),
            "seed": check_int(self.seed, "seed", 0, 2**64),
            "alpha": alpha,
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, d: dict, kind: str) -> "McConfig":
        """The config of a ``kind`` run: a key that the kind does not read is refused."""
        required = ("scenario", "sample_sizes", "replications", "seed")
        fileio.check_keys(d, "config", required, _spec(kind).config_keys)
        return cls(
            scenario=Scenario.from_dict(d["scenario"]),
            sample_sizes=d["sample_sizes"],
            replications=d["replications"],
            seed=d["seed"],
            alpha=d.get("alpha", 0.05),
        )


def gamma_columns(s: int, t: int) -> list:
    return [f"gamma_{i}_{j}" for i in range(s) for j in range(t)]


def record_columns(kind: str, s: int, t: int) -> list:
    """Per-replicate record schema for a run kind, in dump order."""
    return ["ok", *gamma_columns(s, t), *KINDS[kind].columns]


def replicate_seed(seed: int, cell_index: int, rep: int) -> int:
    """Deterministic 64-bit seed for one replicate, independent of scheduling."""
    # the trailing 0 keeps each replicate's stream, and so every report, as earlier releases drew it
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(cell_index, rep, 0))
    return int(ss.generate_state(1, np.uint64)[0])


def _worker_count() -> int:
    raw = os.environ.get("GCM_THREADS")
    if raw is None or raw.strip() == "":
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"GCM_THREADS must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ConfigError(f"GCM_THREADS must be >= 0, got {value}")
    # never more workers than CPUs this process may run on
    if hasattr(os, "sched_getaffinity"):
        available = len(os.sched_getaffinity(0))
    else:
        available = os.cpu_count() or 1
    return available if value == 0 else min(value, available)


def _replicate(kind: str, cfg: McConfig, prep, cell_index: int, design, i: int) -> tuple:
    """Record of replicate ``i`` of one cell; a failed fit is ok = 0 with nan elsewhere."""
    spec, scenario = KINDS[kind], cfg.scenario
    seed = replicate_seed(cfg.seed, cell_index, i)
    data = model.simulate(design, scenario.theta, scenario.noise, seed)
    try:
        gam, extra = spec.replicate(cfg, prep, data)
    except (TooFewSamples, NotSpd):
        width = len(record_columns(kind, scenario.contrast.s, scenario.contrast.t))
        return (0.0,) + (math.nan,) * (width - 1)
    return (1.0, *gam.reshape(-1), *extra)


def _run_cell(kind: str, cfg: McConfig, prep, cell_index: int, design, worker_init=None) -> dict:
    """Records of every replicate of one cell, as column name -> array."""
    one = partial(_replicate, kind, cfg, prep, cell_index, design)
    n_rep, workers = cfg.replications, _worker_count()
    if workers <= 1 or n_rep < 2 * workers:
        rows = list(map(one, range(n_rep)))
    else:
        from concurrent.futures import ProcessPoolExecutor  # only runs that use the pool load it

        with ProcessPoolExecutor(max_workers=workers, initializer=worker_init) as pool:
            rows = list(pool.map(one, range(n_rep), chunksize=math.ceil(n_rep / (4 * workers))))
    contrast = cfg.scenario.contrast
    return dict(zip(record_columns(kind, contrast.s, contrast.t), np.array(rows).T))


def ks_distance_normal(x: np.ndarray) -> float | np.ndarray:
    """Kolmogorov-Smirnov distance between each sample along the last axis and the standard
    normal CDF; a float for a 1-D sample."""
    x = np.sort(np.asarray(x, dtype=np.float64), axis=-1)
    n = x.shape[-1]
    cdf = 0.5 * np.vectorize(math.erfc, otypes=[np.float64])(-x / math.sqrt(2.0))
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    distance = np.maximum(upper.max(axis=-1), lower.max(axis=-1))
    return float(distance) if distance.ndim == 0 else distance


def summarize_cell(kind: str, records: dict, scenario: Scenario, r: int) -> dict:
    """The report cell of one sample size, the shared keys and the kind's, from its records.

    Pure function of the recorded values, so reloading a persisted dump and
    re-summarizing reproduces the report exactly.
    """
    spec = KINDS[kind]
    s, t = scenario.contrast.s, scenario.contrast.t
    ok = records["ok"] == 1.0
    kept = {name: column[ok] for name, column in records.items()}
    n_rep = records["ok"].size
    successes = int(ok.sum())
    gam = np.column_stack([kept[c] for c in gamma_columns(s, t)])
    mean_gamma = gam.mean(axis=0).reshape(s, t) if successes else np.full((s, t), np.nan)
    if successes >= 2:
        se = (gam.std(axis=0, ddof=1) / np.sqrt(successes)).reshape(s, t)
    else:
        se = np.full((s, t), np.nan)
    cell = {
        "r": r,
        "n": r * scenario.m,
        "replications": n_rep,
        "successes": successes,
        "failures": n_rep - successes,
        "mean_gamma": mean_gamma,
        "bias": mean_gamma - scenario.gamma_true,
        "se": se,
    }
    if successes >= spec.min_successes:
        cell.update(spec.summarize(cell, kept, gam, scenario))
    return cell


def _spec(kind: str) -> Kind:
    if kind not in KINDS:
        raise ConfigError(f"unknown run kind {kind!r}")
    return KINDS[kind]


def _validate_config(cfg: McConfig) -> list:
    """Each cell's validated design."""
    designs = []
    for r in cfg.sample_sizes:
        design = cfg.scenario.design(r)
        model.validate(design)
        if design.n - design.m < design.p:
            raise ConfigError(
                f"sample size r={r} gives n - m < p; the first stage would be singular"
            )
        designs.append(design)
    return designs


def run(kind: str, cfg: McConfig, worker_init=None) -> tuple:
    """Run one of ``KINDS`` over the sizes of ``cfg``; returns the cells and each one's records.
    Each process-pool worker (see ``GCM_THREADS``) calls ``worker_init``, if given, first."""
    spec = _spec(kind)
    designs = _validate_config(cfg)
    prep = spec.prepare(cfg)
    cells, records = [], []
    for j, (r, design) in enumerate(zip(cfg.sample_sizes, designs)):
        rec = _run_cell(kind, cfg, prep, j, design, worker_init)
        cells.append(summarize_cell(kind, rec, cfg.scenario, r))
        records.append(rec)
    return cells, records


# ---------------------------------------------------------------------------
# run kinds


@dataclass(frozen=True, eq=False)
class Kind:
    """What one run kind adds to the shared replicate loop and cell summary.

    ``prepare(cfg)`` runs the kind's own config checks and returns the
    per-run value each replicate reads. ``replicate(cfg, prep, data)``
    fits one dataset and returns gamma_hat and the values of the record
    ``columns``. ``summarize(cell, kept, gam, scenario)`` gives the keys the
    kind adds to a cell with ``min_successes`` successes or more, from the
    records ``kept`` and gamma_hat rows ``gam`` of its successful replicates.
    ``tables`` maps each file under tables/ to its header and a (cfg, cell) ->
    rows function. ``config_keys`` lists the optional config keys the kind
    reads, beyond those every kind requires.
    """

    columns: tuple
    prepare: Callable
    replicate: Callable
    summarize: Callable
    min_successes: int
    tables: dict
    config_keys: tuple = ()


def _check_full_row_rank(cfg: McConfig) -> None:
    """Refuse C or D without full row rank by the SPD check of the limit law's factors, which
    normality runs whiten by; level runs whiten by each replicate's plug-in law."""
    law = cfg.scenario.law()
    for factor, name in ((law.left, "C R^{-1} C'"), (law.right, "D (Z' sigma^{-1} Z)^{-1} D'")):
        try:
            linalg.check_spd(factor, name)
        except NotSpd as exc:
            raise ConfigError(f"the contrast must have full row rank: {exc}") from exc


def _gamma_replicate(cfg, prep, data) -> tuple:
    return estimators.two_stage_gamma(data, cfg.scenario.contrast), ()


_ERRORS = ("sigma_err", "gamma_err", "h_gap")


def _consistency_prepare(cfg: McConfig) -> np.ndarray:
    """Sizes must increase; returns the true H that each replicate's H(Y) is measured against."""
    if list(cfg.sample_sizes) != sorted(cfg.sample_sizes):
        raise ConfigError("sample_sizes must be strictly increasing for consistency runs")
    return estimators.h_matrix(cfg.scenario.noise.factor, cfg.scenario.z)


def _consistency_replicate(cfg, h_true, data) -> tuple:
    sig, theta = estimators.two_stage(data)
    gam = cfg.scenario.contrast.apply(theta)
    return gam, (
        np.linalg.norm(sig.a - cfg.scenario.noise.sigma),
        np.linalg.norm(gam - cfg.scenario.gamma_true),
        np.abs(estimators.h_matrix(sig, data.design.Z) - h_true).max(),
    )


def _consistency_summary(cell, kept, gam, scenario) -> dict:
    stats = {}
    for name in _ERRORS:
        stats[f"median_{name}"] = float(np.median(kept[name]))
        stats[f"mean_{name}"] = float(kept[name].mean())
    return stats


def _unbiasedness_summary(cell, kept, gam, scenario) -> dict:
    ratio = np.abs(cell["bias"]) / cell["se"]
    return {"max_abs_bias_in_se": float(ratio.max()), "bias_flagged": bool((ratio > 4.0).any())}


_MOMENTS = ("coord_mean", "coord_variance", "coord_skewness", "coord_ex_kurtosis")


def _normality_summary(cell, kept, gam, scenario) -> dict:
    law = scenario.law()
    theory = law.full()
    v = np.sqrt(cell["n"]) * (gam - scenario.gamma_true.reshape(-1))
    centered = v - v.mean(axis=0)
    emp = centered.T @ centered / (cell["successes"] - 1)
    # one row per coordinate, copied to C order so each row sums as a 1-D sample would
    coords = law.whiten(v.reshape(-1, *scenario.gamma_true.shape)).reshape(v.shape).T.copy()
    mu = coords.mean(axis=1)
    m2, m3, m4 = (((coords - mu[:, None]) ** k).mean(axis=1) for k in (2, 3, 4))
    moments = (mu, coords.var(axis=1, ddof=1), m3 / m2**1.5, m4 / m2**2 - 3.0)
    return {
        "emp_cov": emp,
        "theory_cov": theory,
        "rel_frobenius": float(np.linalg.norm(emp - theory) / np.linalg.norm(theory)),
        "ks_distance": ks_distance_normal(coords),
        **dict(zip(_MOMENTS, moments)),
    }


def _normality_rows(cfg, cell) -> list:
    """One row per whitened coordinate; none for a cell with fewer than 2 successes."""
    if "ks_distance" not in cell:
        return []
    ks = cell["ks_distance"]
    return list(zip(range(ks.size), ks, *(cell[name] for name in _MOMENTS)))


def _level_prepare(cfg: McConfig) -> np.ndarray:
    """Needs gamma = 0 and a full-row-rank contrast; returns the fixed shift to the alternative.

    That is the m x q delta that bumps theta's entry (i, j), i the first column C
    uses and j the last column D uses, so gamma moves by the bump times
    C[:, i] D[:, j]' != 0.
    """
    scenario = cfg.scenario
    if np.abs(scenario.gamma_true).max() > 1e-12:
        raise ConfigError(
            "level runs require C theta D' = 0 for the scenario theta; "
            f"got max |gamma| = {np.abs(scenario.gamma_true).max():.3e}"
        )
    _check_full_row_rank(cfg)
    delta = np.zeros_like(scenario.theta)
    c, d = scenario.contrast.C, scenario.contrast.D
    delta[np.flatnonzero(c.any(axis=0))[0], np.flatnonzero(d.any(axis=0))[-1]] = _ALT_BUMP
    return delta


def _level_replicate(cfg, delta, data) -> tuple:
    """The null test on ``data`` and the power test on ``data`` shifted by ``delta``, which
    shares its noise (common random numbers)."""
    contrast = cfg.scenario.contrast
    gam = estimators.two_stage_gamma(data, contrast)
    res = inference.test_gamma_zero(data, contrast, cfg.alpha)
    res_alt = inference.test_gamma_zero(model.shift(data, delta), contrast, cfg.alpha)
    return gam, (res.chi_sq, float(res.reject), res_alt.chi_sq, float(res_alt.reject))


def _level_summary(cell, kept, gam, scenario) -> dict:
    return {
        "rejection_rate": float(kept["reject"].mean()),
        "alt_rejection_rate": float(kept["reject_alt"].mean()),
    }


KINDS = {
    "consistency": Kind(
        _ERRORS, _consistency_prepare, _consistency_replicate, _consistency_summary, 1,
        {"consistency.csv": (
            ["n", "median_sigma_err", "median_gamma_err", "h_gap"],
            lambda cfg, cell: [(cell["n"], *(cell.get(f"median_{e}") for e in _ERRORS))],
        )},
    ),
    "unbiasedness": Kind((), lambda cfg: None, _gamma_replicate, _unbiasedness_summary, 2, {}),
    "normality": Kind(
        (), _check_full_row_rank, _gamma_replicate, _normality_summary, 2,
        {
            "covariance_match.csv": (
                ["relative_frobenius"], lambda cfg, cell: [(cell.get("rel_frobenius"),)]
            ),
            "normality.csv": (
                ["coordinate", "ks_distance", "mean", "variance", "skewness", "ex_kurtosis"],
                _normality_rows,
            ),
        },
    ),
    "level": Kind(
        ("chi_sq", "reject", "chi_sq_alt", "reject_alt"),
        _level_prepare, _level_replicate, _level_summary, 1,
        {"level.csv": (
            ["alpha", "rejection_rate", "n_replicates"],
            lambda cfg, cell: [(cfg.alpha, cell.get("rejection_rate"), cell["replications"])],
        )},
        ("alpha",),
    ),
}
