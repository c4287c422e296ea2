"""Monte Carlo verification harness.

Empirically checks the large-sample behavior of the two-stage estimator on
balanced groups-by-time scenarios: error trends as the group size grows
(consistency), centering of gamma_hat under symmetric errors
(unbiasedness), the Kronecker-factored normal limit of the scaled error
(normality) and the level of the chi-square test (level).

Replicate i of sample-size cell j draws its seed from a substream keyed
only on (seed, j, i), so reports are byte-identical regardless of the
worker count. GCM_THREADS sets the number of worker processes (0 = one per
CPU, default 1), capped at the CPUs this process may run on.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import estimators, fileio, inference, linalg, model
from .errors import ConfigError, NotSpd, TooFewSamples

KINDS = ("consistency", "unbiasedness", "normality", "level")

# Offset added to one entry of theta to form the default fixed alternative
# reported by level runs (power is context, never an asserted bound).
_DEFAULT_ALT_BUMP = 0.5


@dataclass(frozen=True, eq=False)
class Scenario:
    """Balanced simulation scenario: m groups of r subjects on a polynomial profile.

    ``times`` fixes the p measurement points, ``q`` the polynomial
    coefficient count, ``theta`` the m x q group coefficients and ``sigma``
    the p x p row covariance. The limit of X'X/n is I_m / m for every group
    size r, so the asymptotic law is known in closed form.
    """

    m: int
    q: int
    times: tuple
    theta: np.ndarray
    sigma: np.ndarray
    noise_family: str = "gaussian"
    noise_df: float | None = None
    C: np.ndarray | None = None
    D: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        theta = linalg.as_matrix(self.theta, "theta")
        try:
            sigma = linalg.check_spd(self.sigma, "sigma")
        except NotSpd as exc:
            raise ConfigError(f"scenario key 'sigma': {exc}") from exc
        if theta.shape != (self.m, self.q):
            raise ConfigError(f"theta must be {self.m} x {self.q}, got {theta.shape}")
        if sigma.shape[0] != len(self.times):
            raise ConfigError(
                f"sigma must be {len(self.times)} x {len(self.times)}, got {sigma.shape}"
            )
        c = np.eye(self.m) if self.C is None else linalg.as_matrix(self.C, "C")
        d = np.eye(self.q) if self.D is None else linalg.as_matrix(self.D, "D")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "D", d)
        # construction-time checks of everything replicates will rely on
        self.contrast()
        self.noise()

    @property
    def p(self) -> int:
        return len(self.times)

    def design(self, r: int) -> model.Design:
        return model.potthoff_roy_design(self.m, r, self.times, self.q)

    def z_matrix(self) -> np.ndarray:
        return np.vander(np.asarray(self.times, dtype=np.float64), self.q, increasing=True)

    def contrast(self) -> model.Contrast:
        contrast = model.Contrast(C=self.C, D=self.D)
        if contrast.C.shape[1] != self.m or contrast.D.shape[1] != self.q:
            raise ConfigError(
                f"contrast must have m={self.m} and q={self.q} columns, got "
                f"C {contrast.C.shape}, D {contrast.D.shape}"
            )
        return contrast

    def noise(self) -> model.NoiseSpec:
        return model.NoiseSpec(family=self.noise_family, sigma=self.sigma, df=self.noise_df)

    def params(self, theta: np.ndarray | None = None) -> model.ModelParams:
        return model.ModelParams(
            theta=self.theta if theta is None else theta, sigma=self.sigma
        )

    def r_limit(self) -> np.ndarray:
        """Limit of X'X / n: the balanced design gives I_m / m exactly."""
        return np.eye(self.m) / self.m

    def gamma_true(self, theta: np.ndarray | None = None) -> np.ndarray:
        return self.contrast().apply(self.theta if theta is None else theta)

    def law(self) -> inference.AsymptoticLaw:
        """Closed-form limit covariance factors for this scenario."""
        spec = inference.AsymptoticSpec(
            R=self.r_limit(),
            sigma=self.sigma,
            Z=self.z_matrix(),
            contrast=self.contrast(),
        )
        return inference.asym_cov(spec)

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "q": self.q,
            "times": [float(t) for t in self.times],
            "theta": fileio.jsonable(self.theta),
            "sigma": fileio.jsonable(self.sigma),
            "noise": {"family": self.noise_family, "df": self.noise_df},
            "contrast": {"c": fileio.jsonable(self.C), "d": fileio.jsonable(self.D)},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        if not isinstance(d, dict):
            raise ConfigError(f"scenario must be an object, got {type(d).__name__}")
        allowed = {"m", "q", "times", "theta", "sigma", "noise", "contrast"}
        unknown = set(d) - allowed
        if unknown:
            raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
        for key in ("m", "q", "times", "theta", "sigma"):
            if key not in d:
                raise ConfigError(f"scenario is missing required key {key!r}")
        m, q = check_int(d["m"], "m"), check_int(d["q"], "q")
        noise = d.get("noise", {"family": "gaussian"})
        if not isinstance(noise, dict) or "family" not in noise:
            raise ConfigError("scenario noise must be an object with a 'family' key")
        df = noise.get("df")
        c, dd = _contrast_arrays(d.get("contrast", "identity"), m, q)
        return cls(
            m=m,
            q=q,
            times=tuple(check_floats(d["times"], "times", 1)),
            theta=check_floats(d["theta"], "theta", 2),
            sigma=check_floats(d["sigma"], "sigma", 2),
            noise_family=str(noise["family"]),
            noise_df=None if df is None else check_floats(df, "df", 0),
            C=c,
            D=dd,
        )


def check_int(value, key: str, low: int = 1, high: float = math.inf) -> int:
    """Config ``key`` as an integer in [low, high); non-integers are refused, never truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not low <= value < high:
        raise ConfigError(f"{key} must be an integer in [{low}, {high}), got {value!r}")
    return int(value)


def check_floats(value, key: str, ndim: int):
    """Config ``key`` as a float (ndim 0) or an ndim-d float64 array, else a ConfigError."""
    try:
        out = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        out = None
    if out is None or out.ndim != ndim:
        kind = ("a number", "a list of numbers", "a list of equal-length rows of numbers")[ndim]
        raise ConfigError(f"{key} must be {kind}, got {value!r}")
    return float(out) if ndim == 0 else out


def _contrast_arrays(entry, m: int, q: int):
    """Resolve a config contrast entry: 'identity', 'equality' or explicit c/d."""
    if entry == "identity" or entry is None:
        return None, None
    if entry == "equality":
        contrast = model.equality_contrast(m, q)
        return contrast.C, contrast.D
    if isinstance(entry, dict) and set(entry) == {"c", "d"}:
        return check_floats(entry["c"], "contrast c", 2), check_floats(entry["d"], "contrast d", 2)
    raise ConfigError(
        "contrast must be 'identity', 'equality' or an object with keys 'c' and 'd'"
    )


@dataclass(frozen=True, eq=False)
class McConfig:
    """One harness run: a scenario, the group sizes to sweep, replication count and seed."""

    scenario: Scenario
    sample_sizes: tuple
    replications: int
    seed: int
    alpha: float = 0.05
    theta_alt: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.sample_sizes, (list, tuple)):
            raise ConfigError(f"sample_sizes must be a list of integers, got {self.sample_sizes!r}")
        sizes = tuple(check_int(r, "sample_sizes entry") for r in self.sample_sizes)
        object.__setattr__(self, "sample_sizes", sizes)
        object.__setattr__(self, "replications", check_int(self.replications, "replications"))
        object.__setattr__(self, "seed", check_int(self.seed, "seed", 0, 2**64))
        if self.theta_alt is not None:
            object.__setattr__(
                self, "theta_alt", linalg.as_matrix(self.theta_alt, "theta_alt")
            )

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_dict(),
            "sample_sizes": list(self.sample_sizes),
            "replications": self.replications,
            "seed": self.seed,
            "alpha": self.alpha,
            "theta_alt": fileio.jsonable(self.theta_alt),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "McConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be an object, got {type(d).__name__}")
        allowed = {"scenario", "sample_sizes", "replications", "seed", "alpha", "theta_alt"}
        unknown = set(d) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("scenario", "sample_sizes", "replications", "seed"):
            if key not in d:
                raise ConfigError(f"config is missing required key {key!r}")
        theta_alt = d.get("theta_alt")
        return cls(
            scenario=Scenario.from_dict(d["scenario"]),
            sample_sizes=d["sample_sizes"],
            replications=d["replications"],
            seed=d["seed"],
            alpha=check_floats(d.get("alpha", 0.05), "alpha", 0),
            theta_alt=None if theta_alt is None else check_floats(theta_alt, "theta_alt", 2),
        )


@dataclass
class McCell:
    """Summaries for one sample-size cell; optional fields depend on the run kind."""

    r: int
    n: int
    replications: int
    successes: int
    failures: int
    mean_gamma: np.ndarray
    bias: np.ndarray
    se: np.ndarray
    max_abs_bias_in_se: float | None = None
    bias_flagged: bool | None = None
    median_sigma_err: float | None = None
    mean_sigma_err: float | None = None
    median_gamma_err: float | None = None
    mean_gamma_err: float | None = None
    median_h_gap: float | None = None
    mean_h_gap: float | None = None
    emp_cov: np.ndarray | None = None
    theory_cov: np.ndarray | None = None
    rel_frobenius: float | None = None
    ks_distance: np.ndarray | None = None
    coord_mean: np.ndarray | None = None
    coord_variance: np.ndarray | None = None
    coord_skewness: np.ndarray | None = None
    coord_ex_kurtosis: np.ndarray | None = None
    rejection_rate: float | None = None
    alt_rejection_rate: float | None = None

    def to_dict(self) -> dict:
        out = {}
        for key, value in self.__dict__.items():
            if value is None:
                continue
            out[key] = fileio.jsonable(value)
        return out


@dataclass
class McReport:
    """Full harness output: per-cell summaries plus the per-replicate records."""

    kind: str
    config: McConfig
    cells: list
    records: list = field(repr=False, default_factory=list)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "config": self.config.to_dict(),
            "cells": [cell.to_dict() for cell in self.cells],
        }


def gamma_columns(s: int, t: int) -> list:
    return [f"gamma_{i}_{j}" for i in range(s) for j in range(t)]


def record_columns(kind: str, s: int, t: int) -> list:
    """Per-replicate record schema for a run kind, in dump order."""
    cols = ["ok"] + gamma_columns(s, t)
    if kind == "consistency":
        cols += ["sigma_err", "gamma_err", "h_gap"]
    elif kind == "level":
        cols += ["chi_sq", "reject", "chi_sq_alt", "reject_alt"]
    return cols


def replicate_seed(seed: int, cell_index: int, rep: int, stream: int = 0) -> int:
    """Deterministic 64-bit seed for one replicate, independent of scheduling."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(cell_index, rep, stream))
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


def _run_chunk(args) -> tuple:
    """Run replicates [start, stop) of one cell; returns (start, columns dict)."""
    kind, scenario, r, cell_index, seed, alpha, theta_alt, start, stop = args
    contrast = scenario.contrast()
    s, t = contrast.s, contrast.t
    design = scenario.design(r)
    params = scenario.params()
    noise = scenario.noise()
    gamma_true = scenario.gamma_true()
    cols = record_columns(kind, s, t)
    out = {c: np.full(stop - start, np.nan) for c in cols}
    if kind == "consistency":
        h_true = estimators.h_matrix(scenario.sigma, design.Z)
    if kind == "level":
        params_alt = scenario.params(theta_alt)

    for i in range(start, stop):
        k = i - start
        data = model.simulate(design, params, noise, replicate_seed(seed, cell_index, i))
        try:
            if kind == "level":
                gam = estimators.two_stage_gamma(data, contrast)
                res = inference.test_gamma_zero(data, contrast, alpha)
                data_alt = model.simulate(
                    design, params_alt, noise, replicate_seed(seed, cell_index, i, stream=1)
                )
                res_alt = inference.test_gamma_zero(data_alt, contrast, alpha)
            else:
                sig = estimators.sigma_hat(data)
                gam = contrast.apply(estimators._gls_theta(design, data.Y, sig))
        except (TooFewSamples, NotSpd):
            out["ok"][k] = 0.0
            continue
        out["ok"][k] = 1.0
        flat = gam.reshape(-1)
        for idx, col in enumerate(gamma_columns(s, t)):
            out[col][k] = flat[idx]
        if kind == "consistency":
            out["sigma_err"][k] = np.linalg.norm(sig - scenario.sigma)
            out["gamma_err"][k] = np.linalg.norm(gam - gamma_true)
            out["h_gap"][k] = np.abs(estimators.h_matrix(sig, design.Z) - h_true).max()
        elif kind == "level":
            out["chi_sq"][k] = res.chi_sq
            out["reject"][k] = float(res.reject)
            out["chi_sq_alt"][k] = res_alt.chi_sq
            out["reject_alt"][k] = float(res_alt.reject)
    return start, out


def _run_cell(kind: str, cfg: McConfig, cell_index: int, r: int) -> dict:
    contrast = cfg.scenario.contrast()
    cols = record_columns(kind, contrast.s, contrast.t)
    n_rep = cfg.replications
    records = {c: np.full(n_rep, np.nan) for c in cols}
    workers = _worker_count()
    theta_alt = _resolve_theta_alt(cfg) if kind == "level" else None
    if workers <= 1 or n_rep < 2 * workers:
        bounds = [(0, n_rep)]
    else:
        edges = np.linspace(0, n_rep, 4 * workers + 1, dtype=int)
        bounds = [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]
    tasks = [
        (kind, cfg.scenario, r, cell_index, cfg.seed, cfg.alpha, theta_alt, a, b)
        for a, b in bounds
    ]
    if len(tasks) == 1:
        results = [_run_chunk(tasks[0])]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results = list(pool.map(_run_chunk, tasks))
    for start, out in results:
        span = len(next(iter(out.values())))
        for c in cols:
            records[c][start : start + span] = out[c]
    return records


def ks_distance_normal(x: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between a sample and the standard normal CDF."""
    x = np.sort(np.asarray(x, dtype=np.float64))
    n = x.size
    cdf = 0.5 * np.array([math.erfc(-v / math.sqrt(2.0)) for v in x])
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def _coord_moments(x: np.ndarray) -> tuple:
    mu = float(x.mean())
    centered = x - mu
    m2 = float((centered**2).mean())
    m3 = float((centered**3).mean())
    m4 = float((centered**4).mean())
    variance = float(x.var(ddof=1))
    skewness = m3 / m2**1.5
    ex_kurtosis = m4 / m2**2 - 3.0
    return mu, variance, skewness, ex_kurtosis


def summarize_cell(kind: str, records: dict, scenario: Scenario, r: int) -> McCell:
    """Build the per-cell summary from per-replicate records.

    Pure function of the recorded values, so reloading a persisted dump and
    re-summarizing reproduces the report exactly.
    """
    contrast = scenario.contrast()
    s, t = contrast.s, contrast.t
    n = r * scenario.m
    ok = records["ok"] == 1.0
    n_rep = records["ok"].size
    successes = int(ok.sum())
    failures = n_rep - successes
    gamma_true = scenario.gamma_true()
    gam = np.column_stack([records[c] for c in gamma_columns(s, t)])[ok]
    mean_gamma = gam.mean(axis=0).reshape(s, t) if successes else np.full((s, t), np.nan)
    if successes >= 2:
        se = (gam.std(axis=0, ddof=1) / np.sqrt(successes)).reshape(s, t)
    else:
        se = np.full((s, t), np.nan)
    cell = McCell(
        r=r,
        n=n,
        replications=n_rep,
        successes=successes,
        failures=failures,
        mean_gamma=mean_gamma,
        bias=mean_gamma - gamma_true,
        se=se,
    )
    if kind == "unbiasedness" and successes >= 2:
        ratio = np.abs(cell.bias) / cell.se
        cell.max_abs_bias_in_se = float(ratio.max())
        cell.bias_flagged = bool((ratio > 4.0).any())
    elif kind == "consistency" and successes >= 1:
        for name in ("sigma_err", "gamma_err", "h_gap"):
            values = records[name][ok]
            setattr(cell, f"median_{name}", float(np.median(values)))
            setattr(cell, f"mean_{name}", float(values.mean()))
    elif kind == "normality" and successes >= 2:
        law = scenario.law()
        theory = law.full()
        v = np.sqrt(n) * (gam - gamma_true.reshape(-1))
        centered = v - v.mean(axis=0)
        emp = centered.T @ centered / (successes - 1)
        cell.emp_cov = emp
        cell.theory_cov = theory
        cell.rel_frobenius = float(
            np.linalg.norm(emp - theory) / np.linalg.norm(theory)
        )
        whitener = np.kron(linalg.inv_sqrt_spd(law.left), linalg.inv_sqrt_spd(law.right))
        wht = v @ whitener.T
        stats = np.array([_coord_moments(wht[:, j]) for j in range(s * t)])
        cell.ks_distance = np.array([ks_distance_normal(wht[:, j]) for j in range(s * t)])
        cell.coord_mean = stats[:, 0]
        cell.coord_variance = stats[:, 1]
        cell.coord_skewness = stats[:, 2]
        cell.coord_ex_kurtosis = stats[:, 3]
    elif kind == "level" and successes >= 1:
        cell.rejection_rate = float(records["reject"][ok].mean())
        cell.alt_rejection_rate = float(records["reject_alt"][ok].mean())
    return cell


def _resolve_theta_alt(cfg: McConfig) -> np.ndarray:
    scenario = cfg.scenario
    if cfg.theta_alt is not None:
        alt = cfg.theta_alt
        if alt.shape != scenario.theta.shape:
            raise ConfigError(
                f"theta_alt must be {scenario.theta.shape}, got {alt.shape}"
            )
    else:
        alt = scenario.theta.copy()
        alt[0, -1] += _DEFAULT_ALT_BUMP
    if np.abs(scenario.gamma_true(alt)).max() == 0.0:
        raise ConfigError(
            "the alternative theta maps to gamma = 0 under this contrast; "
            "supply an explicit theta_alt"
        )
    return alt


def _validate_config(cfg: McConfig, kind: str) -> None:
    if kind not in KINDS:
        raise ConfigError(f"unknown run kind {kind!r}")
    if not cfg.sample_sizes:
        raise ConfigError("sample_sizes must be non-empty")
    if not 0.0 < cfg.alpha <= 1.0:
        raise ConfigError(f"alpha must be in (0, 1], got {cfg.alpha}")
    if kind == "consistency" and list(cfg.sample_sizes) != sorted(set(cfg.sample_sizes)):
        raise ConfigError("sample_sizes must be strictly increasing for consistency runs")
    scenario = cfg.scenario
    for r in cfg.sample_sizes:
        design = scenario.design(r)
        model.validate(design)
        if design.n - design.m < design.p:
            raise ConfigError(
                f"sample size r={r} gives n - m < p; the first stage would be singular"
            )
    if kind == "level":
        gamma_null = scenario.gamma_true()
        if np.abs(gamma_null).max() > 1e-12:
            raise ConfigError(
                "level runs require C theta D' = 0 for the scenario theta; "
                f"got max |gamma| = {np.abs(gamma_null).max():.3e}"
            )
        _resolve_theta_alt(cfg)


def run(kind: str, cfg: McConfig) -> McReport:
    """Run one of ``KINDS`` over every sample-size cell of ``cfg``.

    consistency: error trends of sigma_hat, gamma_hat and H(Y) as r grows;
    unbiasedness: per-entry bias of gamma_hat against its Monte Carlo standard error;
    normality: covariance match and per-coordinate normal diagnostics of the scaled error;
    level: rejection rate under gamma = 0, plus power at a fixed alternative.
    """
    _validate_config(cfg, kind)
    cells, records = [], []
    for j, r in enumerate(cfg.sample_sizes):
        rec = _run_cell(kind, cfg, j, r)
        cells.append(summarize_cell(kind, rec, cfg.scenario, r))
        records.append(rec)
    return McReport(kind=kind, config=cfg, cells=cells, records=records)
