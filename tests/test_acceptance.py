"""Acceptance suite: the checks this package must pass, one printed line each.

Algebraic identities run at fixed tolerances; Monte Carlo criteria use fixed
seeds with statistical bands sized for their replication counts (4 standard
errors for means, binomial 99% bands for rates, the asymptotic 1% critical
value for KS distances). Criteria 05 - 09 are the committed experiments: each
``experiments/<kind>_<family>.json`` runs once, through ``gcm mc-<kind>``, and
its bounds apply to the cells of the ``report.json`` that run writes. Run with
``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from gcm import (
    Contrast,
    Dataset,
    Design,
    NoiseSpec,
    cli,
    equality_contrast,
    fileio,
    linalg,
    mc,
    potthoff_roy_design,
    simulate,
    theta_hat_known,
    two_stage_gamma,
    two_stage_gamma_pinv,
)
from shared import TIMES4, ar_sigma, estimation_argv, mean_shift_gaps, spd, write_inputs


def _check(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {status} {name}{tail}")
    assert ok, f"acceptance criterion {num} failed: {name}{tail}"


def _random_dataset(seed, n=20, m=3, p=5, q=2):
    rng = np.random.default_rng(seed)
    design = Design(X=rng.standard_normal((n, m)), Z=rng.standard_normal((p, q)))
    theta = rng.standard_normal((m, q))
    sigma = spd(rng, p)
    data = simulate(
        design,
        theta,
        NoiseSpec(family="gaussian", sigma=sigma),
        seed=seed + 10_000,
    )
    contrast = Contrast(
        C=rng.standard_normal((2, m)), D=rng.standard_normal((2, q))
    )
    return data, theta, contrast


# ---------------------------------------------------------------------------
# 1. weighted-projection pseudo-inverse identity


def test_criterion_01_projection_identity():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((6, 3))
        sigma = spd(rng, 6)
        lhs = z @ np.linalg.solve(z.T @ np.linalg.solve(sigma, z), z.T)
        p_z = linalg.orth_projector(z)
        rhs = linalg.moore_penrose(p_z @ np.linalg.inv(sigma) @ p_z)
        worst = max(worst, np.abs(lhs - rhs).max())
    _check(1, "weighted projection identity on 100 instances", worst < 1e-8,
           f"max deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. solve route vs pseudo-inverse route


def test_criterion_02_two_path_agreement():
    worst = 0.0
    for seed in range(100):
        data, _, contrast = _random_dataset(seed)
        a = two_stage_gamma(data, contrast)
        b = two_stage_gamma_pinv(data, contrast)
        worst = max(worst, np.abs(a - b).max())
    _check(2, "two estimator routes agree on 100 datasets", worst < 1e-8,
           f"max deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. exact equivariance under mean shifts


def test_criterion_03_equivariance():
    worst_gamma = worst_sigma = 0.0
    for seed in range(100):
        data, _, contrast = _random_dataset(seed + 500)
        design = data.design
        delta = np.random.default_rng(seed + 900).standard_normal((design.m, design.q))
        sigma_gap, gamma_gap = mean_shift_gaps(data, contrast, delta)
        worst_gamma = max(worst_gamma, gamma_gap)
        worst_sigma = max(worst_sigma, sigma_gap)
    ok = worst_gamma < 1e-9 and worst_sigma < 1e-9
    _check(3, "mean-shift equivariance of gamma_hat and sigma_hat", ok,
           f"gamma {worst_gamma:.2e}, sigma {worst_sigma:.2e}")


# ---------------------------------------------------------------------------
# 4. known-covariance exact recovery


def test_criterion_04_known_sigma_exact_recovery():
    design = potthoff_roy_design(3, 4, TIMES4, 2)
    theta = np.array([[1.0, 0.5], [2.0, 0.25], [0.5, 1.5]])
    data = Dataset(Y=design.X @ theta @ design.Z.T, design=design)
    contrast = equality_contrast(3, 2)
    worst = 0.0
    for seed in range(10):
        sigma0 = linalg.SpdFactor(spd(np.random.default_rng(seed + 40), 4), "sigma0")
        theta_hat = theta_hat_known(data, sigma0)
        err_theta = np.abs(theta_hat - theta).max()
        err_gamma = np.abs(contrast.apply(theta_hat) - contrast.apply(theta)).max()
        worst = max(worst, err_theta, err_gamma)
    _check(4, "noise-free data recovers theta and gamma exactly", worst < 1e-10,
           f"max deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 5 - 9. the committed experiments, each run once at full scale as the README runs it

EXPERIMENTS = Path(__file__).resolve().parents[1] / "experiments"


def test_experiments_are_committed():
    assert sorted(path.stem for path in EXPERIMENTS.glob("*.json")) == [
        "consistency_gaussian", "consistency_uniform", "level_gaussian",
        "level_student_t", "normality_gaussian", "normality_uniform",
        "unbiasedness_gaussian", "unbiasedness_student_t", "unbiasedness_uniform",
    ]


def _run_experiment(tmp_path, kind, family, df=None) -> list:
    """The cells of ``gcm mc-<kind> --config experiments/<kind>_<family>.json``.

    The run must exit 0, echo the file as its inputs, noise of the ``family`` and
    ``df`` it is named for included, and write the tables of its kind (a kind
    without tables writes no tables/)."""
    path = EXPERIMENTS / f"{kind}_{family}.json"
    out = tmp_path / path.stem
    assert cli.main([f"mc-{kind}", "--config", str(path), "--out", str(out)]) == 0
    report = fileio.read_json(str(out / "report.json"))
    assert report["inputs"] == {**fileio.read_json(str(path)), "dump_replicates": False}
    noise = report["inputs"]["scenario"]["noise"]
    assert (noise["family"], noise.get("df")) == (family, df)
    assert sorted(p.name for p in (out / "tables").glob("*")) == sorted(mc.KINDS[kind].tables)
    return report["results"]["cells"]


@pytest.mark.parametrize("family,df", [("gaussian", None), ("uniform", None), ("student_t", 6.0)])
def test_criterion_05_unbiasedness(tmp_path, family, df):
    (cell,) = _run_experiment(tmp_path, "unbiasedness", family, df)
    ok = cell["failures"] == 0 and not cell["bias_flagged"]
    _check(5, f"gamma_hat unbiased within 4 SE ({family})", ok,
           f"max |bias|/SE = {cell['max_abs_bias_in_se']:.2f}")


@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_criterion_06_consistency_trends(tmp_path, family):
    # each median error falls, and at the sqrt(n) rate: the least-squares slope of its log
    # against log n is within 0.1 of -1/2 (at the committed seed, -0.47 to -0.52)
    cells = _run_experiment(tmp_path, "consistency", family)
    sig = [cell["median_sigma_err"] for cell in cells]
    gam = [cell["median_gamma_err"] for cell in cells]
    hgap = [cell["median_h_gap"] for cell in cells]
    log_n = np.log([cell["n"] for cell in cells])
    slopes = [np.polyfit(log_n, np.log(err), 1)[0] for err in (sig, gam, hgap)]
    ok = (
        sig[0] > sig[1] > sig[2]
        and gam[0] > gam[1] > gam[2]
        and hgap[0] > hgap[1] > hgap[2]
        and all(-0.6 <= slope <= -0.4 for slope in slopes)
        and all(cell["failures"] == 0 for cell in cells)
    )
    detail = (
        f"sigma {sig[0]:.3f}>{sig[1]:.3f}>{sig[2]:.3f}, "
        f"gamma {gam[0]:.3f}>{gam[1]:.3f}>{gam[2]:.3f}, "
        f"h {hgap[0]:.3f}>{hgap[1]:.3f}>{hgap[2]:.3f}; "
        "log-log slopes " + ", ".join(f"{slope:.3f}" for slope in slopes)
    )
    _check(6, f"median errors fall at the sqrt(n) rate as r grows ({family})", ok, detail)


@pytest.fixture(scope="module")
def normality_cells(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("normality")
    return {family: _run_experiment(tmp_path, "normality", family)[0]
            for family in ("gaussian", "uniform")}


@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_criterion_07_covariance_match(normality_cells, family):
    cell = normality_cells[family]
    ok = cell["failures"] == 0 and cell["rel_frobenius"] < 0.10
    _check(7, f"scaled-error covariance matches the limit ({family})", ok,
           f"relative Frobenius discrepancy {cell['rel_frobenius']:.3f}")


@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_criterion_08_coordinate_normality(normality_cells, family):
    # a report writes an undefined value as null, which dtype=float reads as nan
    ks, skew, kurt = (np.array(normality_cells[family][key], dtype=float)
                      for key in ("ks_distance", "coord_skewness", "coord_ex_kurtosis"))
    ks_ok = np.all(ks < 0.0231)
    skew_ok = np.all(np.abs(skew) < 0.15)
    kurt_ok = np.all(np.abs(kurt) < 0.3)
    detail = (
        f"max KS {ks.max():.4f}, "
        f"max |skew| {np.abs(skew).max():.3f}, "
        f"max |ex kurt| {np.abs(kurt).max():.3f}"
    )
    _check(8, f"whitened coordinates look standard normal ({family})",
           ks_ok and skew_ok and kurt_ok, detail)


@pytest.mark.parametrize(
    "family,df,band",
    [("gaussian", None, (0.035, 0.065)), ("student_t", 6.0, (0.03, 0.07))],
)
def test_criterion_09_test_level(tmp_path, family, df, band):
    (cell,) = _run_experiment(tmp_path, "level", family, df)
    ok = cell["failures"] == 0 and band[0] <= cell["rejection_rate"] <= band[1]
    _check(9, f"rejection rate near the nominal level ({family})", ok,
           f"rate {cell['rejection_rate']:.4f} in [{band[0]}, {band[1]}], "
           f"power at fixed alternative {cell['alt_rejection_rate']:.3f}")


# ---------------------------------------------------------------------------
# 10. byte-stable reports under any worker count


def test_criterion_10_determinism(tmp_path, monkeypatch):
    config = {
        "scenario": {
            "m": 2,
            "q": 2,
            "times": list(TIMES4),
            "theta": [[1.0, 0.5], [1.0, 0.5]],
            "sigma": ar_sigma(4).tolist(),
            "noise": {"family": "gaussian", "df": None},
            "contrast": "equality",
        },
        "sample_sizes": [8, 16],
        "replications": 100,
        "seed": 1001,
    }
    outputs = {}
    for kind in ("consistency", "level"):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(config))
        digests = []
        for workers in ("1", "2"):
            monkeypatch.setenv("GCM_THREADS", workers)
            out = tmp_path / f"{kind}-{workers}"
            code = cli.main(
                [f"mc-{kind}", "--config", str(path), "--out", str(out), "--dump-replicates"]
            )
            assert code == 0
            blob = (out / "report.json").read_bytes()
            for table in sorted((out / "tables").iterdir()):
                blob += table.read_bytes()
            digests.append(blob)
        outputs[kind] = digests[0] == digests[1]
    ok = all(outputs.values())
    _check(10, "reports byte-identical for GCM_THREADS in {1, 2}", ok, str(outputs))


# ---------------------------------------------------------------------------
# 11. I/O round trips and the exit-code contract


def test_criterion_11_io_round_trip_and_exit_codes(tmp_path, monkeypatch):
    monkeypatch.delenv("GCM_THREADS", raising=False)
    # CSV round trip is bit exact
    rng = np.random.default_rng(1101)
    matrix = rng.standard_normal((6, 4)) * 10.0 ** rng.integers(-12, 12, size=(6, 4))
    path = tmp_path / "m.csv"
    fileio.write_matrix_csv(str(path), matrix)
    csv_ok = fileio.read_matrix_csv(str(path)).tobytes() == matrix.tobytes()

    # JSON report round trip preserves every value
    report = fileio.make_report(7, {"alpha": 0.05}, {"value": 1.0 / 3.0})
    report_path = tmp_path / "report.json"
    fileio.write_json(str(report_path), report)
    json_ok = fileio.read_json(str(report_path)) == report

    # crafted failures hit the documented exit codes
    design = potthoff_roy_design(2, 5, TIMES4, 2)
    theta = np.array([[1.0, 0.5], [2.0, 0.25]])
    sigma = ar_sigma(4)
    data = simulate(
        design, theta,
        NoiseSpec(family="gaussian", sigma=sigma), seed=11,
    )
    d = tmp_path
    write_inputs(d, data.Y, design.X, design.Z, np.array([[1.0, -1.0]]), np.array([[0.0, 1.0]]))

    codes = {}
    # 2: malformed CSV
    (d / "bad.csv").write_text("1.0,2.0\nx,4.0\n")
    codes["validation"] = cli.main(["estimate", *estimation_argv(d, y="bad.csv", out="o2")])
    # 3: missing file
    codes["io"] = cli.main(["estimate", *estimation_argv(d, y="missing.csv", out="o3")])
    # 4: singular first stage (noise-free data)
    fileio.write_matrix_csv(str(d / "Y0.csv"), design.X @ theta @ design.Z.T)
    codes["first_stage"] = cli.main(["estimate", *estimation_argv(d, y="Y0.csv", out="o4")])
    # 5: singular standardizer (duplicated contrast rows)
    fileio.write_matrix_csv(str(d / "C2.csv"), np.array([[1.0, -1.0], [1.0, -1.0]]))
    codes["standardizer"] = cli.main(["test", *estimation_argv(d, c="C2.csv", out="o5")])

    expected = {"validation": 2, "io": 3, "first_stage": 4, "standardizer": 5}
    ok = csv_ok and json_ok and codes == expected
    _check(11, "round trips bit-exact and exit codes stable", ok,
           f"csv {csv_ok}, json {json_ok}, codes {codes}")
