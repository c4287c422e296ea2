"""Monte Carlo harness: determinism, failure accounting, summaries from records."""

import json

import numpy as np
import pytest
from scipy import stats

from gcm import estimators, fileio, mc, model
from gcm.errors import ConfigError, NotSpd


def _ar_sigma(p, rho=0.4):
    idx = np.arange(p)
    return rho ** np.abs(np.subtract.outer(idx, idx))


def _scenario(family="gaussian", df=None, equal_curves=False, contrast="identity"):
    theta = (
        np.array([[1.0, 0.5], [1.0, 0.5]])
        if equal_curves
        else np.array([[1.0, 0.5], [2.0, 0.25]])
    )
    c = None
    if contrast == "equality":
        c = model.Contrast(C=np.array([[1.0, -1.0]]), D=np.array([[0.0, 1.0]]))
    return mc.Scenario(
        m=2,
        q=2,
        times=(1.0, 2.0, 3.0, 4.0),
        theta=theta,
        noise=model.NoiseSpec(family=family, sigma=_ar_sigma(4), df=df),
        contrast=c,
    )


def _cfg(scenario=None, sizes=(10, 20), reps=60, seed=314, alpha=0.05, theta_alt=None):
    return mc.McConfig(
        scenario=scenario or _scenario(),
        sample_sizes=sizes,
        replications=reps,
        seed=seed,
        alpha=alpha,
        theta_alt=theta_alt,
    )


# ---------------------------------------------------------------------------
# configuration handling


def test_config_round_trips_through_dict():
    cfg = _cfg()
    rebuilt = mc.McConfig.from_dict(cfg.to_dict())
    assert rebuilt.to_dict() == cfg.to_dict()


def test_config_rejects_unknown_keys():
    doc = _cfg().to_dict()
    doc["extra"] = 1
    with pytest.raises(ConfigError):
        mc.McConfig.from_dict(doc)
    doc = _cfg().to_dict()
    doc["scenario"]["bogus"] = 1
    with pytest.raises(ConfigError):
        mc.McConfig.from_dict(doc)


def test_scenario_contrast_shorthand():
    doc = _cfg(scenario=_scenario()).to_dict()
    doc["scenario"]["contrast"] = "equality"
    cfg = mc.McConfig.from_dict(doc)
    assert np.array_equal(cfg.scenario.contrast.C, np.array([[1.0, -1.0]]))
    assert np.array_equal(cfg.scenario.contrast.D, np.array([[0.0, 1.0]]))
    doc["scenario"]["contrast"] = "identity"
    cfg = mc.McConfig.from_dict(doc)
    assert np.array_equal(cfg.scenario.contrast.C, np.eye(2))


@pytest.mark.parametrize(
    "path, value",
    [
        (("scenario", "times"), "1234"),
        (("theta_alt",), np.zeros((3, 3))),
        (("sample_sizes",), ()),
        (("alpha",), 2.0),
    ],
)
def test_constructor_and_from_dict_refuse_the_same_values(path, value):
    # both ways of building a config check a value in the object that owns it,
    # so neither defers the verdict to mc.run
    scenario = dict(
        m=2,
        q=2,
        times=(1.0, 2.0, 3.0, 4.0),
        theta=np.array([[1.0, 0.5], [2.0, 0.25]]),
        noise=model.NoiseSpec(family="gaussian", sigma=_ar_sigma(4)),
    )
    config = dict(sample_sizes=(10, 20), replications=5, seed=1)
    (scenario if path[0] == "scenario" else config)[path[-1]] = value
    with pytest.raises(ConfigError, match=f"^{path[-1]}"):
        mc.McConfig(scenario=mc.Scenario(**scenario), **config)
    doc = _cfg().to_dict()
    (doc["scenario"] if path[0] == "scenario" else doc)[path[-1]] = fileio.jsonable(value)
    with pytest.raises(ConfigError, match=f"^{path[-1]}"):
        mc.McConfig.from_dict(doc)


def test_consistency_requires_increasing_sizes():
    with pytest.raises(ConfigError):
        mc.run("consistency", _cfg(sizes=(20, 10), reps=5))


def test_rejects_sample_size_with_singular_first_stage():
    # r = 2 gives n = 4, n - m = 2 < p = 4
    with pytest.raises(ConfigError):
        mc.run("consistency", _cfg(sizes=(2, 10), reps=5))


def test_level_requires_null_theta():
    with pytest.raises(ConfigError):
        mc.run("level", _cfg(scenario=_scenario(contrast="equality"), sizes=(20,), reps=5))


def test_level_rejects_alternative_equal_to_null():
    scen = _scenario(equal_curves=True, contrast="equality")
    cfg = _cfg(scenario=scen, sizes=(20,), reps=5, theta_alt=scen.theta)
    with pytest.raises(ConfigError):
        mc.run("level", cfg)


# ---------------------------------------------------------------------------
# determinism


def test_report_is_byte_identical_across_worker_counts(monkeypatch):
    cfg = _cfg(reps=40)
    monkeypatch.setenv("GCM_THREADS", "1")
    serial = mc.run("consistency", cfg)
    monkeypatch.setenv("GCM_THREADS", "3")
    parallel = mc.run("consistency", cfg)
    assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
        parallel.to_dict(), sort_keys=True
    )
    for rec_a, rec_b in zip(serial.records, parallel.records):
        for key in rec_a:
            assert np.array_equal(rec_a[key], rec_b[key], equal_nan=True)


def test_replicate_seed_depends_only_on_indices():
    a = mc.replicate_seed(7, 0, 3)
    assert a == mc.replicate_seed(7, 0, 3)
    assert a != mc.replicate_seed(7, 0, 4)
    assert a != mc.replicate_seed(7, 1, 3)
    assert a != mc.replicate_seed(8, 0, 3)
    assert mc.replicate_seed(7, 0, 3, stream=1) != a


def test_invalid_worker_env_rejected(monkeypatch):
    monkeypatch.setenv("GCM_THREADS", "abc")
    with pytest.raises(ConfigError):
        mc.run("unbiasedness", _cfg(sizes=(10,), reps=2))


@pytest.mark.parametrize(
    "raw, expected",
    [(None, 1), ("", 1), ("1", 1), ("2", 2), ("3", 3), ("0", 3), ("4", 3), ("1000000", 3)],
)
def test_worker_count_is_capped_at_usable_cpus(monkeypatch, raw, expected):
    # three CPUs in this process's affinity mask, out of more on the host
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    if raw is None:
        monkeypatch.delenv("GCM_THREADS", raising=False)
    else:
        monkeypatch.setenv("GCM_THREADS", raw)
    assert mc._worker_count() == expected


@pytest.mark.parametrize("raw", ["-1", "abc", "2.5"])
def test_worker_count_rejects_malformed_values(monkeypatch, raw):
    monkeypatch.setenv("GCM_THREADS", raw)
    with pytest.raises(ConfigError):
        mc._worker_count()


def test_auto_worker_count_matches_serial_results(monkeypatch):
    cfg = _cfg(sizes=(10,), reps=24)
    monkeypatch.delenv("GCM_THREADS", raising=False)
    serial = mc.run("unbiasedness", cfg)
    monkeypatch.setenv("GCM_THREADS", "0")  # auto
    auto = mc.run("unbiasedness", cfg)
    assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
        auto.to_dict(), sort_keys=True
    )


# ---------------------------------------------------------------------------
# failure accounting and record-based summaries


def test_cell_without_successes_serializes_as_null():
    cols = mc.record_columns("consistency", 2, 2)
    records = {c: np.full(3, np.nan) for c in cols}
    records["ok"][:] = 0.0
    cell = mc.summarize_cell("consistency", records, _scenario(), 10).to_dict()
    assert cell["failures"] == 3
    for key in ("mean_gamma", "bias", "se"):
        assert cell[key] == [[None, None], [None, None]]
    fileio.dumps_json(cell)  # strict JSON: raises on NaN or Inf


def test_failed_replicates_are_counted_not_dropped(monkeypatch):
    calls = {"n": 0}
    original = estimators.sigma_hat

    def flaky(data):
        calls["n"] += 1
        if calls["n"] % 5 == 0:
            raise NotSpd("synthetic failure")
        return original(data)

    monkeypatch.setattr(estimators, "sigma_hat", flaky)
    report = mc.run("unbiasedness", _cfg(sizes=(10,), reps=20))
    cell = report.cells[0]
    assert cell.failures == 4
    assert cell.successes == 16
    assert cell.failures + cell.successes == cell.replications
    ok = report.records[0]["ok"]
    assert np.isnan(report.records[0]["gamma_0_0"][ok == 0.0]).all()


@pytest.mark.parametrize("kind", mc.KINDS)
def test_run_builds_no_model_objects_after_the_scenario(monkeypatch, kind):
    # the scenario checks and builds its noise and contrast once; chunks,
    # cells and the config checks read them
    level = kind == "level"
    cfg = _cfg(_scenario(equal_curves=level, contrast="equality" if level else "identity"), reps=6)
    built = []
    for cls in (model.NoiseSpec, model.Contrast):
        def counted(self, init=cls.__post_init__):
            built.append(type(self).__name__)
            init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    monkeypatch.setenv("GCM_THREADS", "1")
    report = mc.run(kind, cfg)
    assert built == []
    assert sum(cell.successes for cell in report.cells) == 12


def test_run_builds_each_cell_design_once(monkeypatch):
    # the config checks build and validate each cell's design; the cell's
    # replicates reuse it
    sizes = []
    original = model.potthoff_roy_design

    def counted(m, r, times, q):
        sizes.append(r)
        return original(m, r, times, q)

    monkeypatch.setattr(model, "potthoff_roy_design", counted)
    monkeypatch.setenv("GCM_THREADS", "1")
    mc.run("consistency", _cfg(sizes=(10, 20), reps=4))
    assert sizes == [10, 20]


def test_summaries_recompute_exactly_from_records():
    cfg = _cfg(reps=50)
    report = mc.run("consistency", cfg)
    for cell, records in zip(report.cells, report.records):
        redone = mc.summarize_cell("consistency", records, cfg.scenario, cell.r)
        assert redone.to_dict() == cell.to_dict()


# ---------------------------------------------------------------------------
# run kinds


def test_consistency_cell_fields():
    report = mc.run("consistency", _cfg(reps=80, seed=21))
    assert report.kind == "consistency"
    assert len(report.cells) == 2
    for cell in report.cells:
        assert cell.failures == 0
        for field in ("median_sigma_err", "median_gamma_err", "median_h_gap"):
            assert cell.stats[field] > 0.0
    # a 2x sample-size jump at these sizes should already show shrinkage
    assert report.cells[1].stats["median_sigma_err"] < report.cells[0].stats["median_sigma_err"]


def test_unbiasedness_cell_fields_heavy_tails():
    # symmetric student-t errors at n = 80: the replicate mean must stay
    # inside the 4 SE band entry by entry
    scen = _scenario(family="student_t", df=6.0)
    report = mc.run("unbiasedness", _cfg(scenario=scen, sizes=(40,), reps=600, seed=9))
    cell = report.cells[0]
    assert cell.n == 80
    assert cell.stats["max_abs_bias_in_se"] >= 0.0
    assert cell.stats["bias_flagged"] is False
    assert cell.bias.shape == (2, 2)


def test_unbiasedness_zero_theta():
    scen = mc.Scenario(
        m=2,
        q=2,
        times=(1.0, 2.0, 3.0, 4.0),
        theta=np.zeros((2, 2)),
        noise=model.NoiseSpec(family="uniform", sigma=_ar_sigma(4)),
    )
    report = mc.run("unbiasedness", _cfg(scenario=scen, sizes=(25,), reps=400, seed=10))
    cell = report.cells[0]
    assert np.array_equal(cell.bias, cell.mean_gamma)  # gamma_true is zero
    assert cell.stats["bias_flagged"] is False


def test_normality_cell_fields():
    scen = _scenario()
    cfg = _cfg(scenario=scen, sizes=(50,), reps=400, seed=6)
    report = mc.run("normality", cfg)
    cell = report.cells[0]
    st_dim = 4
    assert cell.stats["emp_cov"].shape == (st_dim, st_dim)
    assert np.array_equal(cell.stats["theory_cov"], scen.law().full())
    assert 0.0 < cell.stats["rel_frobenius"] < 1.0
    assert cell.stats["ks_distance"].shape == (st_dim,)
    ks = cell.stats["ks_distance"]
    assert np.all((ks > 0.0) & (ks < 1.0))
    assert np.all(np.abs(cell.stats["coord_mean"]) < 0.5)
    variance = cell.stats["coord_variance"]
    assert np.all((variance > 0.5) & (variance < 1.5))


def test_level_cell_fields():
    scen = _scenario(equal_curves=True, contrast="equality")
    report = mc.run("level", _cfg(scenario=scen, sizes=(30,), reps=200, seed=5))
    cell = report.cells[0]
    assert 0.0 <= cell.stats["rejection_rate"] <= 0.2
    assert cell.stats["alt_rejection_rate"] > 0.5
    assert cell.failures == 0


def test_uniform_and_student_t_families_run():
    for family, df in (("uniform", None), ("student_t", 6.0)):
        report = mc.run(
            "unbiasedness", _cfg(scenario=_scenario(family=family, df=df), sizes=(15,), reps=50)
        )
        assert report.cells[0].successes == 50


# ---------------------------------------------------------------------------
# KS distance helper


def test_ks_distance_matches_scipy():
    rng = np.random.default_rng(123)
    sample = rng.standard_normal(500)
    ours = mc.ks_distance_normal(sample)
    reference = stats.kstest(sample, "norm").statistic
    assert ours == pytest.approx(reference, abs=1e-12)


def test_ks_distance_detects_wrong_scale():
    rng = np.random.default_rng(124)
    sample = 3.0 * rng.standard_normal(500)
    assert mc.ks_distance_normal(sample) > 0.15
