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


def _cfg(scenario=None, sizes=(10, 20), reps=60, seed=314, alpha=0.05):
    return mc.McConfig(
        scenario=scenario or _scenario(),
        sample_sizes=sizes,
        replications=reps,
        seed=seed,
        alpha=alpha,
    )


def _doc():
    """The config file of ``_cfg()``."""
    return {
        "scenario": {
            "m": 2,
            "q": 2,
            "times": [1.0, 2.0, 3.0, 4.0],
            "theta": [[1.0, 0.5], [2.0, 0.25]],
            "sigma": _ar_sigma(4).tolist(),
        },
        "sample_sizes": [10, 20],
        "replications": 60,
        "seed": 314,
    }


# ---------------------------------------------------------------------------
# configuration handling


def test_config_rejects_unknown_keys():
    doc = _doc()
    doc["extra"] = 1
    with pytest.raises(ConfigError):
        mc.McConfig.from_dict(doc, "consistency")
    doc = _doc()
    doc["scenario"]["bogus"] = 1
    with pytest.raises(ConfigError):
        mc.McConfig.from_dict(doc, "consistency")


def test_scenario_contrast_shorthand():
    doc = _doc()
    doc["scenario"]["contrast"] = "equality"
    cfg = mc.McConfig.from_dict(doc, "unbiasedness")
    assert np.array_equal(cfg.scenario.contrast.C, np.array([[1.0, -1.0]]))
    assert np.array_equal(cfg.scenario.contrast.D, np.array([[0.0, 1.0]]))
    doc["scenario"]["contrast"] = "identity"
    cfg = mc.McConfig.from_dict(doc, "unbiasedness")
    assert np.array_equal(cfg.scenario.contrast.C, np.eye(2))


@pytest.mark.parametrize(
    "path, value",
    [
        (("scenario", "times"), "1234"),
        (("scenario", "theta"), np.zeros((3, 3))),
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
    doc = _doc()
    (doc["scenario"] if path[0] == "scenario" else doc)[path[-1]] = fileio.jsonable(value)
    with pytest.raises(ConfigError, match=f"^{path[-1]}"):
        mc.McConfig.from_dict(doc, "level")


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


@pytest.mark.parametrize(
    "c, d, entry",
    [
        (np.eye(2), np.eye(2), (0, 1)),
        ([[1.0, -1.0]], [[0.0, 1.0]], (0, 1)),
        ([[1.0, -1.0]], [[1.0, 0.0]], (0, 0)),
        ([[0.0, 1.0]], [[1.0, 1.0]], (1, 1)),
    ],
)
def test_level_alternative_bumps_an_entry_the_contrast_reads(c, d, entry):
    # theta[i, j] with i the first column C uses and j the last column D uses;
    # for the identity and equality contrasts that is (0, q - 1)
    contrast = model.Contrast(C=c, D=d)
    scen = mc.Scenario(
        m=2, q=2, times=(1.0, 2.0, 3.0, 4.0), theta=np.zeros((2, 2)),
        noise=model.NoiseSpec(family="gaussian", sigma=_ar_sigma(4)), contrast=contrast,
    )
    alt = mc.KINDS["level"].prepare(_cfg(scenario=scen, sizes=(20,), reps=5))
    expected = np.zeros((2, 2))
    expected[entry] = 0.5
    assert np.array_equal(alt, expected)
    assert np.abs(contrast.apply(alt)).max() > 0.0


def test_sizes_and_replications_are_bounded_before_anything_is_built():
    scen = _scenario()  # m = 2, p = 4: Y is the larger matrix, 8 r entries
    largest = mc.MAX_MATRIX_ELEMENTS // 8
    assert scen.check_size(largest, "r") == largest
    with pytest.raises(ConfigError, match="^r "):
        scen.check_size(largest + 1, "r")
    assert _cfg(reps=mc.MAX_REPLICATIONS).replications == mc.MAX_REPLICATIONS
    with pytest.raises(ConfigError, match="^replications"):
        _cfg(reps=mc.MAX_REPLICATIONS + 1)


# ---------------------------------------------------------------------------
# determinism


def test_report_is_byte_identical_across_worker_counts(monkeypatch):
    cfg = _cfg(reps=40)
    monkeypatch.setenv("GCM_THREADS", "1")
    serial_cells, serial_records = mc.run("consistency", cfg)
    monkeypatch.setenv("GCM_THREADS", "3")
    parallel_cells, parallel_records = mc.run("consistency", cfg)
    assert json.dumps([fileio.jsonable(c) for c in serial_cells], sort_keys=True) == json.dumps(
        [fileio.jsonable(c) for c in parallel_cells], sort_keys=True
    )
    for rec_a, rec_b in zip(serial_records, parallel_records):
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
    serial, _ = mc.run("unbiasedness", cfg)
    monkeypatch.setenv("GCM_THREADS", "0")  # auto
    auto, _ = mc.run("unbiasedness", cfg)
    assert json.dumps([fileio.jsonable(c) for c in serial], sort_keys=True) == json.dumps(
        [fileio.jsonable(c) for c in auto], sort_keys=True
    )


# ---------------------------------------------------------------------------
# failure accounting and record-based summaries


def test_cell_without_successes_serializes_as_null():
    cols = mc.record_columns("consistency", 2, 2)
    records = {c: np.full(3, np.nan) for c in cols}
    records["ok"][:] = 0.0
    cell = fileio.jsonable(mc.summarize_cell("consistency", records, _scenario(), 10))
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
    (cell,), (records,) = mc.run("unbiasedness", _cfg(sizes=(10,), reps=20))
    assert cell["failures"] == 4
    assert cell["successes"] == 16
    assert cell["failures"] + cell["successes"] == cell["replications"]
    ok = records["ok"]
    assert np.isnan(records["gamma_0_0"][ok == 0.0]).all()


def test_failed_replicates_match_across_worker_counts(monkeypatch):
    # the workers fork with the patch in place; a rule on the data, unlike a
    # per-process call counter, fails the same replicates in every process
    original = estimators.sigma_hat

    def flaky(data):
        if data.Y[0, 0] > 2.0:
            raise NotSpd("synthetic failure")
        return original(data)

    monkeypatch.setattr(estimators, "sigma_hat", flaky)
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = _cfg(reps=40)
    runs = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("GCM_THREADS", workers)
        runs[workers] = mc.run("consistency", cfg)[1]
    for serial, pooled in zip(runs["1"], runs["2"]):
        assert serial.keys() == pooled.keys()
        for key in serial:
            assert np.array_equal(serial[key], pooled[key], equal_nan=True), key
        failed = serial["ok"] == 0.0
        assert 0 < failed.sum() < failed.size
        rest = np.column_stack([serial[key] for key in serial if key != "ok"])
        assert np.isnan(rest[failed]).all() and not np.isnan(rest[~failed]).any()


@pytest.mark.parametrize("kind", mc.KINDS)
def test_run_builds_no_model_objects_after_the_scenario(monkeypatch, kind):
    # the scenario checks and builds its noise and contrast once; replicates,
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
    cells, _ = mc.run(kind, cfg)
    assert built == []
    assert sum(cell["successes"] for cell in cells) == 12


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


@pytest.mark.parametrize("kind, most", [("level", 23), ("consistency", 12)])
def test_factorizations_per_replicate_stay_at_their_counts(monkeypatch, kind, most):
    # X'X is factored once per design and sigma_hat once per fit, so a level
    # replicate makes at most 23 numpy factorizations and a consistency one 12
    calls = []
    # numpy's dense factorizations; gcm calls each as an np.linalg attribute
    for name in ("cholesky", "solve", "inv", "eigh", "eigvalsh", "svd"):
        def counted(*args, original=getattr(np.linalg, name), **kwargs):
            calls.append(original)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    monkeypatch.setenv("GCM_THREADS", "1")
    level = kind == "level"
    scenario = _scenario(equal_curves=level, contrast="equality" if level else "identity")

    def count(reps):
        calls.clear()
        cells, _ = mc.run(kind, _cfg(scenario, sizes=(20,), reps=reps))
        assert cells[0]["successes"] == reps
        return len(calls)

    count(1)  # builds the scenario's cached Cholesky factor of sigma
    # the set-up of each run cancels in the difference
    assert (count(10) - count(2)) / 8 <= most


def test_summaries_recompute_exactly_from_records():
    cfg = _cfg(reps=50)
    cells, records = mc.run("consistency", cfg)
    for cell, rec in zip(cells, records):
        redone = mc.summarize_cell("consistency", rec, cfg.scenario, cell["r"])
        assert fileio.jsonable(redone) == fileio.jsonable(cell)


# ---------------------------------------------------------------------------
# run kinds


def test_consistency_cell_fields():
    cells, _ = mc.run("consistency", _cfg(reps=80, seed=21))
    assert len(cells) == 2
    for cell in cells:
        assert cell["failures"] == 0
        for field in ("median_sigma_err", "median_gamma_err", "median_h_gap"):
            assert cell[field] > 0.0
    # a 2x sample-size jump at these sizes should already show shrinkage
    assert cells[1]["median_sigma_err"] < cells[0]["median_sigma_err"]


def test_unbiasedness_cell_fields_heavy_tails():
    # symmetric student-t errors at n = 80: the replicate mean must stay
    # inside the 4 SE band entry by entry
    scen = _scenario(family="student_t", df=6.0)
    (cell,), _ = mc.run("unbiasedness", _cfg(scenario=scen, sizes=(40,), reps=600, seed=9))
    assert cell["n"] == 80
    assert cell["max_abs_bias_in_se"] >= 0.0
    assert cell["bias_flagged"] is False
    assert cell["bias"].shape == (2, 2)


def test_unbiasedness_zero_theta():
    scen = mc.Scenario(
        m=2,
        q=2,
        times=(1.0, 2.0, 3.0, 4.0),
        theta=np.zeros((2, 2)),
        noise=model.NoiseSpec(family="uniform", sigma=_ar_sigma(4)),
    )
    (cell,), _ = mc.run("unbiasedness", _cfg(scenario=scen, sizes=(25,), reps=400, seed=10))
    assert np.array_equal(cell["bias"], cell["mean_gamma"])  # gamma_true is zero
    assert cell["bias_flagged"] is False


def test_normality_cell_fields():
    scen = _scenario()
    cfg = _cfg(scenario=scen, sizes=(50,), reps=400, seed=6)
    (cell,), _ = mc.run("normality", cfg)
    st_dim = 4
    assert cell["emp_cov"].shape == (st_dim, st_dim)
    assert np.array_equal(cell["theory_cov"], scen.law().full())
    assert 0.0 < cell["rel_frobenius"] < 1.0
    assert cell["ks_distance"].shape == (st_dim,)
    ks = cell["ks_distance"]
    assert np.all((ks > 0.0) & (ks < 1.0))
    assert np.all(np.abs(cell["coord_mean"]) < 0.5)
    variance = cell["coord_variance"]
    assert np.all((variance > 0.5) & (variance < 1.5))


def test_level_cell_fields():
    scen = _scenario(equal_curves=True, contrast="equality")
    (cell,), _ = mc.run("level", _cfg(scenario=scen, sizes=(30,), reps=200, seed=5))
    assert 0.0 <= cell["rejection_rate"] <= 0.2
    assert cell["alt_rejection_rate"] > 0.5
    assert cell["failures"] == 0


def test_uniform_and_student_t_families_run():
    for family, df in (("uniform", None), ("student_t", 6.0)):
        (cell,), _ = mc.run(
            "unbiasedness", _cfg(scenario=_scenario(family=family, df=df), sizes=(15,), reps=50)
        )
        assert cell["successes"] == 50


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
