"""Monte Carlo harness: determinism, failure accounting, summaries from records."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import linalg as sla, stats

from gcm import estimators, fileio, inference, mc, model
from gcm.errors import ConfigError, NotSpd
from shared import ar_sigma


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
        noise=model.NoiseSpec(family=family, sigma=ar_sigma(4), df=df),
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
            "sigma": ar_sigma(4).tolist(),
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
    with pytest.raises(ConfigError, match="^unknown run kind 'bogus'$"):
        mc.run("bogus", _cfg(sizes=(10,), reps=2))


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
        (("alpha",), np.float64("nan")),  # jsonable writes it as null
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
        noise=model.NoiseSpec(family="gaussian", sigma=ar_sigma(4)),
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
    # r = 2 gives n = 4, n - m = 2 < p = 4; r = 3 gives n - m = 4 = p, the smallest
    # size admitted, and every replicate fits
    with pytest.raises(ConfigError):
        mc.run("consistency", _cfg(sizes=(2, 10), reps=5))
    (cell,), (rec,) = mc.run("consistency", _cfg(sizes=(3,), reps=5))
    assert (cell["n"], cell["successes"], rec["ok"].size) == (6, 5, 5)


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
    # the shift to the alternative is delta[i, j] = 0.5 and 0 elsewhere, with i the first
    # column C uses and j the last column D uses (for the identity and equality contrasts
    # that is (0, q - 1)); the null theta is the part of all-ones that C theta D' does not
    # read, not 0 unless the contrast is the identity, so delta differs from theta + delta
    contrast = model.Contrast(C=c, D=d)
    c, d, ones = contrast.C, contrast.D, np.ones((2, 2))
    theta = ones - np.linalg.pinv(c) @ c @ ones @ d.T @ np.linalg.pinv(d.T)
    assert np.abs(theta).max() > 0.0 or np.array_equal(c, np.eye(2))
    scen = mc.Scenario(
        m=2, q=2, times=(1.0, 2.0, 3.0, 4.0), theta=theta,
        noise=model.NoiseSpec(family="gaussian", sigma=ar_sigma(4)), contrast=contrast,
    )
    delta = mc.KINDS["level"].prepare(_cfg(scenario=scen, sizes=(20,), reps=5))
    expected = np.zeros((2, 2))
    expected[entry] = 0.5
    assert np.array_equal(delta, expected)
    assert np.abs(contrast.apply(delta)).max() > 0.0


def test_level_replicate_draws_one_dataset_and_tests_it_shifted_for_power(monkeypatch):
    # the power column is the null dataset moved by delta (common random numbers):
    # one seed and one simulate per replicate
    monkeypatch.setenv("GCM_THREADS", "1")
    cfg = _cfg(scenario=_scenario(equal_curves=True, contrast="equality"), sizes=(20,), reps=4)
    calls = {"replicate_seed": [], "simulate": []}
    for module, name in ((mc, "replicate_seed"), (model, "simulate")):
        def counted(*args, original=getattr(module, name), name=name):
            calls[name].append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    (rec,) = mc.run("level", cfg)[1]
    drawn = list(calls["simulate"])
    assert calls["replicate_seed"] == [(314, 0, i) for i in range(4)]
    assert len(drawn) == 4
    delta = mc.KINDS["level"].prepare(cfg)
    contrast = cfg.scenario.contrast
    for i, (design, theta, noise, seed) in enumerate(drawn):
        data = model.simulate(design, theta, noise, seed)
        assert rec["chi_sq"][i] == inference.test_gamma_zero(data, contrast, 0.05).chi_sq
        alt = inference.test_gamma_zero(model.shift(data, delta), contrast, 0.05)
        assert (rec["chi_sq_alt"][i], rec["reject_alt"][i]) == (alt.chi_sq, float(alt.reject))


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


@pytest.mark.parametrize(
    "kind, scale, workers",
    [("consistency", dict(reps=40), "3"), ("unbiasedness", dict(sizes=(10,), reps=24), "0")],
    ids=["3-workers", "auto"],
)
def test_report_is_byte_identical_across_worker_counts(monkeypatch, kind, scale, workers):
    cfg = _cfg(**scale)
    monkeypatch.setenv("GCM_THREADS", "1")
    serial_cells, serial_records = mc.run(kind, cfg)
    monkeypatch.setenv("GCM_THREADS", workers)
    parallel_cells, parallel_records = mc.run(kind, cfg)
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
    # spawn key (0, 3, 0) under entropy 7: the stream earlier releases drew replicate 3 from
    assert a == 14934463995553021811


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
    # where os has no sched_getaffinity, os.cpu_count is the cap
    monkeypatch.delattr(mc.os, "sched_getaffinity")
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 3)
    assert mc._worker_count() == expected


@pytest.mark.parametrize("raw", ["-1", "abc", "2.5"])
def test_worker_count_rejects_malformed_values(monkeypatch, raw):
    monkeypatch.setenv("GCM_THREADS", raw)
    with pytest.raises(ConfigError):
        mc._worker_count()


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


# gamma_hat - gamma of six successes: entry 0 is biased by about 35 SEs, and each entry has a
# nonzero mean and skew, so the centering and the k - 1 divisor both matter
_KNOWN_ERRORS = np.array([
    [0.90, 0.00, -0.30, 0.01],
    [1.00, 0.10, 0.20, -0.02],
    [1.10, -0.10, 0.10, 0.03],
    [1.00, 0.80, -0.20, 0.20],
    [0.95, 0.05, 0.50, -0.40],
    [1.05, -0.05, 0.90, 0.05],
])


@pytest.mark.parametrize("successes", [6, 2])
def test_cell_summaries_match_independent_oracles_on_a_known_sample(successes):
    # a failed replicate sits among the successes; two successes are the fewest that give
    # a finite SE and a normality summary (min_successes)
    scen, r = _scenario(), 10
    truth = scen.gamma_true.reshape(-1)
    gam = truth + _KNOWN_ERRORS[:successes]
    ok = np.ones(successes + 1)
    ok[1] = 0.0
    rows = np.insert(gam, 1, np.nan, axis=0)
    records = {"ok": ok, **dict(zip(mc.gamma_columns(2, 2), rows.T))}

    cell = mc.summarize_cell("unbiasedness", records, scen, r)
    sem = stats.sem(gam, axis=0)
    ratio = np.abs(gam.mean(axis=0) - truth) / sem
    assert (cell["successes"], cell["failures"]) == (successes, 1)
    assert_allclose(cell["bias"].reshape(-1), gam.mean(axis=0) - truth, rtol=1e-12)
    assert_allclose(cell["se"].reshape(-1), sem, rtol=1e-12)
    assert cell["max_abs_bias_in_se"] == pytest.approx(ratio.max(), rel=1e-12)
    assert cell["bias_flagged"] is bool((ratio > 4.0).any())

    cell = mc.summarize_cell("normality", records, scen, r)
    v = np.sqrt(cell["n"]) * (gam - truth)
    assert_allclose(cell["emp_cov"], np.cov(v, rowvar=False), rtol=1e-12)
    # the rows whitened by the inverse square root of the full limit covariance
    coords = v @ sla.fractional_matrix_power(scen.law().full(), -0.5)
    expected = {
        "coord_mean": coords.mean(axis=0),
        "coord_variance": coords.var(axis=0, ddof=1),
        "coord_skewness": stats.skew(coords),
        "coord_ex_kurtosis": stats.kurtosis(coords),
        "ks_distance": [stats.kstest(x, "norm").statistic for x in coords.T],
    }
    for key, value in expected.items():
        assert_allclose(cell[key], value, rtol=1e-10, atol=1e-12, err_msg=key)


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


@pytest.mark.parametrize("kind, most", [("level", 15), ("consistency", 7)])
def test_factorizations_per_replicate_stay_at_their_counts(monkeypatch, factorizations, kind, most):
    # X'X is factored once per design, sigma_hat by one eigh per fit, and the
    # left whitening root once per design and C, so a level replicate makes at
    # most 15 numpy factorizations and a consistency one 7
    calls = factorizations
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


def test_sigma_is_decomposed_once_by_its_noise_spec(factorizations):
    # the noise spec's eigh is sigma's only one: the true H takes its factor, and the
    # limit law's one eigh is R's
    def eighs():
        count = [f.__name__ for f in factorizations].count("eigh")
        factorizations.clear()
        return count

    scenario = _scenario()
    assert eighs() == 1
    mc._consistency_prepare(_cfg(scenario))
    assert eighs() == 0
    scenario.law()
    assert eighs() == 1


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
        noise=model.NoiseSpec(family="uniform", sigma=ar_sigma(4)),
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
    # a 1-D sample gives a float; a stack gives one distance per sample along its last axis
    assert type(ours) is float
    rows = np.stack([sample, 3.0 * sample])
    assert mc.ks_distance_normal(rows).tolist() == [ours, mc.ks_distance_normal(rows[1])]


def test_ks_distance_detects_wrong_scale():
    rng = np.random.default_rng(124)
    sample = 3.0 * rng.standard_normal(500)
    assert mc.ks_distance_normal(sample) > 0.15
