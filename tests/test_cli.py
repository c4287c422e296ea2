"""Command-line contract: files, exit codes, determinism and round trips."""

import argparse
import contextlib
import copy
import io
import json
import os
import subprocess
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import gcm
from gcm import cli, estimators, fileio, inference, mc, model
from gcm.errors import ConfigError, MatrixParseError, NotSpd
from shared import (NEAR_COLLINEAR_TIMES, TIMES4, ar_sigma, child_python, estimation_argv,
                    read_inputs, write_inputs, x_basis, zero_pivot_x)

EXPERIMENTS = Path(__file__).resolve().parents[1] / "experiments"


def _strict_json(text: str):
    """Parse ``text`` as JSON, refusing the non-JSON constants NaN and Infinity."""

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _main(argv) -> subprocess.CompletedProcess:
    """``cli.main(argv)`` run in this process: its exit code and what it wrote on stderr."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return subprocess.CompletedProcess(argv, code, stderr=stderr.getvalue())


def _refused(argv, code, run=_main) -> dict:
    """Run ``gcm argv`` by ``run`` and check the README's error contract for a failure
    that exits ``code``; returns the error, for the caller's own type and message checks.

    stderr is one line, ``{"error": {type, message, exit_code}}`` with ``exit_code ==
    code``. Once the arguments parse, ``--out`` holds a strict-JSON report.json with
    ``results: null`` and ``errors == [error]``. A usage error (a ConfigError raised
    while parsing) leaves any report.json in the ``--out`` it names as it was.
    """
    argv = [str(a) for a in argv]
    try:
        out, usage = cli._parse_args(argv).out, False
    except ConfigError:
        out, usage = argv[argv.index("--out") + 1] if "--out" in argv else ".", True
    report = Path(out) / "report.json"
    before = report.read_bytes() if report.exists() else None
    proc = run(argv)
    assert proc.returncode == code, proc.stderr
    (line,) = proc.stderr.splitlines()
    doc = _strict_json(line)
    assert list(doc) == ["error"] and sorted(doc["error"]) == ["exit_code", "message", "type"]
    error = doc["error"]
    assert error["exit_code"] == code
    if usage:
        assert (error["type"], code) == ("ConfigError", 2)
        assert (report.read_bytes() if report.exists() else None) == before
    else:
        written = _strict_json(report.read_text())
        assert written["results"] is None and written["errors"] == [error]
    return error


def _scenario_dict(equal_curves=False, contrast="equality", family="gaussian", df=None):
    theta = [[1.0, 0.5], [1.0, 0.5]] if equal_curves else [[1.0, 0.5], [2.0, 0.25]]
    return {
        "m": 2,
        "q": 2,
        "times": list(TIMES4),
        "theta": theta,
        "sigma": ar_sigma(4, 0.3).tolist(),
        "noise": {"family": family, "df": df},
        "contrast": contrast,
    }


def _simulated(root, scenario=None, r=8, seed=42, c=((1.0, -1.0),), d=((0.0, 1.0),)) -> Path:
    """root/data, where ``gcm simulate`` wrote ``scenario`` (default ``_scenario_dict()``)
    drawn at r and seed from the config root/sim.json, with C.csv and D.csv added."""
    sim = root / "sim.json"
    sim.write_text(json.dumps({"scenario": scenario or _scenario_dict(), "r": r, "seed": seed}))
    data = root / "data"
    assert cli.main(["simulate", "--config", str(sim), "--out", str(data)]) == 0
    fileio.write_matrix_csv(str(data / "C.csv"), np.array(c))
    fileio.write_matrix_csv(str(data / "D.csv"), np.array(d))
    return data


@pytest.fixture
def sim_files(tmp_path):
    return _simulated(tmp_path)


def _estimate_refused(root, tmp_path, code=2, **swap) -> dict:
    """``gcm estimate`` on the CSVs in ``root``, checked by ``_refused``."""
    return _refused(["estimate", *estimation_argv(root, **swap), "--out", tmp_path / "o"], code)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_expected_shapes(sim_files):
    y = fileio.read_matrix_csv(str(sim_files / "Y.csv"))
    x = fileio.read_matrix_csv(str(sim_files / "X.csv"))
    z = fileio.read_matrix_csv(str(sim_files / "Z.csv"))
    assert y.shape == (16, 4)
    assert x.shape == (16, 2)
    assert z.shape == (4, 2)
    # the truth file is the simulate config as read, and the report echoes it
    truth = fileio.read_json(str(sim_files / "truth.json"))
    assert truth == {"scenario": _scenario_dict(), "r": 8, "seed": 42}
    report = fileio.read_json(str(sim_files / "report.json"))
    assert report["meta"]["seed"] == 42 and report["inputs"] == truth and report["errors"] == []
    assert report["results"] == {"files": ["Y.csv", "X.csv", "Z.csv", "truth.json"]}


def test_simulate_is_deterministic(tmp_path):
    config = {"scenario": _scenario_dict(), "r": 4, "seed": 7}
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(config))
    for out in ("a", "b"):
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / out)]) == 0
    for name in ("Y.csv", "X.csv", "Z.csv", "truth.json", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_seed_flag_overrides_config(tmp_path):
    config = {"scenario": _scenario_dict(), "r": 4, "seed": 7}
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["simulate", "--config", str(cfg_path), "--seed", "8",
                     "--out", str(tmp_path / "o")]) == 0
    truth = fileio.read_json(str(tmp_path / "o" / "truth.json"))
    assert truth["seed"] == 8


def test_simulate_on_its_truth_file_rewrites_the_same_files(tmp_path):
    # a truth file is the simulate config that made the data, --seed applied
    scenario = _scenario_dict(family="student_t", df=6.0)
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps({"scenario": scenario, "r": 5, "seed": 7}))
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main(["simulate", "--config", str(cfg_path), "--seed", "8",
                     "--out", str(first)]) == 0
    assert cli.main(["simulate", "--config", str(first / "truth.json"),
                     "--out", str(second)]) == 0
    for name in ("Y.csv", "X.csv", "Z.csv", "truth.json", "report.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.mark.parametrize("command", ["simulate", "mc-level"])
def test_a_refused_seed_is_not_echoed_and_a_later_success_replaces_the_report(tmp_path, command):
    # until a command has checked its seed, an error report says seed null and
    # echoes no inputs; a success in the same --out then writes its own report
    if command == "simulate":
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"scenario": _scenario_dict(), "r": 4, "seed": 7}))
    else:
        cfg = _mc_config(tmp_path, kind="level", replications=2)
    out = tmp_path / "o"
    argv = [command, "--config", cfg, "--out", out]
    assert _refused([*argv, "--seed", "-1"], 2)["type"] == "ConfigError"
    report = _strict_json((out / "report.json").read_text())
    assert report["meta"]["seed"] is None and report["inputs"] == {}
    assert cli.main([str(a) for a in argv]) == 0
    report = _strict_json((out / "report.json").read_text())
    assert report["errors"] == [] and report["meta"]["seed"] == json.loads(cfg.read_text())["seed"]


def test_empty_out_writes_the_error_report_where_a_success_goes(tmp_path, monkeypatch):
    # --out "" is the working directory: a refusal replaces the success report there
    monkeypatch.chdir(tmp_path)
    Path("sim.json").write_text(json.dumps({"scenario": _scenario_dict(), "r": 4, "seed": 7}))
    argv = ["simulate", "--config", "sim.json", "--out", ""]
    assert cli.main(argv) == 0
    assert _strict_json(Path("report.json").read_text())["errors"] == []
    assert _refused([*argv, "--seed", "-1"], 2)["type"] == "ConfigError"


def test_simulate_requires_seed(tmp_path):
    config = {"scenario": _scenario_dict(), "r": 4}
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(config))
    error = _refused(["simulate", "--config", cfg_path, "--out", tmp_path / "o"], 2)
    assert error["type"] == "ConfigError" and error["message"].startswith("a seed is required")


# ---------------------------------------------------------------------------
# estimate


def test_estimate_report_matches_library_exactly(sim_files, tmp_path):
    out = tmp_path / "est"
    argv = estimation_argv(sim_files, truth="truth.json", out=out)
    assert cli.main(["estimate", *argv]) == 0
    results = fileio.read_json(str(out / "report.json"))["results"]

    data, contrast = read_inputs(sim_files)
    gamma = estimators.two_stage_gamma(data, contrast)
    law = inference.plugin_cov(data.design, estimators.sigma_hat(data), contrast)
    assert np.array_equal(np.asarray(results["gamma"]), gamma)
    assert np.array_equal(np.asarray(results["cov_left"]), law.left)
    assert np.array_equal(np.asarray(results["cov_right"]), law.right)
    assert np.array_equal(
        np.asarray(results["std_errors"]), inference.standard_errors(law)
    )

    scenario = fileio.read_json(str(sim_files / "truth.json"))["scenario"]
    theta_true, sigma_true = np.asarray(scenario["theta"]), np.asarray(scenario["sigma"])
    expected_gamma_err = float(np.linalg.norm(gamma - contrast.apply(theta_true)))
    assert results["truth_errors"]["gamma_err_fro"] == expected_gamma_err
    expected_sigma_err = float(np.linalg.norm(estimators.sigma_hat(data).a - sigma_true))
    assert results["truth_errors"]["sigma_err_fro"] == expected_sigma_err


def test_estimate_with_known_sigma_matches_ols(tmp_path):
    # Z = [I_q; 0] and identity covariance reduce the estimator to OLS on the
    # first q response columns
    rng = np.random.default_rng(3)
    n, m, p, q = 12, 2, 4, 2
    x = rng.standard_normal((n, m))
    z = np.vstack([np.eye(q), np.zeros((p - q, q))])
    y = rng.standard_normal((n, p))
    write_inputs(tmp_path, y, x, z, np.eye(m), np.eye(q), S0=np.eye(p))
    assert cli.main(["estimate", *estimation_argv(tmp_path, sigma0="S0.csv", out="est")]) == 0
    report = fileio.read_json(str(tmp_path / "est" / "report.json"))
    assert report["results"]["estimator"] == "known_sigma"
    ols = np.linalg.lstsq(x, y[:, :q], rcond=None)[0]
    assert np.allclose(np.asarray(report["results"]["gamma"]), ols, atol=1e-10)


def test_estimate_zero_contrast_gives_zero_gamma(sim_files, tmp_path):
    fileio.write_matrix_csv(str(sim_files / "C.csv"), np.zeros((1, 2)))
    out = tmp_path / "est"
    assert cli.main(["estimate", *estimation_argv(sim_files), "--out", str(out)]) == 0
    report = fileio.read_json(str(out / "report.json"))
    assert np.array_equal(np.asarray(report["results"]["gamma"]), np.zeros((1, 1)))


def test_estimate_header_flag(tmp_path, sim_files):
    # prepend a header row to every input and re-run with --header
    for name in ("Y", "X", "Z", "C", "D"):
        path = sim_files / f"{name}.csv"
        body = path.read_text()
        width = len(body.splitlines()[0].split(","))
        header = ",".join(f"col{i}" for i in range(width))
        path.write_text(header + "\n" + body)
    out = tmp_path / "est"
    assert cli.main(["estimate", *estimation_argv(sim_files), "--header", "--out", str(out)]) == 0


# ---------------------------------------------------------------------------
# test command


def test_test_command_fields_are_consistent(sim_files, tmp_path):
    out = tmp_path / "tst"
    assert cli.main(["test", *estimation_argv(sim_files), "--alpha", "0.05", "--out", str(out)]) == 0
    results = fileio.read_json(str(out / "report.json"))["results"]
    # the p-value must be recomputable from chi_sq and dof by an external table
    reference = stats.chi2.sf(results["chi_sq"], results["dof"])
    assert results["p_value"] == pytest.approx(reference, abs=1e-12)
    assert results["reject"] == (results["p_value"] < 0.05)
    t_stat = np.asarray(results["t_stat"])
    assert results["chi_sq"] == pytest.approx(float((t_stat**2).sum()), abs=1e-12)


def test_test_command_null_data_accepts(tmp_path):
    # equal group curves: gamma = 0 exactly, the test should not reject
    out = _simulated(tmp_path, _scenario_dict(equal_curves=True), r=50, seed=3)
    tst = tmp_path / "tst"
    assert cli.main(["test", *estimation_argv(out), "--out", str(tst)]) == 0
    results = fileio.read_json(str(tst / "report.json"))["results"]

    data, contrast = read_inputs(out)
    expected = inference.test_gamma_zero(data, contrast, 0.05)
    assert results["chi_sq"] == expected.chi_sq
    assert results["p_value"] == expected.p_value
    assert results["reject"] is False


def test_test_command_alpha_one_always_rejects(sim_files, tmp_path):
    out = tmp_path / "tst"
    assert cli.main(["test", *estimation_argv(sim_files), "--alpha", "1.0", "--out", str(out)]) == 0
    results = fileio.read_json(str(out / "report.json"))["results"]
    assert results["p_value"] < 1.0
    assert results["reject"] is True


# ---------------------------------------------------------------------------
# mc commands


def _mc_config(tmp_path, kind="consistency", **overrides):
    doc = {
        "scenario": _scenario_dict(
            equal_curves=(kind == "level"),
            contrast="equality" if kind == "level" else "identity",
        ),
        "sample_sizes": [4, 8, 16] if kind == "consistency" else [20],
        "replications": 40,
        "seed": 2718,
    }
    doc.update(overrides)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    return path


def test_mc_consistency_table_has_one_row_per_size(tmp_path):
    cfg = _mc_config(tmp_path)
    out = tmp_path / "mc"
    assert cli.main(["mc-consistency", "--config", str(cfg), "--out", str(out)]) == 0
    table = (out / "tables" / "consistency.csv").read_text().splitlines()
    assert table[0] == "n,median_sigma_err,median_gamma_err,h_gap"
    assert len(table) == 4


def test_mc_report_bytes_are_reproducible(tmp_path, monkeypatch):
    cfg = _mc_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    monkeypatch.delenv("GCM_THREADS", raising=False)
    assert cli.main(["mc-consistency", "--config", str(cfg), "--out", str(a)]) == 0
    monkeypatch.setenv("GCM_THREADS", "2")
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1e3")  # a build clock the report does not read
    assert cli.main(["mc-consistency", "--config", str(cfg), "--out", str(b)]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "tables" / "consistency.csv").read_bytes() == (
        b / "tables" / "consistency.csv"
    ).read_bytes()


def test_mc_normality_table_matches_report(tmp_path):
    cfg = _mc_config(tmp_path, kind="normality")
    out = tmp_path / "mc"
    assert cli.main(["mc-normality", "--config", str(cfg), "--out", str(out)]) == 0
    report = fileio.read_json(str(out / "report.json"))
    lines = (out / "tables" / "covariance_match.csv").read_text().splitlines()
    assert lines[0] == "relative_frobenius"
    assert float(lines[1]) == report["results"]["cells"][0]["rel_frobenius"]
    norm_lines = (out / "tables" / "normality.csv").read_text().splitlines()
    assert norm_lines[0] == "coordinate,ks_distance,mean,variance,skewness,ex_kurtosis"
    assert len(norm_lines) == 1 + 4  # identity contrast on a 2x2 theta


def test_mc_level_table_columns(tmp_path):
    cfg = _mc_config(tmp_path, kind="level")
    out = tmp_path / "mc"
    assert cli.main(["mc-level", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "tables" / "level.csv").read_text().splitlines()
    assert lines[0] == "alpha,rejection_rate,n_replicates"
    alpha, rate, reps = lines[1].split(",")
    assert float(alpha) == 0.05
    assert 0.0 <= float(rate) <= 1.0
    assert int(reps) == 40


def test_mc_level_runs_a_contrast_that_reads_one_theta_column(tmp_path):
    # C theta D' = theta[0, 0] - theta[1, 0]: the alternative bumps theta[0, 0]
    scenario = _scenario_dict(equal_curves=True, contrast={"c": [[1.0, -1.0]], "d": [[1.0, 0.0]]})
    cfg = _mc_config(tmp_path, kind="level", scenario=scenario)
    out = tmp_path / "mc"
    assert cli.main(["mc-level", "--config", str(cfg), "--out", str(out)]) == 0
    cell = fileio.read_json(str(out / "report.json"))["results"]["cells"][0]
    assert cell["successes"] == 40
    assert 0.0 <= cell["alt_rejection_rate"] <= 1.0


def test_mc_dump_resummarizes_to_the_same_report(tmp_path):
    cfg = _mc_config(tmp_path)
    out = tmp_path / "mc"
    assert cli.main(
        ["mc-consistency", "--config", str(cfg), "--out", str(out), "--dump-replicates"]
    ) == 0
    report = fileio.read_json(str(out / "report.json"))
    config = mc.McConfig.from_dict(
        {k: v for k, v in report["inputs"].items() if k != "dump_replicates"}, "consistency"
    )
    contrast = config.scenario.contrast
    cols = mc.record_columns("consistency", contrast.s, contrast.t)
    for cell_doc in report["results"]["cells"]:
        dump = fileio.read_matrix_csv(
            str(out / "tables" / f"replicates_r{cell_doc['r']}.csv"), skip_header=True
        )
        records = {c: dump[:, 1 + i] for i, c in enumerate(cols)}
        redone = mc.summarize_cell("consistency", records, config.scenario, cell_doc["r"])
        assert fileio.jsonable(redone) == cell_doc


def test_mc_dump_bytes_match_the_table_writer(tmp_path, monkeypatch):
    # the dump goes through the matrix formatter; its bytes are those of the
    # named-column table writer: int replicate index, %.17g floats, nan as nan
    calls = {"n": 0}
    sigma_hat, run = estimators.sigma_hat, mc.run
    runs = []

    def flaky(data):
        # every fifth first stage fails, so the dump holds ok = 0 rows of nan
        calls["n"] += 1
        if calls["n"] % 5 == 0:
            raise NotSpd("synthetic failure")
        return sigma_hat(data)

    def keep(kind, cfg, **kwargs):
        runs.append((cfg, *run(kind, cfg, **kwargs)))
        return runs[-1][1:]

    monkeypatch.setenv("GCM_THREADS", "1")
    monkeypatch.setattr(estimators, "sigma_hat", flaky)
    monkeypatch.setattr(mc, "run", keep)
    cfg = _mc_config(tmp_path, sample_sizes=[4, 8])
    out = tmp_path / "mc"
    assert cli.main(
        ["mc-consistency", "--config", str(cfg), "--out", str(out), "--dump-replicates"]
    ) == 0
    ((config, cells, records),) = runs
    contrast = config.scenario.contrast
    cols = mc.record_columns("consistency", contrast.s, contrast.t)
    for cell, rec in zip(cells, records):
        assert 0 < cell["failures"] < cell["replications"]
        rows = [[i] + [rec[c][i] for c in cols] for i in range(cell["replications"])]
        expected = tmp_path / f"expected_r{cell['r']}.csv"
        fileio.write_table_csv(str(expected), ["replicate"] + cols, rows)
        dump = out / "tables" / f"replicates_r{cell['r']}.csv"
        assert dump.read_bytes() == expected.read_bytes()


def test_mc_seed_and_alpha_flags_override_config(tmp_path):
    # --seed overrides the config seed; the test level comes from the config alone
    cfg = _mc_config(tmp_path, kind="level", alpha=0.1)
    out = tmp_path / "mc"
    assert cli.main(["mc-level", "--config", str(cfg), "--seed", "5", "--out", str(out)]) == 0
    report = fileio.read_json(str(out / "report.json"))
    assert report["meta"]["seed"] == 5
    assert report["inputs"]["alpha"] == 0.1
    error = _refused(["mc-level", "--config", cfg, "--alpha", "0.2", "--out", out], 2)
    assert "--alpha" in error["message"]
    # the arguments never parsed, so --out is unknown and the report stays as it was
    assert fileio.read_json(str(out / "report.json")) == report


@pytest.mark.parametrize(
    "argv, words",
    [
        (["mc-level", "--config", "c.json", "--bogus"], "--bogus"),
        (["mc-level", "--out", "o"], "--config"),
        (["mc-level", "--config", "c.json", "--seed", "x"], "invalid int value"),
        (["simulate", "--config", "c.json", "--seed", "1.5"], "invalid int value"),
        (["test", "--y", "Y.csv"], "required"),
        (["mc-everything"], "invalid choice"),
        ([], "required"),
    ],
)
def test_usage_errors_follow_the_error_contract(tmp_path, monkeypatch, argv, words):
    monkeypatch.chdir(tmp_path)
    assert words in _refused(argv, 2)["message"]
    assert list(tmp_path.iterdir()) == []


COMMAND_NAMES = ["simulate", "estimate", "test", *(f"mc-{kind}" for kind in mc.KINDS)]


def _reference_tree():
    """Every command of cli's table as a subparser of one ``gcm`` parser: the tree
    that the one-command dispatch of ``cli.main`` must accept and refuse as."""
    parser = cli._Parser(
        prog="gcm", description="Growth curve model estimation and Monte Carlo verification"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, options, func) in cli._COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _parse_outcome(parse, argv):
    """What parsing ``argv`` gives: the parsed values and function, the usage error's
    message, or the exit code and the text written on a help exit."""
    text = io.StringIO()
    try:
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            args = vars(parse(argv))
    except ConfigError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, text.getvalue()
    func = args.pop("func")
    args.pop("command", None)
    return "ok", {key: repr(value) for key, value in args.items()}, func


_OPTION_STRINGS = sorted({flag for _, options, _ in cli._COMMANDS.values() for flag, _ in options})
_VALUES = st.one_of(
    st.integers(-3, 2**65).map(str),
    st.floats(-10, 10).map(str),
    st.sampled_from(["nan", "1e-3", "Y.csv", "-x", "out"]),
)
_TOKENS = st.one_of(st.sampled_from([*COMMAND_NAMES, "junk", "--", "--help", *_OPTION_STRINGS]),
                    _VALUES)


def _command_argvs(name):
    """argv lists naming ``name`` first with a value for each of its required options,
    then more of its options with values and a token that may not belong."""
    options = cli._COMMANDS[name][1]
    required = [flag for flag, kwargs in options if kwargs.get("required")]
    pair = st.tuples(st.sampled_from([flag for flag, _ in options]), _VALUES)
    return st.builds(
        lambda values, pairs, tail: [name, *(t for p in [*zip(required, values), *pairs]
                                             for t in p), *tail],
        st.lists(_VALUES, min_size=len(required), max_size=len(required)),
        st.lists(pair, max_size=3),
        st.lists(_TOKENS, max_size=1),
    )


# a list of any tokens or a command's argv, each about half the time
_ARGVS = st.tuples(
    st.booleans(), st.lists(_TOKENS, max_size=6),
    st.one_of(*(_command_argvs(name) for name in COMMAND_NAMES)),
).map(lambda drawn: drawn[1] if drawn[0] else drawn[2])
_TREE = _reference_tree()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_ARGVS)
def test_dispatch_accepts_and_refuses_what_the_subparser_tree_does(argv):
    outcome = _parse_outcome(cli._parse_args, argv)
    assert outcome == _parse_outcome(_TREE.parse_args, argv)
    if outcome[0] == "ok":
        assert outcome[2] is cli._COMMANDS[argv[0]][2]
    if not argv or argv[0] not in cli._COMMANDS:
        # these went to the overview, which never runs a command not named first
        assert outcome[0] != "ok"


@pytest.mark.parametrize("command", [None, *COMMAND_NAMES])
def test_help_text_is_the_subparser_trees(capsys, command):
    argv = [command, "--help"] if command else ["--help"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith(f"usage: gcm {command or ''}".rstrip())
    assert _parse_outcome(_TREE.parse_args, argv) == ("exit", 0, text)


@pytest.mark.parametrize(
    "command, options",
    [("simulate", {"--config", "--seed", "--out"}),
     ("test", {"--y", "--x", "--z", "--c", "--d", "--truth", "--header", "--out", "--alpha"})],
)
def test_one_call_builds_one_parser_with_only_its_commands_options(
    sim_files, tmp_path, monkeypatch, command, options
):
    parsers, added = [], []
    init, add_argument = cli._Parser.__init__, cli._Parser.add_argument

    def counting_init(self, *args, **kwargs):
        parsers.append(self)
        init(self, *args, **kwargs)

    def counting_add_argument(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    monkeypatch.setattr(cli._Parser, "add_argument", counting_add_argument)
    argv = {"simulate": ["simulate", "--config", str(sim_files.parent / "sim.json")],
            "test": ["test", *estimation_argv(sim_files)]}[command]
    assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 0
    (parser,) = parsers
    assert {s for a in parser._actions for s in a.option_strings} == {"-h", "--help", *options}
    assert len(added) == 1 + len(options)  # --help, then each of the command's options


@pytest.mark.parametrize(
    "kind, as_written",
    [*(pytest.param(kind, False, id=kind) for kind in mc.KINDS),
     pytest.param("level", True, id="level-as-written")],
)
def test_mc_report_holds_the_config_once(tmp_path, kind, as_written):
    # the config is echoed as read under inputs, with --seed applied; results
    # hold the kind and the cells only
    cfg = _mc_config(tmp_path, kind=kind, replications=4)
    argv = [f"mc-{kind}", "--config", str(cfg), "--out", str(tmp_path / "mc")]
    expected = json.loads(cfg.read_text())
    if as_written:
        # shorthand contrast, defaulted noise and integer times stay as written
        del expected["scenario"]["noise"]
        expected["scenario"].update(contrast="equality", times=[1, 2, 3, 4])
        cfg.write_text(json.dumps(expected))
        argv += ["--seed", "5"]
        expected["seed"] = 5
    assert cli.main(argv) == 0
    report = fileio.read_json(str(tmp_path / "mc" / "report.json"))
    assert set(report["results"]) == {"kind", "cells"}
    assert report["results"]["kind"] == kind
    inputs = report["inputs"]
    assert inputs.pop("dump_replicates") is False
    # compared as JSON text, so an integer echoed as a float is a difference
    assert json.dumps(inputs, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_mc_single_replicate_report_is_strict_json(tmp_path):
    # one replicate per cell leaves the Monte Carlo standard error undefined;
    # the report must say null, not the non-JSON token NaN
    cfg = _mc_config(tmp_path, replications=1)
    out = tmp_path / "mc"
    assert cli.main(["mc-consistency", "--config", str(cfg), "--out", str(out)]) == 0
    doc = _strict_json((out / "report.json").read_text())
    for cell in doc["results"]["cells"]:
        assert cell["successes"] == 1
        assert cell["se"] == [[None, None], [None, None]]


@pytest.mark.parametrize(
    "fault, kind, code",
    [("design", "ShapeViolation", 2), ("GCM_THREADS", "ConfigError", 2),
     ("table write", "FileExistsError", 3)],
)
def test_mc_error_report_after_the_config_is_checked_echoes_it(
    tmp_path, monkeypatch, fault, kind, code
):
    # once McConfig.from_dict accepts the config, a failure writes the inputs
    # and seed that a success would
    conf = json.loads((EXPERIMENTS / "level_gaussian.json").read_text())
    conf.update(replications=2, sample_sizes=[1] if fault == "design" else [8])
    cfg = tmp_path / "level.json"
    cfg.write_text(json.dumps(conf))
    out = tmp_path / "o"
    if fault == "GCM_THREADS":
        monkeypatch.setenv("GCM_THREADS", "two")
    elif fault == "table write":
        out.mkdir()
        (out / "tables").write_text("a file where the tables directory goes\n")
    assert _refused(["mc-level", "--config", cfg, "--out", out], code)["type"] == kind
    report = _strict_json((out / "report.json").read_text())
    assert report["meta"]["seed"] == 901
    assert report["inputs"] == {**conf, "dump_replicates": False}


def test_mc_error_report_on_a_refused_config_echoes_nothing(tmp_path):
    # read_json takes the NaN token, so a config from_dict refuses is not echoed
    cfg = _mc_config(tmp_path, kind="level", alpha=float("nan"))
    out = tmp_path / "o"
    assert _refused(["mc-level", "--config", cfg, "--out", out], 2)["type"] == "ConfigError"
    report = _strict_json((out / "report.json").read_text())
    assert report["inputs"] == {} and report["meta"]["seed"] is None


@pytest.mark.parametrize(
    "command, fault, code",
    [("estimate", "missing y", 3), ("test", "missing y", 3), ("test", "alpha nan", 2)],
)
def test_estimation_error_report_echoes_the_parsed_inputs(
    sim_files, tmp_path, command, fault, code
):
    # a failed estimate or test writes the inputs that a success would, as strict JSON
    assert cli.main([command, *estimation_argv(sim_files), "--out", str(tmp_path / "ok")]) == 0
    inputs = _strict_json((tmp_path / "ok" / "report.json").read_text())["inputs"]
    argv = estimation_argv(sim_files)
    if fault == "missing y":
        argv[1] = inputs["y"] = str(tmp_path / "nope.csv")
    else:
        argv += ["--alpha", "nan"]
        inputs["alpha"] = None
    error = _refused([command, *argv, "--out", tmp_path / "o"], code)
    assert error["type"] == {3: "FileNotFoundError", 2: "InvalidValue"}[code]
    report = _strict_json((tmp_path / "o" / "report.json").read_text())
    assert report["inputs"] == inputs and report["meta"]["seed"] is None


@pytest.mark.filterwarnings("error")
def test_mc_normality_moments_past_the_float_range_are_null(tmp_path):
    # a huge theta leaves rounding error in gamma_hat whose cube and fourth
    # power overflow: the moments are null, not an OverflowError, and no
    # numpy warning reaches stderr of a run that succeeds
    doc = json.loads(_mc_config(tmp_path, kind="normality", replications=4).read_text())
    doc["scenario"]["theta"][0][0] = 1.5e154
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "mc"
    assert cli.main(["mc-normality", "--config", str(cfg), "--out", str(out)]) == 0
    (cell,) = _strict_json((out / "report.json").read_text())["results"]["cells"]
    assert None in cell["coord_skewness"][0] + cell["coord_ex_kurtosis"][0]


def test_mc_normality_single_replicate_writes_both_tables(tmp_path):
    # a cell with fewer than 2 successes has no coordinate summaries: the
    # normality table gets no rows for it and the covariance match is nan
    cfg = _mc_config(tmp_path, kind="normality", replications=1)
    out = tmp_path / "mc"
    assert cli.main(["mc-normality", "--config", str(cfg), "--out", str(out)]) == 0
    doc = _strict_json((out / "report.json").read_text())
    assert [cell["successes"] for cell in doc["results"]["cells"]] == [1]
    tables = out / "tables"
    assert (tables / "normality.csv").read_text() == (
        "coordinate,ks_distance,mean,variance,skewness,ex_kurtosis\n"
    )
    assert (tables / "covariance_match.csv").read_text() == "relative_frobenius\nnan\n"


def test_mc_unbiasedness_writes_bias_report(tmp_path):
    cfg = _mc_config(tmp_path, kind="unbiasedness")
    out = tmp_path / "mc"
    assert cli.main(["mc-unbiasedness", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["report.json"]
    doc = _strict_json((out / "report.json").read_text())
    assert doc["results"]["kind"] == "unbiasedness"
    assert all("max_abs_bias_in_se" in cell for cell in doc["results"]["cells"])


@pytest.mark.parametrize("kind", mc.KINDS)
def test_mc_writes_the_tables_and_dump_columns_of_its_kind(tmp_path, kind):
    sizes = [8, 12]
    cfg = _mc_config(tmp_path, kind=kind, sample_sizes=sizes, replications=6)
    out = tmp_path / "mc"
    argv = [f"mc-{kind}", "--config", str(cfg), "--out", str(out), "--dump-replicates"]
    assert cli.main(argv) == 0
    dumps = [f"replicates_r{r}.csv" for r in sizes]
    written = sorted(p.name for p in (out / "tables").iterdir())
    assert written == sorted([*mc.KINDS[kind].tables, *dumps])
    contrast = mc.McConfig.from_dict(json.loads(cfg.read_text()), kind).scenario.contrast
    for name in dumps:
        header = (out / "tables" / name).read_text().splitlines()[0].split(",")
        assert header == ["replicate"] + mc.record_columns(kind, contrast.s, contrast.t)


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize("kind", ["normality", "level"])
@pytest.mark.parametrize(
    "c, d", [([[1.0, -1.0], [1.0, -1.0]], [[0.0, 1.0]]), ([[1.0, -1.0]], [[0.0, 1.0], [0.0, 2.0]])]
)
def test_exit_2_before_any_replicate_on_contrast_without_full_row_rank(
    tmp_path, monkeypatch, kind, c, d
):
    # the whitening needs C and D of full row rank; such a contrast is refused
    # up front instead of failing every replicate or the cell summary
    seeds = []
    monkeypatch.setattr(mc, "replicate_seed", lambda *args, **kw: seeds.append(args) or 0)
    scenario = _scenario_dict(equal_curves=True, contrast={"c": c, "d": d})
    cfg = _mc_config(tmp_path, kind=kind, scenario=scenario)
    error = _refused([f"mc-{kind}", "--config", cfg, "--out", tmp_path / "mc"], 2)
    assert error["type"] == "ConfigError"
    assert "full row rank" in error["message"]
    assert seeds == []


@pytest.mark.parametrize(
    "fault, kind, words",
    [("sigma0", "NotSpd", "sigma0"), ("d", "DimensionMismatch", "D has 3 columns"),
     ("sigma0 size", "DimensionMismatch", "sigma0 is 3 x 3 but Z has 4 rows"),
     ("sigma0 shape", "NotSpd", "sigma0 is not square: shape (4, 3)")],
)
def test_exit_2_on_estimate_input_that_does_not_fit(sim_files, tmp_path, fault, kind, words):
    sigma0 = {"sigma0": np.diag([1.0, -1.0, 1.0, 1.0]), "sigma0 size": np.eye(3),
              "sigma0 shape": np.eye(4, 3)}.get(fault)
    swap = {}
    if sigma0 is not None:
        fileio.write_matrix_csv(str(sim_files / "S0.csv"), sigma0)
        swap = {"sigma0": "S0.csv"}
    else:
        fileio.write_matrix_csv(str(sim_files / "D.csv"), np.array([[0.0, 1.0, 0.0]]))
    error = _estimate_refused(sim_files, tmp_path, **swap)
    assert error["type"] == kind
    assert words in error["message"]


def test_exit_2_on_a_sigma0_that_has_a_cholesky_factor_but_fails_check_spd(sim_files, tmp_path):
    # sigma0 is judged by check_spd's eigenvalue ratio only, so a Cholesky
    # factor does not admit it
    s0 = np.diag([1.0, 1.0, 1.0, 1e-12])
    np.linalg.cholesky(s0)
    fileio.write_matrix_csv(str(sim_files / "S0.csv"), s0)
    error = _estimate_refused(sim_files, tmp_path, sigma0="S0.csv")
    assert error["type"] == "NotSpd"
    assert error["message"].startswith("sigma0 is not positive definite: ")


@pytest.mark.parametrize("known, count", [(False, 25), (True, 9)])
def test_cli_fits_stay_at_their_factorization_counts(
    sim_files, tmp_path, factorizations, known, count
):
    # gcm estimate then gcm test (two-stage), or gcm estimate --sigma0: 37 and
    # 14 numpy factorizations when sigma_hat and sigma0 were each checked by
    # eigvalsh before their Cholesky-checked inverse
    fileio.write_matrix_csv(str(sim_files / "S0.csv"), ar_sigma(4, 0.3))
    runs = [("estimate", {"sigma0": "S0.csv"})] if known else [("estimate", {}), ("test", {})]
    factorizations.clear()
    for command, swap in runs:
        argv = estimation_argv(sim_files, **swap, out=tmp_path / command)
        assert cli.main([command, *argv]) == 0
    assert len(factorizations) == count


_LONG_ROW = ",".join(["3.0"] * 99_999)


@pytest.mark.parametrize(
    "body, kind, prefix",
    [
        (b"1.0,2.0\n3.0,not_a_number\n", "MatrixParseError", "{}:2: "),
        # an excerpt of a long row keeps the message short
        (f"{_LONG_ROW},3.0\n{_LONG_ROW},not_a_number\n".encode(), "MatrixParseError", "{}:2: "),
        # the library's own ValueErrors are ValidationErrors, so they still exit 2
        (None, "InvalidValue", "Y contains "),
        (b"1.0,2.0\n3.0\n", "MatrixParseError", "{}:2: "),
        (b"1.0,2.0\n3.0,\xff\n", "MatrixParseError", "{}: not UTF-8 "),
    ],
    ids=["malformed", "long-malformed-row", "non-finite", "ragged", "non-utf8"],
)
def test_exit_2_on_a_bad_y_csv(sim_files, tmp_path, body, kind, prefix):
    path = sim_files / "Y.csv"
    if body is None:  # the simulated Y with one NaN
        y = fileio.read_matrix_csv(str(path))
        y[3, 1] = np.nan
        fileio.write_matrix_csv(str(path), y)
    else:
        path.write_bytes(body)
    error = _estimate_refused(sim_files, tmp_path)
    assert error["type"] == kind and error["message"].startswith(prefix.format(path))
    assert len(error["message"]) < len(str(sim_files)) + 300


def test_exit_2_on_invalid_design(tmp_path):
    # square Z violates p > q
    y = np.random.default_rng(0).standard_normal((6, 2))
    write_inputs(tmp_path, y, np.vstack([np.eye(2)] * 3), np.array([[1.0, 1.0], [1.0, 2.0]]),
                 np.eye(2), np.eye(2))
    assert _estimate_refused(tmp_path, tmp_path)["type"] == "ShapeViolation"


def test_exit_2_on_an_x_whose_gram_matrix_does_not_factor(tmp_path):
    # X passes the rank check on its singular values, but X'X does not factor:
    # a refused design, not a crash
    x, rng = zero_pivot_x()
    write_inputs(tmp_path, rng.standard_normal((40, 4)), x, np.vander(TIMES4, 2, increasing=True),
                 np.array([[0.0, 1.0, -1.0]]), np.array([[0.0, 1.0]]))
    error = _estimate_refused(tmp_path, tmp_path)
    assert error["type"] == "RankDeficient" and error["message"].startswith("X'X ")


def test_exit_2_on_repeated_config_key(tmp_path):
    # json keeps the last of two equal keys; a config that repeats one is refused
    cfg = _mc_config(tmp_path, kind="level")
    text = cfg.read_text().replace('"replications": 40', '"replications": 5000, "replications": 20')
    cfg.write_text(text)
    out = tmp_path / "o"
    error = _refused(["mc-level", "--config", cfg, "--out", out], 2)
    assert error["type"] == "ConfigError"
    assert str(cfg) in error["message"] and "'replications'" in error["message"]
    assert not (out / "tables").exists()


def _scenario_edit(**change):
    """A truth-file edit that updates its scenario by ``change``."""
    def edit(text):
        truth = json.loads(text)
        truth["scenario"].update(change)
        return json.dumps(truth)  # a NaN is written as the token read_json accepts
    return edit


@pytest.mark.parametrize(
    "edit, prefix",
    [
        # a truth file is checked as a simulate config is: no coercion, no
        # unknown keys, no repeated keys
        (_scenario_edit(sigma=[[float("nan")] * 4] * 4), "truth file {}: sigma must be "),
        (_scenario_edit(sigma=[[1.0, 0.0], [0.0, 1.0]]), "truth file {}: sigma must be "),
        (_scenario_edit(theta=[["1.0", "0.5"], ["2.0", "0.25"]]), "truth file {}: theta must be "),
        (_scenario_edit(sigma=[[True] * 4] * 4), "truth file {}: sigma must be "),
        (_scenario_edit(bogus=1), "truth file {}: unknown scenario keys: ['bogus']"),
        (lambda text: text.replace('"seed":', '"seed": 1, "seed":', 1),
         "{}: repeated JSON keys ['seed']"),
        # a valid simulate config of another shape is not the truth of this data
        (_scenario_edit(m=3, theta=[[1.0, 0.5], [2.0, 0.25], [0.5, 1.5]]),
         "truth file {}: theta must be "),
        (_scenario_edit(times=TIMES4[:3], sigma=ar_sigma(3, 0.3).tolist()),
         "truth file {}: sigma must be "),
        # a truth file is a whole simulate config; theta alone is not one
        (lambda text: json.dumps({"theta": json.loads(text)["scenario"]["theta"]}),
         "truth file {}: unknown simulate config keys: ['theta']"),
    ],
    ids=["nan-sigma", "2x2-sigma", "string-theta", "bool-sigma", "unknown-key", "repeated-key",
         "3-group-theta", "3-time-sigma", "theta-only"],
)
@pytest.mark.parametrize("known_sigma", [False, True])  # on either route
def test_exit_2_on_a_bad_truth_file(sim_files, tmp_path, edit, prefix, known_sigma):
    path = tmp_path / "truth.json"
    path.write_text(edit((sim_files / "truth.json").read_text()))
    fileio.write_matrix_csv(str(sim_files / "S0.csv"), np.eye(4))
    swap = {"sigma0": "S0.csv"} if known_sigma else {}
    error = _estimate_refused(sim_files, tmp_path, **swap, truth=path)
    assert error["type"] == "ConfigError" and error["message"].startswith(prefix.format(path))


@pytest.mark.filterwarnings("error")
def test_truth_error_past_the_float_range_is_null(sim_files, tmp_path):
    # the squared error overflows; the report stays strict JSON and no numpy
    # warning reaches stderr
    truth = fileio.read_json(str(sim_files / "truth.json"))
    truth["scenario"]["theta"][0][0] = 1.5e154
    path = tmp_path / "truth.json"
    path.write_text(json.dumps(truth))
    out = tmp_path / "o"
    assert cli.main(["estimate", *estimation_argv(sim_files, truth=path, out=out)]) == 0
    errors = _strict_json((out / "report.json").read_text())["results"]["truth_errors"]
    assert errors["theta_err_fro"] is None and errors["sigma_err_fro"] is not None


def test_sigma0_is_an_estimate_option_only(sim_files, tmp_path):
    # the test statistic is defined for the two-stage estimator alone
    fileio.write_matrix_csv(str(sim_files / "S0.csv"), np.eye(4))
    argv = estimation_argv(sim_files, sigma0="S0.csv")
    assert "--sigma0" in _refused(["test", *argv, "--out", tmp_path / "o"], 2)["message"]
    assert not (tmp_path / "o").exists()


_RAGGED = [[1.0, 0.5], [2.0]]
# a theta nested 900 deep, which read_json reads: refused as malformed, not by a RecursionError
_DEEP = json.loads("[" * 900 + "1.0" + "]" * 900)
# a 200000-row theta with one string entry, whose whole repr is 2.4 MB
_HUGE = [[1.0, 0.5]] * 100000 + [["x", 0.5]] + [[1.0, 0.5]] * 99999
_UNKNOWN_NOISE_KEY = {"family": "uniform", "df": None, "sd": 5}
_INDEFINITE = np.diag([1.0, -1.0, 1.0, 1.0]).tolist()


@pytest.mark.parametrize(
    "command, path, value, name",
    [
        ("mc-consistency", ("replications",), 2.9, "replications"),
        ("mc-consistency", ("sample_sizes",), [8.7], "sample_sizes"),
        ("mc-consistency", ("scenario", "m"), 2.5, "m"),
        ("simulate", ("r",), 8.7, "r"),
        ("mc-consistency", ("replications",), None, "replications"),
        ("mc-consistency", ("sample_sizes",), 5, "sample_sizes"),
        ("mc-consistency", ("scenario", "times"), 5, "times"),
        ("mc-consistency", ("scenario", "noise", "df"), [6], "df"),
        ("mc-level", ("alpha",), "abc", "alpha"),
        ("mc-consistency", ("scenario", "times"), ["a", 2, 3, 4], "times"),
        ("mc-consistency", ("scenario", "theta"), _RAGGED, "theta"),
        ("mc-consistency", ("scenario", "m"), "two", "m"),
        ("mc-consistency", ("scenario", "contrast", "c"), _RAGGED, "contrast c"),
        ("mc-consistency", ("scenario", "theta"), [[1.0, 0.5, 0.0], [2.0, 0.25, 0.0]], "theta"),
        ("mc-level", ("alpha",), "0.05", "alpha"),
        ("mc-level", ("alpha",), True, "alpha"),
        ("mc-consistency", ("scenario", "times"), ["1", "2", "3", "4"], "times"),
        ("mc-consistency", ("scenario", "theta"), [[True, False], [True, True]], "theta"),
        ("mc-consistency", ("scenario", "noise", "df"), "6", "df"),
        ("simulate", ("scenario", "noise", "df"), float("inf"), "df"),
        ("mc-unbiasedness", ("scenario", "contrast"), None, "contrast"),
        ("mc-consistency", ("scenario", "sigma"), np.eye(3).tolist(), "sigma"),
        ("mc-consistency", ("scenario", "contrast", "c"), [[1.0, -1.0, 0.0]], "contrast"),
        ("mc-level", ("sample_sizes",), [2**40], "sample_sizes"),
        ("simulate", ("r",), 2**40, "r"),
        ("mc-consistency", ("replications",), 10**6 + 1, "replications"),
        ("mc-level", ("alpha",), float("nan"), "alpha"),
        ("simulate", ("scenario", "theta"), _DEEP, "theta"),
        ("mc-level", ("scenario", "theta"), _DEEP, "theta"),
        ("mc-consistency", ("replications",), _DEEP, "replications"),
        ("simulate", ("scenario", "theta"), _HUGE, "theta"),
        ("mc-level", ("sample_sizes",), {"sizes": "8" * 10**6}, "sample_sizes"),
        ("mc-level", ("scenario", "k" * 10**6), 1.0, "unknown scenario keys"),
        ("mc-consistency", ("bogus",), 1, "unknown config keys: ['bogus']"),
        ("mc-consistency", ("seed",), -3, "seed must be an integer"),
        ("mc-consistency", ("seed",), 1.7, "seed must be an integer"),
        ("mc-consistency", ("seed",), 2**70, "seed must be an integer"),
        ("mc-consistency", ("scenario", "noise"), _UNKNOWN_NOISE_KEY,
         "unknown scenario noise keys: ['sd']"),
        ("simulate", ("scenario", "noise"), _UNKNOWN_NOISE_KEY,
         "unknown scenario noise keys: ['sd']"),
        ("mc-consistency", ("scenario", "sigma"), _INDEFINITE, "scenario key 'sigma'"),
        ("simulate", ("scenario", "sigma"), _INDEFINITE, "scenario key 'sigma'"),
    ],
)
def test_exit_2_on_malformed_config_value(tmp_path, command, path, value, name):
    # config values are checked, never truncated or handed to numpy unchecked
    if command == "simulate":
        doc = {"scenario": _scenario_dict(), "r": 8, "seed": 1}
    else:
        doc = json.loads(_mc_config(tmp_path, kind=command.removeprefix("mc-")).read_text())
    doc["scenario"]["noise"] = {"family": "student_t", "df": 6.0}
    doc["scenario"]["contrast"] = {"c": [[1.0, -1.0]], "d": [[0.0, 1.0]]}
    *parents, key = path
    target = doc
    for parent in parents:
        target = target[parent]
    target[key] = value
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    error = _refused([command, "--config", cfg, "--out", tmp_path / "o"], 2)
    assert error["type"] == "ConfigError"
    assert error["message"].startswith(name)
    # the message quotes an excerpt of the value, never all of it
    assert len(error["message"]) < 300


@pytest.mark.parametrize("key", ["m", "q"])
def test_exit_2_on_equality_contrast_with_a_huge_m_or_q(tmp_path, key):
    # the equality contrast is sized by theta, so a size theta does not have
    # is refused before any matrix is built
    scenario = _scenario_dict(contrast="equality")
    scenario[key] = 2**64
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"scenario": scenario, "r": 8, "seed": 1}))
    error = _refused(["simulate", "--config", cfg, "--out", tmp_path / "o"], 2)
    assert error["type"] == "ConfigError"
    assert error["message"].startswith("theta must be ")


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("mc-consistency", "dump_replicates", True),
        ("mc-consistency", "dump_replicates", "false"),
        ("mc-consistency", "dump_replicates", 1),
        ("mc-level", "dump_replicates", None),
        ("mc-consistency", "out_dir", "elsewhere"),
        ("mc-level", "theta_alt", [[1.0, 0.5], [1.0, 0.75]]),
        ("mc-consistency", "alpha", 0.05),
        ("mc-normality", "alpha", 0.05),
        ("mc-unbiasedness", "alpha", 0.05),
    ],
)
def test_exit_2_on_run_option_in_config(tmp_path, command, key, value):
    # --out and --dump-replicates are the only way to set these run options,
    # and a kind refuses a key it does not read: only level runs test at alpha
    cfg = _mc_config(tmp_path, kind=command.removeprefix("mc-"), **{key: value})
    out = tmp_path / "o"
    error = _refused([command, "--config", cfg, "--out", out], 2)
    assert error["type"] == "ConfigError"
    assert repr(key) in error["message"]
    assert not (out / "tables").exists()


def test_exit_2_on_repeated_sample_size(tmp_path):
    # one dump file per size: a repeated size would overwrite the first cell's records
    cfg = _mc_config(tmp_path, kind="unbiasedness", sample_sizes=[8, 8], replications=2)
    out = tmp_path / "o"
    error = _refused(["mc-unbiasedness", "--config", cfg, "--out", out, "--dump-replicates"], 2)
    assert error["type"] == "ConfigError"
    assert error["message"].startswith("sample_sizes")
    assert not (out / "tables").exists()


def _key_checked(tmp_path, name):
    """(loader, valid document, key of the nested object checked or None, a required key)."""

    def simulate(doc):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(doc))
        cli.cmd_simulate(argparse.Namespace(config=str(path), seed=None, out=str(tmp_path / "o")))

    scenario = _scenario_dict(family="uniform")
    config = json.loads(_mc_config(tmp_path).read_text())
    return {
        "scenario": (mc.Scenario.from_dict, scenario, None, "m"),
        "scenario noise": (mc.Scenario.from_dict, scenario, "noise", "family"),
        "config": (lambda doc: mc.McConfig.from_dict(doc, "consistency"), config, None, "seed"),
        "simulate config": (simulate, {"scenario": scenario, "r": 8, "seed": 1}, None, "r"),
    }[name]


@pytest.mark.parametrize(
    "name, fault",
    [
        (name, fault)
        for name in ("scenario", "scenario noise", "config", "simulate config")
        for fault in ("non-object", "missing", "unknown")
    ],
)
def test_key_checked_objects_refuse_malformed_input(tmp_path, name, fault):
    load, doc, nested, required = _key_checked(tmp_path, name)
    load(doc)
    target = doc[nested] if nested else doc
    if fault == "non-object":
        target = [target]
    elif fault == "missing":
        target = {k: v for k, v in target.items() if k != required}
    else:
        target = {**target, "bogus": 1}
    if nested:
        doc[nested] = target
    else:
        doc = target
    with pytest.raises(ConfigError) as info:
        load(doc)
    if fault != "non-object":
        assert repr(required if fault == "missing" else "bogus") in str(info.value)


@pytest.mark.parametrize(
    "text, words",
    [("[1, 2]", "JSON object"), ('{"seed": 1,', "invalid JSON"),
     # JSON that the decoder cannot hold: nesting past its recursion limit, and an
     # integer too long to convert
     pytest.param("[" * 100_000 + "]" * 100_000, "decoder cannot hold", id="nesting"),
     pytest.param('{"replications": ' + "9" * 5000 + "}", "4300 digits", id="long integer")],
)
def test_exit_2_on_config_that_is_not_a_json_object(tmp_path, text, words):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    error = _refused(["mc-level", "--config", cfg, "--out", tmp_path / "o"], 2)
    assert error["type"] == "ConfigError"
    assert str(cfg) in error["message"] and words in error["message"]


def test_exit_2_on_non_utf8_config(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(_mc_config(tmp_path, kind="level").read_bytes().replace(b"2718", b"27\xff8"))
    error = _refused(["mc-level", "--config", cfg, "--out", tmp_path / "o"], 2)
    assert error["type"] == "ConfigError"
    assert str(cfg) in error["message"]


def test_unexpected_value_error_is_not_exit_2(tmp_path, monkeypatch):
    # only ValidationError means a bad input; a bare ValueError is a bug and propagates
    def broken(kind, cfg, **kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr(mc, "run", broken)
    cfg = _mc_config(tmp_path)
    with pytest.raises(ValueError, match="internal failure"):
        cli.main(["mc-consistency", "--config", str(cfg), "--out", str(tmp_path / "o")])


def test_exit_2_on_bad_alpha(sim_files, tmp_path):
    argv = ["test", *estimation_argv(sim_files), "--alpha", "0.0", "--out", tmp_path / "o"]
    assert _refused(argv, 2)["type"] == "InvalidValue"


def test_exit_3_on_missing_input(sim_files, tmp_path):
    argv = estimation_argv(sim_files, y="nope.csv")
    assert _refused(["estimate", *argv, "--out", tmp_path / "o"], 3)["type"] == "FileNotFoundError"


def test_exit_4_on_too_few_samples(tmp_path):
    rng = np.random.default_rng(1)
    write_inputs(tmp_path, Y=rng.standard_normal((5, 4)), X=rng.standard_normal((5, 2)),
                 Z=np.vander(np.array(TIMES4), 2, increasing=True), C=np.array([[1.0, -1.0]]),
                 D=np.array([[0.0, 1.0]]))
    assert _estimate_refused(tmp_path, tmp_path, 4)["type"] == "TooFewSamples"


def test_exit_4_on_noise_free_data(tmp_path):
    design = model.potthoff_roy_design(2, 5, TIMES4, 2)
    theta = np.array([[1.0, 0.5], [2.0, 0.25]])
    write_inputs(tmp_path, design.X @ theta @ design.Z.T, design.X, design.Z,
                 np.array([[1.0, -1.0]]), np.array([[0.0, 1.0]]))
    # the error report still lands, machine readable
    assert _estimate_refused(tmp_path, tmp_path, 4)["type"] == "NotSpd"


def _q3_scenario(theta, times=NEAR_COLLINEAR_TIMES) -> dict:
    """m = 2 and q = 3 on five times, with AR(0.4) sigma."""
    return {**_scenario_dict(contrast="identity"), "q": 3, "times": times,
            "sigma": ar_sigma(5).tolist(), "theta": theta}


@pytest.mark.parametrize("command", ["estimate", "test"])
def test_exit_4_on_a_singular_second_stage(tmp_path, command):
    # the first stage fits, but Z' sigma_hat^{-1} Z does not factor at working
    # precision (which of solve_spd's two refusals depends on the LAPACK build);
    # an orthogonal second stage would fit this Z and change the code
    theta = [[-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    data = _simulated(tmp_path, _q3_scenario(theta), r=20, seed=3, d=np.eye(3))
    error = _refused([command, *estimation_argv(data), "--out", tmp_path / "o"], 4)
    assert error["type"] == "NotSpd"
    assert error["message"].startswith(("Z' sigma^{-1} Z has no Cholesky factorization: ",
                                        "Z' sigma^{-1} Z is singular at working precision: "))


@pytest.mark.parametrize("name,standardizer", [
    ("C", "C (X'X)^{-1} C'"), ("D", "D (Z' sigma_hat^{-1} Z)^{-1} D'"),
], ids=["C", "D"])
def test_exit_5_on_singular_standardizer(sim_files, tmp_path, name, standardizer):
    # a repeated row leaves C or D without full row rank; the message names the
    # standardizer that is singular
    path = str(sim_files / f"{name}.csv")
    fileio.write_matrix_csv(path, np.repeat(fileio.read_matrix_csv(path), 2, axis=0))
    argv = ["test", *estimation_argv(sim_files), "--out", tmp_path / "o"]
    error = _refused(argv, 5)
    assert error["type"] == "NotSpd"
    assert error["message"].startswith(f"{standardizer} is not positive definite")


@pytest.mark.parametrize("k", [0, 1, *(
    pytest.param(k, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 13"))
    for k in (2, 3, 4))])
def test_test_chi_sq_does_not_depend_on_the_time_unit(tmp_path, k):
    # theta = 0, so the seed-1 Y does not depend on the times: the same Y, tested on Z
    # built on the times (1..5) x 10^k, gives the same chi^2. From k = 2 on, the right
    # standardizer's eigenvalue ratio falls below RANK_RTOL and the test exits 5
    times = [1.0, 2.0, 3.0, 4.0, 5.0]
    scenario = _q3_scenario([[0.0] * 3] * 2, times)
    data = _simulated(tmp_path, scenario, r=20, seed=1, c=np.eye(2), d=np.eye(3))
    z = np.vander(np.array(times) * 10.0**k, 3, increasing=True)
    fileio.write_matrix_csv(str(data / "Z.csv"), z)
    assert cli.main(["test", *estimation_argv(data), "--out", str(tmp_path / "o")]) == 0
    chi_sq = fileio.read_json(str(tmp_path / "o" / "report.json"))["results"]["chi_sq"]
    assert chi_sq == pytest.approx(6.7550557063, rel=1e-9)


@pytest.mark.parametrize("k", [0, 5, pytest.param(
    6, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 13"))])
def test_test_chi_sq_does_not_depend_on_a_covariate_unit(tmp_path, k):
    # X = [1, x] with x in a unit 10^k times smaller is x_basis with A = diag(1, 10^k).
    # C = D = I test theta = 0, the same hypothesis in every unit, so chi^2 is the
    # law's. At k = 6 the eigenvalue ratio of C (X'X)^{-1} C' falls below RANK_RTOL
    # (eigenvalues in [2.891e-14, 2.500e-02]) and the test exits 5
    rng = np.random.default_rng(1)
    x = np.column_stack([np.ones(40), rng.standard_normal(40)])
    design = model.Design(X=x, Z=np.vander(TIMES4, 2, increasing=True))
    noise = model.NoiseSpec(family="gaussian", sigma=ar_sigma(4))
    data = model.simulate(design, np.zeros((2, 2)), noise, seed=1)
    identity = model.Contrast(C=np.eye(2), D=np.eye(2))
    moved, _ = x_basis(data, identity, np.diag([1.0, 10.0**k]))
    write_inputs(tmp_path, moved.Y, moved.design.X, design.Z, np.eye(2), np.eye(2))
    assert cli.main(["test", *estimation_argv(tmp_path, out="o")]) == 0
    chi_sq = fileio.read_json(str(tmp_path / "o" / "report.json"))["results"]["chi_sq"]
    expected = inference.test_gamma_zero(data, identity, 0.05).chi_sq
    assert chi_sq == pytest.approx(expected, rel=1e-9)


def _leaves(doc, path=()):
    """The path to every leaf (a value that is not an object or a list) of a JSON document."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return [leaf for key, value in items for leaf in _leaves(value, (*path, key))]
    return [path]


def _small_documents() -> dict:
    """A small valid config per command; "truth" is the truth file of ``_simulated()``."""
    docs = {"simulate": {"scenario": _scenario_dict(), "r": 6, "seed": 5},
            "truth": {"scenario": _scenario_dict(), "r": 8, "seed": 42}}
    for kind in mc.KINDS:
        docs[f"mc-{kind}"] = {
            "scenario": _scenario_dict(equal_curves=kind == "level"),
            "sample_sizes": [6, 8] if kind == "consistency" else [6],
            "replications": 3,
            "seed": 5,
        }
    docs["mc-level"]["alpha"] = 0.05
    return docs


_DOCUMENTS = _small_documents()
# replacement leaves: small sizes, so a run that is accepted stays cheap, and
# values each check must refuse
_LEAF_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=40),
    st.sampled_from([2**64, 2**70, 10**7]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.sampled_from(["gaussian", "uniform", "student_t", "identity", "equality"]),
    st.lists(st.integers(min_value=0, max_value=3), max_size=2),
    st.dictionaries(st.sampled_from(["c", "d", "family"]), st.integers(0, 2), max_size=2),
)


@pytest.fixture(scope="module")
def shared_sim_files(tmp_path_factory):
    return _simulated(tmp_path_factory.mktemp("shared"))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_changed_config_leaf_exits_0_or_2_by_the_error_contract(shared_sim_files, data):
    # a config of each mc-* kind, a simulate config and a truth file, one leaf
    # changed: success with strict JSON, or exit 2 with one JSON line and the
    # error in report.json, never a traceback and never a warning
    name = data.draw(st.sampled_from(sorted(_DOCUMENTS)), label="document")
    doc = copy.deepcopy(_DOCUMENTS[name])
    *parents, key = data.draw(st.sampled_from(_leaves(doc)), label="leaf")
    target = doc
    for parent in parents:
        target = target[parent]
    target[key] = data.draw(_LEAF_VALUES, label="value")
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "config.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(doc))
        if name == "truth":
            argv = ["estimate", *estimation_argv(shared_sim_files, truth=cfg)]
        else:
            argv = [name, "--config", str(cfg)]
        argv += ["--out", str(out)]
        with mock.patch.dict(os.environ, {"GCM_THREADS": "1"}), \
                warnings.catch_warnings(record=True) as caught:
            # pytest's own capture would take a warning before stderr shows it
            warnings.simplefilter("always")
            proc = _main(argv)
        assert [str(w.message) for w in caught] == []
        if proc.returncode == 0:
            assert proc.stderr == ""
            assert _strict_json((out / "report.json").read_text())["errors"] == []
        else:
            _refused(argv, 2, run=lambda argv: proc)


def _gcm_process(argv, threads=1, start_method=None):
    """``gcm argv`` run in a fresh interpreter, so its stderr holds every warning that
    escapes; with ``start_method``, the process pool starts its workers that way."""
    if start_method is None:
        entry = ["-m", "gcm.cli"]
    else:
        entry = ["-c", "import multiprocessing as mp, sys; from gcm import cli; "
                 f"mp.set_start_method({start_method!r}); sys.exit(cli.main(sys.argv[1:]))"]
    return child_python(*entry, *argv, GCM_THREADS=str(threads), PYTHONWARNINGS=None)


def test_run_on_an_ill_conditioned_time_design_writes_nothing_to_stderr(tmp_path):
    # cond(Z) = 6.8e9: the design fits, and a run that exits 0 writes nothing to stderr
    doc = {"scenario": {**_scenario_dict(contrast="identity"), "q": 3,
                        "times": [1.0, 1e3, 1e4, 3e4, 1e5], "sigma": ar_sigma(5, 0.3).tolist(),
                        "theta": [[0.0] * 3] * 2},
           "sample_sizes": [10], "replications": 3, "seed": 1}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    proc = _gcm_process(["mc-unbiasedness", "--config", cfg, "--out", tmp_path / "o"])
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("threads, start_method", [(1, None), (2, None), (2, "spawn")])
def test_overflowing_run_writes_one_json_line_from_any_worker(tmp_path, threads, start_method):
    # the first stage overflows in every replicate, in this process or in pool
    # workers however they start: one JSON line, no numpy warning before it
    cfg = _mc_config(tmp_path, sample_sizes=[8], replications=8)
    doc = json.loads(cfg.read_text())
    doc["scenario"]["theta"][0][0] = 1e200
    cfg.write_text(json.dumps(doc))
    argv = ["mc-consistency", "--config", cfg, "--out", tmp_path / "o"]
    error = _refused(argv, 2, run=lambda argv: _gcm_process(argv, threads, start_method))
    assert error["type"] == "InvalidValue"


def test_estimate_with_undefined_std_errors_writes_nothing_to_stderr(tmp_path):
    # near-collinear time points: cov_right has a negative diagonal, so the
    # standard errors are null in the report and no sqrt warning is written
    theta = [[1.0, 0.5, 0.25], [2.0, 0.5, 0.25]]
    data = _simulated(tmp_path, _q3_scenario(theta), r=20, seed=3, d=np.eye(3))
    proc = _gcm_process(["estimate", *estimation_argv(data), "--out", tmp_path / "o"])
    assert (proc.returncode, proc.stderr) == (0, "")
    std_errors = _strict_json((tmp_path / "o" / "report.json").read_text())["results"]["std_errors"]
    assert std_errors == [[None] * 3]


# ---------------------------------------------------------------------------
# file round trips and schema

def test_matrix_csv_round_trip_is_bit_exact(tmp_path):
    tricky = np.array(
        [
            [np.pi, 1.0 / 3.0, 1e-15],
            [-0.0, 2.0**-1074, 1.7976931348623157e308],
            [123456789.123456789, -1e-300, 0.1],
        ]
    )
    path = tmp_path / "m.csv"
    fileio.write_matrix_csv(str(path), tricky)
    back = fileio.read_matrix_csv(str(path))
    assert np.array_equal(back, tricky)
    assert back.tobytes() == tricky.tobytes()  # -0.0 round-trips too


def test_every_report_has_exactly_the_schema_keys(sim_files, tmp_path):
    # simulate, estimate, test, each mc-* kind and an error report share one top-level schema
    runs = {
        "simulate": (["simulate", "--config", str(sim_files.parent / "sim.json")], 0),
        "estimate": (["estimate", *estimation_argv(sim_files)], 0),
        "test": (["test", *estimation_argv(sim_files)], 0),
        "error": (["estimate", *estimation_argv(sim_files, truth=tmp_path / "nope.json")], 3),
    }
    for kind in mc.KINDS:
        cfg = _mc_config(tmp_path, kind=kind, replications=2)
        runs[f"mc-{kind}"] = ([f"mc-{kind}", "--config", str(cfg)], 0)
    for name, (argv, code) in runs.items():
        out = tmp_path / name
        if code:
            assert _refused([*argv, "--out", out], code)["type"] == "FileNotFoundError"
        else:
            assert cli.main([*argv, "--out", str(out)]) == 0, name
        doc = fileio.read_json(str(out / "report.json"))
        assert set(doc) == {"meta", "inputs", "results", "errors"}, name
        assert set(doc["meta"]) == {"version", "seed"}, name


def test_json_writer_refuses_non_finite_values(tmp_path):
    path = tmp_path / "r.json"
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            fileio.write_json(str(path), {"x": bad})
    assert not path.exists()
    # jsonable is how a report gets them past the writer: numpy scalars become
    # Python numbers, and a non-finite one null
    assert fileio.jsonable({"x": np.float64("nan"), "n": np.int64(3)}) == {"x": None, "n": 3}


def test_matrix_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n\n3.0,4.0\n")
    with pytest.raises(MatrixParseError) as excinfo:
        fileio.read_matrix_csv(str(path))
    assert excinfo.value.line == 2


def test_console_script_is_installed():
    proc = child_python("-m", "gcm.cli", "--help")
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_import_loads_no_process_pool():
    # concurrent.futures.process is imported only by a run that starts the pool; the
    # child imports the gcm under test
    code = ("import sys, gcm, gcm.cli; "
            "print('concurrent.futures.process' in sys.modules, gcm.__file__)")
    proc = child_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"False {gcm.__file__}"


def test_runs_load_no_numpy_ma(tmp_path):
    # numpy.ma costs each process about 1 MB and 10 ms; np.unique loads it.
    # mc-consistency is left out: its summary's np.median still loads numpy.ma
    data = _simulated(tmp_path)
    runs = [
        ["simulate", "--config", tmp_path / "sim.json", "--out", tmp_path / "sim"],
        ["estimate", *estimation_argv(data), "--out", tmp_path / "estimate"],
        ["test", *estimation_argv(data), "--out", tmp_path / "test"],
        ["mc-level", "--config", _mc_config(tmp_path, kind="level", replications=5),
         "--out", tmp_path / "level"],
    ]
    code = (
        "import json, sys\n"
        "from gcm import cli\n"
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(codes, 'numpy.ma' in sys.modules)"
    )
    argv = json.dumps([[str(a) for a in run] for run in runs])
    proc = child_python("-c", code, argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0] False"


def test_import_loads_no_scipy():
    # the runtime needs numpy and the standard library only
    code = "import sys, gcm, gcm.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = child_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
