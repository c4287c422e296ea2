"""Command-line front end: simulate, estimate, test and Monte Carlo runs.

Exit codes: 0 success, 2 validation failure (bad config, malformed files,
invalid designs), 3 I/O failure, 4 singular fit (a first-stage estimate or a
Z' sigma^{-1} Z that does not factor), 5 singular standardizer in the test
statistic. Each command returns its results; ``main`` writes the one
``report.json``, on success and on failure alike.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import warnings

import numpy as np

from . import estimators, fileio, inference, linalg, mc, model
from .errors import ConfigError, NotSpd, TooFewSamples, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_SINGULAR_FIT = 4
EXIT_SINGULAR_STANDARDIZER = 5


class CommandError(Exception):
    """Command failure carrying the exit code and a machine-readable kind."""

    def __init__(self, code: int, kind: str, message: str):
        self.code = code
        self.kind = kind
        super().__init__(message)


def _simulate_config(config, seed=None) -> tuple:
    """Check a simulate config, ``seed`` (when given) replacing its own; returns its
    scenario, r and seed. A truth file is the simulate config of its data."""
    fileio.check_keys(config, "simulate config", ("scenario", "r"), ("seed",))
    if seed is not None:
        config["seed"] = seed
    scenario = mc.Scenario.from_dict(config["scenario"])
    r = scenario.check_size(config["r"], "r")
    if "seed" not in config:
        raise ConfigError("a seed is required: pass --seed or set 'seed' in the config")
    return scenario, r, mc.check_int(config["seed"], "seed", 0, 2**64)


def cmd_simulate(args) -> dict:
    config = fileio.read_json(args.config)
    scenario, r, seed = _simulate_config(config, args.seed)
    # every value was checked above, so the config echoes as read
    args.echo = (seed, config)
    design = scenario.design(r)
    data = model.simulate(design, scenario.theta, scenario.noise, seed)
    for name, a in (("Y.csv", data.Y), ("X.csv", design.X), ("Z.csv", design.Z)):
        fileio.write_matrix_csv(os.path.join(args.out, name), a)
    fileio.write_json(os.path.join(args.out, "truth.json"), config)
    return {"files": ["Y.csv", "X.csv", "Z.csv", "truth.json"]}


def _load_estimation_inputs(args):
    y = fileio.read_matrix_csv(args.y, args.header)
    x = fileio.read_matrix_csv(args.x, args.header)
    z = fileio.read_matrix_csv(args.z, args.header)
    c = fileio.read_matrix_csv(args.c, args.header)
    d = fileio.read_matrix_csv(args.d, args.header)
    design = model.Design(X=x, Z=z)
    model.validate(design)
    data = model.Dataset(Y=y, design=design)
    contrast = model.Contrast(C=c, D=d)
    contrast.check(design)
    return data, contrast


def _truth_errors(path, design, contrast, theta, sigma_value):
    """Frobenius errors of theta, gamma and (two-stage runs) sigma_hat against a truth file.

    The file is the simulate config that made the data, checked as ``simulate``
    checks it; its theta and sigma must then match the data's shapes.
    """
    truth = fileio.read_json(path)
    try:
        true = _simulate_config(truth)[0]
        for key, value, shape in (("theta", true.theta, theta.shape),
                                  ("sigma", true.noise.sigma, (design.p, design.p))):
            if value.shape != shape:
                raise ConfigError(f"{key} must be {shape[0]} x {shape[1]}, got {value.shape}")
    except ValidationError as exc:
        raise ConfigError(f"truth file {path}: {exc}") from exc
    gamma_error = contrast.apply(theta) - contrast.apply(true.theta)
    errors = {
        "theta_err_fro": float(np.linalg.norm(theta - true.theta)),
        "gamma_err_fro": float(np.linalg.norm(gamma_error)),
    }
    if sigma_value is not None:
        errors["sigma_err_fro"] = float(np.linalg.norm(sigma_value - true.noise.sigma))
    return errors


def _estimate_results(args, sigma0=None):
    """Fit the CSV inputs of ``args``: by the known-covariance estimator when a
    ``sigma0`` CSV is given, else by the two-stage estimator."""
    # a report from here on, error or not, echoes every parsed input, so the parser
    # is the one list of them
    args.echo = (None, {key: value for key, value in vars(args).items()
                        if key not in ("func", "out")})
    data, contrast = _load_estimation_inputs(args)
    if sigma0:
        try:
            sigma = linalg.SpdFactor(fileio.read_matrix_csv(sigma0, args.header), "sigma0")
        except NotSpd as exc:
            raise CommandError(EXIT_VALIDATION, "NotSpd", str(exc)) from exc
        sigma_value = None
        estimator_name = "known_sigma"
    else:
        sigma = estimators.sigma_hat(data)
        sigma_value = sigma.a
        estimator_name = "two_stage"
    theta = estimators.theta_hat_known(data, sigma)
    law = inference.plugin_cov(data.design, sigma, contrast)
    gamma = contrast.apply(theta)
    results = {
        "estimator": estimator_name,
        "gamma": gamma,
        "theta": theta,
        "cov_left": law.left,
        "cov_right": law.right,
        "std_errors": inference.standard_errors(law),
    }
    if sigma_value is not None:
        results["sigma_hat"] = sigma_value
    if args.truth:
        results["truth_errors"] = _truth_errors(
            args.truth, data.design, contrast, theta, sigma_value
        )
    return data, contrast, results


def cmd_estimate(args) -> dict:
    return _estimate_results(args, args.sigma0)[2]


def cmd_test(args) -> dict:
    data, contrast, results = _estimate_results(args)
    try:
        outcome = inference.test_gamma_zero(data, contrast, args.alpha)
    except NotSpd as exc:
        raise CommandError(EXIT_SINGULAR_STANDARDIZER, "NotSpd", str(exc)) from exc
    results.update(t_stat=outcome.T_stat, chi_sq=outcome.chi_sq, dof=outcome.dof,
                   p_value=outcome.p_value, alpha=outcome.alpha, reject=outcome.reject)
    return results


def cmd_mc(args, kind: str) -> dict:
    conf = fileio.read_json(args.config)
    if not isinstance(conf, dict):
        raise ConfigError(f"{args.config}: config must be a JSON object")
    if args.seed is not None:
        conf["seed"] = args.seed
    cfg = mc.McConfig.from_dict(conf, kind)
    # from_dict checked every value, so a report from here on, error or not, echoes it as read
    args.echo = (cfg.seed, {**conf, "dump_replicates": args.dump_replicates})
    cells, records = mc.run(kind, cfg, worker_init=_ignore_warnings)
    for name, (header, rows) in mc.KINDS[kind].tables.items():
        body = [row for cell in cells for row in rows(cfg, cell)]
        fileio.write_table_csv(os.path.join(args.out, "tables", name), header, body)
    if args.dump_replicates:
        _write_dumps(args.out, cells, records)
    return {"kind": kind, "cells": cells}


def _write_dumps(out: str, cells: list, records: list) -> None:
    """One CSV per cell: the replicate index, then each record column in the record's order."""
    for cell, rec in zip(cells, records):
        table = np.column_stack([np.arange(cell["replications"]), *rec.values()])
        path = os.path.join(out, "tables", f"replicates_r{cell['r']}.csv")
        fileio.write_table_csv(path, ["replicate", *rec], table)


def _write_report(args, results, errors=None) -> None:
    """``report.json`` in ``--out``: the seed and inputs of ``args.echo``, which a command
    sets once it has checked them (until then none), then ``results`` or ``errors``."""
    seed, inputs = getattr(args, "echo", (None, {}))
    report = fileio.make_report(seed, inputs, results, errors)
    fileio.write_json(os.path.join(args.out, "report.json"), report)


def _emit_error(args, kind: str, message: str, code: int) -> int:
    """The one stderr JSON line and, once the arguments parse, an error report; returns ``code``."""
    error = {"type": kind, "message": message, "exit_code": code}
    print(json.dumps({"error": error}, sort_keys=True), file=sys.stderr)
    # --out "" writes into the working directory, on failure as on success
    if getattr(args, "out", None) is not None:
        with contextlib.suppress(OSError):
            _write_report(args, None, [error])
    return code


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ConfigError, so it follows the error contract."""

    def error(self, message):
        raise ConfigError(message)


_OUT = ("--out", dict(default=".", help="output directory"))
_ESTIMATION = (
    ("--y", dict(required=True, help="observations CSV (n x p)")),
    ("--x", dict(required=True, help="between-individual design CSV (n x m)")),
    ("--z", dict(required=True, help="within-individual design CSV (p x q)")),
    ("--c", dict(required=True, help="left contrast CSV (s x m)")),
    ("--d", dict(required=True, help="right contrast CSV (t x q)")),
    ("--truth", dict(default=None, help="truth.json for error reporting")),
    ("--header", dict(action="store_true", help="skip one header row in input CSVs")),
    _OUT,
)
_MC = (
    ("--config", dict(required=True, help="experiment config JSON")),
    ("--seed", dict(type=int, default=None, help="override the config seed")),
    _OUT,
    ("--dump-replicates", dict(action="store_true",
                               help="write per-replicate records to tables/replicates_r*.csv")),
)
# each command's help line, its options (flag, add_argument keywords) in usage order, and
# the function that runs it
_COMMANDS = {
    "simulate": ("simulate a dataset and write Y/X/Z/truth files", (
        ("--config", dict(required=True, help="scenario config JSON")),
        ("--seed", dict(type=int, default=None, help="unsigned 64-bit seed")),
        _OUT,
    ), cmd_simulate),
    "estimate": ("estimate gamma = C theta D' from CSV data", (
        *_ESTIMATION, ("--sigma0", dict(default=None, help="known covariance CSV (p x p)")),
    ), cmd_estimate),
    "test": ("chi-square test of C theta D' = 0", (
        *_ESTIMATION, ("--alpha", dict(type=float, default=0.05, help="test level")),
    ), cmd_test),
    **{f"mc-{kind}": (f"Monte Carlo {kind} run", _MC, lambda a, k=kind: cmd_mc(a, k))
       for kind in mc.KINDS},
}


def _command_parser(name: str, parser=None) -> argparse.ArgumentParser:
    """``name``'s options and function on ``parser``, by default a parser of its own."""
    parser = _Parser(prog=f"gcm {name}") if parser is None else parser
    for flag, options in _COMMANDS[name][1]:
        parser.add_argument(flag, **options)
    parser.set_defaults(func=_COMMANDS[name][2])
    return parser


def _overview_parser() -> argparse.ArgumentParser:
    """``gcm`` with every command as a subcommand, as ``gcm --help`` lists them."""
    parser = _Parser(
        prog="gcm",
        description="Growth curve model estimation and Monte Carlo verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _COMMANDS.items():
        _command_parser(name, sub.add_parser(name, help=help_line))
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """Only the command named first gets a parser built; help, a missing or unknown
    command and an option before the command go to the whole overview tree."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        return _command_parser(argv[0]).parse_args(argv[1:])
    return _overview_parser().parse_args(argv)


def _ignore_warnings() -> None:
    """Ignore Python warnings and numpy floating-point errors in this process: a report
    writes an undefined value as null, and stderr holds only the error contract."""
    np.seterr(all="ignore")
    warnings.simplefilter("ignore")


def main(argv=None) -> int:
    args = None
    try:
        args = _parse_args(argv)
        # both restore the caller's settings on exit
        with np.errstate(), warnings.catch_warnings():
            _ignore_warnings()
            _write_report(args, args.func(args))
        return EXIT_OK
    except CommandError as exc:
        return _emit_error(args, exc.kind, str(exc), exc.code)
    except ValidationError as exc:
        return _emit_error(args, type(exc).__name__, str(exc), EXIT_VALIDATION)
    except (TooFewSamples, NotSpd) as exc:
        return _emit_error(args, type(exc).__name__, str(exc), EXIT_SINGULAR_FIT)
    except OSError as exc:
        return _emit_error(args, type(exc).__name__, str(exc), EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
