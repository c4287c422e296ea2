#!/usr/bin/env python3
"""Run one Monte Carlo experiment per noise family and print its tables.

    python3 scripts/run_experiment.py consistency --out results/consistency
    python3 scripts/run_experiment.py normality   --out results/normality
    python3 scripts/run_experiment.py level       --out results/level

consistency sweeps group sizes and tabulates how the estimator errors
shrink. normality checks the normal limit of the scaled estimation error at
one large n: covariance match against the Kronecker-factored limit and
per-coordinate diagnostics of the whitened error. level measures the
empirical level of the chi-square test under equal curves (the equality
contrast maps to gamma = 0, so rejections are false positives), with a
fixed alternative alongside for a power readout.

Each family gets config_<family>.json and a run directory <family>/ with
report.json and tables/ under --out.
"""

import argparse
import json
from pathlib import Path

from gcm import cli, fileio, mc

SIGMA = [
    [1.0, 0.4, 0.16, 0.064],
    [0.4, 1.0, 0.4, 0.16],
    [0.16, 0.4, 1.0, 0.4],
    [0.064, 0.16, 0.4, 1.0],
]

# Per experiment: scenario and defaults; only the level test takes an alpha.
# The tables printed after each run are those of the run kind, mc.KINDS.
EXPERIMENTS = {
    "consistency": {
        "scenario": {
            "m": 3, "q": 2, "times": [1.0, 2.0, 3.0, 4.0],
            "theta": [[1.0, 0.5], [2.0, 0.25], [0.5, 1.5]], "contrast": "equality",
        },
        "replications": 500,
        "seed": 601,
        "sizes": [16, 64, 256],
        "families": ["gaussian", "uniform"],
    },
    "normality": {
        "scenario": {
            "m": 2, "q": 2, "times": [1.0, 2.0, 3.0, 4.0],
            "theta": [[1.0, 0.5], [2.0, 0.25]], "contrast": "identity",
        },
        "replications": 5000,
        "seed": 701,
        "sizes": [250],
        "families": ["gaussian", "uniform"],
    },
    "level": {
        "scenario": {
            "m": 2, "q": 2, "times": [1.0, 2.0, 3.0, 4.0],
            "theta": [[1.0, 0.5], [1.0, 0.5]], "contrast": "equality",
        },
        "replications": 5000,
        "seed": 901,
        "alpha": 0.05,
        "sizes": [250],
        "families": ["gaussian", "student_t"],
    },
}


def parse_args():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind, spec in EXPERIMENTS.items():
        p = sub.add_parser(kind, help=f"mc-{kind} per noise family")
        p.add_argument("--out", default=f"results/{kind}", help="output directory")
        p.add_argument("--replications", type=int, default=spec["replications"])
        p.add_argument("--seed", type=int, default=spec["seed"])
        if "alpha" in spec:
            p.add_argument("--alpha", type=float, default=spec["alpha"], help="test level")
        p.add_argument("--sizes", type=int, nargs="+", default=spec["sizes"],
                       help="subjects per group, one cell each")
        p.add_argument(
            "--families", nargs="+", default=spec["families"],
            choices=["gaussian", "uniform", "student_t"],
        )
    return parser.parse_args()


def main():
    args = parse_args()
    spec = EXPERIMENTS[args.kind]
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    for family in args.families:
        scenario = dict(spec["scenario"], sigma=SIGMA)
        scenario["noise"] = {
            "family": family,
            "df": 6.0 if family == "student_t" else None,
        }
        config = {
            "scenario": scenario,
            "sample_sizes": args.sizes,
            "replications": args.replications,
            "seed": args.seed,
        }
        if "alpha" in spec:
            config["alpha"] = args.alpha
        cfg_path = out_root / f"config_{family}.json"
        cfg_path.write_text(json.dumps(config, indent=2))
        run_dir = out_root / family
        code = cli.main([f"mc-{args.kind}", "--config", str(cfg_path), "--out", str(run_dir)])
        if code != 0:
            raise SystemExit(code)
        print(f"== {family} ==")
        for table in mc.KINDS[args.kind].tables:
            print((run_dir / "tables" / table).read_text())
        report = fileio.read_report(str(run_dir / "report.json"))
        for cell in report["results"]["cells"]:
            if "alt_rejection_rate" in cell:
                print(f"power at the fixed alternative (r={cell['r']}): "
                      f"{cell['alt_rejection_rate']:.3f}\n")


if __name__ == "__main__":
    main()
