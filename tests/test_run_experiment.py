"""scripts/run_experiment.py runs each of its experiments and prints the kind's tables."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from gcm import mc

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "run_experiment.py"


@pytest.mark.parametrize("kind", ["consistency", "normality", "level"])
def test_run_experiment_prints_every_table_of_its_kind(tmp_path, kind):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, GCM_THREADS="1")
    argv = [sys.executable, str(SCRIPT), kind, "--replications", "3", "--sizes", "8"]
    done = subprocess.run(
        [*argv, "--out", str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    families = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
    assert families
    for family in families:
        for table in mc.KINDS[kind].tables:
            assert (tmp_path / family / "tables" / table).read_text() in done.stdout
