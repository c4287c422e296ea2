"""Each committed experiment config is a config of its kind and runs as one."""

import json
from pathlib import Path

import pytest

from gcm import cli, fileio, mc

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "experiments").glob("*.json"))


def test_experiments_are_committed():
    assert [path.stem for path in CONFIGS] == [
        "consistency_gaussian", "consistency_uniform", "level_gaussian",
        "level_student_t", "normality_gaussian", "normality_uniform",
    ]


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_experiment_runs_as_its_kind(tmp_path, monkeypatch, path):
    kind, family = path.stem.split("_", 1)
    assert kind in mc.KINDS
    doc = fileio.read_json(str(path))
    assert mc.McConfig.from_dict(doc, kind).scenario.noise.family == family
    small = dict(doc, replications=3, sample_sizes=[6, 8, 10][: len(doc["sample_sizes"])])
    config = tmp_path / path.name
    config.write_text(json.dumps(small))
    out = tmp_path / "out"
    monkeypatch.setenv("GCM_THREADS", "1")
    assert cli.main([f"mc-{kind}", "--config", str(config), "--out", str(out)]) == 0
    assert sorted(p.name for p in (out / "tables").iterdir()) == sorted(mc.KINDS[kind].tables)
    report = fileio.read_json(str(out / "report.json"))
    assert report["inputs"] == {**small, "dump_replicates": False}
