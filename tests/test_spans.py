"""The benchmark's declared per-layer spans: every one opens in a traced run of the CLI chain."""

import json
import os
import subprocess
import sys
from pathlib import Path

import simlabel
from conftest import write_pipeline_fixture

ROOT = Path(__file__).resolve().parents[1]
# Runs in a child interpreter: Recorder.install patches the package's module
# attributes for the whole process. It wraps only modules already imported.
CHILD = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
import simlabel.cli
import spans
from run import COMMANDS
for layer in spans.LAYERS:
    importlib.import_module(f"simlabel.{layer}")
recorder = spans.Recorder()
recorder.install()
argvs = {command: [command, "--config", sys.argv[2], "--workers", "1"] for command in COMMANDS}
wall, codes = spans.run_chain(simlabel.cli.main, argvs, recorder)
print(json.dumps({"codes": codes, "metrics": sorted(spans.layer_metrics(recorder, wall))}))
"""


def test_every_declared_self_time_is_measured(tmp_path):
    fx = write_pipeline_fixture(tmp_path, n_labeled_per=20, n_unlabeled_per=60)
    package_dir = str(Path(simlabel.__file__).parents[1])
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [package_dir, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", CHILD, str(ROOT / "bench"), str(fx["config"])],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr[-2000:]
    run = json.loads(result.stdout.splitlines()[-1])
    assert set(run["codes"].values()) == {0}, (run["codes"], result.stderr[-2000:])
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    declared = [metric["name"] for metric in per_layer if metric["name"].endswith(".self_s")]
    assert declared
    assert [name for name in declared if name not in run["metrics"]] == []
