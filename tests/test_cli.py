"""CLI pipeline tests: artifacts, error paths, determinism, input immutability."""

import contextlib
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simlabel.kernel
import simlabel.matcher
import simlabel.probe
from conftest import make_schema, write_pipeline_fixture
from oracles import gower_oracle
from simlabel.cli import KINDS, OPTIONS, build_parser, load_config, main
from simlabel.dataset import load_dataset, load_schema

PIPELINE = ("split", "ranges", "calibrate", "match", "augment", "train", "score", "evaluate", "report")


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full pipeline run shared by the read-only assertions below."""
    fx = write_pipeline_fixture(tmp_path_factory.mktemp("pipeline"))
    fx["input_hashes"] = {name: sha(fx[name]) for name in ("schema", "labeled", "unlabeled")}
    for command in PIPELINE:
        assert main([command, "--config", str(fx["config"])]) == 0, command
    for command, flags in (
        ("probe-grid", ["--sample-id", "l0000"]),
        ("probe-shell", ["--sample-id", "l0000"]),
    ):
        assert main([command, "--config", str(fx["config"]), *flags]) == 0, command
    return fx


class TestPipelineArtifacts:
    def test_split_files_partition_the_labeled_data(self, pipeline):
        schema = load_schema(pipeline["schema"])
        train = load_dataset(pipeline["out"] / "train.csv", schema)
        test = load_dataset(pipeline["out"] / "test.csv", schema)
        source = load_dataset(pipeline["labeled"], schema)
        assert len(train) + len(test) == len(source)
        assert max(r.timestamp for r in train.rows) < min(r.timestamp for r in test.rows)

    def test_calibrate_writes_the_95th_percentile_d(self, pipeline):
        params = json.loads((pipeline["out"] / "params.json").read_text())
        schema = load_schema(pipeline["schema"])
        train = load_dataset(pipeline["out"] / "train.csv", schema)
        ranges = json.loads((pipeline["out"] / "ranges.json").read_text())["ranges"]
        sims = []
        rows = train.rows
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                sims.append(gower_oracle(rows[i].features, rows[j].features, ranges))
        sims.sort()
        expected = sims[min(max(math.ceil(0.95 * len(sims)) - 1, 0), len(sims) - 1)]
        assert params["d"] == expected
        assert "percentile" in params["provenance"]

    def test_calibrated_c_meets_the_budget_strictly(self, pipeline):
        params = json.loads((pipeline["out"] / "params.json").read_text())
        assert params["matched_fraction_at_c"] < 0.05
        assert "labeled_similarity_distribution" in params

    def test_every_json_artifact_is_its_exact_format(self, pipeline):
        # the contributor sidecars are json.dumps without indent; every other JSON artifact has a two-space indent
        sidecars = {"match_train_contributors.json", "match_test_contributors.json"}
        artifacts = sorted(pipeline["out"].glob("*.json"))
        assert sidecars | {"recourse_l0000.json"} <= {path.name for path in artifacts}
        for path in artifacts:
            text = path.read_text(encoding="utf-8")
            indent = None if path.name in sidecars else 2
            assert text == json.dumps(json.loads(text), indent=indent) + "\n", path.name

    def test_match_output_shape(self, pipeline):
        lines = (pipeline["out"] / "match_train.csv").read_text().splitlines()
        assert lines[0] == "id,t,y_hat,matched_count,g0,g1"
        assert len(lines) == 801  # header + one row per unlabeled sample
        sidecar = json.loads((pipeline["out"] / "match_train_contributors.json").read_text())
        assert len(sidecar) == 800

    def test_augmented_train_has_provenance_columns(self, pipeline):
        lines = (pipeline["out"] / "augmented_train.csv").read_text().splitlines()
        assert lines[0].endswith("source,vote,matched_count")
        flagged = [line for line in lines[1:] if ",similar," in line]
        assert flagged, "expected similar rows in the augmented training set"

    def test_models_record_stop_reason_and_config_echo(self, pipeline):
        for name in ("model_plain.json", "model_augmented.json"):
            payload = json.loads((pipeline["out"] / name).read_text())
            assert payload["stop_reason"] in ("tolerance", "iteration-budget")
            assert payload["run_config"]["l2"] == 0.1

    def test_report_has_table_one_shape(self, pipeline):
        report = json.loads((pipeline["out"] / "eval_report.json").read_text())
        assert report["models"] == ["logistic regression", "logistic regression*"]
        assert report["testsets"] == ["real", "similar"]
        for model in report["models"]:
            for testset in report["testsets"]:
                assert 0.0 <= report["auc"][model][testset] <= 1.0
        deltas = report["metadata"]["augmented_vs_plain_auc_delta"]["logistic regression"]
        assert set(deltas) == {"real", "similar"}
        text = (pipeline["out"] / "eval_report.txt").read_text()
        assert "logistic regression*" in text
        assert "Algorithm" in text

    def test_probe_artifacts(self, pipeline):
        grid_lines = (pipeline["out"] / "probe_grid_l0000.csv").read_text().splitlines()
        assert grid_lines[0] == "f0,f1,score"
        assert len(grid_lines) == 1 + 25 * 25
        shell_lines = (pipeline["out"] / "shell_l0000.csv").read_text().splitlines()
        assert shell_lines[0] == "id,f0,f1,f2,f3,similarity,score,crossed"
        assert len(shell_lines) == 1 + 64
        recourse = json.loads((pipeline["out"] / "recourse_l0000.json").read_text())
        assert recourse["base_id"] == "l0000"
        assert isinstance(recourse["recourse_found"], bool)
        assert recourse["run_config"]["count"] == 64

    def test_inputs_never_mutated(self, pipeline):
        for name in ("schema", "labeled", "unlabeled"):
            assert sha(pipeline[name]) == pipeline["input_hashes"][name]

    def test_rerun_is_byte_identical(self, pipeline):
        targets = ["match_train.csv", "match_test.csv", "params.json", "eval_report.json"]
        before = {name: sha(pipeline["out"] / name) for name in targets}
        assert main(["calibrate", "--config", str(pipeline["config"])]) == 0
        assert main(["match", "--config", str(pipeline["config"])]) == 0
        assert main(["evaluate", "--config", str(pipeline["config"])]) == 0
        after = {name: sha(pipeline["out"] / name) for name in targets}
        assert before == after

    def test_worker_flag_never_changes_bytes(self, pipeline):
        target = pipeline["out"] / "match_train.csv"
        digests = set()
        for workers in (1, 2, 8):
            assert main(["match", "--config", str(pipeline["config"]), "--workers", str(workers)]) == 0
            digests.add(sha(target))
        assert len(digests) == 1


def test_portable_artifacts_keep_their_golden_digests(tmp_path, capsys):
    """`split ranges calibrate match augment` on the default fixture write the bytes pinned in tests/golden.json.

    These five commands use only correctly rounded float operations and `repr`, so their bytes are the
    same on any IEEE-754 machine. The fixture's inputs are pinned too: numpy's generator draws them, and
    a change there is named as such. `train` onward and the probes stay unpinned: they go through
    `np.exp`, `np.log` and numpy's reductions, whose last bit numpy does not promise across CPUs or
    versions. A change that means to alter a pinned file edits tests/golden.json and says why.
    """
    golden = json.loads((Path(__file__).parent / "golden.json").read_text(encoding="utf-8"))
    fx = write_pipeline_fixture(tmp_path)
    for command in ("split", "ranges", "calibrate", "match", "augment"):
        assert main([command, "--config", str(fx["config"])]) == 0, capsys.readouterr().err
    digests = {"inputs": {name: sha(tmp_path / name) for name in golden["inputs"]},
               "artifacts": {path.name: sha(path) for path in fx["out"].iterdir()}}
    differ = sorted(name for group, pinned in golden.items()
                    for name in pinned.keys() | digests[group].keys()
                    if pinned.get(name) != digests[group].get(name))
    assert not differ, f"digest differs from tests/golden.json: {', '.join(differ)}"


class TestCliErrors:
    def test_match_before_ranges_names_the_producer(self, tmp_path, capsys):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
        assert main(["split", "--config", str(fx["config"])]) == 0
        rc = main(["match", "--config", str(fx["config"])])
        captured = capsys.readouterr()
        assert rc == 1
        error = json.loads(captured.err.strip())
        assert error["status"] == "error"
        assert "run `ranges` first" in error["message"]

    def test_score_before_train_names_the_producer(self, tmp_path, capsys):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
        assert main(["split", "--config", str(fx["config"])]) == 0
        rc = main(["score", "--config", str(fx["config"])])
        assert rc == 1
        assert "run `train` first" in json.loads(capsys.readouterr().err.strip())["message"]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
        payload = json.loads(fx["config"].read_text())
        payload["splitt"] = {"test_fraction": 0.3}
        fx["config"].write_text(json.dumps(payload))
        rc = main(["split", "--config", str(fx["config"])])
        assert rc == 1
        assert "splitt" in json.loads(capsys.readouterr().err.strip())["message"]

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["split", "--config", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "not found" in json.loads(capsys.readouterr().err.strip())["message"]

    def test_invalid_fraction_rejected(self, tmp_path, capsys):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
        rc = main(["split", "--config", str(fx["config"]), "--test-fraction", "1.5"])
        assert rc == 1
        assert "test_fraction" in json.loads(capsys.readouterr().err.strip())["message"]

    def test_probe_shell_model_that_is_given_must_exist(self, tmp_path, capsys):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
        for command in ("split", "ranges", "calibrate"):
            assert main([command, "--config", str(fx["config"])]) == 0
        capsys.readouterr()
        rc = main(["probe-shell", "--config", str(fx["config"]), "--model", "nope.json"])
        assert rc == 1
        assert json.loads(capsys.readouterr().err.strip())["message"] == (
            "nope.json not found; run `train` first"
        )
        assert not list(fx["out"].glob("shell_*"))

    # a directory where a file is expected: the error names the file's role, not only the OS's reason
    @pytest.mark.parametrize("command, what", [("probe-shell", "model file"), ("split", "dataset file")])
    def test_a_directory_given_as_a_file_is_named_by_its_role(self, tmp_path, capsys, command, what):
        directory = tmp_path / "not_a_file"
        directory.mkdir()
        if command == "probe-shell":  # the model named by a flag
            fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
            for step in ("split", "ranges", "calibrate"):
                assert main([step, "--config", str(fx["config"])]) == 0
            flags = ["--model", str(directory)]
        else:  # the labeled dataset named by the config
            fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10,
                                        extra_config={"labeled": str(directory)})
            flags = []
        capsys.readouterr()
        assert main([command, "--config", str(fx["config"]), *flags]) == 1
        reason = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(directory))
        assert one_error_line(capsys)["message"] == f"{what} {directory} is not readable: {reason}"

    # an output directory that is a file, or lies under one: the error names it as the output directory
    @pytest.mark.parametrize("under", [(), ("sub",)], ids=["a-file", "under-a-file"])
    def test_an_output_directory_that_cannot_be_made_is_named(self, tmp_path, capsys, under):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile.joinpath(*under)
        capsys.readouterr()
        assert main(["split", "--config", str(fx["config"]), "--out-dir", str(out)]) == 1
        assert one_error_line(capsys)["message"] == f"output directory {out} cannot be made: {afile} is not a directory"
        assert afile.read_text() == "kept\n"

    @pytest.mark.parametrize("command, flags, payload", [
        ("train", [], {"train": {"features": ["f0", "f0", "f1"]}}),
        ("probe-shell", ["--vary", "f0,f0"], {}),
    ], ids=["train-features", "probe-shell-vary"])
    def test_feature_named_twice_exits_cleanly(self, tmp_path, capsys, command, flags, payload):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10, extra_config=payload)
        for step in ("split", "ranges", "calibrate"):
            assert main([step, "--config", str(fx["config"])]) == 0
        capsys.readouterr()
        assert main([command, "--config", str(fx["config"]), *flags]) == 1
        assert "named more than once: f0" in json.loads(capsys.readouterr().err.strip())["message"]
        assert not list(fx["out"].glob("model_*")) and not list(fx["out"].glob("shell_*"))

    @pytest.mark.parametrize("command, flags, key, section", [
        ("train", [], "features", "train"),
        ("probe-shell", ["--sample-id", "l0000"], "vary", "probe"),
    ], ids=["train-features", "probe-shell-vary"])
    def test_empty_feature_list_exits_cleanly(self, tmp_path, capsys, command, flags, key, section):
        # an empty list is not "unset": it used to train on, or vary, every feature
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
        for step in ("split", "ranges", "calibrate"):
            assert main([step, "--config", str(fx["config"])]) == 0
        payload = json.loads(fx["config"].read_text())
        payload[section] = {key: []}
        fx["config"].write_text(json.dumps(payload))
        capsys.readouterr()
        assert main([command, "--config", str(fx["config"]), *flags]) == 1
        assert one_error_line(capsys)["message"] == (
            f"{key} must be a non-empty list of feature names, got [] from {fx['config']}"
        )
        assert not list(fx["out"].glob("model_*")) and not list(fx["out"].glob("shell_*"))

    def test_probe_unknown_sample_id(self, tmp_path, capsys):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
        for command in ("split", "ranges", "calibrate"):
            assert main([command, "--config", str(fx["config"])]) == 0
        rc = main(["probe-shell", "--config", str(fx["config"]), "--sample-id", "ghost"])
        assert rc == 1
        assert "ghost" in json.loads(capsys.readouterr().err.strip())["message"]


class TestCliExtras:
    def test_external_scores_join_the_evaluation(self, tmp_path):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=20, n_unlabeled_per=60)
        for command in PIPELINE[:-2]:
            assert main([command, "--config", str(fx["config"])]) == 0

        scored_ids = [
            line.split(",")[0]
            for line in (fx["out"] / "scores_plain.csv").read_text().splitlines()[1:]
        ]
        external = tmp_path / "external.csv"
        external.write_text(
            "id,score\n" + "".join(f"{sid},0.5\n" for sid in scored_ids), encoding="utf-8"
        )
        payload = json.loads(fx["config"].read_text())
        payload["evaluate"] = {
            "external_scores": [{"name": "svm (rbf)", "path": "external.csv"}]
        }
        fx["config"].write_text(json.dumps(payload))
        assert main(["evaluate", "--config", str(fx["config"])]) == 0
        report = json.loads((fx["out"] / "eval_report.json").read_text())
        assert "svm (rbf)" in report["models"]
        for testset in report["testsets"]:
            assert report["auc"]["svm (rbf)"][testset] == 0.5

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
        payload = json.loads(fx["config"].read_text())
        del payload["out_dir"]
        fx["config"].write_text(json.dumps(payload))
        monkeypatch.setenv("SIMLABEL_OUT_DIR", str(tmp_path / "env_out"))
        assert main(["split", "--config", str(fx["config"])]) == 0
        assert (tmp_path / "env_out" / "train.csv").exists()

    def test_module_entry_point(self, tmp_path):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
        # the child imports the package this suite imports, installed or not
        package_dir = str(Path(simlabel.matcher.__file__).parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "simlabel", "split", "--config", str(fx["config"])],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_dir, os.environ.get("PYTHONPATH")]))},
        )
        assert result.returncode == 0
        assert "split:" in result.stdout

    def test_dropped_feature_is_named_on_stdout_not_stderr(self, tmp_path):
        schema = make_schema(2, 0)
        (tmp_path / "schema.json").write_text(json.dumps(schema.to_mapping()), encoding="utf-8")
        (tmp_path / "labeled.csv").write_text("uid,ts,y,f0,f1\n" + "".join(
            f"l{i},2024-01-01T{i // 2:02d}:{i % 2 * 30:02d}:00,{1 - 2 * (i % 2)},{i % 7},0.5\n" for i in range(40)),
            encoding="utf-8")
        (tmp_path / "config.json").write_text(json.dumps({
            "schema": "schema.json", "labeled": "labeled.csv", "unlabeled": "labeled.csv", "out_dir": "out",
        }), encoding="utf-8")
        package_dir = str(Path(simlabel.matcher.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_dir, os.environ.get("PYTHONPATH")]))}
        results = [
            subprocess.run([sys.executable, "-m", "simlabel", command, "--config", str(tmp_path / "config.json")],
                           capture_output=True, text=True, env=env)
            for command in ("split", "train")
        ]
        assert [(r.returncode, r.stderr) for r in results] == [(0, ""), (0, "")]
        assert "plain: 1 weights" in results[1].stdout
        assert "dropping zero-variance or empty features: f1" in results[1].stdout
        assert json.loads((tmp_path / "out" / "model_plain.json").read_text())["weights"].keys() == {"f0"}

    def test_manual_threshold_overrides(self, tmp_path):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
        for command in ("split", "ranges"):
            assert main([command, "--config", str(fx["config"])]) == 0
        assert main(["calibrate", "--config", str(fx["config"]), "--d", "0.8", "--c", "0.25"]) == 0
        params = json.loads((fx["out"] / "params.json").read_text())
        assert params["d"] == 0.8 and params["c"] == 0.25
        assert "manual" in params["provenance"]


def one_error_line(capsys) -> dict:
    """The command's stderr: exactly one line, a JSON error object."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    error = json.loads(lines[0])
    assert error["status"] == "error"
    return error


class TestCliRobustness:
    def test_calibrate_runs_each_kernel_pass_once(self, tmp_path, monkeypatch):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
        for command in ("split", "ranges"):
            assert main([command, "--config", str(fx["config"])]) == 0
        schema = load_schema(fx["schema"])
        n_train = len(load_dataset(fx["out"] / "train.csv", schema))
        n_pool = len(load_dataset(fx["unlabeled"], schema))
        pairs = []
        real = simlabel.kernel.similarity_block

        def counted(left, right, ranges):
            pairs.append(len(left) * len(right))
            return real(left, right, ranges)

        monkeypatch.setattr(simlabel.kernel, "similarity_block", counted)
        assert main(["calibrate", "--config", str(fx["config"])]) == 0
        assert sum(pairs) == n_train * (n_train - 1) // 2 + n_train * n_pool

    def test_out_of_memory_exits_cleanly(self, tmp_path, capsys, monkeypatch):
        # raised, not provoked: under memory overcommit a huge allocation can succeed
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
        for command in ("split", "ranges", "calibrate"):
            assert main([command, "--config", str(fx["config"])]) == 0

        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setattr(simlabel.probe, "similarity_shell", refuse)
        capsys.readouterr()
        assert main(["probe-shell", "--config", str(fx["config"]), "--count", "1000000000000"]) == 1
        error = one_error_line(capsys)
        assert error["command"] == "probe-shell"
        assert error["message"] == "Unable to allocate 72.8 TiB for an array"

    def test_calibrate_with_one_train_row_exits_cleanly(self, tmp_path, capsys):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
        assert main(["split", "--config", str(fx["config"]), "--test-fraction", "0.9"]) == 0
        assert main(["ranges", "--config", str(fx["config"])]) == 0
        capsys.readouterr()
        assert main(["calibrate", "--config", str(fx["config"])]) == 1
        assert "at least 2 labeled rows" in one_error_line(capsys)["message"]

    @pytest.mark.parametrize("artifact, command", [
        ("ranges.json", "calibrate"),
        ("params.json", "match"),
        ("model_plain.json", "score"),
        ("eval_report.json", "report"),
    ])
    def test_corrupt_artifact_exits_cleanly(self, tmp_path, capsys, artifact, command):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=20, n_unlabeled_per=60)
        for step in PIPELINE[:-1]:
            assert main([step, "--config", str(fx["config"])]) == 0
        (fx["out"] / artifact).write_text("{not json", encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--config", str(fx["config"])]) == 1
        assert artifact in one_error_line(capsys)["message"]

    @pytest.mark.parametrize("artifact, command, edit, named", [
        ("ranges.json", "calibrate", lambda p: p.update(ranges=[]), "ranges.json"),
        ("ranges.json", "calibrate", lambda p: p.update(bounds=[]), "ranges.json"),
        ("ranges.json", "calibrate", lambda p: p["ranges"].update(f1=math.nan), "'f1'"),
        ("ranges.json", "calibrate", lambda p: p["bounds"].update(f1=[math.nan, 1.0]), "'f1'"),
        ("model_plain.json", "score", lambda p: p.update(weights=[]), "model_plain.json"),
        ("eval_report.json", "report", lambda p: p.update(models=[], testsets=[]), "eval_report.json"),
        ("ranges.json", "calibrate", lambda p: [p[key].pop("f1") for key in ("ranges", "bounds")], "'f1'"),
        ("ranges.json", "match", lambda p: [p[key].update(zz=p[key]["f0"]) for key in ("ranges", "bounds")], "'zz'"),
        ("ranges.json", "probe-shell", lambda p: p.update(ranges=dict(reversed(p["ranges"].items()))), "in order"),
        ("model_plain.json", "probe-grid", lambda p: p["weights"].update(f0=math.nan), "'f0'"),
        ("model_plain.json", "score", lambda p: p["feature_scales"].update(f1=0.0), "'f1'"),
        ("model_plain.json", "score", lambda p: p["feature_means"].update(f2=-math.inf), "'f2'"),
        ("model_plain.json", "score", lambda p: p.update(intercept=math.inf), "intercept"),
        ("model_plain.json", "score", lambda p: p["feature_means"].pop("f0"), "'f0'"),
        ("model_plain.json", "probe-shell", lambda p: p["feature_scales"].pop("f1"), "'f1'"),
        ("eval_report.json", "report", lambda p: p["metadata"].update(augmented_vs_plain_auc_delta=5),
         "augmented_vs_plain_auc_delta"),
        ("eval_report.json", "report", lambda p: [row.update(dict.fromkeys(row, "0.1"))
                                                  for row in p["metadata"]["augmented_vs_plain_auc_delta"].values()],
         "augmented_vs_plain_auc_delta"),
        ("eval_report.json", "report", lambda p: p["mcnemar"][0].update(variant=["x"]), "variant"),
        ("eval_report.json", "report", lambda p: [row.update(dict.fromkeys(row, 10**400))
                                                  for row in p["metadata"]["augmented_vs_plain_auc_delta"].values()],
         "augmented_vs_plain_auc_delta"),
        ("eval_report.json", "report", lambda p: p["auc"]["logistic regression"].update(real="nan"), "'nan'"),
        ("eval_report.json", "report", lambda p: p["auc"]["logistic regression"].update(real=1.5), "AUC"),
        ("eval_report.json", "report", lambda p: p["metadata"].update(class_threshold=[1]), "class_threshold"),
        ("eval_report.json", "report", lambda p: p["mcnemar"][0].update(b=7.9), "McNemar b"),
        ("eval_report.json", "report", lambda p: p["mcnemar"][0].update(c=-1), "McNemar c"),
        ("eval_report.json", "report", lambda p: p["mcnemar"][0].update(statistic=-1.0), "statistic"),
        ("eval_report.json", "report", lambda p: p["mcnemar"][0].update(p_value=2.5), "p_value"),
        ("eval_report.json", "report", lambda p: p["mcnemar"][0].update(testset="nowhere"), "'nowhere'"),
        ("eval_report.json", "report", lambda p: p["mcnemar"][0].update(model_a=7), "listed models"),
        # JSON's true and a number in a string are not numbers in any artifact
        ("params.json", "match", lambda p: p.update(c=True), "c must be a number"),
        ("ranges.json", "calibrate", lambda p: p["ranges"].update(f0=True), "'f0'"),
        ("model_plain.json", "score", lambda p: p.update(intercept=True), "intercept"),
        ("model_plain.json", "probe-grid", lambda p: p["weights"].update(f0="0.5"), "'f0'"),
        ("model_plain.json", "score", lambda p: p.update(n_iter=2.5), "n_iter"),
        ("model_plain.json", "score", lambda p: p["weights"].update(f0=10**400), "'f0'"),
        ("eval_report.json", "report", lambda p: p["auc"]["logistic regression"].update(real=True), "AUC"),
        ("ranges.json", "calibrate", lambda p: p["bounds"]["f0"].append(99), "'f0'"),
        ("model_plain.json", "score", lambda p: p.update(l1=math.nan), "l1 nan"),
        ("model_plain.json", "score", lambda p: p.update(l2=-3), "l2 -3"),
        ("model_plain.json", "probe-grid", lambda p: p.update(l2=math.inf), "l2 inf"),
    ], ids=["ranges-list", "bounds-list", "nan-range", "nan-bound", "weights-list", "no-models",
            "range-table-lacks-a-feature", "range-table-extra-feature", "range-table-out-of-order",
            "nan-weight", "zero-scale", "infinite-mean", "infinite-intercept", "missing-mean", "missing-scale",
            "number-for-delta-table", "string-delta", "list-variant", "huge-int-delta", "string-auc", "auc-above-one",
            "list-threshold", "fractional-b", "negative-c", "negative-statistic", "p-value-above-one",
            "unlisted-testset", "unlisted-model", "bool-c", "bool-range", "bool-intercept", "string-weight",
            "fractional-n-iter", "huge-int-weight", "bool-auc", "three-bounds", "nan-l1", "negative-l2",
            "infinite-l2"])
    def test_misshapen_artifact_exits_cleanly(self, tmp_path, capsys, artifact, command, edit, named):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=20, n_unlabeled_per=60)
        for step in PIPELINE[:-1]:
            assert main([step, "--config", str(fx["config"])]) == 0
        payload = json.loads((fx["out"] / artifact).read_text(encoding="utf-8"))
        edit(payload)
        (fx["out"] / artifact).write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--config", str(fx["config"])]) == 1
        message = one_error_line(capsys)["message"]
        assert artifact in message and named in message

    # JSON nested past the parser's recursion limit, in the config file or in an upstream artifact
    @pytest.mark.parametrize("name, command", [("config.json", "split"), ("out/params.json", "match")])
    def test_deeply_nested_json_exits_cleanly(self, tmp_path, capsys, name, command):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
        for step in PIPELINE[:PIPELINE.index(command)]:
            assert main([step, "--config", str(fx["config"])]) == 0
        path = tmp_path / name
        path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--config", str(fx["config"])]) == 1
        message = one_error_line(capsys)["message"]
        assert str(path) in message and "is not valid JSON" in message

    # only an absent or null section is empty: a falsy value of another type is not an object either
    @pytest.mark.parametrize("value, rc", [(None, 0), ([], 1), (0, 1), (False, 1), ("", 1)],
                             ids=["null", "empty-list", "zero", "false", "empty-string"])
    def test_config_section_must_be_an_object_or_null(self, tmp_path, capsys, value, rc):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10, extra_config={"train": value})
        assert main(["split", "--config", str(fx["config"])]) == rc
        if rc:
            assert one_error_line(capsys)["message"] == "config section 'train' must be an object"
            assert not list(fx["out"].glob("*"))

    # the digit-grouped cells read as numbers a row matched to +1 could hold: t 0.75, y_hat 1, count 10, g0 20.5
    @pytest.mark.parametrize("column, value", [
        ("y_hat", "7"), ("t", "nan"), ("t", "5.0"), ("t", ""), ("matched_count", "-4"), ("g0", "inf"),
        ("t", "0.7_5"), ("y_hat", "0_1"), ("matched_count", "1_0"), ("g0", "2_0.5"),
        ("y_hat", "one"), ("matched_count", "x"), ("g0", "abc"),
    ], ids=["y_hat-7", "t-nan", "t-5", "t-empty", "negative-matched-count", "infinite-imputed",
            "t-grouped", "y_hat-grouped", "matched-count-grouped", "imputed-grouped",
            "y_hat-word", "matched-count-word", "imputed-word"])
    def test_corrupt_match_row_exits_cleanly(self, tmp_path, capsys, column, value):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=20, n_unlabeled_per=60)
        for step, flags in (("split", []), ("ranges", []), ("calibrate", ["--c", "0.5"]), ("match", [])):
            assert main([step, "--config", str(fx["config"]), *flags]) == 0
        path = fx["out"] / "match_train.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        row = next(n for n, line in enumerate(lines[1:], start=1) if line.split(",")[2] == "1")
        cells = lines[row].split(",")
        cells[header.index(column)] = value
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["augment", "--config", str(fx["config"])]) == 1
        message = one_error_line(capsys)["message"]
        assert str(path) in message and f"row {row}:" in message and column in message
        assert not (fx["out"] / "similar_train.csv").exists()

    # 1e-12 of 48 rows rounds to no test row
    @pytest.mark.parametrize("fraction", ["0", "1e-12"])
    def test_split_with_an_empty_test_side_is_refused(self, tmp_path, capsys, fraction):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=24, n_unlabeled_per=10)
        assert main(["split", "--config", str(fx["config"]), "--test-fraction", fraction]) == 1
        assert one_error_line(capsys)["message"] == (
            f"test_fraction {float(fraction)} leaves test.csv with no rows (48 train / 0 test rows)")
        assert not list(fx["out"].glob("*.csv"))

    # 0.95 of 16 rows rounds to every row in test
    @pytest.mark.parametrize("fraction", ["0.95", "1"])
    def test_split_with_an_empty_train_side_is_refused(self, tmp_path, capsys, fraction):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
        assert main(["split", "--config", str(fx["config"]), "--test-fraction", fraction]) == 1
        assert one_error_line(capsys)["message"] == (
            f"test_fraction {float(fraction)} leaves train.csv with no rows (0 train / 16 test rows)")
        assert not list(fx["out"].glob("*.csv"))

    def test_unwritable_out_dir_exits_cleanly(self, tmp_path, capsys):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
        occupied = tmp_path / "occupied"
        occupied.write_text("a file, not a directory", encoding="utf-8")
        assert main(["split", "--config", str(fx["config"]), "--out-dir", str(occupied)]) == 1
        assert str(occupied) in one_error_line(capsys)["message"]

    def test_mixed_timestamp_offsets_exit_cleanly(self, tmp_path, capsys):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
        lines = fx["labeled"].read_text(encoding="utf-8").splitlines()
        ts = lines[0].split(",").index("ts")
        cells = lines[3].split(",")
        cells[ts] += "+02:00"
        lines[3] = ",".join(cells)
        fx["labeled"].write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["split", "--config", str(fx["config"])]) == 1
        message = one_error_line(capsys)["message"]
        assert "row 3:" in message and "offset-aware, unlike row 1's" in message

    # a number that is not whole, or that overflows a float, in the config file or on a flag
    @pytest.mark.parametrize("command, key, section, raw, flags", [
        pytest.param("split", "seed", None, "1e999", [], id="seed=1e999"),
        pytest.param("split", "seed", None, "2.5", [], id="seed=2.5"),
        pytest.param("split", "seed", None, "1" + "0" * 400, [], id="seed=1e400-as-int"),
        pytest.param("train", "max_iter", "train", "1e999", [], id="max_iter=1e999"),
        pytest.param("probe-shell", "count", "probe", "2.5", [], id="count=2.5"),
        # JSON's true and false are not numbers, though Python counts them as 1 and 0
        pytest.param("split", "seed", None, "true", [], id="seed=true"),
        pytest.param("probe-shell", "count", "probe", "true", [], id="count=true"),
        pytest.param("split", "test_fraction", "split", "true", [], id="test_fraction=true"),
        pytest.param("train", "l2", "train", "false", [], id="l2=false"),
        pytest.param("probe-grid", "y", "probe", "[0, true, 3]", [], id="y-high=true"),
        pytest.param("probe-grid", "y", "probe", "[0, 1, 1e999]", [], id="y-count=1e999"),
        pytest.param("probe-grid", "y", "probe", "[-1e999, 1, 3]", [], id="y-low=-1e999"),
        pytest.param("probe-grid", "x", None, None, ["--x", "0", "1", "inf"], id="--x 0 1 inf"),
        pytest.param("probe-grid", "x", None, None, ["--x", "0", "1", "2.7"], id="--x 0 1 2.7"),
    ])
    def test_number_that_is_not_whole_or_finite_exits_cleanly(
            self, tmp_path, capsys, command, key, section, raw, flags):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
        payload = json.loads(fx["config"].read_text())
        if raw is not None:
            (payload[section] if section else payload)[key] = "@@"
        fx["config"].write_text(json.dumps(payload).replace('"@@"', raw or ""), encoding="utf-8")
        assert main([command, "--config", str(fx["config"]), *flags]) == 1
        assert one_error_line(capsys)["message"].startswith(f"{key} must be ")

    @pytest.mark.parametrize("command, flags, names", [
        ("train", ["--l2", "inf"], "l1, l2 and tol must be finite"),
        ("train", ["--l1", "nan"], "l1, l2 and tol must be finite"),
        ("train", ["--tol", "nan"], "l1, l2 and tol must be finite"),
        ("evaluate", ["--class-threshold", "nan"], "class_threshold must be a number in [0, 1]"),
        ("probe-shell", ["--seed", "-1"], "got n=64, seed=-1"),
        ("probe-shell", ["--count", "0"], "got n=0, seed=7"),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
    def test_non_finite_or_negative_setting_exits_cleanly(self, tmp_path, capsys, command, flags, names):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
        for step in ("split", "ranges"):
            assert main([step, "--config", str(fx["config"])]) == 0
        capsys.readouterr()
        floor = ["--d", "0.9"] if command == "probe-shell" else []
        assert main([command, "--config", str(fx["config"]), *floor, *flags]) == 1
        assert names in one_error_line(capsys)["message"]
        assert not (fx["out"] / "model_plain.json").exists()
        assert not list(fx["out"].glob("shell_*"))

    # a count numpy refuses before allocating anything, or an axis whose span overflows a float;
    # in-process, a numpy RuntimeWarning would fail the test (pytest turns warnings into errors)
    @pytest.mark.parametrize("command, flags, probe, message", [
        ("probe-shell", ["--count", "100000000000000000000"], {},
         "cannot draw 100000000000000000000 shell samples"),
        ("probe-shell", [], {"count": 1e20}, "cannot draw 100000000000000000000 shell samples"),
        ("probe-grid", ["--x", "0", "1", "100000000000000000000"], {},
         "x axis cannot have 100000000000000000000 points"),
        ("probe-grid", [], {"y": [0, 1, 1e20]}, "y axis cannot have 100000000000000000000 points"),
        ("probe-grid", ["--x", " -1e308", "1e308", "3"], {}, "x axis from -1e+308 to 1e+308 has values that are not finite"),
        ("probe-grid", [], {"x": [-1e308, 1e308, 3]}, "x axis from -1e+308 to 1e+308 has values that are not finite"),
    ], ids=["--count", "count", "--x", "y", "--x-span", "x-span"])
    def test_probe_size_or_span_numpy_cannot_hold_exits_cleanly(self, tmp_path, capsys, command, flags, probe,
                                                               message):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10,
                                    extra_config={"probe": {"sample_id": "l0000", "count": 64, **probe}})
        for step in PIPELINE[:6]:
            assert main([step, "--config", str(fx["config"])]) == 0
        capsys.readouterr()
        assert main([command, "--config", str(fx["config"]), *flags]) == 1
        assert one_error_line(capsys)["message"].startswith(message)  # numpy's own reason may follow
        assert not list(fx["out"].glob("probe_grid_*")) and not list(fx["out"].glob("shell_*"))

    # a UTF-16 byte-order mark before the header, or a Latin-1 cell after the valid rows
    @pytest.mark.parametrize("bad, at_start", [(b"\xff\xfe", True), (b"caf\xe9\n", False)],
                             ids=["bom-first", "latin1-last"])
    @pytest.mark.parametrize("name, command", [
        ("labeled.csv", "split"),
        ("out/match_train.csv", "augment"),
        ("external.csv", "evaluate"),
    ])
    def test_csv_that_is_not_utf8_exits_cleanly(self, tmp_path, capsys, name, command, bad, at_start):
        fx = write_pipeline_fixture(tmp_path, n_labeled_per=20, n_unlabeled_per=60, extra_config={
            "evaluate": {"external_scores": [{"name": "external", "path": "external.csv"}]},
        })
        (tmp_path / "external.csv").write_text("id,score\nl0000,0.5\n", encoding="utf-8")
        for step in PIPELINE[:PIPELINE.index(command)]:
            assert main([step, "--config", str(fx["config"])]) == 0
        path = tmp_path / name
        path.write_bytes(bad + path.read_bytes() if at_start else path.read_bytes() + bad)
        capsys.readouterr()
        assert main([command, "--config", str(fx["config"])]) == 1
        message = one_error_line(capsys)["message"]
        assert str(path) in message and "UTF-8" in message


# arbitrary bytes, a valid header followed by arbitrary bytes, or text built from
# the characters a CSV row of this schema is made of
CSV_HEADER = b"uid,ts,y,f0,f1,g0\n"
CSV_BYTES = st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=200).map(lambda tail: CSV_HEADER + tail),
    st.text("uidtsyfg0123456789,+-.:eET\"\n\r naif", max_size=300).map(
        lambda text: CSV_HEADER + text.encode("utf-8")
    ),
)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    target = tmp_path_factory.mktemp("fuzz")
    (target / "schema.json").write_text(json.dumps(make_schema(2, 1).to_mapping()), encoding="utf-8")
    (target / "config.json").write_text(json.dumps({
        "schema": "schema.json", "labeled": "labeled.csv", "unlabeled": "unlabeled.csv",
        "out_dir": "out", "split": {"test_fraction": 0.2},
    }), encoding="utf-8")
    return target


@given(labeled=CSV_BYTES, unlabeled=CSV_BYTES)
@settings(max_examples=100, deadline=None)
def test_any_csv_bytes_give_success_or_one_json_error_line(fuzz_inputs, labeled, unlabeled):
    (fuzz_inputs / "labeled.csv").write_bytes(labeled)
    (fuzz_inputs / "unlabeled.csv").write_bytes(unlabeled)
    for command in ("split", "ranges"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(fuzz_inputs / "config.json")])
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
        else:
            assert code == 1 and len(lines) == 1, lines
            assert json.loads(lines[0])["status"] == "error"


# every upstream file of a command, with the command that reads it
UPSTREAM = {"schema.json": "split", "config.json": "split", "ranges.json": "calibrate", "params.json": "match",
            "match_train.csv": "augment", "model_plain.json": "score", "scores_plain.csv": "evaluate",
            "eval_report.json": "report"}


@pytest.fixture(scope="module")
def upstream_files(tmp_path_factory):
    """A finished small pipeline run, and the bytes of each of its inputs and artifacts."""
    fx = write_pipeline_fixture(tmp_path_factory.mktemp("upstream"), n_labeled_per=20, n_unlabeled_per=60,
                                extra_config={"calibrate": {"c": 0.5}})  # confident matches on both sides
    for command in PIPELINE:
        assert main([command, "--config", str(fx["config"])]) == 0, command
    return fx, {path: path.read_bytes() for path in fx["config"].parent.rglob("*") if path.is_file()}


@given(data=st.data(), name=st.sampled_from(sorted(UPSTREAM)))
@settings(max_examples=120, deadline=None)
def test_any_upstream_file_bytes_give_success_or_one_json_error_line(upstream_files, data, name):
    fx, saved = upstream_files
    for path, content in saved.items():  # undo what an earlier example changed or wrote
        path.write_bytes(content)
    path = next(path for path in saved if path.name == name)
    good = saved[path]
    spliced = st.tuples(st.integers(0, len(good)), st.integers(0, 40), st.binary(max_size=40)).map(
        lambda cut: good[:cut[0]] + cut[2] + good[cut[0] + cut[1]:])
    path.write_bytes(data.draw(st.one_of(st.binary(max_size=200), spliced)))
    err = io.StringIO()
    # the flag pins the output directory, whatever a mutated config names
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([UPSTREAM[name], "--config", str(fx["config"]), "--out-dir", str(fx["out"])])
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code == 1 and len(lines) == 1, lines
        assert json.loads(lines[0])["status"] == "error"


# option kind -> (config value, flag arguments, value read from the config, value read from the flag)
KIND_SAMPLES = {
    "int": (3, ["5"], 3, 5),
    "positive": (3, ["5"], 3, 5),
    "float": (0.25, ["0.75"], 0.25, 0.75),
    "unit": (0.25, ["0.75"], 0.25, 0.75),
    "str": ("a", ["b"], "a", "b"),
    "path": ("from_config", ["from_flag"], "from_config", Path("from_flag")),
    "axis": ([0, 1, 3], ["2", "3", "4"], (0.0, 1.0, 3), (2.0, 3.0, 4)),
    "names": (["f0"], ["f1,f2"], ["f0"], ["f1", "f2"]),
}


@pytest.mark.parametrize("option", [o for o in OPTIONS if o.flag], ids=lambda o: o.flag)
def test_flag_beats_config_beats_default(tmp_path, monkeypatch, option):
    if option.env:
        monkeypatch.delenv(option.env, raising=False)
    config_value, flag_args, from_config, from_flag = KIND_SAMPLES[option.kind]
    if option.kind == "path":
        from_config = tmp_path / from_config
    command = option.commands[0] if option.commands else "split"
    config = tmp_path / "config.json"

    def resolved(payload, *flags):
        config.write_text(json.dumps(payload), encoding="utf-8")
        args = build_parser().parse_args([command, "--config", str(config), *flags])
        return load_config(config, args)[option.name]

    keyed = {}
    if option.key:
        keyed = {option.key: config_value}
        keyed = keyed if option.section is None else {option.section: keyed}
        assert resolved(keyed) == from_config
    assert resolved(keyed, option.flag, *flag_args) == from_flag
    assert resolved({}) == option.default


# "" is no value of any kind: from the config file or a flag it is refused, not read as unset
@pytest.mark.parametrize("name, where", [
    ("seed", "config"), ("seed", "flag"),  # int
    ("d", "config"), ("d", "flag"),  # float
    ("test_fraction", "config"), ("test_fraction", "flag"),  # unit
    ("sample_id", "config"), ("sample_id", "flag"),  # str
    ("out_dir", "config"), ("out_dir", "flag"),  # path
    ("x", "config"), ("x", "flag"),  # axis
    ("features", "config"), ("vary", "flag"),  # names
])
def test_empty_string_is_refused(tmp_path, capsys, name, where):
    option = next(o for o in OPTIONS if o.name == name)
    fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
    argv = [option.commands[0] if option.commands else "split", "--config", str(fx["config"])]
    if where == "flag":
        strings = ["", "", ""] if option.kind == "axis" else [""]  # an axis flag takes three strings
        argv += [option.flag, *strings]
        value = strings if option.kind == "axis" else ""
        source = option.flag
    else:
        value, source = "", str(fx["config"])
        payload = json.loads(fx["config"].read_text())
        (payload if option.section is None else payload.setdefault(option.section, {}))[option.key] = value
        fx["config"].write_text(json.dumps(payload))
    assert main(argv) == 1
    assert one_error_line(capsys)["message"] == (
        f"{name} must be {KINDS[option.kind][1]}, got {value!r} from {source}")
    assert not list(fx["out"].glob("*"))


# a blank or non-string name in a config list is refused, not read as text, and an object is not its key list
@pytest.mark.parametrize("value", [[None], [""], ["f0", " "], ["f0", 1], {"f0": 1}], ids=json.dumps)
@pytest.mark.parametrize("command, section, key", [("train", "train", "features"), ("probe-shell", "probe", "vary")])
def test_blank_or_non_string_feature_name_in_config_is_refused(tmp_path, capsys, command, section, key, value):
    fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10, extra_config={section: {key: value}})
    assert main([command, "--config", str(fx["config"])]) == 1
    assert one_error_line(capsys)["message"] == (
        f"{key} must be a non-empty list of feature names, got {value!r} from {fx['config']}")
    assert not list(fx["out"].glob("*"))


# an object is not "no external scores", and a null, number or blank name or path is not text
@pytest.mark.parametrize("value", [
    {},
    *([{"name": name, "path": "external.csv"}] for name in (None, 7, "", " ")),
    *([{"name": "svm", "path": path}] for path in (None, "", " ")),
], ids=json.dumps)
def test_malformed_external_scores_in_config_are_refused(tmp_path, capsys, value):
    fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10,
                                extra_config={"evaluate": {"external_scores": value}})
    assert main(["evaluate", "--config", str(fx["config"])]) == 1
    assert one_error_line(capsys)["message"] == (
        f"external_scores must be {KINDS['scores'][1]}, got {value!r} from {fx['config']}")
    assert not list(fx["out"].glob("*"))


def test_empty_environment_variable_is_unset(tmp_path, monkeypatch):
    fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
    monkeypatch.setenv("SIMLABEL_OUT_DIR", "")
    assert main(["split", "--config", str(fx["config"])]) == 0
    assert (fx["out"] / "train.csv").exists()


# a usage error, or a flag value its kind's parser refuses: one JSON line, exit 1
@pytest.mark.parametrize("argv, message", [
    (["probe-shell", "--config", "{config}", "--seed", "2.5"], "seed must be an integer, got '2.5' from --seed"),
    (["split", "--config", "{config}", "--workers", "two"], "workers must be an integer >= 1, got 'two'"),
    (["split", "--config", "{config}", "--workers", "0"], "workers must be an integer >= 1, got '0' from --workers"),
    (["split", "--config", "{config}", "--workers=-3"], "workers must be an integer >= 1, got '-3' from --workers"),
    (["split", "--config", "{config}", "--test-fraction", "x"], "test_fraction must be a number in [0, 1]"),
    # int() and float() read "_" as digit grouping ("2_00" as 200): a value holding one is refused
    (["probe-shell", "--config", "{config}", "--count", "2_00"], "count must be an integer, got '2_00' from --count"),
    (["probe-shell", "--config", "{config}", "--seed", "1_0"], "seed must be an integer, got '1_0' from --seed"),
    (["split", "--config", "{config}", "--test-fraction", "0_5"],
     "test_fraction must be a number in [0, 1], got '0_5' from --test-fraction"),
    (["train", "--config", "{config}", "--l2", "1_0"], "l2 must be a number, got '1_0' from --l2"),
    (["probe-grid", "--config", "{config}", "--x", "0", "1", "2_5"],
     "x must be [low, high, count], got ['0', '1', '2_5'] from --x"),
    (["probe-grid", "--config", "{config}", "--x", "0", "1"], "argument --x: expected 3 arguments"),
    (["probe-grid", "--config", "{config}", "--x", "0", "1", "--y", "-1", "1", "2"],
     "argument --x: expected 3 arguments"),
    # argparse reads "-inf" as a flag: the axis kind refuses it by name instead
    (["probe-grid", "--config", "{config}", "--x", "-inf", "1", "3"],
     "x must be [low, high, count], got ['-inf', '1', '3'] from --x"),
    (["probe-grid", "--config", "{config}", "--x", "-Infinity", "1", "3"],
     "x must be [low, high, count], got ['-Infinity', '1', '3'] from --x"),
    (["probe-grid", "--config", "{config}", "--y", "0", "-NaN", "3"],
     "y must be [low, high, count], got ['0', '-NaN', '3'] from --y"),
    # a blank name is no feature name
    (["probe-shell", "--config", "{config}", "--vary", "f0,,f1"],
     "vary must be a non-empty list of feature names, got 'f0,,f1' from --vary"),
    (["probe-shell", "--config", "{config}", "--vary", " "],
     "vary must be a non-empty list of feature names, got ' ' from --vary"),
    (["probe-shell", "--config", "{config}", "--vary", "f0,"],
     "vary must be a non-empty list of feature names, got 'f0,' from --vary"),
    (["split", "--config", "{config}", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["split", "--config", "{config}", "--d", "0.9"], "unrecognized arguments: --d 0.9"),
    (["split"], "the following arguments are required: --config"),
    (["splt", "--config", "{config}"], "invalid choice: 'splt'"),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_usage_and_flag_errors_give_one_json_line(tmp_path, capsys, argv, message):
    fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
    argv = [arg.format(config=fx["config"]) for arg in argv]
    assert main(argv) == 1
    error = one_error_line(capsys)
    assert message in error["message"]
    assert error["command"] == (argv[0] if argv[0] != "splt" else None)
    assert not list(fx["out"].glob("*"))


# argparse reads "-1e3" as a flag and only a plain decimal ("-1.5", "-.5") as a negative number
@pytest.mark.parametrize("x, y", [
    (["-1e3", "1", "3"], ["-2E1", "-.5", "2"]),
    (["-1.5", "-1e-3", "3"], ["0", "1", "2"]),
], ids=["exponent-low", "exponent-high"])
def test_probe_grid_takes_negative_axis_ends_in_any_number_form(tmp_path, x, y):
    fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
    for command in ("split", "ranges", "calibrate", "match", "augment", "train"):
        assert main([command, "--config", str(fx["config"])]) == 0
    grid = fx["out"] / "probe_grid_l0000.csv"
    assert main(["probe-grid", "--config", str(fx["config"]), "--x", *x, "--y", *y]) == 0
    from_flags = grid.read_bytes()
    payload = json.loads(fx["config"].read_text())
    payload["probe"] |= {"x": [float(x[0]), float(x[1]), int(x[2])], "y": [float(y[0]), float(y[1]), int(y[2])]}
    fx["config"].write_text(json.dumps(payload))
    assert main(["probe-grid", "--config", str(fx["config"])]) == 0
    assert grid.read_bytes() == from_flags
    assert from_flags.decode().splitlines()[1].startswith(f"{float(x[0])!r},{float(y[0])!r},")


def test_ranges_json_is_the_same_for_a_relative_and_an_absolute_config(tmp_path, monkeypatch):
    fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
    monkeypatch.chdir(tmp_path.parent)
    written = []
    for config in (Path(tmp_path.name) / "config.json", fx["config"]):
        assert main(["ranges", "--config", str(config)]) == 0
        written.append((fx["out"] / "ranges.json").read_bytes())
    assert written[0] == written[1]
    assert json.loads(written[0])["source"].endswith(": labeled.csv; unlabeled.csv")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["probe-shell", "--help"])
    assert stop.value.code == 0
    assert "--count" in capsys.readouterr().out


def test_probe_shell_takes_a_seed_past_64_bits(tmp_path):
    fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
    for command in ("split", "ranges", "calibrate"):
        assert main([command, "--config", str(fx["config"])]) == 0
    assert main(["probe-shell", "--config", str(fx["config"]), "--sample-id", "l0000",
                 "--seed", str(2**64), "--count", "20"]) == 0
    assert len((fx["out"] / "shell_l0000.csv").read_text().splitlines()) == 21


def test_config_seed_reaches_only_the_shell(tmp_path):
    fx = write_pipeline_fixture(tmp_path)
    outputs = {}
    for seed in (7, 8):
        fx["config"].write_text(json.dumps({**json.loads(fx["config"].read_text()), "seed": seed}))
        out = tmp_path / f"out{seed}"
        for command in (*PIPELINE, "probe-grid", "probe-shell"):
            assert main([command, "--config", str(fx["config"]), "--out-dir", str(out)]) == 0, command
        outputs[seed] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert outputs[7].keys() == outputs[8].keys()
    assert {"shell_l0000.csv", "recourse_l0000.json", "model_augmented.json"} <= outputs[7].keys()
    shell_files = {name for name in outputs[7] if name.startswith(("shell_", "recourse_"))}
    assert {name for name in outputs[7] if outputs[7][name] != outputs[8][name]} <= shell_files
    assert outputs[7]["shell_l0000.csv"] != outputs[8]["shell_l0000.csv"]
    assert json.loads(outputs[7]["recourse_l0000.json"])["run_config"]["seed"] == 7
    for name in ("model_plain.json", "model_augmented.json"):
        payload = json.loads(outputs[8][name])
        assert "seed" not in payload and "seed" not in payload["run_config"]


@pytest.mark.parametrize("command", (*PIPELINE, "probe-grid"))
def test_seed_flag_is_a_usage_error_outside_probe_shell(tmp_path, capsys, command):
    fx = write_pipeline_fixture(tmp_path, n_labeled_per=8, n_unlabeled_per=10)
    assert main([command, "--config", str(fx["config"]), "--seed", "1"]) == 1
    error = one_error_line(capsys)
    assert error["command"] == command
    assert "unrecognized arguments: --seed 1" in error["message"]
