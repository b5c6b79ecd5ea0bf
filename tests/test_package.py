"""The package surface: lazy public names and submodules, private names, and which runs load numpy."""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import simlabel
from conftest import write_pipeline_fixture
from simlabel.cli import main

# the public API; a name dropped from the package's table fails here
PUBLIC = {
    "Calibration", "Dataset", "EvalReport", "FeatureSchema", "LinearModel", "Matches", "McNemarResult",
    "ProbeGrid", "RangeTable", "RecourseReport", "Role", "Sample", "ScoreFile", "Shell",
    "SimilarityParams", "SimlabelError", "TrainConfig", "auc_roc", "build_similar_dataset",
    "calibrate", "compute_ranges",
    "evaluate_table", "gower_similarity", "load_dataset", "load_external_scores",
    "load_schema", "match_batch", "mcnemar_test", "merge_datasets", "predict_scores",
    "probability_grid", "recourse_probe", "score_shell", "similarity_shell", "time_holdout_split",
    "train_logistic", "write_dataset",
}
# every submodule but __main__, which runs the CLI when imported
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(simlabel.__path__) if m.name != "__main__")


def child(*args: str, environ: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    """`python -X importtime *args` in a fresh interpreter that imports this suite's package.

    The child's environment is `environ` (default: this process's) with that package on PYTHONPATH.
    """
    environ = os.environ if environ is None else environ
    package_dir = str(Path(simlabel.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_dir, environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True,
                            env={**environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr[-2000:]
    return result


def imported(result: subprocess.CompletedProcess) -> set[str]:
    """The modules a child imported, from its -X importtime lines."""
    lines = [line for line in result.stderr.splitlines() if line.startswith("import time:")]
    names = {line.rsplit("|", 1)[1].strip() for line in lines}
    assert "simlabel" in names, result.stderr[-2000:]
    return names


class TestExports:
    def test_every_public_name_is_the_object_its_module_defines(self):
        assert set(simlabel.__all__) == PUBLIC
        for name in simlabel.__all__:
            value = getattr(simlabel, name)
            assert value.__module__.startswith("simlabel."), name
            assert getattr(sys.modules[value.__module__], name) is value, name

    def test_every_submodule_resolves_as_an_attribute_in_a_fresh_interpreter(self):
        assert {"cli", "dataset", "kernel", "probe"} <= set(SUBMODULES)
        code = (
            "import sys, simlabel\n"
            "for name in sys.argv[1:]:\n"
            "    module = getattr(simlabel, name)\n"
            "    assert module is sys.modules['simlabel.' + name], name\n"
            "print('ok')\n"
        )
        assert child("-c", code, *SUBMODULES).stdout == "ok\n"

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from simlabel import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(simlabel.__all__)

    def test_dir_lists_the_public_names_and_submodules(self):
        listed = dir(simlabel)
        assert set(simlabel.__all__) <= set(listed)
        assert set(SUBMODULES) <= set(listed)
        assert listed == sorted(listed)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            simlabel.nope
        assert not hasattr(simlabel, "__main__")
        with pytest.raises(ImportError, match="cannot import name 'nope'"):
            exec("from simlabel import nope", {})


class TestPrivateNames:
    def test_no_module_imports_a_private_name_from_another(self):
        borrowed = []
        for path in sorted(Path(simlabel.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.level:
                    borrowed += [f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                                 for alias in node.names if alias.name.startswith("_")]
        assert not borrowed

    def test_every_import_and_module_level_private_name_is_read(self):
        """A guard against dead code: an import its module never reads, or a module-level `_name`
        that neither its module nor another one (as an attribute) reads."""
        trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
                 for path in sorted(Path(simlabel.__file__).parent.glob("*.py"))}
        attributes = {node.attr for tree in trees.values() for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)}
        dead = []
        for name, tree in trees.items():
            read = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            imported = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                        if isinstance(node, (ast.Import, ast.ImportFrom))
                        and getattr(node, "module", None) != "__future__"
                        for alias in node.names]
            defined = [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
            defined += [target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                        if isinstance(target, ast.Name)]
            dead += [f"{name}: import {bound}" for bound in imported if bound not in read]
            dead += [f"{name}: {private}" for private in defined if private.startswith("_")
                     and not private.startswith("__") and private not in read | attributes]
        assert not dead


class TestNumpyLoadsOnlyWhereItComputes:
    @pytest.fixture(scope="class")
    def fixture(self, tmp_path_factory):
        fx = write_pipeline_fixture(tmp_path_factory.mktemp("lazy"), n_labeled_per=20, n_unlabeled_per=60)
        for command in ("split", "ranges", "calibrate", "match", "augment", "train", "score", "evaluate"):
            assert main([command, "--config", str(fx["config"])]) == 0, command
        return fx

    def test_import_and_dataset_loaders(self, fixture):
        code = (
            "import sys, simlabel\n"
            "schema = simlabel.load_schema(sys.argv[1])\n"
            "print(len(simlabel.load_dataset(sys.argv[2], schema)))\n"
        )
        result = child("-c", code, str(fixture["schema"]), str(fixture["labeled"]))
        assert result.stdout == "40\n"
        assert "numpy" not in imported(result)

    def test_help(self):
        result = child("-m", "simlabel", "--help")
        assert "probe-shell" in result.stdout
        assert "numpy" not in imported(result)

    @pytest.mark.parametrize("command", ["split", "ranges", "evaluate", "report"])
    def test_commands_without_arrays(self, fixture, command):
        result = child("-m", "simlabel", command, "--config", str(fixture["config"]))
        assert result.stdout.startswith(f"{command}:")
        assert "numpy" not in imported(result)

    # the control: a command that computes with arrays, or reads a match file into them, still loads numpy
    @pytest.mark.parametrize("command", ["calibrate", "augment"])
    def test_commands_with_arrays(self, fixture, command):
        result = child("-m", "simlabel", command, "--config", str(fixture["config"]))
        assert result.stdout.startswith(f"{command}:")
        assert "numpy" in imported(result)

    # a CLI run sets OpenBLAS's own OPENBLAS_NUM_THREADS to 1 before numpy loads, unless it is already set
    CALIBRATE = "import os, sys\nfrom simlabel.cli import main\nrc = main(['calibrate', '--config', sys.argv[1]])\n"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
    def test_cli_run_loads_numpy_without_blas_threads(self, fixture):
        code = self.CALIBRATE + "print(rc, len(os.listdir('/proc/self/task')))\n"
        environ = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
        result = child("-c", code, str(fixture["config"]), environ=environ)
        assert "numpy" in imported(result)
        assert result.stdout.splitlines()[-1] == "0 1"

    def test_cli_run_keeps_a_blas_thread_count_already_set(self, fixture):
        code = self.CALIBRATE + "print(rc, os.environ['OPENBLAS_NUM_THREADS'])\n"
        result = child("-c", code, str(fixture["config"]), environ={**os.environ, "OPENBLAS_NUM_THREADS": "2"})
        assert result.stdout.splitlines()[-1] == "0 2"
