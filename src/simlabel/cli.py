"""Pipeline subcommands over a single JSON run configuration.

Each command reads upstream artifacts from the output directory, writes its
own outputs atomically, and prints a one-line summary. Re-running a command
with identical inputs and seed produces byte-identical outputs, and the
worker count never changes a single output byte. Failures, usage errors
such as an unknown flag included, exit 1 with one machine-readable JSON line
on stderr; `--help` exits 0.

Every setting is a row of OPTIONS: its config key, its flag, the commands
that accept the flag, its type and its default. A flag beats the environment
variable (SIMLABEL_OUT_DIR), which beats the config file, which beats the
default. Paths in the config file are relative to it; paths given by flag or
environment are relative to the working directory.

Each command imports the library modules it uses, and only the stages that
compute with arrays load numpy: `split`, `ranges`, `evaluate`, `report` and
`--help` never do. `augment` does, because `matcher.load_matches` reads the
match file into the array-backed `Matches`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any

from .dataset import Dataset, Sample, load_dataset, load_schema, number, read_json, write_dataset
from .dataset import atomic_write_chunks, atomic_write_text, time_holdout_split
from .errors import ConfigError, MissingArtifactError, SimlabelError

MODEL_NAME_PLAIN = "logistic regression"
MODEL_NAME_AUGMENTED = "logistic regression*"

PROBES = ("probe-grid", "probe-shell")


@dataclass(frozen=True)
class Option:
    """One setting: where the config file keeps it and which flag sets it.

    `section` None is the top level of the config file; `key` None means only
    the flag (or `env`) sets it. `commands` None gives the flag to every
    command.
    """

    section: str | None
    key: str | None
    flag: str | None
    kind: str
    default: Any = None
    commands: tuple[str, ...] | None = None
    env: str | None = None
    help: str | None = None

    @property
    def name(self) -> str:
        return self.key or self.flag.lstrip("-")


OPTIONS = (
    Option(None, "schema", None, "path"),
    Option(None, "labeled", None, "path"),
    Option(None, "unlabeled", None, "path"),
    Option(None, "out_dir", "--out-dir", "path", env="SIMLABEL_OUT_DIR",
           help="output directory override"),
    Option(None, None, "--workers", "int", 1,
           help="accepted for compatibility; changes neither output nor speed"),
    Option(None, "seed", "--seed", "int", 0, ("probe-shell",), help="seed override"),
    Option("split", "test_fraction", "--test-fraction", "unit", 0.2, ("split",)),
    Option("calibrate", "percentile", "--percentile", "unit", 0.95, ("calibrate",)),
    Option("calibrate", "confidence_budget", "--budget", "unit", 0.05, ("calibrate",),
           help="confidence budget (matched fraction must stay below it)"),
    Option("calibrate", "d", "--d", "float", None, ("calibrate", "probe-shell"),
           help="manual similarity threshold (probe-shell: similarity floor)"),
    Option("calibrate", "c", "--c", "float", None, ("calibrate",), help="manual confidence threshold"),
    Option("train", "l1", "--l1", "float", 0.0, ("train",)),
    Option("train", "l2", "--l2", "float", 0.0, ("train",)),
    Option("train", "max_iter", "--max-iter", "int", 500, ("train",)),
    Option("train", "tol", "--tol", "float", 1e-8, ("train",)),
    Option("train", "features", None, "names"),
    Option("evaluate", "class_threshold", "--class-threshold", "unit", 0.5, ("evaluate",)),
    Option("evaluate", "external_scores", None, "scores", ()),
    Option(None, None, "--model", "path", None, PROBES, help="model JSON (default: model_plain.json)"),
    Option("probe", "sample_id", "--sample-id", "str", None, PROBES),
    Option("probe", "data", "--probe-data", "path", None, PROBES,
           help="dataset holding the probe sample (default: the labeled file)"),
    Option("probe", "fx", "--fx", "str", None, ("probe-grid",)),
    Option("probe", "fy", "--fy", "str", None, ("probe-grid",)),
    Option("probe", "x", "--x", "axis", None, ("probe-grid",)),
    Option("probe", "y", "--y", "axis", None, ("probe-grid",)),
    Option("probe", "vary", "--vary", "names", None, ("probe-shell",),
           help="comma-separated features to perturb"),
    Option("probe", "count", "--count", "int", 200, ("probe-shell",)),
)


def _int(value, base: Path) -> int:
    """An integer; a number that is not whole (2.5, inf, nan) is refused, not truncated."""
    if isinstance(value, str):
        try:
            return number(value, int)
        except ValueError:
            value = number(value)
    if not float(value).is_integer():
        raise ValueError(value)
    return int(value)


def _unit(value, base: Path) -> float:
    value = number(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(value)
    return value


def _axis(value, base: Path) -> tuple[float, float, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 3 or any(isinstance(v, bool) for v in value):
        raise ValueError(value)
    low, high = number(value[0]), number(value[1])
    if not math.isfinite(low) or not math.isfinite(high):
        raise ValueError(value)
    return (low, high, _int(value[2], base))


def _names(value, base: Path) -> list[str]:
    parts = value.split(",") if isinstance(value, str) else value
    # an empty list is refused, not read as "every feature", and so are an object and a blank or non-string name
    if not isinstance(parts, list) or not parts or not all(isinstance(part, str) and part.strip() for part in parts):
        raise ValueError(value)
    return [part.strip() for part in parts]


def _scores(value, base: Path) -> list[tuple[str, Path]]:
    if not all(isinstance(e, dict) and "name" in e and "path" in e for e in value):
        raise ValueError(value)
    return [(str(e["name"]), base / str(e["path"])) for e in value]


# kind -> (parse(value, directory that relative paths start from), what a value
# must be); a flag's value reaches the parser as the string (three strings for an axis)
KINDS = {
    "int": (_int, "an integer"),
    "float": (lambda value, base: number(value), "a number"),
    "unit": (_unit, "a number in [0, 1]"),
    "str": (lambda value, base: str(value), "a string"),
    "path": (lambda value, base: base / str(value), "a path"),
    "axis": (_axis, "[low, high, count]"),
    "names": (_names, "a non-empty list of feature names"),
    "scores": (_scores, "a list of objects with 'name' and 'path'"),
}


def _resolve(option: Option, args: argparse.Namespace, section: dict, config_path: Path):
    """The first set value of flag, environment (unset when empty) and config file, parsed; else the default."""
    sources = (
        (getattr(args, option.name, None) if option.flag else None, option.flag, Path()),
        (os.environ.get(option.env) or None if option.env else None, option.env, Path()),
        (section.get(option.key) if option.key else None, str(config_path), config_path.parent),
    )
    for value, source, base in sources:
        if value is None:
            continue
        parse, must_be = KINDS[option.kind]
        try:
            if isinstance(value, bool) or value == "":  # no value, or JSON's true and false (Python's 1 and 0)
                raise TypeError(value)
            return parse(value, base)
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"{option.name} must be {must_be}, got {value!r} from {source}") from err
    return option.default


class Run(dict):
    """A command's resolved settings by name, and the input and artifact files they point at."""

    def input(self, name: str) -> Path:
        if self[name] is None:
            raise ConfigError(f"config is missing the {name} path")
        return self[name]

    @cached_property
    def schema(self):
        return load_schema(self.input("schema"))

    @cached_property
    def out(self) -> Path:
        if self["out_dir"] is None:
            raise ConfigError("no output directory (set out_dir in the config, "
                              "--out-dir, or SIMLABEL_OUT_DIR)")
        return self["out_dir"]

    def artifact(self, name: str, path: Path | None = None) -> Path:
        """The artifact `name`, at `path` or in the output directory; it must exist."""
        path = path or self.out / name
        if not path.exists():
            producer = next(c for c, (_, _, outputs) in _DISPATCH.items() if name in outputs)
            raise MissingArtifactError(f"{path} not found; run `{producer}` first")
        return path

    def dataset(self, name: str) -> Dataset:
        """The labeled or unlabeled input, or a dataset artifact the chain wrote."""
        path = self.input(name) if name in self else self.artifact(name)
        return load_dataset(path, self.schema)

    def optional(self, name: str) -> Dataset | None:
        """A dataset artifact that only some runs write, or None."""
        path = self.out / name
        return load_dataset(path, self.schema, strict_labeled=False) if path.exists() else None


def load_config(config_path: str | Path, args: argparse.Namespace) -> Run:
    config_path = Path(config_path)
    payload = read_json(config_path, ConfigError, "config file")
    if not isinstance(payload, dict):
        raise ConfigError(f"{config_path} must contain a JSON object")
    # an absent or null section is empty; any other value that is not an object is refused below
    sections = {None: payload} | {o.section: {} if payload.get(o.section) is None else payload[o.section]
                                  for o in OPTIONS if o.section}
    known = {s: {o.key for o in OPTIONS if o.key and o.section == s} for s in sections}
    known[None].update(s for s in sections if s)
    problems = []
    for section, entries in sections.items():
        if not isinstance(entries, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        problems.extend(
            f"unknown key {key!r} in section {section!r}" if section else f"unknown top-level key {key!r}"
            for key in entries if key not in known[section]
        )
    if problems:
        raise ConfigError(f"{config_path}: {'; '.join(problems)}")
    return Run({
        option.name: _resolve(option, args, sections[option.section], config_path)
        for option in OPTIONS
    })


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text)


def cmd_split(run: Run) -> str:
    train, test = time_holdout_split(run.dataset("labeled"), run["test_fraction"])
    counts = f"{len(train)} train / {len(test)} test rows"
    if not (train.rows and test.rows):
        empty = "train.csv" if test.rows else "test.csv"
        raise ConfigError(f"test_fraction {run['test_fraction']} leaves {empty} with no rows ({counts})")
    write_dataset(train, run.out / "train.csv")
    write_dataset(test, run.out / "test.csv")
    return (
        f"split: {counts} (fraction {run['test_fraction']}, holdout "
        f"{min(r.timestamp for r in test.rows).isoformat()}) -> {run.out / 'train.csv'}, {run.out / 'test.csv'}"
    )


def cmd_ranges(run: Run) -> str:
    from . import kernel
    labeled, unlabeled = run.dataset("labeled"), run.dataset("unlabeled")
    table = kernel.compute_ranges([labeled, unlabeled], run.schema)
    kernel.save_range_table(table, run.out / "ranges.json")
    return (
        f"ranges: {len(table.ranges)} similarity features pooled over "
        f"{len(labeled) + len(unlabeled)} rows -> {run.out / 'ranges.json'}"
    )


def cmd_calibrate(run: Run) -> str:
    from . import kernel, matcher
    ranges = kernel.load_range_table(run.artifact("ranges.json"), run.schema)
    train, unlabeled = run.dataset("train.csv"), run.dataset("unlabeled")
    result = matcher.calibrate(
        train, unlabeled, ranges, run["percentile"], run["confidence_budget"], run["d"], run["c"]
    )
    params = result.params
    run_config = {"percentile": run["percentile"], "confidence_budget": run["confidence_budget"],
                  "d_override": run["d"], "c_override": run["c"]}
    matcher.save_params(params, run.out / "params.json", extra={
        "labeled_similarity_distribution": result.distribution,
        "matched_fraction_at_c": result.matched_fraction,
        "run_config": run_config,
    })
    return (
        f"calibrate: d={params.d!r} c={params.c!r}, {result.assigned}/{len(unlabeled)} unlabeled "
        f"matched ({100 * result.matched_fraction:.2f}%) -> {run.out / 'params.json'}"
    )


def cmd_match(run: Run) -> str:
    from . import kernel, matcher
    ranges = kernel.load_range_table(run.artifact("ranges.json"), run.schema)
    params = matcher.load_params(run.artifact("params.json"))
    sides = {"train": run.dataset("train.csv"), "test": run.dataset("test.csv")}
    unlabeled = run.dataset("unlabeled")
    parts = []
    for side, labeled in sides.items():
        matches = matcher.match_batch(unlabeled, labeled, ranges, params)
        atomic_write_chunks(
            run.out / f"match_{side}.csv",
            matcher.matches_to_csv_text(matches, run.schema.estimation_features),
        )
        atomic_write_chunks(run.out / f"match_{side}_contributors.json", matcher.contributors_to_json_chunks(matches))
        parts.append(f"{side}: {(matches.estimates != 0).sum()}/{len(matches)} confident")
    return (
        f"match: d={params.d!r} c={params.c!r}; {'; '.join(parts)} "
        f"-> {run.out / 'match_train.csv'}, {run.out / 'match_test.csv'}"
    )


def cmd_augment(run: Run) -> str:
    from . import augment as augment_mod, matcher
    train, unlabeled = run.dataset("train.csv"), run.dataset("unlabeled")
    similar = {
        side: augment_mod.build_similar_dataset(
            matcher.load_matches(run.artifact(f"match_{side}.csv"), run.schema.estimation_features),
            unlabeled,
        )
        for side in ("train", "test")
    }
    merged = augment_mod.merge_datasets(train, similar["train"])
    write_dataset(similar["train"], run.out / "similar_train.csv", include_provenance=True)
    write_dataset(similar["test"], run.out / "similar_test.csv", include_provenance=True)
    write_dataset(merged, run.out / "augmented_train.csv", include_provenance=True)
    return (
        f"augment: {len(similar['train'])} similar-train rows, {len(similar['test'])} similar-test "
        f"rows, augmented train has {len(merged)} rows -> {run.out / 'augmented_train.csv'}"
    )


def cmd_train(run: Run) -> str:
    from . import model as model_mod
    settings = {name: run[name] for name in ("l1", "l2", "max_iter", "tol")}
    parts = []
    for kind, data_name in (("plain", "train.csv"), ("augmented", "augmented_train.csv")):
        data = run.dataset(data_name) if kind == "plain" else run.optional(data_name)
        if data is None:
            parts.append("augmented: skipped (no augmented_train.csv; run `augment` to enable)")
            continue
        with warnings.catch_warnings(record=True) as caught:  # named in the summary, not on stderr
            warnings.simplefilter("always", UserWarning)
            fitted = model_mod.train_logistic(data, run["features"], model_mod.TrainConfig(**settings))
        run_config = {**settings, "features": run["features"], "train_rows": len(data),
                      "train_artifact": data_name}
        model_mod.save_model(fitted, run.out / f"model_{kind}.json", extra={"run_config": run_config})
        parts.append(f"{kind}: {len(fitted.weights)} weights, {fitted.n_iter} iters ({fitted.stop_reason})"
                     + "".join(f", warning: {w.message}" for w in caught))
    return f"train: {'; '.join(parts)} -> {run.out / 'model_plain.json'}"


def cmd_score(run: Run) -> str:
    from . import model as model_mod
    test, similar = run.dataset("test.csv"), run.optional("similar_test.csv")
    rows: list[Sample] = list(test.rows)
    if similar is not None:
        clashes = set(test.ids()) & set(similar.ids())
        if clashes:
            raise ConfigError(
                f"ids appear in both the real and similar test sets: {sorted(clashes)[:5]}"
            )
        rows.extend(similar.rows)
    union = Dataset(run.schema, rows)
    written = []
    for model_path, scores_name, label in (
        (run.artifact("model_plain.json"), "scores_plain.csv", MODEL_NAME_PLAIN),
        (run.out / "model_augmented.json", "scores_augmented.csv", MODEL_NAME_AUGMENTED),
    ):
        if model_path.exists():
            scores = model_mod.predict_scores(model_mod.load_model(model_path), union, label)
            model_mod.save_scores(scores, run.out / scores_name)
            written.append(str(run.out / scores_name))
    return f"score: {len(union)} rows scored by {len(written)} model(s) -> {', '.join(written)}"


def cmd_evaluate(run: Run) -> str:
    from . import evaluation, model as model_mod
    testsets, notes = {"real": run.dataset("test.csv")}, []
    similar = run.optional("similar_test.csv")
    if similar is None:
        notes.append("similar test set absent (run `match` and `augment` to enable)")
    elif len(similar) >= 2 and {row.label for row in similar.rows} == {-1, 1}:
        testsets["similar"] = similar
    else:
        labels = sorted({row.label for row in similar.rows})
        notes.append(f"similar test set skipped ({len(similar)} rows, labels {labels})")
    models = [model_mod.load_external_scores(run.artifact("scores_plain.csv"), MODEL_NAME_PLAIN)]
    augmented = run.out / "scores_augmented.csv"
    if augmented.exists():
        models.append(model_mod.load_external_scores(augmented, MODEL_NAME_AUGMENTED))
    models += [model_mod.load_external_scores(path, name) for name, path in run["external_scores"]]
    report = evaluation.evaluate_table(models, testsets, run["class_threshold"])
    evaluation.save_report(report, run.out / "eval_report.json")
    cells = "; ".join(
        f"{m}/{ts}={report.auc[(m, ts)]:.4f}"
        for m in report.model_names
        for ts in report.testset_names
    )
    suffix = f" ({'; '.join(notes)})" if notes else ""
    return f"evaluate: {cells}{suffix} -> {run.out / 'eval_report.json'}"


def cmd_report(run: Run) -> str:
    from . import evaluation
    report = evaluation.load_report(run.artifact("eval_report.json"))
    atomic_write_text(run.out / "eval_report.txt", report.render_text())
    return (
        f"report: {len(report.model_names)} models x {len(report.testset_names)} test sets "
        f"-> {run.out / 'eval_report.txt'}"
    )


def _probe_base(run: Run) -> Sample:
    data_path = run["data"] or run.input("labeled")
    data = load_dataset(data_path, run.schema, strict_labeled=False)
    if run["sample_id"] is None:
        raise ConfigError("no probe sample id (set probe.sample_id or --sample-id)")
    sample = data.by_id().get(run["sample_id"])
    if sample is None:
        raise ConfigError(f"sample id {run['sample_id']!r} not found in {data_path}")
    return sample


def cmd_probe_grid(run: Run) -> str:
    from . import kernel, model as model_mod, probe as probe_mod
    fitted = model_mod.load_model(run.artifact("model_plain.json", run["model"]))
    base = _probe_base(run)
    features = run.schema.similarity_features  # a schema has at least one
    fx = run["fx"] or features[0]
    fy = run["fy"] or (features[1] if len(features) > 1 else None)
    if fy is None:
        raise ConfigError("probe-grid needs two similarity features (probe.fx / probe.fy)")
    x_axis, y_axis = run["x"], run["y"]
    if x_axis is None or y_axis is None:
        ranges = kernel.load_range_table(run.artifact("ranges.json"), run.schema)
        for feature in (fx, fy):
            if feature not in ranges.bounds:
                raise ConfigError(f"feature {feature!r} has no observed bounds in ranges.json")
        x_axis = x_axis or (*ranges.bounds[fx], 25)
        y_axis = y_axis or (*ranges.bounds[fy], 25)
    grid = probe_mod.probability_grid(fitted, base, fx, fy, x_axis, y_axis)
    out_path = run.out / f"probe_grid_{_slug(base.id)}.csv"
    atomic_write_chunks(out_path, grid.to_csv_text())
    return (
        f"probe-grid: {len(grid.x_values)}x{len(grid.y_values)} scores for sample "
        f"{base.id!r} over ({fx}, {fy}) -> {out_path}"
    )


def cmd_probe_shell(run: Run) -> str:
    from . import kernel, matcher, model as model_mod, probe as probe_mod
    ranges = kernel.load_range_table(run.artifact("ranges.json"), run.schema)
    base = _probe_base(run)
    d = run["d"] if run["d"] is not None else matcher.load_params(run.artifact("params.json")).d
    vary = run["vary"] or list(run.schema.similarity_features)
    shell = probe_mod.similarity_shell(base, vary, ranges, d, run["count"], run["seed"])

    model_path = run["model"] or run.out / "model_plain.json"
    if run["model"] or model_path.exists():  # a --model that is given must exist
        fitted = model_mod.load_model(run.artifact("model_plain.json", model_path))
        threshold = run["class_threshold"]
        shell = probe_mod.score_shell(fitted, shell, threshold)
        report = probe_mod.recourse_probe(shell)
        recourse_path = run.out / f"recourse_{_slug(base.id)}.json"
        probe_mod.save_recourse_report(report, recourse_path, extra={"run_config": {
            "d": d, "count": run["count"], "seed": run["seed"], "vary": list(vary),
            "class_threshold": threshold,
        }})
        verdict = "found" if report.recourse_found else "not found"
        summary_extra = (
            f"; base score {shell.base_score!r}, recourse {verdict} "
            f"({report.crossed_count} crossings) -> {recourse_path}"
        )
    else:
        summary_extra = "; unscored (no model file; run `train` to score the shell)"
    shell_path = run.out / f"shell_{_slug(base.id)}.csv"
    atomic_write_chunks(shell_path, probe_mod.shell_to_csv_text(shell, run.schema.similarity_features))
    return (
        f"probe-shell: {len(shell)} samples within similarity {d!r} of {base.id!r} "
        f"(varied {', '.join(vary)}) -> {shell_path}{summary_extra}"
    )


# command -> (its function, what it does, the files it writes to the output directory)
_DISPATCH = {
    "split": (cmd_split, "time-holdout split of the labeled data", ("train.csv", "test.csv")),
    "ranges": (cmd_ranges, "freeze per-feature ranges over labeled + unlabeled data", ("ranges.json",)),
    "calibrate": (cmd_calibrate, "calibrate similarity threshold d and confidence threshold c",
                  ("params.json",)),
    "match": (cmd_match, "estimate labels for unlabeled samples vs train and test rows",
              ("match_train.csv", "match_test.csv", "match_train_contributors.json",
               "match_test_contributors.json")),
    "augment": (cmd_augment, "build similar datasets and the augmented training set",
                ("similar_train.csv", "similar_test.csv", "augmented_train.csv")),
    "train": (cmd_train, "train plain and augmented logistic regression models",
              ("model_plain.json", "model_augmented.json")),
    "score": (cmd_score, "score the real + similar test rows with trained models",
              ("scores_plain.csv", "scores_augmented.csv")),
    "evaluate": (cmd_evaluate, "AUC table and McNemar comparisons", ("eval_report.json",)),
    "probe-grid": (cmd_probe_grid, "two-feature probability grid around one sample", ()),
    "probe-shell": (cmd_probe_shell, "fixed-similarity perturbation shell and recourse report", ()),
    "report": (cmd_report, "render the evaluation report as an aligned text table", ("eval_report.txt",)),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError instead of exiting 2."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="simlabel",
        description="Confident similar-sample mining, augmentation, evaluation, and probing "
                    "for small labeled tabular datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, _) in _DISPATCH.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        for option in OPTIONS:
            if option.flag and (option.commands is None or command in option.commands):
                shape = {"metavar": option.flag[2:].upper().replace("-", "_")}
                if option.kind == "axis":  # str.strip undoes `_negative_axis_values`' space
                    shape = {"nargs": 3, "metavar": ("LO", "HI", "N"), "type": str.strip}
                p.add_argument(option.flag, dest=option.name, default=None, help=option.help, **shape)
    return parser


def _negative_axis_values(argv: list[str]) -> list[str]:
    """`argv` with a space before each negative number among the three values after --x or --y.

    argparse reads "-1e3" or "-inf" as a flag (only a plain decimal such as "-1.5" passes as a
    negative number), but reads any argument holding a space as a value. "-inf" and "-nan", in any
    case, are marked too, so the axis kind refuses them by name.
    """
    marked = list(argv)
    for at, arg in enumerate(argv):
        if arg in ("--x", "--y"):
            marked[at + 1:at + 4] = [f" {v}" if re.match(r"-(\.?\d|inf|nan)", v, re.IGNORECASE) else v
                                     for v in argv[at + 1:at + 4]]
    return marked


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _DISPATCH else None  # a usage error names it too
    try:
        args = build_parser().parse_args(_negative_axis_values(argv))
        summary = _DISPATCH[args.command][0](load_config(args.config, args))
    except (SimlabelError, OSError, MemoryError) as err:
        # a bare MemoryError has no text; numpy's names the allocation it refused
        line = json.dumps({"status": "error", "command": command, "message": str(err) or "out of memory"})
        print(line, file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
