"""AUC ROC per model per test set, McNemar significance between model pairs.

AUC is counted from its definition: the probability that a random positive
outscores a random negative, plus half the probability that they tie.
McNemar compares two models' correctness on the same rows: with fewer than 25
discordant pairs the exact two-sided binomial p-value is used, otherwise the
continuity-corrected chi-square with one degree of freedom.

Report p-values are raw; no multiple-comparison adjustment is applied, and
the report metadata says so.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass
from itertools import combinations
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from .dataset import Dataset, json_count, json_number, read_json, write_json
from .errors import EvalError

if TYPE_CHECKING:  # annotations only: `report` reads no score file and never loads the model module
    from .model import ScoreFile

EXACT_VARIANT = "exact-binomial"
CHI_SQUARE_VARIANT = "chi-square"
DISCORDANT_SWITCHOVER = 25
P_VALUE_NOTE = "raw two-sided p-values; no multiple-comparison adjustment"


def _report_number(value, what: str, unit: bool = True) -> float:
    """A number an evaluation report holds: in [0, 1], or if not `unit`, finite and >= 0."""
    number = json_number(value, what)
    if not (0.0 <= number <= 1.0 if unit else 0.0 <= number < math.inf):
        raise ValueError(f"{what} must be {'in [0, 1]' if unit else 'finite and >= 0'}, got {value!r}")
    return number


def classify(score: float, class_threshold: float = 0.5) -> int:
    """Binarize a probability score; a tie at the threshold classifies as +1."""
    return 1 if score >= class_threshold else -1


def _aligned_scores(scores: ScoreFile, labels: Dataset) -> tuple[list[float], list[int]]:
    lookup = scores.scores_by_id()
    unlabeled = [row.id for row in labels.rows if row.label is None]
    if unlabeled:
        raise EvalError(
            f"test rows without labels: {', '.join(unlabeled[:10])}"
        )
    missing = [row.id for row in labels.rows if row.id not in lookup]
    if missing:
        raise EvalError(
            f"score file {scores.model_name!r} missing {len(missing)} test ids: "
            f"{', '.join(missing[:10])}"
        )
    values = [lookup[row.id] for row in labels.rows]
    targets = [row.label for row in labels.rows]
    return values, targets


def auc_roc(scores: ScoreFile, labels: Dataset) -> float:
    """P(score of a positive > score of a negative) + 0.5 P(equal), counted from each positive's wins."""
    values, targets = _aligned_scores(scores, labels)
    negatives = sorted(v for v, t in zip(values, targets) if t != 1)
    positives = [v for v, t in zip(values, targets) if t == 1]
    n_pos, n_neg = len(positives), len(negatives)
    if n_pos == 0 or n_neg == 0:
        raise EvalError("AUC needs both classes present in the test labels")
    # left + right bisect counts each negative below a positive twice and each tie once: twice its wins
    twice = sum(bisect_left(negatives, v) + bisect_right(negatives, v) for v in positives)
    return twice / 2.0 / (n_pos * n_neg)


@dataclass(frozen=True)
class McNemarResult:
    """Discordant counts and the significance of the difference between two models.

    `statistic` is the continuity-corrected chi-square value; it is reported
    even when the exact binomial variant supplies the p-value (as a
    cross-check), and is None when there are no discordant pairs.
    """

    b: int
    c: int
    statistic: float | None
    p_value: float
    variant: str


def mcnemar_test(
    scores_a: ScoreFile,
    scores_b: ScoreFile,
    labels: Dataset,
    class_threshold: float = 0.5,
) -> McNemarResult:
    """Exact-binomial or continuity-corrected chi-square McNemar test.

    b counts rows where model A is correct and B wrong; c the reverse.
    Correctness compares sign(score - threshold) to the row label, with the
    tie-at-threshold rule classifying as +1.
    """
    values_a, targets = _aligned_scores(scores_a, labels)
    values_b, _ = _aligned_scores(scores_b, labels)
    b = 0
    c = 0
    for sa, sb, target in zip(values_a, values_b, targets):
        correct_a = classify(sa, class_threshold) == target
        correct_b = classify(sb, class_threshold) == target
        if correct_a and not correct_b:
            b += 1
        elif correct_b and not correct_a:
            c += 1
    n = b + c
    statistic = None if n == 0 else (abs(b - c) - 1) ** 2 / n
    if n < DISCORDANT_SWITCHOVER:
        tail = sum(math.comb(n, k) for k in range(max(b, c), n + 1))
        p_value = min(1.0, 2.0 * tail * (0.5**n))
        variant = EXACT_VARIANT
    else:
        p_value = math.erfc(math.sqrt(statistic / 2.0))  # chi-square(1) survival
        variant = CHI_SQUARE_VARIANT
    return McNemarResult(b=b, c=c, statistic=statistic, p_value=p_value, variant=variant)


@dataclass(frozen=True)
class Comparison:
    testset: str
    model_a: str
    model_b: str
    result: McNemarResult


@dataclass
class EvalReport:
    """AUC cells and pairwise McNemar comparisons, shaped like a models-by-testsets table."""

    model_names: tuple[str, ...]
    testset_names: tuple[str, ...]
    auc: dict[tuple[str, str], float]
    comparisons: tuple[Comparison, ...]
    metadata: dict

    def to_json_dict(self) -> dict:
        return {
            "models": list(self.model_names),
            "testsets": list(self.testset_names),
            "auc": {
                model: {ts: self.auc[(model, ts)] for ts in self.testset_names}
                for model in self.model_names
            },
            "mcnemar": [
                {"testset": comp.testset, "model_a": comp.model_a, "model_b": comp.model_b, **asdict(comp.result)}
                for comp in self.comparisons
            ],
            "metadata": self.metadata,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "EvalReport":
        try:
            models = tuple(payload["models"])
            testsets = tuple(payload["testsets"])
            auc = {
                (model, ts): _report_number(payload["auc"][model][ts], f"AUC of ({model!r}, {ts!r})")
                for model in models
                for ts in testsets
            }
            comparisons = tuple(
                Comparison(
                    testset=entry["testset"],
                    model_a=entry["model_a"],
                    model_b=entry["model_b"],
                    result=McNemarResult(
                        b=json_count(entry["b"], "McNemar b"),
                        c=json_count(entry["c"], "McNemar c"),
                        statistic=(None if entry["statistic"] is None
                                   else _report_number(entry["statistic"], "McNemar statistic", unit=False)),
                        p_value=_report_number(entry["p_value"], "McNemar p_value"),
                        variant=entry["variant"],
                    ),
                )
                for entry in payload["mcnemar"]
            )
            metadata = dict(payload.get("metadata", {}))
            if "class_threshold" in metadata:
                _report_number(metadata["class_threshold"], "class_threshold")
        except (KeyError, TypeError, ValueError) as err:
            raise EvalError(f"malformed evaluation report payload: {err}") from err
        if not models or not testsets:
            raise EvalError("evaluation report payload names no models or no test sets")
        variants = (EXACT_VARIANT, CHI_SQUARE_VARIANT)
        for comp in comparisons:
            if comp.testset not in testsets or comp.model_a not in models or comp.model_b not in models:
                raise EvalError(f"McNemar entry [{comp.testset!r}] {comp.model_a!r} vs {comp.model_b!r} "
                                "must name a listed test set and two listed models")
            if comp.result.variant not in variants:
                raise EvalError(f"McNemar variant must be one of {variants}, got {comp.result.variant!r}")
        deltas = metadata.get("augmented_vs_plain_auc_delta", {})
        try:
            finite = all(math.isfinite(json_number(v, "delta")) for row in deltas.values() for v in row.values())
        except (AttributeError, TypeError, ValueError):
            finite = False
        if not finite:
            raise EvalError("augmented_vs_plain_auc_delta must map models to objects of finite numbers")
        return cls(models, testsets, auc, comparisons, metadata)

    def render_text(self) -> str:
        """Aligned plain-text table: rows are models, columns are test sets."""
        name_width = max(len("Algorithm"), *(len(m) for m in self.model_names))
        col_width = max(8, *(len(ts) for ts in self.testset_names)) + 2
        lines = ["Performance of algorithms in AUC ROC"]
        lines.append(
            "(rows marked with a star were trained with similar samples added)"
        )
        lines.append("")
        header = "Algorithm".ljust(name_width)
        for ts in self.testset_names:
            header += ts.rjust(col_width)
        lines.append(header)
        lines.append("-" * len(header))
        for model in self.model_names:
            row = model.ljust(name_width)
            for ts in self.testset_names:
                row += f"{self.auc[(model, ts)]:.4f}".rjust(col_width)
            lines.append(row)
        deltas = self.metadata.get("augmented_vs_plain_auc_delta") or {}
        if deltas:
            lines.append("")
            lines.append("Augmented minus plain AUC:")
            for base, per_testset in deltas.items():
                parts = ", ".join(f"{ts} {delta:+.4f}" for ts, delta in per_testset.items())
                lines.append(f"  {base}: {parts}")
        if self.comparisons:
            threshold = self.metadata.get("class_threshold", 0.5)
            lines.append("")
            lines.append(
                f"McNemar pairwise tests (classification threshold {threshold}; {P_VALUE_NOTE}):"
            )
            for comp in self.comparisons:
                res = comp.result
                stat = "n/a" if res.statistic is None else f"{res.statistic:.4f}"
                lines.append(
                    f"  [{comp.testset}] {comp.model_a} vs {comp.model_b}: "
                    f"b={res.b} c={res.c} statistic={stat} p={res.p_value:.5f} ({res.variant})"
                )
        return "\n".join(lines) + "\n"


def evaluate_table(
    models: Sequence[ScoreFile],
    testsets: Mapping[str, Dataset],
    class_threshold: float = 0.5,
) -> EvalReport:
    """Fill every (model, testset) AUC cell and run all pairwise McNemar tests.

    Every score file must cover every test set's ids; coverage gaps are
    collected per (model, testset) and reported together.
    """
    if not models:
        raise EvalError("evaluate_table needs at least one score file")
    if not testsets:
        raise EvalError("evaluate_table needs at least one named test set")
    names = [m.model_name for m in models]
    if len(set(names)) != len(names):
        raise EvalError(f"duplicate model names: {names}")

    gaps = []
    for scores in models:
        covered = set(scores.scores_by_id())
        for ts_name, data in testsets.items():
            missing = [row.id for row in data.rows if row.id not in covered]
            if missing:
                gaps.append(
                    f"({scores.model_name}, {ts_name}): {len(missing)} ids uncovered, "
                    f"e.g. {', '.join(missing[:5])}"
                )
    if gaps:
        raise EvalError(f"score coverage gaps: {'; '.join(gaps)}")

    auc: dict[tuple[str, str], float] = {}
    for scores in models:
        for ts_name, data in testsets.items():
            auc[(scores.model_name, ts_name)] = auc_roc(scores, data)

    comparisons = [
        Comparison(ts_name, a.model_name, b.model_name, mcnemar_test(a, b, data, class_threshold))
        for ts_name, data in testsets.items()
        for a, b in combinations(models, 2)
    ]

    deltas: dict[str, dict[str, float]] = {}
    for name in names:
        if name.endswith("*") and name[:-1] in names:
            base = name[:-1]
            deltas[base] = {
                ts: auc[(name, ts)] - auc[(base, ts)] for ts in testsets
            }

    metadata = {
        "class_threshold": class_threshold,
        "testset_sizes": {ts: len(data.rows) for ts, data in testsets.items()},
        "p_value_note": P_VALUE_NOTE,
        "augmented_vs_plain_auc_delta": deltas,
    }
    return EvalReport(
        model_names=tuple(names),
        testset_names=tuple(testsets),
        auc=auc,
        comparisons=tuple(comparisons),
        metadata=metadata,
    )


def save_report(report: EvalReport, path: str | Path) -> None:
    write_json(path, report.to_json_dict())


def load_report(path: str | Path) -> EvalReport:
    return read_json(path, EvalError, "evaluation report", EvalReport.from_json_dict)
