"""Threshold calibration and confident label estimation for unlabeled samples.

For an unlabeled sample u, every labeled sample whose Gower similarity k to u
exceeds the similarity threshold d contributes weight w = k to a vote
t = sum(w * y) / sum(w) in [-1, +1]. The estimate is +1 when t > c, -1 when
t < -c, and 0 (abstain) otherwise, where c is the confidence threshold.
Confident estimates also get their estimation-only features reconstructed as
the similarity-weighted mean over the matched contributors.

All comparisons are strict, so ties at a threshold abstain. Batches are a
parallel map over unlabeled rows against an immutable labeled dataset; output
order and every byte of the result are independent of the worker count.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .dataset import Dataset, Sample, read_json, write_json
from .errors import MatcherError
from .kernel import RangeTable, gower_similarity

TOP_CONTRIBUTORS_CAP = 10


@dataclass(frozen=True)
class SimilarityParams:
    """Similarity threshold d and confidence threshold c, with how they were chosen."""

    d: float
    c: float
    provenance: str = ""

    def __post_init__(self):
        if not 0.0 <= self.d <= 1.0:
            raise MatcherError(f"similarity threshold d must be in [0, 1], got {self.d}")
        if not 0.0 <= self.c <= 1.0:
            raise MatcherError(f"confidence threshold c must be in [0, 1], got {self.c}")

    def to_json_dict(self) -> dict:
        return {"d": float(self.d), "c": float(self.c), "provenance": self.provenance}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "SimilarityParams":
        try:
            return cls(
                d=float(payload["d"]),
                c=float(payload["c"]),
                provenance=str(payload.get("provenance", "")),
            )
        except (KeyError, TypeError, ValueError) as err:
            raise MatcherError(f"malformed similarity params payload: {err}") from err


@dataclass(frozen=True)
class MatchResult:
    """Outcome for one unlabeled sample.

    `vote` is None when no labeled sample cleared the similarity threshold
    (the vote is 0/0 there, and the estimate is the explicit abstain code 0).
    `imputed_features` maps every estimation-only feature to its weighted
    mean, or None for features no contributor carries; the whole map is None
    when the estimate is 0.
    """

    unlabeled_id: str
    vote: float | None
    estimated_label: int
    imputed_features: dict[str, float | None] | None
    matched_count: int
    top_contributors: tuple[tuple[str, float], ...]


def _require_valid_labels(labeled: Dataset) -> None:
    bad = [row.id for row in labeled.rows if row.label not in (-1, 1)]
    if bad:
        raise MatcherError(
            f"labeled dataset has rows without a -1/+1 label: {', '.join(bad[:10])}"
        )


def pairwise_similarities(labeled: Dataset, ranges: RangeTable) -> list[float]:
    """All N*(N-1)/2 Gower similarities between labeled rows, pair order row-major."""
    rows = labeled.rows
    sims = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            sims.append(gower_similarity(rows[i], rows[j], ranges))
    return sims


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> float:
    """Value at index ceil(p * M) - 1 of an ascending list (clamped to valid indexes)."""
    if not sorted_values:
        raise MatcherError("nearest_rank needs a non-empty list")
    m = len(sorted_values)
    index = math.ceil(percentile * m) - 1
    index = min(max(index, 0), m - 1)
    return sorted_values[index]


def _sorted_pairs(labeled: Dataset, ranges: RangeTable) -> list[float]:
    """The labeled pairwise similarities, ascending; the guard runs before the pass."""
    if len(labeled.rows) < 2:
        raise MatcherError(
            f"calibrating d needs at least 2 labeled rows, got {len(labeled.rows)}"
        )
    return sorted(pairwise_similarities(labeled, ranges))


def calibrate_similarity_threshold(
    labeled: Dataset,
    ranges: RangeTable,
    percentile: float = 0.95,
    *,
    sims: Sequence[float] | None = None,
) -> float:
    """Fix d at the nearest-rank percentile of all labeled pairwise similarities.

    `sims` is that list, ascending, when the caller has already computed it.
    """
    if not 0.0 <= percentile <= 1.0:
        raise MatcherError(f"percentile must be in [0, 1], got {percentile}")
    return nearest_rank(_sorted_pairs(labeled, ranges) if sims is None else sims, percentile)


def labeled_similarity_distribution(
    labeled: Dataset,
    ranges: RangeTable,
    *,
    sims: Sequence[float] | None = None,
) -> dict[str, float]:
    """Diagnostic quantiles of the labeled pairwise-similarity distribution.

    The matching only works when labeled samples are not all near-identical;
    there is no principled hard rule for that, so this summary is reported
    instead of enforced. `sims` is as in calibrate_similarity_threshold.
    """
    if sims is None:
        sims = _sorted_pairs(labeled, ranges)
    return {
        "pairs": len(sims),
        "min": sims[0],
        "p25": nearest_rank(sims, 0.25),
        "median": nearest_rank(sims, 0.50),
        "p75": nearest_rank(sims, 0.75),
        "p95": nearest_rank(sims, 0.95),
        "max": sims[-1],
    }


def _vote(
    u: Sample,
    labeled_rows: Sequence[Sample],
    ranges: RangeTable,
    d: float,
) -> tuple[float, float, list[tuple[int, float]]]:
    """Weighted vote accumulators for one unlabeled sample.

    Returns (sum of w*y, sum of w, matched contributors as (row index, similarity)).
    Accumulation is in labeled-dataset order, left to right, so results are
    reproducible bit for bit.
    """
    num = 0.0
    den = 0.0
    matched: list[tuple[int, float]] = []
    for index, row in enumerate(labeled_rows):
        similarity = gower_similarity(row, u, ranges)
        if similarity > d:
            num += similarity * row.label
            den += similarity
            matched.append((index, similarity))
    return num, den, matched


def unlabeled_votes(
    unlabeled: Dataset,
    labeled: Dataset,
    ranges: RangeTable,
    d: float,
) -> list[float | None]:
    """The vote t for every unlabeled row at threshold d (None where undefined)."""
    _require_valid_labels(labeled)
    votes: list[float | None] = []
    for row in unlabeled.rows:
        num, den, _ = _vote(row, labeled.rows, ranges, d)
        votes.append(num / den if den > 0.0 else None)
    return votes


def calibrate_confidence_threshold(
    labeled: Dataset,
    unlabeled: Dataset,
    ranges: RangeTable,
    d: float,
    target_fraction: float = 0.05,
    *,
    votes: Sequence[float | None] | None = None,
) -> float:
    """Pick c so that strictly less than target_fraction of unlabeled rows get labels.

    Candidates are the observed |t| values swept in descending order; the
    assignment count at candidate c is the number of rows with |t| > c
    (strict), which grows as the sweep descends. The smallest candidate still
    under budget wins. With no defined votes, or a budget nothing satisfies,
    the fallback c = 1.0 assigns nothing. `votes` is unlabeled_votes at d when
    the caller has already computed it.
    """
    if not unlabeled.rows:
        raise MatcherError("calibrating c needs a non-empty unlabeled dataset")
    if votes is None:
        votes = unlabeled_votes(unlabeled, labeled, ranges, d)
    magnitudes = sorted({abs(t) for t in votes if t is not None}, reverse=True)
    if not magnitudes:
        return 1.0

    total = len(unlabeled.rows)
    defined = [abs(t) for t in votes if t is not None]
    best = None
    for candidate in magnitudes:
        assigned = sum(1 for m in defined if m > candidate)
        if assigned / total < target_fraction:
            best = candidate
        else:
            break
    return best if best is not None else 1.0


@dataclass(frozen=True)
class Calibration:
    """The thresholds the calibrate stage chose, with its diagnostics."""

    params: SimilarityParams
    distribution: dict[str, float]
    assigned: int
    matched_fraction: float


def calibrate(
    labeled: Dataset,
    unlabeled: Dataset,
    ranges: RangeTable,
    percentile: float = 0.95,
    target_fraction: float = 0.05,
    d: float | None = None,
    c: float | None = None,
) -> Calibration:
    """Choose d and c, then count the unlabeled rows they assign.

    A given d or c is a manual override and skips its calibration. The
    labeled pairwise similarities and the unlabeled votes at d are each
    computed once and feed the distribution, d, c and the matched fraction.
    """
    if not unlabeled.rows:
        raise MatcherError("calibrating c needs a non-empty unlabeled dataset")
    sims = _sorted_pairs(labeled, ranges)
    distribution = labeled_similarity_distribution(labeled, ranges, sims=sims)
    if d is None:
        d = calibrate_similarity_threshold(labeled, ranges, percentile, sims=sims)
        d_note = f"d: nearest-rank {percentile} percentile of {len(sims)} labeled pairwise similarities"
    else:
        d_note = f"d: manual override {d!r}"
    votes = unlabeled_votes(unlabeled, labeled, ranges, d)
    if c is None:
        c = calibrate_confidence_threshold(labeled, unlabeled, ranges, d, target_fraction, votes=votes)
        c_note = f"c: descending sweep under budget {target_fraction} of {len(unlabeled)} unlabeled"
    else:
        c_note = f"c: manual override {c!r}"
    assigned = sum(1 for t in votes if t is not None and abs(t) > c)
    return Calibration(
        params=SimilarityParams(d=d, c=c, provenance=f"{d_note}; {c_note}"),
        distribution=distribution,
        assigned=assigned,
        matched_fraction=assigned / len(unlabeled),
    )


def estimate_label(
    u: Sample,
    labeled: Dataset,
    ranges: RangeTable,
    params: SimilarityParams,
) -> MatchResult:
    """Estimate the label of one unlabeled sample and impute its missing features.

    An unmatched sample (no labeled row above d) is a valid abstention, not an
    error. Imputation runs only for confident estimates and averages each
    estimation-only feature over the matched contributors that carry it,
    weighted by similarity.
    """
    _require_valid_labels(labeled)
    labeled_rows = labeled.rows
    num, den, matched = _vote(u, labeled_rows, ranges, params.d)

    if den == 0.0:
        return MatchResult(
            unlabeled_id=u.id,
            vote=None,
            estimated_label=0,
            imputed_features=None,
            matched_count=0,
            top_contributors=(),
        )

    vote = num / den
    if vote > params.c:
        label = 1
    elif vote < -params.c:
        label = -1
    else:
        label = 0

    imputed: dict[str, float | None] | None = None
    if label != 0:
        imputed = {}
        for feature in labeled.schema.estimation_features:
            f_num = 0.0
            f_den = 0.0
            for index, weight in matched:
                value = labeled_rows[index].features.get(feature)
                if value is None:
                    continue
                f_num += weight * value
                f_den += weight
            imputed[feature] = f_num / f_den if f_den > 0.0 else None

    ranked = sorted(matched, key=lambda pair: (-pair[1], pair[0]))
    top = tuple(
        (labeled_rows[index].id, similarity)
        for index, similarity in ranked[:TOP_CONTRIBUTORS_CAP]
    )
    return MatchResult(
        unlabeled_id=u.id,
        vote=vote,
        estimated_label=label,
        imputed_features=imputed,
        matched_count=len(matched),
        top_contributors=top,
    )


def match_batch(
    unlabeled: Dataset,
    labeled: Dataset,
    ranges: RangeTable,
    params: SimilarityParams,
    workers: int = 1,
) -> list[MatchResult]:
    """estimate_label over every unlabeled row, in input order.

    Rows are independent, so the batch is a plain parallel map; any worker
    count produces results identical to the sequential run.
    """
    if unlabeled.schema != labeled.schema:
        raise MatcherError("unlabeled and labeled datasets must share a schema")
    _require_valid_labels(labeled)

    def one(row: Sample) -> MatchResult:
        try:
            return estimate_label(row, labeled, ranges, params)
        except MatcherError:
            raise
        except Exception as err:
            raise MatcherError(f"row {row.id!r}: {err}") from err

    if workers <= 1 or len(unlabeled.rows) <= 1:
        return [one(row) for row in unlabeled.rows]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, unlabeled.rows))


def matches_to_csv_text(results: Sequence[MatchResult], estimation_features: Sequence[str]) -> str:
    """Delimited match output: id, t, y_hat, matched_count, then imputed columns."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "t", "y_hat", "matched_count", *estimation_features])
    for result in results:
        cells = [
            result.unlabeled_id,
            "" if result.vote is None else repr(float(result.vote)),
            str(result.estimated_label),
            str(result.matched_count),
        ]
        for feature in estimation_features:
            value = None if result.imputed_features is None else result.imputed_features.get(feature)
            cells.append("" if value is None else repr(float(value)))
        writer.writerow(cells)
    return buf.getvalue()


def load_matches(path: str | Path, estimation_features: Sequence[str]) -> list[MatchResult]:
    """Read a match CSV back into results (contributor details live in the sidecar)."""
    path = Path(path)
    if not path.exists():
        raise MatcherError(f"match file not found: {path}")
    expected = ["id", "t", "y_hat", "matched_count", *estimation_features]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MatcherError(f"{path}: file is empty") from None
        if header != expected:
            raise MatcherError(f"{path}: unexpected header {header}, wanted {expected}")
        results = []
        for row_num, cells in enumerate(reader, start=1):
            if len(cells) != len(expected):
                raise MatcherError(f"{path}: row {row_num} has {len(cells)} columns")
            try:
                vote = float(cells[1]) if cells[1] else None
                label = int(cells[2])
                matched_count = int(cells[3])
                imputed: dict[str, float | None] | None
                if label == 0:
                    imputed = None
                else:
                    imputed = {
                        name: (float(text) if text else None)
                        for name, text in zip(estimation_features, cells[4:])
                    }
            except ValueError as err:
                raise MatcherError(f"{path}: row {row_num}: {err}") from err
            results.append(
                MatchResult(
                    unlabeled_id=cells[0],
                    vote=vote,
                    estimated_label=label,
                    imputed_features=imputed,
                    matched_count=matched_count,
                    top_contributors=(),
                )
            )
    return results


def contributors_to_json_dict(results: Sequence[MatchResult]) -> dict:
    """Sidecar payload: unlabeled id -> [[labeled id, similarity], ...]."""
    return {
        result.unlabeled_id: [[cid, sim] for cid, sim in result.top_contributors]
        for result in results
    }


def save_params(params: SimilarityParams, path: str | Path, extra: dict | None = None) -> None:
    write_json(path, {**params.to_json_dict(), **(extra or {})})


def load_params(path: str | Path) -> SimilarityParams:
    return SimilarityParams.from_json_dict(read_json(path, MatcherError, "similarity params file"))
