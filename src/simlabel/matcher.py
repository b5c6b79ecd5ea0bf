"""Threshold calibration and confident label estimation for unlabeled samples.

For an unlabeled sample u, every labeled sample whose Gower similarity k to u
exceeds the similarity threshold d contributes weight w = k to a vote
t = sum(w * y) / sum(w) in [-1, +1]. The estimate is +1 when t > c, -1 when
t < -c, and 0 (abstain) otherwise, where c is the confidence threshold.
Confident estimates also get their estimation-only features reconstructed as
the similarity-weighted mean over the matched contributors.

All comparisons are strict, so ties at a threshold abstain. Similarities come
from kernel.similarity_blocks in blocks of every labeled row against a run of
unlabeled rows, at most kernel.BLOCK_PAIRS similarities a block (the kernel
sizes its blocks; this module never does). One np.nonzero per
block lists the contributors, the pairs above d, in labeled-dataset order;
votes, matched counts and imputations sum only those terms, in that order, so
every result equals that of a per-pair loop bit for bit, whatever the block size.

Each unlabeled row keeps its top contributors: the labeled rows of highest
similarity, ties in labeled order. They are found without sorting every
labeled row: np.partition gives the width-th largest similarity, the rows
above it and the first rows equal to it fill the width, and only those are
sorted, so the result is that of a full stable argsort.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import dataset
from .dataset import Dataset, csv_chunks, feature_matrix, json_number, number, read_csv, read_json
from .errors import MatcherError
from .kernel import RangeTable, similarity_blocks

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
                d=json_number(payload["d"], "d"),
                c=json_number(payload["c"], "c"),
                provenance=str(payload.get("provenance", "")),
            )
        except (KeyError, TypeError, ValueError) as err:
            raise MatcherError(f"malformed similarity params payload: {err}") from err


@dataclass(frozen=True, eq=False)
class Matches:
    """Outcome of match_batch for every unlabeled row, as arrays in input order.

    NaN marks an empty cell: a vote where no labeled row cleared d (0/0; the
    estimate is the abstain code 0 there), an imputed estimation-only feature
    where the estimate is 0 or no contributor carries it. Row j's top
    contributors, labeled ids and similarities, are the first matched[j] (at
    most width) entries of `top_ids` and `top_sims`, padded with None and NaN;
    load_matches gives them zero width.
    """

    ids: list[str]
    votes: np.ndarray
    estimates: np.ndarray
    matched: np.ndarray
    imputed: np.ndarray
    top_ids: np.ndarray
    top_sims: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def _labels(labeled: Dataset) -> np.ndarray:
    """The labels as floats; every row must have one of -1 and +1."""
    bad = [row.id for row in labeled.rows if row.label not in (-1, 1)]
    if bad:
        raise MatcherError(
            f"labeled dataset has rows without a -1/+1 label: {', '.join(bad[:10])}"
        )
    return np.array([row.label for row in labeled.rows], dtype=np.float64)


def _labeled_blocks(unlabeled: Dataset, labeled: Dataset, ranges: RangeTable):
    """similarity_blocks of every labeled row against runs of unlabeled rows."""
    names = ranges.features()
    return similarity_blocks(labeled.rows, feature_matrix(labeled.rows, names),
                             unlabeled.rows, feature_matrix(unlabeled.rows, names), ranges)


def pairwise_similarities(labeled: Dataset, ranges: RangeTable) -> np.ndarray:
    """All N*(N-1)/2 Gower similarities between labeled rows, pair order row-major.

    Each row is compared with the rows after it, straight into the one array of every pair.
    """
    rows = labeled.rows
    x = feature_matrix(rows, ranges.features())
    sims, at = np.empty(len(rows) * (len(rows) - 1) // 2), 0
    for i in range(len(rows) - 1):
        for _, block in similarity_blocks(rows[i:i + 1], x[i:i + 1], rows[i + 1:], x[i + 1:], ranges):
            sims[at:at + block.shape[1]] = block[0]
            at += block.shape[1]
    return sims


def nearest_rank(sorted_values: np.ndarray, percentile: float) -> float:
    """Value at index ceil(p * M) - 1 of an ascending array (clamped to valid indexes)."""
    m = len(sorted_values)
    if not m:
        raise MatcherError("nearest_rank needs a non-empty array")
    index = math.ceil(percentile * m) - 1
    index = min(max(index, 0), m - 1)
    return float(sorted_values[index])


def calibrate_similarity_threshold(sims: np.ndarray, percentile: float = 0.95) -> float:
    """Fix d at the nearest-rank percentile of `sims`, the labeled pairwise similarities ascending."""
    if not 0.0 <= percentile <= 1.0:
        raise MatcherError(f"percentile must be in [0, 1], got {percentile}")
    return nearest_rank(sims, percentile)


def labeled_similarity_distribution(sims: np.ndarray) -> dict[str, float]:
    """Diagnostic quantiles of `sims`, the labeled pairwise similarities ascending.

    The matching only works when labeled samples are not all near-identical;
    there is no principled hard rule for that, so this summary is reported
    instead of enforced.
    """
    return {
        "pairs": len(sims),
        "min": float(sims[0]),
        "p25": nearest_rank(sims, 0.25),
        "median": nearest_rank(sims, 0.50),
        "p75": nearest_rank(sims, 0.75),
        "p95": nearest_rank(sims, 0.95),
        "max": float(sims[-1]),
    }


def _weighted_means(cols: np.ndarray, weights: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """sum(w * v) / sum(w) over the entries of each of n columns, NaN where a column has none.

    np.bincount adds a column's terms from 0.0 in the order given, so entries
    in labeled order are summed as a Python loop over the labeled rows sums them.
    """
    with np.errstate(invalid="ignore"):  # 0 / 0
        return np.bincount(cols, weights * values, n) / np.bincount(cols, weights, n)


def unlabeled_votes(
    unlabeled: Dataset,
    labeled: Dataset,
    ranges: RangeTable,
    d: float,
) -> np.ndarray:
    """The vote t for every unlabeled row at threshold d (NaN where undefined)."""
    labels = _labels(labeled)
    votes = np.empty(len(unlabeled))
    for block, sims in _labeled_blocks(unlabeled, labeled, ranges):
        rows, cols = np.nonzero(sims > d)
        votes[block] = _weighted_means(cols, sims[rows, cols], labels[rows], sims.shape[1])
    return votes


def calibrate_confidence_threshold(votes: np.ndarray, target_fraction: float = 0.05) -> float:
    """Pick c so that strictly less than target_fraction of the unlabeled `votes` get labels.

    Candidates are the observed |t| values swept in descending order; the
    assignment count at candidate c is the number of rows with |t| > c
    (strict), which grows as the sweep descends. The smallest candidate still
    under budget wins. With no defined votes, or a budget nothing satisfies,
    the fallback c = 1.0 assigns nothing.
    """
    if not len(votes):
        raise MatcherError("calibrating c needs the votes of a non-empty unlabeled dataset")
    magnitudes = np.sort(np.abs(votes[~np.isnan(votes)]))
    assigned = len(magnitudes) - np.searchsorted(magnitudes, magnitudes, side="right")  # rows with |t| above each
    under = magnitudes[assigned / len(votes) < target_fraction]  # a suffix: assigned only falls
    return under[0].item() if len(under) else 1.0


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
    An empty unlabeled dataset and fewer than 2 labeled rows are refused
    before either pass; a percentile outside [0, 1] only after the labeled
    pass, by calibrate_similarity_threshold, and not at all when d is given.
    """
    if not unlabeled.rows:
        raise MatcherError("calibrating c needs a non-empty unlabeled dataset")
    if len(labeled.rows) < 2:
        raise MatcherError(f"calibrating d needs at least 2 labeled rows, got {len(labeled.rows)}")
    sims = pairwise_similarities(labeled, ranges)
    sims.sort()  # in place: the pairs are the stage's largest array
    distribution = labeled_similarity_distribution(sims)
    if d is None:
        d = calibrate_similarity_threshold(sims, percentile)
        d_note = f"d: nearest-rank {percentile} percentile of {len(sims)} labeled pairwise similarities"
    else:
        d_note = f"d: manual override {d!r}"
    votes = unlabeled_votes(unlabeled, labeled, ranges, d)
    if c is None:
        c = calibrate_confidence_threshold(votes, target_fraction)
        c_note = f"c: descending sweep under budget {target_fraction} of {len(unlabeled)} unlabeled"
    else:
        c_note = f"c: manual override {c!r}"
    assigned = int(np.count_nonzero(np.abs(votes) > c))
    return Calibration(
        params=SimilarityParams(d=d, c=c, provenance=f"{d_note}; {c_note}"),
        distribution=distribution,
        assigned=assigned,
        matched_fraction=assigned / len(unlabeled),
    )


def _top_rows(sims: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The `width` largest entries of each column of `sims`, ties in row order, as (columns, width) rows and values.

    Exactly `np.argsort(-sims, axis=0, kind="stable")[:width]` without sorting
    every row: np.partition finds each column's width-th largest value (the
    cut) and the rows at or above it are kept. Where more rows tie at the cut
    than fit, the rows above it are kept, then the first tied rows in row
    order (a cumsum of the tie mask) until there are `width`. Only the kept
    rows are then stable-sorted by descending value.
    """
    if len(sims) <= width:
        order = np.argsort(-sims, axis=0, kind="stable").T
        return order, np.take_along_axis(sims.T, order, axis=1)
    cut = np.partition(sims, len(sims) - width, axis=0)[len(sims) - width]
    keep = sims >= cut
    crowded = np.flatnonzero(np.count_nonzero(keep, axis=0) > width)
    part, at = sims[:, crowded], cut[crowded]
    above, tied = part > at, part == at
    keep[:, crowded] = above | tied & (np.cumsum(tied, axis=0) <= width - np.count_nonzero(above, axis=0))
    rows = np.nonzero(keep.T)[1].reshape(-1, width)
    values = np.take_along_axis(sims.T, rows, axis=1)
    order = np.argsort(-values, axis=1, kind="stable")
    return np.take_along_axis(rows, order, axis=1), np.take_along_axis(values, order, axis=1)


def match_batch(
    unlabeled: Dataset,
    labeled: Dataset,
    ranges: RangeTable,
    params: SimilarityParams,
) -> Matches:
    """Estimate the label of every unlabeled row and impute its missing features, in input order.

    An unmatched sample (no labeled row above d) is a valid abstention, not an
    error. Imputation runs only for confident estimates and averages each
    estimation-only feature over the matched contributors that carry it,
    weighted by similarity. Top contributors are the matched rows by
    descending similarity, ties in labeled order.
    """
    if unlabeled.schema != labeled.schema:
        raise MatcherError("unlabeled and labeled datasets must share a schema")
    labels = _labels(labeled)
    estimation = labeled.schema.estimation_features
    values = feature_matrix(labeled.rows, estimation)
    carried = ~np.isnan(values)
    n, width = len(unlabeled), min(TOP_CONTRIBUTORS_CAP, len(labeled))
    votes, estimates, matched = np.empty(n), np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    imputed = np.empty((n, len(estimation)))
    top, top_sims = np.empty((n, width), dtype=np.intp), np.empty((n, width))
    for block, sims in _labeled_blocks(unlabeled, labeled, ranges):
        rows, cols = np.nonzero(sims > params.d)
        weights, size = sims[rows, cols], sims.shape[1]
        votes[block] = _weighted_means(cols, weights, labels[rows], size)
        estimates[block] = np.where(votes[block] > params.c, 1, np.where(votes[block] < -params.c, -1, 0))
        matched[block] = np.bincount(cols, minlength=size)
        confident = np.flatnonzero(estimates[block][cols])  # the entries of confident columns
        for g in range(len(estimation)):
            e = confident[carried[rows[confident], g]]
            imputed[block, g] = _weighted_means(cols[e], weights[e], values[rows[e], g], size)
        top[block], top_sims[block] = _top_rows(sims, width)
    contributor = np.arange(width) < matched[:, None]
    return Matches(
        ids=unlabeled.ids(),
        votes=votes,
        estimates=estimates,
        matched=matched,
        imputed=imputed,
        top_ids=np.where(contributor, np.array(labeled.ids(), dtype=object)[top], None),
        top_sims=np.where(contributor, top_sims, np.nan),
    )


def matches_to_csv_text(matches: Matches, estimation_features: Sequence[str]) -> Iterator[str]:
    """Match output, as `dataset.csv_chunks`: id, t, y_hat, matched_count, then imputed columns."""
    table = np.empty((len(matches), 4 + len(estimation_features)), dtype=object)
    table[:, 0] = matches.ids
    table[:, 1] = np.where(np.isnan(matches.votes), None, matches.votes)  # builtin floats, None for NaN
    table[:, 2] = matches.estimates
    table[:, 3] = matches.matched
    table[:, 4:] = np.where(np.isnan(matches.imputed), None, matches.imputed)
    return csv_chunks(["id", "t", "y_hat", "matched_count", *estimation_features], table.tolist())


def _cell(name: str, text: str, kind: type = float):
    """A match-file cell by `number`, an empty float cell as NaN; a refusal names the column."""
    try:
        return number(text, kind) if text or kind is int else math.nan
    except ValueError as err:
        raise ValueError(f"{name}: {err}") from err


def load_matches(path: str | Path, estimation_features: Sequence[str]) -> Matches:
    """Read a match CSV back, empty cells as NaN, without the contributors (they live in the sidecar).

    t must lie in [-1, 1], y_hat be -1, 0 or 1 with t's sign, matched_count a whole number >= 0,
    and a confident row's imputed values finite; an abstaining row's imputed cells are ignored.
    """
    expected = ["id", "t", "y_hat", "matched_count", *estimation_features]
    lines = read_csv(path, MatcherError, "match file")
    _, header = next(lines)
    if header != expected:
        raise MatcherError(f"{path}: unexpected header {header}, wanted {expected}")
    ids, table = [], []
    for row_num, cells in lines:
        if len(cells) != len(expected):
            raise MatcherError(f"{path}: row {row_num} has {len(cells)} columns")
        try:
            vote = _cell("t", cells[1])
            label, count = _cell("y_hat", cells[2], int), _cell("matched_count", cells[3], int)
            values = [_cell(name, text) for name, text in zip(estimation_features, cells[4:])] if label else []
            if cells[1] and not -1.0 <= vote <= 1.0:
                raise ValueError(f"t must be a number in [-1, 1], got {cells[1]!r}")
            if label not in (-1, 0, 1):
                raise ValueError(f"y_hat must be -1, 0 or 1, got {cells[2]!r}")
            if label and not label * vote > 0:
                raise ValueError(f"y_hat {label} needs a vote t of its sign, got {cells[1]!r}")
            if not 0 <= count <= 1 << 53:
                raise ValueError(f"matched_count must be a whole number in [0, 2**53], got {cells[3]!r}")
            bad = [name for name, text, value in zip(estimation_features, cells[4:], values)
                   if text and not math.isfinite(value)]
            if bad:
                raise ValueError(f"imputed {', '.join(bad)} of a confident row must be finite")
        except ValueError as err:
            raise MatcherError(f"{path}: row {row_num}: {err}") from err
        ids.append(cells[0])
        table.append([vote, label, count, *(values or [math.nan] * len(estimation_features))])
    table = np.array(table, dtype=np.float64).reshape(len(ids), len(expected) - 1)  # exact: counts <= 2**53
    return Matches(
        ids=ids,
        votes=table[:, 0],
        estimates=table[:, 1].astype(np.int64),
        matched=table[:, 2].astype(np.int64),
        imputed=table[:, 3:],
        top_ids=np.empty((len(ids), 0), dtype=object),
        top_sims=np.empty((len(ids), 0)),
    )


def contributors_to_json_dict(matches: Matches, rows: slice = slice(None)) -> dict:
    """Sidecar payload: unlabeled id -> [[labeled id, similarity], ...], for the unlabeled rows in `rows`.

    `contributors_to_json_chunks` takes one payload per block of rows, never one of every row.
    """
    counts = np.minimum(matches.matched[rows], matches.top_ids.shape[1]).tolist()
    entries = zip(matches.ids[rows], matches.top_ids[rows].tolist(), matches.top_sims[rows].tolist(), counts)
    return {uid: list(zip(lids[:k], sims[:k])) for uid, lids, sims, k in entries}


def contributors_to_json_chunks(matches: Matches) -> Iterator[str]:
    """`json.dumps(contributors_to_json_dict(matches)) + "\\n"`, `dataset.CHUNK_ROWS` unlabeled rows a chunk.

    Each chunk is the `json.dumps` of one `contributors_to_json_dict` block without its braces. A block is a
    fresh tree of lists, tuples, strings and floats, so `check_circular` could find nothing and is off.
    """
    step = dataset.CHUNK_ROWS
    for start in range(0, len(matches), step):
        block = json.dumps(contributors_to_json_dict(matches, slice(start, start + step)), check_circular=False)
        yield ("{" if start == 0 else ", ") + block[1:-1]
    yield "}\n" if len(matches) else "{}\n"


def load_params(path: str | Path) -> SimilarityParams:
    return read_json(path, MatcherError, "similarity params file", SimilarityParams.from_json_dict)
