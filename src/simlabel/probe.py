"""Interpretability probes: probability grids, similarity shells, recourse.

A probability grid sweeps two features over a rectangle while holding the
rest of the sample fixed, recording the model score at every point. A
similarity shell draws random perturbations of selected features that stay
within a fixed Gower similarity of the base sample; scanning the shell for
points the model classifies differently answers whether recourse exists
within that similarity, and the closest such point doubles as a candidate
action list.

A shell is one `Shell` of arrays: a row of values and a similarity per draw.
The grid and `score_shell` score with a `LinearModel` (any other scorer raises
`ProbeError`), and `recourse_probe` reads the scores `score_shell` attaches.

Shell generation splits the total divergence budget (feature count times
1 - d) across the varied features with uniform random simplex weights, moves
each feature by its share of the budget in a random direction, and clamps to
the observed feature bounds. Every emitted sample is re-verified against the
kernel; a draw that fails the constraint is rejected and redrawn. The random
words come from a counter-based stream: attempt a of sample i is a hash of
(seed, i, a), so sample i depends on (seed, i) only, never on how many
samples are drawn. The draws are made a block of `dataset.CHUNK_ROWS` indices
at a time, and checked in rounds, one array of the block's still-pending
samples per round. The scores of grid points and shell draws are computed in
blocks of as many rows, and the grid and shell CSVs come back as chunks of as
many rows, so a probe's temporaries stay the same size however many points
it has. Each of the two CSVs is one row template, rendered by `csv.writer`
once and filled with `%` per row (`dataset.csv_template_chunks`): `%r` of a
builtin float is the text `csv.writer` writes for it, so no cell pays the
writer's cost.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from itertools import chain, repeat
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import dataset
from .dataset import Sample, csv_template_chunks, feature_matrix, write_json
from .errors import ProbeError
from .evaluation import classify
from .kernel import RangeTable, similarity_block
from .model import LinearModel

MAX_SHELL_ATTEMPTS = 64
_SHELL_ID = "-shell-%05d"  # follows the base id; the field is the draw index


def _linear(model) -> LinearModel:
    if not isinstance(model, LinearModel):
        raise ProbeError(f"cannot score with object of type {type(model).__name__}")
    return model


@dataclass(frozen=True, eq=False)
class ProbeGrid:
    """Model scores over a two-feature rectangle, other features held at the base."""

    sample_id: str
    feature_x: str
    feature_y: str
    x_values: tuple[float, ...]
    y_values: tuple[float, ...]
    probabilities: np.ndarray  # shape (len(x_values), len(y_values))

    def to_csv_text(self) -> Iterator[str]:
        """The grid as `dataset.csv_template_chunks`: a row per point, x-major, the scores read one x value at a time."""
        # each axis value is formatted once, with the str() that csv.writer applies
        xs, ys = [str(x) for x in self.x_values], [str(y) for y in self.y_values]
        rows = (zip(repeat(x), ys, self.probabilities[i].tolist()) for i, x in enumerate(xs))
        return csv_template_chunks([self.feature_x, self.feature_y, "score"], ["%s", "%s", "%r"],
                                   chain.from_iterable(rows))


def probability_grid(
    model: LinearModel,
    base: Sample,
    fx: str,
    fy: str,
    x_axis: tuple[float, float, int],
    y_axis: tuple[float, float, int],
) -> ProbeGrid:
    """Evaluate the model on every (fx, fy) grid point around the base sample.

    Axes are (low, high, count) with values evenly spaced. The points are
    one feature matrix: the base row repeated, with x varying slowest. Every
    cell scores identically to scoring that point as a sample, because both
    go through `LinearModel.score_matrix`.
    """
    if fx == fy:
        raise ProbeError("grid features must differ")
    model = _linear(model)
    for feature in (fx, fy):
        if feature not in model.weights:
            raise ProbeError(f"feature {feature!r} not in model")
    missing = [f for f in model.features if f not in base.features]
    if missing:
        raise ProbeError(
            f"base sample {base.id!r} missing model features: {', '.join(missing)}"
        )

    def axis(spec: tuple[float, float, int], name: str) -> tuple[float, ...]:
        lo, hi, count = spec
        if count < 1:
            raise ProbeError(f"{name} axis needs at least one point")
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # a span past the float range
                values = np.linspace(lo, hi, int(count))
        except ValueError as err:  # numpy refuses a count past its index range before allocating
            raise ProbeError(f"{name} axis cannot have {count} points: {err}") from err
        if not np.isfinite(values).all():
            raise ProbeError(f"{name} axis from {lo} to {hi} has values that are not finite")
        return tuple(values.tolist())

    x_values = axis(x_axis, "x")
    y_values = axis(y_axis, "y")
    nx, ny = len(x_values), len(y_values)

    points = np.column_stack([np.repeat(x_values, ny), np.tile(y_values, nx)])
    return ProbeGrid(
        sample_id=base.id,
        feature_x=fx,
        feature_y=fy,
        x_values=x_values,
        y_values=y_values,
        probabilities=_score_points(model, base, (fx, fy), points).reshape(nx, ny),
    )


def _score_points(model: LinearModel, base: Sample, columns: Sequence[str], values: np.ndarray) -> np.ndarray:
    """Scores of the base with `columns` set to each row of values; missing cells get train means.

    The points are built and scored `dataset.CHUNK_ROWS` rows at a time;
    `score_matrix` scores each row on its own, so the blocks do not change a bit.
    """
    base_row = feature_matrix([base], model.features)
    at = [(j, model.features.index(name)) for j, name in enumerate(columns) if name in model.weights]
    scores = np.empty(len(values))
    step = dataset.CHUNK_ROWS
    for start in range(0, len(values), step):
        block = values[start:start + step]
        points = np.repeat(base_row, len(block), axis=0)
        for j, column in at:
            points[:, column] = block[:, j]
        scores[start:start + step] = model.score_matrix(points)
    return scores


@dataclass(frozen=True, eq=False)
class Shell:
    """Draws around one base sample, each within the similarity floor.

    Draw i is the base with the `vary` features set to `values[i]`, at
    similarity `similarity[i]`, with id `ids()[i]`. `score_shell` fills in
    the scores and which draws the threshold classifies unlike the base.
    """

    base: Sample
    vary: tuple[str, ...]
    values: np.ndarray  # shape (n, len(vary))
    similarity: np.ndarray  # shape (n,)
    base_score: float | None = None
    scores: np.ndarray | None = None  # shape (n,)
    crossed: np.ndarray | None = None  # shape (n,), bool
    class_threshold: float | None = None

    def __len__(self) -> int:
        return len(self.similarity)

    def ids(self) -> list[str]:
        return [self.base.id + _SHELL_ID % i for i in range(len(self))]


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser, elementwise on uint64 (products wrap mod 2**64)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _streams(seed: int, indices: np.ndarray) -> np.ndarray:
    """One 64-bit stream state per sample index, a hash of (seed, index).

    Every 64-bit word of the seed is folded into the key, so any seed >= 0 is
    valid and none is truncated.
    """
    key = np.zeros(1, dtype=np.uint64)
    for shift in range(0, max(seed.bit_length(), 1), 64):
        key = _mix((key + _GAMMA) ^ np.uint64((seed >> shift) & 0xFFFFFFFFFFFFFFFF))
    return _mix(key + (indices + np.uint64(1)) * _GAMMA)


def _words(streams: np.ndarray, first: int, count: int) -> np.ndarray:
    """Words first .. first + count - 1 of each stream's SplitMix64 sequence, one row per stream."""
    counters = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    return _mix(streams[:, None] + counters[None, :] * _GAMMA)


def similarity_shell(
    base: Sample,
    vary: Sequence[str],
    ranges: RangeTable,
    d: float,
    n: int,
    seed: int,
) -> Shell:
    """Draw n perturbations of the vary features with Gower similarity >= d to base.

    Sample i is a function of (seed, i) only: attempt a of k varied features
    reads words 2ka .. 2ka + 2k - 1 of a SplitMix64 sequence started from a
    hash of (seed, i), k shares and then k signs. The shares are normalised
    -log(u) with u strictly inside (0, 1), which is Dirichlet(1, ..., 1).
    The indices are drawn in blocks of `dataset.CHUNK_ROWS`, lowest first.
    Each round draws every pending sample of the block as one array, clamps
    it, checks it with one `similarity_block` call and redraws the rejected
    samples with the next attempt. Rounding can put a draw a hair below d,
    and with one varied feature every attempt lands on one of the same two
    points, so attempt a moves by the fraction 1 - 2**(a + 1 - MAX_SHELL_ATTEMPTS)
    of the budget: all of it for the first ten attempts, none at the last. A
    sample the kernel still rejects then raises ProbeError naming the lowest
    such index.
    """
    if not vary:
        raise ProbeError("similarity_shell needs a non-empty vary set")
    repeated = list(dict.fromkeys(f for f in vary if vary.count(f) > 1))
    if repeated:
        raise ProbeError(f"vary features named more than once: {', '.join(repeated)}")
    unknown = [f for f in vary if f not in ranges.ranges]
    if unknown:
        raise ProbeError(f"vary features not in the range table: {', '.join(unknown)}")
    absent = [f for f in vary if f not in base.features]
    if absent:
        raise ProbeError(
            f"vary features missing from base sample {base.id!r}: {', '.join(absent)}"
        )
    if not 0.0 <= d <= 1.0:
        raise ProbeError(f"similarity floor d must be in [0, 1], got {d}")
    if n < 1 or seed < 0:
        raise ProbeError(f"similarity_shell needs n >= 1 and seed >= 0, got n={n}, seed={seed}")

    names = ranges.features()
    base_row = feature_matrix([base], names)
    columns = [names.index(f) for f in vary]
    k = len(vary)
    budget = np.count_nonzero(~np.isnan(base_row)) * (1.0 - d)
    step = budget * np.array([ranges.ranges[f] for f in vary], dtype=np.float64)
    lows = np.array([ranges.bounds[f][0] for f in vary], dtype=np.float64)
    highs = np.array([ranges.bounds[f][1] for f in vary], dtype=np.float64)

    try:
        values, similarity = np.empty((n, k)), np.empty(n)
    except ValueError as err:  # numpy refuses a count past its index range before allocating
        raise ProbeError(f"cannot draw {n} shell samples: {err}") from err
    block = dataset.CHUNK_ROWS
    for start in range(0, n, block):
        pending = np.arange(start, min(start + block, n), dtype=np.uint64)
        streams = _streams(seed, pending)
        for attempt in range(MAX_SHELL_ATTEMPTS):
            words = _words(streams, 2 * k * attempt, 2 * k)
            # u = (top 52 bits + 1/2) / 2**52 lies in [2**-53, 1 - 2**-53]; with 53 bits
            # the top word would round up to u = 1, a zero share total and a NaN value
            exponentials = -np.log(((words[:, :k] >> np.uint64(12)) + 0.5) * 2.0**-52)
            shares = exponentials / exponentials.sum(axis=1, keepdims=True)
            signs = np.where(words[:, k:] >> np.uint64(63), 1.0, -1.0)
            # the full budget to the last bit for the first ten attempts, then ever
            # closer to the base, which the last attempt returns and which always passes
            aim = 1.0 - 2.0 ** (attempt + 1 - MAX_SHELL_ATTEMPTS)
            moved = base_row[0, columns] + signs * shares * (aim * step)
            trial = np.repeat(base_row, len(pending), axis=0)
            trial[:, columns] = np.clip(moved, lows, highs)
            sims = similarity_block(base_row, trial, ranges)[0]
            accepted = sims >= d
            values[pending[accepted]] = trial[accepted][:, columns]
            similarity[pending[accepted]] = sims[accepted]
            pending, streams = pending[~accepted], streams[~accepted]
            if not len(pending):
                break
        else:  # the earlier blocks all passed, so this is the lowest failing index
            raise ProbeError(
                f"could not draw a shell sample above similarity {d} after "
                f"{MAX_SHELL_ATTEMPTS} attempts (index {pending[0]})"
            )
    return Shell(base, tuple(vary), values, similarity)


def score_shell(model: LinearModel, shell: Shell, class_threshold: float = 0.5) -> Shell:
    """The shell with scores attached: the base's, every draw's, and which draws cross.

    The base is the first row of the one scored matrix. A tie at the
    threshold classifies as +1, as in `classify`.
    """
    model = _linear(model)
    base_values = [[shell.base.features[name] for name in shell.vary]]
    scores = _score_points(model, shell.base, shell.vary, np.vstack([base_values, shell.values]))
    base_score, scores = float(scores[0]), scores[1:]
    crossed = (scores >= class_threshold) != (base_score >= class_threshold)
    return replace(shell, base_score=base_score, scores=scores, crossed=crossed,
                   class_threshold=class_threshold)


def shell_to_csv_text(shell: Shell, feature_names: Sequence[str]) -> Iterator[str]:
    """Long-format shell output, as `dataset.csv_chunks`: coordinates, similarity, score, crossed flag.

    Join the chunks for the whole text, or hand them to `atomic_write_chunks`.
    A feature the base lacks and does not vary is an empty cell, and so are
    the score and the flag of an unscored shell. Every line fills one
    template (`dataset.csv_template_chunks`) that holds the base id and the
    fixed features; each draw gives its index, varied values, similarity
    and, once scored, score and flag, `dataset.CHUNK_ROWS` draws at a time.
    """
    at = {name: j for j, name in enumerate(shell.vary)}
    scored = shell.scores is not None
    template = [shell.base.id.replace("%", "%%") + _SHELL_ID,
                *("%r" if name in at else shell.base.features.get(name) for name in feature_names),
                "%r", *(("%r", "%d") if scored else (None, None))]
    varied = [at[name] for name in feature_names if name in at]

    def blocks():
        step = dataset.CHUNK_ROWS
        for start in range(0, len(shell), step):
            block = slice(start, start + step)
            similarity = shell.similarity[block, None]
            columns = [np.arange(start, start + len(similarity))[:, None], shell.values[block][:, varied], similarity]
            if scored:
                columns += [shell.scores[block, None], shell.crossed[block, None]]
            # one float array: %d writes the index and the flag as whole numbers
            yield np.hstack(columns).tolist()

    return csv_template_chunks(["id", *feature_names, "similarity", "score", "crossed"], template,
                               chain.from_iterable(blocks()))


@dataclass(frozen=True)
class RecourseReport:
    """Whether any shell sample flips the model's decision, and the cheapest one found.

    `max_score_rate` is the largest observed |score - base score| per unit of
    dissimilarity (1 - similarity) across the shell, a sensitivity diagnostic
    reported instead of asserting any fixed smoothness bound.
    """

    base_id: str
    base_score: float
    base_class: int
    class_threshold: float
    shell_size: int
    crossed_count: int
    recourse_found: bool
    best_id: str | None
    best_similarity: float | None
    best_score: float | None
    best_class: int | None
    deltas: dict[str, float] | None
    target_values: dict[str, float] | None
    max_score_rate: float | None
    message: str

    def to_json_dict(self) -> dict:
        return asdict(self)


def recourse_probe(shell: Shell) -> RecourseReport:
    """Scan a scored shell (see `score_shell`) for decision-boundary crossings.

    If a crossing exists, the one with the highest similarity to the base
    wins (a tie goes to the smallest id) and its per-feature deltas form the
    candidate recourse action list.
    """
    if shell.scores is None:
        raise ProbeError("recourse_probe needs a scored shell; call score_shell first")
    if not len(shell):
        raise ProbeError("recourse_probe needs a non-empty shell")
    base, base_score, threshold = shell.base, shell.base_score, shell.class_threshold
    similarity, scores = shell.similarity, shell.scores

    moved = similarity < 1.0
    rates = np.abs(scores[moved] - base_score) / (1.0 - similarity[moved])
    crossings = np.flatnonzero(shell.crossed)

    best = deltas = targets = None
    if not len(crossings):
        message = f"no recourse found within similarity >= {float(similarity.min())!r}"
    else:
        closest = crossings[similarity[crossings] == similarity[crossings].max()]
        # the smallest id; from index 100,000 on that is not the smallest index
        best = min(closest.tolist(), key=lambda i: base.id + _SHELL_ID % i)
        row = dict(zip(shell.vary, shell.values[best].tolist()))
        deltas = {name: row[name] - value for name, value in base.features.items()
                  if name in row and row[name] != value}
        targets = {name: row[name] for name in deltas}
        message = (
            f"recourse found: {len(crossings)} of {len(shell)} shell samples cross the "
            f"decision boundary; closest at similarity {float(similarity[best])!r}"
        )
    best_score = None if best is None else float(scores[best])
    return RecourseReport(
        base_id=base.id,
        base_score=base_score,
        base_class=classify(base_score, threshold),
        class_threshold=threshold,
        shell_size=len(shell),
        crossed_count=len(crossings),
        recourse_found=best is not None,
        best_id=None if best is None else base.id + _SHELL_ID % best,
        best_similarity=None if best is None else float(similarity[best]),
        best_score=best_score,
        best_class=None if best is None else classify(best_score, threshold),
        deltas=deltas,
        target_values=targets,
        max_score_rate=float(rates.max()) if len(rates) else None,
        message=message,
    )


def save_recourse_report(report: RecourseReport, path: str | Path, extra: dict | None = None) -> None:
    write_json(path, {**report.to_json_dict(), **(extra or {})})
