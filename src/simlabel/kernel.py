"""Feature ranges and the Gower general similarity coefficient.

Similarity between two samples is the mean, over the similarity features
present in both, of per-feature scores 1 - |a_k - b_k| / r_k, where r_k is
the max-minus-min spread of feature k pooled over the reference datasets.
Per-feature scores are clamped into [0, 1] (synthetic probe values can land
outside the frozen spread), a zero-spread feature scores 1 on exact equality
and 0 otherwise, and features missing in either sample drop out of both the
sum and the divisor. A range table is computed once per run and frozen, so
every comparison uses the same normalizers.

similarity_block is the one implementation of the coefficient: every pair
of two row blocks. similarity_blocks runs it over a row set in blocks of at
most BLOCK_PAIRS pairs, a size only this module sets, and raises on the
first pair where it is undefined; gower_similarity is one pair of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .dataset import Dataset, FeatureSchema, Sample, feature_matrix, json_number, read_json
from .errors import KernelError

if TYPE_CHECKING:  # annotations only: `ranges` computes with builtins and never loads numpy
    import numpy as np

# similarities per block: each float64 array over a block takes 512 KiB, so similarity_block's total, score and count
# arrays fit a 2 MiB L2 together; the fastest one-thread size of 2**15 to 2**18 on bench's `mine` (500 x 4,000)
BLOCK_PAIRS = 1 << 16


@dataclass(frozen=True)
class RangeTable:
    """Frozen per-feature spreads, plus the observed bounds they came from.

    `ranges` maps each similarity feature to its spread r_k >= 0. `bounds`
    keeps the observed (min, max) pair; probes use it to clamp synthetic
    values back into the seen region. Iteration order is schema order and is
    part of the contract: similarity sums follow it deterministically.
    """

    ranges: dict[str, float]
    bounds: dict[str, tuple[float, float]]
    source: str = ""

    def __post_init__(self):
        for name, value in self.ranges.items():
            if not value >= 0:
                raise KernelError(f"range for {name!r} is negative or NaN: {value}")
            if name not in self.bounds:
                raise KernelError(f"no observed bounds for feature {name!r}")
        for name, (lo, hi) in self.bounds.items():
            if not lo <= hi:
                raise KernelError(f"bounds for {name!r} are inverted or NaN: ({lo}, {hi})")

    def features(self) -> tuple[str, ...]:
        return tuple(self.ranges)

    def to_json_dict(self) -> dict:
        return {
            "ranges": {name: float(value) for name, value in self.ranges.items()},
            "bounds": {name: [float(lo), float(hi)] for name, (lo, hi) in self.bounds.items()},
            "source": self.source,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "RangeTable":
        def bound_pair(name, value) -> tuple[float, float]:
            if not isinstance(value, list) or len(value) != 2:
                raise ValueError(f"bounds of {name!r} must be a list of two numbers, got {value!r}")
            return json_number(value[0], f"bounds of {name!r}"), json_number(value[1], f"bounds of {name!r}")

        try:
            ranges = {str(k): json_number(v, f"range of {k!r}") for k, v in payload["ranges"].items()}
            bounds = {str(k): bound_pair(k, v) for k, v in payload["bounds"].items()}
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise KernelError(f"malformed range table payload: {err}") from err
        return cls(ranges=ranges, bounds=bounds, source=str(payload.get("source", "")))


def load_range_table(path: str | Path, schema: FeatureSchema | None = None) -> RangeTable:
    """Read a range table; given a schema, its features must be the similarity features, in order."""
    table = read_json(path, KernelError, "range table file", RangeTable.from_json_dict)
    if schema and table.features() != schema.similarity_features:
        missing = [name for name in schema.similarity_features if name not in table.ranges]
        extra = [name for name in table.ranges if name not in schema.similarity_features]
        raise KernelError(f"range table file {path} does not hold the schema's similarity features "
                          f"{list(schema.similarity_features)} in order: missing {missing}, extra {extra}")
    return table


def compute_ranges(
    sources: Dataset | Iterable[Dataset],
    schema: FeatureSchema,
) -> RangeTable:
    """Pool every non-missing value of each similarity feature and take max - min.

    Pooling across all given datasets (labeled and unlabeled alike) keeps both
    populations comparable under one metric. A feature with no value anywhere
    is an error; a constant feature gets range 0.
    """
    if isinstance(sources, Dataset):
        sources = [sources]
    sources = list(sources)
    if not sources:
        raise KernelError("compute_ranges needs at least one source dataset")

    # each feature's present values in row order; NaN can only come from a hand-built Sample
    features = [row.features for data in sources for row in data.rows]
    columns = {name: [v for f in features if (v := f.get(name)) is not None and v == v]
               for name in schema.similarity_features}
    missing = [name for name, values in columns.items() if not values]
    if missing:
        raise KernelError(
            f"features with no observed values in any source: {', '.join(missing)}"
        )

    # min and max keep the first extreme value in row order, so of 0.0 and -0.0 the one seen first
    bounds = {name: (float(min(values)), float(max(values))) for name, values in columns.items()}
    ranges = {name: hi - lo for name, (lo, hi) in bounds.items()}
    total_rows = sum(len(d) for d in sources)
    labels = [Path(d.provenance).name or "<unnamed>" for d in sources]  # the same bytes wherever the inputs live
    source = f"pooled over {len(sources)} dataset(s), {total_rows} rows: {'; '.join(labels)}"
    return RangeTable(ranges=ranges, bounds=bounds, source=source)


def gower_similarity(a: Sample, b: Sample, ranges: RangeTable) -> float:
    """The Gower similarity of two samples: one pair of similarity_blocks, which raises where it is undefined."""
    names = ranges.features()
    ((_, sims),) = similarity_blocks([a], feature_matrix([a], names), [b], feature_matrix([b], names), ranges)
    return float(sims[0, 0])


def similarity_block(left: np.ndarray, right: np.ndarray, ranges: RangeTable) -> np.ndarray:
    """Gower similarity of every left row to every right row, shape (len(left), len(right)).

    `left` and `right` are feature matrices whose columns follow the range
    table's feature order (`dataset.feature_matrix`), each cell finite or NaN
    for missing (`load_dataset` refuses infinite cells). For each pair, the
    scores of the features both rows carry are added one at a time, in that
    order, from 0.0, and the sum is divided by their count; a feature missing
    on either side adds to neither. A zero-spread feature scores 1 on exact
    equality and 0 otherwise, any other 1 - min(|a - b| / spread, 1). So an
    entry does not depend on the block it was computed in. A pair that shares
    no feature is NaN (0 / 0), and so is one whose difference overflows in a
    feature of infinite spread (inf / inf); similarity_blocks names both.

    The divisor, the number of features both rows carry, comes from the two
    missing-cell masks once per block: K minus each row's missing count, plus
    one for every feature missing on both sides. It is a whole number, so
    this order of additions is exact. A missing cell makes |a - b| NaN, which
    `fmin` turns into a score of exactly 0 for a finite spread; the sum gains
    0.0, as if the feature were skipped. An infinite spread keeps an explicit
    mask instead, because there an overflowed |a - b| gives inf / inf = NaN,
    which must stay NaN and `fmin` would hide. Each score goes
    through one reused buffer. Each feature's right values are read from one
    contiguous run of a transposed copy of `right`, made once per call, since
    a column of `right` itself is strided by K floats; any memory layout of
    either matrix gives the same bits. Nothing runs through BLAS (`@`,
    `dot`, `einsum`): a threaded BLAS call on these small shapes can cost far
    more than the elementwise passes it would replace.
    """
    import numpy as np
    columns = np.ascontiguousarray(right.T)  # row k: feature k of every right row, in one run
    missing_left, missing_right = np.isnan(left), np.isnan(columns)
    count = ((len(ranges.ranges) - np.count_nonzero(missing_left, axis=1))[:, None]
             - np.count_nonzero(missing_right, axis=0).astype(np.float64))
    for k in np.flatnonzero(missing_left.any(axis=0) & missing_right.any(axis=1)):
        count += missing_left[:, k, None] & missing_right[k]
    total = np.zeros(count.shape)
    score = np.empty(count.shape)
    equal = np.empty(count.shape, dtype=bool)
    # a difference over a tiny spread overflows to inf and clamps to 1; a pair
    # with no shared feature is 0 / 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k, spread in enumerate(ranges.ranges.values()):
            a = left[:, k, None]
            b = columns[k]
            if spread == 0.0:
                total += np.equal(a, b, out=equal)
            elif np.isinf(spread):
                present = ~np.isnan(a) & ~np.isnan(b)
                total += np.where(present, 1.0 - np.minimum(np.abs(a - b) / spread, 1.0), 0.0)
            else:
                np.subtract(a, b, out=score)
                np.abs(score, out=score)
                np.divide(score, spread, out=score)
                np.fmin(score, 1.0, out=score)
                total += np.subtract(1.0, score, out=score)
        return np.divide(total, count, out=total)


def similarity_blocks(
    left_rows: Sequence[Sample], left: np.ndarray, right_rows: Sequence[Sample], right: np.ndarray,
    ranges: RangeTable,
) -> Iterator[tuple[slice, np.ndarray]]:
    """Runs of right rows, in order, as slices with their similarity_block to every left row.

    `left` and `right` are the rows' feature matrices in range-table order.
    The similarities have left rows on axis 0; a block holds at most
    BLOCK_PAIRS of them, or one right row's when the left rows alone are more.
    The first NaN pair, in right-row order, raises: it shares no feature, or
    its difference in a feature of infinite spread overflows.
    """
    import numpy as np
    step = max(1, BLOCK_PAIRS // max(1, len(left)))
    for start in range(0, len(right), step):
        block = slice(start, start + step)
        sims = similarity_block(left, right[block], ranges)
        if np.isnan(sims).any():
            j, i = np.argwhere(np.isnan(sims.T))[0]
            pair = f"samples {left_rows[i].id!r} and {right_rows[start + j].id!r}"
            with np.errstate(over="ignore"):  # a missing cell makes the difference NaN, not inf
                k = np.flatnonzero(np.isinf(left[i] - right[start + j]) & np.isinf(list(ranges.ranges.values())))
            raise KernelError(f"{pair}: their difference in feature {ranges.features()[k[0]]!r} overflows the "
                              "float range" if k.size else f"{pair} share no similarity feature values")
        yield block, sims
