"""Delimited-text datasets, schema validation, and time-holdout splitting.

Input files are UTF-8 comma-separated text with a single header row; one
leading byte-order mark, as Excel writes, is skipped. Column roles come from a
separate JSON config mapping column name to role. Missing cells are empty
strings (the schema is numeric-only, so this is unambiguous), labels are
strictly -1 or +1 integers, and timestamps are ISO-8601.

Two rules hold for every text file the program reads, and for flag and
config values: `number` refuses a numeric text holding "_" (Python's `float`
and `int` read "1_0" as 10), and `id_violation` refuses an empty id and an id
seen on an earlier row.

Every CSV file is read through `read_csv` and written through `csv_chunks`,
`CHUNK_ROWS` rows a chunk; the probes' CSVs, whose rows differ only in their
numbers, through `csv_template_chunks`, which renders one row template with
`csv_chunks` and fills it with `%` per row. Every JSON artifact is written
through `write_json`, except the `match` contributor sidecars, which
`matcher.contributors_to_json_chunks` writes as `json.dumps` of their payload,
without indent, a block of rows at a time. `atomic_write_chunks` writes a file
chunk by chunk, so no CSV artifact's text, and no sidecar's, is ever held whole
in memory.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import tempfile
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .errors import DataError, SchemaError, SimlabelError

if TYPE_CHECKING:
    import numpy as np

SOURCE_REAL = "real"
SOURCE_SIMILAR = "similar"

PROVENANCE_COLUMNS = ("source", "vote", "matched_count")

# rows per chunk of a streamed artifact, and per block of the probes' array
# work; read as `dataset.CHUNK_ROWS` at call time, never imported by value
CHUNK_ROWS = 4096


class Role(str, Enum):
    """What a column means to the pipeline.

    Similarity features are the ones compared between samples; estimation-only
    features exist in labeled data but are missing from unlabeled samples and
    get reconstructed for confident matches.
    """

    SIMILARITY = "similarity"
    ESTIMATION = "estimation-only"
    LABEL = "label"
    TIMESTAMP = "timestamp"
    ID = "id"


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered column declarations: (name, role) pairs.

    Exactly one label, one timestamp, and one id column are required, plus at
    least one similarity feature. All feature columns are numeric.
    """

    columns: tuple[tuple[str, Role], ...]

    def __post_init__(self):
        names = [name for name, _ in self.columns]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names in schema: {', '.join(dupes)}")
        for role in (Role.LABEL, Role.TIMESTAMP, Role.ID):
            count = sum(1 for _, r in self.columns if r is role)
            if count != 1:
                raise SchemaError(f"schema needs exactly one {role.value} column, found {count}")
        if not any(r is Role.SIMILARITY for _, r in self.columns):
            raise SchemaError("schema needs at least one similarity feature")

    def _names_for(self, role: Role) -> tuple[str, ...]:
        return tuple(name for name, r in self.columns if r is role)

    @property
    def similarity_features(self) -> tuple[str, ...]:
        return self._names_for(Role.SIMILARITY)

    @property
    def estimation_features(self) -> tuple[str, ...]:
        return self._names_for(Role.ESTIMATION)

    @property
    def feature_columns(self) -> tuple[str, ...]:
        """All numeric feature columns, similarity first, in declaration order."""
        return tuple(
            name for name, r in self.columns if r in (Role.SIMILARITY, Role.ESTIMATION)
        )

    @property
    def label_column(self) -> str:
        return self._names_for(Role.LABEL)[0]

    @property
    def timestamp_column(self) -> str:
        return self._names_for(Role.TIMESTAMP)[0]

    @property
    def id_column(self) -> str:
        return self._names_for(Role.ID)[0]

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "FeatureSchema":
        columns = []
        bad = []
        for name, role_text in mapping.items():
            try:
                columns.append((name, Role(role_text)))
            except ValueError:
                bad.append(f"{name!r}: unknown role {role_text!r}")
        if bad:
            valid = ", ".join(r.value for r in Role)
            raise SchemaError(f"invalid roles ({'; '.join(bad)}); valid roles: {valid}")
        return cls(tuple(columns))

    def to_mapping(self) -> dict[str, str]:
        return {name: role.value for name, role in self.columns}


def read_json(path: str | Path, error: type[SimlabelError], what: str, build: Callable | None = None):
    """Parse a UTF-8 JSON file, one leading byte-order mark skipped, then `build` an object from it if given.

    A missing, unreadable or unparseable file, or an `error` from `build`, raises `error` naming the file.
    """
    path = Path(path)
    if not path.exists():
        raise error(f"{what} not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8-sig"))
    except OSError as err:  # a directory, or no permission to read
        raise error(f"{what} {path} is not readable: {err}") from err
    except (ValueError, RecursionError) as err:  # JSONDecodeError, bytes that are not UTF-8, or deep nesting
        raise error(f"{what} {path} is not valid JSON: {err}") from err
    if build is None:
        return payload
    try:
        return build(payload)
    except error as err:
        raise error(f"{what} {path}: {err}") from err


def json_number(value, what: str) -> float:
    """A number in a JSON artifact: an int or a float, never a bool or a string.

    Raises TypeError or ValueError, which each `build` for `read_json` turns
    into its own error; JSON's true is not the number 1.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as err:  # an integer past the float range
        raise ValueError(f"{what} is out of range: {value}") from err


def json_count(value, what: str) -> int:
    """A count in a JSON artifact: a whole number >= 0; a fraction is refused, not truncated."""
    if not (json_number(value, what).is_integer() and value >= 0):
        raise ValueError(f"{what} must be a whole number >= 0, got {value!r}")
    return int(value)


def number(text, kind: type = float):
    """`kind(text)`; a string holding "_" is refused, which `float` and `int` read as digit grouping ("1_0" as 10)."""
    if isinstance(text, str) and "_" in text:
        raise ValueError(f"digit grouping '_' is not a number: {text!r}")
    return kind(text)


def id_violation(sample_id: str, row_num: int, seen: dict[str, int]) -> str | None:
    """Row `row_num`'s violation if its id is empty or in `seen` (id -> first row), else None; a new id joins `seen`."""
    if not sample_id:
        return f"row {row_num}: empty id"
    if sample_id in seen:
        return f"row {row_num}: duplicate id {sample_id!r} (first seen on row {seen[sample_id]})"
    seen[sample_id] = row_num


def csv_chunks(header: Sequence[str], rows: Iterable[Sequence]) -> Iterator[str]:
    """The CSV artifact format, `CHUNK_ROWS` rows a chunk: one header row, then the rows, each ending in "\\n".

    The header opens the first chunk, and no rows still give that one chunk.
    Cells are strings, ints, builtin floats or None. csv.writer writes a float
    as its shortest repr, which reloads to the same float, and None as an
    empty cell; a numpy scalar must be converted with float() or .tolist().
    A carriage return in a cell raises DataError when its chunk is made:
    csv.writer does not quote it under a "\n" line terminator, and the file
    would read back split there.
    """
    rows = iter(rows)
    chunk = [header, *itertools.islice(rows, CHUNK_ROWS)]
    while chunk:
        buf = io.StringIO()  # a fresh one per chunk: truncating one to reuse it costs more memory
        csv.writer(buf, lineterminator="\n").writerows(chunk)
        text = buf.getvalue()
        if "\r" in text:
            raise DataError("a CSV cell holds a carriage return, which the artifact format cannot write")
        yield text
        chunk = list(itertools.islice(rows, CHUNK_ROWS))


def csv_template_chunks(header: Sequence[str], template: Sequence, rows: Iterable[Sequence]) -> Iterator[str]:
    """`csv_chunks` of rows that share one line: `template` filled with `%` from each row, `CHUNK_ROWS` a chunk.

    The header and the template are each written by `csv_chunks`, so they are
    quoted, and a carriage return refused, as every CSV cell is. A text cell
    of the template may hold `%` fields, `%%` for a literal %, and each row
    gives the values of the line's fields in order. A field must be text that
    csv.writer leaves unquoted: `%r` of a builtin float is the text csv.writer
    writes for it, and `%d` of an int likewise.
    """
    head, line = next(csv_chunks(header, ())), next(csv_chunks(template, ()))
    lines = map(line.__mod__, map(tuple, rows))
    chunk = head + "".join(itertools.islice(lines, CHUNK_ROWS))
    while chunk:
        yield chunk
        chunk = "".join(itertools.islice(lines, CHUNK_ROWS))


def read_csv(path: str | Path, error: type[SimlabelError], what: str) -> Iterator[tuple[int, list[str]]]:
    """Stream a UTF-8 CSV file as (0, header), then (n, cells) for data row n = 1, 2, ...

    One leading byte-order mark is skipped. A missing, unreadable or empty file,
    bytes that are not UTF-8, or text the csv module rejects raise `error` naming the file.
    """
    path = Path(path)
    if not path.exists():
        raise error(f"{what} not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise error(f"{path}: file is empty, expected a header row")
            yield 0, header
            yield from enumerate(reader, start=1)
    except OSError as err:
        raise error(f"{what} {path} is not readable: {err}") from err
    except (UnicodeDecodeError, csv.Error) as err:
        raise error(f"{what} {path} is not valid UTF-8 CSV: {err}") from err


def load_schema(path: str | Path) -> FeatureSchema:
    """Read a schema config: a JSON object mapping column name to role."""
    mapping = read_json(path, SchemaError, "schema file")
    if not isinstance(mapping, dict) or not all(isinstance(v, str) for v in mapping.values()):
        raise SchemaError(f"schema file {path} must map column names to role strings")
    return FeatureSchema.from_mapping(mapping)


@dataclass(slots=True)
class Sample:
    """One row. Missing feature cells are simply absent from `features`.

    Slotted, not frozen: a frozen one sets each field through `object.__setattr__`,
    which tripled the cost of the row `load_dataset` builds per line. Nothing
    reassigns a field; `dataclasses.replace` derives a changed row.

    `source`, `vote`, and `matched_count` are row provenance used by merged
    and similar datasets; plain loaded rows are "real" with no vote.
    """

    id: str
    timestamp: datetime
    features: dict[str, float]
    label: int | None = None
    source: str = SOURCE_REAL
    vote: float | None = None
    matched_count: int | None = None


@dataclass
class Dataset:
    """Ordered, schema-conforming rows with unique ids.

    `provenance` is the file the dataset was loaded from, empty for a derived one.
    """

    schema: FeatureSchema
    rows: list[Sample]
    provenance: str = ""

    def __len__(self) -> int:
        return len(self.rows)

    def ids(self) -> list[str]:
        return [row.id for row in self.rows]

    def by_id(self) -> dict[str, Sample]:
        return {row.id: row for row in self.rows}


def feature_matrix(rows: Sequence[Sample], names: Sequence[str]) -> np.ndarray:
    """The named features of each row as a float64 array, NaN where a cell is missing."""
    import numpy as np  # the module's only numpy user; loading and writing CSV never need it

    nans = itertools.repeat(math.nan)
    cells = itertools.chain.from_iterable(map(row.features.get, names, nans) for row in rows)
    return np.fromiter(cells, np.float64, len(rows) * len(names)).reshape(len(rows), len(names))


def load_dataset(
    path: str | Path,
    schema: FeatureSchema,
    strict_labeled: bool = True,
) -> Dataset:
    """Parse a CSV file against the schema.

    Every violation is collected and reported together, each naming its data
    row (1-based, header excluded); a row is kept only if it adds none.
    `strict_labeled=False` skips the check that labeled rows carry all
    similarity features; merged and similar datasets may lack some.
    """
    lines = read_csv(path, DataError, "dataset file")
    _, header = next(lines)
    missing_cols = [name for name, _ in schema.columns if name not in header]
    if missing_cols:
        raise DataError(
            f"{path}: header is missing schema columns: {', '.join(missing_cols)}"
        )
    repeated = [name for name, _ in schema.columns if header.count(name) > 1]
    if repeated:
        raise DataError(f"{path}: header names schema column(s) more than once: {', '.join(repeated)}")
    id_at, ts_at, label_at = (
        header.index(name) for name in (schema.id_column, schema.timestamp_column, schema.label_column)
    )
    feature_at = [(name, header.index(name)) for name in schema.feature_columns]
    sim_features = schema.similarity_features

    rows: list[Sample] = []
    violations: list[str] = []
    seen_ids: dict[str, int] = {}
    first_aware: tuple[int, bool] | None = None  # (row, whether its timestamp has an offset)
    for row_num, cells in lines:
        if len(cells) != len(header):
            violations.append(
                f"row {row_num}: expected {len(header)} columns, found {len(cells)}"
            )
            continue

        found = len(violations)
        sample_id = cells[id_at].strip()
        if problem := id_violation(sample_id, row_num, seen_ids):
            violations.append(problem)

        timestamp = None
        ts_text = cells[ts_at].strip()
        try:
            timestamp = datetime.fromisoformat(ts_text)
        except ValueError:
            violations.append(
                f"row {row_num}: timestamp {ts_text!r} is not ISO-8601"
            )
        else:
            # naive and offset-aware datetimes cannot be ordered against each other
            aware = timestamp.tzinfo is not None
            first_aware = first_aware or (row_num, aware)
            if aware != first_aware[1]:
                kind = "offset-aware" if aware else "naive"
                violations.append(f"row {row_num}: timestamp {ts_text!r} is {kind}, unlike row {first_aware[0]}'s")

        label: int | None = None
        label_text = cells[label_at].strip()
        if label_text:
            try:
                label = number(label_text, int)
            except ValueError:
                label = None
            if label not in (-1, 1):
                violations.append(
                    f"row {row_num}: label must be -1 or +1, got {label_text!r}"
                )

        features: dict[str, float] = {}
        for name, at in feature_at:
            text = cells[at].strip()
            if not text:
                continue
            try:  # `number`'s rule inline: a call per cell would slow the program's hottest loop
                value = float(text) if "_" not in text else math.nan
            except ValueError:
                value = math.nan
            if math.isfinite(value):
                features[name] = value
            else:
                violations.append(
                    f"row {row_num}: column {name!r} is not a finite number: {text!r}"
                )

        if len(violations) == found and strict_labeled and label is not None:
            absent = [f for f in sim_features if f not in features]
            if absent:
                violations.append(
                    f"row {row_num}: labeled row missing similarity features: {', '.join(absent)}"
                )

        if len(violations) == found:
            rows.append(Sample(id=sample_id, timestamp=timestamp, features=features, label=label))

    if violations:
        shown = "; ".join(violations)
        raise DataError(f"{path}: {len(violations)} invalid rows: {shown}", violations)
    return Dataset(schema=schema, rows=rows, provenance=str(path))


def dataset_to_csv_text(data: Dataset, include_provenance: bool = False) -> Iterator[str]:
    """The dataset in schema column order, then the provenance columns if asked, as `csv_chunks`."""
    rows, schema = data.rows, data.schema
    columns = {
        schema.id_column: [row.id for row in rows],
        schema.timestamp_column: [row.timestamp.isoformat() for row in rows],
        schema.label_column: [row.label for row in rows],
    } | {name: [row.features.get(name) for row in rows] for name in schema.feature_columns}
    header = [name for name, _ in schema.columns]
    cells = [columns[name] for name in header]
    if include_provenance:
        header += PROVENANCE_COLUMNS
        cells += [[row.source for row in rows], [row.vote for row in rows], [row.matched_count for row in rows]]
    return csv_chunks(header, zip(*cells))


def atomic_write_chunks(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the chunks in turn via a sibling temp file and rename, so readers never see partial output.

    An error while writing, or raised by the chunks themselves, leaves the
    target as it was and removes the temp file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """`atomic_write_chunks` of the one text."""
    atomic_write_chunks(path, (text,))


def write_json(path: str | Path, payload) -> None:
    """The JSON artifact format: two-space indent, trailing newline, written atomically."""
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def write_dataset(data: Dataset, path: str | Path, include_provenance: bool = False) -> None:
    atomic_write_chunks(path, dataset_to_csv_text(data, include_provenance=include_provenance))


def time_holdout_split(data: Dataset, test_fraction: float) -> tuple[Dataset, Dataset]:
    """Split at a holdout date so training never sees rows at or after it.

    The holdout date H is the timestamp of the k-th most recent row, where
    k = ceil(test_fraction * N): the latest H with at least k rows at or after
    it. Rows sharing the boundary timestamp all land in test, so the test side
    may exceed the exact fraction but never leaks into train.
    """
    if not 0.0 <= test_fraction <= 1.0:
        raise ValueError(f"test_fraction must be in [0, 1], got {test_fraction}")
    if not data.rows:
        raise DataError("cannot split an empty dataset")

    # round() undoes binary representation error in decimal fractions
    # (e.g. 0.07 * 100 is slightly above 7.0) before the ceiling is taken
    target = math.ceil(round(test_fraction * len(data.rows), 9))
    if target == 0:
        return Dataset(data.schema, list(data.rows)), Dataset(data.schema, [])

    holdout = sorted((row.timestamp for row in data.rows), reverse=True)[target - 1]
    return (Dataset(data.schema, [row for row in data.rows if row.timestamp < holdout]),
            Dataset(data.schema, [row for row in data.rows if row.timestamp >= holdout]))
