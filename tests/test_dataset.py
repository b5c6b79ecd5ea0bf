"""Dataset loading, validation, and time-holdout split tests."""

import json
import math
import os
import stat
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import simlabel.dataset
from conftest import T0, make_sample, make_schema, write_pipeline_fixture
from simlabel.dataset import (
    PROVENANCE_COLUMNS,
    SOURCE_REAL,
    SOURCE_SIMILAR,
    Dataset,
    FeatureSchema,
    Role,
    Sample,
    atomic_write_chunks,
    atomic_write_text,
    csv_chunks,
    csv_template_chunks,
    dataset_to_csv_text,
    feature_matrix,
    load_dataset,
    load_schema,
    number,
    read_csv,
    time_holdout_split,
    write_dataset,
    write_json,
)
from simlabel.cli import build_parser, load_config
from simlabel.errors import ConfigError, DataError, MatcherError, ModelError, SchemaError
from simlabel.matcher import load_matches
from simlabel.model import load_external_scores


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


SCHEMA = make_schema(2, 1)  # uid, ts, y, f0, f1, g0
HEADER = "uid,ts,y,f0,f1,g0\n"


class TestSchema:
    def test_roles_are_partitioned(self):
        assert SCHEMA.similarity_features == ("f0", "f1")
        assert SCHEMA.estimation_features == ("g0",)
        assert SCHEMA.label_column == "y"
        assert SCHEMA.timestamp_column == "ts"
        assert SCHEMA.id_column == "uid"

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            FeatureSchema(
                (("a", Role.ID), ("a", Role.LABEL), ("t", Role.TIMESTAMP), ("f", Role.SIMILARITY))
            )

    @pytest.mark.parametrize("missing", ["id", "label", "timestamp"])
    def test_exactly_one_of_each_special_column(self, missing):
        mapping = {"uid": "id", "ts": "timestamp", "y": "label", "f0": "similarity"}
        del mapping[{"id": "uid", "label": "y", "timestamp": "ts"}[missing]]
        with pytest.raises(SchemaError, match=missing):
            FeatureSchema.from_mapping(mapping)

    def test_needs_a_similarity_feature(self):
        with pytest.raises(SchemaError, match="similarity"):
            FeatureSchema.from_mapping({"uid": "id", "ts": "timestamp", "y": "label"})

    def test_unknown_role_rejected(self):
        with pytest.raises(SchemaError, match="unknown role"):
            FeatureSchema.from_mapping({"uid": "id", "ts": "timestamp", "y": "label", "f": "nope"})

    def test_load_schema_file(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(SCHEMA.to_mapping()), encoding="utf-8")
        assert load_schema(path) == SCHEMA

    def test_load_schema_rejects_bad_json(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(SchemaError, match="JSON"):
            load_schema(path)


class TestCsvText:
    @given(st.floats())
    @example(math.nan)
    @example(math.inf)
    @example(-math.inf)
    @example(-0.0)
    @example(5e-324)
    @example(1e16)
    @example(1e-05)
    def test_float_is_its_repr_and_none_is_empty(self, value):
        # two columns: a row of one empty field is written as ""
        assert "".join(csv_chunks(["a", "v"], [["x", value], ["y", None]])) == f"a,v\nx,{value!r}\ny,\n"

    @pytest.mark.parametrize("cell", ["\r", "a\rb", "a,\rb"])
    def test_carriage_return_in_a_cell_is_refused(self, cell):
        # csv.writer leaves "a\rb" unquoted under a "\n" line terminator, and csv.reader splits the row there
        with pytest.raises(DataError, match="carriage return"):
            "".join(csv_chunks(["id", "v"], [["x", 1.0], [cell, 2.0]]))

    @pytest.mark.parametrize("chunk_rows", [1, 7])
    def test_chunks_join_to_the_whole_text(self, monkeypatch, chunk_rows):
        k = chunk_rows
        for count in (0, 1, k - 1, k, k + 1, 2 * k + 1):
            rows = [[f"r{i}", i / 3, None if i % 2 else -i] for i in range(count)]
            whole = "".join(csv_chunks(["id", "x", "y"], rows))  # one chunk at the default size
            with monkeypatch.context() as patch:
                patch.setattr(simlabel.dataset, "CHUNK_ROWS", k)
                chunks = list(csv_chunks(["id", "x", "y"], rows))
            assert "".join(chunks) == whole
            assert len(chunks) == max(1, -(-count // k)), count  # the header rides in the first chunk
            assert chunks[0].startswith("id,x,y\n")


class TestCsvTemplateChunks:
    @pytest.mark.parametrize("chunk_rows", [1, 3])
    def test_header_then_chunk_rows_lines_a_chunk(self, monkeypatch, chunk_rows):
        k = chunk_rows
        monkeypatch.setattr(simlabel.dataset, "CHUNK_ROWS", k)
        for count in (0, 1, k, 2 * k + 1):
            chunks = list(csv_template_chunks(["id", "x"], ["r%d", "%r"], ((i, i / 3) for i in range(count))))
            assert chunks[0].startswith("id,x\n")
            lines = [len(chunk.splitlines()) for chunk in [chunks[0].removeprefix("id,x\n"), *chunks[1:]]]
            assert lines == [min(k, count - j) for j in range(0, max(count, 1), k)], count  # no rows: the header alone
            assert "".join(chunks) == "".join(csv_chunks(["id", "x"], [(f"r{i}", i / 3) for i in range(count)]))

    def test_double_percent_is_a_percent_sign(self):
        assert "".join(csv_template_chunks(["a%", "b"], ["100%% of %d", "%r"], [(7, -0.0)])) == "a%,b\n100% of 7,-0.0\n"

    @pytest.mark.parametrize("cell", ['say "hi" %d', "a,%d", "two\nlines %d", " %d "])
    def test_a_cell_is_quoted_as_csv_writer_quotes_it(self, cell):
        text = "".join(csv_template_chunks(["h,1", "e", "v"], [cell, None, "%r"], [(3, 0.5), (4, 1e-05)]))
        assert text == "".join(csv_chunks(["h,1", "e", "v"], [[cell % 3, None, 0.5], [cell % 4, None, 1e-05]]))

    def test_carriage_return_in_the_template_is_refused(self):
        with pytest.raises(DataError, match="carriage return"):
            "".join(csv_template_chunks(["id"], ["a\r%d"], [(1,)]))


def dataset_csv_text_by_row(data, include_provenance):
    """The reference writer: each row's cells in turn, each by its column's role."""
    header = [name for name, _ in data.schema.columns]
    if include_provenance:
        header += PROVENANCE_COLUMNS

    def cells(row):
        line = []
        for name, role in data.schema.columns:
            if role is Role.ID:
                line.append(row.id)
            elif role is Role.TIMESTAMP:
                line.append(row.timestamp.isoformat())
            elif role is Role.LABEL:
                line.append(row.label)
            else:
                line.append(row.features.get(name))
        if include_provenance:
            line += [row.source, row.vote, row.matched_count]
        return line

    return "".join(csv_chunks(header, map(cells, data.rows)))


FEATURE_VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e16, 1e-05])
ROWS = st.lists(st.builds(
    Sample,
    id=st.text('a,"\n é', max_size=3),
    timestamp=st.datetimes(timezones=st.none() | st.sampled_from([timezone.utc, timezone(timedelta(hours=-5.5))])),
    features=st.dictionaries(st.sampled_from(SCHEMA.feature_columns), FEATURE_VALUES),
    label=st.sampled_from([None, -1, 1]),
    source=st.sampled_from([SOURCE_REAL, SOURCE_SIMILAR]),
    vote=st.none() | st.floats(-1.0, 1.0),
    matched_count=st.none() | st.integers(0, 2**53),
), max_size=6)


class TestDatasetToCsvText:
    @settings(max_examples=200, deadline=None)
    @given(st.permutations(SCHEMA.columns), ROWS, st.booleans())
    @example(SCHEMA.columns, [], False)
    @example(SCHEMA.columns, [], True)
    def test_bytes_equal_the_row_by_row_writer(self, columns, rows, include_provenance):
        # the columns in any order, absent features and None labels, naive and offset-aware timestamps
        data = Dataset(FeatureSchema(tuple(columns)), rows)
        whole = "".join(dataset_to_csv_text(data, include_provenance))
        assert whole == dataset_csv_text_by_row(data, include_provenance)


class TestLoadDataset:
    def test_three_valid_rows(self, tmp_path):
        path = write(
            tmp_path,
            HEADER
            + "a,2024-01-01T00:00:00,1,0.5,1.5,7.0\n"
            + "b,2024-01-02T00:00:00,-1,0.25,2.5,\n"
            + "c,2024-01-03T00:00:00,,0.1,,\n",
        )
        data = load_dataset(path, SCHEMA)
        assert len(data) == 3
        assert data.rows[0].label == 1 and data.rows[1].label == -1
        assert data.rows[2].label is None
        assert data.rows[1].features == {"f0": 0.25, "f1": 2.5}
        assert data.rows[2].features == {"f0": 0.1}
        assert data.rows[0].timestamp == datetime(2024, 1, 1)

    def test_z_suffix_timestamp_loads_as_utc(self, tmp_path):
        path = write(tmp_path, HEADER + "a,2024-01-01T00:00:00Z,1,0,0,\n")
        timestamp = load_dataset(path, SCHEMA).rows[0].timestamp
        assert timestamp == datetime(2024, 1, 1, tzinfo=timezone.utc) and timestamp.tzinfo == timezone.utc

    def test_label_values_restricted(self, tmp_path):
        rows = [f"r{i},2024-01-0{i + 1}T00:00:00,1,0,0,\n" for i in range(4)]
        rows.append("r4,2024-01-05T00:00:00,2,0,0,\n")
        path = write(tmp_path, HEADER + "".join(rows))
        with pytest.raises(DataError, match="row 5"):
            load_dataset(path, SCHEMA)

    def test_plus_sign_label_accepted(self, tmp_path):
        path = write(tmp_path, HEADER + "a,2024-01-01T00:00:00,+1,0,0,\n")
        assert load_dataset(path, SCHEMA).rows[0].label == 1

    def test_non_numeric_feature_named_with_row(self, tmp_path):
        path = write(
            tmp_path,
            HEADER
            + "a,2024-01-01T00:00:00,1,0,0,\n"
            + "b,2024-01-02T00:00:00,1,oops,0,\n",
        )
        with pytest.raises(DataError, match="row 2.*f0"):
            load_dataset(path, SCHEMA)

    # float() and int() read digit grouping: "1_0" would load as 10.0 and "0_1" as the label 1
    @pytest.mark.parametrize("label, f0, message", [
        ("1", "1_0", "row 1: column 'f0' is not a finite number: '1_0'"),
        ("1", "0.2_5", "row 1: column 'f0' is not a finite number: '0.2_5'"),
        ("0_1", "0", "row 1: label must be -1 or +1, got '0_1'"),
        ("-0_1", "0", "row 1: label must be -1 or +1, got '-0_1'"),
    ])
    def test_digit_grouping_underscore_is_not_a_number(self, tmp_path, label, f0, message):
        path = write(tmp_path, HEADER + f"a,2024-01-01T00:00:00,{label},{f0},0,\n")
        with pytest.raises(DataError) as err:
            load_dataset(path, SCHEMA)
        assert err.value.violations == [message]

    def test_non_finite_feature_rejected(self, tmp_path):
        path = write(tmp_path, HEADER + "a,2024-01-01T00:00:00,1,nan,0,\n")
        with pytest.raises(DataError, match="row 1"):
            load_dataset(path, SCHEMA)

    def test_wrong_column_count_named_with_row(self, tmp_path):
        path = write(tmp_path, HEADER + "a,2024-01-01T00:00:00,1,0\n")
        with pytest.raises(DataError, match="row 1: expected 6 columns"):
            load_dataset(path, SCHEMA)

    def test_duplicate_id_mentions_both_rows(self, tmp_path):
        path = write(
            tmp_path,
            HEADER
            + "a,2024-01-01T00:00:00,1,0,0,\n"
            + "a,2024-01-02T00:00:00,1,0,0,\n",
        )
        with pytest.raises(DataError, match="row 2: duplicate id 'a' \\(first seen on row 1\\)"):
            load_dataset(path, SCHEMA)

    def test_every_violation_reported(self, tmp_path):
        path = write(
            tmp_path,
            HEADER
            + "a,2024-01-01T00:00:00,2,0,0,\n"
            + "b,not-a-date,1,0,0,\n"
            + "c,2024-01-03T00:00:00,1,bad,0,\n",
        )
        with pytest.raises(DataError) as err:
            load_dataset(path, SCHEMA)
        assert len(err.value.violations) == 3

    def test_labeled_row_must_have_similarity_features(self, tmp_path):
        path = write(tmp_path, HEADER + "a,2024-01-01T00:00:00,1,0,,\n")
        with pytest.raises(DataError, match="missing similarity features: f1"):
            load_dataset(path, SCHEMA)
        relaxed = load_dataset(path, SCHEMA, strict_labeled=False)
        assert len(relaxed) == 1

    def test_header_must_cover_schema(self, tmp_path):
        path = write(tmp_path, "uid,ts,y,f0\na,2024-01-01T00:00:00,1,0\n")
        with pytest.raises(DataError, match="missing schema columns: f1, g0"):
            load_dataset(path, SCHEMA)

    def test_extra_columns_ignored(self, tmp_path):
        path = write(
            tmp_path,
            "uid,ts,y,f0,f1,g0,extra\na,2024-01-01T00:00:00,1,0,0,,junk\n",
        )
        data = load_dataset(path, SCHEMA)
        assert data.rows[0].features == {"f0": 0.0, "f1": 0.0}

    def test_schema_column_named_twice_in_header(self, tmp_path):
        # the second f0 used to be dropped without a word
        path = write(tmp_path, "uid,ts,y,f0,f1,g0,f0,y\na,2024-01-01T00:00:00,1,0,0,,5,1\n")
        with pytest.raises(DataError, match="header names schema column[(]s[)] more than once: y, f0$"):
            load_dataset(path, SCHEMA)
        # a repeated column outside the schema is ignored like any extra column
        path = write(tmp_path, "uid,ts,y,f0,f1,g0,x,x\na,2024-01-01T00:00:00,1,0,0,,5,6\n")
        assert load_dataset(path, SCHEMA).rows[0].features == {"f0": 0.0, "f1": 0.0}

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_dataset(tmp_path / "nope.csv", SCHEMA)

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            load_dataset(write(tmp_path, ""), SCHEMA)

    @pytest.mark.parametrize("body", [b"\xff\xfe", b"a," + b"9" * 200_000 + b"\n"],
                             ids=["not-utf8", "field-over-csv-limit"])
    def test_unreadable_csv_names_the_file(self, tmp_path, body):
        path = tmp_path / "data.csv"
        path.write_bytes(HEADER.encode("utf-8") + body)
        with pytest.raises(DataError, match="data.csv is not valid UTF-8 CSV"):
            load_dataset(path, SCHEMA)

    def test_roundtrip_values_identical(self, tmp_path):
        path = write(
            tmp_path,
            HEADER
            + "a,2024-01-01T00:00:00,1,0.1,2.5000000000000004,7e-20\n"
            + "b,2024-01-02T12:34:56,-1,-3.25,0.30000000000000004,\n"
            + "c,2024-01-03T00:00:00,1,-0.0,5e-324,1.7976931348623157e308\n",
        )
        first = load_dataset(path, SCHEMA)
        assert math.copysign(1.0, first.rows[2].features["f0"]) == -1.0
        out = tmp_path / "copy.csv"
        write_dataset(first, out)
        second = load_dataset(out, SCHEMA)
        assert len(second) == 3
        for row_a, row_b in zip(first.rows, second.rows):
            assert row_a.features == row_b.features
            # -0.0 == 0.0, so the sign of each value is compared on its own
            assert [math.copysign(1.0, v) for v in row_a.features.values()] == [
                math.copysign(1.0, v) for v in row_b.features.values()
            ]
            assert row_a.label == row_b.label
            assert row_a.timestamp == row_b.timestamp


class TestByteOrderMark:
    """A file saved as Excel's "CSV UTF-8" begins with a byte-order mark, which no reader may keep."""

    def test_bom_prefixed_inputs_load_like_the_originals(self, tmp_path):
        fx = write_pipeline_fixture(tmp_path / "plain", n_labeled_per=8, n_unlabeled_per=10)
        marked = {}
        for name in ("schema", "labeled", "unlabeled"):
            marked[name] = tmp_path / f"bom-{fx[name].name}"
            marked[name].write_bytes(b"\xef\xbb\xbf" + fx[name].read_bytes())
        schema = load_schema(fx["schema"])
        assert load_schema(marked["schema"]) == schema
        for name in ("labeled", "unlabeled"):
            assert load_dataset(marked[name], schema).rows == load_dataset(fx[name], schema).rows

    def test_only_one_leading_mark_is_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbf" + ("\ufeff" + HEADER).encode("utf-8"))
        with pytest.raises(DataError, match="header is missing schema columns: uid$"):
            load_dataset(path, SCHEMA)


class TestSampleObject:
    """The row object: slotted, so it carries no per-instance dict, and compared by value."""

    def test_a_loaded_row_is_slotted(self, tmp_path):
        row = load_dataset(write(tmp_path, HEADER + "a,2024-01-01T00:00:00,1,0.5,1.5,7.0\n"), SCHEMA).rows[0]
        assert not hasattr(row, "__dict__")
        with pytest.raises(AttributeError):
            row.note = "x"

    def test_replace_makes_a_new_row_and_leaves_the_old_one(self):
        row = make_sample("a", {"f0": 1.0}, label=1)
        changed = replace(row, id="b")
        assert type(changed) is Sample and changed is not row
        assert row.id == "a" and changed.id == "b"
        assert replace(changed, id="a") == row

    def test_rows_with_the_same_fields_are_equal(self):
        assert make_sample("a", {"f0": 1.0}, label=1) == make_sample("a", {"f0": 1.0}, label=1)
        assert make_sample("a", {"f0": 1.0}, label=1) != make_sample("a", {"f0": 1.0}, label=-1)
        with pytest.raises(TypeError):
            hash(make_sample("a", {}))



# The loader as it was written with an `ok` flag beside every violation. Its
# row loop is the reference for the flag-free one: both must keep the same rows
# and report the same violations in the same order.
def _parse_feature(text: str, name: str) -> float:
    value = float(text) if "_" not in text else math.nan
    if not math.isfinite(value):
        raise ValueError(f"feature {name!r} must be finite, got {text!r}")
    return value


def flagged_load_dataset(
    path: str | Path,
    schema: FeatureSchema,
    strict_labeled: bool = True,
) -> Dataset:
    """load_dataset with one `ok` flag per row, kept verbatim from before the flags went."""
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

        ok = True
        sample_id = cells[id_at].strip()
        if not sample_id:
            violations.append(f"row {row_num}: empty id")
            ok = False
        elif sample_id in seen_ids:
            violations.append(
                f"row {row_num}: duplicate id {sample_id!r} (first seen on row {seen_ids[sample_id]})"
            )
            ok = False
        else:
            seen_ids[sample_id] = row_num

        timestamp = None
        ts_text = cells[ts_at].strip()
        try:
            timestamp = datetime.fromisoformat(ts_text)
        except ValueError:
            violations.append(
                f"row {row_num}: timestamp {ts_text!r} is not ISO-8601"
            )
            ok = False
        else:
            # naive and offset-aware datetimes cannot be ordered against each other
            aware = timestamp.tzinfo is not None
            first_aware = first_aware or (row_num, aware)
            if aware != first_aware[1]:
                kind = "offset-aware" if aware else "naive"
                violations.append(f"row {row_num}: timestamp {ts_text!r} is {kind}, unlike row {first_aware[0]}'s")
                ok = False

        label: int | None = None
        label_text = cells[label_at].strip()
        if label_text:
            try:
                label = int(label_text)
            except ValueError:
                label = None
            if label not in (-1, 1):
                violations.append(
                    f"row {row_num}: label must be -1 or +1, got {label_text!r}"
                )
                ok = False

        features: dict[str, float] = {}
        for name, at in feature_at:
            text = cells[at].strip()
            if not text:
                continue
            try:
                features[name] = _parse_feature(text, name)
            except ValueError:
                violations.append(
                    f"row {row_num}: column {name!r} is not a finite number: {text!r}"
                )
                ok = False

        if ok and strict_labeled and label is not None:
            absent = [f for f in sim_features if f not in features]
            if absent:
                violations.append(
                    f"row {row_num}: labeled row missing similarity features: {', '.join(absent)}"
                )
                ok = False

        if ok:
            rows.append(Sample(id=sample_id, timestamp=timestamp, features=features, label=label))

    if violations:
        shown = "; ".join(violations)
        raise DataError(f"{path}: {len(violations)} invalid rows: {shown}", violations)
    return Dataset(schema=schema, rows=rows, provenance=str(path))


NAIVE = ["2024-01-01", "2024-01-02T03:04:05", " 2024-01-03 "]
AWARE = ["2024-01-01T00:00:00+02:00", "2024-01-01T00:00:00Z"]
LABELS = ["", "1", "+1", "-1", "01", " 1 ", "2", "x"]  # the first six are valid
FEATURES = ["", " ", "-0.0", " 2.5 ", "1_0", "nan", "inf", "1e999", "bad"]  # the first four are valid


@st.composite
def csv_lines(draw):
    """Data rows as lists of cells: some valid, some with any cell drawn from its
    invalid values too (empty, padded and repeated ids, bad or mixed timestamps),
    and some with the wrong number of cells."""
    timestamps = draw(st.sampled_from([NAIVE, AWARE]))  # what a valid row carries
    lines = []
    for i in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["valid", "valid", "any", "count"]))
        if kind == "count":
            lines.append(draw(st.lists(st.sampled_from(["", "r0", "1"]), max_size=8).filter(lambda c: len(c) != 6)))
            continue
        valid = kind == "valid"
        ids = [f"r{i}", f" r{i} "] + ([] if valid else ["", " ", "r0", "r1 "])
        stamps = timestamps if valid else NAIVE + AWARE + ["2024-13-01", "", "yesterday"]
        lines.append([draw(st.sampled_from(ids)), draw(st.sampled_from(stamps)),
                      draw(st.sampled_from(LABELS[:6] if valid else LABELS))]
                     + [draw(st.sampled_from(FEATURES[:4] if valid else FEATURES)) for _ in range(3)])
    return lines

def load_outcome(load, path, strict_labeled):
    """Every field of every kept row (features and timestamps by repr), or the DataError's text and violations."""
    try:
        data = load(path, SCHEMA, strict_labeled)
    except DataError as err:
        return str(err), err.violations
    rows = [(row.id, repr(row.timestamp), repr(row.features), row.label, row.source, row.vote, row.matched_count)
            for row in data.rows]
    return rows, data.provenance


@st.composite
def hand_built_rows(draw):
    """Hand-built rows over f0..f2 whose cells are floats (NaN and -0.0 among them), ints, bools and None,
    and the names asked for, among them g0 and h0, which no row carries."""
    cell = (st.floats() | st.sampled_from([0.0, -0.0, math.nan]) | st.integers(-(2 ** 64), 2 ** 64)
            | st.booleans() | st.none())
    rows = [Sample(id=f"r{i}", timestamp=T0, features=draw(st.dictionaries(st.sampled_from(["f0", "f1", "f2"]), cell)))
            for i in range(draw(st.integers(0, 4)))]
    return rows, draw(st.lists(st.sampled_from(["f0", "f1", "f2", "g0", "h0"]), max_size=5, unique=True))


class TestFeatureMatrix:
    @example(([], ["f0", "g0"]))
    @example(([Sample(id="r0", timestamp=T0, features={"f0": -0.0, "f1": None, "f2": True})], []))
    @example(([], []))
    @given(hand_built_rows())
    @settings(max_examples=300, deadline=None)
    def test_bits_equal_the_array_of_the_nested_list(self, case):
        rows, names = case
        cells = [[row.features.get(name, math.nan) for name in names] for row in rows]
        expected = np.array(cells, dtype=np.float64).reshape(len(rows), len(names))
        got = feature_matrix(rows, names)
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()


class TestLoaderAgreesWithTheFlaggedLoop:
    @settings(max_examples=400, deadline=None)
    @given(lines=csv_lines(), strict_labeled=st.booleans())
    # a labeled row lacking f1 whose timestamp is bad: the strict check must not add a second violation
    @example(lines=[["a", "yesterday", "1", "0", "", ""]], strict_labeled=True)
    @example(lines=[["a", "2024-01-01", "1", "-0.0", " 2.5 ", "1_0"], ["b", "2024-01-02", "", "", "", ""]],
             strict_labeled=True)
    @example(lines=[["a", "2024-01-01", "1", "0"], ["a", "2024-01-01", "x", "", "", "1e999"]], strict_labeled=False)
    def test_same_rows_or_same_violations(self, tmp_path_factory, lines, strict_labeled):
        path = write(tmp_path_factory.getbasetemp(), HEADER + "".join(",".join(cells) + "\n" for cells in lines))
        assert load_outcome(load_dataset, path, strict_labeled) == load_outcome(
            flagged_load_dataset, path, strict_labeled)


def resolve(tmp_path, argv, payload):
    """A command's settings from `argv`'s flags over the config file `payload`."""
    config = write(tmp_path, json.dumps(payload), "config.json")
    return load_config(config, build_parser().parse_args([argv[0], "--config", str(config), *argv[1:]]))


# entry point -> (its refusal, and what hands it a text); each reads the plain "1" as a valid value
ENTRY_POINTS = {
    "number": (ValueError, lambda tmp_path, text: number(text)),
    "number-int": (ValueError, lambda tmp_path, text: number(text, int)),
    "feature-cell": (DataError, lambda tmp_path, text: load_dataset(
        write(tmp_path, HEADER + f"a,2024-01-01,1,{text},0,\n"), SCHEMA)),
    "label-cell": (DataError, lambda tmp_path, text: load_dataset(
        write(tmp_path, HEADER + f"a,2024-01-01,{text},0,0,\n"), SCHEMA)),
    "score-cell": (ModelError, lambda tmp_path, text: load_external_scores(write(tmp_path, f"id,score\na,{text}\n"))),
    **{f"match-{column}": (MatcherError, lambda tmp_path, text, cells=cells: load_matches(
        write(tmp_path, f"id,t,y_hat,matched_count,g0\nu,{cells.format(text)}\n"), ["g0"]))
       for column, cells in [("t", "{},1,1,0.5"), ("y_hat", "0.5,{},1,0.5"), ("matched_count", "0.5,1,{},0.5"),
                             ("imputed", "0.5,1,1,{}")]},
    "int-flag": (ConfigError, lambda tmp_path, text: resolve(tmp_path, ["probe-shell", "--seed", text], {})),
    "float-flag": (ConfigError, lambda tmp_path, text: resolve(tmp_path, ["train", "--l2", text], {})),
    "unit-flag": (ConfigError, lambda tmp_path, text: resolve(tmp_path, ["split", "--test-fraction", text], {})),
    "axis-flag": (ConfigError, lambda tmp_path, text: resolve(tmp_path, ["probe-grid", "--x", text, "2", "3"], {})),
    "int-config": (ConfigError, lambda tmp_path, text: resolve(tmp_path, ["probe-shell"], {"seed": text})),
    "float-config": (ConfigError, lambda tmp_path, text: resolve(tmp_path, ["train"], {"train": {"l2": text}})),
    "unit-config": (ConfigError, lambda tmp_path, text: resolve(
        tmp_path, ["split"], {"split": {"test_fraction": text}})),
    "axis-config": (ConfigError, lambda tmp_path, text: resolve(
        tmp_path, ["probe-grid"], {"probe": {"x": [text, "2", "3"]}})),
}
# int() and float() read each of these as 1, since "_" is digit grouping to them
GROUPED = ["0_1", "00_1", "+0_1", "0_0_1"]


class TestNumberRule:
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_every_reader_refuses_digit_grouping(self, tmp_path, entry):
        error, feed = ENTRY_POINTS[entry]
        feed(tmp_path, "1")
        for text in GROUPED:
            with pytest.raises(error):
                feed(tmp_path, text)

    # the loader's feature loop inlines `number`: it keeps a cell exactly when `number` reads it as a finite float
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(alphabet="0123456789_.eE+- infaINF\u0661", max_size=7), min_size=1, max_size=8))
    @example(["1_0", "_", "1__0", "1_0e-1", " 2.5 ", "-0.0", "nan", "1e999", "\u0661_\u0661", "0x10", ""])
    def test_feature_cells_follow_number(self, tmp_path_factory, texts):
        path = write(tmp_path_factory.getbasetemp(), HEADER + "".join(
            f"r{i},2024-01-01,,{text},,\n" for i, text in enumerate(texts)))
        kept, refused = {}, []
        for i, text in enumerate(text.strip() for text in texts):
            try:
                value = number(text) if text else None
            except ValueError:
                value = math.nan
            if value is None or math.isfinite(value):
                kept[f"r{i}"] = {} if value is None else {"f0": value}
            else:
                refused.append(f"row {i + 1}: column 'f0' is not a finite number: {text!r}")
        try:
            data = load_dataset(path, SCHEMA)
        except DataError as err:
            assert err.violations == refused
        else:
            assert not refused
            assert {row.id: repr(row.features) for row in data.rows} == {k: repr(v) for k, v in kept.items()}


class TestTimeHoldoutSplit:
    def make_rows(self, timestamps):
        return [
            make_sample(f"r{i}", {"f0": float(i), "f1": 0.0}, label=1 if i % 2 else -1, ts=ts)
            for i, ts in enumerate(timestamps)
        ]

    def test_hundred_daily_rows_fraction_point_two(self):
        timestamps = [T0 + timedelta(days=i) for i in range(100)]
        data = Dataset(SCHEMA, self.make_rows(timestamps))
        train, test = time_holdout_split(data, 0.2)
        assert len(train) == 80 and len(test) == 20
        assert max(r.timestamp for r in train.rows) < min(r.timestamp for r in test.rows)

    def test_fraction_zero_keeps_everything_in_train(self):
        data = Dataset(SCHEMA, self.make_rows([T0 + timedelta(days=i) for i in range(10)]))
        train, test = time_holdout_split(data, 0.0)
        assert len(train) == 10 and len(test) == 0

    def test_boundary_ties_all_land_in_test(self):
        timestamps = [T0 + timedelta(days=i) for i in range(5)]
        timestamps += [T0 + timedelta(days=10)] * 5  # latest timestamp shared by 5 rows
        data = Dataset(SCHEMA, self.make_rows(timestamps))
        train, test = time_holdout_split(data, 0.2)  # target ceil(2) = 2
        assert len(test) == 5
        assert all(r.timestamp == T0 + timedelta(days=10) for r in test.rows)

    def test_fraction_one_puts_everything_in_test(self):
        data = Dataset(SCHEMA, self.make_rows([T0 + timedelta(days=i) for i in range(7)]))
        train, test = time_holdout_split(data, 1.0)
        assert len(train) == 0 and len(test) == 7

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError, match="empty"):
            time_holdout_split(Dataset(SCHEMA, []), 0.2)

    def test_bad_fraction_rejected(self):
        data = Dataset(SCHEMA, self.make_rows([T0]))
        with pytest.raises(ValueError):
            time_holdout_split(data, 1.5)

    def test_decimal_fraction_rounding_guard(self):
        # 0.07 * 100 floats slightly above 7; the ceiling must still be 7
        timestamps = [T0 + timedelta(days=i) for i in range(100)]
        data = Dataset(SCHEMA, self.make_rows(timestamps))
        _, test = time_holdout_split(data, 0.07)
        assert len(test) == 7

    @given(
        day_offsets=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=60),
        fraction=st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.25, 0.5, 0.8, 1.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_split_invariants(self, day_offsets, fraction):
        timestamps = [T0 + timedelta(days=d) for d in day_offsets]
        data = Dataset(SCHEMA, self.make_rows(timestamps))
        train, test = time_holdout_split(data, fraction)
        target = math.ceil(round(fraction * len(data.rows), 9))

        assert len(train) + len(test) == len(data.rows)
        assert {r.id for r in train.rows}.isdisjoint({r.id for r in test.rows})
        if train.rows and test.rows:
            assert max(r.timestamp for r in train.rows) < min(r.timestamp for r in test.rows)
        assert len(test) >= target
        if test.rows:
            # minimality: dropping the earliest test-timestamp group breaks the quota
            boundary = min(r.timestamp for r in test.rows)
            remaining = sum(1 for r in test.rows if r.timestamp > boundary)
            assert remaining < target


def test_failed_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(path, "new\ud800\n")  # a lone surrogate has no UTF-8 form
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def failing_chunks():
    """Two chunks, then an error of the source itself."""
    yield "id,v\na,1\n"
    yield "b,2\n"
    raise RuntimeError("the source failed")


@pytest.mark.parametrize("source, error", [
    # two rows a chunk: the carriage return is in the third
    (lambda: csv_chunks(["id", "v"], [["a", 1], ["b", 2], ["c", 3], ["d", 4], ["e\r", 5], ["f", 6]]), DataError),
    (failing_chunks, RuntimeError),
], ids=["carriage-return", "source-error"])
def test_failed_chunked_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch, source, error):
    monkeypatch.setattr(simlabel.dataset, "CHUNK_ROWS", 2)
    path = tmp_path / "out.csv"
    path.write_bytes(b"old\n")
    written = []

    def counted(chunks):
        for chunk in chunks:
            written.append(chunk)
            yield chunk

    with pytest.raises(error):
        atomic_write_chunks(path, counted(source()))
    assert len(written) == 2  # two chunks reached the temp file before the failure
    assert path.read_bytes() == b"old\n"
    assert list(tmp_path.glob(".out.csv.*.tmp")) == []
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_an_artifact_gets_the_mode_a_plain_file_gets(tmp_path):
    """The temp file an artifact is renamed from is created as `open` creates a file: 0o666 less the umask."""
    umask = os.umask(0o022)
    try:
        write_json(tmp_path / "artifact.json", {"a": 1})
        (tmp_path / "plain.txt").write_text("plain\n", encoding="utf-8")
    finally:
        os.umask(umask)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
    assert modes == {"artifact.json": 0o644, "plain.txt": 0o644}
