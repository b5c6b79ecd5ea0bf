"""Kernel tests: worked examples, axioms, and oracle agreement."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_sample, make_schema
from oracles import gower_oracle
from simlabel.dataset import Dataset, feature_matrix
from simlabel.errors import KernelError
from simlabel.kernel import (
    RangeTable,
    compute_ranges,
    gower_similarity,
    load_range_table,
    save_range_table,
    similarity_block,
)


def table(ranges: dict, bounds: dict | None = None) -> RangeTable:
    if bounds is None:
        bounds = {name: (0.0, spread) for name, spread in ranges.items()}
    return RangeTable(ranges=ranges, bounds=bounds)


class TestComputeRanges:
    def test_single_row_gives_zero_ranges(self):
        schema = make_schema(3, 0)
        data = Dataset(schema, [make_sample("a", {"f0": 4.0, "f1": -2.0, "f2": 0.0})])
        result = compute_ranges(data, schema)
        assert result.ranges == {"f0": 0.0, "f1": 0.0, "f2": 0.0}

    def test_max_minus_min(self):
        schema = make_schema(1, 0)
        rows = [make_sample(i, {"f0": v}) for i, v in enumerate([1.0, 5.0, 9.0])]
        result = compute_ranges(Dataset(schema, rows), schema)
        assert result.ranges["f0"] == 8.0
        assert result.bounds["f0"] == (1.0, 9.0)

    def test_pooled_over_multiple_datasets(self):
        schema = make_schema(1, 0)
        one = Dataset(schema, [make_sample("a", {"f0": 0.0}), make_sample("b", {"f0": 2.0})])
        two = Dataset(schema, [make_sample("c", {"f0": -1.0}), make_sample("d", {"f0": 3.0})])
        result = compute_ranges([one, two], schema)
        assert result.ranges["f0"] == 4.0
        assert result.bounds["f0"] == (-1.0, 3.0)

    def test_missing_values_are_skipped(self):
        schema = make_schema(2, 0)
        rows = [
            make_sample("a", {"f0": 1.0}),
            make_sample("b", {"f0": 3.0, "f1": 10.0}),
            make_sample("c", {"f1": 4.0}),
        ]
        result = compute_ranges(Dataset(schema, rows), schema)
        assert result.ranges == {"f0": 2.0, "f1": 6.0}

    def test_entirely_missing_feature_is_an_error(self):
        schema = make_schema(2, 0)
        rows = [make_sample("a", {"f0": 1.0}), make_sample("b", {"f0": 2.0})]
        with pytest.raises(KernelError, match="f1"):
            compute_ranges(Dataset(schema, rows), schema)

    def test_no_sources_is_an_error(self):
        with pytest.raises(KernelError):
            compute_ranges([], make_schema(1, 0))


class TestGowerSimilarity:
    def test_identical_samples_score_one(self):
        a = make_sample("a", {"f0": 3.0, "f1": -1.0})
        assert gower_similarity(a, a, table({"f0": 5.0, "f1": 2.0})) == 1.0

    def test_two_feature_worked_example(self):
        a = make_sample("a", {"f0": 0.0, "f1": 0.0})
        b = make_sample("b", {"f0": 5.0, "f1": 2.0})
        ranges = table({"f0": 10.0, "f1": 4.0})
        assert gower_similarity(a, b, ranges) == 0.5

    def test_ten_features_one_differs_by_tenth_of_range(self):
        names = [f"f{i}" for i in range(10)]
        a = make_sample("a", {n: 0.0 for n in names})
        b_feats = {n: 0.0 for n in names}
        b_feats["f0"] = 1.0  # 10% of range 10
        b = make_sample("b", b_feats)
        ranges = table({n: 10.0 for n in names})
        score = gower_similarity(a, b, ranges)
        assert score == pytest.approx(0.99, abs=1e-12)
        assert score == gower_oracle(a.features, b.features, ranges.ranges)

    def test_zero_range_feature_scores_equality(self):
        ranges = table({"f0": 0.0, "f1": 2.0}, {"f0": (3.0, 3.0), "f1": (0.0, 2.0)})
        a = make_sample("a", {"f0": 3.0, "f1": 0.0})
        b = make_sample("b", {"f0": 3.0, "f1": 0.0})
        assert gower_similarity(a, b, ranges) == 1.0
        c = make_sample("c", {"f0": 4.0, "f1": 0.0})
        assert gower_similarity(a, c, ranges) == 0.5  # (0 + 1) / 2

    def test_difference_beyond_range_clamps_to_zero_score(self):
        ranges = table({"f0": 1.0})
        a = make_sample("a", {"f0": 0.0})
        b = make_sample("b", {"f0": 100.0})
        assert gower_similarity(a, b, ranges) == 0.0

    def test_missing_feature_excluded_from_both_sides(self):
        ranges = table({"f0": 10.0, "f1": 4.0})
        a = make_sample("a", {"f0": 0.0, "f1": 0.0})
        b = make_sample("b", {"f0": 5.0})  # f1 missing
        assert gower_similarity(a, b, ranges) == 0.5  # only f0 counts

    def test_no_shared_features_is_an_error(self):
        ranges = table({"f0": 1.0, "f1": 1.0})
        a = make_sample("a", {"f0": 0.0})
        b = make_sample("b", {"f1": 0.0})
        with pytest.raises(KernelError, match="share no"):
            gower_similarity(a, b, ranges)


class TestRangeTable:
    def test_json_roundtrip(self, tmp_path):
        original = RangeTable(
            ranges={"f0": 2.5, "f1": 0.0},
            bounds={"f0": (-1.0, 1.5), "f1": (3.0, 3.0)},
            source="unit test",
        )
        path = tmp_path / "ranges.json"
        save_range_table(original, path)
        loaded = load_range_table(path)
        assert loaded == original
        payload = json.loads(path.read_text())
        assert payload["ranges"] == {"f0": 2.5, "f1": 0.0}

    def test_negative_range_rejected(self):
        with pytest.raises(KernelError, match="negative"):
            RangeTable(ranges={"f0": -1.0}, bounds={"f0": (0.0, 1.0)})

    @pytest.mark.parametrize("value, bounds", [
        (math.nan, (0.0, 1.0)), (1.0, (math.nan, 1.0)), (1.0, (0.0, math.nan)),
    ])
    def test_nan_range_or_bound_rejected(self, value, bounds):
        with pytest.raises(KernelError, match="'f0' .* NaN"):
            RangeTable(ranges={"f0": value}, bounds={"f0": bounds})

    def test_infinite_range_accepted(self):
        # compute_ranges makes one from two finite extremes such as -1.7e308 and 1.7e308
        assert RangeTable(ranges={"f0": math.inf}, bounds={"f0": (-1.7e308, 1.7e308)}).ranges["f0"] == math.inf

    def test_missing_bounds_rejected(self):
        with pytest.raises(KernelError, match="bounds"):
            RangeTable(ranges={"f0": 1.0}, bounds={})

    def test_inverted_bounds_rejected(self):
        with pytest.raises(KernelError, match="inverted"):
            RangeTable(ranges={"f0": 1.0}, bounds={"f0": (2.0, 1.0)})

    def test_malformed_payload_rejected(self):
        with pytest.raises(KernelError, match="malformed"):
            RangeTable.from_json_dict({"ranges": {"f0": 1.0}})


finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def sample_pair_with_ranges(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    names = [f"f{i}" for i in range(n)]
    a = {}
    b = {}
    for name in names:
        if draw(st.booleans()):
            a[name] = draw(finite)
        if draw(st.booleans()):
            b[name] = draw(finite)
    shared = set(a) & set(b)
    if not shared:
        a[names[0]] = draw(finite)
        b[names[0]] = draw(finite)
    ranges = {}
    bounds = {}
    for name in names:
        values = [v for v in (a.get(name), b.get(name)) if v is not None] or [0.0]
        lo, hi = min(values), max(values)
        ranges[name] = hi - lo
        bounds[name] = (lo, hi)
    return (
        make_sample("a", a),
        make_sample("b", b),
        RangeTable(ranges=ranges, bounds=bounds),
    )


@st.composite
def rows_with_ranges(draw):
    """Two row sets over up to 5 features with missing cells, repeated values and
    zero spreads, and a range table narrower than the values it is used on."""
    names = draw(st.permutations([f"f{i}" for i in range(draw(st.integers(1, 5)))]))
    spreads = st.sampled_from([0.0, 0.5, 2.0]) | st.floats(0.0, 10.0)
    ranges = {name: draw(spreads) for name in names}
    cell = st.none() | st.sampled_from([0.0, 1.0, -2.5]) | st.floats(-20.0, 20.0)

    def rows(prefix):
        return [
            make_sample(f"{prefix}{i}", {n: v for n in names if (v := draw(cell)) is not None})
            for i in range(draw(st.integers(0, 4)))
        ]

    bounds = {name: (0.0, spread) for name, spread in ranges.items()}
    return rows("a"), rows("b"), RangeTable(ranges=ranges, bounds=bounds)


@st.composite
def rows_with_extreme_ranges(draw):
    """Two row sets and a range table over what rows_with_ranges never draws: subnormal, huge and
    infinite spreads, cells of +-1e308 whose differences overflow, -0.0, and missing cells."""
    names = [f"f{i}" for i in range(draw(st.integers(1, 4)))]
    ranges = {name: draw(st.sampled_from([0.0, 5e-324, 1.0, 1e308, math.inf])) for name in names}
    cell = st.none() | st.sampled_from([1e308, -1e308]) | st.sampled_from([0.0, -0.0, 5e-324, 1.0, -1.0])

    def rows(prefix):
        return [
            make_sample(f"{prefix}{i}", {n: v for n in names if (v := draw(cell)) is not None})
            for i in range(draw(st.integers(0, 4)))
        ]

    bounds = {name: (0.0, spread) for name, spread in ranges.items()}
    return rows("a"), rows("b"), RangeTable(ranges=ranges, bounds=bounds)


@st.composite
def range_sources(draw):
    """One to three sources over two to five features: cells missing at random, 0.0 and -0.0, NaN as
    only a hand-built Sample holds it, and a last feature that one row at most carries."""
    schema = make_schema(draw(st.integers(2, 5)), 0)
    names = schema.similarity_features
    cell = st.none() | st.sampled_from([0.0, -0.0, 1.0, -2.5, math.nan]) | st.floats(allow_nan=False)
    sources = [[{n: v for n in names[:-1] if (v := draw(cell)) is not None}
                for _ in range(draw(st.integers(0, 4)))]
               for _ in range(draw(st.integers(1, 3)))]
    cells = [features for rows in sources for features in rows]
    if cells:
        cells[draw(st.integers(0, len(cells) - 1))][names[-1]] = draw(st.sampled_from([0.0, -0.0]) | finite)
    return schema, [Dataset(schema, [make_sample(f"s{k}r{i}", features) for i, features in enumerate(rows)],
                            provenance=f"source {k}" if k else "")
                    for k, rows in enumerate(sources)]


def numpy_ranges(sources: list[Dataset], schema) -> RangeTable:
    """compute_ranges as the numpy formula it replaced: the first nanargmin and nanargmax of the pooled matrix."""
    names = schema.similarity_features
    x = np.vstack([feature_matrix(data.rows, names) for data in sources])
    missing = [name for name, empty in zip(names, np.isnan(x).all(axis=0)) if empty]
    if missing:
        raise KernelError(f"features with no observed values in any source: {', '.join(missing)}")
    columns = np.arange(len(names))
    lo = x[np.nanargmin(x, axis=0), columns].tolist()
    hi = x[np.nanargmax(x, axis=0), columns].tolist()
    ranges = {name: h - l for name, l, h in zip(names, lo, hi)}
    bounds = {name: (l, h) for name, l, h in zip(names, lo, hi)}
    total_rows = sum(len(d) for d in sources)
    labels = [d.provenance or "<unnamed>" for d in sources]
    source = f"pooled over {len(sources)} dataset(s), {total_rows} rows: {'; '.join(labels)}"
    return RangeTable(ranges=ranges, bounds=bounds, source=source)


def bits(value: float) -> int:
    return int(np.float64(value).view(np.int64))


class TestKernelProperties:
    @given(rows_with_ranges())
    @settings(max_examples=300, deadline=None)
    def test_block_equals_scalar_kernel(self, case):
        left, right, ranges = case
        names = ranges.features()
        block = similarity_block(feature_matrix(left, names), feature_matrix(right, names), ranges)
        assert block.shape == (len(left), len(right))
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                try:
                    expected = gower_oracle(a.features, b.features, ranges.ranges)
                except ValueError:
                    assert math.isnan(block[i, j])
                else:
                    assert block[i, j] == expected


    # |1e308 - -1e308| overflows to inf, and inf / inf is NaN: the oracle returns NaN there
    @example(([make_sample("a0", {"f0": 1e308})], [make_sample("b0", {"f0": -1e308})],
              RangeTable(ranges={"f0": math.inf}, bounds={"f0": (0.0, math.inf)})))
    @given(rows_with_extreme_ranges())
    @settings(max_examples=300, deadline=None)
    def test_block_equals_scalar_kernel_bits_at_float_extremes(self, case):
        left, right, ranges = case
        names = ranges.features()
        block = similarity_block(feature_matrix(left, names), feature_matrix(right, names), ranges)
        assert block.shape == (len(left), len(right))
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                try:
                    expected = gower_oracle(a.features, b.features, ranges.ranges)
                except ValueError:
                    expected = math.nan
                if math.isnan(expected):
                    assert math.isnan(block[i, j])
                else:
                    assert bits(block[i, j]) == bits(expected)

    @given(rows_with_ranges() | rows_with_extreme_ranges())
    @settings(max_examples=300, deadline=None)
    def test_block_bits_do_not_depend_on_memory_layout(self, case):
        left, right, ranges = case
        names = ranges.features()

        def strided(x):  # the same cells as a view into a larger array, strided on both axes
            wider = np.full((2 * len(x), 3 * len(names)), 7.0)
            wider[::2, ::3] = x
            return wider[::2, ::3]

        x, y = feature_matrix(left, names), feature_matrix(right, names)
        blocks = [similarity_block(layout(x), layout(y), ranges)
                  for layout in (np.ascontiguousarray, np.asfortranarray, strided)]
        for block in blocks:
            assert block.shape == (len(left), len(right))
            assert block.view(np.int64).tolist() == blocks[0].view(np.int64).tolist()
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                try:
                    expected = gower_oracle(a.features, b.features, ranges.ranges)
                except ValueError:
                    expected = math.nan
                if math.isnan(expected):
                    assert math.isnan(blocks[0][i, j])
                else:
                    assert bits(blocks[0][i, j]) == bits(expected)

    @given(range_sources())
    @settings(max_examples=300, deadline=None)
    def test_compute_ranges_equals_numpy_formula_bits(self, case):
        schema, sources = case

        def outcome(compute):
            try:
                table = compute(sources, schema)
            except KernelError as err:
                return str(err)
            return ([(name, bits(spread)) for name, spread in table.ranges.items()],
                    [(name, bits(lo), bits(hi)) for name, (lo, hi) in table.bounds.items()], table.source)

        assert outcome(compute_ranges) == outcome(numpy_ranges)

    @given(sample_pair_with_ranges())
    @settings(max_examples=150, deadline=None)
    def test_symmetry_and_bounds(self, pair):
        a, b, ranges = pair
        forward = gower_similarity(a, b, ranges)
        backward = gower_similarity(b, a, ranges)
        assert forward == backward
        assert 0.0 <= forward <= 1.0

    @given(sample_pair_with_ranges())
    @settings(max_examples=100, deadline=None)
    def test_oracle_agreement(self, pair):
        a, b, ranges = pair
        assert gower_similarity(a, b, ranges) == gower_oracle(a.features, b.features, ranges.ranges)

    @given(sample_pair_with_ranges())
    @settings(max_examples=100, deadline=None)
    def test_self_similarity_is_one(self, pair):
        a, _, ranges = pair
        assert gower_similarity(a, a, ranges) == 1.0

    def test_shrinking_one_gap_never_decreases_similarity(self):
        rng = np.random.default_rng(5)
        names = [f"f{i}" for i in range(8)]
        for _ in range(200):
            a_feats = {n: float(rng.uniform(-5, 5)) for n in names}
            b_feats = {n: float(rng.uniform(-5, 5)) for n in names}
            ranges = table({n: 10.0 for n in names}, {n: (-5.0, 5.0) for n in names})
            a = make_sample("a", a_feats)
            b = make_sample("b", b_feats)
            baseline = gower_similarity(a, b, ranges)
            pick = names[int(rng.integers(len(names)))]
            shrunk = dict(b_feats)
            shrunk[pick] = a_feats[pick] + (b_feats[pick] - a_feats[pick]) * float(
                rng.uniform(0, 1)
            )
            closer = make_sample("b2", shrunk)
            assert gower_similarity(a, closer, ranges) >= baseline - 1e-12

    def test_adding_feature_missing_in_one_sample_changes_nothing(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            names = [f"f{i}" for i in range(6)]
            a_feats = {n: float(rng.uniform(-3, 3)) for n in names}
            b_feats = {n: float(rng.uniform(-3, 3)) for n in names}
            base_ranges = {n: 6.0 for n in names}
            a = make_sample("a", a_feats)
            b = make_sample("b", b_feats)
            before = gower_similarity(a, b, table(base_ranges))
            wider = dict(base_ranges)
            wider["extra"] = 6.0
            a_extra = make_sample("a", {**a_feats, "extra": 1.0})  # b lacks it
            after = gower_similarity(a_extra, b, table(wider))
            assert after == before
