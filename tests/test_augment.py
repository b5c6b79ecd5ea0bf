"""Similar-dataset construction and merging tests."""

import math
from datetime import timedelta

import numpy as np
import pytest

from conftest import T0, make_sample, make_schema, random_instance
from simlabel.augment import SIMILAR_ID_PREFIX, build_similar_dataset, merge_datasets
from simlabel.dataset import SOURCE_REAL, SOURCE_SIMILAR, Dataset
from simlabel.errors import AugmentError
from simlabel.matcher import Matches, SimilarityParams, match_batch

SCHEMA = make_schema(2, 2)


def match(uid, label, vote=0.8, imputed=None, matched=3):
    """One match row: id, vote, label, matched count and the imputed values, NaN where empty."""
    values = [(imputed or {}).get(name) for name in SCHEMA.estimation_features]
    return (uid, vote if label else math.nan, label, matched if label else 0,
            [math.nan if value is None or not label else value for value in values])


def as_matches(rows):
    """The Matches of match rows, with no contributors."""
    n = len(rows)
    ids, votes, labels, counts, imputed = zip(*rows) if rows else ((),) * 5
    return Matches(ids=list(ids), votes=np.array(votes, dtype=float), estimates=np.array(labels, dtype=np.int64),
                   matched=np.array(counts, dtype=np.int64), imputed=np.array(imputed, dtype=float).reshape(n, 2),
                   top_ids=np.empty((n, 0), dtype=object), top_sims=np.empty((n, 0)))


def unlabeled_rows(n):
    return Dataset(
        SCHEMA,
        [
            make_sample(f"u{i}", {"f0": float(i), "f1": -float(i)}, ts=T0 + timedelta(hours=i))
            for i in range(n)
        ],
        "unlabeled fixture",
    )


class TestBuildSimilarDataset:
    def test_all_abstentions_give_empty_dataset(self):
        data = unlabeled_rows(5)
        matches = [match(f"u{i}", 0) for i in range(5)]
        similar = build_similar_dataset(as_matches(matches), data)
        assert len(similar) == 0

    def test_only_confident_matches_survive(self):
        data = unlabeled_rows(100)
        matches = [match(f"u{i}", 0) for i in range(100)]
        for i, label in zip((3, 20, 55, 90), (1, -1, 1, 1)):
            matches[i] = match(f"u{i}", label, imputed={"g0": 1.0, "g1": None})
        similar = build_similar_dataset(as_matches(matches), data)
        assert len(similar) == 4
        assert [row.label for row in similar.rows] == [1, -1, 1, 1]
        assert [row.id for row in similar.rows] == ["u3", "u20", "u55", "u90"]
        assert all(row.source == SOURCE_SIMILAR for row in similar.rows)

    def test_imputed_values_transcribed_into_estimation_columns(self):
        data = unlabeled_rows(1)
        matches = [match("u0", 1, vote=0.9, imputed={"g0": 2.5, "g1": 7.0})]
        similar = build_similar_dataset(as_matches(matches), data)
        row = similar.rows[0]
        assert row.features["g0"] == 2.5
        assert row.features["g1"] == 7.0
        assert row.features["f0"] == 0.0 and row.features["f1"] == 0.0  # from the source row
        assert row.vote == 0.9
        assert row.matched_count == 3
        assert row.timestamp == data.rows[0].timestamp

    def test_null_imputations_stay_missing(self):
        data = unlabeled_rows(1)
        matches = [match("u0", -1, imputed={"g0": None, "g1": None})]
        similar = build_similar_dataset(as_matches(matches), data)
        assert "g0" not in similar.rows[0].features
        assert "g1" not in similar.rows[0].features

    def test_unknown_match_id_rejected(self):
        data = unlabeled_rows(2)
        with pytest.raises(AugmentError, match="ghost"):
            build_similar_dataset(as_matches([match("ghost", 1)]), data)

    def test_duplicate_match_id_rejected_even_when_abstaining(self):
        data = unlabeled_rows(2)
        with pytest.raises(AugmentError, match="duplicate match id 'u0'"):
            build_similar_dataset(as_matches([match("u0", 0), match("u1", 1), match("u0", 0)]), data)

    def test_row_count_equals_confident_count(self):
        rng = np.random.default_rng(21)
        _, labeled, unlabeled, ranges = random_instance(rng, n_labeled=15, n_unlabeled=60)
        results = match_batch(unlabeled, labeled, ranges, SimilarityParams(d=0.4, c=0.2))
        similar = build_similar_dataset(results, unlabeled)
        assert len(similar) == np.count_nonzero(results.estimates)


class TestMergeDatasets:
    def real_rows(self, n):
        return Dataset(
            SCHEMA,
            [
                make_sample(
                    f"r{i}",
                    {"f0": float(i), "f1": 0.0, "g0": 1.0, "g1": 2.0},
                    label=1 if i % 2 else -1,
                    ts=T0 + timedelta(hours=i),
                )
                for i in range(n)
            ],
            "real fixture",
        )

    def test_empty_similar_set_is_identity(self):
        real = self.real_rows(5)
        merged = merge_datasets(real, build_similar_dataset(as_matches([]), unlabeled_rows(0)))
        assert merged.rows == real.rows
        assert all(row.source == SOURCE_REAL for row in merged.rows)

    def test_80_real_plus_4_similar(self):
        real = self.real_rows(80)
        data = unlabeled_rows(10)
        matches = [match(f"u{i}", 1 if i % 2 else -1, imputed={"g0": 1.0, "g1": 1.0}) for i in range(4)]
        similar = build_similar_dataset(as_matches(matches), data)
        merged = merge_datasets(real, similar)
        assert len(merged) == 84
        flagged = [row for row in merged.rows if row.source == SOURCE_SIMILAR]
        assert len(flagged) == 4
        assert all(row.id.startswith(SIMILAR_ID_PREFIX) for row in flagged)

    def test_duplicate_id_across_real_and_similar_both_retained(self):
        real = Dataset(
            SCHEMA,
            [make_sample("x", {"f0": 0.0, "f1": 0.0, "g0": 0.0, "g1": 0.0}, label=1)],
            "real",
        )
        data = Dataset(SCHEMA, [make_sample("x", {"f0": 1.0, "f1": 1.0})], "unlabeled")
        similar = build_similar_dataset(as_matches([match("x", -1, imputed={"g0": None, "g1": None})]), data)
        merged = merge_datasets(real, similar)
        assert len(merged) == 2
        assert {row.id for row in merged.rows} == {"x", f"{SIMILAR_ID_PREFIX}x"}

    def test_real_id_that_carries_the_similar_prefix_is_refused(self):
        real = Dataset(SCHEMA, [make_sample(f"{SIMILAR_ID_PREFIX}u1", {"f0": 0.0, "f1": 0.0}, label=1)])
        similar = build_similar_dataset(as_matches([match("u1", 1)]), unlabeled_rows(3))
        with pytest.raises(AugmentError, match=f"^duplicate ids after merge: {SIMILAR_ID_PREFIX}u1$"):
            merge_datasets(real, similar)

    def test_duplicate_report_is_the_first_ten_ids_sorted(self):
        # similar:u0..u11 each clash with a similar row, similar:u3 a third time, and "r" twice among the real rows
        clashing = [f"{SIMILAR_ID_PREFIX}u{i}" for i in range(12)] + [f"{SIMILAR_ID_PREFIX}u3", "r", "r"]
        real = Dataset(SCHEMA, [make_sample(sid, {"f0": 0.0, "f1": 0.0}, label=1) for sid in clashing])
        similar = build_similar_dataset(as_matches([match(f"u{i}", 1) for i in range(12)]), unlabeled_rows(12))
        shown = ["r"] + sorted(f"{SIMILAR_ID_PREFIX}u{i}" for i in range(12))[:9]
        with pytest.raises(AugmentError, match=f"^duplicate ids after merge: {', '.join(shown)}$"):
            merge_datasets(real, similar)

    def test_schema_mismatch_rejected(self):
        real = self.real_rows(2)
        other = build_similar_dataset(as_matches([]), Dataset(make_schema(1, 0), [], "other"))
        with pytest.raises(AugmentError, match="schema"):
            merge_datasets(real, other)

    def test_filtering_real_rows_recovers_the_original(self):
        real = self.real_rows(10)
        data = unlabeled_rows(6)
        matches = [match(f"u{i}", 1, imputed={"g0": 0.5, "g1": None}) for i in range(6)]
        merged = merge_datasets(real, build_similar_dataset(as_matches(matches), data))
        recovered = [row for row in merged.rows if row.source == SOURCE_REAL]
        assert recovered == real.rows
