"""Matcher tests: calibration fixtures, hand-worked votes, and oracle equality."""

import json
import math
import tempfile
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import simlabel.dataset
import simlabel.kernel
import simlabel.matcher
from conftest import T0, make_sample, make_schema, match_dicts, random_instance
from oracles import gower_oracle, match_oracle
from simlabel.dataset import Dataset
from simlabel.errors import DataError, KernelError, MatcherError
from simlabel.kernel import RangeTable, compute_ranges, gower_similarity
from simlabel.matcher import (
    Matches,
    SimilarityParams,
    calibrate,
    calibrate_confidence_threshold,
    calibrate_similarity_threshold,
    contributors_to_json_chunks,
    contributors_to_json_dict,
    labeled_similarity_distribution,
    load_matches,
    match_batch,
    matches_to_csv_text,
    nearest_rank,
    pairwise_similarities,
    unlabeled_votes,
)

SCHEMA_1D = make_schema(1, 1)  # one similarity feature f0, one estimation feature g0
LINE = RangeTable(ranges={"f0": 1.0}, bounds={"f0": (0.0, 1.0)})


def labeled_line(points):
    """Labeled rows on the unit interval: (position, label, optional g0)."""
    rows = []
    for i, spec in enumerate(points):
        position, label = spec[0], spec[1]
        feats = {"f0": position}
        if len(spec) > 2 and spec[2] is not None:
            feats["g0"] = spec[2]
        rows.append(make_sample(f"l{i}", feats, label=label, ts=T0 + timedelta(hours=i)))
    return Dataset(SCHEMA_1D, rows, "line labeled")


def match_rows(matches, schema):
    """match_dicts of matches, each with its top contributors as (id, similarity) pairs under "top"."""
    tops = contributors_to_json_dict(matches).values()
    return [{**row, "top": top} for row, top in zip(match_dicts(matches, schema.estimation_features), tops)]


def estimate_label(u, labeled, ranges, params):
    """match_rows of match_batch on the one-row dataset of u."""
    [result] = match_rows(match_batch(Dataset(labeled.schema, [u]), labeled, ranges, params), labeled.schema)
    return result


def sorted_pairs(labeled, ranges):
    """The labeled pairwise similarities ascending, as calibrate passes them to the d rules."""
    return np.sort(pairwise_similarities(labeled, ranges))


def unlabeled_line(positions):
    rows = [
        make_sample(f"u{i}", {"f0": p}, ts=T0 + timedelta(hours=i))
        for i, p in enumerate(positions)
    ]
    return Dataset(SCHEMA_1D, rows, "line unlabeled")


class TestSimilarityParams:
    def test_bounds_enforced(self):
        with pytest.raises(MatcherError):
            SimilarityParams(d=1.5, c=0.5)
        with pytest.raises(MatcherError):
            SimilarityParams(d=0.5, c=-0.1)

    def test_json_roundtrip(self):
        params = SimilarityParams(d=0.9, c=0.4, provenance="manual")
        assert SimilarityParams.from_json_dict(params.to_json_dict()) == params


class TestNearestRank:
    def test_ten_scores_fixture(self):
        scores = [round(0.1 * k, 1) for k in range(1, 11)]
        assert nearest_rank(scores, 0.95) == 1.0  # index ceil(9.5) - 1 = 9

    def test_single_value(self):
        assert nearest_rank([0.7], 0.95) == 0.7
        assert nearest_rank([0.7], 0.0) == 0.7

    def test_percentile_zero_takes_minimum(self):
        assert nearest_rank([0.1, 0.5, 0.9], 0.0) == 0.1

    def test_percentile_one_takes_maximum(self):
        assert nearest_rank([0.1, 0.5, 0.9], 1.0) == 0.9


class TestCalibrateSimilarityThreshold:
    def test_identical_rows_give_constant_similarity(self):
        rows = [(0.5, 1), (0.5, -1), (0.5, 1)]
        for percentile in (0.05, 0.5, 0.95):
            assert calibrate_similarity_threshold(sorted_pairs(labeled_line(rows), LINE), percentile) == 1.0

    def test_two_rows_any_percentile_returns_their_similarity(self):
        data = labeled_line([(0.0, 1), (0.25, -1)])
        expected = 1.0 - 0.25
        for percentile in (0.0, 0.5, 0.95, 1.0):
            assert calibrate_similarity_threshold(sorted_pairs(data, LINE), percentile) == expected

    def test_default_percentile_is_95(self):
        rng = np.random.default_rng(0)
        _, labeled, _, ranges = random_instance(rng, n_labeled=8, n_unlabeled=1)
        assert calibrate_similarity_threshold(sorted_pairs(labeled, ranges)) == calibrate_similarity_threshold(
            sorted_pairs(labeled, ranges), 0.95
        )

    def test_matches_hand_indexed_sorted_pairwise_list(self):
        rng = np.random.default_rng(1)
        _, labeled, _, ranges = random_instance(rng, n_labeled=10, n_unlabeled=1)
        pairs = []
        rows = labeled.rows
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                pairs.append(gower_oracle(rows[i].features, rows[j].features, ranges.ranges))
        pairs.sort()
        for percentile in (0.1, 0.5, 0.9, 0.95):
            index = min(max(math.ceil(percentile * len(pairs)) - 1, 0), len(pairs) - 1)
            assert calibrate_similarity_threshold(sorted_pairs(labeled, ranges), percentile) == pairs[index]

    def test_needs_two_rows(self):
        with pytest.raises(MatcherError, match="at least 2"):
            calibrate(labeled_line([(0.0, 1)]), unlabeled_line([0.5]), LINE)

    def test_distribution_diagnostic(self):
        data = labeled_line([(0.0, 1), (0.5, -1), (1.0, 1)])
        dist = labeled_similarity_distribution(sorted_pairs(data, LINE))
        assert dist["pairs"] == 3
        assert dist["min"] == 0.0 and dist["max"] == 0.5


class TestCalibrateConfidenceThreshold:
    def test_hundred_votes_budget_five_percent(self):
        # two labeled rows at the ends of the unit interval with opposite labels:
        # an unlabeled row at position p has vote t = 1 - 2p, so |t| is exact
        labeled = labeled_line([(0.0, 1), (1.0, -1)])
        positions = [i / 250 for i in range(1, 101)]  # distinct |t| = 1 - 2i/250
        unlabeled = unlabeled_line(positions)
        c = calibrate_confidence_threshold(unlabeled_votes(unlabeled, labeled, LINE, 0.0), target_fraction=0.05)

        votes = [abs(t) for t in unlabeled_votes(unlabeled, labeled, LINE, 0.0)]
        expected = sorted(votes, reverse=True)[4]  # 5th largest keeps 4 strictly above
        assert c == expected
        assert c == pytest.approx(1.0 - 10 / 250, abs=1e-12)
        assigned = sum(1 for v in votes if v > c)
        assert assigned == 4

    def test_c_of_one_assigns_nothing(self):
        labeled = labeled_line([(0.0, 1), (0.05, 1)])
        unlabeled = unlabeled_line([0.01, 0.02])
        params = SimilarityParams(d=0.5, c=1.0)
        matches = match_batch(unlabeled, labeled, LINE, params)
        assert matches.estimates.tolist() == [0, 0]
        assert matches.votes.tolist() == [1.0, 1.0]  # pure votes, still below the strict bound

    def test_no_defined_votes_returns_one(self):
        labeled = labeled_line([(0.0, 1), (0.1, -1)])
        unlabeled = unlabeled_line([0.9, 0.95])  # nothing within d
        assert calibrate_confidence_threshold(unlabeled_votes(unlabeled, labeled, LINE, 0.5)) == 1.0

    def test_zero_budget_returns_one(self):
        labeled = labeled_line([(0.0, 1), (1.0, -1)])
        unlabeled = unlabeled_line([0.1, 0.2])
        assert (
            calibrate_confidence_threshold(unlabeled_votes(unlabeled, labeled, LINE, 0.0), target_fraction=0.0)
            == 1.0
        )

    def test_empty_unlabeled_rejected(self):
        labeled = labeled_line([(0.0, 1), (1.0, -1)])
        with pytest.raises(MatcherError, match="non-empty"):
            calibrate_confidence_threshold(unlabeled_votes(Dataset(SCHEMA_1D, []), labeled, LINE, 0.5))

    def test_calibrate_refuses_empty_unlabeled_even_with_both_thresholds_given(self):
        # no rule runs then, and the matched fraction would divide by zero
        labeled = labeled_line([(0.0, 1), (1.0, -1)])
        with pytest.raises(MatcherError, match="non-empty"):
            calibrate(labeled, Dataset(SCHEMA_1D, []), LINE, d=0.5, c=0.5)

    def test_budget_respected_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            _, labeled, unlabeled, ranges = random_instance(
                rng, n_labeled=12, n_unlabeled=40, missing_rate=0.0
            )
            d = calibrate_similarity_threshold(sorted_pairs(labeled, ranges), 0.8)
            votes = unlabeled_votes(unlabeled, labeled, ranges, d)
            c = calibrate_confidence_threshold(votes, 0.1)
            assigned = sum(1 for t in votes.tolist() if not math.isnan(t) and abs(t) > c)
            assert assigned / len(unlabeled.rows) < 0.1


# a few repeated values make ties likely; NaN is an undefined vote
VOTE = st.sampled_from([math.nan, 0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0]) | st.floats(-1.0, 1.0)
UNIT = st.sampled_from([0.0, 0.05, 0.5, 1.0]) | st.floats(0.0, 1.0)


class TestCalibrationRulesOverArrays:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(VOTE, min_size=1, max_size=30), UNIT)
    @example([0.5, -0.5, 0.25, math.nan], 0.5)  # a tie at c
    @example([0.0, -0.0, math.nan], 1.0)
    @example([math.nan, math.nan], 1.0)
    @example([-1.0, 1.0, 0.3], 0.0)
    def test_c_is_the_smallest_observed_magnitude_under_budget(self, votes, fraction):
        magnitudes = [abs(t) for t in votes if not math.isnan(t)]
        under = [m for m in magnitudes if sum(other > m for other in magnitudes) / len(votes) < fraction]
        c = calibrate_confidence_threshold(np.array(votes), fraction)
        assert type(c) is float
        assert c == (min(under) if under else 1.0)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=30), UNIT)
    @example([0.75], 0.95)  # a single pair
    @example([0.5, 0.75, 0.75, 0.75, 1.0], 0.5)  # a tie at d
    @example([0.5, 0.5], 0.0)
    def test_d_is_the_value_at_the_nearest_rank_index(self, sims, percentile):
        ordered = sorted(sims)
        index = min(max(math.ceil(percentile * len(ordered)) - 1, 0), len(ordered) - 1)
        d = calibrate_similarity_threshold(np.sort(np.array(sims)), percentile)
        assert type(d) is float
        assert d == ordered[index]


class TestEstimateLabel:
    def test_unmatched_sample_abstains(self):
        labeled = labeled_line([(0.0, 1, 5.0), (0.1, -1, 6.0)])
        u = make_sample("u", {"f0": 0.9})
        result = estimate_label(u, labeled, LINE, SimilarityParams(d=0.5, c=0.3))
        assert result == {"id": "u", "t": None, "y_hat": 0, "imputed": None, "matched_count": 0, "top": []}

    def test_single_confident_neighbor(self):
        labeled = labeled_line([(0.03, 1, 7.5), (0.9, -1, 1.0)])
        u = make_sample("u", {"f0": 0.0})
        result = estimate_label(u, labeled, LINE, SimilarityParams(d=0.9, c=0.5))
        assert result["t"] == 1.0
        assert result["y_hat"] == 1
        assert result["matched_count"] == 1
        assert result["top"][0][0] == "l0"
        assert result["top"][0][1] == pytest.approx(0.97, abs=1e-12)
        assert result["imputed"]["g0"] == pytest.approx(7.5, abs=1e-12)

    def test_three_neighbor_hand_vote(self):
        labeled = labeled_line([(0.04, 1, 2.0), (0.06, 1, 4.0), (0.08, -1, 6.0)])
        u = make_sample("u", {"f0": 0.0})
        w1, w2, w3 = 1.0 - 0.04, 1.0 - 0.06, 1.0 - 0.08
        expected_t = (w1 + w2 - w3) / (w1 + w2 + w3)

        low_c = estimate_label(u, labeled, LINE, SimilarityParams(d=0.9, c=0.3))
        assert low_c["t"] == expected_t
        assert low_c["t"] == pytest.approx(0.3475, abs=1e-4)
        assert low_c["y_hat"] == 1
        assert low_c["matched_count"] == 3
        expected_g0 = (w1 * 2.0 + w2 * 4.0 + w3 * 6.0) / (w1 + w2 + w3)
        assert low_c["imputed"]["g0"] == expected_g0

        high_c = estimate_label(u, labeled, LINE, SimilarityParams(d=0.9, c=0.5))
        assert high_c["y_hat"] == 0
        assert high_c["imputed"] is None
        assert high_c["t"] == expected_t

    def test_imputation_skips_contributors_missing_the_feature(self):
        labeled = labeled_line([(0.02, 1, 3.0), (0.04, 1, None)])
        u = make_sample("u", {"f0": 0.0})
        result = estimate_label(u, labeled, LINE, SimilarityParams(d=0.9, c=0.5))
        assert result["matched_count"] == 2
        assert result["imputed"]["g0"] == pytest.approx(3.0, abs=1e-12)

    def test_feature_missing_in_all_contributors_imputes_null(self):
        labeled = labeled_line([(0.02, 1, None), (0.04, 1, None)])
        u = make_sample("u", {"f0": 0.0})
        result = estimate_label(u, labeled, LINE, SimilarityParams(d=0.9, c=0.5))
        assert result["y_hat"] == 1
        assert result["imputed"] == {"g0": None}

    def test_threshold_tie_excluded(self):
        labeled = labeled_line([(0.1, 1)])
        u = make_sample("u", {"f0": 0.0})
        sim = 1.0 - 0.1
        result = estimate_label(u, labeled, LINE, SimilarityParams(d=sim, c=0.1))
        assert result["matched_count"] == 0  # strict k > d

    def test_top_contributors_capped_and_sorted(self):
        points = [(0.001 * i, 1) for i in range(1, 16)]
        labeled = labeled_line(points)
        u = make_sample("u", {"f0": 0.0})
        result = estimate_label(u, labeled, LINE, SimilarityParams(d=0.5, c=0.1))
        assert result["matched_count"] == 15
        assert len(result["top"]) == 10
        sims = [s for _, s in result["top"]]
        assert sims == sorted(sims, reverse=True)
        assert result["top"][0][0] == "l0"

    def test_top_contributor_ties_keep_labeled_order(self):
        labeled = labeled_line([(0.02 if i % 3 else 0.01, 1) for i in range(40)])
        result = estimate_label(make_sample("u", {"f0": 0.0}), labeled, LINE, SimilarityParams(d=0.5, c=0.1))
        expected = [f"l{i}" for i in range(0, 40, 3)][:10]
        assert [cid for cid, _ in result["top"]] == expected

    def test_invalid_labels_rejected(self):
        rows = [make_sample("l0", {"f0": 0.0})]  # unlabeled row in the labeled set
        data = Dataset(SCHEMA_1D, rows)
        with pytest.raises(MatcherError, match="without a -1/\\+1 label"):
            estimate_label(make_sample("u", {"f0": 0.0}), data, LINE, SimilarityParams(d=0.5, c=0.5))


class TestMatchBatch:
    def test_empty_unlabeled_gives_empty_result(self):
        labeled = labeled_line([(0.0, 1), (1.0, -1)])
        matches = match_batch(Dataset(SCHEMA_1D, []), labeled, LINE, SimilarityParams(d=0.5, c=0.5))
        assert len(matches) == 0
        assert matches.imputed.shape == (0, 1) and matches.top_ids.shape == (0, 2)

    def test_batch_equals_per_row_calls(self):
        rng = np.random.default_rng(3)
        _, labeled, unlabeled, ranges = random_instance(rng, n_labeled=15, n_unlabeled=40)
        params = SimilarityParams(d=0.6, c=0.2)
        batch = match_rows(match_batch(unlabeled, labeled, ranges, params), labeled.schema)
        assert batch == [estimate_label(row, labeled, ranges, params) for row in unlabeled.rows]

    def test_empty_labeled_matches_nothing(self):
        # a test.csv with a header and no rows hands match a zero-row block
        unlabeled = unlabeled_line([0.0, 0.5, 1.0])
        matches = match_batch(unlabeled, Dataset(SCHEMA_1D, []), LINE, SimilarityParams(d=0.5, c=0.5))
        assert np.isnan(matches.votes).all() and matches.votes.shape == (3,)
        assert matches.estimates.tolist() == [0, 0, 0] and matches.matched.tolist() == [0, 0, 0]
        assert np.isnan(matches.imputed).all() and matches.imputed.shape == (3, 1)
        assert matches.top_ids.shape == (3, 0) and matches.top_sims.shape == (3, 0)
        assert np.isnan(unlabeled_votes(unlabeled, Dataset(SCHEMA_1D, []), LINE, 0.5)).all()

    def test_contributor_arrays_are_padded_past_the_matched_count(self):
        labeled = labeled_line([(0.0, 1), (0.05, -1), (0.5, 1)])
        matches = match_batch(unlabeled_line([0.0, 0.9]), labeled, LINE, SimilarityParams(d=0.9, c=0.5))
        assert matches.matched.tolist() == [2, 0]
        assert matches.top_ids.tolist() == [["l0", "l1", None], [None, None, None]]
        assert matches.top_sims[0, :2].tolist() == [1.0, 0.95] and np.isnan(matches.top_sims[:, 2]).all()

    def test_block_size_never_changes_results(self, monkeypatch):
        rng = np.random.default_rng(15)
        for n_labeled in (3, 15):  # 2 unlabeled rows a block, then 1 with a split pairs pass
            _, labeled, unlabeled, ranges = random_instance(
                rng, n_labeled=n_labeled, n_unlabeled=23, missing_rate=0.3
            )
            params = SimilarityParams(d=0.3, c=0.1)

            def passes():
                return (
                    match_batch(unlabeled, labeled, ranges, params),
                    unlabeled_votes(unlabeled, labeled, ranges, params.d),
                    pairwise_similarities(labeled, ranges),
                )

            calls = []
            real = simlabel.kernel.similarity_block

            def counted(left, right, ranges):
                calls.append(len(right))
                return real(left, right, ranges)

            monkeypatch.setattr(simlabel.kernel, "similarity_block", counted)
            default = passes()
            default_calls = len(calls)
            assert not np.isnan(default[0].imputed).all()
            monkeypatch.setattr(simlabel.matcher, "BLOCK_PAIRS", 7)
            calls.clear()
            matches, votes, pairs = passes()
            assert len(calls) > default_calls  # the smaller blocks took effect
            assert matches.ids == default[0].ids
            assert np.array_equal(matches.top_ids, default[0].top_ids)
            for name in ("votes", "estimates", "matched", "imputed", "top_sims"):
                assert np.array_equal(getattr(matches, name), getattr(default[0], name), equal_nan=True), name
            assert np.array_equal(votes, default[1], equal_nan=True)
            assert np.array_equal(pairs, default[2])
            monkeypatch.undo()

    def test_schema_mismatch_rejected(self):
        labeled = labeled_line([(0.0, 1), (1.0, -1)])
        other = Dataset(make_schema(2, 0), [])
        with pytest.raises(MatcherError, match="schema"):
            match_batch(other, labeled, LINE, SimilarityParams(d=0.5, c=0.5))

    def test_row_error_names_the_offending_row(self):
        labeled = labeled_line([(0.0, 1), (1.0, -1)])
        bad = Dataset(
            SCHEMA_1D, [make_sample("ghost", {"g0": 1.0})], "no similarity features present"
        )
        with pytest.raises(Exception, match="ghost"):
            match_batch(bad, labeled, LINE, SimilarityParams(d=0.5, c=0.5))

    def test_overflowing_difference_is_named_not_called_unshared(self):
        # f0's spread 1e308 - (-1e308) is inf, and so is |l0 - l1| there: inf / inf is NaN,
        # though the two rows carry both features
        schema = make_schema(2, 0)
        points = [(1e308, 0.5), (-1e308, 0.25), (0.0, 0.75), (1.0, 0.5), (2.0, 0.1)]
        labeled = Dataset(schema, [
            make_sample(f"l{i}", {"f0": f0, "f1": f1}, label=1 - 2 * (i % 2), ts=T0 + timedelta(hours=i))
            for i, (f0, f1) in enumerate(points)])
        ranges = compute_ranges([labeled], schema)
        assert math.isinf(ranges.ranges["f0"])
        overflow = "their difference in feature 'f0' overflows the float range"
        with pytest.raises(KernelError, match=f"^samples 'l0' and 'l1': {overflow}"):
            pairwise_similarities(labeled, ranges)
        with pytest.raises(KernelError, match=f"^samples 'l0' and 'l1': {overflow}"):
            gower_similarity(labeled.rows[0], labeled.rows[1], ranges)
        unlabeled = Dataset(schema, [make_sample("u0", {"f0": -1e308, "f1": 0.5})])
        with pytest.raises(KernelError, match=f"^samples 'l0' and 'u0': {overflow}"):
            match_batch(unlabeled, labeled, ranges, SimilarityParams(d=0.5, c=0.5))


class TestMatcherProperties:
    def test_vote_bounds_and_purity(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            _, labeled, unlabeled, ranges = random_instance(rng, n_labeled=10, n_unlabeled=25)
            params = SimilarityParams(d=float(rng.uniform(0.3, 0.9)), c=0.3)
            for result in match_rows(match_batch(unlabeled, labeled, ranges, params), labeled.schema):
                if result["t"] is None:
                    assert result["y_hat"] == 0
                    continue
                assert -1.0 <= result["t"] <= 1.0
                contributing = {
                    labeled.by_id()[cid].label for cid, _ in result["top"]
                }
                if result["t"] == 1.0:
                    assert contributing == {1}
                if result["t"] == -1.0:
                    assert contributing == {-1}

    def test_raising_c_never_adds_assignments(self):
        rng = np.random.default_rng(10)
        _, labeled, unlabeled, ranges = random_instance(rng, n_labeled=12, n_unlabeled=50)
        counts = []
        for c in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            results = match_batch(unlabeled, labeled, ranges, SimilarityParams(d=0.5, c=c))
            counts.append(np.count_nonzero(results.estimates))
        assert counts == sorted(counts, reverse=True)

    def test_raising_d_never_adds_matches(self):
        rng = np.random.default_rng(11)
        _, labeled, unlabeled, ranges = random_instance(rng, n_labeled=12, n_unlabeled=30)
        previous = None
        for d in (0.2, 0.4, 0.6, 0.8):
            results = match_batch(unlabeled, labeled, ranges, SimilarityParams(d=d, c=0.5))
            counts = results.matched.tolist()
            if previous is not None:
                assert all(now <= before for now, before in zip(counts, previous))
            previous = counts

    def test_imputed_values_stay_in_contributor_hull(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            _, labeled, unlabeled, ranges = random_instance(
                rng, n_labeled=10, n_unlabeled=20, missing_rate=0.3
            )
            results = match_batch(unlabeled, labeled, ranges, SimilarityParams(d=0.3, c=0.1))
            by_id = labeled.by_id()
            for result in match_rows(results, labeled.schema):
                if not result["imputed"]:
                    continue
                contributors = [by_id[cid] for cid, _ in result["top"]]
                for feature, value in result["imputed"].items():
                    if value is None:
                        continue
                    seen = [
                        row.features[feature]
                        for row in contributors
                        if feature in row.features
                    ]
                    if seen:  # the cap can hide contributors; check only when visible
                        assert min(seen) - 1e-9 <= value <= max(seen) + 1e-9

    def test_negating_labels_negates_votes(self):
        rng = np.random.default_rng(13)
        _, labeled, unlabeled, ranges = random_instance(rng, n_labeled=12, n_unlabeled=40)
        flipped_rows = [
            make_sample(row.id, row.features, label=-row.label, ts=row.timestamp)
            for row in labeled.rows
        ]
        flipped = Dataset(labeled.schema, flipped_rows, "flipped")
        params = SimilarityParams(d=0.4, c=0.25)
        original = match_rows(match_batch(unlabeled, labeled, ranges, params), labeled.schema)
        negated = match_rows(match_batch(unlabeled, flipped, ranges, params), labeled.schema)
        for a, b in zip(original, negated):
            if a["t"] is None:
                assert b["t"] is None
            else:
                assert b["t"] == pytest.approx(-a["t"], abs=1e-12)
            assert b["y_hat"] == -a["y_hat"]
            assert b["matched_count"] == a["matched_count"]

    def test_exact_oracle_agreement_on_random_instances(self):
        rng = np.random.default_rng(14)
        ties_at_c = 0
        # instances 30-59 put the similarity values on a coarse grid with f0 constant
        # (a zero-range feature), and take d and c from the oracle's own similarities
        # and |t| values, so some pairs tie exactly at d and some votes exactly at c
        for instance in range(60):
            schema, labeled, unlabeled, ranges = random_instance(
                rng,
                n_labeled=int(rng.integers(2, 31)),
                n_unlabeled=int(rng.integers(1, 60)),
                n_sim=int(rng.integers(1, 6)),
                n_est=2,
                missing_rate=0.25,
            )
            d = float(rng.uniform(0.2, 0.9))
            c = float(rng.uniform(0.0, 0.9))

            def oracle(data_d, data_c):
                return match_oracle(
                    [(row.id, row.features) for row in unlabeled.rows],
                    [(row.id, row.features, row.label) for row in labeled.rows],
                    ranges.ranges,
                    list(schema.estimation_features),
                    data_d,
                    data_c,
                )

            if instance >= 30:
                def coarse(data):
                    rows = [replace(row, features={
                        name: (1.0 if name == "f0" else round(value) / 2.0) if name.startswith("f") else value
                        for name, value in row.features.items()
                    }) for row in data.rows]
                    return Dataset(schema, rows, data.provenance)

                labeled, unlabeled = coarse(labeled), coarse(unlabeled)
                ranges = compute_ranges([labeled, unlabeled], schema)
                assert ranges.ranges["f0"] == 0.0
                sims = sorted({
                    gower_oracle(lrow.features, urow.features, ranges.ranges)
                    for lrow in labeled.rows
                    for urow in unlabeled.rows
                })
                d = sims[int(rng.integers(len(sims)))]
                votes = sorted({abs(ref["t"]) for ref in oracle(d, 0.0) if ref["t"] is not None})
                if votes:
                    c = votes[int(rng.integers(len(votes)))]
                    ties_at_c += 1
            got = match_batch(unlabeled, labeled, ranges, SimilarityParams(d=d, c=c))
            expected = oracle(d, c)
            assert match_dicts(got, schema.estimation_features) == expected
        assert ties_at_c >= 10


@st.composite
def tied_similarity_blocks(draw):
    """A (labeled, unlabeled) block of 1 to 25 labeled rows on a coarse grid of values, so most columns tie
    at their width-th value and some are entirely equal, with a width from 1 to 10."""
    n_labeled, levels = draw(st.integers(1, 25)), draw(st.integers(1, 5))
    value = st.integers(0, levels - 1)
    column = st.lists(value, min_size=n_labeled, max_size=n_labeled) | value.map(lambda v: [v] * n_labeled)
    columns = draw(st.lists(column, max_size=8))
    sims = np.array(columns, dtype=np.float64).reshape(len(columns), n_labeled).T / levels
    return sims, draw(st.integers(1, 10))


class TestTopRows:
    @given(tied_similarity_blocks())
    @settings(max_examples=400, deadline=None)
    def test_top_rows_equal_the_stable_argsort(self, case):
        sims, width = case
        rows, values = simlabel.matcher._top_rows(sims, width)
        order = np.argsort(-sims, axis=0, kind="stable")[:width]
        assert np.array_equal(rows, order.T)
        assert np.array_equal(values, np.take_along_axis(sims, order, axis=0).T)


# sums whose value depends on the order of their terms (1e16 + 1.0 rounds back to 1e16), signed zeros and subnormals
TERM_VALUES = st.sampled_from([1e16, 1.0, -1e16, -0.0, 0.0, 5e-324, -5e-324, 1e-310]) | st.floats(-1e300, 1e300)


@st.composite
def contributor_blocks(draw):
    """(similarities, d, per-row values): ties at d, columns with nothing above d, order-sensitive sums."""
    d = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0))
    n_rows, n_cols = draw(st.integers(0, 12)), draw(st.integers(0, 5))
    sim = st.sampled_from([d, 1.0, 0.0]) | st.floats(0.0, 1.0)
    sims = draw(st.lists(st.lists(sim, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows))
    values = draw(st.lists(TERM_VALUES, min_size=n_rows, max_size=n_rows))
    return np.array(sims, dtype=np.float64).reshape(n_rows, n_cols), d, np.array(values, dtype=np.float64)


class TestWeightedMeans:
    # np.bincount adding each column's terms in the order given is how numpy is written, not a
    # documented contract; the matcher's agreement with the per-pair loop rests on it
    @given(contributor_blocks())
    @example((np.array([[1.0, 0.5], [1.0, 0.5], [1.0, 0.5]]), 0.5, np.array([1e16, 1.0, -1e16])))
    @settings(max_examples=400, deadline=None)
    def test_nonzero_entries_sum_as_a_python_loop(self, case):
        sims, d, values = case
        rows, cols = np.nonzero(sims > d)
        got = simlabel.matcher._weighted_means(cols, sims[rows, cols], values[rows], sims.shape[1])
        want = []
        for j in range(sims.shape[1]):
            num = den = 0.0
            for i in range(sims.shape[0]):
                if sims[i, j] > d:
                    num += sims[i, j] * values[i]
                    den += sims[i, j]
            want.append(num / den if den else math.nan)
        want = np.array(want, dtype=np.float64)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()


IDS = st.text(max_size=4) | st.text(
    alphabet=st.sampled_from(['"', "\\", "\n", "\r", "\x00", "\x7f", "a", "é", "\u2028", "𝄞", ",", " "]), max_size=4)
SIMILARITIES = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 5e-324, 1e16, 1e-05, 1.7976931348623157e308, math.nan, math.inf, -math.inf])
CONTRIBUTOR = st.tuples(IDS, SIMILARITIES)
CELLS = st.sampled_from([math.nan, -0.0, 5e-324, -5e-324])
# (id, t, whether the row is confident, matched_count, imputed g0 and g1); a confident row's y_hat is t's sign
MATCH_ROW = st.tuples(IDS, st.floats(-1.0, 1.0) | CELLS, st.booleans(), st.integers(0, 2**53),
                      st.lists(st.floats(allow_nan=False, allow_infinity=False) | CELLS, min_size=2, max_size=2))


class TestMatchSerialization:
    def test_csv_roundtrip(self):
        rng = np.random.default_rng(15)
        schema, labeled, unlabeled, ranges = random_instance(rng, n_labeled=10, n_unlabeled=25)
        results = match_batch(unlabeled, labeled, ranges, SimilarityParams(d=0.4, c=0.2))
        text = "".join(matches_to_csv_text(results, schema.estimation_features))
        assert text.splitlines()[0] == "id,t,y_hat,matched_count,g0,g1"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "match.csv"
            path.write_text(text, encoding="utf-8")
            loaded = load_matches(path, schema.estimation_features)
        assert match_dicts(loaded, schema.estimation_features) == match_dicts(results, schema.estimation_features)
        assert loaded.top_ids.shape == loaded.top_sims.shape == (len(results), 0)

    @pytest.mark.parametrize("row", ["u1,0.5,1,2,1.0", "u1,0.5,1,2,1.0,2.0,3.0"])
    def test_row_with_the_wrong_column_count_is_refused(self, tmp_path, row):
        path = tmp_path / "match.csv"
        path.write_text(f"id,t,y_hat,matched_count,g0,g1\nu0,0,0,0,,\n{row}\n", encoding="utf-8")
        columns = len(row.split(","))
        with pytest.raises(MatcherError, match=f": row 2 has {columns} columns$"):
            load_matches(path, ["g0", "g1"])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(MATCH_ROW, max_size=6))
    @example([("u", 5e-324, True, 2**53, [-0.0, math.nan]), ("", math.nan, True, 0, [1.0, 5e-324]),
              ("w", -0.0, True, 1, [0.5, 0.5]), ("x", -5e-324, True, 3, [-5e-324, 1e16])])
    @example([("a\rb", 0.5, True, 1, [1.0, 2.0])])
    def test_csv_text_round_trips_through_load_matches(self, rows):
        n = len(rows)
        estimates = [int(np.sign(vote)) if confident and not math.isnan(vote) else 0 for _, vote, confident, *_ in rows]
        matches = Matches(
            ids=[uid for uid, *_ in rows],
            votes=np.array([vote for _, vote, *_ in rows], dtype=np.float64),
            estimates=np.array(estimates, dtype=np.int64),
            matched=np.array([count for *_, count, _ in rows], dtype=np.int64),
            imputed=np.array([values if y_hat else [math.nan] * 2
                              for (*_, values), y_hat in zip(rows, estimates)]).reshape(n, 2),
            top_ids=np.empty((n, 0), dtype=object),
            top_sims=np.empty((n, 0)),
        )
        if any("\r" in uid for uid in matches.ids):
            with pytest.raises(DataError, match="carriage return"):
                "".join(matches_to_csv_text(matches, ["g0", "g1"]))
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "match.csv"
            path.write_text("".join(matches_to_csv_text(matches, ["g0", "g1"])), encoding="utf-8")
            loaded = load_matches(path, ["g0", "g1"])
        assert loaded.ids == matches.ids
        for name in ("votes", "estimates", "matched", "imputed"):
            # repr tells -0.0 from 0.0 and writes every NaN alike
            assert list(map(repr, getattr(loaded, name).ravel().tolist())) == list(
                map(repr, getattr(matches, name).ravel().tolist())), name

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(IDS, st.lists(CONTRIBUTOR, max_size=4), max_size=5), st.integers(0, 2))
    @example({}, 0)
    @example({"": []}, 0)
    @example({"u": [("l", math.nan), ("", -math.inf)], "v": [], "w": [("𝄞\x00", -0.0)]}, 1)
    def test_contributors_json_text_is_the_json_dump(self, payload, padding):
        # each row's contributors, then None ids and NaN similarities padding every row to one width
        n, width = len(payload), max(map(len, payload.values()), default=0) + padding
        top_ids, top_sims = np.full((n, width), None, dtype=object), np.full((n, width), math.nan)
        for i, contributors in enumerate(payload.values()):
            for j, (lid, sim) in enumerate(contributors):
                top_ids[i, j], top_sims[i, j] = lid, sim
        matches = Matches(ids=list(payload), votes=np.zeros(n), estimates=np.zeros(n, dtype=np.int64),
                          matched=np.array([len(c) for c in payload.values()], dtype=np.int64),
                          imputed=np.empty((n, 0)), top_ids=top_ids, top_sims=top_sims)
        text = "".join(contributors_to_json_chunks(matches))
        assert text == json.dumps(contributors_to_json_dict(matches)) + "\n"
        assert text == json.dumps(payload) + "\n"

    @pytest.mark.parametrize("chunk_rows", [1, 7])
    @pytest.mark.parametrize("n", [0, 1, 15])  # 15 rows cross a block boundary at either size
    def test_contributor_chunks_join_to_the_whole_sidecar(self, monkeypatch, chunk_rows, n):
        schema, labeled, unlabeled, ranges = random_instance(np.random.default_rng(n), 12, n)
        matches = match_batch(unlabeled, labeled, ranges, SimilarityParams(d=0.4, c=0.2))
        whole = json.dumps(contributors_to_json_dict(matches)) + "\n"
        blocks = []
        real = simlabel.matcher.contributors_to_json_dict

        def counted(matches, rows):
            blocks.append(rows)
            return real(matches, rows)

        monkeypatch.setattr(simlabel.dataset, "CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr(simlabel.matcher, "contributors_to_json_dict", counted)
        chunks = list(contributors_to_json_chunks(matches))
        assert "".join(chunks) == whole
        assert len(blocks) == -(-n // chunk_rows)  # one payload a block
        assert len(chunks) == len(blocks) + 1  # and the closing brace, or the one "{}" of no rows
        if n:
            assert any(top for top in contributors_to_json_dict(matches).values())
