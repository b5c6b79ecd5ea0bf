"""AUC, McNemar, and report-shape tests."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_sample, make_schema
from oracles import auc_pairs_oracle, chi_square_1dof_p, exact_binomial_p
from simlabel.dataset import Dataset
from simlabel.errors import EvalError
from simlabel.evaluation import (
    EvalReport,
    auc_roc,
    classify,
    evaluate_table,
    load_report,
    mcnemar_test,
    save_report,
)
from simlabel.model import ScoreFile

SCHEMA = make_schema(1, 0)


def label_set(labels):
    rows = [
        make_sample(f"t{i}", {"f0": float(i)}, label=label) for i, label in enumerate(labels)
    ]
    return Dataset(SCHEMA, rows, "eval fixture")


def scorefile(values, name="m"):
    return ScoreFile(rows=tuple((f"t{i}", float(v)) for i, v in enumerate(values)), model_name=name)


class TestAucRoc:
    def test_perfect_separation_scores_one(self):
        labels = [-1, -1, 1, 1]
        scores = scorefile([0.1, 0.2, 0.8, 0.9])
        assert auc_roc(scores, label_set(labels)) == 1.0

    def test_identical_scores_give_half(self):
        labels = [-1, 1, -1, 1]
        scores = scorefile([0.5, 0.5, 0.5, 0.5])
        assert auc_roc(scores, label_set(labels)) == 0.5

    def test_four_sample_fixture_yields_three_quarters(self):
        labels = [1, -1, 1, -1]
        scores = scorefile([0.9, 0.8, 0.4, 0.2])
        assert auc_roc(scores, label_set(labels)) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(EvalError, match="both classes"):
            auc_roc(scorefile([0.1, 0.9]), label_set([1, 1]))

    def test_missing_ids_reported(self):
        scores = ScoreFile(rows=(("t0", 0.5),), model_name="m")
        with pytest.raises(EvalError, match="missing"):
            auc_roc(scores, label_set([1, -1]))

    def test_unlabeled_test_rows_rejected(self):
        rows = [
            make_sample("t0", {"f0": 0.0}, label=1),
            make_sample("t1", {"f0": 1.0}),
        ]
        with pytest.raises(EvalError, match="without labels"):
            auc_roc(scorefile([0.5, 0.5]), Dataset(SCHEMA, rows))

    def test_matches_pair_enumeration_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(2, 200))
            labels = [int(v) for v in rng.choice([-1, 1], size=n)]
            if len(set(labels)) < 2:
                labels[0] = -labels[0]
            values = [float(v) for v in rng.choice([0.1, 0.25, 0.5, 0.5, 0.75, 0.9], size=n)]
            mine = auc_roc(scorefile(values), label_set(labels))
            reference = auc_pairs_oracle(values, labels)
            assert mine == pytest.approx(reference, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(42)
        n = 60
        labels = [int(v) for v in rng.choice([-1, 1], size=n)]
        labels[0], labels[1] = 1, -1
        values = [float(v) for v in rng.uniform(0.01, 0.99, size=n)]
        base = auc_roc(scorefile(values), label_set(labels))
        for transform in (lambda s: s**3, lambda s: 1 - math.exp(-3 * s), lambda s: s / 2 + 0.1):
            warped = [transform(v) for v in values]
            assert auc_roc(scorefile(warped), label_set(labels)) == pytest.approx(base, abs=1e-12)

    def test_label_complement_maps_auc_to_one_minus(self):
        rng = np.random.default_rng(43)
        n = 50
        labels = [int(v) for v in rng.choice([-1, 1], size=n)]
        labels[0], labels[1] = 1, -1
        values = [float(v) for v in rng.uniform(0, 1, size=n)]
        forward = auc_roc(scorefile(values), label_set(labels))
        backward = auc_roc(scorefile(values), label_set([-y for y in labels]))
        assert backward == pytest.approx(1.0 - forward, abs=1e-12)


def midrank_auc(values, labels):
    """The rank-sum AUC the evaluation module computed before it counted wins, kept as a bit-for-bit reference."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        midrank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = midrank
        i = j + 1
    n_pos = sum(1 for t in labels if t == 1)
    n_neg = len(labels) - n_pos
    rank_sum = sum(rank for rank, t in zip(ranks, labels) if t == 1)
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@st.composite
def tied_scores(draw):
    """Scores on a grid of 2-50 levels whose zero comes as both -0.0 and 0.0, with both classes present."""
    levels = draw(st.integers(2, 50))
    grid = [-0.0, 0.0] + [k / (levels - 1) for k in range(1, levels)]
    rows = draw(st.lists(st.tuples(st.sampled_from(grid), st.sampled_from([-1, 1])), min_size=2, max_size=300))
    values = [value for value, _ in rows]
    labels = [1, -1] + [label for _, label in rows[2:]]
    return values, labels


@given(tied_scores())
@settings(max_examples=300, deadline=None)
def test_auc_keeps_the_bits_of_the_midrank_formula(case):
    values, labels = case
    assert auc_roc(scorefile(values), label_set(labels)) == midrank_auc(values, labels)


class TestMcNemar:
    def build(self, outcomes):
        """outcomes: list of (model A correct?, model B correct?) pairs."""
        labels = [1] * len(outcomes)
        a_scores = [0.9 if ok else 0.1 for ok, _ in outcomes]
        b_scores = [0.9 if ok else 0.1 for _, ok in outcomes]
        return scorefile(a_scores, "A"), scorefile(b_scores, "B"), label_set(labels)

    def test_identical_predictions(self):
        a, b, labels = self.build([(True, True)] * 6 + [(False, False)] * 2)
        result = mcnemar_test(a, b, labels)
        assert (result.b, result.c) == (0, 0)
        assert result.p_value == 1.0
        assert result.variant == "exact-binomial"
        assert result.statistic is None

    def test_six_two_uses_exact_variant(self):
        a, b, labels = self.build([(True, False)] * 6 + [(False, True)] * 2)
        result = mcnemar_test(a, b, labels)
        assert (result.b, result.c) == (6, 2)
        assert result.statistic == pytest.approx(1.125, abs=1e-12)
        assert result.variant == "exact-binomial"
        assert result.p_value == pytest.approx(0.2890625, abs=1e-10)
        assert result.p_value == pytest.approx(exact_binomial_p(6, 2), abs=1e-15)

    def test_five_zero_exact_p(self):
        a, b, labels = self.build([(True, False)] * 5 + [(True, True)] * 3)
        result = mcnemar_test(a, b, labels)
        assert (result.b, result.c) == (5, 0)
        assert result.p_value == pytest.approx(0.0625, abs=1e-12)

    def test_swap_symmetry(self):
        a, b, labels = self.build(
            [(True, False)] * 7 + [(False, True)] * 3 + [(True, True)] * 4
        )
        forward = mcnemar_test(a, b, labels)
        backward = mcnemar_test(b, a, labels)
        assert (forward.b, forward.c) == (backward.c, backward.b)
        assert forward.p_value == backward.p_value
        assert forward.statistic == backward.statistic

    def test_switchover_below_25_is_exact(self):
        a, b, labels = self.build([(True, False)] * 14 + [(False, True)] * 10)
        result = mcnemar_test(a, b, labels)
        assert result.b + result.c == 24
        assert result.variant == "exact-binomial"
        assert result.p_value == pytest.approx(exact_binomial_p(14, 10), abs=1e-15)

    def test_switchover_at_25_is_chi_square(self):
        a, b, labels = self.build([(True, False)] * 15 + [(False, True)] * 10)
        result = mcnemar_test(a, b, labels)
        assert result.b + result.c == 25
        assert result.variant == "chi-square"
        expected_stat = (abs(15 - 10) - 1) ** 2 / 25
        assert result.statistic == pytest.approx(expected_stat, abs=1e-12)
        assert result.p_value == pytest.approx(chi_square_1dof_p(expected_stat), abs=1e-15)

    def test_tie_at_threshold_classifies_positive(self):
        assert classify(0.5, 0.5) == 1
        assert classify(0.4999999, 0.5) == -1

    def test_threshold_parameter_respected(self):
        labels = label_set([1, 1, -1, -1])
        a = scorefile([0.45, 0.45, 0.05, 0.05], "A")  # all correct only below 0.45
        b = scorefile([0.05, 0.05, 0.45, 0.45], "B")  # always the opposite call
        low = mcnemar_test(a, b, labels, class_threshold=0.4)
        assert (low.b, low.c) == (4, 0)
        high = mcnemar_test(a, b, labels, class_threshold=0.5)
        assert (high.b, high.c) == (0, 0)  # at 0.5 both call everything negative


class TestEvaluateTable:
    def test_single_cell_no_comparisons(self):
        report = evaluate_table([scorefile([0.9, 0.1], "only")], {"real": label_set([1, -1])})
        assert report.auc[("only", "real")] == 1.0
        assert report.comparisons == ()

    def test_six_models_two_testsets_counts(self):
        rng = np.random.default_rng(44)
        labels = [int(v) for v in rng.choice([-1, 1], size=30)]
        labels[0], labels[1] = 1, -1
        models = [
            scorefile([float(v) for v in rng.uniform(0, 1, size=30)], f"m{i}") for i in range(6)
        ]
        testsets = {"real": label_set(labels), "similar": label_set(labels)}
        report = evaluate_table(models, testsets)
        assert len(report.auc) == 12
        per_testset = {}
        for comp in report.comparisons:
            per_testset.setdefault(comp.testset, []).append(comp)
        assert {name: len(comps) for name, comps in per_testset.items()} == {
            "real": 15,
            "similar": 15,
        }

    def test_row_and_column_order_follow_inputs(self):
        labels = label_set([1, -1, 1, -1])
        models = [scorefile([0.9, 0.1, 0.8, 0.2], name) for name in ("zeta", "alpha")]
        report = evaluate_table(models, {"b_set": labels, "a_set": labels})
        assert report.model_names == ("zeta", "alpha")
        assert report.testset_names == ("b_set", "a_set")

    def test_coverage_gap_reported_per_model_and_testset(self):
        full = scorefile([0.9, 0.1], "full")
        partial = ScoreFile(rows=(("t0", 0.9),), model_name="partial")
        with pytest.raises(EvalError, match=r"\(partial, real\)"):
            evaluate_table([full, partial], {"real": label_set([1, -1])})

    def test_duplicate_model_names_rejected(self):
        labels = label_set([1, -1])
        with pytest.raises(EvalError, match="duplicate"):
            evaluate_table([scorefile([0.9, 0.1], "m"), scorefile([0.8, 0.2], "m")], {"real": labels})

    def test_starred_models_produce_delta_metadata(self):
        labels = label_set([1, -1, 1, -1])
        plain = scorefile([0.6, 0.4, 0.2, 0.8], "logistic regression")
        starred = scorefile([0.9, 0.1, 0.8, 0.2], "logistic regression*")
        report = evaluate_table([plain, starred], {"real": labels})
        delta = report.metadata["augmented_vs_plain_auc_delta"]["logistic regression"]["real"]
        assert delta == pytest.approx(
            report.auc[("logistic regression*", "real")] - report.auc[("logistic regression", "real")]
        )

    def test_json_roundtrip_and_render(self, tmp_path):
        labels = label_set([1, -1, 1, -1])
        plain = scorefile([0.6, 0.4, 0.2, 0.8], "logistic regression")
        starred = scorefile([0.9, 0.1, 0.8, 0.2], "logistic regression*")
        report = evaluate_table([plain, starred], {"real": labels, "similar": labels})
        path = tmp_path / "report.json"
        save_report(report, path)
        loaded = load_report(path)
        assert loaded.auc == report.auc
        assert loaded.model_names == report.model_names

        text = loaded.render_text()
        assert "Algorithm" in text
        assert "real" in text and "similar" in text
        assert "logistic regression*" in text
        assert "McNemar" in text
        payload = json.loads(path.read_text())
        assert payload["metadata"]["p_value_note"].startswith("raw")
