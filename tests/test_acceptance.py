"""Acceptance suite: one test per acceptance criterion, at its stated tolerance.

Each test prints one `ACCEPTANCE <name>: PASS` line (visible with `pytest -s`)
after its assertions, and enforces the stated runtime budget where one exists.
Run: pytest tests/test_acceptance.py -v -s
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from conftest import make_sample, make_schema, match_dicts, random_instance, two_cluster, write_pipeline_fixture
from oracles import (
    auc_pairs_oracle,
    central_difference_gradient,
    exact_binomial_p,
    gower_oracle,
    match_oracle,
)
from simlabel.cli import main as cli_main
from simlabel.dataset import Dataset, load_dataset, load_schema
from simlabel.evaluation import auc_roc, mcnemar_test
from simlabel.kernel import RangeTable, compute_ranges, gower_similarity
from simlabel.matcher import (
    SimilarityParams,
    calibrate,
    calibrate_similarity_threshold,
    match_batch,
    nearest_rank,
    pairwise_similarities,
    unlabeled_votes,
)
from simlabel.model import LinearModel, ScoreFile, TrainConfig, predict_scores, smooth_loss, smooth_loss_grad, train_logistic
from simlabel.probe import probability_grid, recourse_probe, score_shell, similarity_shell


def passed(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def random_pair(rng):
    n_features = int(rng.integers(1, 21))
    names = [f"f{i}" for i in range(n_features)]
    lo, hi = {}, {}

    def draw_features():
        feats = {}
        for name in names:
            if rng.random() < 0.8:
                value = float(rng.uniform(-100.0, 100.0))
                feats[name] = value
                lo[name] = min(lo.get(name, value), value)
                hi[name] = max(hi.get(name, value), value)
        return feats

    a = draw_features()
    b = draw_features()
    if not set(a) & set(b):
        value = float(rng.uniform(-100.0, 100.0))
        a[names[0]] = b[names[0]] = value
        lo[names[0]] = hi[names[0]] = value
    ranges = {}
    bounds = {}
    for name in names:
        low = lo.get(name, 0.0)
        high = hi.get(name, 0.0)
        ranges[name] = high - low
        bounds[name] = (low, high)
    return (
        make_sample("a", a),
        make_sample("b", b),
        RangeTable(ranges=ranges, bounds=bounds),
    )


def test_kernel_axioms():
    started = time.monotonic()
    rng = np.random.default_rng(2001)
    for _ in range(1000):
        a, b, ranges = random_pair(rng)
        forward = gower_similarity(a, b, ranges)
        backward = gower_similarity(b, a, ranges)
        assert forward == backward
        assert 0.0 <= forward <= 1.0
        assert abs(forward - gower_oracle(a.features, b.features, ranges.ranges)) <= 1e-12

        full = {name: a.features.get(name, 0.0) for name in ranges.ranges}
        complete = make_sample("self", full)
        assert gower_similarity(complete, complete, ranges) == 1.0

        widened = RangeTable(
            ranges={**ranges.ranges, "phantom": 5.0},
            bounds={**ranges.bounds, "phantom": (0.0, 5.0)},
        )
        a_extra = make_sample("a2", {**a.features, "phantom": 1.0})  # b never has it
        assert gower_similarity(a_extra, b, widened) == forward
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"kernel axioms took {elapsed:.2f}s"
    passed("kernel-axioms")


def test_matcher_brute_force_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(2002)
    for _ in range(200):
        schema, labeled, unlabeled, ranges = random_instance(
            rng,
            n_labeled=int(rng.integers(2, 31)),
            n_unlabeled=int(rng.integers(1, 101)),
            n_sim=int(rng.integers(1, 7)),
            n_est=int(rng.integers(0, 3)),
            missing_rate=0.2,
        )
        d = float(rng.uniform(0.2, 0.95))
        c = float(rng.uniform(0.0, 0.95))
        got = match_batch(unlabeled, labeled, ranges, SimilarityParams(d=d, c=c))
        expected = match_oracle(
            [(row.id, row.features) for row in unlabeled.rows],
            [(row.id, row.features, row.label) for row in labeled.rows],
            ranges.ranges,
            list(schema.estimation_features),
            d,
            c,
        )
        assert match_dicts(got, schema.estimation_features) == expected
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"matcher oracle sweep took {elapsed:.2f}s"
    passed("matcher-oracle")


def test_threshold_calibration():
    # the 10-pairwise-score fixture: nearest-rank 0.95 lands on the maximum
    scores = [round(0.1 * k, 1) for k in range(1, 11)]
    assert nearest_rank(scores, 0.95) == 1.0

    # hand-checkable datasets: constant pairwise similarity, then a random one
    schema = make_schema(1, 0)
    line = RangeTable(ranges={"f0": 1.0}, bounds={"f0": (0.0, 1.0)})
    identical = Dataset(
        schema, [make_sample(f"l{i}", {"f0": 0.5}, label=1 if i % 2 else -1) for i in range(4)]
    )
    for percentile in (0.05, 0.5, 0.95):
        assert calibrate_similarity_threshold(np.sort(pairwise_similarities(identical, line)), percentile) == 1.0

    rng = np.random.default_rng(2003)
    _, labeled, unlabeled, ranges = random_instance(rng, n_labeled=12, n_unlabeled=200, missing_rate=0.0)
    pairs = []
    for i in range(len(labeled.rows)):
        for j in range(i + 1, len(labeled.rows)):
            pairs.append(
                gower_oracle(labeled.rows[i].features, labeled.rows[j].features, ranges.ranges)
            )
    pairs.sort()
    expected_d = pairs[min(max(math.ceil(0.95 * len(pairs)) - 1, 0), len(pairs) - 1)]
    d = calibrate(labeled, unlabeled, ranges, 0.95).params.d
    assert d == expected_d

    # calibrated c keeps the matched fraction strictly under the default 5% budget
    rng = np.random.default_rng(2004)
    schema2, labeled2, unlabeled2, _, _ = two_cluster(
        rng, n_labeled_per=60, n_unlabeled_per=400, n_sim=4, std=0.8, labeled_spread=2.75, center=0.6
    )
    ranges2 = compute_ranges([labeled2, unlabeled2], schema2)
    params2 = calibrate(labeled2, unlabeled2, ranges2, 0.95, 0.05).params
    d2, c2 = params2.d, params2.c
    votes = unlabeled_votes(unlabeled2, labeled2, ranges2, d2)
    assigned = sum(1 for t in votes.tolist() if not math.isnan(t) and abs(t) > c2)
    assert assigned / len(unlabeled2.rows) < 0.05
    passed("threshold-calibration")


def test_two_cluster_recovery():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    schema, labeled, unlabeled, truth, projection = two_cluster(
        rng, n_labeled_per=20, n_unlabeled_per=400, n_sim=4, center=1.0
    )
    ranges = compute_ranges([labeled, unlabeled], schema)
    d = calibrate(labeled, unlabeled, ranges, 0.95).params.d
    params = SimilarityParams(d=d, c=0.5)
    results = match_dicts(match_batch(unlabeled, labeled, ranges, params), schema.estimation_features)

    confident = [r for r in results if r["y_hat"] != 0]
    assert len(confident) >= 100, "expected a meaningful number of confident assignments"
    agree = sum(1 for r in confident if r["y_hat"] == truth[r["id"]])
    assert agree / len(confident) >= 0.95

    undecided = [r for r in results if r["t"] is not None and r["y_hat"] == 0]
    assert undecided, "expected some matched-but-unconfident samples"
    confident_distance = float(
        np.mean([abs(projection[r["id"]]) for r in confident])
    )
    undecided_distance = float(
        np.mean([abs(projection[r["id"]]) for r in undecided])
    )
    assert undecided_distance < 0.7 * confident_distance, (
        f"abstentions should sit nearer the overlap midplane "
        f"({undecided_distance:.3f} vs {confident_distance:.3f})"
    )
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"two-cluster recovery took {elapsed:.2f}s"
    passed("two-cluster-recovery")


def test_determinism_under_parallelism(tmp_path):
    fx = write_pipeline_fixture(tmp_path, n_labeled_per=30, n_unlabeled_per=120)
    config = str(fx["config"])
    for command in ("split", "ranges", "calibrate", "match", "augment", "train"):
        assert cli_main([command, "--config", config]) == 0

    watched = {
        "match": ["match_train.csv", "match_test.csv", "match_train_contributors.json"],
        "train": ["model_plain.json", "model_augmented.json"],
        "probe-shell": ["shell_l0000.csv", "recourse_l0000.json"],
    }
    digests: dict[str, set] = {name: set() for files in watched.values() for name in files}
    for workers in ("1", "2", "8"):
        assert cli_main(["match", "--config", config, "--workers", workers]) == 0
        assert cli_main(["train", "--config", config, "--workers", workers]) == 0
        assert (
            cli_main(
                ["probe-shell", "--config", config, "--workers", workers, "--sample-id", "l0000"]
            )
            == 0
        )
        for files in watched.values():
            for name in files:
                digest = hashlib.sha256((fx["out"] / name).read_bytes()).hexdigest()
                digests[name].add(digest)
    for name, seen in digests.items():
        assert len(seen) == 1, f"{name} changed across worker counts"
    passed("determinism-under-parallelism")


def test_logistic_training():
    rng = np.random.default_rng(2005)
    n, dim = 60, 6
    z = rng.normal(size=(n, dim))
    y = rng.choice([-1.0, 1.0], size=n)
    worst = 0.0
    for _ in range(20):
        point = rng.normal(size=dim + 1) * 2.0
        w, b = point[:-1], float(point[-1])
        _, grad_w, grad_b = smooth_loss_grad(w, b, z, y, 0.2)
        analytic = np.append(grad_w, grad_b)

        def flat(theta):
            return smooth_loss(theta[:-1], float(theta[-1]), z, y, 0.2)

        numeric = central_difference_gradient(flat, point)
        rel = np.abs(numeric - analytic) / np.maximum(np.abs(analytic), 1.0)
        worst = max(worst, float(rel.max()))
    assert worst <= 1e-5, f"finite differences disagree: {worst:.2e}"

    schema = make_schema(3, 1)
    rows = []
    for i in range(120):
        label = -1 if i % 2 == 0 else 1
        feats = {f"f{j}": float(rng.normal() + 0.7 * label) for j in range(3)}
        feats["g0"] = float(rng.normal() * 2.0)
        rows.append(make_sample(f"r{i}", feats, label=label))
    data = Dataset(schema, rows, "training fixture")

    histories = []
    norms = []
    for l2 in (0.0, 0.1, 1.0, 10.0):
        model = train_logistic(data, config=TrainConfig(l2=l2, max_iter=300))
        histories.append(model.loss_history)
        weights = np.array(list(model.weights.values()))
        norms.append(float(np.sqrt(weights @ weights)))
    for history in histories:
        assert all(later <= earlier for earlier, later in zip(history, history[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:])), norms
    passed("logistic-training")


def test_auc():
    schema = make_schema(1, 0)

    def label_set(labels):
        return Dataset(
            schema,
            [make_sample(f"t{i}", {"f0": float(i)}, label=y) for i, y in enumerate(labels)],
        )

    def scorefile(values, name="m"):
        return ScoreFile(
            rows=tuple((f"t{i}", float(v)) for i, v in enumerate(values)), model_name=name
        )

    labels = [1, -1, 1, -1]
    assert auc_roc(scorefile([0.9, 0.8, 0.4, 0.2]), label_set(labels)) == 0.75

    rng = np.random.default_rng(2006)
    for _ in range(60):
        n = int(rng.integers(2, 201))
        labels = [int(v) for v in rng.choice([-1, 1], size=n)]
        if len(set(labels)) < 2:
            labels[0] = -labels[0]
        values = [float(v) for v in rng.choice(np.linspace(0, 1, 7), size=n)]
        mine = auc_roc(scorefile(values), label_set(labels))
        assert abs(mine - auc_pairs_oracle(values, labels)) <= 1e-12

    n = 80
    labels = [int(v) for v in rng.choice([-1, 1], size=n)]
    labels[0], labels[1] = 1, -1
    values = [float(v) for v in rng.uniform(0.001, 0.999, size=n)]
    base = auc_roc(scorefile(values), label_set(labels))
    for transform in (lambda s: s**5, lambda s: 1.0 - math.exp(-4 * s), lambda s: 0.1 + 0.8 * s):
        warped = [transform(v) for v in values]
        assert abs(auc_roc(scorefile(warped), label_set(labels)) - base) <= 1e-12
    passed("auc")


def test_mcnemar():
    schema = make_schema(1, 0)

    def build(outcomes):
        labels = Dataset(
            schema,
            [make_sample(f"t{i}", {"f0": 0.0}, label=1) for i in range(len(outcomes))],
        )
        a = ScoreFile(
            rows=tuple((f"t{i}", 0.9 if ok else 0.1) for i, (ok, _) in enumerate(outcomes)),
            model_name="A",
        )
        b = ScoreFile(
            rows=tuple((f"t{i}", 0.9 if ok else 0.1) for i, (_, ok) in enumerate(outcomes)),
            model_name="B",
        )
        return a, b, labels

    a, b, labels = build([(True, True)] * 5 + [(False, False)] * 3)
    result = mcnemar_test(a, b, labels)
    assert (result.b, result.c, result.p_value) == (0, 0, 1.0)

    a, b, labels = build([(True, False)] * 5)
    result = mcnemar_test(a, b, labels)
    assert (result.b, result.c) == (5, 0)
    assert result.p_value == 0.0625

    a, b, labels = build([(True, False)] * 9 + [(False, True)] * 4 + [(True, True)] * 3)
    forward = mcnemar_test(a, b, labels)
    backward = mcnemar_test(b, a, labels)
    assert (forward.b, forward.c) == (backward.c, backward.b)
    assert forward.p_value == backward.p_value

    a, b, labels = build([(True, False)] * 13 + [(False, True)] * 11)
    below = mcnemar_test(a, b, labels)
    assert below.b + below.c == 24
    assert below.variant == "exact-binomial"
    assert below.p_value == pytest.approx(exact_binomial_p(13, 11), abs=1e-15)

    a, b, labels = build([(True, False)] * 14 + [(False, True)] * 11)
    above = mcnemar_test(a, b, labels)
    assert above.b + above.c == 25
    assert above.variant == "chi-square"
    stat = (abs(14 - 11) - 1) ** 2 / 25
    assert above.statistic == pytest.approx(stat, abs=1e-15)
    assert above.p_value == pytest.approx(math.erfc(math.sqrt(stat / 2.0)), abs=1e-15)
    passed("mcnemar")


def test_probe_contracts():
    schema = make_schema(3, 0)
    ranges = RangeTable(
        ranges={"f0": 4.0, "f1": 4.0, "f2": 4.0},
        bounds={"f0": (-2.0, 2.0), "f1": (-2.0, 2.0), "f2": (-2.0, 2.0)},
    )
    base = make_sample("base", {"f0": 0.4, "f1": -0.3, "f2": 0.8})
    model = LinearModel(
        weights={"f0": 5.0, "f1": 4.0, "f2": -2.0},
        intercept=-0.5,
        l1=0.0,
        l2=0.0,
        feature_means={"f0": 0.0, "f1": 0.0, "f2": 0.0},
        feature_scales={"f0": 1.0, "f1": 1.0, "f2": 1.0},
    )

    for d in (0.8, 0.92, 0.99):
        shell = similarity_shell(base, ["f0", "f1", "f2"], ranges, d=d, n=150, seed=77)
        for row in shell.values.tolist():
            point = base.features | dict(zip(shell.vary, row))
            assert gower_oracle(base.features, point, ranges.ranges) >= d

    shell = score_shell(model, similarity_shell(base, ["f0", "f1"], ranges, d=0.85, n=250, seed=78))
    report = recourse_probe(shell)
    base_class = 1 if shell.base_score >= 0.5 else -1
    ids, similarity = shell.ids(), shell.similarity.tolist()
    crossings = [i for i, score in enumerate(shell.scores.tolist()) if (1 if score >= 0.5 else -1) != base_class]
    assert report.crossed_count == len(crossings)
    assert report.recourse_found == bool(crossings)
    if crossings:
        best = min(crossings, key=lambda i: (-similarity[i], ids[i]))
        assert report.best_id == ids[best]
        assert report.best_similarity == similarity[best]

    bx, by = base.features["f0"], base.features["f1"]
    # axes start at the base coordinates, so cell (0, 0) is the base point exactly
    grid = probability_grid(model, base, "f0", "f1", (bx, bx + 1, 5), (by, by + 1, 5))
    direct = predict_scores(model, Dataset(schema, [base])).rows[0][1]
    assert grid.probabilities[0, 0] == direct
    passed("probe-contracts")


def test_end_to_end_report(tmp_path):
    started = time.monotonic()
    fx = write_pipeline_fixture(tmp_path)
    config = str(fx["config"])
    for command in (
        "split",
        "ranges",
        "calibrate",
        "match",
        "augment",
        "train",
        "score",
        "evaluate",
        "report",
    ):
        assert cli_main([command, "--config", config]) == 0, command

    report = json.loads((fx["out"] / "eval_report.json").read_text())
    assert report["testsets"] == ["real", "similar"]
    assert "logistic regression" in report["models"]
    assert "logistic regression*" in report["models"]
    for model in report["models"]:
        for testset in report["testsets"]:
            assert 0.0 <= report["auc"][model][testset] <= 1.0
    deltas = report["metadata"]["augmented_vs_plain_auc_delta"]["logistic regression"]
    assert set(deltas) == {"real", "similar"}  # reported, sign unconstrained

    text = (fx["out"] / "eval_report.txt").read_text()
    assert "logistic regression*" in text
    assert "real" in text and "similar" in text

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"pipeline took {elapsed:.2f}s"
    passed("end-to-end-report")
