"""Probability grid, similarity shell, and recourse probe tests."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_sample, make_schema
import simlabel.dataset
import simlabel.probe
from oracles import exact_linear_recourse, gower_oracle
from simlabel.dataset import Dataset, csv_chunks
from simlabel.errors import DataError, ProbeError
from simlabel.kernel import RangeTable
from simlabel.model import LinearModel, predict_scores
from simlabel.probe import (
    MAX_SHELL_ATTEMPTS,
    ProbeGrid,
    Shell,
    probability_grid,
    recourse_probe,
    score_shell,
    shell_to_csv_text,
    similarity_shell,
)

SCHEMA = make_schema(3, 0)
RANGES = RangeTable(
    ranges={"f0": 4.0, "f1": 4.0, "f2": 4.0},
    bounds={"f0": (-2.0, 2.0), "f1": (-2.0, 2.0), "f2": (-2.0, 2.0)},
)
BASE = make_sample("base", {"f0": 0.5, "f1": -0.5, "f2": 1.0})


def linear_model(w0=1.0, w1=-1.0, w2=0.5, intercept=0.0):
    return LinearModel(
        weights={"f0": w0, "f1": w1, "f2": w2},
        intercept=intercept,
        l1=0.0,
        l2=0.0,
        feature_means={"f0": 0.0, "f1": 0.0, "f2": 0.0},
        feature_scales={"f0": 1.0, "f1": 1.0, "f2": 1.0},
    )


def constant_model():
    return linear_model(0.0, 0.0, 0.0, 0.0)


class TestProbabilityGrid:
    def test_constant_model_gives_flat_half_grid(self):
        grid = probability_grid(constant_model(), BASE, "f0", "f1", (-2, 2, 5), (-2, 2, 4))
        assert grid.probabilities.shape == (5, 4)
        assert np.all(grid.probabilities == 0.5)

    def test_grid_shape_matches_spec(self):
        grid = probability_grid(linear_model(), BASE, "f0", "f1", (-2, 2, 20), (-2, 2, 30))
        assert grid.probabilities.shape == (20, 30)
        assert len(grid.x_values) == 20 and len(grid.y_values) == 30

    def test_linear_model_cells_match_hand_logistic(self):
        model = linear_model(0.8, -0.4, 0.25, 0.1)
        grid = probability_grid(model, BASE, "f0", "f1", (-1, 1, 3), (-1, 1, 3))
        for i, x in enumerate(grid.x_values):
            for j, y in enumerate(grid.y_values):
                margin = 0.1 + 0.8 * x + -0.4 * y + 0.25 * BASE.features["f2"]
                expected = 1.0 / (1.0 + math.exp(-margin))
                assert grid.probabilities[i, j] == pytest.approx(expected, abs=1e-12)

    def test_grid_at_base_point_equals_predict_scores_exactly(self):
        model = linear_model(0.7, 0.3, -0.2, 0.05)
        bx, by = BASE.features["f0"], BASE.features["f1"]
        # axes start at the base coordinates, so cell (0, 0) is the base point exactly
        grid = probability_grid(model, BASE, "f0", "f1", (bx, bx + 1, 3), (by, by + 1, 3))
        direct = predict_scores(model, Dataset(SCHEMA, [BASE])).rows[0][1]
        assert grid.probabilities[0, 0] == direct  # bit-exact, same scoring path

    def test_feature_not_in_model_rejected(self):
        with pytest.raises(ProbeError, match="not in model"):
            probability_grid(linear_model(), BASE, "f0", "mystery", (-1, 1, 2), (-1, 1, 2))

    def test_same_feature_twice_rejected(self):
        with pytest.raises(ProbeError, match="must differ"):
            probability_grid(linear_model(), BASE, "f0", "f0", (-1, 1, 2), (-1, 1, 2))

    def test_base_missing_model_feature_rejected(self):
        incomplete = make_sample("partial", {"f0": 0.0, "f1": 0.0})
        with pytest.raises(ProbeError, match="missing model features"):
            probability_grid(linear_model(), incomplete, "f0", "f1", (-1, 1, 2), (-1, 1, 2))

    def test_other_scorers_rejected(self):
        with pytest.raises(ProbeError, match="cannot score with object of type function"):
            probability_grid(lambda samples: [0.5] * len(samples), BASE, "f0", "f1", (-1, 1, 2), (-1, 1, 2))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_cell_equals_scoring_its_point_as_a_sample(self, data):
        # model features in an order unlike the schema's; the base also carries
        # a feature the model lacks
        features = data.draw(st.permutations(["f0", "f1", "f2", "f3"]))[: data.draw(st.integers(2, 4))]
        number = st.floats(-3.0, 3.0, allow_nan=False)
        model = LinearModel(
            weights={f: data.draw(number) for f in features},
            intercept=data.draw(number),
            l1=0.0,
            l2=0.0,
            feature_means={f: data.draw(number) for f in features},
            feature_scales={f: data.draw(st.floats(0.1, 3.0)) for f in features},
        )
        base = make_sample("b", {f: data.draw(number) for f in ("f3", "f1", "f0", "f2", "extra")})
        fx, fy = data.draw(st.permutations(features))[:2]
        axis = st.tuples(number, number, st.integers(1, 6))
        grid = probability_grid(model, base, fx, fy, data.draw(axis), data.draw(axis))
        assert grid.probabilities.shape == (len(grid.x_values), len(grid.y_values))
        for i, x in enumerate(grid.x_values):
            for j, y in enumerate(grid.y_values):
                point = make_sample("p", {**base.features, fx: x, fy: y})
                assert grid.probabilities[i, j] == model.score_samples([point])[0]

    def test_csv_is_long_format(self):
        grid = probability_grid(constant_model(), BASE, "f0", "f1", (-1, 1, 2), (-1, 1, 2))
        lines = "".join(grid.to_csv_text()).splitlines()
        assert lines[0] == "f0,f1,score"
        assert len(lines) == 5

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_csv_text_equals_one_cell_at_a_time(self, data):
        # a few values drawn from a small pool, so axes repeat values and hold -0.0
        pool = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4))
        value = st.sampled_from([*pool, 0.0, -0.0])
        x_values = tuple(data.draw(st.lists(value, min_size=1, max_size=5)))
        y_values = tuple(data.draw(st.lists(value, min_size=1, max_size=5)))
        cells = [data.draw(st.floats(0.0, 1.0)) for _ in range(len(x_values) * len(y_values))]
        probabilities = np.array(cells).reshape(len(x_values), len(y_values))
        if data.draw(st.booleans()):  # the same scores laid out column-major
            probabilities = np.asfortranarray(probabilities)
        grid = ProbeGrid("b", "f0", "f1", x_values, y_values, probabilities)
        assert "".join(grid.to_csv_text()) == "".join(csv_chunks(["f0", "f1", "score"], [
            (x, y, float(probabilities[i, j]))
            for i, x in enumerate(x_values)
            for j, y in enumerate(y_values)
        ]))


def draws(shell):
    """Every draw of the shell as a feature dict: the base with the varied features set."""
    return [shell.base.features | dict(zip(shell.vary, row)) for row in shell.values.tolist()]


def contents(shell):
    """What a drawn shell holds, in a form that compares with ==."""
    return shell.base.id, shell.vary, shell.values.tolist(), shell.similarity.tolist()


class TestSimilarityShell:
    def test_floor_of_one_reproduces_the_base(self):
        shell = similarity_shell(BASE, ["f0", "f1"], RANGES, d=1.0, n=5, seed=3)
        assert len(shell) == 5
        assert shell.base is BASE and shell.vary == ("f0", "f1")
        assert shell.values.shape == (5, 2)
        assert np.all(shell.similarity == 1.0)
        assert draws(shell) == [BASE.features] * 5

    def test_every_sample_verified_by_independent_kernel(self):
        for d in (0.7, 0.9, 0.97):
            shell = similarity_shell(BASE, ["f0", "f1", "f2"], RANGES, d=d, n=200, seed=5)
            assert len(shell) == 200
            for point, similarity in zip(draws(shell), shell.similarity.tolist()):
                oracle_sim = gower_oracle(BASE.features, point, RANGES.ranges)
                assert oracle_sim >= d
                assert similarity == pytest.approx(oracle_sim, abs=1e-12)

    def test_same_seed_reproduces_the_shell(self):
        first = similarity_shell(BASE, ["f0", "f1"], RANGES, d=0.9, n=50, seed=11)
        second = similarity_shell(BASE, ["f0", "f1"], RANGES, d=0.9, n=50, seed=11)
        assert contents(first) == contents(second)

    def test_different_seed_differs(self):
        first = similarity_shell(BASE, ["f0", "f1"], RANGES, d=0.9, n=50, seed=11)
        second = similarity_shell(BASE, ["f0", "f1"], RANGES, d=0.9, n=50, seed=12)
        assert contents(first) != contents(second)

    def test_values_clamped_to_observed_bounds(self):
        edge = make_sample("edge", {"f0": 2.0, "f1": 2.0, "f2": 2.0})
        shell = similarity_shell(edge, ["f0", "f1"], RANGES, d=0.5, n=100, seed=13)
        for j, name in enumerate(shell.vary):
            lo, hi = RANGES.bounds[name]
            assert np.all((lo <= shell.values[:, j]) & (shell.values[:, j] <= hi))

    def test_zero_range_feature_never_moves(self):
        ranges = RangeTable(
            ranges={"f0": 4.0, "f1": 0.0},
            bounds={"f0": (-2.0, 2.0), "f1": (1.0, 1.0)},
        )
        base = make_sample("b", {"f0": 0.0, "f1": 1.0})
        shell = similarity_shell(base, ["f0", "f1"], ranges, d=0.8, n=50, seed=17)
        assert np.all(shell.values[:, 1] == 1.0)

    def test_empty_vary_rejected(self):
        with pytest.raises(ProbeError, match="non-empty"):
            similarity_shell(BASE, [], RANGES, d=0.9, n=5, seed=1)

    def test_vary_feature_named_twice_rejected(self):
        with pytest.raises(ProbeError, match="vary features named more than once: f0$"):
            similarity_shell(BASE, ["f0", "f1", "f0"], RANGES, d=0.9, n=5, seed=1)

    def test_unknown_vary_feature_rejected(self):
        with pytest.raises(ProbeError, match="mystery"):
            similarity_shell(BASE, ["mystery"], RANGES, d=0.9, n=5, seed=1)

    def test_vary_feature_missing_from_base_rejected(self):
        partial = make_sample("partial", {"f0": 0.0})
        with pytest.raises(ProbeError, match="missing from base"):
            similarity_shell(partial, ["f1"], RANGES, d=0.9, n=5, seed=1)

    @pytest.mark.parametrize("n", [0, -1])
    def test_fewer_than_one_draw_rejected(self, n):
        with pytest.raises(ProbeError, match=f"needs n >= 1 and seed >= 0, got n={n}, seed=1"):
            similarity_shell(BASE, ["f0"], RANGES, d=0.9, n=n, seed=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ProbeError, match="needs n >= 1 and seed >= 0, got n=5, seed=-1"):
            similarity_shell(BASE, ["f0"], RANGES, d=0.9, n=5, seed=-1)

    def test_shell_ids_are_unique_and_traceable(self):
        shell = similarity_shell(BASE, ["f0"], RANGES, d=0.9, n=20, seed=19)
        ids = shell.ids()
        assert len(set(ids)) == 20
        assert ids[0] == "base-shell-00000" and ids[19] == "base-shell-00019"


class TestScoreShell:
    def test_scores_and_crossings_attached(self):
        model = linear_model(4.0, 4.0, 0.0, 0.0)
        shell = similarity_shell(BASE, ["f0", "f1"], RANGES, d=0.7, n=100, seed=23)
        scored = score_shell(model, shell, 0.5)
        direct = predict_scores(model, Dataset(SCHEMA, [BASE])).rows[0][1]
        assert scored.base_score == direct
        assert scored.class_threshold == 0.5
        assert shell.scores is None  # the drawn shell is left as it was
        points = [make_sample(sid, point) for sid, point in zip(shell.ids(), draws(shell))]
        assert scored.scores.tolist() == model.score_samples(points).tolist()  # bit-exact
        for score, crossed in zip(scored.scores.tolist(), scored.crossed.tolist()):
            assert crossed == ((score >= 0.5) != (direct >= 0.5))

    def test_csv_contains_coordinates_and_flags(self):
        model = linear_model()
        shell = similarity_shell(BASE, ["f0"], RANGES, d=0.9, n=3, seed=29)
        scored = score_shell(model, shell)
        lines = "".join(shell_to_csv_text(scored, SCHEMA.similarity_features)).splitlines()
        assert lines[0] == "id,f0,f1,f2,similarity,score,crossed"
        assert len(lines) == 4
        assert lines[1].split(",")[-1] in ("0", "1")
        assert lines[1].split(",")[:5] == [
            "base-shell-00000", repr(float(shell.values[0, 0])), "-0.5", "1.0", repr(float(shell.similarity[0]))
        ]
        unscored = "".join(shell_to_csv_text(shell, SCHEMA.similarity_features)).splitlines()
        assert [line.rsplit(",", 2)[0] for line in unscored] == [line.rsplit(",", 2)[0] for line in lines]
        assert all(line.endswith(",,") for line in unscored[1:])

    def test_base_without_an_unvaried_feature(self):
        # f2 is a similarity feature the base lacks: its cell stays empty, and
        # the model scores it with its train mean
        model = LinearModel(
            weights={"f0": 1.0, "f1": -1.0, "f2": 2.0}, intercept=0.1, l1=0.0, l2=0.0,
            feature_means={"f0": 0.0, "f1": 0.0, "f2": 0.75},
            feature_scales={"f0": 1.0, "f1": 1.0, "f2": 1.0},
        )
        partial = make_sample("partial", {"f0": 0.5, "f1": -0.5})
        shell = similarity_shell(partial, ["f0"], RANGES, d=0.9, n=20, seed=71)
        scored = score_shell(model, shell)
        lines = "".join(shell_to_csv_text(scored, SCHEMA.similarity_features)).splitlines()
        assert all(line.split(",")[3] == "" for line in lines[1:])
        filled = [make_sample("p", point | {"f2": 0.75}) for point in draws(shell)]
        assert scored.scores.tolist() == model.score_samples(filled).tolist()
        assert scored.base_score == model.score_samples([make_sample("b", {"f0": 0.5, "f1": -0.5, "f2": 0.75})])[0]


def shell_csv_one_cell_at_a_time(shell, feature_names):
    """The reference shell CSV: each draw's cells in turn, through `csv_chunks`."""
    rows = []
    for i in range(len(shell)):
        features = [float(shell.values[i, shell.vary.index(name)]) if name in shell.vary
                    else shell.base.features.get(name) for name in feature_names]
        flags = [None, None] if shell.scores is None else [float(shell.scores[i]), int(shell.crossed[i])]
        rows.append([f"{shell.base.id}-shell-{i:05d}", *features, float(shell.similarity[i]), *flags])
    return "".join(csv_chunks(["id", *feature_names, "similarity", "score", "crossed"], rows))


class TestShellCsv:
    NAMES = ("f0", "f1", "f2", "f3")

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_csv_text_equals_one_cell_at_a_time(self, data):
        # ids that csv.writer must quote, that hold % or non-ASCII text
        base_id = data.draw(st.text(st.sampled_from('ab,"% \né€'), min_size=1, max_size=8))
        # a fixed feature the base lacks, and one it has
        held = data.draw(st.lists(st.sampled_from(self.NAMES), min_size=1, unique=True))
        value = st.sampled_from([*data.draw(st.lists(st.floats(allow_nan=False), min_size=1, max_size=3)), -0.0])
        base = make_sample(base_id, {name: data.draw(value) for name in held})
        vary = tuple(data.draw(st.lists(st.sampled_from(held), min_size=1, unique=True)))
        n = data.draw(st.integers(0, 6))
        values = np.array(data.draw(st.lists(value, min_size=n * len(vary), max_size=n * len(vary))))
        similarity = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1 / 3]), min_size=n, max_size=n)))
        shell = Shell(base, vary, values.reshape(n, len(vary)), similarity)
        if data.draw(st.booleans()):
            scores = np.array(data.draw(st.lists(value, min_size=n, max_size=n)))
            shell = replace(shell, base_score=0.5, scores=scores, crossed=scores >= 0.5, class_threshold=0.5)
        # in any order, and maybe without some varied features
        names = list(data.draw(st.permutations(self.NAMES)))[:data.draw(st.integers(1, 4))]
        assert "".join(shell_to_csv_text(shell, names)) == shell_csv_one_cell_at_a_time(shell, names)

    def test_carriage_return_in_the_base_id_is_refused(self):
        shell = similarity_shell(make_sample("a\rb", BASE.features), ["f0"], RANGES, d=0.9, n=3, seed=1)
        with pytest.raises(DataError, match="carriage return"):
            "".join(shell_to_csv_text(shell, SCHEMA.similarity_features))

    def test_draws_past_index_99999_get_six_digit_ids(self):
        n = 100_002
        shell = Shell(BASE, ("f0",), np.linspace(-1.0, 1.0, n).reshape(n, 1), np.linspace(0.9, 1.0, n))
        text = "".join(shell_to_csv_text(shell, SCHEMA.similarity_features))
        assert text == shell_csv_one_cell_at_a_time(shell, SCHEMA.similarity_features)
        assert text.splitlines()[-1].startswith("base-shell-100001,")


class TestRecourseProbe:
    def test_constant_model_finds_no_recourse(self):
        shell = similarity_shell(BASE, ["f0", "f1"], RANGES, d=0.8, n=50, seed=31)
        report = recourse_probe(score_shell(constant_model(), shell))
        assert not report.recourse_found
        assert report.crossed_count == 0
        assert report.best_id is None
        assert report.message.startswith("no recourse found within similarity")

    def test_crossing_matches_exhaustive_scan(self):
        model = linear_model(6.0, 6.0, 0.0, -1.0)
        shell = similarity_shell(BASE, ["f0", "f1"], RANGES, d=0.7, n=300, seed=37)
        scored = score_shell(model, shell)
        report = recourse_probe(scored)

        base_class = 1 if scored.base_score >= 0.5 else -1
        ids, similarity = shell.ids(), shell.similarity.tolist()
        crossings = [
            i
            for i, score in enumerate(scored.scores.tolist())
            if (1 if score >= 0.5 else -1) != base_class
        ]
        assert report.crossed_count == len(crossings)
        if crossings:
            best = min(crossings, key=lambda i: (-similarity[i], ids[i]))
            assert report.recourse_found
            assert report.best_id == ids[best]
            assert report.best_similarity == similarity[best]
        else:
            assert not report.recourse_found

    def test_probe_found_in_dense_shell(self):
        # boundary passes near the base sample, so crossings must exist
        model = linear_model(6.0, 6.0, 0.0, -1.0)
        shell = similarity_shell(BASE, ["f0", "f1"], RANGES, d=0.7, n=300, seed=37)
        report = recourse_probe(score_shell(model, shell))
        assert report.recourse_found
        assert report.crossed_count > 0

    def test_closest_crossings_tie_goes_to_the_smallest_id(self):
        # rows 5, 10001 and 100000 cross; the last two tie at the highest
        # similarity, and "base-shell-100000" sorts before "base-shell-10001"
        n = 100_001
        values = np.full((n, 1), BASE.features["f0"])
        similarity = np.ones(n)
        for row, sim in ((5, 0.9), (10_001, 0.95), (100_000, 0.95)):
            values[row] = -2.0
            similarity[row] = sim
        shell = Shell(BASE, ("f0",), values, similarity)
        report = recourse_probe(score_shell(linear_model(6.0, 0.0, 0.0, -1.0), shell))
        assert report.crossed_count == 3
        assert report.best_id == "base-shell-100000"
        assert report.best_similarity == 0.95
        assert report.deltas == {"f0": -2.5} and report.target_values == {"f0": -2.0}

    def test_reapplying_deltas_reproduces_reported_score(self):
        model = linear_model(5.0, -3.0, 1.0, 0.2)
        shell = similarity_shell(BASE, ["f0", "f1", "f2"], RANGES, d=0.75, n=300, seed=43)
        report = recourse_probe(score_shell(model, shell))
        assert report.recourse_found
        modified = dict(BASE.features)
        for name, delta in report.deltas.items():
            modified[name] = BASE.features[name] + delta
        rescored = model.score_samples([make_sample("redo", modified)])[0]
        assert rescored == pytest.approx(report.best_score, abs=1e-12)

    def test_base_exactly_at_threshold_classified_positive(self):
        # a constant model scores everything 0.5: base and draws tie at the
        # threshold, so all are +1 and nothing crosses
        shell = similarity_shell(BASE, ["f0"], RANGES, d=0.9, n=30, seed=47)
        report = recourse_probe(score_shell(constant_model(), shell, 0.5))
        assert report.base_class == 1
        assert report.crossed_count == 0
        # the threshold set to the base's own score: the base is +1, and the
        # draws that score below it cross
        model = linear_model(2.0, 0.0, 0.0, 0.0)
        base_score = model.score_samples([BASE])[0]
        scored = score_shell(model, shell, base_score)
        report = recourse_probe(scored)
        assert report.base_class == 1
        below = scored.scores < base_score
        assert 0 < below.sum() < len(shell)
        assert scored.crossed.tolist() == below.tolist()
        assert report.recourse_found
        assert report.crossed_count == below.sum()

    def test_other_scorers_rejected(self):
        shell = similarity_shell(BASE, ["f0"], RANGES, d=0.9, n=5, seed=67)
        with pytest.raises(ProbeError, match="cannot score with object of type ScoreFile"):
            score_shell(predict_scores(constant_model(), Dataset(SCHEMA, [BASE])), shell)
        with pytest.raises(ProbeError, match="cannot score with object of type dict"):
            score_shell({BASE.id: 0.5}, shell)

    def test_unscored_shell_rejected(self):
        shell = similarity_shell(BASE, ["f0"], RANGES, d=0.9, n=5, seed=67)
        with pytest.raises(ProbeError, match="needs a scored shell"):
            recourse_probe(shell)

    def test_empty_shell_rejected(self):
        empty = Shell(BASE, ("f0",), np.empty((0, 1)), np.empty(0))
        with pytest.raises(ProbeError, match="non-empty"):
            recourse_probe(score_shell(constant_model(), empty))

    def test_sensitivity_rate_reported(self):
        model = linear_model(6.0, 6.0, 0.0, -1.0)
        shell = similarity_shell(BASE, ["f0", "f1"], RANGES, d=0.8, n=100, seed=59)
        scored = score_shell(model, shell)
        report = recourse_probe(scored)
        rates = [
            abs(score - scored.base_score) / (1.0 - similarity)
            for score, similarity in zip(scored.scores.tolist(), scored.similarity.tolist())
            if similarity < 1.0
        ]
        assert report.max_score_rate == max(rates)


def shell_values(shell, names=("f0", "f1", "f2")):
    return [tuple(point[name] for name in names) for point in draws(shell)]


class TestShellStream:
    """Sample i is a function of (seed, i) alone, drawn from a counter-based stream."""

    def test_a_shorter_shell_is_the_head_of_a_longer_one(self):
        # at d = 0.8 about a fifth of the first draws round below the floor and
        # are redrawn, so redraws are covered too
        short = similarity_shell(BASE, ["f0", "f1", "f2"], RANGES, d=0.8, n=100, seed=3)
        long = similarity_shell(BASE, ["f0", "f1", "f2"], RANGES, d=0.8, n=1000, seed=3)
        assert short.values.tolist() == long.values[:100].tolist()
        assert short.similarity.tolist() == long.similarity[:100].tolist()
        assert len(set(shell_values(long))) == 1000  # every index has a stream of its own

    def test_redraws_are_keyed_by_index_not_by_position(self, monkeypatch):
        # the second run also rejects every third row in the first round, so a
        # row redrawn in both runs has more rows ahead of it among the pending
        # ones; its final draw must not change
        real = simlabel.probe.similarity_block
        first_round = []

        def record(left, right, ranges):
            sims = real(left, right, ranges)
            if not first_round:
                first_round.append(sims[0] < 0.8)
            return sims

        monkeypatch.setattr(simlabel.probe, "similarity_block", record)
        plain = similarity_shell(BASE, ["f0", "f1", "f2"], RANGES, d=0.8, n=300, seed=3)
        redrawn = first_round[0]

        calls = []

        def reject_more(left, right, ranges):
            sims = real(left, right, ranges)
            if not calls:
                sims[0, ::3] = 0.0
            calls.append(len(right))
            return sims

        monkeypatch.setattr(simlabel.probe, "similarity_block", reject_more)
        shaken = similarity_shell(BASE, ["f0", "f1", "f2"], RANGES, d=0.8, n=300, seed=3)
        extra = np.arange(300) % 3 == 0
        assert calls[1] == np.count_nonzero(redrawn | extra)
        both = redrawn & ~extra
        assert np.count_nonzero(both) >= 20
        assert shaken.values[both].tolist() == plain.values[both].tolist()
        assert shaken.values[~extra].tolist() == plain.values[~extra].tolist()

    def test_mean_share_per_feature_is_one_over_k(self):
        names = ("a", "b", "c", "e")
        spreads = {"a": 1.0, "b": 2.0, "c": 4.0, "e": 8.0}
        # the base sits mid-range and the largest move is 0.4 * r_k, so nothing clamps
        ranges = RangeTable(ranges=spreads, bounds={f: (-r / 2, r / 2) for f, r in spreads.items()})
        base = make_sample("mid", {f: 0.0 for f in names})
        d = 0.9
        shell = similarity_shell(base, list(names), ranges, d=d, n=5000, seed=101)
        budget = len(names) * (1.0 - d)
        for j, name in enumerate(names):
            shares = np.abs(shell.values[:, j]) / (budget * spreads[name])
            assert abs(np.mean(shares) - 0.25) <= 0.02, name

    # the natural words, then every word 0 and every word 2**64 - 1: the
    # extremes of u, where -log(u) would be inf or 0 if u could reach 0 or 1
    @pytest.mark.parametrize("word", [None, 0, 2**64 - 1])
    def test_one_varied_feature_never_accepts_nan(self, monkeypatch, word):
        if word is not None:
            real = simlabel.probe._words
            monkeypatch.setattr(simlabel.probe, "_words",
                                lambda *args: np.full_like(real(*args), word))
        # a NaN cell counts as missing in the kernel, so the other two features
        # alone would pass the floor; d = 0.5 clamps the largest moves
        shell = similarity_shell(BASE, ["f0"], RANGES, d=0.5, n=200, seed=5)
        values = shell.values[:, 0]
        assert not np.isnan(values).any()
        assert np.all((-2.0 <= values) & (values <= 2.0))

    @given(low=st.floats(-3.0, 3.0), spread=st.floats(0.01, 4.0), at=st.floats(0.0, 1.0),
           d=st.floats(0.0, 1.0), seed=st.integers(0, 2**70))
    @settings(max_examples=200, deadline=None)
    def test_one_varied_feature_always_meets_the_floor(self, low, spread, at, d, seed):
        # one varied feature moves by the whole budget, up or down, at every
        # attempt; in about one such problem in ten rounding puts both points
        # below d, and only the shrinking later attempts meet the floor
        high = low + spread
        ranges = RangeTable(ranges={"f0": high - low}, bounds={"f0": (low, high)})
        base = make_sample("b", {"f0": min(low + at * (high - low), high)})
        shell = similarity_shell(base, ["f0"], ranges, d=d, n=5, seed=seed)
        assert np.all(shell.similarity >= d)
        for point in draws(shell):
            assert gower_oracle(base.features, point, ranges.ranges) >= d

    def test_draws_rejected_every_round_name_the_lowest_index(self, monkeypatch):
        rounds = []

        def below_floor(left, right, ranges):
            rounds.append(len(right))
            return np.full((len(left), len(right)), 0.5)

        monkeypatch.setattr(simlabel.probe, "similarity_block", below_floor)
        with pytest.raises(ProbeError, match=rf"after {MAX_SHELL_ATTEMPTS} attempts \(index 0\)"):
            similarity_shell(BASE, ["f0", "f1"], RANGES, d=0.9, n=10, seed=1)
        assert rounds == [10] * MAX_SHELL_ATTEMPTS

    @given(data=st.data(), d=st.floats(0.0, 1.0), n=st.integers(1, 20), seed=st.integers(0, 2**70))
    @settings(max_examples=200, deadline=None)
    def test_any_range_table_gives_clamped_draws_at_the_oracle_similarity(self, data, d, n, seed):
        names = [f"f{j}" for j in range(data.draw(st.integers(2, 5)))]
        lows = {f: data.draw(st.floats(-3.0, 3.0)) for f in names}
        highs = {f: lows[f] + data.draw(st.one_of(st.just(0.0), st.floats(0.01, 4.0))) for f in names}
        ranges = RangeTable(ranges={f: highs[f] - lows[f] for f in names},
                            bounds={f: (lows[f], highs[f]) for f in names})
        vary = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True))
        # a base inside the bounds that may lack any feature it does not vary
        present = [f for f in names if f in vary or data.draw(st.booleans())]
        base = make_sample("b", {f: min(lows[f] + data.draw(st.floats(0.0, 1.0)) * (highs[f] - lows[f]), highs[f])
                                 for f in present})
        before = dict(base.features)
        shell = similarity_shell(base, vary, ranges, d=d, n=n, seed=seed)
        assert shell.values.shape == (n, len(vary))
        for j, name in enumerate(vary):
            lo, hi = ranges.bounds[name]
            assert np.all((lo <= shell.values[:, j]) & (shell.values[:, j] <= hi))
        assert base.features == before
        fixed = [f for f in names if f not in vary]
        rows = "".join(shell_to_csv_text(shell, names)).splitlines()[1:]
        for row in rows:
            cells = dict(zip(names, row.split(",")[1:]))
            assert [cells[f] for f in fixed] == [repr(before[f]) if f in before else "" for f in fixed]
        for point, similarity in zip(draws(shell), shell.similarity.tolist()):
            assert similarity.hex() == gower_oracle(point, base.features, ranges.ranges).hex()
            assert similarity >= d

    def test_seeds_of_any_size_give_distinct_shells(self):
        seeds = (0, 1, 2**64 - 1, 2**64, 2**64 + 1, 2**100)
        shells = {seed: similarity_shell(BASE, ["f0", "f1"], RANGES, d=0.9, n=20, seed=seed)
                  for seed in seeds}
        assert len({tuple(shell_values(shell)) for shell in shells.values()}) == len(seeds)
        again = similarity_shell(BASE, ["f0", "f1"], RANGES, d=0.9, n=20, seed=2**100)
        assert contents(again) == contents(shells[2**100])


class TestBlocks:
    """Draws, scores and the shell CSV are made `dataset.CHUNK_ROWS` rows at a time, with the bits of one block."""

    @pytest.mark.parametrize("chunk_rows", [1, 7])
    def test_blocks_change_no_draw_score_or_byte(self, monkeypatch, chunk_rows):
        model, n = linear_model(intercept=0.3), 20
        whole = similarity_shell(BASE, ["f0", "f1"], RANGES, d=0.8, n=n, seed=13)
        scored = score_shell(model, whole)
        grid = probability_grid(model, BASE, "f0", "f2", (-2, 2, 5), (-2, 2, 4))
        text = "".join(shell_to_csv_text(scored, SCHEMA.similarity_features))

        checked, scored_rows = [], []
        real_block, real_score = simlabel.probe.similarity_block, LinearModel.score_matrix

        def block(left, right, ranges):
            checked.append(len(right))
            return real_block(left, right, ranges)

        def score_matrix(self, x):
            scored_rows.append(len(x))
            return real_score(self, x)

        monkeypatch.setattr(simlabel.dataset, "CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr(simlabel.probe, "similarity_block", block)
        monkeypatch.setattr(LinearModel, "score_matrix", score_matrix)
        blocked = similarity_shell(BASE, ["f0", "f1"], RANGES, d=0.8, n=n, seed=13)
        assert max(checked) == chunk_rows
        assert blocked.values.tolist() == whole.values.tolist()
        assert blocked.similarity.tolist() == whole.similarity.tolist()

        rescored = score_shell(model, blocked)
        assert sum(scored_rows) == n + 1 and max(scored_rows) == chunk_rows  # the base, then the draws
        assert rescored.base_score == scored.base_score
        assert rescored.scores.tolist() == scored.scores.tolist()
        assert rescored.crossed.tolist() == scored.crossed.tolist()
        regrid = probability_grid(model, BASE, "f0", "f2", (-2, 2, 5), (-2, 2, 4))
        assert regrid.probabilities.tolist() == grid.probabilities.tolist()

        chunks = list(shell_to_csv_text(rescored, SCHEMA.similarity_features))
        assert len(chunks) == -(-n // chunk_rows)
        assert "".join(chunks) == text

    @pytest.mark.parametrize("chunk_rows", [None, 1, 7])
    def test_a_failing_later_block_names_the_same_lowest_index(self, monkeypatch, chunk_rows):
        # samples 9 and 15 are rejected at every attempt, whichever block and position they are drawn in
        doomed = simlabel.probe._streams(1, np.array([9, 15], dtype=np.uint64))
        real_words, real_block = simlabel.probe._words, simlabel.probe.similarity_block
        round_rows, rejected = [], []

        def words(streams, first, count):
            rejected[:] = [np.isin(streams, doomed)]
            return real_words(streams, first, count)

        def block(left, right, ranges):
            round_rows.append(len(right))
            sims = real_block(left, right, ranges)
            sims[0, rejected[0]] = 0.0
            return sims

        if chunk_rows:
            monkeypatch.setattr(simlabel.dataset, "CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr(simlabel.probe, "_words", words)
        monkeypatch.setattr(simlabel.probe, "similarity_block", block)
        with pytest.raises(ProbeError, match=rf"after {MAX_SHELL_ATTEMPTS} attempts \(index 9\)"):
            similarity_shell(BASE, ["f0", "f1"], RANGES, d=0.8, n=20, seed=1)
        assert round_rows[0] == (chunk_rows or 20)


@st.composite
def linear_problem(draw):
    """A linear model, a base inside the observed bounds, and a shell to draw around it."""
    names = [f"f{j}" for j in range(draw(st.integers(1, 4)))]
    number = st.floats(-3.0, 3.0, allow_nan=False)
    lows = {f: draw(number) for f in names}
    highs = {f: lows[f] + draw(st.one_of(st.just(0.0), st.floats(0.1, 4.0))) for f in names}
    ranges = RangeTable(ranges={f: highs[f] - lows[f] for f in names},
                        bounds={f: (lows[f], highs[f]) for f in names})
    # a point inside the bounds, rounding kept from stepping past the upper one
    base = make_sample("b", {f: min(lows[f] + draw(st.floats(0.0, 1.0)) * (highs[f] - lows[f]), highs[f])
                             for f in names})
    in_model = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    model = LinearModel(
        weights={f: draw(st.one_of(st.just(0.0), st.floats(-4.0, 4.0))) for f in in_model},
        intercept=draw(number),
        l1=0.0,
        l2=0.0,
        feature_means={f: draw(number) for f in in_model},
        feature_scales={f: draw(st.floats(0.2, 3.0)) for f in in_model},
    )
    vary = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    return model, base, vary, ranges


class TestExactLinearRecourse:
    @given(problem=linear_problem(), d=st.floats(0.5, 0.99), threshold=st.floats(0.2, 0.8),
           seed=st.integers(0, 2**70))
    @settings(max_examples=200, deadline=None)
    def test_no_shell_sample_beats_the_exact_answer(self, problem, d, threshold, seed):
        model, base, vary, ranges = problem
        base_score = model.score_samples([base])[0]
        assume(abs(base_score - threshold) > 1e-9)  # the base's own class is not a rounding call
        exact = exact_linear_recourse(model, base, vary, ranges, threshold)
        ceiling = -math.inf
        if exact is not None:
            ceiling, deltas = exact
            # the exact answer is a change within the bounds that reaches the threshold
            moved = {**base.features, **{f: base.features[f] + dx for f, dx in deltas.items()}}
            for name, value in moved.items():
                lo, hi = ranges.bounds[name]
                assert lo - 1e-12 <= value <= hi + 1e-12
            assert gower_oracle(base.features, moved, ranges.ranges) == pytest.approx(ceiling, abs=1e-12)
            assert model.score_samples([make_sample("m", moved)])[0] == pytest.approx(threshold, abs=1e-9)

        scored = score_shell(model, similarity_shell(base, vary, ranges, d=d, n=100, seed=seed), threshold)
        assert np.all(scored.similarity[scored.crossed] <= ceiling + 1e-12)
        if ceiling + 1e-12 < d:
            assert not recourse_probe(scored).recourse_found
