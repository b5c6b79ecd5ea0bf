"""Logistic regression training, prediction, and score-file tests."""

import json
import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import T0, make_sample, make_schema
from oracles import auc_pairs_oracle, central_difference_gradient
from simlabel.dataset import Dataset, write_json
from simlabel.errors import ModelError
from simlabel.model import (
    LinearModel,
    ScoreFile,
    TrainConfig,
    _sigmoid,
    load_external_scores,
    load_model,
    predict_scores,
    save_scores,
    smooth_loss,
    smooth_loss_grad,
    train_logistic,
)

SCHEMA = make_schema(2, 1)


def separable_1d(n=30):
    rows = []
    for i in range(n):
        x = -2.0 - i * 0.1 if i % 2 == 0 else 2.0 + i * 0.1
        label = -1 if i % 2 == 0 else 1
        rows.append(
            make_sample(
                f"s{i}",
                {"f0": x, "f1": 0.5 * x, "g0": 1.0 + 0.1 * i},
                label=label,
                ts=T0 + timedelta(hours=i),
            )
        )
    return Dataset(SCHEMA, rows, "separable fixture")


def noisy_dataset(rng, n=80, n_sim=2, n_est=1):
    schema = make_schema(n_sim, n_est)
    rows = []
    for i in range(n):
        label = -1 if i % 2 == 0 else 1
        feats = {f"f{j}": float(rng.normal() + 0.8 * label) for j in range(n_sim)}
        for j in range(n_est):
            feats[f"g{j}"] = float(rng.normal() * 2.0)
        rows.append(make_sample(f"n{i}", feats, label=label, ts=T0 + timedelta(hours=i)))
    return Dataset(schema, rows, "noisy fixture")


class TestGradient:
    def test_analytic_gradient_matches_central_differences(self):
        rng = np.random.default_rng(31)
        n, dim = 40, 5
        z = rng.normal(size=(n, dim))
        y = rng.choice([-1.0, 1.0], size=n)
        l2 = 0.3
        worst = 0.0
        for _ in range(20):
            point = rng.normal(size=dim + 1)
            w, b = point[:-1], float(point[-1])
            _, grad_w, grad_b = smooth_loss_grad(w, b, z, y, l2)
            analytic = np.append(grad_w, grad_b)

            def flat(theta):
                return smooth_loss(theta[:-1], float(theta[-1]), z, y, l2)

            numeric = central_difference_gradient(flat, point)
            rel = np.abs(numeric - analytic) / np.maximum(np.abs(analytic), 1.0)
            worst = max(worst, float(rel.max()))
        assert worst <= 1e-5


class TestTrainLogistic:
    def test_separable_data_reaches_training_auc_one(self):
        data = separable_1d()
        model = train_logistic(data, config=TrainConfig(max_iter=200))
        scores = predict_scores(model, data)
        lookup = scores.scores_by_id()
        values = [lookup[row.id] for row in data.rows]
        labels = [row.label for row in data.rows]
        assert auc_pairs_oracle(values, labels) == 1.0

    def test_loss_never_increases_across_accepted_iterations(self):
        rng = np.random.default_rng(32)
        data = noisy_dataset(rng)
        for l1, l2 in ((0.0, 0.0), (0.05, 0.0), (0.0, 0.5), (0.02, 0.2)):
            model = train_logistic(data, config=TrainConfig(l1=l1, l2=l2, max_iter=150))
            history = model.loss_history
            assert len(history) >= 2
            assert all(later <= earlier for earlier, later in zip(history, history[1:]))

    def test_l2_sweep_shrinks_weight_norms(self):
        rng = np.random.default_rng(33)
        data = noisy_dataset(rng)
        norms = []
        for l2 in (0.0, 0.1, 1.0, 10.0):
            model = train_logistic(data, config=TrainConfig(l2=l2, max_iter=400))
            weights = np.array(list(model.weights.values()))
            norms.append(float(np.sqrt(weights @ weights)))
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_l1_zeroes_out_noise_features(self):
        rng = np.random.default_rng(34)
        data = noisy_dataset(rng, n=120)
        strong = train_logistic(data, config=TrainConfig(l1=0.5, max_iter=400))
        assert all(abs(w) < 1e-6 for w in strong.weights.values())

    def test_training_is_bit_deterministic(self):
        rng = np.random.default_rng(35)
        data = noisy_dataset(rng)
        config = TrainConfig(l1=0.01, l2=0.1, max_iter=120)
        first = train_logistic(data, config=config)
        second = train_logistic(data, config=config)
        assert first.weights == second.weights
        assert first.intercept == second.intercept
        assert first.loss_history == second.loss_history

    def test_stop_reason_recorded(self):
        rng = np.random.default_rng(36)
        data = noisy_dataset(rng, n=40)
        budget = train_logistic(data, config=TrainConfig(max_iter=3))
        assert budget.stop_reason == "iteration-budget"
        assert budget.n_iter == 3
        converged = train_logistic(data, config=TrainConfig(max_iter=5000, tol=1e-6, l2=1.0))
        assert converged.stop_reason == "tolerance"

    def test_single_class_rejected(self):
        rows = [make_sample(f"s{i}", {"f0": float(i), "f1": 0.0, "g0": 0.0}, label=1) for i in range(5)]
        with pytest.raises(ModelError, match="both labels"):
            train_logistic(Dataset(SCHEMA, rows))

    def test_unlabeled_rows_rejected(self):
        rows = [
            make_sample("a", {"f0": 0.0, "f1": 0.0, "g0": 0.0}, label=1),
            make_sample("b", {"f0": 1.0, "f1": 0.0, "g0": 0.0}),
        ]
        with pytest.raises(ModelError, match="unlabeled"):
            train_logistic(Dataset(SCHEMA, rows))

    def test_zero_variance_feature_dropped_with_warning(self):
        rows = [
            make_sample(
                f"s{i}",
                {"f0": float(i), "f1": 4.0, "g0": float(i % 3)},
                label=-1 if i % 2 == 0 else 1,
            )
            for i in range(10)
        ]
        with pytest.warns(UserWarning, match="f1"):
            model = train_logistic(Dataset(SCHEMA, rows))
        assert "f1" not in model.weights
        assert "f0" in model.weights

    def test_feature_missing_from_every_row_dropped_with_warning(self):
        rows = [make_sample(f"s{i}", {"f0": float(i), "f1": 1.0 - i}, label=-1 if i % 2 == 0 else 1)
                for i in range(6)]
        with pytest.warns(UserWarning, match="dropping zero-variance or empty features: g0$"):
            model = train_logistic(Dataset(SCHEMA, rows))
        assert set(model.weights) == {"f0", "f1"}

    @pytest.mark.parametrize("fields, message", [
        ({"l1": -0.1}, "regularization strengths must be non-negative"),
        ({"l2": -1.0}, "regularization strengths must be non-negative"),
        ({"max_iter": 0}, "iteration budget must be at least 1"),
        ({"tol": 0.0}, "tolerance must be positive"),
        ({"tol": -1e-8}, "tolerance must be positive"),
    ])
    def test_config_guards(self, fields, message):
        with pytest.raises(ModelError, match=f"^{message}$"):
            TrainConfig(**fields)

    def test_unknown_feature_rejected(self):
        data = separable_1d()
        with pytest.raises(ModelError, match="not in schema"):
            train_logistic(data, features=["f0", "mystery"])

    def test_feature_named_twice_rejected(self):
        # fitting f0 twice would save one of its two weights
        data = separable_1d()
        with pytest.raises(ModelError, match="features named more than once: f0$"):
            train_logistic(data, features=["f0", "f0", "f1"])

    def test_feature_subset_respected(self):
        data = separable_1d()
        model = train_logistic(data, features=["f0"])
        assert set(model.weights) == {"f0"}

    def test_missing_cells_imputed_with_train_mean(self):
        rows = [
            make_sample("a", {"f0": 0.0, "f1": 1.0, "g0": 2.0}, label=-1),
            make_sample("b", {"f0": 2.0, "f1": 3.0}, label=1),  # g0 missing
            make_sample("c", {"f0": 4.0, "f1": 5.0, "g0": 4.0}, label=1),
        ]
        model = train_logistic(Dataset(SCHEMA, rows), config=TrainConfig(max_iter=10))
        assert model.feature_means["g0"] == 3.0  # mean of the observed values


class TestPredictScores:
    def test_zero_model_scores_half(self):
        model = LinearModel(
            weights={"f0": 0.0},
            intercept=0.0,
            l1=0.0,
            l2=0.0,
            feature_means={"f0": 0.0},
            feature_scales={"f0": 1.0},
        )
        data = Dataset(SCHEMA, [make_sample("a", {"f0": 5.0, "f1": 0.0})])
        assert predict_scores(model, data).rows[0][1] == 0.5

    @pytest.mark.parametrize("intercept", [-2.5, 0.0, 1.25])
    def test_model_without_weights_scores_its_intercept(self, intercept):
        # training drops constant features, so a model can keep none: its feature matrix has no columns
        model = LinearModel(weights={}, intercept=intercept, l1=0.0, l2=0.0, feature_means={}, feature_scales={})
        data = Dataset(SCHEMA, [make_sample("a", {"f0": 5.0, "f1": 0.0}), make_sample("b", {})])
        expected = _sigmoid(np.array([intercept]))[0]
        assert [score for _, score in predict_scores(model, data).rows] == [expected, expected]

    @given(data=st.data(), n_features=st.integers(0, 12), n_rows=st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_score_matrix_scores_each_row_as_it_scores_alone(self, data, n_features, n_rows):
        # the probes score their points in blocks of rows and rely on this
        names = [f"f{j}" for j in range(n_features)]
        number = st.floats(-1e3, 1e3)
        model = LinearModel(
            weights={f: data.draw(number) for f in names},
            intercept=data.draw(number),
            l1=0.0,
            l2=0.0,
            feature_means={f: data.draw(number) for f in names},
            feature_scales={f: data.draw(st.floats(1e-3, 1e3)) for f in names},
        )
        x = data.draw(arrays(np.float64, (n_rows, n_features), elements=number | st.just(math.nan)))
        alone = [model.score_matrix(x[i:i + 1].copy())[0] for i in range(n_rows)]
        assert model.score_matrix(x).tolist() == alone

    def test_standardized_zero_scores_half(self):
        model = LinearModel(
            weights={"f0": 1.0},
            intercept=0.0,
            l1=0.0,
            l2=0.0,
            feature_means={"f0": 7.0},
            feature_scales={"f0": 2.0},
        )
        data = Dataset(SCHEMA, [make_sample("a", {"f0": 7.0, "f1": 0.0})])
        assert predict_scores(model, data).rows[0][1] == 0.5

    def test_hand_computed_logistic_matches(self):
        model = LinearModel(
            weights={"f0": 0.8, "f1": -0.3},
            intercept=0.25,
            l1=0.0,
            l2=0.0,
            feature_means={"f0": 1.0, "f1": -2.0},
            feature_scales={"f0": 0.5, "f1": 4.0},
        )
        data = Dataset(SCHEMA, [make_sample("a", {"f0": 1.7, "f1": 0.4})])
        z0 = (1.7 - 1.0) / 0.5
        z1 = (0.4 - -2.0) / 4.0
        margin = 0.25 + 0.8 * z0 + -0.3 * z1
        expected = 1.0 / (1.0 + math.exp(-margin))
        assert predict_scores(model, data).rows[0][1] == pytest.approx(expected, abs=1e-12)

    def test_missing_cell_imputed_at_prediction(self):
        model = LinearModel(
            weights={"f0": 2.0},
            intercept=0.0,
            l1=0.0,
            l2=0.0,
            feature_means={"f0": 3.0},
            feature_scales={"f0": 1.5},
        )
        data = Dataset(SCHEMA, [make_sample("a", {"f1": 9.0})])  # f0 missing
        assert predict_scores(model, data).rows[0][1] == 0.5

    def test_trained_scores_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(37)
        data = noisy_dataset(rng)
        model = train_logistic(data, config=TrainConfig(l2=0.1, max_iter=200))
        for _, score in predict_scores(model, data).rows:
            assert 0.0 < score < 1.0

    def test_model_json_roundtrip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(38)
        data = noisy_dataset(rng)
        model = train_logistic(data, config=TrainConfig(l1=0.01, l2=0.2, max_iter=100))
        path = tmp_path / "model.json"
        write_json(path, model.to_json_dict())
        loaded = load_model(path)
        original = [s for _, s in predict_scores(model, data).rows]
        recovered = [s for _, s in predict_scores(loaded, data).rows]
        assert original == recovered
        payload = json.loads(path.read_text())
        assert payload["stop_reason"] in ("tolerance", "iteration-budget")

    def test_model_file_with_a_seed_key_still_loads(self):
        rng = np.random.default_rng(39)
        data = noisy_dataset(rng)
        payload = train_logistic(data, config=TrainConfig(l2=0.1, max_iter=50)).to_json_dict()
        assert "seed" not in payload
        with_seed = LinearModel.from_json_dict({**payload, "seed": 0})
        without_seed = LinearModel.from_json_dict(payload)
        assert with_seed == without_seed
        assert predict_scores(with_seed, data) == predict_scores(without_seed, data)


class TestScoreFiles:
    def test_well_formed_file(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("id,score\na,0.25\nb,0.5\nc,1.0\n", encoding="utf-8")
        scores = load_external_scores(path, "svm (rbf)")
        assert scores.model_name == "svm (rbf)"
        assert scores.rows == (("a", 0.25), ("b", 0.5), ("c", 1.0))

    def test_score_outside_unit_interval_names_row(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("id,score\na,0.25\nb,1.2\n", encoding="utf-8")
        with pytest.raises(ModelError, match="row 2"):
            load_external_scores(path)

    def test_duplicate_id_listed(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("id,score\na,0.25\na,0.5\n", encoding="utf-8")
        with pytest.raises(ModelError, match="duplicate id 'a'"):
            load_external_scores(path)

    def test_non_numeric_score_named(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("id,score\na,high\n", encoding="utf-8")
        with pytest.raises(ModelError, match="not numeric"):
            load_external_scores(path)

    @pytest.mark.parametrize("cell", ["0.2_5", "0_1", "1_0e-1"])
    def test_digit_grouping_underscore_score_is_not_numeric(self, tmp_path, cell):
        path = tmp_path / "scores.csv"
        path.write_text(f"id,score\na,0.25\nb,{cell}\n", encoding="utf-8")
        with pytest.raises(ModelError, match=f"row 2: score is not numeric: '{cell}'"):
            load_external_scores(path)

    @pytest.mark.parametrize("line, problem", [
        ("b", "row 2: expected 2 columns, found 1"),
        ("b,0.5,x", "row 2: expected 2 columns, found 3"),
        (" ,0.5", "row 2: empty id"),
    ])
    def test_malformed_row_named(self, tmp_path, line, problem):
        path = tmp_path / "scores.csv"
        path.write_text(f"id,score\na,0.25\n{line}\n", encoding="utf-8")
        with pytest.raises(ModelError, match=f"1 invalid rows: {problem}$"):
            load_external_scores(path)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("sample,value\na,0.25\n", encoding="utf-8")
        with pytest.raises(ModelError, match="header"):
            load_external_scores(path)

    def test_default_name_is_file_stem(self, tmp_path):
        path = tmp_path / "xgboost.csv"
        path.write_text("id,score\na,0.25\n", encoding="utf-8")
        assert load_external_scores(path).model_name == "xgboost"

    def test_write_then_load_roundtrip(self, tmp_path):
        scores = ScoreFile(rows=(("a", 0.125), ("b", 0.875)), model_name="m")
        path = tmp_path / "out.csv"
        save_scores(scores, path)
        loaded = load_external_scores(path, "m")
        assert loaded == scores

    def test_constructor_validates(self):
        with pytest.raises(ModelError, match="outside"):
            ScoreFile(rows=(("a", 1.5),))
        with pytest.raises(ModelError, match="duplicate"):
            ScoreFile(rows=(("a", 0.5), ("a", 0.6)))
