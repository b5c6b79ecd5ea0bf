"""Regularized logistic regression and classifier score files.

Training is deterministic full-batch proximal gradient descent: backtracking
line search on the smooth part (mean logistic loss plus the l2 term) and a
soft-threshold step for l1. Features are standardized to train-set mean and
scale, and missing cells are imputed with the train-set mean, so test-time
prediction never peeks at test statistics.

External classifiers participate in evaluation through score files, a
two-column delimited format (id, score in [0, 1]).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .dataset import Dataset, Sample, atomic_write_chunks, csv_chunks, feature_matrix, read_csv
from .dataset import id_violation, json_count, json_number, number, read_json
from .errors import ModelError

if TYPE_CHECKING:  # annotations only: score files and model JSON load without numpy, so `evaluate` never loads it
    import numpy as np


@dataclass(frozen=True)
class TrainConfig:
    """Regularization strengths, iteration budget and stopping tolerance."""

    l1: float = 0.0
    l2: float = 0.0
    max_iter: int = 500
    tol: float = 1e-8

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.l1, self.l2, self.tol)):
            raise ModelError(f"l1, l2 and tol must be finite, got {self.l1}, {self.l2} and {self.tol}")
        if self.l1 < 0 or self.l2 < 0:
            raise ModelError("regularization strengths must be non-negative")
        if self.max_iter < 1:
            raise ModelError("iteration budget must be at least 1")
        if self.tol <= 0:
            raise ModelError("tolerance must be positive")


@dataclass(frozen=True)
class LinearModel:
    """Trained weights over standardized features.

    score(x) = logistic(intercept + sum w_k * (x_k - mean_k) / scale_k).
    Only features that survived training appear in `weights`; zero-variance
    columns are dropped before optimization. `loss_history` holds the full
    objective at every accepted iterate (diagnostic only, not serialized).
    """

    weights: dict[str, float]
    intercept: float
    l1: float
    l2: float
    feature_means: dict[str, float]
    feature_scales: dict[str, float]
    stop_reason: str = ""
    n_iter: int = 0
    loss_history: tuple[float, ...] = field(default=(), compare=False, repr=False)

    @property
    def features(self) -> tuple[str, ...]:
        return tuple(self.weights)

    def score_samples(self, samples: Sequence[Sample]) -> np.ndarray:
        """Independent scores in (0, 1), one per sample: `score_matrix` of their feature matrix."""
        return self.score_matrix(feature_matrix(samples, self.features))

    def score_matrix(self, x: np.ndarray) -> np.ndarray:
        """Scores in (0, 1), one per row of x, missing (NaN) cells imputed with train means.

        The columns of x are `features`, in that order. Each row is scored
        independently (the matrix product is an einsum, one sequential sum per
        row), so a row's score does not depend on what else is in the batch.
        """
        import numpy as np
        feats = self.features
        w = np.array([self.weights[f] for f in feats], dtype=np.float64)
        means = np.array([self.feature_means[f] for f in feats], dtype=np.float64)
        scales = np.array([self.feature_scales[f] for f in feats], dtype=np.float64)
        x = np.where(np.isnan(x), means, x)
        z = (x - means) / scales
        margin = self.intercept + np.einsum("ij,j->i", z, w)
        return _sigmoid(margin)

    def to_json_dict(self) -> dict:
        return {
            "weights": dict(self.weights),
            "intercept": self.intercept,
            "l1": self.l1,
            "l2": self.l2,
            "feature_means": dict(self.feature_means),
            "feature_scales": dict(self.feature_scales),
            "stop_reason": self.stop_reason,
            "n_iter": self.n_iter,
            "final_loss": self.loss_history[-1] if self.loss_history else None,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "LinearModel":
        """The model a payload describes.

        Means and scales name the weights' features; every value is finite, scales > 0, l1 and l2 >= 0.
        """
        def numbers(key: str, what: str) -> dict[str, float]:
            return {str(k): json_number(v, f"{what} of {k!r}") for k, v in payload[key].items()}

        try:
            model = cls(
                weights=numbers("weights", "weight"),
                intercept=json_number(payload["intercept"], "intercept"),
                l1=json_number(payload["l1"], "l1"),
                l2=json_number(payload["l2"], "l2"),
                feature_means=numbers("feature_means", "mean"),
                feature_scales=numbers("feature_scales", "scale"),
                stop_reason=str(payload.get("stop_reason", "")),
                n_iter=json_count(payload.get("n_iter", 0), "n_iter"),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise ModelError(f"malformed model payload: {err}") from err
        for what, values in (("feature_means", model.feature_means), ("feature_scales", model.feature_scales)):
            missing, extra = model.weights.keys() - values.keys(), values.keys() - model.weights.keys()
            if missing or extra:
                raise ModelError(f"model {what} must name exactly the weights' features: "
                                 f"missing {sorted(missing)}, extra {sorted(extra)}")
        bad = [] if math.isfinite(model.intercept) else [f"intercept {model.intercept}"]
        # the strengths TrainConfig accepts
        bad += [f"{what} {v}" for what, v in (("l1", model.l1), ("l2", model.l2)) if not 0.0 <= v < math.inf]
        named = (("weight", model.weights), ("mean", model.feature_means), ("scale", model.feature_scales))
        for what, values in named:
            bad += [f"{what} of {k!r} {v}" for k, v in values.items()
                    if not math.isfinite(v) or what == "scale" and v <= 0]
        if bad:
            raise ModelError(f"model values must be finite, l1 and l2 >= 0 and scales > 0, got {', '.join(bad)}")
        return model


def load_model(path: str | Path) -> LinearModel:
    return read_json(path, ModelError, "model file", LinearModel.from_json_dict)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    import numpy as np
    out = np.empty_like(t, dtype=np.float64)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def smooth_loss(w: np.ndarray, b: float, z: np.ndarray, y: np.ndarray, l2: float) -> float:
    """Mean logistic loss plus the l2 half-square penalty (the differentiable part)."""
    import numpy as np
    margin = b + np.einsum("ij,j->i", z, w)
    loss = float(np.mean(np.logaddexp(0.0, -y * margin)))
    return loss + 0.5 * l2 * float(w @ w)


def smooth_loss_grad(
    w: np.ndarray, b: float, z: np.ndarray, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray, float]:
    """Smooth loss and its analytic gradient in (w, b)."""
    import numpy as np
    margin = b + np.einsum("ij,j->i", z, w)
    loss = float(np.mean(np.logaddexp(0.0, -y * margin))) + 0.5 * l2 * float(w @ w)
    slope = -y * _sigmoid(-y * margin)  # d/dmargin of logaddexp(0, -y*margin)
    n = len(y)
    grad_w = np.einsum("ij,i->j", z, slope) / n + l2 * w
    grad_b = float(np.mean(slope))
    return loss, grad_w, grad_b


def _soft_threshold(v: np.ndarray, threshold: float) -> np.ndarray:
    import numpy as np
    return np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)


def train_logistic(
    train: Dataset,
    features: Sequence[str] | None = None,
    config: TrainConfig = TrainConfig(),
) -> LinearModel:
    """Fit logistic regression by proximal gradient descent with backtracking.

    Weights start at zero, so training draws nothing at random. Each accepted
    step satisfies the quadratic upper bound condition, so the full objective
    is non-increasing across accepted iterates. Stops at the gradient-map
    tolerance or the iteration budget, and records which one fired.
    """
    import numpy as np
    schema = train.schema
    if features is None:
        features = schema.feature_columns
    else:
        unknown = [f for f in features if f not in schema.feature_columns]
        if unknown:
            raise ModelError(f"features not in schema: {', '.join(unknown)}")
        repeated = list(dict.fromkeys(f for f in features if features.count(f) > 1))
        if repeated:
            raise ModelError(f"features named more than once: {', '.join(repeated)}")
        features = tuple(features)

    unlabeled = [row.id for row in train.rows if row.label is None]
    if unlabeled:
        raise ModelError(
            f"training data has unlabeled rows: {', '.join(unlabeled[:10])}"
        )
    y = np.array([row.label for row in train.rows], dtype=np.float64)
    if not ((y == 1).any() and (y == -1).any()):
        raise ModelError("training data must contain both labels (-1 and +1)")

    n = len(train.rows)
    x = feature_matrix(train.rows, features)

    kept: list[str] = []
    means: dict[str, float] = {}
    scales: dict[str, float] = {}
    columns: list[np.ndarray] = []
    dropped: list[str] = []
    for j, name in enumerate(features):
        col = x[:, j]
        present = ~np.isnan(col)
        if not present.any():
            dropped.append(name)
            continue
        mean = float(col[present].mean())
        filled = np.where(present, col, mean)
        scale = float(filled.std())
        if scale == 0.0:
            dropped.append(name)
            continue
        kept.append(name)
        means[name] = mean
        scales[name] = scale
        columns.append((filled - mean) / scale)
    if dropped:
        warnings.warn(
            f"dropping zero-variance or empty features: {', '.join(dropped)}",
            stacklevel=2,
        )
    z = np.column_stack(columns) if columns else np.zeros((n, 0))

    w = np.zeros(len(kept), dtype=np.float64)
    b = 0.0
    eta = 1.0
    losses = [smooth_loss(w, b, z, y, config.l2)]  # the l1 term is 0 at w = 0
    stop_reason = "iteration-budget"

    for _ in range(config.max_iter):
        g_val, grad_w, grad_b = smooth_loss_grad(w, b, z, y, config.l2)
        while eta >= 1e-20:
            w_new = _soft_threshold(w - eta * grad_w, eta * config.l1)
            b_new = b - eta * grad_b
            dw = w_new - w
            db = b_new - b
            g_new = smooth_loss(w_new, b_new, z, y, config.l2)
            bound = g_val + float(grad_w @ dw) + grad_b * db + (float(dw @ dw) + db * db) / (2.0 * eta)
            objective = g_new + config.l1 * float(np.sum(np.abs(w_new)))
            if g_new <= bound and objective <= losses[-1]:
                break
            eta *= 0.5
        else:
            stop_reason = "tolerance"  # step underflow: no descent left at float precision
            break
        step_norm = math.sqrt(float(dw @ dw) + db * db)
        w, b = w_new, b_new
        losses.append(objective)
        if step_norm / eta <= config.tol:
            stop_reason = "tolerance"
            break
        eta = min(eta * 2.0, 1e6)

    return LinearModel(
        weights={name: float(value) for name, value in zip(kept, w)},
        intercept=float(b),
        l1=config.l1,
        l2=config.l2,
        feature_means=means,
        feature_scales=scales,
        stop_reason=stop_reason,
        n_iter=len(losses) - 1,
        loss_history=tuple(losses),
    )


@dataclass(frozen=True)
class ScoreFile:
    """Per-sample scores in [0, 1] from one named model; ids are unique."""

    rows: tuple[tuple[str, float], ...]
    model_name: str = ""

    def __post_init__(self):
        seen = set()
        for sample_id, score in self.rows:
            if sample_id in seen:
                raise ModelError(f"duplicate id in score file: {sample_id!r}")
            seen.add(sample_id)
            if not 0.0 <= score <= 1.0:
                raise ModelError(f"score for {sample_id!r} outside [0, 1]: {score}")

    def scores_by_id(self) -> dict[str, float]:
        return dict(self.rows)


def predict_scores(model: LinearModel, data: Dataset, model_name: str = "logistic regression") -> ScoreFile:
    """Score every row of the dataset, in row order."""
    scores = model.score_samples(data.rows)
    rows = tuple((row.id, float(score)) for row, score in zip(data.rows, scores))
    return ScoreFile(rows=rows, model_name=model_name)


def save_scores(scores: ScoreFile, path: str | Path) -> None:
    """Write the id,score CSV, streamed as `dataset.csv_chunks`."""
    atomic_write_chunks(path, csv_chunks(["id", "score"], scores.rows))


def load_external_scores(path: str | Path, model_name: str | None = None) -> ScoreFile:
    """Read and validate an id,score file produced by any classifier."""
    lines = read_csv(path, ModelError, "score file")
    _, header = next(lines)
    if [h.strip() for h in header] != ["id", "score"]:
        raise ModelError(f"{path}: header must be exactly 'id,score', got {header}")
    rows: list[tuple[str, float]] = []
    violations: list[str] = []
    seen: dict[str, int] = {}
    for row_num, cells in lines:
        if len(cells) != 2:
            violations.append(f"row {row_num}: expected 2 columns, found {len(cells)}")
            continue
        sample_id, score_text = cells[0].strip(), cells[1].strip()
        if problem := id_violation(sample_id, row_num, seen):
            violations.append(problem)
            continue
        try:
            score = number(score_text)
        except ValueError:
            violations.append(f"row {row_num}: score is not numeric: {score_text!r}")
            continue
        if not math.isfinite(score) or not 0.0 <= score <= 1.0:
            violations.append(f"row {row_num}: score outside [0, 1]: {score_text}")
            continue
        rows.append((sample_id, score))
    if violations:
        raise ModelError(f"{path}: {len(violations)} invalid rows: {'; '.join(violations)}")
    name = model_name if model_name is not None else Path(path).stem
    return ScoreFile(rows=tuple(rows), model_name=name)
