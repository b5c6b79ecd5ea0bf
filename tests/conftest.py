"""Shared builders: schemas, samples, random instances, and the two-cluster fixture."""

from __future__ import annotations

import json
import math
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from simlabel.dataset import Dataset, FeatureSchema, Sample, write_dataset
from simlabel.kernel import compute_ranges

T0 = datetime(2024, 1, 1)


def make_schema(n_sim: int = 2, n_est: int = 1) -> FeatureSchema:
    mapping = {"uid": "id", "ts": "timestamp", "y": "label"}
    for i in range(n_sim):
        mapping[f"f{i}"] = "similarity"
    for i in range(n_est):
        mapping[f"g{i}"] = "estimation-only"
    return FeatureSchema.from_mapping(mapping)


def make_sample(sid, features, label=None, ts=None) -> Sample:
    return Sample(
        id=str(sid),
        timestamp=ts if ts is not None else T0,
        features={k: float(v) for k, v in features.items()},
        label=label,
    )


def match_dicts(matches, estimation_features) -> list[dict]:
    """A matcher.Matches as oracles.match_oracle's dicts: NaN becomes None, and a row
    that abstains has no imputed map."""

    def cell(value):
        return None if math.isnan(value) else value

    rows = zip(matches.ids, matches.votes.tolist(), matches.estimates.tolist(), matches.matched.tolist(),
               matches.imputed.tolist())
    return [
        {"id": uid, "t": cell(t), "y_hat": y_hat, "matched_count": count,
         "imputed": {name: cell(value) for name, value in zip(estimation_features, imputed)} if y_hat else None}
        for uid, t, y_hat, count, imputed in rows
    ]


def random_instance(rng, n_labeled, n_unlabeled, n_sim=4, n_est=2, missing_rate=0.2):
    """Random labeled/unlabeled pair with ranges pooled over both.

    Labeled rows always carry every similarity feature (their invariant);
    estimation features on labeled rows and similarity features on unlabeled
    rows go missing at `missing_rate`.
    """
    schema = make_schema(n_sim, n_est)
    labeled_rows = []
    for i in range(n_labeled):
        feats = {f"f{j}": rng.normal() * 2.0 for j in range(n_sim)}
        for j in range(n_est):
            if rng.random() >= missing_rate:
                feats[f"g{j}"] = 10.0 + rng.normal() * 3.0
        labeled_rows.append(
            make_sample(f"l{i}", feats, label=int(rng.choice([-1, 1])), ts=T0 + timedelta(hours=i))
        )
    unlabeled_rows = []
    for i in range(n_unlabeled):
        feats = {
            f"f{j}": rng.normal() * 2.0
            for j in range(n_sim)
            if rng.random() >= missing_rate
        }
        if not feats:
            feats["f0"] = rng.normal() * 2.0
        unlabeled_rows.append(make_sample(f"u{i}", feats, ts=T0 + timedelta(hours=i)))
    labeled = Dataset(schema, labeled_rows, "labeled fixture")
    unlabeled = Dataset(schema, unlabeled_rows, "unlabeled fixture")
    ranges = compute_ranges([labeled, unlabeled], schema)
    return schema, labeled, unlabeled, ranges


def two_cluster(
    rng,
    n_labeled_per: int = 20,
    n_unlabeled_per: int = 400,
    n_sim: int = 6,
    center: float = 1.2,
    std: float = 1.0,
    labeled_spread: float = 1.0,
):
    """Two Gaussian clusters at -center and +center (per similarity dimension).

    Labeled rows carry their cluster's pure label and two estimation features
    derived from the cluster geometry. `labeled_spread` scales the labeled
    rows' standard deviation relative to the unlabeled ones; spreading the
    labeled set out keeps its members mutually dissimilar, which is what the
    similarity-threshold calibration assumes. Returns (schema, labeled,
    unlabeled, truth, projection) where truth maps each unlabeled id to its
    generating cluster's label and projection to its mean similarity
    coordinate (the cluster axis; 0 is the overlap midplane).
    """
    schema = make_schema(n_sim, 2)
    labeled_rows = []
    for i in range(2 * n_labeled_per):
        label = -1 if i % 2 == 0 else 1  # interleaved in time so splits keep both
        point = rng.normal(size=n_sim) * std * labeled_spread + label * center
        feats = {f"f{j}": float(point[j]) for j in range(n_sim)}
        mean_coord = float(point.mean())
        feats["g0"] = 20.0 + 4.0 * mean_coord + float(rng.normal()) * 0.5
        feats["g1"] = 1.0 * label + float(rng.normal()) * 1.5
        labeled_rows.append(
            make_sample(f"l{i:04d}", feats, label=label, ts=T0 + timedelta(hours=i))
        )
    unlabeled_rows = []
    truth: dict[str, int] = {}
    projection: dict[str, float] = {}
    for i in range(2 * n_unlabeled_per):
        label = -1 if i < n_unlabeled_per else 1
        point = rng.normal(size=n_sim) * std + label * center
        sid = f"u{i:05d}"
        truth[sid] = label
        projection[sid] = float(point.mean())
        feats = {f"f{j}": float(point[j]) for j in range(n_sim)}
        unlabeled_rows.append(make_sample(sid, feats, ts=T0 + timedelta(hours=i)))
    labeled = Dataset(schema, labeled_rows, "two-cluster labeled")
    unlabeled = Dataset(schema, unlabeled_rows, "two-cluster unlabeled")
    return schema, labeled, unlabeled, truth, projection


def write_pipeline_fixture(
    target: Path,
    seed: int = 11,
    n_labeled_per: int = 60,
    n_unlabeled_per: int = 400,
    center: float = 0.6,
    l2: float = 0.1,
    extra_config: dict | None = None,
) -> dict[str, Path]:
    """Write schema.json, labeled.csv, unlabeled.csv, and config.json for CLI runs.

    The default geometry (tight unlabeled clusters, labeled set spread wide so
    its members stay mutually dissimilar) makes the 95th-percentile d and the
    under-5%-budget c land in a regime where a healthy number of confident
    matches of both classes appear on the train and test sides.
    """
    rng = np.random.default_rng(seed)
    schema, labeled, unlabeled, truth, projection = two_cluster(
        rng,
        n_labeled_per=n_labeled_per,
        n_unlabeled_per=n_unlabeled_per,
        n_sim=4,
        center=center,
        std=0.8,
        labeled_spread=2.75,
    )
    target.mkdir(parents=True, exist_ok=True)
    schema_path = target / "schema.json"
    schema_path.write_text(json.dumps(schema.to_mapping(), indent=2), encoding="utf-8")
    labeled_path = target / "labeled.csv"
    unlabeled_path = target / "unlabeled.csv"
    write_dataset(labeled, labeled_path)
    write_dataset(unlabeled, unlabeled_path)
    config = {
        "schema": "schema.json",
        "labeled": "labeled.csv",
        "unlabeled": "unlabeled.csv",
        "out_dir": "out",
        "seed": 7,
        "split": {"test_fraction": 0.2},
        "calibrate": {"percentile": 0.95, "confidence_budget": 0.05},
        "train": {"l1": 0.0, "l2": l2, "max_iter": 300, "tol": 1e-8},
        "probe": {"sample_id": labeled.rows[0].id, "count": 64},
    }
    if extra_config:
        config.update(extra_config)
    config_path = target / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return {
        "dir": target,
        "schema": schema_path,
        "labeled": labeled_path,
        "unlabeled": unlabeled_path,
        "config": config_path,
        "out": target / "out",
        "truth": truth,
        "projection": projection,
    }
