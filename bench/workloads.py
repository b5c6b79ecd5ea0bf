"""Workload definitions and the seeded input generator.

Every workload uses the two-cluster geometry of the pipeline test fixture: a
labeled set spread wide around two cluster centres (so its members stay
mutually dissimilar and the 95th-percentile d lands above most pool rows), a
tight unlabeled pool around the same centres with 20% of its similarity cells
missing, and two estimation-only features that exist only on labeled rows.
The same (workload, seed) always gives byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

N_SIM = 10
N_EST = 2
CENTER = 0.6
STD = 0.8
LABELED_SPREAD = 2.75
POOL_MISSING_RATE = 0.2
T0 = datetime(2024, 1, 1)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    labeled: int
    pool: int
    grid_points: int  # per axis of the probe grid
    shell_draws: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mine", "paper setting 500x4k plus a 300x300 grid and a 50k-draw shell: the kernel, matcher and probes dominate",
            labeled=500, pool=4000, grid_points=300, shell_draws=50_000,
        ),
        Workload(
            "pool", "40x20k plus a 150x150 grid and a 12.5k-draw shell: per-row parsing, serialization and the similar-row steps carry the cost",
            labeled=40, pool=20000, grid_points=150, shell_draws=12_500,
        ),
    )
}

SIM_FEATURES = [f"f{j}" for j in range(N_SIM)]
EST_FEATURES = [f"g{j}" for j in range(N_EST)]
HEADER = ["id", "ts", "y", *SIM_FEATURES, *EST_FEATURES]


def _cell(value: float) -> str:
    return "" if np.isnan(value) else repr(float(value))


def _csv_text(ids, labels, points, extras) -> str:
    lines = [",".join(HEADER)]
    for i, sid in enumerate(ids):
        ts = (T0 + timedelta(hours=i)).isoformat()
        label = "" if labels is None else str(int(labels[i]))
        cells = [_cell(v) for v in points[i]] + [_cell(v) for v in extras[i]]
        lines.append(",".join([sid, ts, label, *cells]))
    return "\n".join(lines) + "\n"


def generate(workload: Workload, seed: int, target: Path) -> dict:
    """Write schema.json, labeled.csv, unlabeled.csv and config.json into target.

    Returns the paths, the derived config seed and the sha256 of each file.
    """
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])

    n = workload.labeled
    labels = np.where(np.arange(n) % 2 == 0, -1, 1)  # interleaved in time so splits keep both
    points = rng.normal(size=(n, N_SIM)) * STD * LABELED_SPREAD + labels[:, None] * CENTER
    mean_coord = points.mean(axis=1)
    est = np.empty((n, N_EST))
    est[:, 0] = 20.0 + 4.0 * mean_coord + rng.normal(size=n) * 0.5
    est[:, 1] = labels + rng.normal(size=n) * 1.5
    labeled_ids = [f"l{i:04d}" for i in range(n)]

    m = workload.pool
    pool_labels = np.where(np.arange(m) < m // 2, -1, 1)
    pool = rng.normal(size=(m, N_SIM)) * STD + pool_labels[:, None] * CENTER
    missing = rng.random(size=(m, N_SIM)) < POOL_MISSING_RATE
    # a pool row with no similarity value cannot be compared at all; keep one cell
    empty = np.flatnonzero(missing.all(axis=1))
    missing[empty, rng.integers(0, N_SIM, size=len(empty))] = False
    pool[missing] = np.nan
    pool_est = np.full((m, N_EST), np.nan)
    pool_ids = [f"u{i:05d}" for i in range(m)]

    bounds = np.vstack([points[:, :2], pool[:, :2]])
    lo, hi = np.nanmin(bounds, axis=0), np.nanmax(bounds, axis=0)
    config_seed = int(rng.integers(0, 2**31 - 1))
    config = {
        "schema": "schema.json",
        "labeled": "labeled.csv",
        "unlabeled": "unlabeled.csv",
        "seed": config_seed,
        "split": {"test_fraction": 0.2},
        "calibrate": {"percentile": 0.95, "confidence_budget": 0.05},
        "train": {"l1": 0.0, "l2": 0.1, "max_iter": 300, "tol": 1e-8},
        "probe": {
            "sample_id": labeled_ids[0],
            "fx": "f0",
            "fy": "f1",
            "x": [float(lo[0]), float(hi[0]), workload.grid_points],
            "y": [float(lo[1]), float(hi[1]), workload.grid_points],
            "count": workload.shell_draws,
        },
    }
    schema = {"id": "id", "ts": "timestamp", "y": "label"}
    schema.update({f: "similarity" for f in SIM_FEATURES})
    schema.update({f: "estimation-only" for f in EST_FEATURES})

    target.mkdir(parents=True, exist_ok=True)
    texts = {
        "schema.json": json.dumps(schema, indent=2) + "\n",
        "labeled.csv": _csv_text(labeled_ids, labels, points, est),
        "unlabeled.csv": _csv_text(pool_ids, None, pool, pool_est),
        "config.json": json.dumps(config, indent=2) + "\n",
    }
    digests = {}
    for name, text in texts.items():
        data = text.encode("utf-8")
        (target / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return {
        "config": target / "config.json",
        "schema": target / "schema.json",
        "labeled": target / "labeled.csv",
        "unlabeled": target / "unlabeled.csv",
        "config_seed": config_seed,
        "sha256": digests,
    }
