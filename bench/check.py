"""Output checks, run outside the timed region.

Each check returns the chain commands whose outputs it found wrong, so a
failure counts against the command that produced the artifact. The reference
values come from the double-loop oracles in tests/oracles.py, which share no
code with the package, from a vectorised copy of the match oracle that covers
every pool row, and from the definitions of d and c in the README.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

from workloads import SIM_FEATURES

MATCH_SAMPLE = 200  # pool rows per side checked against the double-loop match oracle


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def features(row: dict[str, str], names) -> dict[str, float]:
    return {name: float(row[name]) for name in names if row.get(name, "")}


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every artifact in an output directory, by file name."""
    if not out_dir.is_dir():
        return {}
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if path.is_file()
    }


def nearest_rank(sorted_values: list[float], percentile: float) -> float:
    index = min(max(math.ceil(percentile * len(sorted_values)) - 1, 0), len(sorted_values) - 1)
    return sorted_values[index]


def visited_candidates(magnitudes: list[float], total: int, budget: float) -> int:
    """How many distinct |t| the descending c sweep visits before it stops."""
    ascending = sorted(magnitudes)
    visited = 0
    for candidate in sorted(set(magnitudes), reverse=True):
        visited += 1
        assigned = len(ascending) - bisect.bisect_right(ascending, candidate)
        if assigned / total >= budget:
            break
    return visited


def exact_matches(pool: np.ndarray, labeled, ranges: dict, est_features, d: float, c: float) -> list[dict]:
    """match_oracle for every pool row at once, vectorised over the pool.

    `pool` holds the similarity features in range-table order, NaN where a
    cell is missing. Features, then labeled rows, are visited in the oracle's
    order, and every element goes through the oracle's float operations, so
    the results agree with it bit for bit.
    """
    n = len(pool)
    present = ~np.isnan(pool)
    num, den, matched = np.zeros(n), np.zeros(n), np.zeros(n, dtype=int)
    f_num, f_den = np.zeros((len(est_features), n)), np.zeros((len(est_features), n))
    for _, lfeat, label in labeled:
        total, count = np.zeros(n), np.zeros(n, dtype=int)
        for k, (name, spread) in enumerate(ranges.items()):
            if name not in lfeat:
                continue
            if spread == 0:
                term = (lfeat[name] == pool[:, k]).astype(float)
            else:
                term = 1.0 - np.minimum(np.abs(lfeat[name] - pool[:, k]) / spread, 1.0)
            total = np.where(present[:, k], total + term, total)
            count += present[:, k]
        with np.errstate(invalid="ignore", divide="ignore"):
            sim = total / count
        hit = sim > d
        num = np.where(hit, num + sim * label, num)
        den = np.where(hit, den + sim, den)
        matched += hit
        for j, feat in enumerate(est_features):
            if feat in lfeat:
                f_num[j] = np.where(hit, f_num[j] + sim * lfeat[feat], f_num[j])
                f_den[j] = np.where(hit, f_den[j] + sim, f_den[j])
    results = []
    for i in range(n):
        if den[i] == 0.0:
            results.append({"t": None, "y_hat": 0, "imputed": None, "matched_count": 0})
            continue
        t = float(num[i] / den[i])
        y_hat = 1 if t > c else (-1 if t < -c else 0)
        imputed = None
        if y_hat != 0:
            imputed = {
                feat: float(f_num[j, i] / f_den[j, i]) if f_den[j, i] > 0 else None
                for j, feat in enumerate(est_features)
            }
        results.append({"t": t, "y_hat": y_hat, "imputed": imputed, "matched_count": int(matched[i])})
    return results


class Checker:
    """Loads the inputs once and checks one output directory at a time."""

    def __init__(self, inputs: dict, oracles):
        self.oracles = oracles
        self.config = json.loads(Path(inputs["config"]).read_text(encoding="utf-8"))
        schema = json.loads(Path(inputs["schema"]).read_text(encoding="utf-8"))
        self.est_features = [name for name, role in schema.items() if role == "estimation-only"]
        self.pool = [(row["id"], features(row, SIM_FEATURES)) for row in read_rows(inputs["unlabeled"])]
        self.labeled = {row["id"]: row for row in read_rows(inputs["labeled"])}
        rng = random.Random(inputs["config_seed"])
        self.sample = sorted(rng.sample(range(len(self.pool)), min(MATCH_SAMPLE, len(self.pool))))

    def check(self, out: Path) -> tuple[dict[str, str], dict]:
        """Returns ({command: first problem found}, counts derived from the outputs)."""
        problems: dict[str, str] = {}
        ranges = json.loads((out / "ranges.json").read_text(encoding="utf-8"))["ranges"]
        params = json.loads((out / "params.json").read_text(encoding="utf-8"))
        d, c = params["d"], params["c"]
        sides = {
            side: [
                (row["id"], features(row, SIM_FEATURES + self.est_features), int(row["y"]))
                for row in read_rows(out / f"{side}.csv")
            ]
            for side in ("train", "test")
        }

        train = sides["train"]
        sims = sorted(
            self.oracles.gower_oracle(train[i][1], train[j][1], ranges)
            for i in range(len(train))
            for j in range(i + 1, len(train))
        )
        expected_d = nearest_rank(sims, self.config["calibrate"]["percentile"])
        if d != expected_d:
            problems["calibrate"] = f"d={d!r}, oracle percentile gives {expected_d!r}"

        match = {side: read_rows(out / f"match_{side}.csv") for side in ("train", "test")}
        budget = self.config["calibrate"]["confidence_budget"]
        magnitudes = [abs(float(row["t"])) for row in match["train"] if row["t"]]
        total = len(self.pool)
        problem = self._c_problem(c, magnitudes, total, budget)
        if problem:
            problems.setdefault("calibrate", problem)

        for side in ("train", "test"):
            problem = self._match_problem(match[side], sides[side], ranges, d, c)
            if problem:
                problems.setdefault("match", f"match_{side}.csv: {problem}")

        problem = self._shell_problem(out, ranges, d)
        if problem:
            problems["probe-shell"] = problem

        confident = {
            side: sum(1 for row in match[side] if row["y_hat"] != "0") for side in match
        }
        counts = {
            "matcher.confident_frac.train": confident["train"] / total,
            "matcher.confident_frac.test": confident["test"] / total,
            "matcher.matched_frac": len(magnitudes) / total,
            "matcher.c_candidates": visited_candidates(magnitudes, total, budget),
            "augment.similar_rows": confident["train"] + confident["test"],
            "kernel.pairs_required": len(train) * (len(train) - 1) // 2
            + total * (len(train) + len(sides["test"])),
        }
        return problems, counts

    @staticmethod
    def _c_problem(c: float, magnitudes: list[float], total: int, budget: float) -> str | None:
        """c is the smallest observed |t| that keeps the assigned share strictly under budget."""
        ascending = sorted(magnitudes)

        def share(candidate: float) -> float:
            return (len(ascending) - bisect.bisect_right(ascending, candidate)) / total

        under = [m for m in set(magnitudes) if share(m) < budget]
        expected = min(under) if under else 1.0
        if c != expected:
            return f"c={c!r}, definition gives {expected!r}"
        return None

    def _match_problem(self, rows, labeled, ranges, d: float, c: float) -> str | None:
        if [row["id"] for row in rows] != [uid for uid, _ in self.pool]:
            return "ids differ from the pool ids in pool order"
        got = [
            {
                "id": row["id"],
                "t": float(row["t"]) if row["t"] else None,
                "y_hat": int(row["y_hat"]),
                "imputed": None
                if row["y_hat"] == "0"
                else {f: (float(row[f]) if row[f] else None) for f in self.est_features},
                "matched_count": int(row["matched_count"]),
            }
            for row in rows
        ]
        oracle = self.oracles.match_oracle(
            [self.pool[i] for i in self.sample], labeled, ranges, self.est_features, d, c
        )
        for index, want in zip(self.sample, oracle):
            if got[index] != want:
                return f"row {want['id']}: {got[index]} differs from the oracle {want}"
        pool = np.array([[feats.get(name, np.nan) for name in ranges] for _, feats in self.pool])
        for have, want in zip(got, exact_matches(pool, labeled, ranges, self.est_features, d, c)):
            want["id"] = have["id"]
            if have != want:
                return f"row {have['id']}: {have} differs from the exact vote {want}"
        return None

    def _shell_problem(self, out: Path, ranges, d: float) -> str | None:
        base_id = self.config["probe"]["sample_id"]
        base = features(self.labeled[base_id], SIM_FEATURES)
        path = out / f"shell_{base_id}.csv"
        rows = read_rows(path)
        if len(rows) != self.config["probe"]["count"]:
            return f"{path.name} has {len(rows)} rows, wanted {self.config['probe']['count']}"
        for row in rows:
            similarity = self.oracles.gower_oracle(base, features(row, SIM_FEATURES), ranges)
            if not similarity >= d:
                return f"{row['id']}: oracle similarity {similarity!r} is below d={d!r}"
        return None
