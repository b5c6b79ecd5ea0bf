"""Turn confident match results into datasets and merge them with real data.

A similar dataset holds one row per confident match: the pseudo-label as the
row label, similarity features copied from the unlabeled source row, and
estimation-only features from the imputed values. Merging tags every row with
its provenance and prefixes similar ids so the combined id space stays unique.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace

import numpy as np

from .dataset import SOURCE_SIMILAR, Dataset, Sample
from .errors import AugmentError
from .matcher import Matches

SIMILAR_ID_PREFIX = "similar:"


def build_similar_dataset(matches: Matches, unlabeled: Dataset) -> Dataset:
    """One row per confident match (estimate != 0), in match order.

    Ids stay the unlabeled source ids so each row traces back to exactly one
    source row; prefixes are applied later, at merge time.
    """
    index = unlabeled.by_id()
    seen: set[str] = set()
    for uid in matches.ids:
        if uid not in index:
            raise AugmentError(f"match id {uid!r} not found in the unlabeled dataset")
        if uid in seen:
            raise AugmentError(f"duplicate match id {uid!r}")
        seen.add(uid)
    similarity, estimation = unlabeled.schema.similarity_features, unlabeled.schema.estimation_features
    votes, estimates, counts = matches.votes.tolist(), matches.estimates.tolist(), matches.matched.tolist()
    rows: list[Sample] = []
    for j in np.flatnonzero(matches.estimates).tolist():
        base = index[matches.ids[j]]
        features = {name: base.features[name] for name in similarity if name in base.features}
        for name, value in zip(estimation, matches.imputed[j].tolist()):
            if not math.isnan(value):
                features[name] = value
        rows.append(
            Sample(
                id=base.id,
                timestamp=base.timestamp,
                features=features,
                label=estimates[j],
                source=SOURCE_SIMILAR,
                vote=votes[j],
                matched_count=counts[j],
            )
        )
    return Dataset(unlabeled.schema, rows)


def merge_datasets(real: Dataset, similar: Dataset) -> Dataset:
    """Concatenate real rows with prefixed similar rows; provenance tells them apart."""
    if real.schema != similar.schema:
        raise AugmentError("cannot merge datasets with different schemas")
    merged_rows = list(real.rows)
    for row in similar.rows:
        merged_rows.append(replace(row, id=f"{SIMILAR_ID_PREFIX}{row.id}"))
    ids = [row.id for row in merged_rows]
    if len(set(ids)) != len(ids):
        dupes = sorted(i for i, n in Counter(ids).items() if n > 1)
        raise AugmentError(f"duplicate ids after merge: {', '.join(dupes[:10])}")
    return Dataset(real.schema, merged_rows)
