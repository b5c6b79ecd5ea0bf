"""Turn confident match results into datasets and merge them with real data.

A similar dataset holds one row per confident match: the pseudo-label as the
row label, similarity features copied from the unlabeled source row, and
estimation-only features from the imputed values. Merging tags every row with
its provenance and prefixes similar ids so the combined id space stays unique.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from .dataset import SOURCE_SIMILAR, Dataset, Sample
from .errors import AugmentError
from .matcher import MatchResult

SIMILAR_ID_PREFIX = "similar:"


def build_similar_dataset(matches: Sequence[MatchResult], unlabeled: Dataset) -> Dataset:
    """One row per confident match (estimate != 0), in match order.

    Ids stay the unlabeled source ids so each row traces back to exactly one
    source row; prefixes are applied later, at merge time.
    """
    index = unlabeled.by_id()
    rows: list[Sample] = []
    seen: set[str] = set()
    for match in matches:
        base = index.get(match.unlabeled_id)
        if base is None:
            raise AugmentError(
                f"match id {match.unlabeled_id!r} not found in the unlabeled dataset"
            )
        if match.unlabeled_id in seen:
            raise AugmentError(f"duplicate match id {match.unlabeled_id!r}")
        seen.add(match.unlabeled_id)
        if match.estimated_label == 0:
            continue
        features: dict[str, float] = {}
        for name in unlabeled.schema.similarity_features:
            value = base.features.get(name)
            if value is not None:
                features[name] = value
        if match.imputed_features:
            for name, value in match.imputed_features.items():
                if value is not None:
                    features[name] = value
        rows.append(
            Sample(
                id=base.id,
                timestamp=base.timestamp,
                features=features,
                label=match.estimated_label,
                source=SOURCE_SIMILAR,
                vote=match.vote,
                matched_count=match.matched_count,
            )
        )
    provenance = f"similar samples ({len(rows)} confident of {len(matches)} matches) from {unlabeled.provenance or '<unnamed>'}"
    return Dataset(schema=unlabeled.schema, rows=rows, provenance=provenance)


def merge_datasets(real: Dataset, similar: Dataset) -> Dataset:
    """Concatenate real rows with prefixed similar rows; provenance tells them apart."""
    if real.schema != similar.schema:
        raise AugmentError("cannot merge datasets with different schemas")
    merged_rows = list(real.rows)
    for row in similar.rows:
        merged_rows.append(replace(row, id=f"{SIMILAR_ID_PREFIX}{row.id}"))
    ids = [row.id for row in merged_rows]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise AugmentError(f"duplicate ids after merge: {', '.join(dupes[:10])}")
    provenance = f"{real.provenance or '<real>'} + {len(similar.rows)} similar rows"
    return Dataset(schema=real.schema, rows=merged_rows, provenance=provenance)
