"""Confident similar-sample mining for small labeled tabular datasets.

Finds unlabeled samples highly similar (Gower coefficient) to a labeled
reference set, estimates their labels by a confidence-thresholded weighted
vote, imputes their missing features, augments train/test data with them,
and evaluates and probes classifiers built on top.
"""

from .augment import build_similar_dataset, merge_datasets
from .dataset import (
    Dataset,
    FeatureSchema,
    Role,
    Sample,
    load_dataset,
    load_schema,
    time_holdout_split,
    write_dataset,
)
from .errors import SimlabelError
from .evaluation import EvalReport, McNemarResult, auc_roc, evaluate_table, mcnemar_test
from .kernel import RangeTable, compute_ranges, gower_similarity
from .matcher import (
    MatchResult,
    SimilarityParams,
    calibrate_confidence_threshold,
    calibrate_similarity_threshold,
    estimate_label,
    match_batch,
)
from .model import (
    LinearModel,
    ScoreFile,
    TrainConfig,
    load_external_scores,
    predict_scores,
    train_logistic,
)
from .probe import (
    ProbeGrid,
    RecourseReport,
    Shell,
    probability_grid,
    recourse_probe,
    score_shell,
    similarity_shell,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "EvalReport",
    "FeatureSchema",
    "LinearModel",
    "MatchResult",
    "McNemarResult",
    "ProbeGrid",
    "RangeTable",
    "RecourseReport",
    "Role",
    "Sample",
    "ScoreFile",
    "Shell",
    "SimilarityParams",
    "SimlabelError",
    "TrainConfig",
    "auc_roc",
    "build_similar_dataset",
    "calibrate_confidence_threshold",
    "calibrate_similarity_threshold",
    "compute_ranges",
    "estimate_label",
    "evaluate_table",
    "gower_similarity",
    "load_dataset",
    "load_external_scores",
    "load_schema",
    "match_batch",
    "mcnemar_test",
    "merge_datasets",
    "predict_scores",
    "probability_grid",
    "recourse_probe",
    "score_shell",
    "similarity_shell",
    "time_holdout_split",
    "train_logistic",
    "write_dataset",
]
