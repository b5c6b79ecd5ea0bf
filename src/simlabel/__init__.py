"""Confident similar-sample mining for small labeled tabular datasets.

Finds unlabeled samples highly similar (Gower coefficient) to a labeled
reference set, estimates their labels by a confidence-thresholded weighted
vote, imputes their missing features, augments train/test data with them,
and evaluates and probes classifiers built on top.

Every public name and submodule loads on first use (PEP 562), so
`import simlabel`, the dataset loaders, `compute_ranges` and the model and
score-file loaders do not import numpy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("build_similar_dataset", "merge_datasets"), "augment"),
    **dict.fromkeys(("Dataset", "FeatureSchema", "Role", "Sample", "load_dataset", "load_schema",
                     "time_holdout_split", "write_dataset"), "dataset"),
    "SimlabelError": "errors",
    **dict.fromkeys(("EvalReport", "McNemarResult", "auc_roc", "evaluate_table", "mcnemar_test"),
                    "evaluation"),
    **dict.fromkeys(("RangeTable", "compute_ranges", "gower_similarity"), "kernel"),
    **dict.fromkeys(("Calibration", "Matches", "SimilarityParams", "calibrate", "match_batch"), "matcher"),
    **dict.fromkeys(("LinearModel", "ScoreFile", "TrainConfig", "load_external_scores",
                     "predict_scores", "train_logistic"), "model"),
    **dict.fromkeys(("ProbeGrid", "RecourseReport", "Shell", "probability_grid", "recourse_probe",
                     "score_shell", "similarity_shell"), "probe"),
}
_SUBMODULES = {*_EXPORTS.values(), "cli"}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
        globals()[name] = value  # later lookups skip this function
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
