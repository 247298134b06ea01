"""Surrogate models for discharge-coefficient regression.

Tabular models (tree, forest, boosting) consume the engineered feature
vector and all fit to one packed type, ``TreeEnsemble``; the point-cloud
network consumes sampled surface points with the discharge appended per
point.  Everything trains deterministically from an
explicit seed and round-trips through one binary container format.
"""

from .metrics import (
    MetricReport,
    TimingReport,
    compute_metrics,
    r_squared,
    timed_single_predictions,
)
from .pointnet import (
    PointNetConfig,
    PointNetMini,
    attach_discharge,
    fit_pointnet_mini,
    normalize_discharge,
)
from .serialize import load_model, save_model
from .trees import TreeEnsemble, TreeParams, fit_forest, fit_gbm, fit_gbm_sets, fit_tree

__all__ = [
    "MetricReport",
    "TimingReport",
    "compute_metrics",
    "r_squared",
    "timed_single_predictions",
    "TreeParams",
    "TreeEnsemble",
    "fit_tree",
    "fit_forest",
    "fit_gbm",
    "fit_gbm_sets",
    "PointNetConfig",
    "PointNetMini",
    "attach_discharge",
    "fit_pointnet_mini",
    "normalize_discharge",
    "save_model",
    "load_model",
]
