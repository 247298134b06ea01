"""Regression error metrics and prediction-latency summaries.

All surrogate models are scored with the same four numbers: MSE, MAE, the
worst absolute error, and the coefficient of determination.  R^2 uses the
mean-based denominator, so it is undefined when the targets are constant;
in that case the report stores ``None`` instead of inventing a value.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from ..errors import EmptyData, ShapeMismatch, ZeroVariance

__all__ = [
    "MetricReport",
    "TimingReport",
    "compute_metrics",
    "r_squared",
    "timed_single_predictions",
]


@dataclasses.dataclass(frozen=True)
class MetricReport:
    """Error summary for one (model, split) evaluation.

    ``r2`` is ``None`` when the target column is constant.  The scaled view
    multiplies each metric by the factor conventionally used when the values
    are typeset side by side (MSE by 1e5, MAE by 1e3, max error by 10 and
    R^2 by 100), which keeps all columns in a readable magnitude range.
    """

    mse: float
    mae: float
    max_ae: float
    r2: float | None
    n_samples: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise EmptyData("metric report needs at least one sample")
        if self.mse < 0.0 or self.mae < 0.0 or self.max_ae < 0.0:
            raise ValueError("error metrics cannot be negative")
        if self.max_ae < self.mae:
            raise ValueError(
                f"max |error| {self.max_ae} below mean |error| {self.mae}"
            )
        if self.r2 is not None and self.r2 > 1.0:
            raise ValueError(f"r2 {self.r2} above 1")

    def scaled(self) -> dict:
        """Return the display-scaled view as a plain dict."""
        return {
            "mse_1e5": self.mse * 1e5,
            "mae_1e3": self.mae * 1e3,
            "max_ae_10": self.max_ae * 10.0,
            "r2_100": None if self.r2 is None else self.r2 * 100.0,
        }


def _as_columns(y_true, y_pred):
    y = np.asarray(y_true, dtype=float).reshape(-1)
    p = np.asarray(y_pred, dtype=float).reshape(-1)
    if y.size == 0:
        raise EmptyData("no samples to score")
    if y.shape != p.shape:
        raise ShapeMismatch(
            f"targets have {y.size} entries, predictions {p.size}"
        )
    if not (np.isfinite(y).all() and np.isfinite(p).all()):
        raise ValueError("metrics require finite targets and predictions")
    return y, p


def r_squared(y_true, y_pred) -> float:
    """Coefficient of determination with the mean-based denominator.

    Raises :class:`ZeroVariance` when the targets are constant, because the
    ratio of residual to total sum of squares is then 0/0.
    """
    y, p = _as_columns(y_true, y_pred)
    # constancy is read from the targets: the float mean of equal targets
    # can differ from them, and leave a tiny ss_tot for a huge negative r2
    if y.min() == y.max():
        raise ZeroVariance("targets are constant; r2 is undefined")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise ZeroVariance("the targets' squared deviations underflow to zero; "
                           "r2 is undefined")
    ss_res = float(np.sum((y - p) ** 2))
    return 1.0 - ss_res / ss_tot


def compute_metrics(y_true, y_pred) -> MetricReport:
    """Score predictions against targets.

    Constant targets do not fail the whole report: the error metrics are
    still well defined, so only ``r2`` degrades to ``None``.
    """
    y, p = _as_columns(y_true, y_pred)
    err = p - y
    abs_err = np.abs(err)
    try:
        r2 = r_squared(y, p)
    except ZeroVariance:
        r2 = None
    max_ae = float(np.max(abs_err))
    return MetricReport(
        mse=float(np.mean(err**2)),
        # the exact mean never exceeds the max, but the float mean of equal
        # errors can round above it
        mae=min(float(np.mean(abs_err)), max_ae),
        max_ae=max_ae,
        r2=r2,
        n_samples=int(y.size),
    )


@dataclasses.dataclass(frozen=True)
class TimingReport:
    """Wall-clock latency of repeated single-sample predictions."""

    n_calls: int
    median_s: float
    mean_s: float
    min_s: float
    max_s: float

    @property
    def median_ms(self) -> float:
        return self.median_s * 1e3


def timed_single_predictions(predict_one, inputs, n_calls=10_000):
    """Call ``predict_one`` on cycled single inputs and time every call.

    ``predict_one`` receives one element of ``inputs`` per call.  The median
    is the headline number; min and max are kept because scheduler noise on
    a shared machine shows up there first.  Returns ``(outputs, report)``
    where ``outputs`` holds one prediction per call.
    """
    if n_calls < 1:
        raise ValueError("need at least one timed call")
    items = list(inputs)
    if not items:
        raise EmptyData("no inputs to time")
    outputs = []
    laps = np.empty(n_calls, dtype=float)
    for k in range(n_calls):
        x = items[k % len(items)]
        t0 = time.perf_counter()
        outputs.append(predict_one(x))
        laps[k] = time.perf_counter() - t0
    report = TimingReport(
        n_calls=n_calls,
        median_s=float(np.median(laps)),
        mean_s=float(np.mean(laps)),
        min_s=float(np.min(laps)),
        max_s=float(np.max(laps)),
    )
    return outputs, report
