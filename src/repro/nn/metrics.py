"""Evaluation metrics used throughout the Adrias evaluation.

The paper reports the coefficient of determination (R², Table I /
Fig. 13), the mean absolute error (Fig. 13c, 14a) and Pearson's
correlation coefficient (Fig. 6).
"""

from __future__ import annotations

import numpy as np

__all__ = ["r2_score", "mae", "pearson"]


def _prepare(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.float64).ravel()
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("metrics of empty arrays are undefined")
    return y_true, y_pred


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot.

    Follows the scikit-learn convention for the degenerate constant-target
    case: 1.0 for a perfect fit, 0.0 otherwise.
    """
    y_true, y_pred = _prepare(y_true, y_pred)
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    ss_tot = float(np.sum((y_true - np.mean(y_true)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def mae(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true, y_pred = _prepare(y_true, y_pred)
    return float(np.mean(np.abs(y_true - y_pred)))


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient; 0.0 when either input is constant.

    Returning 0 (rather than NaN) for constant series matches how the
    correlation heatmap of Fig. 6 treats metrics that never move in a
    scenario: no linear relationship is observable.
    """
    x, y = _prepare(x, y)
    if x.size < 2:
        return 0.0
    xc = x - x.mean()
    yc = y - y.mean()
    denom = float(np.sqrt(np.sum(xc**2) * np.sum(yc**2)))
    if denom == 0.0:
        return 0.0
    return float(np.sum(xc * yc) / denom)
