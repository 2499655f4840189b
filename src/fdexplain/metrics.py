"""Evaluation metrics: accuracy and F1 for the classifiers, MSE and R2 for
the regressor."""

import numpy as np


def _check_pair(predicted, actual):
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.shape != actual.shape:
        raise ValueError(f"length mismatch: {predicted.shape} vs {actual.shape}")
    if predicted.size == 0:
        raise ValueError("empty input")
    return predicted, actual


def accuracy(predicted, actual) -> float:
    """Fraction of exact matches."""
    predicted, actual = _check_pair(predicted, actual)
    return float(np.mean(predicted == actual))


def f1_info(predicted, actual, positive=1) -> tuple[float, bool]:
    """F1 plus a flag for the degenerate case (no way to score precision
    and recall: zero true positives)."""
    predicted, actual = _check_pair(predicted, actual)
    tp = int(np.sum((predicted == positive) & (actual == positive)))
    fp = int(np.sum((predicted == positive) & (actual != positive)))
    fn = int(np.sum((predicted != positive) & (actual == positive)))
    if tp == 0:
        return 0.0, True
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall), False


def f1(predicted, actual, positive=1) -> float:
    """Harmonic mean of precision and recall; 0 in the degenerate case."""
    return f1_info(predicted, actual, positive)[0]


def mse(predicted, actual) -> float:
    predicted, actual = _check_pair(predicted, actual)
    diff = predicted.astype(np.float64) - actual.astype(np.float64)
    return float(np.mean(diff * diff))


def r2(predicted, actual) -> float:
    """1 - SSres/SStot; may be negative for fits worse than the mean."""
    predicted, actual = _check_pair(predicted, actual)
    actual = actual.astype(np.float64)
    ss_tot = float(np.sum((actual - actual.mean()) ** 2))
    if ss_tot <= 0.0:
        raise ValueError("r2 undefined: actual values have zero variance")
    ss_res = float(np.sum((actual - predicted.astype(np.float64)) ** 2))
    return 1.0 - ss_res / ss_tot
