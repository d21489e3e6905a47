"""Classification metrics: accuracy plus per-class and weighted P/R/F1."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import UsageError


@dataclass(frozen=True)
class PerClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class ClassificationMetrics:
    accuracy: float
    per_class: dict
    precision_weighted: float
    recall_weighted: float
    f1_weighted: float


def classification_metrics(y_true, y_pred, labels=None) -> ClassificationMetrics:
    """One-vs-rest precision/recall/F1 per class, weighted by true support.

    A class with no predicted positives has precision 0; a class with no
    true members has recall 0 and weight 0 in the weighted averages.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise UsageError("y_true and y_pred must be equal-length vectors")
    if len(y_true) == 0:
        raise UsageError("empty inputs")
    if labels is None:
        labels = np.unique(np.concatenate([y_true, y_pred]))
    accuracy = float(np.mean(y_true == y_pred))
    per_class = {}
    weighted = np.zeros(3)
    total_support = 0
    for label in labels:
        true_pos = int(np.sum((y_true == label) & (y_pred == label)))
        pred_pos = int(np.sum(y_pred == label))
        support = int(np.sum(y_true == label))
        precision = true_pos / pred_pos if pred_pos > 0 else 0.0
        recall = true_pos / support if support > 0 else 0.0
        f1 = (
            2.0 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
        per_class[label] = PerClassMetrics(
            precision=precision, recall=recall, f1=f1, support=support
        )
        weighted += support * np.array([precision, recall, f1])
        total_support += support
    if total_support > 0:
        weighted /= total_support
    return ClassificationMetrics(
        accuracy=accuracy,
        per_class=per_class,
        precision_weighted=float(weighted[0]),
        recall_weighted=float(weighted[1]),
        f1_weighted=float(weighted[2]),
    )
