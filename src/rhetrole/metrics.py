"""Macro-averaged precision/recall/F1 from label index lists.

``evaluate_predictions`` counts the confusion matrix and derives every
figure from it in one call; ``report_to_json`` writes the result. Everything
here is plain-Python integer counting and float arithmetic. Division
conventions: any 0/0 denominator yields 0.0, macro values are unweighted
means over ALL classes (zero-support classes included), and macro F1 is the
mean of per-class F1 scores, not the F1 of macro precision/recall.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence


@dataclass
class MetricsReport:
    """``confusion[i][j]`` counts gold label i predicted as j; the per-class
    lists are indexed by label."""

    confusion: list[list[int]]
    precision: list[float]
    recall: list[float]
    f1: list[float]
    support: list[int]
    macro_precision: float
    macro_recall: float
    macro_f1: float


def evaluate_predictions(
    gold: Sequence[int], pred: Sequence[int], num_labels: int
) -> MetricsReport:
    """The report of equally long, non-empty lists of indices below ``num_labels``."""
    k = num_labels
    cm = [[0] * k for _ in range(k)]
    for g, p in zip(gold, pred):
        cm[g][p] += 1
    precision, recall, f1, support = [], [], [], []
    for c in range(k):
        tp = cm[c][c]
        fp = sum(cm[i][c] for i in range(k)) - tp
        fn = sum(cm[c]) - tp
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        precision.append(p)
        recall.append(r)
        f1.append(f)
        support.append(tp + fn)
    return MetricsReport(
        cm, precision, recall, f1, support, sum(precision) / k, sum(recall) / k, sum(f1) / k
    )


def report_to_json(report: MetricsReport, labels: Sequence[str]) -> str:
    """Metrics JSON document: per-class block keyed by label, macro block,
    and the confusion matrix as a row-major integer array-of-arrays."""
    doc = {
        "labels": list(labels),
        "per_class": {
            label: {
                "precision": report.precision[i],
                "recall": report.recall[i],
                "f1": report.f1[i],
                "support": report.support[i],
            }
            for i, label in enumerate(labels)
        },
        "macro": {
            "precision": report.macro_precision,
            "recall": report.macro_recall,
            "f1": report.macro_f1,
        },
        "confusion_matrix": [list(row) for row in report.confusion],
        "total": sum(sum(row) for row in report.confusion),
    }
    return json.dumps(doc, indent=2) + "\n"
