"""Rank metrics comparing predicted orders against gold orders.

Orders are intp rows: pred and gold are (..., n) arrays of the same
shape, usually (S, n) for S stories, whose rows must be permutations of
0..n-1 (a ValidationError otherwise), and every per-story metric returns
one value per row. The three per-story metrics
(Spearman rank correlation, pairwise accuracy, mean absolute
displacement) are each one exact integer numerator over a constant, so a
row scores the same alone or in a stack. confusion tallies a position
confusion matrix, and aggregate takes an unweighted corpus-level mean.
Predictions are total orders, so the closed-form Spearman without tie
handling is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import is_permutation
from .errors import DimensionError, EmptyInputError, ValidationError


@dataclass(frozen=True)
class MetricReport:
    spearman: float
    pairwise_accuracy: float
    avg_distance: float
    story_count: int

    def to_json(self) -> dict:
        return {
            "spearman": self.spearman,
            "pairwise_accuracy": self.pairwise_accuracy,
            "avg_distance": self.avg_distance,
            "story_count": self.story_count,
        }


def _orders(pred, gold) -> tuple[np.ndarray, np.ndarray]:
    pred, gold = np.asarray(pred), np.asarray(gold)
    if pred.shape != gold.shape:
        raise DimensionError(f"order shapes differ: {pred.shape} vs {gold.shape}")
    if not (is_permutation(pred).all() and is_permutation(gold).all()):
        raise ValidationError("orders must be permutations of 0..n-1")
    return pred, gold


def spearman(pred, gold) -> np.ndarray:
    """1 - 6*sum(d^2)/(n(n^2-1)) over per-element position differences, per row."""
    pred, gold = _orders(pred, gold)
    n = pred.shape[-1]
    return 1.0 - 6.0 * ((pred - gold) ** 2).sum(axis=-1) / (n * (n * n - 1))


def pairwise_accuracy(pred, gold) -> np.ndarray:
    """Fraction of element pairs whose predicted relative order matches gold, per row."""
    pred, gold = _orders(pred, gold)
    i, j = np.triu_indices(pred.shape[-1], 1)
    agree = (pred[..., i] > pred[..., j]) == (gold[..., i] > gold[..., j])
    return agree.sum(axis=-1) / len(i)


def avg_distance(pred, gold) -> np.ndarray:
    """Mean absolute displacement of elements between predicted and gold positions, per row."""
    pred, gold = _orders(pred, gold)
    return np.abs(pred - gold).sum(axis=-1) / pred.shape[-1]


def score_story(pred, gold) -> np.ndarray:
    """(..., 3) rows of (spearman, pairwise_accuracy, avg_distance)."""
    return np.stack([spearman(pred, gold), pairwise_accuracy(pred, gold),
                     avg_distance(pred, gold)], axis=-1)


def confusion(pred, gold) -> np.ndarray:
    """(n, n) counts[g][p] = elements whose gold position is g and predicted position is p,
    over every row of pred and gold."""
    pred, gold = _orders(pred, gold)
    if not pred.size:
        raise EmptyInputError("confusion requires at least one (pred, gold) pair")
    n = pred.shape[-1]
    counts = np.zeros((n, n), dtype=np.int64)
    np.add.at(counts, (gold, pred), 1)
    return counts


def aggregate(per_story) -> MetricReport:
    """Unweighted mean of per-story (spearman, pairwise, distance) rows, such as score_story's.

    Each mean is the builtin sum of the story values in row order over the count.
    """
    rows = np.asarray(per_story, dtype=np.float64).reshape(-1, 3)
    if not len(rows):
        raise EmptyInputError("aggregate requires at least one story")
    count = len(rows)
    means = [sum(column) / count for column in rows.T.tolist()]
    return MetricReport(*means, story_count=count)
