"""Class-imbalance strategies: loss re-weighting schemes and resampling.

`weights_for_scheme` gives the loss weights of each scheme as a numpy
float64 array aligned to its counts (the CLI passes them in the canonical
label order from `rhetrole.corpus`). The inverse-frequency scheme gives rare
classes more loss mass; the direct-frequency scheme is its elementwise
reciprocal (frequent classes weigh more). Undersampling and duplication
oversampling choose the positions of a balanced training set before batching.
"""

from __future__ import annotations

from typing import Sequence

from ._lazynp import np
from .corpus import LABELS

WEIGHT_SCHEMES = ("inverse_frequency", "direct_frequency", "uniform")


def uniform_weights(num_classes: int) -> np.ndarray:
    return np.ones(num_classes, dtype=np.float64)


def weights_for_scheme(scheme: str, counts: Sequence[int]) -> np.ndarray:
    """Per-class weights under ``scheme``, one of ``WEIGHT_SCHEMES``, aligned
    to ``counts``, which have a positive total and, for ``inverse_frequency``, no zero.

    ``inverse_frequency``: w[c] = N / (K * counts[c]). Balanced counts give
    exactly uniform weights, and the total effective mass is preserved:
    sum_c w[c] * counts[c] = N. ``direct_frequency``: w[c] = K * counts[c] / N,
    the elementwise reciprocal. ``uniform``: all ones.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if scheme == "uniform":
        return uniform_weights(counts.size)
    n, k = int(counts.sum()), counts.size
    if scheme == "inverse_frequency":
        return n / (k * counts.astype(np.float64))
    return k * counts.astype(np.float64) / n


def _present_label_indices(labels: Sequence[int]) -> list[list[int]]:
    """Each present label's positions in ``labels``, labels in canonical order."""
    groups: list[list[int]] = [[] for _ in LABELS]
    for i, y in enumerate(labels):
        groups[y].append(i)
    return [idxs for idxs in groups if idxs]


def undersample(labels: Sequence[int], seed: int) -> list[int]:
    """Positions in a non-empty label column that keep exactly min-class-count
    samples per present label, chosen uniformly without replacement (seeded),
    in ascending order."""
    groups = _present_label_indices(labels)
    m = min(len(idxs) for idxs in groups)
    rng = np.random.default_rng(seed)
    keep: list[int] = []
    for idxs in groups:
        chosen = rng.choice(len(idxs), size=m, replace=False)
        keep.extend(idxs[c] for c in chosen)
    keep.sort()
    return keep


def oversample(labels: Sequence[int], seed: int) -> list[int]:
    """Positions in a non-empty label column that grow every present label to
    max-class-count samples: every position in order, then duplicates drawn
    uniformly with replacement (seeded), class by class in canonical label order."""
    groups = _present_label_indices(labels)
    target = max(len(idxs) for idxs in groups)
    rng = np.random.default_rng(seed)
    out = list(range(len(labels)))
    for idxs in groups:
        need = target - len(idxs)
        if need > 0:
            draws = rng.integers(0, len(idxs), size=need)
            out.extend(idxs[d] for d in draws)
    return out
