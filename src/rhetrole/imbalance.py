"""Class-imbalance strategies: loss re-weighting schemes and resampling.

`weights_for_scheme` gives the loss weights of each scheme as a numpy
float64 array aligned to its counts (the CLI passes them in the canonical
label order from `rhetrole.corpus`). The inverse-frequency scheme gives rare
classes more loss mass; the direct-frequency scheme is its elementwise
reciprocal (frequent classes weigh more). Undersampling and duplication
oversampling materialize a balanced dataset before batching.
"""

from __future__ import annotations

from typing import Sequence

from ._lazynp import np
from .corpus import LABELS, LabeledSentence

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


def _present_label_indices(dataset: Sequence[LabeledSentence]) -> list[list[int]]:
    """Each present label's dataset indices, labels in canonical order."""
    by_label: dict[str, list[int]] = {}
    for i, s in enumerate(dataset):
        by_label.setdefault(s.label, []).append(i)
    return [by_label[label] for label in LABELS if label in by_label]


def undersample(dataset: Sequence[LabeledSentence], seed: int) -> list[LabeledSentence]:
    """Keep exactly min-class-count samples per present label of a non-empty dataset.

    Retained items are chosen uniformly without replacement (seeded) and
    returned in their original relative order.
    """
    groups = _present_label_indices(dataset)
    m = min(len(idxs) for idxs in groups)
    rng = np.random.default_rng(seed)
    keep: list[int] = []
    for idxs in groups:
        chosen = rng.choice(len(idxs), size=m, replace=False)
        keep.extend(idxs[c] for c in chosen)
    keep.sort()
    return [dataset[i] for i in keep]


def oversample(dataset: Sequence[LabeledSentence], seed: int) -> list[LabeledSentence]:
    """Grow every present label of a non-empty dataset to max-class-count samples.

    Output starts with all originals in order, then appends duplicates
    drawn uniformly with replacement (seeded), class by class in canonical
    label order.
    """
    groups = _present_label_indices(dataset)
    target = max(len(idxs) for idxs in groups)
    rng = np.random.default_rng(seed)
    out = list(dataset)
    for idxs in groups:
        need = target - len(idxs)
        if need > 0:
            draws = rng.integers(0, len(idxs), size=need)
            out.extend(dataset[idxs[d]] for d in draws)
    return out
