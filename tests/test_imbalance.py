from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhetrole.corpus import LABELS, LabeledSentence
from rhetrole.imbalance import oversample, undersample, uniform_weights, weights_for_scheme

from .conftest import TASK_COUNTS


def inverse_frequency_weights(counts):
    return weights_for_scheme("inverse_frequency", counts)


def direct_frequency_weights(counts):
    return weights_for_scheme("direct_frequency", counts)

TASK_COUNT_VECTOR = [TASK_COUNTS[label] for label in LABELS]


def exact_inverse(counts):
    n = sum(counts)
    k = len(counts)
    return [Fraction(n, k * c) for c in counts]


class TestInverseFrequency:
    def test_task_distribution_values(self):
        w = inverse_frequency_weights(TASK_COUNT_VECTOR)
        by_label = dict(zip(LABELS, w))
        oracle = dict(zip(LABELS, exact_inverse(TASK_COUNT_VECTOR)))
        for label in LABELS:
            assert by_label[label] == pytest.approx(float(oracle[label]), rel=1e-12)
        assert by_label["Ratio of the decision"] == pytest.approx(0.38284, abs=1e-5)
        assert by_label["Ruling by Present Court"] == pytest.approx(4.72769, abs=1e-5)

    def test_balanced_counts_give_exactly_one(self):
        assert np.array_equal(inverse_frequency_weights([10, 10, 10]), [1.0, 1.0, 1.0])

    def test_two_class_harness(self):
        w = inverse_frequency_weights([1, 3])
        assert w[0] == pytest.approx(2.0)
        assert w[1] == pytest.approx(0.6667, abs=1e-4)

    def test_mass_preservation_exact_on_task_counts(self):
        w = inverse_frequency_weights(TASK_COUNT_VECTOR)
        assert sum(wi * c for wi, c in zip(w, TASK_COUNT_VECTOR)) == 11285.0

    @given(st.lists(st.integers(1, 5000), min_size=2, max_size=9))
    @settings(max_examples=100)
    def test_mass_preservation_property(self, counts):
        w = inverse_frequency_weights(counts)
        total = sum(wi * c for wi, c in zip(w, counts))
        assert total == pytest.approx(sum(counts), rel=1e-12)


class TestDirectFrequency:
    def test_task_distribution_values(self):
        w = direct_frequency_weights(TASK_COUNT_VECTOR)
        by_label = dict(zip(LABELS, w))
        assert by_label["Ratio of the decision"] == pytest.approx(
            float(Fraction(7 * 4211, 11285)), rel=1e-12
        )
        assert by_label["Ruling by Present Court"] == pytest.approx(0.21152, abs=1e-5)

    def test_balanced_counts_give_one(self):
        assert np.array_equal(direct_frequency_weights([4, 4]), [1.0, 1.0])

    @given(st.lists(st.integers(1, 5000), min_size=2, max_size=9))
    @settings(max_examples=100)
    def test_reciprocal_of_inverse(self, counts):
        inv = inverse_frequency_weights(counts)
        direct = direct_frequency_weights(counts)
        assert inv * direct == pytest.approx(np.ones(len(counts)), rel=1e-12)

    @given(st.lists(st.integers(1, 300), min_size=2, max_size=8))
    @settings(max_examples=60)
    def test_weighted_mass_identity(self, counts):
        # brute-force arithmetic: sum w[c]*count[c] = (K/N) * sum count[c]^2
        w = direct_frequency_weights(counts)
        lhs = sum(wi * c for wi, c in zip(w, counts))
        rhs = len(counts) / sum(counts) * sum(c * c for c in counts)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSchemeDispatch:
    def test_uniform(self):
        assert np.array_equal(weights_for_scheme("uniform", [3, 1, 4]), np.ones(3))
        assert np.array_equal(uniform_weights(7), np.ones(7))


def dataset_with_counts(counts: dict[str, int]) -> list[LabeledSentence]:
    out = []
    i = 0
    for label, n in counts.items():
        for _ in range(n):
            out.append(
                LabeledSentence(text=f"s{i}", label=label, doc_id="d")
            )
            i += 1
    return out


def label_counts(items) -> Counter:
    return Counter(s.label for s in items)


class TestUndersample:
    COUNTS = {"Facts": 5, "Argument": 2, "Statute": 3}

    def test_counts_equal_min(self):
        data = dataset_with_counts(self.COUNTS)
        out = undersample(data, seed=0)
        assert label_counts(out) == {"Facts": 2, "Argument": 2, "Statute": 2}
        assert len(out) == 6

    def test_subset_in_original_order(self):
        data = dataset_with_counts(self.COUNTS)
        out = undersample(data, seed=3)
        index = {id(s): i for i, s in enumerate(data)}
        order = [index[id(s)] for s in out]
        assert order == sorted(order)

    def test_balanced_input_is_identity(self):
        data = dataset_with_counts({"Facts": 3, "Argument": 3})
        assert undersample(data, seed=9) == data

    def test_deterministic(self):
        data = dataset_with_counts(self.COUNTS)
        assert undersample(data, seed=5) == undersample(data, seed=5)


class TestOversample:
    COUNTS = {"Facts": 5, "Argument": 2, "Statute": 3}

    def test_counts_equal_max(self):
        data = dataset_with_counts(self.COUNTS)
        out = oversample(data, seed=0)
        assert label_counts(out) == {"Facts": 5, "Argument": 5, "Statute": 5}
        assert len(out) == 15

    def test_contains_every_original(self):
        data = dataset_with_counts(self.COUNTS)
        out = oversample(data, seed=1)
        out_multiset = Counter(id(s) for s in out)
        for s in data:
            assert out_multiset[id(s)] >= 1

    def test_balanced_input_is_identity(self):
        data = dataset_with_counts({"Facts": 4, "Statute": 4})
        assert oversample(data, seed=2) == data

    def test_deterministic(self):
        data = dataset_with_counts(self.COUNTS)
        assert oversample(data, seed=5) == oversample(data, seed=5)


@given(
    counts=st.dictionaries(
        st.sampled_from(LABELS), st.integers(1, 12), min_size=1, max_size=7
    ),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80)
def test_resampling_laws(counts, seed):
    data = dataset_with_counts(counts)
    mn, mx = min(counts.values()), max(counts.values())

    under = undersample(data, seed)
    assert set(label_counts(under).values()) == {mn}
    under_keys = Counter(id(s) for s in under)
    assert all(v == 1 for v in under_keys.values())
    assert set(under_keys) <= {id(s) for s in data}

    over = oversample(data, seed)
    assert set(label_counts(over).values()) == {mx}
    over_keys = Counter(id(s) for s in over)
    assert set(over_keys) == {id(s) for s in data}
