from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhetrole.metrics import evaluate_predictions, report_to_json


def confusion_matrix(gold, pred, k):
    return evaluate_predictions(gold, pred, k).confusion


def per_class_prf(cm):
    """The report of the label lists that a confusion matrix counts."""
    k = len(cm)
    pairs = [(g, p) for g in range(k) for p in range(k) for _ in range(cm[g][p])]
    return evaluate_predictions([g for g, _ in pairs], [p for _, p in pairs], k)


def brute_force_macro(gold, pred, k):
    """Independent oracle: per-class TP/FP/FN counted straight from the
    label lists, never via a confusion matrix."""
    precision, recall, f1 = [], [], []
    for c in range(k):
        tp = sum(1 for g, p in zip(gold, pred) if g == c and p == c)
        fp = sum(1 for g, p in zip(gold, pred) if g != c and p == c)
        fn = sum(1 for g, p in zip(gold, pred) if g == c and p != c)
        p_c = tp / (tp + fp) if tp + fp > 0 else 0.0
        r_c = tp / (tp + fn) if tp + fn > 0 else 0.0
        f_c = 2 * p_c * r_c / (p_c + r_c) if p_c + r_c > 0 else 0.0
        precision.append(p_c)
        recall.append(r_c)
        f1.append(f_c)
    return (
        precision,
        recall,
        f1,
        sum(precision) / k,
        sum(recall) / k,
        sum(f1) / k,
    )


class TestConfusionMatrix:
    def test_perfect_predictions_are_diagonal(self):
        gold = [0, 1, 2, 1, 0]
        cm = confusion_matrix(gold, gold, 3)
        assert cm == [[2, 0, 0], [0, 2, 0], [0, 0, 1]]

    def test_two_label_harness(self):
        cm = confusion_matrix([0, 0, 1], [0, 1, 1], 2)
        assert cm == [[1, 1], [0, 1]]


class TestPerClass:
    def test_perfect_diagonal(self):
        pc = per_class_prf([[3, 0], [0, 2]])
        assert pc.precision == [1.0, 1.0]
        assert pc.recall == [1.0, 1.0]
        assert pc.f1 == [1.0, 1.0]
        assert pc.support == [3, 2]

    def test_hand_computed_case(self):
        pc = per_class_prf([[1, 1], [0, 1]])
        assert pc.precision == [1.0, 0.5]
        assert pc.recall == [0.5, 1.0]
        assert pc.f1 == pytest.approx([2 / 3, 2 / 3])

    def test_absent_class_zero_rule(self):
        pc = per_class_prf([[2, 0, 0], [0, 1, 0], [0, 0, 0]])
        assert pc.precision[2] == pc.recall[2] == pc.f1[2] == 0.0


class TestMacro:
    def test_hand_computed_case(self):
        report = evaluate_predictions([0, 0, 1], [0, 1, 1], 2)
        assert report.macro_precision == pytest.approx(0.75)
        assert report.macro_recall == pytest.approx(0.75)
        assert report.macro_f1 == pytest.approx(2 / 3)

    def test_all_perfect(self):
        report = evaluate_predictions([0, 1, 2], [0, 1, 2], 3)
        assert report.macro_f1 == 1.0

    def test_exhaustive_small_enumeration_matches_oracle(self):
        for k, n in ((2, 4), (3, 3), (4, 2)):
            for gold in itertools.product(range(k), repeat=n):
                for pred in itertools.product(range(k), repeat=n):
                    report = evaluate_predictions(list(gold), list(pred), k)
                    p, r, f, mp, mr, mf = brute_force_macro(gold, pred, k)
                    assert report.precision == p
                    assert report.recall == r
                    assert report.f1 == f
                    assert report.macro_precision == mp
                    assert report.macro_recall == mr
                    assert report.macro_f1 == mf

    def test_random_larger_cases_match_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            k = int(rng.integers(2, 8))
            n = int(rng.integers(1, 60))
            gold = rng.integers(0, k, size=n).tolist()
            pred = rng.integers(0, k, size=n).tolist()
            report = evaluate_predictions(gold, pred, k)
            _, _, _, mp, mr, mf = brute_force_macro(gold, pred, k)
            assert (report.macro_precision, report.macro_recall, report.macro_f1) == (mp, mr, mf)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=30),
           st.randoms())
    @settings(max_examples=80)
    def test_joint_permutation_invariance(self, pairs, rnd):
        gold = [g for g, _ in pairs]
        pred = [p for _, p in pairs]
        rep_a = evaluate_predictions(gold, pred, 4)
        shuffled = pairs[:]
        rnd.shuffle(shuffled)
        rep_b = evaluate_predictions(
            [g for g, _ in shuffled], [p for _, p in shuffled], 4
        )
        assert rep_a.confusion == rep_b.confusion
        assert rep_a == rep_b

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=20),
           st.permutations(range(3)))
    @settings(max_examples=80)
    def test_relabeling_permutes_per_class_and_preserves_macro(self, pairs, perm):
        gold = [g for g, _ in pairs]
        pred = [p for _, p in pairs]
        base = evaluate_predictions(gold, pred, 3)
        permuted = evaluate_predictions([perm[g] for g in gold], [perm[p] for p in pred], 3)
        for c in range(3):
            assert permuted.f1[perm[c]] == base.f1[c]
        assert permuted.macro_f1 == pytest.approx(base.macro_f1, rel=1e-15)

    def test_metric_range_and_f1_between_p_and_r(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            gold = rng.integers(0, 4, size=n).tolist()
            pred = rng.integers(0, 4, size=n).tolist()
            pc = evaluate_predictions(gold, pred, 4)
            ulp = 1e-12
            for p, r, f in zip(pc.precision, pc.recall, pc.f1):
                assert 0.0 <= f <= max(p, r) + ulp
                assert max(p, r) <= 1.0
                if p > 0 and r > 0:
                    assert min(p, r) - ulp <= f <= max(p, r) + ulp


class TestJsonReport:
    def test_document_shape(self):
        report = evaluate_predictions([0, 1, 1], [0, 1, 0], 2)
        cm = report.confusion
        doc = json.loads(report_to_json(report, ["Facts", "Argument"]))
        assert doc["labels"] == ["Facts", "Argument"]
        assert set(doc["per_class"]) == {"Facts", "Argument"}
        assert set(doc["per_class"]["Facts"]) == {"precision", "recall", "f1", "support"}
        assert doc["confusion_matrix"] == cm
        assert doc["total"] == 3
        assert doc["macro"]["f1"] == report.macro_f1

    def test_document_bytes(self):
        # Key order, indent, float reprs, total and the trailing newline.
        report = evaluate_predictions([0, 0, 1, 2], [0, 1, 1, 1], 3)
        assert report_to_json(report, ["Facts", "Argument", "Statute"]) == (
            '{\n  "labels": [\n    "Facts",\n    "Argument",\n    "Statute"\n  ],\n'
            '  "per_class": {\n'
            '    "Facts": {\n      "precision": 1.0,\n      "recall": 0.5,\n'
            '      "f1": 0.6666666666666666,\n      "support": 2\n    },\n'
            '    "Argument": {\n      "precision": 0.3333333333333333,\n      "recall": 1.0,\n'
            '      "f1": 0.5,\n      "support": 1\n    },\n'
            '    "Statute": {\n      "precision": 0.0,\n      "recall": 0.0,\n'
            '      "f1": 0.0,\n      "support": 1\n    }\n  },\n'
            '  "macro": {\n    "precision": 0.4444444444444444,\n    "recall": 0.5,\n'
            '    "f1": 0.38888888888888884\n  },\n'
            '  "confusion_matrix": [\n    [\n      1,\n      1,\n      0\n    ],\n'
            '    [\n      0,\n      1,\n      0\n    ],\n'
            '    [\n      0,\n      1,\n      0\n    ]\n  ],\n'
            '  "total": 4\n}\n'
        )
