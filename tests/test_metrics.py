from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

from storysort.core import random_permutation
from storysort.errors import DimensionError, EmptyInputError, ValidationError
from storysort.metrics import (
    aggregate,
    avg_distance,
    confusion,
    pairwise_accuracy,
    score_story,
    spearman,
)
from conftest import enumerate_permutations, identity, mirror, perm_pairs_st, permutations_st

ID5 = identity(5)
REV5 = (4, 3, 2, 1, 0)
SWAP01 = (1, 0, 2, 3, 4)


class TestSpearman:
    def test_identical(self):
        assert spearman(ID5, ID5) == 1.0

    def test_full_reversal(self):
        assert spearman(REV5, ID5) == -1.0

    def test_adjacent_swap(self):
        # d = (1, -1, 0, 0, 0), sum d^2 = 2, 1 - 12/120 = 0.9
        assert spearman(SWAP01, ID5) == pytest.approx(0.9, abs=1e-15)

    def test_mismatched_n(self):
        with pytest.raises(DimensionError):
            spearman(identity(4), ID5)

    @given(permutations_st(5), permutations_st(5))
    def test_symmetric(self, p, g):
        assert spearman(p, g) == spearman(g, p)

    @given(permutations_st())
    def test_self_is_one(self, p):
        assert spearman(p, p) == 1.0


class TestPairwiseAccuracy:
    def test_identical(self):
        assert pairwise_accuracy(ID5, ID5) == 1.0

    def test_full_reversal(self):
        assert pairwise_accuracy(REV5, ID5) == 0.0

    def test_adjacent_swap(self):
        # only the (0, 1) pair flips: 9 of 10 pairs agree
        assert pairwise_accuracy(SWAP01, ID5) == pytest.approx(0.9, abs=1e-15)

    @given(permutations_st(5), permutations_st(5))
    def test_symmetric(self, p, g):
        assert pairwise_accuracy(p, g) == pairwise_accuracy(g, p)

    @given(perm_pairs_st())
    def test_reversal_complement(self, pair):
        p, g = pair
        assert pairwise_accuracy(p, g) + pairwise_accuracy(mirror(p), g) == pytest.approx(1.0)


class TestAvgDistance:
    def test_identical(self):
        assert avg_distance(ID5, ID5) == 0.0

    def test_full_reversal(self):
        # (4 + 2 + 0 + 2 + 4) / 5
        assert avg_distance(REV5, ID5) == pytest.approx(2.4, abs=1e-15)

    @given(permutations_st(5), permutations_st(5))
    def test_symmetric(self, p, g):
        assert avg_distance(p, g) == avg_distance(g, p)

    @given(permutations_st())
    def test_self_is_zero(self, p):
        assert avg_distance(p, p) == 0.0


class TestRandomBaselineExact:
    """Means over all 120 permutations against a fixed gold order.

    The rational oracle below recomputes each metric in exact arithmetic,
    so the expected corpus means 0, 1/2, and 8/5 are exact, and the float
    path must agree to rounding error.
    """

    def test_enumerated_means_match_rational_oracle(self):
        gold = ID5
        sp_sum, pa_sum, d_sum = Fraction(0), Fraction(0), Fraction(0)
        triples = []
        for p in enumerate_permutations(5):
            ss = sum((a - b) ** 2 for a, b in zip(p, gold))
            sp_sum += 1 - Fraction(6 * ss, 5 * (25 - 1))
            agree = sum(
                1
                for i in range(5)
                for j in range(i + 1, 5)
                if (p[i] > p[j]) == (gold[i] > gold[j])
            )
            pa_sum += Fraction(agree, 10)
            d_sum += Fraction(sum(abs(a - b) for a, b in zip(p, gold)), 5)
            triples.append(score_story(p, gold))
        assert sp_sum / 120 == Fraction(0)
        assert pa_sum / 120 == Fraction(1, 2)
        assert d_sum / 120 == Fraction(8, 5)
        report = aggregate(triples)
        assert report.spearman == pytest.approx(0.0, abs=1e-12)
        assert report.pairwise_accuracy == pytest.approx(0.5, abs=1e-12)
        assert report.avg_distance == pytest.approx(1.6, abs=1e-12)


class TestConfusion:
    def test_perfect_predictions_diagonal(self):
        counts = confusion([ID5] * 10, [ID5] * 10)
        assert (counts == np.diag([10] * 5)).all()

    def test_reversals_antidiagonal(self):
        counts = confusion([REV5] * 10, [ID5] * 10)
        assert (counts == np.fliplr(np.diag([10] * 5))).all()

    def test_single_swap_counts(self):
        counts = confusion([SWAP01], [ID5])
        expected = np.zeros((5, 5), dtype=np.int64)
        expected[0, 1] = expected[1, 0] = 1
        expected[2, 2] = expected[3, 3] = expected[4, 4] = 1
        assert (counts == expected).all()

    def test_row_sums_equal_story_count(self):
        rng = np.random.default_rng(3)
        pred, gold = np.array([[random_permutation(5, rng) for _ in range(2)]
                               for _ in range(17)]).transpose(1, 0, 2)
        counts = confusion(pred, gold)
        assert (counts.sum(axis=1) == 17).all()

    def test_inconsistent_n(self):
        # a stack holds one n, so a pred and gold of different n do not pair up
        with pytest.raises(DimensionError):
            confusion([ID5, ID5], [identity(4), identity(4)])

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            confusion(np.empty((0, 5), dtype=np.intp), np.empty((0, 5), dtype=np.intp))


@pytest.mark.parametrize("metric,pred,gold", [
    (confusion, [[0, -1]], [[0, 1]]),
    (spearman, [0, 5], [0, 1]),
    (pairwise_accuracy, [0, 0], [0, 1]),
    (avg_distance, [0, 1], [1, 1]),
], ids=["confusion-negative", "spearman-out-of-range", "pairwise-repeated", "gold-repeated"])
def test_rows_that_are_not_permutations_are_rejected(metric, pred, gold):
    with pytest.raises(ValidationError, match="orders must be permutations of 0..n-1"):
        metric(pred, gold)


class TestAggregate:
    def test_single_story(self):
        r = aggregate([(1.0, 1.0, 0.0)])
        assert (r.spearman, r.pairwise_accuracy, r.avg_distance, r.story_count) == (1.0, 1.0, 0.0, 1)

    def test_two_story_mean(self):
        r = aggregate([(1.0, 1.0, 0.0), (-1.0, 0.0, 2.4)])
        assert r.spearman == 0.0
        assert r.pairwise_accuracy == 0.5
        assert r.avg_distance == pytest.approx(1.2)
        assert r.story_count == 2

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            aggregate([])

    def test_json_round_trip_keys(self):
        d = aggregate([(0.5, 0.75, 1.0)]).to_json()
        assert set(d) == {"spearman", "pairwise_accuracy", "avg_distance", "story_count"}


class TestStacksEqualRows:
    """Each metric of an (S, n) stack equals, with ==, the same metric of each row alone,
    and the loops the array metrics replaced."""

    @staticmethod
    def loop_metrics(pred, gold):
        """The per-element Python loops of the one-story metrics, as they were."""
        n = len(pred)
        ss = sum((p - g) * (p - g) for p, g in zip(pred, gold))
        agree = sum((pred[i] - pred[j] > 0) == (gold[i] - gold[j] > 0)
                    for i in range(n) for j in range(i + 1, n))
        return [1.0 - 6.0 * ss / (n * (n * n - 1)), agree / (n * (n - 1) // 2),
                sum(abs(p - g) for p, g in zip(pred, gold)) / n]

    @pytest.mark.parametrize("n", [2, 5, 7, 16])
    def test_score_story_and_confusion(self, n):
        rng = np.random.default_rng(n)
        pred = np.argsort(rng.random((200, n)), axis=1)
        gold = np.argsort(rng.random((200, n)), axis=1)
        stack = score_story(pred, gold)
        assert stack.shape == (200, 3)
        assert stack.tolist() == [score_story(p, g).tolist() for p, g in zip(pred, gold)]
        assert stack.tolist() == [self.loop_metrics(p, g)
                                  for p, g in zip(pred.tolist(), gold.tolist())]
        expected = np.zeros((n, n), dtype=np.int64)
        for p, g in zip(pred, gold):
            expected += confusion(p, g)
        assert np.array_equal(confusion(pred, gold), expected)
        report = aggregate(stack)
        assert report.spearman == sum(float(row[0]) for row in stack) / 200
        assert report.avg_distance == sum(float(row[2]) for row in stack) / 200
