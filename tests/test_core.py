import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given

from storysort.core import Permutation, is_permutation, permutation_table, random_permutation
from storysort.data import gold_features, presented_features, presented_gold
from storysort.errors import EnumerationCapError, SizeError, ValidationError
from conftest import enumerate_permutations, make_story, permutations_st


class TestPermutationType:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValidationError):
            Permutation((0, 0, 1))
        with pytest.raises(ValidationError):
            Permutation((1, 2, 3))

    def test_rejects_bad_sizes(self):
        with pytest.raises(SizeError):
            Permutation((0,))
        with pytest.raises(SizeError):
            Permutation(tuple(range(17)))

    def test_coerces_numpy_ints(self):
        p = Permutation(tuple(np.argsort([3, 1, 2])))
        assert p.positions == (1, 2, 0) or isinstance(p.positions[0], int)


class TestIsPermutation:
    """is_permutation, the one check of order rows, against a sorted-list oracle."""

    @pytest.mark.parametrize("row", [(0, 1), (1, 0), (2, 0, 1), (0, 0, 1), (1, 2, 3), (-1, 0),
                                     (0, 10**30), (0, 2**63), (1,), ()])
    def test_one_row(self, row):
        assert is_permutation(row) == (sorted(row) == list(range(len(row))))

    def test_rows_of_a_stack(self):
        rng = np.random.default_rng(4)
        rows = rng.integers(0, 5, size=(300, 5))
        rows[::3] = np.argsort(rng.random((100, 5)), axis=1)
        expected = [sorted(r) == list(range(5)) for r in rows.tolist()]
        assert is_permutation(rows).tolist() == expected
        assert is_permutation(rows.reshape(30, 10, 5)).tolist() == np.reshape(
            expected, (30, 10)).tolist()


class TestInverse:
    """The inverse of a presented order, as the views apply it: row k of a
    view holds the element at position k."""

    def test_identity_self_inverse(self):
        story = make_story([0, 1, 2, 3, 4])
        assert (presented_features(story, False) == gold_features(story, False)).all()
        assert presented_gold(story).tolist() == [[0, 1, 2, 3, 4]]

    def test_hand_checked_cycle(self):
        # element 0 at position 1, 1 at 2, 2 at 0; so position 0 holds
        # element 2, position 1 holds 0, position 2 holds 1
        story = make_story([0, 1, 2], presented=[1, 2, 0])
        assert presented_features(story, False)[0].argmax(axis=1).tolist() == [2, 0, 1]
        assert presented_gold(story).tolist() == [[2, 0, 1]]

    def test_reversal_is_involution(self):
        story = make_story([0, 1, 2, 3, 4], presented=[4, 3, 2, 1, 0])
        assert (presented_features(story, False)[0] == np.eye(5)[::-1]).all()
        assert presented_gold(story).tolist() == [[4, 3, 2, 1, 0]]

    @given(permutations_st())
    def test_double_inverse_roundtrip(self, p):
        # elements listed by gold position p and presented by p again show up in gold order
        story = make_story(p, presented=p)
        assert presented_gold(story).tolist() == [list(range(len(p)))]

    @given(permutations_st(5), permutations_st(5))
    def test_apply_then_inverse_restores(self, gold, presented):
        # presenting every element at its gold position turns the presented
        # view into the gold one, whatever the story was presented in before
        story = make_story(gold, text=np.arange(10.0).reshape(5, 2), presented=presented)
        regold = dataclasses.replace(story, presented=[gold])
        assert (presented_features(regold, False) == gold_features(story, False)).all()


class TestEnumerate:
    """permutation_table: every order of n elements, the rows the decoders rank."""

    def test_count_n5_is_120(self):
        assert permutation_table(5).shape == (120, 5)

    def test_n2_sequence(self):
        assert permutation_table(2).tolist() == [[0, 1], [1, 0]]

    def test_n3_lexicographic_bounds(self):
        perms = permutation_table(3).tolist()
        assert len(perms) == 6
        assert perms[0] == [0, 1, 2]
        assert perms[-1] == [2, 1, 0]
        assert perms == sorted(perms)

    def test_no_duplicates_up_to_6(self):
        for n in range(2, 7):
            seen = {tuple(row) for row in permutation_table(n).tolist()}
            assert len(seen) == math.factorial(n)

    def test_rows_follow_the_oracle_and_are_read_only(self):
        for n in range(2, 7):
            oracle = [list(p) for p in enumerate_permutations(n)]
            assert permutation_table(n).tolist() == oracle
        with pytest.raises(ValueError):
            permutation_table(3)[0, 0] = 1

    def test_cap_error(self):
        with pytest.raises(EnumerationCapError):
            permutation_table(9)
        with pytest.raises(SizeError):
            permutation_table(1)


class TestRandomPermutation:
    def test_same_seed_same_output(self):
        assert random_permutation(5, 123) == random_permutation(5, 123)

    def test_n1_rejected(self):
        with pytest.raises(SizeError):
            random_permutation(1, 0)

    def test_uniform_over_120k_draws(self):
        rng = np.random.default_rng(7)
        counts = Counter(random_permutation(5, rng) for _ in range(120_000))
        assert len(counts) == 120
        for p in enumerate_permutations(5):
            freq = counts[p] / 120_000
            assert abs(freq - 1 / 120) < 0.005
