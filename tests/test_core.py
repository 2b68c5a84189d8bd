import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given

from storysort import core
from storysort.core import (
    CHUNK_FLOATS, Permutation, is_permutation, parse_json, permutation_table,
    random_permutation, rank_orders,
)
from storysort.data import gold_features, presented_features, presented_gold
from storysort.errors import EnumerationCapError, ParseError, SizeError, ValidationError
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


@pytest.mark.parametrize("k,pair", [(1, True), (3, True), (2, False)])
def test_rank_orders_bounds_its_own_table_of_order_values(monkeypatch, k, pair):
    # more n = 8 matrices than one table of CHUNK_FLOATS floats holds, none of them a
    # transitive tournament, so pairwise.decode_pairwise would hand them all to rank_orders
    count = CHUNK_FLOATS // math.factorial(8) + 2
    a = np.random.default_rng(8).standard_normal((count, 8, 8))
    a[:, np.arange(8), np.arange(8)] = 0.0
    wins = (a > a.transpose(0, 2, 1)).sum(axis=2)
    assert not (np.sort(wins, axis=1) == np.arange(8)).all(axis=1).any()
    sizes, order_values = [], core.order_values

    def recorded(*args):
        values = order_values(*args)
        sizes.append(values.size)
        return values

    monkeypatch.setattr(core, "order_values", recorded)
    ranked = rank_orders(a, k, pair)
    assert sizes and max(sizes) <= CHUNK_FLOATS
    assert ranked.shape == (count, k, 8)
    for s in range(count):
        assert np.array_equal(ranked[s], rank_orders(a[s:s + 1], k, pair)[0])


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


class TestParseJson:
    """parse_json, the one parse of every JSON file and line, and its two error lines."""

    def test_value(self):
        raw = '{"a": [1, 2.5, "\u00e9"]}\r\n'.encode()
        assert parse_json(raw, "f") == {"a": [1, 2.5, "\u00e9"]}

    @pytest.mark.parametrize("lineno,where", [(None, "f.json"), (7, "f.json:7")])
    def test_malformed_json_names_the_line_if_any(self, lineno, where):
        with pytest.raises(ParseError) as e:
            parse_json(b"not json\n", "f.json", lineno)
        assert str(e.value) == (
            f"{where}: malformed JSON: Expecting value: line 1 column 1 (char 0)")

    @pytest.mark.parametrize("lineno", [None, 7])
    def test_bytes_that_are_not_utf8_name_the_file(self, lineno):
        with pytest.raises(ParseError) as e:
            parse_json(b'{"a": "\xff"}', "f.json", lineno)
        assert str(e.value) == "f.json: not UTF-8 text: invalid start byte"

    def test_utf16_is_not_read_as_json(self):
        # json.loads would detect UTF-16 in bytes; the files are UTF-8 only
        with pytest.raises(ParseError, match="not UTF-8 text"):
            parse_json('{"a": 1}'.encode("utf-16"), "f.json")
