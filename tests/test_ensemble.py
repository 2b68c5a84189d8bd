import numpy as np
import pytest

from storysort import npe as npe_mod, pairwise as pairwise_mod, unary as unary_mod
from storysort.core import Permutation
from storysort.data import presented_gold, split_dataset
from storysort.ensemble import (
    accumulate_votes,
    decode_votes,
    ensemble_sort,
)
from storysort.errors import (
    DimensionError,
    EmptyInputError,
    MemberError,
    SizeError,
    ValidationError,
)
from storysort.models import top_permutations
from storysort.neural import TrainConfig
from storysort.npe import train_npe
from storysort.pairwise import train_pairwise
from storysort.unary import predict as predict_unary, train_unary
from conftest import additive_score, enumerate_permutations, identity, make_story


class TestAccumulateVotes:
    def test_three_identity_candidates(self):
        (v,) = accumulate_votes([[identity(5)] * 3])
        assert (v == np.diag([3] * 5)).all()

    def test_symmetric_split_n2(self):
        (v,) = accumulate_votes([[(0, 1), (1, 0)]])
        assert (v == np.ones((2, 2), dtype=np.int64)).all()

    def test_three_candidate_tally(self):
        cands = [(0, 1, 2), (0, 2, 1), (1, 0, 2)]
        (v,) = accumulate_votes([cands])
        expected = np.array([[2, 1, 0], [1, 1, 1], [0, 1, 2]])
        assert (v == expected).all()

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            accumulate_votes([])

    def test_mixed_n_rejected(self):
        # candidates are one (S, m, n) array, so anything else is rejected
        with pytest.raises(DimensionError):
            accumulate_votes(identity(3))
        with pytest.raises(DimensionError):
            accumulate_votes([[[identity(3)]]])

    @pytest.mark.parametrize("candidates", [[[1, -2]], [[0, 0, 1]], [[0, 1], [2, 0]]])
    def test_rows_that_are_not_permutations_are_rejected(self, candidates):
        with pytest.raises(ValidationError, match="candidates must be permutations of 0..n-1"):
            accumulate_votes([candidates])

    def test_vote_conservation(self):
        rng = np.random.default_rng(0)
        cands = np.array([rng.permutation(5) for _ in range(12)])
        assert accumulate_votes(cands[None]).sum() == 12 * 5

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_stack_equals_row_by_row(self, n):
        rng = np.random.default_rng(n)
        cands = np.argsort(rng.random((40, n)), axis=1)
        expected = np.zeros((n, n), dtype=np.int64)
        for row in cands:
            expected += accumulate_votes(row[None, None])[0]
        (votes,) = accumulate_votes(cands[None])
        assert votes.dtype == np.int64 and np.array_equal(votes, expected)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_stories_tally_alone(self, n):
        rng = np.random.default_rng(10 + n)
        cands = np.argsort(rng.random((6, 9, n)), axis=2)
        votes = accumulate_votes(cands)
        assert votes.shape == (6, n, n) and votes.dtype == np.int64
        for story_votes, story_cands in zip(votes, cands):
            assert np.array_equal(story_votes, accumulate_votes(story_cands[None])[0])


class TestDecodeVotes:
    def test_diagonal_matrix(self):
        assert decode_votes(np.diag([3] * 5)[None]).tolist() == [[0, 1, 2, 3, 4]]

    def test_all_equal_votes_tie_break(self):
        assert decode_votes(np.ones((1, 5, 5), dtype=np.int64)).tolist() == [[0, 1, 2, 3, 4]]

    def test_three_candidate_matrix_against_enumeration(self):
        (v,) = accumulate_votes([[(0, 1, 2), (0, 2, 1), (1, 0, 2)]])
        (decoded,) = decode_votes(v[None])
        vf = v.astype(np.float64)
        best = max(additive_score(vf, p) for p in enumerate_permutations(3))
        assert decoded.tolist() == [0, 1, 2]
        assert additive_score(vf, decoded) == best == 5.0

    def test_unanimity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = rng.permutation(5)
            assert decode_votes(accumulate_votes([[p] * 6])).tolist() == [p.tolist()]

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_stack_equals_stacks_of_one(self, n):
        rng = np.random.default_rng(20 + n)
        tallies = accumulate_votes(np.argsort(rng.random((6, 3, n)), axis=2))
        # all-ones and all-zeros matrices tie every order; the others tie some
        votes = np.concatenate([tallies, np.ones((2, n, n), dtype=np.int64),
                                np.zeros((1, n, n), dtype=np.int64),
                                rng.integers(0, 2, size=(3, n, n))])
        decoded = decode_votes(votes)
        assert decoded.shape == (12, n)
        assert decoded.tolist() == [decode_votes(v[None])[0].tolist() for v in votes]
        assert decoded[6:9].tolist() == [list(range(n))] * 3

    def test_rejects_float_or_negative_stack(self):
        votes = np.ones((4, 3, 3), dtype=np.int64)
        with pytest.raises(ValidationError):
            decode_votes(votes.astype(np.float64))
        votes[2, 1, 0] = -1
        with pytest.raises(ValidationError):
            decode_votes(votes)

    def test_rejects_float_matrix(self):
        with pytest.raises(ValidationError):
            decode_votes(np.ones((1, 3, 3)))

    def test_rejects_negative(self):
        v = np.zeros((1, 3, 3), dtype=np.int64)
        v[0, 0, 0] = -1
        with pytest.raises(ValidationError):
            decode_votes(v)


@pytest.fixture(scope="module")
def models(tiny_clean_dataset):
    train, _ = split_dataset(tiny_clean_dataset, 0.25, seed=0)
    cfg = TrainConfig(learning_rate=0.05, epochs=8, batch_size=16, seed=0)
    unary = train_unary(train, cfg, use_image=True)
    pair = train_pairwise(train, cfg, use_image=True)
    npe = train_npe(train, TrainConfig(learning_rate=0.02, epochs=20, batch_size=8, seed=0),
                    embed_dim=16)
    return unary, pair, npe


class TestEnsembleSort:
    def test_single_member_k1_is_member_top(self, models, tiny_clean_dataset):
        unary, _, _ = models
        story = tiny_clean_dataset[70]
        (expected,) = top_permutations(unary, story, 1)
        assert [list(ensemble_sort([unary], story, k=1).positions)] == expected.tolist()

    def test_unanimous_members_return_that_permutation(self, models, tiny_clean_dataset):
        # on clean data all members agree on the gold order
        _, pair, npe = models
        story = tiny_clean_dataset[71]
        gold = presented_gold(story).tolist()
        tops_pair = top_permutations(pair, story, 1)[0].tolist()
        tops_npe = top_permutations(npe, story, 1)[0].tolist()
        if tops_pair == gold == tops_npe:
            assert [list(ensemble_sort([pair, npe], story, k=1).positions)] == gold

    def test_vote_decode_matches_brute_force(self, models, tiny_clean_dataset):
        _, pair, npe = models
        for story in tiny_clean_dataset[60:75]:
            pred = ensemble_sort([pair, npe], story, k=3)
            cands = np.concatenate([top_permutations(pair, story, 3)[0],
                                    top_permutations(npe, story, 3)[0]])
            v = accumulate_votes(cands[None])[0].astype(np.float64)
            best = max(additive_score(v, p) for p in enumerate_permutations(5))
            assert additive_score(v, pred.positions) == best

    def test_member_failure_is_attributed(self, models):
        _, pair, _ = models
        wrong_story = make_story([0, 1, 2])  # wrong feature dim for the model
        with pytest.raises(MemberError, match="member 0"):
            ensemble_sort([pair], wrong_story, k=3)

    @pytest.mark.parametrize("count", [0, 2])
    @pytest.mark.parametrize("entry", [
        "ensemble_sort", "unary.predict", "pairwise.predict", "npe.predict"])
    def test_a_batch_of_other_than_one_story_is_one_validation_error(
            self, models, tiny_clean_dataset, entry, count):
        unary, pair, npe = models
        batch = tiny_clean_dataset[:count]
        call = {
            "ensemble_sort": lambda: ensemble_sort([unary, pair], batch),
            "unary.predict": lambda: unary_mod.predict(unary, batch),
            "pairwise.predict": lambda: pairwise_mod.predict(pair, batch),
            "npe.predict": lambda: npe_mod.predict(npe, batch),
        }[entry]
        with pytest.raises(ValidationError) as e:
            call()
        assert str(e.value) == f"{entry} needs a batch of one story, got S = {count}"

    def test_empty_members(self, tiny_clean_dataset):
        with pytest.raises(EmptyInputError):
            ensemble_sort([], tiny_clean_dataset[0])

    def test_default_k_follows_the_members_at_n2(self):
        # an n = 2 story has 2 orders: a list of both would tie every vote, so by default
        # each member lists its best order, and k = 3 is out of range
        story = make_story([1, 0], text=np.array([[0.0, 1.0], [1.0, 0.0]]))
        unary = train_unary(story, TrainConfig(learning_rate=0.1, epochs=2, batch_size=2))
        own = predict_unary(unary, story)
        assert own != Permutation(identity(2))
        assert ensemble_sort([unary], story) == ensemble_sort([unary, unary], story) == own
        with pytest.raises(SizeError, match="k=3 out of range for n=2"):
            ensemble_sort([unary], story, k=3)

    @pytest.mark.parametrize("k", [120, 121])
    def test_k_of_n_factorial_or_more_is_out_of_range(self, models, tiny_clean_dataset, k):
        # a list of all 5! orders gives every element the same votes at every position,
        # so the vote would return the identity whatever the members say
        with pytest.raises(SizeError, match=f"k={k} out of range for n=5"):
            ensemble_sort(list(models), tiny_clean_dataset[0], k=k)
        ensemble_sort(list(models), tiny_clean_dataset[0], k=119)

    def test_bad_k(self, models, tiny_clean_dataset):
        unary, _, _ = models
        with pytest.raises(ValidationError):
            ensemble_sort([unary], tiny_clean_dataset[0], k=0)

    def test_unknown_member_type(self, tiny_clean_dataset):
        with pytest.raises(ValidationError):
            top_permutations(object(), tiny_clean_dataset[0], 3)
