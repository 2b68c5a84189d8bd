import numpy as np
import pytest

from storysort.assign import additive_score
from storysort.data import presented_gold, split_dataset
from storysort.ensemble import (
    accumulate_votes,
    check_vote_matrix,
    decode_votes,
    ensemble_sort,
)
from storysort.errors import (
    DimensionError,
    EmptyInputError,
    MemberError,
    ValidationError,
)
from storysort.models import top_permutations
from storysort.neural import TrainConfig
from storysort.npe import train_npe
from storysort.pairwise import train_pairwise
from storysort.unary import train_unary
from conftest import enumerate_permutations, identity, make_story


class TestAccumulateVotes:
    def test_three_identity_candidates(self):
        v = accumulate_votes([identity(5)] * 3)
        assert (v == np.diag([3] * 5)).all()

    def test_symmetric_split_n2(self):
        v = accumulate_votes([(0, 1), (1, 0)])
        assert (v == np.ones((2, 2), dtype=np.int64)).all()

    def test_three_candidate_tally(self):
        cands = [(0, 1, 2), (0, 2, 1), (1, 0, 2)]
        v = accumulate_votes(cands)
        expected = np.array([[2, 1, 0], [1, 1, 1], [0, 1, 2]])
        assert (v == expected).all()

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            accumulate_votes([])

    def test_mixed_n_rejected(self):
        # candidates are the rows of one (m, n) array, so anything else is rejected
        with pytest.raises(DimensionError):
            accumulate_votes(identity(3))
        with pytest.raises(DimensionError):
            accumulate_votes([[identity(3)]])

    def test_vote_conservation(self):
        rng = np.random.default_rng(0)
        cands = np.array([rng.permutation(5) for _ in range(12)])
        assert accumulate_votes(cands).sum() == 12 * 5

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_stack_equals_row_by_row(self, n):
        rng = np.random.default_rng(n)
        cands = np.argsort(rng.random((40, n)), axis=1)
        expected = np.zeros((n, n), dtype=np.int64)
        for row in cands:
            expected += accumulate_votes(row[None])
        votes = accumulate_votes(cands)
        assert votes.dtype == np.int64 and np.array_equal(votes, expected)


class TestDecodeVotes:
    def test_diagonal_matrix(self):
        assert decode_votes(np.diag([3] * 5)).tolist() == [0, 1, 2, 3, 4]

    def test_all_equal_votes_tie_break(self):
        assert decode_votes(np.ones((5, 5), dtype=np.int64)).tolist() == [0, 1, 2, 3, 4]

    def test_three_candidate_matrix_against_enumeration(self):
        v = accumulate_votes([(0, 1, 2), (0, 2, 1), (1, 0, 2)])
        decoded = decode_votes(v)
        vf = v.astype(np.float64)
        best = max(additive_score(vf, p) for p in enumerate_permutations(3))
        assert decoded.tolist() == [0, 1, 2]
        assert additive_score(vf, decoded) == best == 5.0

    def test_unanimity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = rng.permutation(5)
            assert decode_votes(accumulate_votes([p] * 6)).tolist() == p.tolist()

    def test_rejects_float_matrix(self):
        with pytest.raises(ValidationError):
            decode_votes(np.ones((3, 3)))

    def test_rejects_negative(self):
        v = np.zeros((3, 3), dtype=np.int64)
        v[0, 0] = -1
        with pytest.raises(ValidationError):
            decode_votes(v)

    def test_check_returns_array(self):
        v = check_vote_matrix([[1, 0], [0, 1]])
        assert v.shape == (2, 2)


@pytest.fixture(scope="module")
def models(tiny_clean_dataset):
    train, _, _ = split_dataset(tiny_clean_dataset, (0.75, 0.0, 0.25), seed=0)
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
        expected = top_permutations(unary, story, 1)[0]
        assert [list(ensemble_sort([unary], story, k=1).positions)] == expected.tolist()

    def test_unanimous_members_return_that_permutation(self, models, tiny_clean_dataset):
        # on clean data all members agree on the gold order
        _, pair, npe = models
        story = tiny_clean_dataset[71]
        gold = presented_gold([story]).tolist()
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
            v = accumulate_votes(cands).astype(np.float64)
            best = max(additive_score(v, p) for p in enumerate_permutations(5))
            assert additive_score(v, pred.positions) == best

    def test_member_failure_is_attributed(self, models):
        _, pair, _ = models
        wrong_story = make_story([0, 1, 2])  # wrong feature dim for the model
        with pytest.raises(MemberError, match="member 0"):
            ensemble_sort([pair], wrong_story, k=3)

    def test_empty_members(self, tiny_clean_dataset):
        with pytest.raises(EmptyInputError):
            ensemble_sort([], tiny_clean_dataset[0])

    def test_bad_k(self, models, tiny_clean_dataset):
        unary, _, _ = models
        with pytest.raises(ValidationError):
            ensemble_sort([unary], tiny_clean_dataset[0], k=0)

    def test_unknown_member_type(self, tiny_clean_dataset):
        with pytest.raises(ValidationError):
            top_permutations(object(), tiny_clean_dataset[0], 3)
