import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from storysort import neural
from storysort.data import Stories, SyntheticSpec, generate_synthetic
from storysort.errors import DimensionError, NumericError, ValidationError
from storysort.neural import TrainConfig
from storysort.pairwise import check_pair_matrix


def identity(n):
    """The order that keeps every element in place."""
    return tuple(range(n))


def mirror(p):
    """The reversed order: position q becomes n - 1 - q."""
    return tuple(len(p) - 1 - q for q in p)


def enumerate_permutations(n):
    """Test oracle: all n! positions tuples, lexicographic."""
    return itertools.permutations(range(n))


def exact_ranking(n, total):
    """Test oracle: every positions tuple of n elements, by descending total, ties lexicographic.

    total(positions) must be exact, such as a sum of Fractions.
    """
    return sorted(enumerate_permutations(n), key=lambda pos: (-total(pos), pos))


def additive_score(s, positions):
    """Test reference: sum s[i][positions[i]] in index order i = 0..n-1, from 0.0, as the
    additive decoders' totals do."""
    total = 0.0
    for i, p in enumerate(positions):
        total += float(s[i, p])
    return total


def pairwise_objective(s, positions):
    """Test reference: for each unordered pair i < j, row-major, add the score difference
    of the orientation the order chooses, as the pair decoders' totals do."""
    (a,) = check_pair_matrix(np.asarray(s)[None])
    n = a.shape[0]
    if len(positions) != n:
        raise DimensionError(f"order n={len(positions)} does not match matrix n={n}")
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            diff = a[i, j] - a[j, i]
            total += diff if positions[i] < positions[j] else -diff
    return float(total)


def grad_check(loss_fn, params, eps=1e-5):
    """Test oracle: max relative error between analytic gradients and central differences.

    loss_fn(params) must return (loss, (weight_grads, bias_grads)). The
    relative error per parameter is |ga - gn| / max(|ga|, |gn|, 1e-8).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValidationError(f"eps must be in [1e-7, 1e-3], got {eps}")
    base_loss, (gws, gbs) = loss_fn(params)
    if not np.isfinite(base_loss):
        raise NumericError(f"loss is non-finite: {base_loss}")
    work = neural.clone_params(params)
    max_rel = 0.0
    for arrays, grads in ((work.weights, gws), (work.biases, gbs)):
        for arr, g in zip(arrays, grads):
            flat = arr.reshape(-1)
            gflat = np.asarray(g).reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                plus = loss_fn(work)[0]
                flat[idx] = orig - eps
                minus = loss_fn(work)[0]
                flat[idx] = orig
                if not (np.isfinite(plus) and np.isfinite(minus)):
                    raise NumericError("perturbed loss is non-finite")
                gn = (plus - minus) / (2.0 * eps)
                ga = gflat[idx]
                max_rel = max(max_rel, abs(ga - gn) / max(abs(ga), abs(gn), 1e-8))
    return max_rel


def permutations_st(n: int | None = None):
    """Hypothesis strategy for positions tuples of size n (or 2..8)."""
    sizes = st.just(n) if n is not None else st.integers(min_value=2, max_value=8)
    return sizes.flatmap(lambda k: st.permutations(list(range(k)))).map(tuple)


def perm_pairs_st(max_n: int = 8):
    """Pairs of equal-length positions tuples."""
    return st.integers(min_value=2, max_value=max_n).flatmap(
        lambda k: st.tuples(permutations_st(k), permutations_st(k))
    )


def make_story(golds, story_id="s", text=None, image=None, presented=None):
    """Tiny hand-built one-story batch; features default to one-hot of the gold position,
    and the presented order to the listed order."""
    n = len(golds)
    return Stories(
        story_ids=(story_id,),
        element_ids=(tuple(f"{story_id}-e{idx}" for idx in range(n)),),
        gold=[golds],
        presented=[range(n) if presented is None else presented],
        text=[np.eye(n)[list(golds)] if text is None else text],
        image=None if image is None else [image],
    )


def join(*batches):
    """One batch of the stories of several batches, in order, checked again."""
    return Stories(
        story_ids=sum((b.story_ids for b in batches), ()),
        element_ids=sum((b.element_ids for b in batches), ()),
        gold=np.concatenate([b.gold for b in batches]),
        presented=np.concatenate([b.presented for b in batches]),
        text=np.concatenate([b.text for b in batches]),
        image=None if batches[0].image is None else np.concatenate([b.image for b in batches]),
    )


@pytest.fixture(scope="session")
def tiny_clean_dataset():
    """Small noiseless planted-signal dataset for fast trainer tests."""
    return generate_synthetic(
        SyntheticSpec(story_count=80, n=5, text_dim=8, image_dim=4,
                      noise_sigma=0.0, signal_mode="monotone", seed=5)
    )


@pytest.fixture
def quick_cfg():
    return TrainConfig(learning_rate=0.05, epochs=4, batch_size=16, seed=0)
