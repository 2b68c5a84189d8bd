import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from storysort import neural
from storysort.core import Permutation
from storysort.data import Story, SyntheticSpec, generate_synthetic
from storysort.errors import NumericError, ValidationError
from storysort.neural import TrainConfig


def identity(n):
    """The permutation that keeps every element in place."""
    return Permutation(tuple(range(n)))


def mirror(p):
    """The reversed order: position q becomes n - 1 - q."""
    return Permutation(tuple(p.n - 1 - q for q in p.positions))


def enumerate_permutations(n):
    """Test oracle: all n! permutations, lexicographic in the positions tuple."""
    for pos in itertools.permutations(range(n)):
        yield Permutation(pos)


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
    """Hypothesis strategy for Permutation objects of size n (or 2..8)."""
    sizes = st.just(n) if n is not None else st.integers(min_value=2, max_value=8)
    return sizes.flatmap(
        lambda k: st.permutations(list(range(k)))
    ).map(lambda pos: Permutation(tuple(pos)))


def perm_pairs_st(max_n: int = 8):
    """Pairs of equal-length Permutations."""
    return st.integers(min_value=2, max_value=max_n).flatmap(
        lambda k: st.tuples(
            st.permutations(list(range(k))), st.permutations(list(range(k)))
        )
    ).map(lambda t: (Permutation(tuple(t[0])), Permutation(tuple(t[1]))))


def make_story(golds, story_id="s", text=None, image=None, presented=None):
    """Tiny hand-built story; features default to one-hot of the gold position."""
    n = len(golds)
    return Story(
        story_id=story_id,
        text=np.eye(n)[list(golds)] if text is None else text,
        image=image,
        element_ids=tuple(f"{story_id}-e{idx}" for idx in range(n)),
        gold=tuple(golds),
        presented_order=None if presented is None else Permutation(tuple(presented)),
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
