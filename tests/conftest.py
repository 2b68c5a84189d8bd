import numpy as np
import pytest
from hypothesis import strategies as st

from storysort.core import Permutation
from storysort.data import Story, SyntheticSpec, generate_synthetic
from storysort.neural import TrainConfig


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
