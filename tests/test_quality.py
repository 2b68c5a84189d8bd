"""Quality against a ceiling: each kind, trained with its registry defaults, must come
within a fixed gap of the planted signal's most likely order (conftest.map_orders).

Every benchmark workload scores a Spearman of about 1.0, so these are the
tests that a change making predictions worse fails. Every kind is held at
n = 5 and n = 8, and unary also at n = 16 (the sizes of the unary-n16
workload).
"""

import functools

import numpy as np
import pytest

from storysort import metrics as M
from storysort.data import SyntheticSpec, generate_synthetic, presented_gold, split_dataset
from storysort.models import REGISTRY, predict_stories
from storysort.neural import TrainConfig
from conftest import map_orders, planted_directions

SEEDS = range(1, 6)

# each regime's n, noise, training stories (before any validation split) and held-out
# stories; n16 is the unary-n16 workload's
REGIMES = {"n5": (5, 1.0, 160, 40), "n8": (8, 1.0, 160, 40), "n16": (16, 0.1, 100, 50)}

# a kind's allowed gap below the oracle's mean held-out Spearman in each regime, from the
# measurement in the docstring of the test that applies it
GAPS = {"n5": {"unary": 0.21, "pairwise": 0.05, "npe": 0.13},
        "n8": {"unary": 0.13, "pairwise": 0.02, "npe": 0.02},
        "n16": {"unary": 0.01}}


def spearman(pred, stories):
    return M.aggregate(M.score_story(pred, presented_gold(stories))).spearman


@functools.cache
def quality_sets(regime):
    """For each seed: its spec, the regime's monotone stories split into training and
    held-out ones, and the oracle's held-out Spearman."""
    n, noise, train_stories, held_out_stories = REGIMES[regime]
    sets = []
    for seed in SEEDS:
        spec = SyntheticSpec(story_count=train_stories + held_out_stories, n=n,
                             noise_sigma=noise, seed=seed)
        stories = generate_synthetic(spec)
        held_out = stories[train_stories:]
        sets.append((spec, stories[:train_stories], held_out,
                     spearman(map_orders(spec, held_out), held_out)))
    return sets


def test_map_orders_draws_the_generators_directions():
    # at noise 0 the element at gold position 1 is 1·u exactly, so a generator change that
    # moves the planted directions fails here, not as a quietly wrong ceiling
    spec = SyntheticSpec(story_count=3, n=4, text_dim=7, image_dim=5, noise_sigma=0.0, seed=11)
    stories = generate_synthetic(spec)
    u_text, u_image = planted_directions(spec)
    assert np.array_equal(stories.text[:, 1], np.tile(u_text, (3, 1)))
    assert np.array_equal(stories.image[:, 1], np.tile(u_image, (3, 1)))
    # and with no noise the oracle recovers every story, with or without image features
    for use_image in (False, True):
        assert np.array_equal(map_orders(spec, stories, use_image), presented_gold(stories))


@pytest.mark.parametrize("kind", list(REGISTRY))
def test_held_out_spearman_is_within_its_gap_of_the_oracle(kind):
    """The kind's mean held-out Spearman over the seeds is at least the oracle's minus
    GAPS[kind].

    Measured (gap: oracle minus kind, on each seed's quality_sets entry):

    ========  =====  =====  =====  =====  =====  =====  ========  =======
    seed      1      2      3      4      5      mean   mean gap  largest
    ========  =====  =====  =====  =====  =====  =====  ========  =======
    oracle    0.857  0.860  0.845  0.865  0.807  0.847
    unary     0.712  0.742  0.705  0.660  0.688  0.701  0.146     0.205
    pairwise  0.840  0.820  0.832  0.817  0.770  0.816  0.031     0.047
    npe       0.812  0.807  0.777  0.792  0.682  0.774  0.072     0.125
    ========  =====  =====  =====  =====  =====  =====  ========  =======

    A kind's allowed gap is its largest single-seed gap, rounded up, applied to
    the 5-seed means: a kind whose mean falls by more than 0.064 (unary),
    0.019 (pairwise) or 0.057 (NPE) fails. NPE runs at its registry lr of
    0.0025; at the former 0.01 it read 0.807, 0.825, 0.737, 0.757 and 0.672
    (largest gap 0.135).
    """
    ours, oracle = held_out_spearmans(quality_sets("n5"), kind, early_stopped=False)
    assert np.mean(ours) >= np.mean(oracle) - GAPS["n5"][kind], (kind, ours, oracle)


@pytest.mark.parametrize("kind", list(REGISTRY))
def test_early_stopped_held_out_spearman_is_within_its_gap_of_the_oracle(kind):
    """As above, but trained as ``storysort train`` trains: on a seeded 10% validation
    split of each seed's training stories (144 train, 16 validate), with the registry's
    epochs as caps.

    Measured (gap: oracle minus kind; epochs: best/run per seed):

    ========  =====  =====  =====  =====  =====  =====  ========  =======
    seed      1      2      3      4      5      mean   mean gap  largest
    ========  =====  =====  =====  =====  =====  =====  ========  =======
    oracle    0.857  0.860  0.845  0.865  0.807  0.847
    unary     0.800  0.705  0.707  0.707  0.675  0.719  0.128     0.157
    pairwise  0.847  0.837  0.815  0.827  0.772  0.820  0.027     0.037
    npe       0.840  0.852  0.810  0.827  0.790  0.824  0.023     0.038
    ========  =====  =====  =====  =====  =====  =====  ========  =======

    Epochs: unary 14/17, 9/12, 7/10, 17/20, 13/16 of 30; pairwise 7/10, 3/6,
    8/11, 3/6, 2/5 of 12; NPE 8/11, 7/10, 8/11, 7/10, 7/10 of 40. Every kind's mean
    is at or above its fixed-epoch mean on all 160 stories (the table above), so
    this test keeps the same gaps.
    """
    ours, oracle = held_out_spearmans(quality_sets("n5"), kind, early_stopped=True)
    assert np.mean(ours) >= np.mean(oracle) - GAPS["n5"][kind], (kind, ours, oracle)


@pytest.mark.parametrize("regime,kind", [("n8", "unary"), ("n8", "pairwise"), ("n8", "npe"),
                                         ("n16", "unary")])
def test_early_stopped_held_out_spearman_at_n8_and_n16(regime, kind):
    """As above, early-stopped, at n = 8 (noise 1.0, 160 stories split 144/16, 40 held
    out) and n = 16 (noise 0.1, 100 stories split 90/10, 50 held out).

    Measured (gap: oracle minus kind; epochs: best/run per seed):

    ===============  =====  =====  =====  =====  =====  =====  ========  =======
    seed             1      2      3      4      5      mean   mean gap  largest
    ===============  =====  =====  =====  =====  =====  =====  ========  =======
    n = 8 oracle     0.945  0.945  0.928  0.927  0.938  0.936
    unary            0.853  0.874  0.863  0.828  0.815  0.847  0.090     0.123
    pairwise         0.943  0.937  0.916  0.919  0.924  0.928  0.008     0.014
    npe              0.945  0.942  0.923  0.924  0.928  0.932  0.004     0.0101
    n = 16 oracle    1.000  1.000  1.000  1.000  1.000  1.000
    unary            0.999  0.996  0.997  0.997  0.998  0.997  0.003     0.004
    ===============  =====  =====  =====  =====  =====  =====  ========  =======

    Epochs: unary at n = 8 16/19, 24/27, 20/23, 18/21, 22/25 of 30; pairwise
    6/9, 5/8, 1/4, 9/12, 3/6 of 12; NPE 5/8, 10/13, 4/7, 8/11, 9/12 of 40; unary
    at n = 16 25/28, 25/28, 23/26, 30/30, 30/30 of 30. Each gap is the largest
    single-seed gap, rounded up (NPE's 0.0101 to 0.02). Unary at 4x batch and 4x
    lr (128, 0.2) reads 0.985 at n = 16 (gap 0.015) and fails; at 2x it reads
    0.993 (gap 0.007). NPE at its former registry lr of 0.01 collapses on seeds
    1 and 3 (−0.031, 0.936, −0.051, 0.923, 0.927; mean 0.541) and fails.
    """
    ours, oracle = held_out_spearmans(quality_sets(regime), kind, early_stopped=True)
    assert np.mean(ours) >= np.mean(oracle) - GAPS[regime][kind], (kind, ours, oracle)


def held_out_spearmans(sets, kind, early_stopped):
    """The kind's and the oracle's held-out Spearman on each seed of sets (from
    quality_sets), the kind trained with its registry defaults, on all training stories
    or, early_stopped, on 90% of them with the rest as the validation set."""
    spec_of = REGISTRY[kind]
    defaults = spec_of.train_defaults
    ours, oracle = [], []
    for spec, train, held_out, oracle_spearman in sets:
        cfg = TrainConfig(learning_rate=defaults["lr"], epochs=defaults["epochs"],
                          batch_size=defaults["batch_size"], seed=spec.seed)
        val = None
        if early_stopped:
            train, val = split_dataset(train, 0.1, spec.seed)
        model = spec_of.module.train(train, cfg, val=val)
        ours.append(spearman(predict_stories(model, held_out), held_out))
        oracle.append(oracle_spearman)
    return ours, oracle
