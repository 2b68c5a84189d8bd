"""storysort: recover the temporal order of jumbled story elements.

Given feature vectors for a story's elements, the engine predicts the
permutation restoring their original order, via unary position models,
pairwise order models, ordered position embeddings, and a voting
ensemble, all decoded exactly at the supported sequence lengths.
"""

from .assign import additive_score, hungarian_max, topk_assignments
from .core import (
    Permutation,
    apply_permutation,
    enumerate_permutations,
    identity_permutation,
    inverse,
    random_permutation,
    reverse,
)
from .data import (
    Story,
    SyntheticSpec,
    generate_synthetic,
    jumble,
    load_dataset,
    save_dataset,
    split_dataset,
)
from .ensemble import accumulate_votes, decode_votes, ensemble_sort
from .metrics import (
    ConfusionMatrix,
    MetricReport,
    aggregate,
    avg_distance,
    confusion,
    pairwise_accuracy,
    spearman,
)
from .neural import MlpParams, TrainConfig, grad_check, mlp_forward, sgd_train, softmax
from .npe import NpeConfig, NpeModel, npe_pair_loss, npe_scores, npe_story_loss, train_npe
from .pairwise import (
    PairwiseModel,
    decode_pairwise,
    pair_scores,
    pairwise_objective,
    train_pairwise,
)
from .unary import UnaryModel, decode_unary, position_probs, train_unary, unary_score

__version__ = "0.1.0"
