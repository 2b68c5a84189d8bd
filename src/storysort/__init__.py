"""storysort: recover the temporal order of jumbled story elements.

Given feature vectors for a story's elements, the engine predicts the
permutation restoring their original order, via unary position models,
pairwise order models, ordered position embeddings, and a voting
ensemble, all decoded exactly at the supported sequence lengths. The
package holds only what the pipeline runs: the brute-force references
that the decoders are checked against live with the tests.
"""

from .assign import hungarian_max, topk_assignments
from .core import Permutation, random_permutation
from .data import (
    Stories,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_dataset,
)
from .ensemble import accumulate_votes, decode_votes, ensemble_sort
from .metrics import (
    MetricReport,
    aggregate,
    avg_distance,
    confusion,
    pairwise_accuracy,
    spearman,
)
from .neural import MlpParams, TrainConfig, mlp_forward, sgd_train, softmax
from .npe import NpeModel, npe_scores, train_npe
from .pairwise import PairwiseModel, decode_pairwise, pair_scores, train_pairwise
from .unary import UnaryModel, decode_unary, position_probs, train_unary

__version__ = "0.1.0"
