"""storysort: recover the temporal order of jumbled story elements.

Given feature vectors for a story's elements, the engine predicts the
permutation restoring their original order, via unary position models,
pairwise order models, ordered position embeddings, and a voting
ensemble, all decoded exactly at the supported sequence lengths. The
package holds only what the pipeline runs: the brute-force references
that the decoders are checked against live with the tests.

Importing storysort loads numpy with OpenBLAS on one thread: if
OPENBLAS_NUM_THREADS is unset, it is set to 1 while numpy loads and
deleted again, so it is not left in os.environ or passed to child
processes. OpenBLAS reads the variable once, as it loads, and starting
its worker threads cost each fresh interpreter about 60 ms on a 2-core
machine, while no matrix storysort multiplies is large enough for them
to help. To run BLAS on more threads, set OPENBLAS_NUM_THREADS before
the import (OpenBLAS reads it ahead of OMP_NUM_THREADS); a value that is
set is kept. A process that loaded numpy before storysort keeps the
threads its BLAS started with.
"""


def _load_numpy_on_one_blas_thread() -> None:
    import os

    pin = "OPENBLAS_NUM_THREADS" not in os.environ
    if pin:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        if pin:
            del os.environ["OPENBLAS_NUM_THREADS"]


_load_numpy_on_one_blas_thread()

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
from .neural import MlpParams, TrainConfig, mlp_forward, sgd_train
from .npe import NpeModel, npe_scores, train_npe
from .pairwise import PairwiseModel, decode_pairwise, pair_scores, train_pairwise
from .unary import UnaryModel, decode_unary, position_probs, train_unary

__version__ = "0.1.0"
