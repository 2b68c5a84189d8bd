import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from storysort import neural
from storysort.data import Stories, SyntheticSpec, generate_synthetic, presented_features
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


def solve_min(cost):
    """Test oracle: the min-cost assignment of one matrix of Python int costs, a list of
    rows, by shortest augmenting paths, one row at a time in plain Python.

    Returns positions[i] = column assigned to row i. The row and column
    potentials u and v keep u[i] + v[j] <= cost[i][j], with equality on the
    assignment. On int costs they stay ints, so every reduced cost is exact
    and the assignment is a true minimum (Kuhn 1955; Burkard, Dell'Amico &
    Martello, Assignment Problems, 2009).
    """
    n = len(cost)
    inf = math.inf
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    match = [0] * (n + 1)  # match[j] = row assigned to column j, 1-based, 0 = free
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = inf
            j1 = -1
            row = cost[i0 - 1]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    positions = [0] * n
    for j in range(1, n + 1):
        positions[match[j] - 1] = j - 1
    return positions


def tie_keyed_max(s):
    """Test oracle for any n: the positions tuple of maximal exact total of an (n, n) score
    matrix, the lexicographically smallest among ties, from solve_min on tie-keyed costs.

    Over their common denominator the entries are exact ints A. Placing i at
    p costs -A[i][p] * n**n + p * n**(n-1-i): over a permutation the keys
    read its positions tuple as a base-n number, below n**n, one unit of
    score, so the unique minimum is the best total with the smallest tuple.
    """
    n = len(s)
    exact = [[Fraction(float(x)) for x in row] for row in s]
    denom = math.lcm(*(x.denominator for row in exact for x in row))
    return tuple(solve_min([[-int(x * denom) * n**n + p * n ** (n - 1 - i)
                             for p, x in enumerate(row)] for i, row in enumerate(exact)]))


def softmax(z):
    """Test reference: the stable softmax over the last axis, a row's exp(z - max) over
    its sum, from np.max and np.sum."""
    a = np.asarray(z, dtype=np.float64)
    e = np.exp(a - np.max(a, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def planted_directions(spec):
    """Test reference: the unit directions u_text and u_image of a SyntheticSpec, re-drawn
    from its seed as the first two draws data.generate_synthetic makes."""
    rng = np.random.default_rng(spec.seed)
    u_text = rng.standard_normal(spec.text_dim)
    u_text = u_text / np.linalg.norm(u_text)
    u_image = rng.standard_normal(spec.image_dim)
    return u_text, u_image / np.linalg.norm(u_image)


def map_orders(spec, stories, use_image=False):
    """Test oracle: the (S, n) most likely orders of a monotone dataset, given its planted
    directions.

    An element at gold position g is x = g·u + σ·ε, so the log-likelihood of
    an order placing element i at p_i is Σ p_i (x_i·u) / σ² plus a constant;
    by the rearrangement inequality the best order sorts the elements by
    x·u (with image features, x_text·u_text + x_image·u_image). No scorer of
    these features beats it beyond sampling noise.
    """
    u_text, u_image = planted_directions(spec)
    u = np.concatenate([u_text, u_image]) if use_image else u_text
    statistic = presented_features(stories, use_image) @ u
    return np.argsort(np.argsort(statistic, axis=1, kind="stable"), axis=1)


def additive_score(s, positions):
    """Test reference: sum s[i][positions[i]] in index order i = 0..n-1, from 0.0."""
    total = 0.0
    for i, p in enumerate(positions):
        total += float(s[i, p])
    return total


def pairwise_objective(s, positions):
    """Test reference: for each unordered pair i < j, row-major, add the score difference
    of the orientation the order chooses, from 0.0."""
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


def clone_params(params):
    """Test helper: an MlpParams holding copies of params' arrays."""
    return neural.MlpParams(params.layer_dims, [w.copy() for w in params.weights],
                            [b.copy() for b in params.biases])


def loss_and_grads(params, X, y, loss):
    """Test helper: one mini-batch's mean loss and its (weight, bias) gradients, from the
    production forward and backward passes, neural._forward_cached and neural._backward.

    Rows of n elements are flattened into one (rows * n, d) matrix for the
    forward and backward pass, and loss sees their output as (rows, n, width).
    """
    acts, pres = neural._forward_cached(params, X.reshape(-1, params.input_dim))
    value, d_out = loss(pres[-1].reshape(*X.shape[:-1], params.output_dim), y)
    gws = [np.empty_like(w) for w in params.weights]
    gbs = [np.empty_like(b) for b in params.biases]
    neural._backward(params, acts, pres, d_out.reshape(-1, params.output_dim), gws, gbs)
    return value, (gws, gbs)


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
    work = clone_params(params)
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


def reference_sgd(params, X, y, loss, cfg):
    """Test reference: mini-batch SGD with neural.sgd_train's shuffling and update rule,
    written plainly, with no in-place step; returns the trained (weights, biases) lists.

    Each batch X[idx] is flattened to (rows, d), passed forward through affine layers
    with a ReLU between them, and back from loss's gradient; every layer is then
    updated by w -= lr * (gw + l2 * w) and b -= lr * gb.
    """
    weights = [w.copy() for w in params.weights]
    biases = [b.copy() for b in params.biases]
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(X))
        for start in range(0, len(X), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch = X[idx]
            acts, pres = [batch.reshape(-1, batch.shape[-1])], []
            for k, (w, b) in enumerate(zip(weights, biases)):
                if k:
                    acts.append(np.maximum(pres[-1], 0.0))
                pres.append(acts[-1] @ w + b)
            width = pres[-1].shape[-1]
            _, dz = loss(pres[-1].reshape(*batch.shape[:-1], width),
                         None if y is None else y[idx])
            dz = dz.reshape(-1, width)
            grads = [None] * len(weights)
            for k in reversed(range(len(weights))):
                grads[k] = (acts[k].T @ dz, dz.sum(axis=0))
                if k > 0:
                    dz = (dz @ weights[k].T) * (pres[k - 1] > 0)
            for k, (gw, gb) in enumerate(grads):
                if cfg.l2 > 0:
                    gw = gw + cfg.l2 * weights[k]
                weights[k] -= cfg.learning_rate * gw
                biases[k] -= cfg.learning_rate * gb
    return weights, biases


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
