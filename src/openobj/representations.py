"""Fixed-size object representations over local features: k-means visual
word dictionary, bag-of-words histograms, and incremental per-category or
shared topic models trained by collapsed Gibbs sampling.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from operator import mul, truediv

import numpy as np
from scipy import sparse

from .errors import (JsonRecord, OpenobjError, as_array, check_count, check_fields,
                     check_positive, finite_array, seeded)
from .learning import _exact_sq_norms

__all__ = [
    "Dictionary",
    "TopicModel",
    "TopicHistogram",
    "build_dictionary",
    "bow_encode",
    "lda_update",
    "lda_infer",
    "phi",
    "RepresentationError",
]

DEFAULT_ALPHA = 1.0
DEFAULT_BETA = 0.1
DEFAULT_TOPICS = 30
DEFAULT_DICTIONARY_SIZE = 90
DEFAULT_GIBBS_ITERS = 30

# Lloyd iterations stop at an assignment fixpoint or after this many.
_MAX_LLOYD_ITERS = 100


class RepresentationError(OpenobjError):
    pass


@dataclass(frozen=True, eq=False)
class Dictionary(JsonRecord):
    """Visual words: cluster centers in flattened spin-image space."""

    error = RepresentationError
    words: np.ndarray

    def __post_init__(self):
        message = "words must be a finite 2D array of numbers"
        words = finite_array(self.words, (2,), RepresentationError, message)
        if len(words) < 2:
            raise RepresentationError("dictionary needs at least 2 word vectors")
        object.__setattr__(self, "words", words)

    @property
    def size(self) -> int:
        return len(self.words)


def _counter(value, shape: tuple, name: str) -> np.ndarray:
    """A topic model's counter as int64: zeros for None, else ``value``
    when it holds non-negative integers of the given shape."""
    if value is None:
        try:  # zeros left unread cost only address space
            return np.zeros(shape, dtype=np.int64)
        except (ValueError, MemoryError):
            raise RepresentationError(f"{name} of shape {shape} does not fit in memory") from None
    counts = as_array(value)
    if counts.dtype.kind in "iu":
        counts = counts.astype(np.int64, copy=False)  # a huge uint64 turns negative
    if counts.dtype != np.int64 or counts.shape != shape or counts.min(initial=0) < 0:
        raise RepresentationError(f"{name} must hold non-negative integers of shape {shape}")
    return counts


@dataclass(eq=False)
class TopicModel(JsonRecord):
    """Word-topic counters for collapsed Gibbs sampling.

    ``scope`` is "shared" or a category label. ``n_updates`` counts the
    teach events folded in; together with ``rng_seed`` it derives the
    random stream of the next update, so a serialized model resumes with
    the identical sequence.
    """

    error = RepresentationError
    k: int
    v: int
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    scope: str = "shared"
    rng_seed: int = 0
    n_updates: int = 0
    n_wk: np.ndarray = None
    n_k: np.ndarray = None

    def __post_init__(self):
        check_fields(self, RepresentationError)
        for name, least in (("k", 1), ("v", 1), ("rng_seed", 0), ("n_updates", 0)):
            check_count(name, getattr(self, name), least, RepresentationError)
        for name in ("alpha", "beta"):
            check_positive(name, getattr(self, name), RepresentationError)
        counted = self.n_wk is not None or self.n_k is not None
        self.n_wk = _counter(self.n_wk, (self.v, self.k), "n_wk")
        self.n_k = _counter(self.n_k, (self.k,), "n_k")
        if counted:
            self.check_consistent()

    def check_consistent(self):
        if not np.array_equal(self.n_wk.sum(axis=0), self.n_k):
            raise RepresentationError("n_k must equal the column sums of n_wk")


@dataclass(frozen=True, eq=False)
class TopicHistogram:
    """Smoothed topic distribution of one object view, plus the raw
    per-topic assignment counts it was derived from."""

    theta: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        message = "theta must be a finite, strictly positive 1D distribution"
        theta = finite_array(self.theta, (1,), RepresentationError, message)
        if abs(theta.sum() - 1.0) > 1e-9 or np.any(theta <= 0):
            raise RepresentationError(message)
        object.__setattr__(self, "theta", theta)
        # None is no count vector, where _counter would read it as zeros
        counts = () if self.counts is None else self.counts
        object.__setattr__(self, "counts", _counter(counts, theta.shape, "counts"))


# ---------------------------------------------------------------------------
# Dictionary building and encoding
# ---------------------------------------------------------------------------

def _kmeans_pp_init(pool: np.ndarray, v: int, rng: np.random.Generator, norms) -> np.ndarray:
    """k-means++ centres, each a pool row. A squared distance is the sum of
    squared differences, or with ``norms`` from _exact_sq_norms (|p|^2 -
    2 pool.c) + |c|^2, one matrix-vector product per word: every value is
    an integer below 2**53, so it is the same exact distance."""
    def sq_dist(i):
        if norms is None:
            return np.sum((pool - pool[i]) ** 2, axis=1)
        return (norms - 2 * (pool @ pool[i])) + norms[i]

    chosen = [rng.integers(len(pool))]
    dist_sq = sq_dist(chosen[0])
    for _ in range(1, v):
        total = dist_sq.sum()
        if total <= 0:
            # all remaining mass on existing centers: pick any point
            chosen.append(rng.integers(len(pool)))
            continue
        chosen.append(rng.choice(len(pool), p=dist_sq / total))
        dist_sq = np.minimum(dist_sq, sq_dist(chosen[-1]))
    return pool[chosen]


def _sq_distances(pool: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, V) squared distances (|p|^2 - 2 p.c) + |c|^2 in one buffer, with
    the pool as float64: in uint8 (a cached spin-image matrix) they wrap."""
    pool = np.asarray(pool, dtype=np.float64)
    d = (2 * pool) @ centers.T
    np.subtract(np.sum(pool**2, axis=1)[:, None], d, out=d)
    d += np.sum(centers**2, axis=1)[None, :]
    return d


def _assign(pool: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # ties go to the lowest center index (argmin)
    return np.argmin(_sq_distances(pool, centers), axis=1)


# The float32 screen of a Lloyd step. Integers up to 2**24 are float32
# values, so an integer pool whose squared norms lie below 2**24 converts to
# float32 with every entry and norm unchanged. Its centres are pool rows or
# means of them, so no product underflows.
#
# Rounding margin. Take such a row p, a word c, the exact distance
# delta = |p|^2 - 2 p.c + |c|^2 and R = |p| + max_j |c_j|, so 2|p||c| <= R^2 / 2.
# In a format of unit roundoff u a score is
#   g = fl(fl(2c).p)      rounding 2c costs u R^2 / 2 (0 in float64, where
#                         the step doubles p exactly); the product costs
#                         gamma_d R^2 / 2, gamma_d = d u / (1 - d u), in any
#                         summation order, fused multiply-adds or not
#   s = fl(|p|^2 - g)     u R^2
#   D = fl(s + |c|^2)     |c|^2 is summed in float64 (gamma_d R^2 there) and
#                         rounded to float32 (u R^2); the sum costs u R^2
# Once d u <= 2**-4, u / 2 holds the products of two roundings and, in
# float32, the float64 sum's error. So a float32 score lies within
# (gamma_d / 2 + 4u) R^2 of delta, and a float64 one within
# (3 gamma_d / 2 + 5u / 2) R^2 in its own u = 2**-53, which is below one
# float32 u R^2 as d <= 2**20. A float32 score is thus within
# e32 = (gamma_d / 2 + 5u) R^2 of the float64 step's, and two float64 scores
# within e64 = (3 gamma_d + 5u) R^2 of each other.
#
# A row is decided when one word alone scores at most best + 2e + 2u R^2:
# every other word scores more than 2e above it, so more in the step too,
# and the lone word is the step's argmin, with no tie to break. The 2u R^2
# covers rounding best + margin, a sum of at most 2R^2. The margin is
# 2E(p), E(p) = kappa_d R^2 with kappa_d = 2(e / R^2 + u), a factor of 2 for
# safety that also covers rounding R and the margin: gamma_d + 12u in
# float32 (about 3.4e-6 for d = 45) and 6 gamma_d + 12u in float64. Both
# grow with d, as the product's error does.
_FLOAT32_EXACT_BOUND = 2.0**24


def _kappas(d: int) -> tuple:
    """kappa_d of the float32 screen and of the float64 arbitration."""
    u32, u64 = 2.0**-24, 2.0**-53
    gamma32, gamma64 = (d * u / (1 - d * u) for u in (u32, u64))
    return gamma32 + 12 * u32, 6 * gamma64 + 12 * u64


def _screened_assign(pool, centers, screen) -> np.ndarray:
    """_assign's argmin for an integer pool that is exact in float32, with
    ``screen`` the pool's (C-contiguous float32 pool.T, float32 |p|^2, |p|).
    A float32 (V, n) step decides each row whose best word leads every
    other by more than the rounding margin; the rest get float64 distances.
    Those are exact for integer words; otherwise a float64 margin applies,
    and a row still within it, a true tie, sends the step to _assign."""
    pool32_t, norms32, roots = screen
    v, d = centers.shape
    kappa32, kappa64 = _kappas(d)
    centers_sq = np.sum(centers**2, axis=1)
    reach = (roots + np.sqrt(centers_sq.max())) ** 2  # R^2 per row
    scores = (2 * centers).astype(np.float32) @ pool32_t
    np.subtract(norms32, scores, out=scores)
    scores += centers_sq.astype(np.float32)[:, None]
    limit = scores.min(axis=0)
    limit += (2 * kappa32 * reach).astype(np.float32)
    np.less_equal(scores, limit, out=scores)  # 1 where a word is within the margin
    # the count and the index sum of those words: the count is exact, and
    # so is the sum of one word's index while V <= 2**24
    count, index = np.array([np.ones(v), np.arange(v)], dtype=np.float32) @ scores
    del scores  # freed before a fallback builds its (n, V) float64 buffer
    assignment = index.astype(np.intp)
    rows = np.flatnonzero(count != 1)
    if len(rows):
        near = _sq_distances(pool[rows], centers)
        # integer words (pool rows, as in step 1) keep every float64 score an
        # exact integer by the 2**51 rule, the step's too, so argmin settles ties
        if not np.array_equal(centers, np.trunc(centers)):
            best = near.min(axis=1)
            margin = 2 * kappa64 * reach[rows]
            if np.any(np.count_nonzero(near <= (best + margin)[:, None], axis=1) != 1):
                return _assign(pool, centers)
        assignment[rows] = near.argmin(axis=1)
    return assignment


def _update_each_center(pool: np.ndarray, assignment: np.ndarray, centers: np.ndarray) -> None:
    """One Lloyd update, center by center, in place."""
    for j in range(len(centers)):
        members = pool[assignment == j]
        if len(members):
            centers[j] = members.mean(axis=0)
        else:
            # re-seed an empty cluster at the point farthest from its center
            far = np.argmax(np.sum((pool - centers[assignment]) ** 2, axis=1))
            centers[j] = pool[far]


def build_dictionary(pool, v: int = DEFAULT_DICTIONARY_SIZE, seed: int = 0) -> Dictionary:
    """k-means (k-means++ init, Lloyd iterations to an assignment fixpoint,
    at most _MAX_LLOYD_ITERS) over a pool of feature vectors. Deterministic
    per seed.

    A Lloyd step with no empty cluster computes every center at once: a
    sparse (V x n) membership matrix times the pool sums each cluster's
    members from +0.0 in pool order, as mean(axis=0) sums a block of two
    or more columns, so the centers equal the per-center update's bit for
    bit. The per-center update stays for a step with an empty cluster,
    whose re-seed reads the centers updated so far, and for a one-column
    pool, whose column numpy sums pairwise.

    An integer pool with squared norms below 2**24 is screened in float32
    at each step (_screened_assign), which gives _assign's assignment; the
    dictionary is the same bit for bit either way.
    """
    check_count("dictionary size", v, 2, RepresentationError)
    message = "feature pool must be a finite 2D array of numbers"
    pool = finite_array(pool, (2,), RepresentationError, message)
    n, d = pool.shape
    if d == 0:
        raise RepresentationError("feature pool must have at least one column")
    if n < v:
        raise RepresentationError(f"pool of {n} features cannot fill {v} words")
    rng = seeded(seed, RepresentationError)
    norms = _exact_sq_norms(pool)
    centers = _kmeans_pp_init(pool, v, rng, norms)
    # the screen's proof needs d u <= 2**-4 and its tally V <= 2**24
    if norms is not None and norms.max() < _FLOAT32_EXACT_BOUND and d <= 2**20 and v <= 2**24:
        screen = np.ascontiguousarray(pool.T, np.float32), norms.astype(np.float32), np.sqrt(norms)
        step = partial(_screened_assign, pool, screen=screen)
    else:
        step = partial(_assign, pool)
    ones, columns = np.ones(n), np.arange(n + 1)
    assignment = step(centers)
    for _ in range(_MAX_LLOYD_ITERS):
        counts = np.bincount(assignment, minlength=v)
        if d == 1 or not counts.all():
            _update_each_center(pool, assignment, centers)
        else:
            # column i holds pool row i's one membership; the CSC product
            # walks the columns in order
            members = sparse.csc_array((ones, assignment, columns), shape=(v, n))
            centers = (members @ pool) / counts[:, None]
        new_assignment = step(centers)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
    return Dictionary(words=centers)


def bow_encode(features, dictionary: Dictionary) -> np.ndarray:
    """Int64 visual-word counts of a (k, d) feature matrix: each feature
    goes to its nearest word (Euclidean, ties to the lowest word index)."""
    message = "need a non-empty finite 2D feature matrix"
    features = finite_array(features, (2,), RepresentationError, message)
    if len(features) == 0:
        raise RepresentationError(message)
    if features.shape[1] != dictionary.words.shape[1]:
        raise RepresentationError(
            f"feature dimension {features.shape[1]} does not match dictionary "
            f"dimension {dictionary.words.shape[1]}"
        )
    return np.bincount(_assign(features, dictionary.words), minlength=dictionary.size)


# ---------------------------------------------------------------------------
# Collapsed Gibbs sampling
# ---------------------------------------------------------------------------

def _validate_doc(doc, v: int, iters: int) -> np.ndarray:
    """The document as int64 word indices. Each must be an integer in
    [0, v): an integral float such as 4.0 is one, a bool or 1.7 is not."""
    words = as_array(doc)
    # a bool, a string or an int past int64 (an object) is no word index;
    # nan and 1.7 fail the trunc test
    if words.ndim != 1 or words.dtype.kind not in "iuf" or not np.all(words == np.trunc(words)):
        raise RepresentationError("document must be a flat sequence of integer word indices")
    if len(words) and (words.min() < 0 or words.max() >= v):  # inf too
        raise RepresentationError("word index out of vocabulary range")
    check_count("iters", iters, 1, RepresentationError)
    return words.astype(np.int64, copy=False)


def _fold_in(model: TopicModel, doc: np.ndarray, iters: int, rng: np.random.Generator):
    """Sequential collapsed Gibbs sweeps of one document against the model's
    counters, which it only reads; it serves lda_update alone. Returns the
    final (rows, topic_n): each of the document's words mapped to its
    word-topic count row, and the topic counts, Python lists that include
    the document's own assignments. The document-topic denominator is
    dropped (it does not depend on the candidate topic).

    Stream contract: the initial topics are drawn from ``rng`` first, then
    every sweep's uniforms in one block, token-major within a sweep, so
    token i of sweep s uses the (s * len(doc) + i)-th double after the
    initial topics. That is the order of one ``rng.random()`` per token,
    and a serialized TopicModel resumes with the same samples.

    The loop runs over Python lists: at K of a few dozen the per-call cost
    of small numpy operations outweighs the O(K) arithmetic. Each weight is
    (m_k + alpha) * (n_wk[w] + beta) / (n_k + V beta) in float64, summed
    left to right as np.cumsum does, and bisect_right picks the topic as
    searchsorted(side="right") would, so the samples are bit-identical to
    the per-token numpy formulation.
    """
    n, alpha, beta = len(doc), model.alpha, model.beta
    vbeta = model.v * beta
    words = doc.tolist()
    topics = rng.integers(0, model.k, size=n).tolist()
    rows = {w: model.n_wk[w].tolist() for w in set(words)}
    topic_n = model.n_k.tolist()
    doc_n = [0] * model.k
    for w, k in zip(words, topics):
        rows[w][k] += 1
        topic_n[k] += 1
        doc_n[k] += 1
    # float factors of the weight, refreshed from the integer counts at the
    # two topics a token leaves and joins
    word_factor = {w: [c + beta for c in row] for w, row in rows.items()}
    doc_factor = [c + alpha for c in doc_n]
    topic_denom = [c + vbeta for c in topic_n]
    uniforms = rng.random(iters * n).tolist()
    for sweep in range(iters):
        base = sweep * n
        for i, w in enumerate(words):
            row = rows[w]
            factor = word_factor[w]
            k = topics[i]
            row[k] -= 1
            topic_n[k] -= 1
            doc_n[k] -= 1
            factor[k] = row[k] + beta
            doc_factor[k] = doc_n[k] + alpha
            topic_denom[k] = topic_n[k] + vbeta
            cumulative = list(accumulate(map(truediv, map(mul, doc_factor, factor), topic_denom)))
            k = bisect_right(cumulative, uniforms[base + i] * cumulative[-1])
            topics[i] = k
            row[k] += 1
            topic_n[k] += 1
            doc_n[k] += 1
            factor[k] = row[k] + beta
            doc_factor[k] = doc_n[k] + alpha
            topic_denom[k] = topic_n[k] + vbeta
    return rows, topic_n


def _simultaneous_sweeps(model: TopicModel, doc: np.ndarray, iters: int,
                         rng: np.random.Generator) -> np.ndarray:
    """The document's final int64 topic counts after ``iters`` simultaneous
    Gibbs sweeps against the model's counters, which it only reads.

    Each sweep resamples every token at once from the previous sweep's
    assignment z (Newman, Asuncion, Smyth & Welling's AD-LDA sampler, one
    document at a time). With m_k the document's topic counts and doc_wk
    its word-topic counts under z, token i of word w weighs topic k by
        (m_k - [z_i=k] + alpha) (n_wk[w] + doc_wk[w] - [z_i=k] + beta)
        / (n_k + m_k - [z_i=k] + V beta),
    the sequential weight with every other token held at its last topic.
    Each bracket's integer part is summed first, then its float constant
    added, and the product divided last, in float64.

    Stream contract: the initial topics are drawn from ``rng`` first, then
    every sweep's uniforms as one (iters, n) block, so token i of sweep s
    uses row s, column i, as in _fold_in. The new topic is the number of
    cumulative weights (np.cumsum along the row) at most u times the
    row's total, counted over the first K - 1 columns only: a draw where u
    times the total rounds to the total picks topic K - 1, never K.
    """
    k, alpha, beta = model.k, model.alpha, model.beta
    vbeta, topics = model.v * beta, np.arange(k)
    z = rng.integers(0, k, size=len(doc))
    uniforms = rng.random((iters, len(doc)))
    words, word_of = np.unique(doc, return_inverse=True)
    word_rows, cells = model.n_wk[words], word_of * k  # cells + z: each token's (word, topic)
    for u in uniforms:
        own = z[:, None] == topics  # (n, K): each token's current topic
        m = np.bincount(z, minlength=k)
        doc_wk = np.bincount(cells + z, minlength=len(words) * k).reshape(-1, k)
        weights = (m - own) + alpha
        weights *= ((word_rows + doc_wk)[word_of] - own) + beta
        weights /= ((model.n_k + m) - own) + vbeta
        cumulative = np.cumsum(weights, axis=1)
        z = np.count_nonzero(cumulative[:, :-1] <= (u * cumulative[:, -1])[:, None], axis=1)
    return np.bincount(z, minlength=k)


def lda_update(model: TopicModel, doc, iters: int = DEFAULT_GIBBS_ITERS) -> TopicModel:
    """Fold one document into the model by collapsed Gibbs sampling.

    Topics are initialized uniformly at random (seeded by the model's seed
    and update counter), resampled token by token for ``iters`` sequential
    sweeps against the accumulated counters, and _fold_in's final
    word-topic rows and topic counts are written back, so the final
    assignments become permanent. An empty document changes no counter.
    Returns the same (mutated) model.
    """
    doc = _validate_doc(doc, model.v, iters)
    rng = np.random.default_rng((model.rng_seed, model.n_updates))
    model.n_updates += 1
    rows, topic_n = _fold_in(model, doc, iters, rng)
    for w, row in rows.items():
        model.n_wk[w] = row
    model.n_k[:] = topic_n
    return model


def lda_infer(model: TopicModel, doc, iters: int = DEFAULT_GIBBS_ITERS) -> TopicHistogram:
    """Topic distribution of a document against a frozen model.

    The document is folded in by ``iters`` simultaneous sweeps
    (_simultaneous_sweeps): every token is resampled at once from the
    previous sweep's counts minus its own assignment, drawing the initial
    topics and then one (iters, n) block of uniforms from a stream seeded
    by (rng_seed, n_updates, 1). Teaching keeps the sequential sampler,
    whose counts the model accumulates. The model is only read and left
    bit-identical; the document's final topic counts n_doc are kept, and
    theta_k = (n_{doc,k} + alpha) / (n_doc + K alpha), or exactly 1/K for
    an empty document.
    """
    doc = _validate_doc(doc, model.v, iters)
    k, alpha = model.k, model.alpha
    rng = np.random.default_rng((model.rng_seed, model.n_updates, 1))
    counts = _simultaneous_sweeps(model, doc, iters, rng)
    theta = (counts + alpha) / (len(doc) + k * alpha) if len(doc) else np.full(k, 1.0 / k)
    return TopicHistogram(theta=theta, counts=counts)


def phi(model: TopicModel) -> np.ndarray:
    """Word probabilities per topic: (n_wk + beta) / (n_k + V beta);
    every column sums to 1."""
    return (model.n_wk + model.beta) / (model.n_k + model.v * model.beta)
