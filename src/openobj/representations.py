"""Fixed-size object representations over local features: k-means visual
word dictionary, bag-of-words histograms, and incremental per-category or
shared topic models trained by collapsed Gibbs sampling.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import mul, truediv

import numpy as np
from scipy import sparse

from .errors import JsonRecord, OpenobjError, check_count, check_fields, finite_array

__all__ = [
    "Dictionary",
    "TopicModel",
    "TopicHistogram",
    "build_dictionary",
    "bow_encode",
    "lda_update",
    "lda_infer",
    "local_lda_update",
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


@dataclass(frozen=True)
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
    try:
        counts = np.asarray(value)
    except ValueError:  # a ragged nesting
        counts = np.asarray(None)
    if counts.dtype.kind in "iu":
        counts = counts.astype(np.int64, copy=False)  # a huge uint64 turns negative
    if counts.dtype != np.int64 or counts.shape != shape or counts.min(initial=0) < 0:
        raise RepresentationError(f"{name} must hold non-negative integers of shape {shape}")
    return counts


@dataclass
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
            if getattr(self, name) < least:
                raise RepresentationError(f"{name} must be at least {least}")
        for name in ("alpha", "beta"):
            if getattr(self, name) <= 0:
                raise RepresentationError(f"{name} must be positive")
        counted = self.n_wk is not None or self.n_k is not None
        self.n_wk = _counter(self.n_wk, (self.v, self.k), "n_wk")
        self.n_k = _counter(self.n_k, (self.k,), "n_k")
        if counted:
            self.check_consistent()

    def check_consistent(self):
        if not np.array_equal(self.n_wk.sum(axis=0), self.n_k):
            raise RepresentationError("n_k must equal the column sums of n_wk")


@dataclass(frozen=True)
class TopicHistogram:
    """Smoothed topic distribution of one object view, plus the raw
    per-topic assignment counts it was derived from."""

    theta: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64)
        if abs(theta.sum() - 1.0) > 1e-9 or np.any(theta <= 0):
            raise RepresentationError("theta must be a strictly positive distribution")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))


# ---------------------------------------------------------------------------
# Dictionary building and encoding
# ---------------------------------------------------------------------------

def _kmeans_pp_init(pool: np.ndarray, v: int, rng: np.random.Generator) -> np.ndarray:
    centers = np.empty((v, pool.shape[1]))
    # one (n, d) buffer takes every pool - center difference; the ops are
    # those of np.sum((pool - center) ** 2, axis=1), in the same order
    diff = np.empty_like(pool)

    def sq_dist(center):
        np.subtract(pool, center, out=diff)
        np.square(diff, out=diff)
        return np.sum(diff, axis=1)

    centers[0] = pool[rng.integers(len(pool))]
    dist_sq = sq_dist(centers[0])
    for i in range(1, v):
        total = dist_sq.sum()
        if total <= 0:
            # all remaining mass on existing centers: pick any point
            centers[i] = pool[rng.integers(len(pool))]
            continue
        probs = dist_sq / total
        centers[i] = pool[rng.choice(len(pool), p=probs)]
        dist_sq = np.minimum(dist_sq, sq_dist(centers[i]))
    return centers


def _sq_distances(pool: np.ndarray, centers: np.ndarray, pool_terms=None) -> np.ndarray:
    """(n, V) squared distances (|p|^2 - 2 p.c) + |c|^2, built in one
    (n, V) buffer. ``pool_terms`` is the pool's (2 * pool, |p|^2) when the
    caller already holds them."""
    if pool_terms is None:
        pool_terms = 2 * pool, np.sum(pool**2, axis=1)
    twice_pool, pool_sq = pool_terms
    d = twice_pool @ centers.T
    np.subtract(pool_sq[:, None], d, out=d)
    d += np.sum(centers**2, axis=1)[None, :]
    return d


def _assign(pool: np.ndarray, centers: np.ndarray, pool_terms=None) -> np.ndarray:
    # ties go to the lowest center index (argmin)
    return np.argmin(_sq_distances(pool, centers, pool_terms), axis=1)


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
    """
    check_count("dictionary size", v, 2, RepresentationError)
    message = "feature pool must be a finite 2D array of numbers"
    pool = finite_array(pool, (2,), RepresentationError, message)
    if pool.shape[1] == 0:
        raise RepresentationError("feature pool must have at least one column")
    n = len(pool)
    if n < v:
        raise RepresentationError(f"pool of {n} features cannot fill {v} words")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(pool, v, rng)
    # the pool's factors of every assignment's distances, computed once
    terms = 2 * pool, np.sum(pool**2, axis=1)
    ones, columns = np.ones(n), np.arange(n + 1)
    assignment = _assign(pool, centers, terms)
    for _ in range(_MAX_LLOYD_ITERS):
        counts = np.bincount(assignment, minlength=v)
        if pool.shape[1] == 1 or not counts.all():
            _update_each_center(pool, assignment, centers)
        else:
            # column i holds pool row i's one membership; the CSC product
            # walks the columns in order
            members = sparse.csc_array((ones, assignment, columns), shape=(v, n))
            centers = (members @ pool) / counts[:, None]
        new_assignment = _assign(pool, centers, terms)
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

def _gibbs_sweeps(n_wk, n_k, doc, z, m_k, alpha, beta, iters, rng):
    """In-place collapsed Gibbs sweeps for one document.

    n_wk / n_k must already contain the document's current assignments;
    m_k is the doc-topic count vector. The document-topic denominator is
    dropped (it does not depend on the candidate topic).

    Stream contract: the caller draws the initial topics from ``rng``
    first; this function then draws every sweep's uniforms in one block,
    token-major within a sweep, so token i of sweep s uses the
    (s * len(doc) + i)-th double after the initial topics. That is the
    order of one ``rng.random()`` per token, and a serialized TopicModel
    resumes with the same samples.

    The loop runs over Python lists: at K of a few dozen the per-call cost
    of small numpy operations outweighs the O(K) arithmetic. Each weight is
    (m_k + alpha) * (n_wk[w] + beta) / (n_k + V beta) in float64, summed
    left to right as np.cumsum does, and bisect_right picks the topic as
    searchsorted(side="right") would, so the samples are bit-identical to
    the per-token numpy formulation.
    """
    n = len(doc)
    vbeta = n_wk.shape[0] * beta
    words = doc.tolist()
    topics = z.tolist()
    topic_n = n_k.tolist()
    doc_n = m_k.tolist()
    rows = {w: n_wk[w].tolist() for w in set(words)}
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
    for w, row in rows.items():
        n_wk[w] = row
    n_k[:] = topic_n
    m_k[:] = doc_n
    z[:] = topics


def _validate_doc(doc, v: int, iters: int) -> np.ndarray:
    doc = np.asarray(doc, dtype=np.int64)
    if doc.ndim != 1:
        raise RepresentationError("document must be a flat word-index sequence")
    if len(doc) and (doc.min() < 0 or doc.max() >= v):
        raise RepresentationError("word index out of vocabulary range")
    check_count("iters", iters, 1, RepresentationError)
    return doc


def _fold_in(n_wk, n_k, doc, k, alpha, beta, iters, rng) -> np.ndarray:
    """Draw the document's initial topics from ``rng``, add them to the
    counters, run the Gibbs sweeps in place and return the doc-topic
    counts."""
    z = rng.integers(0, k, size=len(doc))
    m_k = np.bincount(z, minlength=k)
    np.add.at(n_wk, (doc, z), 1)
    n_k += m_k
    _gibbs_sweeps(n_wk, n_k, doc, z, m_k, alpha, beta, iters, rng)
    return m_k


def lda_update(model: TopicModel, doc, iters: int = DEFAULT_GIBBS_ITERS) -> TopicModel:
    """Fold one document into the model by collapsed Gibbs sampling.

    Topics are initialized uniformly at random (seeded by the model's seed
    and update counter), resampled for ``iters`` sweeps against the
    accumulated counters, and the final assignments become permanent.
    Returns the same (mutated) model.
    """
    doc = _validate_doc(doc, model.v, iters)
    rng = np.random.default_rng((model.rng_seed, model.n_updates))
    model.n_updates += 1
    if len(doc):
        _fold_in(model.n_wk, model.n_k, doc, model.k, model.alpha, model.beta, iters, rng)
    return model


def lda_infer(model: TopicModel, doc, iters: int = DEFAULT_GIBBS_ITERS) -> TopicHistogram:
    """Topic distribution of a document against a frozen model.

    The sampler runs on a temporary copy of the counters, so the model is
    left bit-identical; theta_k = (n_{doc,k} + alpha) / (n_doc + K alpha).
    """
    doc = _validate_doc(doc, model.v, iters)
    k, alpha = model.k, model.alpha
    if len(doc) == 0:
        theta = np.full(k, 1.0 / k)
        return TopicHistogram(theta=theta, counts=np.zeros(k, dtype=np.int64))
    rng = np.random.default_rng((model.rng_seed, model.n_updates, 1))
    m_k = _fold_in(model.n_wk.copy(), model.n_k.copy(), doc, k, alpha, model.beta, iters, rng)
    theta = (m_k + alpha) / (len(doc) + k * alpha)
    return TopicHistogram(theta=theta, counts=m_k)


def local_lda_update(
    models: dict,
    category: str,
    doc,
    iters: int = DEFAULT_GIBBS_ITERS,
    k: int = DEFAULT_TOPICS,
    v: int = DEFAULT_DICTIONARY_SIZE,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
    seed: int = 0,
) -> dict:
    """Route a document to its category's own topic model, creating the
    model on first contact. Only that category's counters change."""
    if category not in models:
        models[category] = TopicModel(
            k=k,
            v=v,
            alpha=alpha,
            beta=beta,
            scope=category,
            rng_seed=zlib.crc32(category.encode()) ^ seed,
        )
    lda_update(models[category], doc, iters)
    return models


def phi(model: TopicModel) -> np.ndarray:
    """Word probabilities per topic: (n_wk + beta) / (n_k + V beta);
    every column sums to 1."""
    return (model.n_wk + model.beta) / (model.n_k + model.v * model.beta)
