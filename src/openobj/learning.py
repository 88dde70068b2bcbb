"""Open-ended classifiers: the asymmetric set distance over local-feature
sets, intra-category distance (ICD) normalization for unknown detection,
fixed-size nearest-neighbor modes, and the incremental naive-Bayes
model-based learner.

Every spin-set distance comes from one kernel, ``_set_distances``: a
query against one feature set (``set_distance``) or against all of a
category's instances at once (``ocd_min``, ``ocd_mean``). An A1/A2 query
reads each category's ICD once and normalizes by that value.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .errors import JsonRecord, OpenobjError, as_array, check_fields, check_finite, finite_array

__all__ = [
    "UNKNOWN",
    "InstanceCategory",
    "InstanceMemory",
    "BayesCategory",
    "BayesMemory",
    "Prediction",
    "set_distance",
    "icd",
    "ocd_min",
    "ocd_mean",
    "instance_teach",
    "classify_instances",
    "lowest_score",
    "chi2",
    "bayes_teach",
    "bayes_classify",
    "log_posterior",
    "LearningError",
]

UNKNOWN = "UNKNOWN"
_INSTANCE = "an instance must be a finite 1-D or 2-D array of numbers"


class LearningError(OpenobjError):
    pass


def _as_feature_matrix(rep) -> np.ndarray:
    rep = finite_array(rep, (1, 2), LearningError, "feature set must be a finite 1-D or 2-D array")
    if rep.ndim == 1:
        rep = rep.reshape(1, -1)  # a fixed-size vector is a one-feature set
    if len(rep) == 0:
        raise LearningError("a feature set must not be empty")
    return rep


@dataclass(eq=False)
class InstanceCategory(JsonRecord):
    """Instance store of one category, from which ``icd`` reads its ICD.

    The instances live in one read-only (rows, d) matrix in their common
    dtype, next to the first row of each instance and the rows' exact
    squared norms (None when the exact product path does not apply).
    ``instances`` is a tuple of read-only views into it, each of the shape
    it was given, and the category only grows, so the set distances ``icd``
    has computed stay on it by pair index. Direct edits of ``instances``
    are not supported. Each instance is a finite, non-empty 1-D or 2-D
    array as wide as the first, stored by one rule however it came: one of
    non-negative integers (a spin set's counts) as ``_compact_counts``, any
    other as float64. Only ``label`` and ``instances`` are serialized.
    """

    error = LearningError
    label: str
    instances: tuple = ()
    _matrix: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _starts: list = field(default_factory=list, init=False, repr=False, compare=False)
    _norms: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _pairs: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)), init=False,
                               repr=False, compare=False)

    def __post_init__(self):
        check_fields(self, LearningError)
        if not isinstance(self.instances, (list, tuple)):
            raise LearningError("instances must be a list of arrays")
        given, self.instances = self.instances, ()
        for x in given:
            self.add(x)

    @property
    def width(self) -> int | None:
        """The instances' width, None before the first."""
        return None if self._matrix is None else self._matrix.shape[1]

    def add(self, representation):
        """Check, then store one instance's rows in the matrix."""
        checked = _instance(representation)
        rows = checked.reshape(-1, checked.shape[-1])
        norms = _exact_sq_norms(rows)  # from the float64 form: uint8 squares wrap
        if norms is not None and rows.min() >= 0:
            rows = _compact_counts(rows)
        if self._matrix is None:
            self._starts, parts = [0], [rows]
        elif rows.shape[1] != self.width:
            raise LearningError(f"an instance of width {rows.shape[1]} does not match the category")
        else:
            self._starts.append(len(self._matrix))
            parts = [self._matrix, rows]
            exact = self._norms is not None and norms is not None
            norms = np.concatenate([self._norms, norms]) if exact else None
        self._matrix, self._norms = np.concatenate(parts), norms
        self._matrix.flags.writeable = False
        shapes = [x.shape for x in self.instances] + [checked.shape]
        ends = self._starts[1:] + [len(self._matrix)]
        self.instances = tuple(self._matrix[a:b].reshape(shape)
                               for a, b, shape in zip(self._starts, ends, shapes))


def _compact_counts(matrix: np.ndarray) -> np.ndarray:
    """A matrix of non-negative integer counts as a read-only array of the
    smallest unsigned integer type that holds its largest entry."""
    counts = matrix.astype(np.min_scalar_type(int(matrix.max(initial=0))))
    counts.flags.writeable = False
    return counts


def _instance(x) -> np.ndarray:
    """``x`` as a finite, non-empty 1-D or 2-D float64 array, or raise."""
    checked = finite_array(x, (1, 2), LearningError, _INSTANCE)
    if checked.size == 0:
        raise LearningError("an instance must not be empty")
    return checked


def _load_categories(categories, kind) -> dict:
    """A memory's categories by label, each a ``kind`` record; one given in
    its JSON form is loaded."""
    if not isinstance(categories, Mapping):
        raise LearningError("categories must map labels to categories")
    return {label: cat if isinstance(cat, kind) else kind.from_json_dict(cat)
            for label, cat in categories.items()}


@dataclass(eq=False)
class InstanceMemory(JsonRecord):
    """Instance categories by label, each filed under its own label.
    ``instance_teach`` grows it; ``classify_instances`` reads it."""

    error = LearningError
    categories: dict = field(default_factory=dict)

    def __post_init__(self):
        self.categories = _load_categories(self.categories, InstanceCategory)
        if any(label != cat.label for label, cat in self.categories.items()):
            raise LearningError("each category must be filed under its own label")
        if len({cat.width for cat in self.categories.values()} - {None}) > 1:
            raise LearningError("categories must hold instances of one width")


def instance_teach(memory: InstanceMemory, label: str, x) -> InstanceMemory:
    """Store one instance under its label; a new label (or an empty
    category) starts a category, filed only if it is as wide as every
    stored instance. ``x`` is checked once, before anything is stored. No
    ICD is computed here: ``icd`` reads it when asked."""
    category = memory.categories.get(label)
    if category is not None and category.width is not None:
        category.add(x)  # its width is the memory's
        return memory
    category = InstanceCategory(label, [x])
    if any(cat.width not in (None, category.width) for cat in memory.categories.values()):
        raise LearningError(f"an instance of width {category.width} does not match the memory's")
    memory.categories[label] = category
    return memory


@dataclass
class Prediction:
    """Classification outcome: winning label (or UNKNOWN), its score and
    the per-category scores it was chosen from."""

    label: str
    score: float
    scores: dict


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

# Integer rows with squared norms below 2**51 keep every value the product
# path forms an integer of magnitude below 2**53, which float64 holds
# exactly in any summation order: the norms, each partial sum of -2 a.b
# (at most 2|a||b|), |b|^2 - 2 a.b and |a - b|^2 <= (|a| + |b|)^2 < 4 * 2**51.
# The nearest squared distance is then exact, and its square root is
# cdist's value bit for bit. k-means++ seeding in representations takes its
# squared distances by the same rule.
_EXACT_SQ_NORM_BOUND = 2.0**51
_WHOLE = np.zeros(1, dtype=np.intp)  # block offsets of a single feature set


def _exact_sq_norms(m: np.ndarray) -> np.ndarray | None:
    """Row squared norms of a finite feature matrix when the product path
    is exact for it (integer entries, every norm below the bound), else
    None. A sum of non-negative squares that reaches the bound is never
    rounded back below it, so the check holds for the computed norms."""
    if not np.array_equal(m, np.trunc(m)):
        return None
    norms = np.einsum("ij,ij->i", m, m)
    return norms if np.all(norms < _EXACT_SQ_NORM_BOUND) else None


def _set_distances(mu, mv, offsets, nu, nv) -> list:
    """D(mu, block) for each block of float64 mv rows that starts at an
    offset. When nu and nv both come from _exact_sq_norms, each row's
    nearest distance is sqrt(min_b(|b|^2 - 2 a.b) + |a|^2) from one matrix
    product, which is exact; otherwise it is the row minimum of cdist. Each
    mean runs over a fresh 1-D vector, so either way a block's value is the
    bits of cdist(mu, block).min(axis=1).mean()."""
    if mu.shape[1] != mv.shape[1]:
        raise LearningError(f"feature sets of unequal width {mu.shape[1]} and {mv.shape[1]}")
    if nu is None or nv is None:
        nearest = np.minimum.reduceat(cdist(mu, mv), offsets, axis=1)
    else:
        d2 = (mu * -2.0) @ mv.T
        d2 += nv
        nearest = np.minimum.reduceat(d2, offsets, axis=1)
        nearest += nu[:, None]
        np.sqrt(nearest, out=nearest)
    return [float(nearest[:, i].copy().mean()) for i in range(len(offsets))]


def set_distance(u, v) -> float:
    """Asymmetric distance between two feature sets: the average, over the
    features of U, of the distance to the nearest feature of V."""
    mu = _as_feature_matrix(u)
    mv = _as_feature_matrix(v)
    return _set_distances(mu, mv, _WHOLE, _exact_sq_norms(mu), _exact_sq_norms(mv))[0]


def icd(category: InstanceCategory) -> float:
    """Intra-category distance, read from the instances: the mean of D(U, V)
    over ordered pairs U != V. The pair distances stay on the category in
    one (n, n) table, so a read computes only the pairs with an instance
    added since the last one; the sum is a cumulative one in row-major
    (i, j) order, the bits of a sequential loop."""
    instances = category.instances
    n = len(instances)
    if n < 2:
        raise LearningError("intra-category distance needs at least 2 instances")
    known = len(category._pairs)
    if known < n:
        pairs = np.zeros((n, n))
        pairs[:known, :known] = category._pairs
        for i in range(n):
            for j in range(0 if i >= known else known, n):
                if i != j:
                    pairs[i, j] = set_distance(instances[i], instances[j])
        category._pairs = pairs
    off_diagonal = category._pairs[~np.eye(n, dtype=bool)]
    return float(np.cumsum(off_diagonal)[-1]) / (n * (n - 1))


def _instance_distances(target, category: InstanceCategory) -> list:
    """D(target, instance) for each instance of the category, in order, from
    one kernel call against the category's matrix."""
    if not category.instances:
        raise LearningError(f"category {category.label!r} has no instances")
    mt = _as_feature_matrix(target)
    matrix = np.asarray(category._matrix, dtype=np.float64)
    return _set_distances(mt, matrix, category._starts, _exact_sq_norms(mt), category._norms)


def ocd_min(target, category: InstanceCategory) -> float:
    """Object-category distance, nearest-instance variant."""
    return min(_instance_distances(target, category))


def ocd_mean(target, category: InstanceCategory) -> float:
    """Object-category distance, average-over-instances variant."""
    return float(np.mean(_instance_distances(target, category)))


def chi2(p, q) -> float:
    """Chi-squared histogram distance, skipping empty bin pairs."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    s = p + q
    mask = s > 0
    d = p[mask] - q[mask]
    return float(0.5 * np.sum(d * d / s[mask]))


_FIXED_METRICS = {
    "L2": lambda a, b: float(np.linalg.norm(a - b)),
    "chi2": chi2,
}


def _per_category(query, check):
    """label -> the query as that category sees it, passed through ``check``:
    one shared query is checked once, a mapping's entry when it is read."""
    if not isinstance(query, Mapping):
        checked = check(query)
        return lambda label: checked

    def view(label):
        if label not in query:
            raise LearningError(f"the query has no view for category {label!r}")
        return check(query[label])

    return view


def _fixed_vector(target) -> np.ndarray:
    vector = finite_array(target, (1,), LearningError, "nn_fixed needs a finite fixed-size vector")
    if not vector.size:
        raise LearningError("an nn_fixed query must not be empty")
    return vector


def classify_instances(
    target,
    memory: InstanceMemory,
    mode: str = "nn_fixed",
    metric: str = "L2",
    ct: float | None = None,
) -> Prediction:
    """Instance-based classification over an InstanceMemory.

    Modes A1/A2 read the ICD of each category of two or more instances
    once, and score feature sets against each category whose ICD is
    positive: A1 by ``ocd_min`` / ICD, A2 by 2 ``ocd_mean`` / (ICD +
    ICD-bar), where ICD-bar averages those ICDs. While no category is
    ready, both score by ``ocd_min``. nn_fixed takes the nearest stored
    fixed-size vector (one row per instance) under ``metric``. The winner
    is ``lowest_score``'s. ``target`` is one query, or a mapping from each
    category's label to the query as that category represents it.
    """
    categories = memory.categories.values()
    scores = {}
    if mode in ("A1", "A2"):
        view = _per_category(target, lambda query: query)
        spreads = {c: icd(c) for c in categories if len(c.instances) >= 2}
        ready = {c: spread for c, spread in spreads.items() if spread > 0}
        if not ready:
            scores = {c.label: ocd_min(view(c.label), c) for c in categories if c.instances}
        elif mode == "A1":
            scores = {c.label: ocd_min(view(c.label), c) / own for c, own in ready.items()}
        else:
            icd_bar = float(np.mean(list(ready.values())))
            scores = {c.label: 2.0 * ocd_mean(view(c.label), c) / (own + icd_bar)
                      for c, own in ready.items()}
    elif mode == "nn_fixed":
        if metric not in _FIXED_METRICS:
            raise LearningError(f"unknown nn_fixed metric {metric!r}")
        view = _per_category(target, _fixed_vector)
        dist = _FIXED_METRICS[metric]
        for cat in categories:
            if not cat.instances:
                raise LearningError(f"category {cat.label!r} has no instances")
            target_vec = view(cat.label)
            stored = np.asarray(cat._matrix, dtype=np.float64)
            if len(stored) != len(cat.instances):
                raise LearningError("nn_fixed needs one fixed-size vector per instance")
            if stored.shape[1] != target_vec.shape[0]:
                raise LearningError("representation size mismatch")
            scores[cat.label] = min(dist(target_vec, inst) for inst in stored)
    else:
        raise LearningError(f"unknown classification mode {mode!r}")
    return lowest_score(scores, ct)


def lowest_score(scores: dict, ct: float | None = None) -> Prediction:
    """The lowest of the per-category scores wins, ties to the earliest
    category; with a classification threshold set, a best score above it
    returns UNKNOWN. An empty table means an empty memory and raises."""
    if ct is not None:
        check_finite("ct", ct, LearningError)
    if not scores:
        raise LearningError("no categories in memory")
    best_label = min(scores, key=scores.get)
    best = scores[best_label]
    label = UNKNOWN if ct is not None and best > ct else best_label
    return Prediction(label=label, score=best, scores=scores)


# ---------------------------------------------------------------------------
# Naive Bayes model-based learning
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class BayesCategory(JsonRecord):
    """Category model: instance count and per-bin accumulators."""

    error = LearningError
    n_k: int
    accumulators: np.ndarray

    def __post_init__(self):
        check_fields(self, LearningError)
        if self.n_k < 1:
            raise LearningError("n_k must be at least 1")
        self.accumulators = _check_histogram(self.accumulators, "accumulators")

    def conditionals(self) -> np.ndarray:
        """Laplace-smoothed bin probabilities (a_ki + 1) / sum_j (a_kj + 1)."""
        smoothed = self.accumulators + 1.0
        return smoothed / smoothed.sum()


@dataclass(eq=False)
class BayesMemory(JsonRecord):
    """Category models by label, all of one width. A category given in its
    JSON form is loaded."""

    error = LearningError
    categories: dict = field(default_factory=dict)

    def __post_init__(self):
        self.categories = _load_categories(self.categories, BayesCategory)
        if len({cat.accumulators.shape for cat in self.categories.values()}) > 1:
            raise LearningError("categories must have accumulators of one width")

    @property
    def total(self) -> int:
        """Instances taught: the sum of the categories' n_k."""
        return sum(cat.n_k for cat in self.categories.values())

    def prior(self, label: str) -> float:
        return self.categories[label].n_k / self.total


def _check_histogram(x, name: str = "representation") -> np.ndarray:
    x = as_array(x)
    if x.dtype.kind not in "iuf" or x.ndim != 1 or not np.all(np.isfinite(x)) or np.any(x < 0):
        raise LearningError(f"{name} must be a finite non-negative vector")
    return x


def bayes_teach(memory: BayesMemory, label: str, x) -> BayesMemory:
    """Fold one instance into the category models.

    A new label starts a category (N_k = 1, accumulators = x); an existing
    one increments its counter and adds x bin-wise. Every x has the width
    of the memory's accumulators. Priors and conditionals follow from the
    counters, so teaching order cannot matter.
    """
    x = _check_histogram(x)
    known = next(iter(memory.categories.values()), None)
    if known is not None and known.accumulators.shape != x.shape:
        raise LearningError(f"representation of shape {x.shape} does not match the memory")
    if label not in memory.categories:
        memory.categories[label] = BayesCategory(n_k=1, accumulators=x.copy())
    else:
        cat = memory.categories[label]
        cat.n_k += 1
        cat.accumulators = cat.accumulators + x
    return memory


def bayes_classify(memory: BayesMemory, y) -> Prediction:
    """Highest log-likelihood category for a histogram:
    log P(C_k) + sum_i y_i log P(x_i | C_k); ties go to the earliest
    taught label. ``y`` is one histogram, or a mapping from each taught
    label to the query's histogram in that category's terms."""
    view = _per_category(y, _check_histogram)
    scores = {}
    for label, cat in memory.categories.items():
        y_k = view(label)
        if cat.accumulators.shape != y_k.shape:
            raise LearningError("representation size mismatch")
        scores[label] = log_posterior(memory, label, y_k)
    best_label = lowest_score({label: -s for label, s in scores.items()}).label
    return Prediction(label=best_label, score=scores[best_label], scores=scores)


def log_posterior(memory: BayesMemory, label: str, y) -> float:
    """log P(C_k) + sum_i y_i log P(x_i | C_k) for one taught category."""
    cat = memory.categories[label]
    return float(np.log(memory.prior(label)) + y @ np.log(cat.conditionals()))
