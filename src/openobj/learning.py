"""Open-ended classifiers: the asymmetric set distance over local-feature
sets, intra-category spread normalization for unknown detection,
fixed-size nearest-neighbor modes, and the incremental naive-Bayes
model-based learner.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .errors import OpenobjError

__all__ = [
    "UNKNOWN",
    "InstanceCategory",
    "BayesCategory",
    "BayesMemory",
    "Prediction",
    "set_distance",
    "icd",
    "ocd_min",
    "ocd_mean",
    "nocd_approach1",
    "nocd_approach2",
    "classify_instances",
    "lowest_score",
    "chi2",
    "bayes_teach",
    "bayes_classify",
    "log_posterior",
    "LearningError",
]

UNKNOWN = "UNKNOWN"


class LearningError(OpenobjError):
    pass


def _as_feature_matrix(rep) -> np.ndarray:
    rep = np.asarray(rep, dtype=np.float64)
    if rep.ndim == 1:
        rep = rep.reshape(1, -1)  # a fixed-size vector is a one-feature set
    if rep.ndim != 2 or len(rep) == 0:
        raise LearningError("feature-set representation must be a non-empty 2D array")
    if not np.all(np.isfinite(rep)):
        raise LearningError("feature-set representation must be finite")
    return rep


@dataclass
class InstanceCategory:
    """Instance store of one category plus its intra-category distance.

    ``icd`` is the mean distance over ordered instance pairs; the reference
    dataset protocol initializes it from three views, so with only two the
    value is kept but flagged provisional.

    Two caches derive from ``instances``, whose entries are treated as
    immutable: the set distance of every ordered pair that ``icd`` has
    computed, and the stacked instance matrix that OCD scores against. Each
    remembers the instances it came from, by identity: the pairs are trimmed
    to the longest unchanged prefix of ``instances`` and the stack is
    rebuilt whenever the list differs, so editing ``instances`` directly is
    safe. Neither is serialized.
    """

    label: str
    instances: list = field(default_factory=list)
    icd: float | None = None
    icd_provisional: bool = False
    _pairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _paired: list = field(default_factory=list, init=False, repr=False, compare=False)
    _stack: _Stack | None = field(default=None, init=False, repr=False, compare=False)

    def add(self, representation):
        self.instances.append(representation)
        if len(self.instances) >= 2:
            self.icd = icd(self)
            self.icd_provisional = len(self.instances) < 3

    def _pair_distances(self) -> dict:
        """{(i, j): D(instance i, instance j)} for the pairs computed so far
        whose instances are still at positions i and j."""
        kept = _shared_prefix(self._paired, self.instances)
        if kept < len(self._paired):
            self._pairs = {ij: d for ij, d in self._pairs.items() if max(ij) < kept}
        self._paired = list(self.instances)
        return self._pairs

    def _stacked(self) -> _Stack:
        """The stack of exactly the current instances, rebuilt if needed."""
        stack = self._stack
        if stack is None or len(stack.instances) != len(self.instances) or (
            _shared_prefix(stack.instances, self.instances) < len(self.instances)
        ):
            self._stack = stack = _Stack.of(self.instances)
        return stack

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "instances": [np.asarray(inst).tolist() for inst in self.instances],
            "icd": self.icd,
            "icd_provisional": self.icd_provisional,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "InstanceCategory":
        return cls(
            label=data["label"],
            instances=[np.asarray(inst, dtype=np.float64) for inst in data["instances"]],
            icd=data["icd"],
            icd_provisional=data["icd_provisional"],
        )


@dataclass(frozen=True)
class _Stack:
    """A category's instances as one (N, d) matrix, its row squared norms
    and the first row of each instance. ``norms`` is None, and OCD goes
    instance by instance, when the exact product path does not apply."""

    instances: tuple
    matrix: np.ndarray
    norms: np.ndarray | None
    offsets: np.ndarray

    @classmethod
    def of(cls, instances) -> _Stack:
        mats = [_as_feature_matrix(inst) for inst in instances]
        if len({m.shape[1] for m in mats}) != 1:
            raise LearningError(f"instances of unequal width {[m.shape[1] for m in mats]}")
        matrix = np.vstack(mats)
        offsets = np.cumsum([0] + [len(m) for m in mats[:-1]])
        return cls(tuple(instances), matrix, _exact_sq_norms(matrix), offsets)


def _shared_prefix(old, new) -> int:
    """How many leading entries two sequences share, by identity."""
    n = 0
    for a, b in zip(old, new):
        if a is not b:
            break
        n += 1
    return n


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
# cdist's value bit for bit.
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


def _set_distances(mu, nu, mv, nv, offsets) -> list:
    """D(mu, block) for each block of mv rows that starts at an offset, from
    one matrix product: each row's nearest min_b(|b|^2 - 2 a.b) + |a|^2,
    which is exact when nu and nv come from _exact_sq_norms. Each mean runs
    over a fresh 1-D vector, as cdist's path takes it."""
    d2 = (mu * -2.0) @ mv.T
    d2 += nv
    nearest = np.minimum.reduceat(d2, offsets, axis=1)
    nearest += nu[:, None]
    return [float(np.sqrt(nearest[:, i]).mean()) for i in range(len(offsets))]


def set_distance(u, v) -> float:
    """Asymmetric distance between two feature sets: the average, over the
    features of U, of the distance to the nearest feature of V. Sets that
    pass _exact_sq_norms take one matrix product, others cdist; both give
    the same bits."""
    mu = _as_feature_matrix(u)
    mv = _as_feature_matrix(v)
    if mu.shape[1] != mv.shape[1]:
        raise LearningError(f"feature sets of unequal width {mu.shape[1]} and {mv.shape[1]}")
    nu, nv = _exact_sq_norms(mu), _exact_sq_norms(mv)
    if nu is None or nv is None:
        return float(cdist(mu, mv).min(axis=1).mean())
    return _set_distances(mu, nu, mv, nv, _WHOLE)[0]


def icd(category: InstanceCategory) -> float:
    """Category spread: mean of D(U, V) over ordered pairs U != V. Pair
    distances stay on the category, so after an add only the 2(n - 1) pairs
    with the new instance are computed; the sum always runs in (i, j) order."""
    instances = category.instances
    n = len(instances)
    if n < 2:
        raise LearningError("intra-category distance needs at least 2 instances")
    pairs = category._pair_distances()
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                if (i, j) not in pairs:
                    pairs[i, j] = set_distance(instances[i], instances[j])
                total += pairs[i, j]
    return total / (n * (n - 1))


def _instance_distances(target, category: InstanceCategory) -> list:
    """D(target, instance) for each instance of the category, in order: one
    matrix product against the stacked instances, or set_distance per
    instance when the stack or the target does not qualify."""
    if not category.instances:
        raise LearningError(f"category {category.label!r} has no instances")
    stack = category._stacked()
    mt = _as_feature_matrix(target)
    nt = _exact_sq_norms(mt)
    if stack.norms is None or nt is None or mt.shape[1] != stack.matrix.shape[1]:
        return [set_distance(target, inst) for inst in category.instances]
    return _set_distances(mt, nt, stack.matrix, stack.norms, stack.offsets)


def ocd_min(target, category: InstanceCategory) -> float:
    """Object-category distance, nearest-instance variant."""
    return min(_instance_distances(target, category))


def ocd_mean(target, category: InstanceCategory) -> float:
    """Object-category distance, average-over-instances variant."""
    return float(np.mean(_instance_distances(target, category)))


def nocd_approach1(target, category: InstanceCategory) -> float:
    """Nearest-instance distance normalized by the category's own spread."""
    if category.icd is None:
        raise LearningError(f"category {category.label!r} has no ICD yet")
    if category.icd == 0:
        raise LearningError(f"degenerate category {category.label!r}: identical instances")
    return ocd_min(target, category) / category.icd


def nocd_approach2(target, category: InstanceCategory, icd_bar: float) -> float:
    """Average distance normalized by the mean of the category spread and
    the cross-category spread average: 2 OCD / (ICD + ICD-bar)."""
    if category.icd is None:
        raise LearningError(f"category {category.label!r} has no ICD yet")
    if icd_bar <= 0:
        raise LearningError("cross-category ICD mean must be positive")
    return 2.0 * ocd_mean(target, category) / (category.icd + icd_bar)


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
    vec = np.asarray(target, dtype=np.float64)
    if vec.ndim != 1:
        raise LearningError("nn_fixed mode expects a fixed-size vector")
    return vec


def classify_instances(
    target,
    memory: list,
    mode: str = "nn_fixed",
    metric: str = "L2",
    ct: float | None = None,
) -> Prediction:
    """Instance-based classification over a list of InstanceCategory.

    Modes A1/A2 score feature sets by the normalized object-category
    distance to each category whose ICD is positive (ICD-bar averages those),
    or by ``ocd_min`` while none is; nn_fixed takes the nearest stored
    fixed-size vector under ``metric``. The winner is ``lowest_score``'s.
    ``target`` is one query, or a mapping from each category's label to the
    query as that category represents it.
    """
    scores = {}
    if mode in ("A1", "A2"):
        view = _per_category(target, lambda query: query)
        ready = [c for c in memory if c.icd is not None and c.icd > 0]
        if not ready:
            scores = {c.label: ocd_min(view(c.label), c) for c in memory if c.instances}
        elif mode == "A1":
            scores = {c.label: nocd_approach1(view(c.label), c) for c in ready}
        else:
            icd_bar = float(np.mean([c.icd for c in ready]))
            scores = {c.label: nocd_approach2(view(c.label), c, icd_bar) for c in ready}
    elif mode == "nn_fixed":
        view = _per_category(target, _fixed_vector)
        dist = _FIXED_METRICS[metric]
        for cat in memory:
            if not cat.instances:
                raise LearningError(f"category {cat.label!r} has no instances")
            target_vec = view(cat.label)
            stored = np.asarray(cat.instances, dtype=np.float64)
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
    if not scores:
        raise LearningError("no categories in memory")
    best_label = min(scores, key=scores.get)
    best = scores[best_label]
    label = UNKNOWN if ct is not None and best > ct else best_label
    return Prediction(label=label, score=best, scores=scores)


# ---------------------------------------------------------------------------
# Naive Bayes model-based learning
# ---------------------------------------------------------------------------

@dataclass
class BayesCategory:
    """Category model: instance count and per-bin accumulators."""

    label: str
    n_k: int
    accumulators: np.ndarray

    def conditionals(self) -> np.ndarray:
        """Laplace-smoothed bin probabilities (a_ki + 1) / sum_j (a_kj + 1)."""
        smoothed = self.accumulators + 1.0
        return smoothed / smoothed.sum()


class BayesMemory:
    """All category models plus the global instance counter."""

    def __init__(self):
        self.categories: dict[str, BayesCategory] = {}
        self.total = 0

    def __len__(self):
        return len(self.categories)

    def prior(self, label: str) -> float:
        return self.categories[label].n_k / self.total

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "categories": {
                lab: {"n_k": c.n_k, "accumulators": c.accumulators.tolist()}
                for lab, c in self.categories.items()
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BayesMemory":
        memory = cls()
        memory.total = data["total"]
        for lab, c in data["categories"].items():
            memory.categories[lab] = BayesCategory(
                label=lab, n_k=c["n_k"], accumulators=np.asarray(c["accumulators"])
            )
        return memory


def _check_histogram(x) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 1 or not np.all(np.isfinite(x)) or np.any(x < 0):
        raise LearningError("representation must be a finite non-negative vector")
    return x


def bayes_teach(memory: BayesMemory, label: str, x) -> BayesMemory:
    """Fold one instance into the category models.

    A new label starts a category (N_k = 1, accumulators = x); an existing
    one increments its counter and adds x bin-wise. Priors and conditionals
    follow from the counters, so teaching order cannot matter.
    """
    x = _check_histogram(x)
    memory.total += 1
    if label not in memory.categories:
        memory.categories[label] = BayesCategory(label=label, n_k=1, accumulators=x.copy())
    else:
        cat = memory.categories[label]
        if cat.accumulators.shape != x.shape:
            raise LearningError(
                f"representation size {x.shape} does not match category {label!r}"
            )
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
