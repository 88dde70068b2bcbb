"""Experiment wiring: one learner with the teach/classify surface the
simulated teacher expects, and the fold pipeline used by cross-validation.

The learner pairs an encoder (GOOD, spin-image sets, bag of words, shared
LDA or per-category LDA) with a memory (instance-based or naive Bayes),
both chosen by the experiment config. Each view's GOOD bins and spin
images are computed once per feature cache and shared by the dictionary,
the learner and every fold.

The BoW and topic paths need a visual-word dictionary. Protocol runs build
it once from the dataset pool up front (the off-line exploration stage);
cross-validation builds one per fold from training views only.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, fields

import numpy as np

from . import descriptors, evaluation, nbv, representations
from .descriptors import compute_feature_set, compute_good
from .errors import OpenobjError
from .learning import (
    BayesMemory,
    InstanceCategory,
    bayes_classify,
    bayes_teach,
    classify_instances,
)
from .representations import (
    Dictionary,
    RepresentationError,
    TopicModel,
    _assign,
    bow_encode,
    build_dictionary,
    lda_infer,
    lda_update,
    local_lda_update,
)

__all__ = [
    "ExperimentConfig",
    "build_learner",
    "build_learner_from_pool",
    "make_cv_pipeline",
    "collect_feature_pool",
    "Learner",
    "ConfigError",
    "build_dictionary_from_clouds",
]

REPRESENTATIONS = ("good", "spinset", "bow", "lda", "local_lda")
LEARNERS = ("instance", "bayes")


class ConfigError(OpenobjError):
    pass


@dataclass
class ExperimentConfig:
    """Every knob of an experiment; validated before any work starts. A
    default that a library function shares is that module's DEFAULT_*."""

    representation: str = "good"
    learner: str = "instance"
    good_bins: int = descriptors.DEFAULT_GOOD_BINS
    voxel: float = descriptors.DEFAULT_KEYPOINT_VOXEL
    image_width: int = descriptors.DEFAULT_IMAGE_WIDTH
    support_length: float = descriptors.DEFAULT_SUPPORT_LENGTH
    support_angle: float = descriptors.DEFAULT_SUPPORT_ANGLE
    dictionary_size: int = representations.DEFAULT_DICTIONARY_SIZE
    topics: int = representations.DEFAULT_TOPICS
    alpha: float = representations.DEFAULT_ALPHA
    beta: float = representations.DEFAULT_BETA
    gibbs_iters: int = representations.DEFAULT_GIBBS_ITERS
    nocd_mode: str = "A2"
    ct: float | None = None
    tau: float = evaluation.DEFAULT_TAU
    window_mult: int = evaluation.DEFAULT_WINDOW_MULT
    breakpoint_limit: int = evaluation.DEFAULT_BREAKPOINT_LIMIT
    views_per_teach: int = evaluation.DEFAULT_VIEWS_PER_TEACH
    folds: int = 10
    sigma_nbv: float = 0.5
    nbv_resolution: int = nbv.DEFAULT_RESOLUTION
    max_dictionary_pool: int = 8000
    seed: int = 0

    def validate(self) -> "ExperimentConfig":
        if self.representation not in REPRESENTATIONS:
            raise ConfigError(f"unknown representation {self.representation!r}")
        if self.learner not in LEARNERS:
            raise ConfigError(f"unknown learner {self.learner!r}")
        if self.representation == "spinset" and self.learner == "bayes":
            raise ConfigError("the Bayes learner needs a fixed-size representation")
        if self.ct is not None and self.learner == "bayes":
            # only the instance memory can return UNKNOWN
            raise ConfigError("ct applies to the instance learner only")
        for f in fields(self):  # annotations are strings here
            if f.type == "int" and not isinstance(getattr(self, f.name), (int, np.integer)):
                raise ConfigError(f"{f.name} must be an integer")
        for name, least in (("good_bins", 2), ("image_width", 1), ("dictionary_size", 2),
                            ("topics", 1), ("gibbs_iters", 1), ("folds", 2), ("window_mult", 1),
                            ("breakpoint_limit", 1), ("views_per_teach", 1), ("seed", 0),
                            ("max_dictionary_pool", 1), ("nbv_resolution", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be at least {least}")
        # every check below fails for NaN
        for name in ("voxel", "support_length", "alpha", "beta", "sigma_nbv"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
        if not 0 < self.support_angle <= 180:
            raise ConfigError("support_angle must lie in (0, 180]")
        if self.ct is not None and not math.isfinite(self.ct):
            raise ConfigError("ct must be finite or none")
        if not 0 < self.tau < 1:
            raise ConfigError("tau must lie in (0, 1)")
        if self.nocd_mode not in ("A1", "A2"):
            raise ConfigError("nocd_mode must be A1 or A2")
        return self

    def spin_image_args(self) -> dict:
        """compute_feature_set's keyword arguments."""
        names = ("voxel", "image_width", "support_length", "support_angle")
        return {name: getattr(self, name) for name in names}


class _FeatureCache:
    """Per-view features, computed once and shared by the dictionary pool,
    the learner and every cross-validation fold: the (k, d) spin-image
    matrix (``get``) and the GOOD bins (``good``).

    Entries are held weakly by their cloud and go when it is freed, so a
    later cloud is never served a freed one's features and one-off queries
    leave nothing behind. The cache itself is not kept alive by its clouds.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self._store = weakref.WeakKeyDictionary()

    def get(self, cloud) -> np.ndarray:
        return self._lookup(
            "spin", cloud,
            lambda: compute_feature_set(cloud, **self.config.spin_image_args()).as_matrix(),
        )

    def good(self, cloud) -> np.ndarray:
        return self._lookup(
            "good", cloud, lambda: compute_good(cloud, n=self.config.good_bins).bins
        )

    def _lookup(self, kind, cloud, compute):
        per_view = self._store.setdefault(cloud, {})  # atomic for cv's fold threads
        if kind not in per_view:
            per_view[kind] = compute()
        return per_view[kind]


def collect_feature_pool(matrices, cap: int, seed: int) -> np.ndarray:
    """Stack (k, d) feature matrices, subsampling (seeded) past the cap."""
    try:
        pool = np.vstack(matrices)
    except ValueError:
        raise RepresentationError("need one or more feature matrices of equal width") from None
    if len(pool) > cap:
        rng = np.random.default_rng(seed)
        pool = pool[rng.choice(len(pool), size=cap, replace=False)]
    return pool


# ---------------------------------------------------------------------------
# The learner: one encoder feeding one memory
# ---------------------------------------------------------------------------

class Learner:
    """teach/classify over raw point clouds. ``config.representation``
    picks the encoder (good, spinset, bow, lda, local_lda) and
    ``config.learner`` the memory: a list of InstanceCategory (instance) or
    a BayesMemory (bayes).

    The instance memory scores by the nearest stored instance (L2 on GOOD
    and BoW, chi-squared on topic proportions), or for spin-image sets by
    the normalized object-category distance; it returns UNKNOWN when the
    best score exceeds ``config.ct``. The Bayes memory keeps counts.
    """

    def __init__(self, config: ExperimentConfig, dictionary: Dictionary | None = None,
                 features: _FeatureCache | None = None):
        self.config = config
        self.dictionary = dictionary
        self.features = features or _FeatureCache(config)
        self.bayes = config.learner == "bayes"
        self.memory: list[InstanceCategory] | BayesMemory = BayesMemory() if self.bayes else []
        self._index: dict[str, InstanceCategory] = {}
        # lda shares one topic model; local_lda grows one per category
        self.model = None
        self.models: dict[str, TopicModel] = {}
        if config.representation == "lda":
            self.model = TopicModel(k=config.topics, v=dictionary.size, alpha=config.alpha,
                                    beta=config.beta, rng_seed=config.seed)

    def teach(self, category, cloud):
        x = self._encode(cloud, category, learn=True)
        if self.bayes:
            bayes_teach(self.memory, category, x)
            return
        if category not in self._index:
            self._index[category] = InstanceCategory(category)
            self.memory.append(self._index[category])
        if self.config.representation == "spinset":
            self._index[category].add(x)  # keeps the category's ICD current
        else:
            self._index[category].instances.append(x)

    def classify(self, cloud):
        rep = self.config.representation
        target = self._encode(cloud)
        if self.bayes:
            return bayes_classify(self.memory, target).label
        mode = self.config.nocd_mode if rep == "spinset" else "nn_fixed"
        metric = "chi2" if rep in ("lda", "local_lda") else "L2"
        return classify_instances(target, self.memory, mode, metric, self.config.ct).label

    def stored_instances(self) -> int:
        """Instances held by the instance memory."""
        return sum(len(c.instances) for c in self.memory)

    # -- encoders ------------------------------------------------------------

    def _encode(self, cloud, category=None, learn=False):
        """The view as the memory stores it. With ``learn`` the topic
        encoders first fold the view into its model: the shared one (lda)
        or ``category``'s own (local_lda). A local_lda query is a mapping
        from each category to the view in that category's topic space."""
        rep = self.config.representation
        if rep == "good":
            return self.features.good(cloud)
        if rep == "spinset":
            return self.features.get(cloud)
        if rep == "bow":
            counts = bow_encode(self.features.get(cloud), self.dictionary)
            return counts if self.bayes else counts.astype(np.float64)
        doc = self._doc(cloud)
        if learn:
            self._update(category, doc)
        if rep == "local_lda" and category is None:
            return {label: self._topics(doc, model) for label, model in self.models.items()}
        return self._topics(doc, self.model if rep == "lda" else self.models[category])

    def _doc(self, cloud):
        return _assign(self.features.get(cloud), self.dictionary.words)

    def _update(self, category, doc):
        c = self.config
        if c.representation == "lda":
            lda_update(self.model, doc, c.gibbs_iters)
            return
        local_lda_update(
            self.models, category, doc, iters=c.gibbs_iters, k=c.topics,
            v=self.dictionary.size, alpha=c.alpha, beta=c.beta, seed=c.seed,
        )

    def _topics(self, doc, model):
        inferred = lda_infer(model, doc, self.config.gibbs_iters)
        return inferred.counts if self.bayes else inferred.theta


_NEEDS_DICTIONARY = {"bow", "lda", "local_lda"}


def build_learner(config: ExperimentConfig, dictionary: Dictionary | None = None,
                  features: _FeatureCache | None = None) -> Learner:
    """The learner for the config's representation/learner combination."""
    config.validate()
    if config.representation in _NEEDS_DICTIONARY and dictionary is None:
        raise ConfigError(f"{config.representation} needs a visual-word dictionary")
    return Learner(config, dictionary, features)


def build_learner_from_pool(config: ExperimentConfig, clouds,
                            features: _FeatureCache | None = None) -> Learner:
    """A fresh learner whose dictionary, when its representation needs one,
    is built from the clouds. One feature cache serves both, so each view's
    spin images are computed once."""
    features = features or _FeatureCache(config)
    dictionary = None
    if config.representation in _NEEDS_DICTIONARY:
        dictionary = build_dictionary_from_clouds(clouds, config, features)
    return build_learner(config, dictionary, features)


def build_dictionary_from_clouds(clouds, config: ExperimentConfig,
                                 features: _FeatureCache | None = None) -> Dictionary:
    features = features or _FeatureCache(config)
    pool = collect_feature_pool(
        [features.get(c) for c in clouds], config.max_dictionary_pool, config.seed
    )
    return build_dictionary(pool, v=config.dictionary_size, seed=config.seed)


def make_cv_pipeline(config: ExperimentConfig):
    """Fold closure for evaluation.kfold: train on (label, cloud) pairs,
    predict labels for the test clouds. One shared feature cache spans the
    folds; dictionaries are rebuilt per fold from training views only."""
    config.validate()
    cache = _FeatureCache(config)

    def pipeline(train, test_clouds):
        learner = build_learner_from_pool(config, [cloud for _, cloud in train], cache)
        for label, cloud in train:
            learner.teach(label, cloud)
        return [learner.classify(cloud) for cloud in test_clouds]

    return pipeline
