"""Experiment wiring: representation extractors, learner wrappers with the
teach/classify surface the simulated teacher expects, and the fold
pipeline used by cross-validation.

The BoW and topic paths need a visual-word dictionary. Protocol runs build
it once from the dataset pool up front (the off-line exploration stage);
cross-validation builds one per fold from training views only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import learning
from .descriptors import compute_feature_set, compute_good
from .learning import (
    UNKNOWN,
    BayesMemory,
    InstanceCategory,
    bayes_classify,
    bayes_teach,
    chi2,
    classify_instances,
)
from .representations import (
    Dictionary,
    TopicModel,
    _assign,
    build_dictionary,
    lda_infer,
    lda_update,
    local_lda_update,
)

__all__ = [
    "ExperimentConfig",
    "build_learner",
    "make_cv_pipeline",
    "collect_feature_pool",
    "GoodInstanceLearner",
]

REPRESENTATIONS = ("good", "spinset", "bow", "lda", "local_lda")
LEARNERS = ("instance", "bayes")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Every knob of an experiment; validated before any work starts."""

    representation: str = "good"
    learner: str = "instance"
    good_bins: int = 15
    voxel: float = 0.01
    image_width: int = 4
    support_length: float = 0.05
    support_angle: float = 90.0
    dictionary_size: int = 90
    topics: int = 30
    alpha: float = 1.0
    beta: float = 0.1
    gibbs_iters: int = 30
    nocd_mode: str = "A2"
    ct: float | None = None
    tau: float = 0.67
    window_mult: int = 3
    breakpoint_limit: int = 100
    views_per_teach: int = 3
    folds: int = 10
    sigma_nbv: float = 0.5
    nbv_resolution: int = 128
    max_dictionary_pool: int = 8000
    seed: int = 0

    def validate(self) -> "ExperimentConfig":
        if self.representation not in REPRESENTATIONS:
            raise ConfigError(f"unknown representation {self.representation!r}")
        if self.learner not in LEARNERS:
            raise ConfigError(f"unknown learner {self.learner!r}")
        if self.representation == "spinset" and self.learner == "bayes":
            raise ConfigError("the Bayes learner needs a fixed-size representation")
        if self.good_bins < 2:
            raise ConfigError("good_bins must be at least 2")
        if min(self.voxel, self.support_length) <= 0:
            raise ConfigError("voxel and support_length must be positive")
        if self.image_width < 1:
            raise ConfigError("image_width must be at least 1")
        if self.dictionary_size < 2:
            raise ConfigError("dictionary_size must be at least 2")
        if self.topics < 1:
            raise ConfigError("topics must be at least 1")
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigError("alpha and beta must be positive")
        if self.gibbs_iters < 1:
            raise ConfigError("gibbs_iters must be at least 1")
        if self.nocd_mode not in ("A1", "A2"):
            raise ConfigError("nocd_mode must be A1 or A2")
        if not 0 < self.tau < 1:
            raise ConfigError("tau must lie in (0, 1)")
        if self.folds < 2:
            raise ConfigError("folds must be at least 2")
        if self.sigma_nbv <= 0:
            raise ConfigError("sigma_nbv must be positive")
        return self

    @classmethod
    def field_names(cls):
        return [f.name for f in fields(cls)]


class _FeatureCache:
    """Spin-image feature sets are by far the slowest extraction; cache
    them per cloud object so cross-validation folds share the work.

    Entries are keyed on id(cloud) and hold the cloud itself: while an
    entry lives its cloud cannot be freed, so no other cloud can take over
    its id and be served its features.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self._store = {}

    def get(self, cloud):
        key = id(cloud)
        if key not in self._store:
            features = compute_feature_set(
                cloud,
                voxel=self.config.voxel,
                image_width=self.config.image_width,
                support_length=self.config.support_length,
                support_angle=self.config.support_angle,
            )
            self._store[key] = (cloud, features)
        return self._store[key][1]


def collect_feature_pool(feature_sets, cap: int, seed: int) -> np.ndarray:
    """Stack feature matrices, subsampling (seeded) past the cap."""
    pool = np.vstack([fs.as_matrix() for fs in feature_sets])
    if len(pool) > cap:
        rng = np.random.default_rng(seed)
        pool = pool[rng.choice(len(pool), size=cap, replace=False)]
    return pool


# ---------------------------------------------------------------------------
# Learner wrappers (teach/classify over raw point clouds)
# ---------------------------------------------------------------------------

class GoodInstanceLearner:
    """Global descriptor + nearest stored instance (L2)."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.memory: list[InstanceCategory] = []
        self._index: dict[str, InstanceCategory] = {}

    def _vector(self, cloud):
        return compute_good(cloud, n=self.config.good_bins).bins

    def teach(self, category, cloud):
        if category not in self._index:
            cat = InstanceCategory(category)
            self._index[category] = cat
            self.memory.append(cat)
        self._index[category].instances.append(self._vector(cloud))

    def classify(self, cloud):
        return classify_instances(
            self._vector(cloud), self.memory, mode="nn_fixed", metric="L2",
            ct=self.config.ct,
        ).label

    def stored_instances(self) -> int:
        return sum(len(c.instances) for c in self.memory)


class GoodBayesLearner:
    """Global descriptor + naive Bayes over its normalized bins."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.memory = BayesMemory()

    def _vector(self, cloud):
        return compute_good(cloud, n=self.config.good_bins).bins

    def teach(self, category, cloud):
        bayes_teach(self.memory, category, self._vector(cloud))

    def classify(self, cloud):
        return bayes_classify(self.memory, self._vector(cloud)).label


class SpinsetInstanceLearner:
    """Sets of spin images + normalized object-category distances."""

    def __init__(self, config: ExperimentConfig, features: _FeatureCache | None = None):
        self.config = config
        self.features = features or _FeatureCache(config)
        self.memory: list[InstanceCategory] = []
        self._index: dict[str, InstanceCategory] = {}

    def teach(self, category, cloud):
        if category not in self._index:
            cat = InstanceCategory(category)
            self._index[category] = cat
            self.memory.append(cat)
        self._index[category].add(self.features.get(cloud))

    def classify(self, cloud):
        target = self.features.get(cloud)
        ready = [c for c in self.memory if c.icd is not None and c.icd > 0]
        if not ready:
            # before any category has a usable spread, fall back to the
            # nearest-instance rule
            scores = {
                c.label: learning.ocd_min(target, c) for c in self.memory if c.instances
            }
            best = min(scores, key=scores.get)
            if self.config.ct is not None and scores[best] > self.config.ct:
                return UNKNOWN
            return best
        return classify_instances(
            target, ready, mode=self.config.nocd_mode, ct=self.config.ct
        ).label

    def stored_instances(self) -> int:
        return sum(len(c.instances) for c in self.memory)


class BowInstanceLearner:
    def __init__(self, config: ExperimentConfig, dictionary: Dictionary,
                 features: _FeatureCache | None = None):
        self.config = config
        self.dictionary = dictionary
        self.features = features or _FeatureCache(config)
        self.memory: list[InstanceCategory] = []
        self._index: dict[str, InstanceCategory] = {}

    def _vector(self, cloud):
        words = _assign(self.features.get(cloud).as_matrix(), self.dictionary.words)
        return np.bincount(words, minlength=self.dictionary.size).astype(np.float64)

    def teach(self, category, cloud):
        if category not in self._index:
            cat = InstanceCategory(category)
            self._index[category] = cat
            self.memory.append(cat)
        self._index[category].instances.append(self._vector(cloud))

    def classify(self, cloud):
        return classify_instances(
            self._vector(cloud), self.memory, mode="nn_fixed", metric="L2",
            ct=self.config.ct,
        ).label

    def stored_instances(self) -> int:
        return sum(len(c.instances) for c in self.memory)


class BowBayesLearner:
    def __init__(self, config: ExperimentConfig, dictionary: Dictionary,
                 features: _FeatureCache | None = None):
        self.config = config
        self.dictionary = dictionary
        self.features = features or _FeatureCache(config)
        self.memory = BayesMemory()

    def _vector(self, cloud):
        words = _assign(self.features.get(cloud).as_matrix(), self.dictionary.words)
        return np.bincount(words, minlength=self.dictionary.size)

    def teach(self, category, cloud):
        bayes_teach(self.memory, category, self._vector(cloud))

    def classify(self, cloud):
        return bayes_classify(self.memory, self._vector(cloud)).label


class _LdaBase:
    """Shared-topic model: documents are word-index sequences."""

    def __init__(self, config: ExperimentConfig, dictionary: Dictionary,
                 features: _FeatureCache | None = None):
        self.config = config
        self.dictionary = dictionary
        self.features = features or _FeatureCache(config)
        self.model = TopicModel(
            k=config.topics,
            v=dictionary.size,
            alpha=config.alpha,
            beta=config.beta,
            rng_seed=config.seed,
        )

    def _doc(self, cloud):
        return _assign(self.features.get(cloud).as_matrix(), self.dictionary.words)


class LdaInstanceLearner(_LdaBase):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.memory: list[InstanceCategory] = []
        self._index: dict[str, InstanceCategory] = {}

    def teach(self, category, cloud):
        doc = self._doc(cloud)
        lda_update(self.model, doc, self.config.gibbs_iters)
        theta = lda_infer(self.model, doc, self.config.gibbs_iters).theta
        if category not in self._index:
            cat = InstanceCategory(category)
            self._index[category] = cat
            self.memory.append(cat)
        self._index[category].instances.append(theta)

    def classify(self, cloud):
        theta = lda_infer(self.model, self._doc(cloud), self.config.gibbs_iters).theta
        return classify_instances(
            theta, self.memory, mode="nn_fixed", metric="chi2", ct=self.config.ct
        ).label

    def stored_instances(self) -> int:
        return sum(len(c.instances) for c in self.memory)


class LdaBayesLearner(_LdaBase):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.memory = BayesMemory()

    def teach(self, category, cloud):
        doc = self._doc(cloud)
        lda_update(self.model, doc, self.config.gibbs_iters)
        counts = lda_infer(self.model, doc, self.config.gibbs_iters).counts
        bayes_teach(self.memory, category, counts)

    def classify(self, cloud):
        counts = lda_infer(self.model, self._doc(cloud), self.config.gibbs_iters).counts
        return bayes_classify(self.memory, counts).label


class _LocalLdaBase:
    """Per-category topic models; a target is represented against each
    category's own topics."""

    def __init__(self, config: ExperimentConfig, dictionary: Dictionary,
                 features: _FeatureCache | None = None):
        self.config = config
        self.dictionary = dictionary
        self.features = features or _FeatureCache(config)
        self.models: dict[str, TopicModel] = {}

    def _doc(self, cloud):
        return _assign(self.features.get(cloud).as_matrix(), self.dictionary.words)

    def _update(self, category, doc):
        local_lda_update(
            self.models,
            category,
            doc,
            iters=self.config.gibbs_iters,
            k=self.config.topics,
            v=self.dictionary.size,
            alpha=self.config.alpha,
            beta=self.config.beta,
            seed=self.config.seed,
        )


class LocalLdaInstanceLearner(_LocalLdaBase):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.instances: dict[str, list] = {}

    def teach(self, category, cloud):
        doc = self._doc(cloud)
        self._update(category, doc)
        theta = lda_infer(self.models[category], doc, self.config.gibbs_iters).theta
        self.instances.setdefault(category, []).append(theta)

    def classify(self, cloud):
        doc = self._doc(cloud)
        scores = {}
        for category, model in self.models.items():
            theta = lda_infer(model, doc, self.config.gibbs_iters).theta
            scores[category] = min(chi2(theta, inst) for inst in self.instances[category])
        best = min(scores, key=scores.get)
        if self.config.ct is not None and scores[best] > self.config.ct:
            return UNKNOWN
        return best

    def stored_instances(self) -> int:
        return sum(len(v) for v in self.instances.values())


class LocalLdaBayesLearner(_LocalLdaBase):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.memory = BayesMemory()

    def teach(self, category, cloud):
        doc = self._doc(cloud)
        self._update(category, doc)
        counts = lda_infer(self.models[category], doc, self.config.gibbs_iters).counts
        bayes_teach(self.memory, category, counts)

    def classify(self, cloud):
        doc = self._doc(cloud)
        scores = {}
        for category, model in self.models.items():
            y = lda_infer(model, doc, self.config.gibbs_iters).counts
            cat = self.memory.categories[category]
            scores[category] = float(
                np.log(self.memory.prior(category)) + y @ np.log(cat.conditionals())
            )
        return max(scores, key=scores.get)


_NEEDS_DICTIONARY = {"bow", "lda", "local_lda"}

_LEARNER_TABLE = {
    ("good", "instance"): GoodInstanceLearner,
    ("good", "bayes"): GoodBayesLearner,
    ("spinset", "instance"): SpinsetInstanceLearner,
    ("bow", "instance"): BowInstanceLearner,
    ("bow", "bayes"): BowBayesLearner,
    ("lda", "instance"): LdaInstanceLearner,
    ("lda", "bayes"): LdaBayesLearner,
    ("local_lda", "instance"): LocalLdaInstanceLearner,
    ("local_lda", "bayes"): LocalLdaBayesLearner,
}


def build_learner(config: ExperimentConfig, dictionary: Dictionary | None = None,
                  features: _FeatureCache | None = None):
    """Instantiate the representation/learner combination of the config."""
    config.validate()
    key = (config.representation, config.learner)
    cls = _LEARNER_TABLE[key]
    if config.representation in ("good",):
        return cls(config)
    if config.representation == "spinset":
        return cls(config, features)
    if dictionary is None:
        raise ConfigError(f"{config.representation} needs a visual-word dictionary")
    return cls(config, dictionary, features)


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
        dictionary = None
        if config.representation in _NEEDS_DICTIONARY:
            dictionary = build_dictionary_from_clouds(
                [cloud for _, cloud in train], config, cache
            )
        learner = build_learner(config, dictionary, cache)
        for label, cloud in train:
            learner.teach(label, cloud)
        return [learner.classify(cloud) for cloud in test_clouds]

    return pipeline
