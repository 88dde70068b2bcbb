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

import weakref
import zlib
from dataclasses import dataclass

import numpy as np

from . import descriptors, evaluation, nbv, representations
from .descriptors import compute_feature_set, compute_good
from .errors import (OpenobjError, check_count, check_fields, check_fraction, check_positive,
                     seeded)
from .learning import (BayesMemory, InstanceMemory, LearningError, _compact_counts, bayes_classify,
                       bayes_teach, check_label, classify_instances, instance_teach)
from .representations import (Dictionary, RepresentationError, TopicModel, _assign, bow_encode,
                              build_dictionary, lda_infer, lda_update)

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
_NEEDS_DICTIONARY = {"bow", "lda", "local_lda"}


class ConfigError(OpenobjError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of an experiment, checked when built (ConfigError names a
    bad field). A default a library function shares is its module's DEFAULT_*."""

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

    def __post_init__(self):
        check_fields(self, ConfigError)
        if self.representation not in REPRESENTATIONS:
            raise ConfigError(f"unknown representation {self.representation!r}")
        if self.learner not in LEARNERS:
            raise ConfigError(f"unknown learner {self.learner!r}")
        if self.representation == "spinset" and self.learner == "bayes":
            raise ConfigError("the Bayes learner needs a fixed-size representation")
        if self.ct is not None and self.learner == "bayes":
            # only the instance memory can return UNKNOWN
            raise ConfigError("ct applies to the instance learner only")
        for name, least in (("good_bins", 2), ("image_width", 1), ("dictionary_size", 2),
                            ("topics", 1), ("gibbs_iters", 1), ("folds", 2), ("window_mult", 1),
                            ("breakpoint_limit", 1), ("views_per_teach", 1), ("seed", 0),
                            ("max_dictionary_pool", 1), ("nbv_resolution", 1)):
            check_count(name, getattr(self, name), least, ConfigError)
        for name in ("voxel", "support_length", "support_angle", "alpha", "beta", "sigma_nbv"):
            check_positive(name, getattr(self, name), ConfigError)
        if self.support_angle > 180:
            raise ConfigError(f"support_angle must be at most 180, got {self.support_angle!r}")
        check_fraction("tau", self.tau, ConfigError)
        if self.nocd_mode not in ("A1", "A2"):
            raise ConfigError("nocd_mode must be A1 or A2")

    def spin_image_args(self) -> dict:
        """compute_feature_set's keyword arguments."""
        names = ("voxel", "image_width", "support_length", "support_angle")
        return {name: getattr(self, name) for name in names}


class _FeatureCache:
    """Per-view features, computed once and shared by the dictionary pool,
    the learner and every cross-validation fold: the (k, d) spin-image
    matrix (``get``) and the GOOD bins (``good``).

    Spin images are point counts, so ``get`` holds each view's matrix,
    read-only, in the smallest unsigned integer type that holds its largest
    count (uint8 on every benchmark view): a byte per count where float64
    takes eight. Every consumer converts to float64 before it computes, so
    results are the same bit for bit.

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
            lambda: _compact_counts(
                compute_feature_set(cloud, **self.config.spin_image_args()).as_matrix()
            ),
        )

    def good(self, cloud) -> np.ndarray:
        return self._lookup(
            "good", cloud, lambda: compute_good(cloud, n=self.config.good_bins).bins
        )

    def _lookup(self, kind, cloud, compute):
        per_view = self._store.setdefault(cloud, {})
        if kind not in per_view:
            per_view[kind] = compute()
        return per_view[kind]


def collect_feature_pool(matrices, cap: int, seed: int) -> np.ndarray:
    """Stack (k, d) feature matrices, subsampling (seeded) past the cap:
    the pool is the stack's rows at ``cap`` indices drawn without
    replacement, in the order drawn."""
    check_count("cap", cap, 1, RepresentationError)
    matrices = [np.atleast_2d(m) for m in matrices]
    if not matrices or len({m.shape[1:] for m in matrices}) > 1:
        raise RepresentationError("need one or more feature matrices of equal width")
    stack = np.concatenate(matrices)
    if len(stack) <= cap:
        return stack
    return stack[seeded(seed, RepresentationError).choice(len(stack), size=cap, replace=False)]


# ---------------------------------------------------------------------------
# The learner: one encoder feeding one memory
# ---------------------------------------------------------------------------

class Learner:
    """teach/classify over raw point clouds. ``config.representation``
    picks the encoder (good, spinset, bow, lda, local_lda) and
    ``config.learner`` the memory, one record either way: an
    InstanceMemory (instance) or a BayesMemory (bayes).

    The instance memory scores by the nearest stored instance (L2 on GOOD
    and BoW, chi-squared on topic proportions), or for spin-image sets,
    the only ones whose ICD is read, by the normalized object-category
    distance; it returns UNKNOWN when the best score exceeds ``config.ct``.
    The Bayes memory keeps counts. Mode and metric are set when built.

    The topic encoders keep their models in ``models``, keyed by
    TopicModel.scope: {"shared": model} from construction for lda, one
    model per taught category, in teach order, for local_lda, each built
    by ``_new_model``. A teach checks its label before it touches a model
    or the memory.
    """

    def __init__(self, config: ExperimentConfig, dictionary: Dictionary | None = None,
                 features: _FeatureCache | None = None):
        if config.representation in _NEEDS_DICTIONARY and dictionary is None:
            raise ConfigError(f"{config.representation} needs a visual-word dictionary")
        self.config = config
        self.dictionary = dictionary
        self.features = features or _FeatureCache(config)
        self.bayes = config.learner == "bayes"
        self.memory = BayesMemory() if self.bayes else InstanceMemory()
        rep = config.representation
        self.mode = config.nocd_mode if rep == "spinset" else "nn_fixed"
        self.metric = "chi2" if rep in ("lda", "local_lda") else "L2"
        self.models: dict[str, TopicModel] = {}
        if rep == "lda":
            self.models["shared"] = self._new_model("shared")

    def _new_model(self, scope: str) -> TopicModel:
        """An empty topic model for ``scope``, seeded by config.seed for
        lda's shared model and by the CRC-32 of the label XOR config.seed
        for a local_lda category's."""
        c = self.config
        seed = c.seed if c.representation == "lda" else zlib.crc32(scope.encode()) ^ c.seed
        return TopicModel(k=c.topics, v=self.dictionary.size, alpha=c.alpha, beta=c.beta,
                          scope=scope, rng_seed=seed)

    def teach(self, category, cloud):
        check_label(category)
        x = self._encode(cloud, category)
        if self.bayes:
            bayes_teach(self.memory, category, x)
        else:
            instance_teach(self.memory, category, x)

    def classify(self, cloud):
        # an empty memory is refused before the view is described or encoded
        if not self.memory.categories:
            raise LearningError("no categories in memory")
        target = self._encode(cloud)
        if self.bayes:
            return bayes_classify(self.memory, target).label
        return classify_instances(target, self.memory, self.mode, self.metric, self.config.ct).label

    # -- encoders ------------------------------------------------------------

    def _encode(self, cloud, category=None):
        """The view as the memory stores it. Teaching (a ``category``) first
        folds the view into models[scope], whose scope is "shared" for lda
        and the category for local_lda, whose model is built on first
        contact and stored once the view is folded in; the view is then
        inferred against that model. A local_lda query is a mapping from
        each category to the view in that category's topic space."""
        rep = self.config.representation
        if rep == "good":
            return self.features.good(cloud)
        if rep == "spinset":
            return self.features.get(cloud)
        if rep == "bow":
            return bow_encode(self.features.get(cloud), self.dictionary)
        doc = self._doc(cloud)
        if rep == "local_lda" and category is None:
            return {label: self._topics(doc, model) for label, model in self.models.items()}
        scope = category if rep == "local_lda" else "shared"
        if category is not None:
            model = self.models.get(scope) or self._new_model(scope)
            self.models[scope] = lda_update(model, doc, self.config.gibbs_iters)
        return self._topics(doc, self.models[scope])

    def _doc(self, cloud):
        return _assign(self.features.get(cloud), self.dictionary.words)

    def _topics(self, doc, model):
        inferred = lda_infer(model, doc, self.config.gibbs_iters)
        return inferred.counts if self.bayes else inferred.theta


def build_learner(config: ExperimentConfig, dictionary: Dictionary | None = None,
                  features: _FeatureCache | None = None) -> Learner:
    """The learner for the config's representation/learner combination."""
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
    cache = _FeatureCache(config)

    def pipeline(train, test_clouds):
        learner = build_learner_from_pool(config, [cloud for _, cloud in train], cache)
        for label, cloud in train:
            learner.teach(label, cloud)
        return [learner.classify(cloud) for cloud in test_clouds]

    return pipeline
