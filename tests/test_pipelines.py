"""Representation/learner wiring: config validation and the learner
wrappers driven by the simulated teacher."""

import contextlib
import dataclasses
import inspect
import json
import math
import re
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openobj.descriptors import compute_feature_set, compute_good
from openobj.evaluation import EvaluationError, LabeledDataset, kfold, metrics, run_protocol
from openobj.nbv import render_virtual
from openobj import descriptors, learning, pipelines, representations
from openobj.learning import (
    InstanceCategory,
    InstanceMemory,
    LearningError,
    chi2,
    log_posterior,
    set_distance,
)
from openobj.pipelines import (
    LEARNERS,
    REPRESENTATIONS,
    ConfigError,
    ExperimentConfig,
    Learner,
    build_dictionary_from_clouds,
    build_learner,
    make_cv_pipeline,
)
from openobj.representations import (
    TopicModel,
    bow_encode,
    build_dictionary,
    lda_infer,
    lda_update,
)
from openobj.synthgen import CategorySpec, generate_dataset

# every representation x learner pair a config accepts
PAIRS = [(rep, mem) for rep in REPRESENTATIONS for mem in LEARNERS
         if (rep, mem) != ("spinset", "bayes")]
# a small, fast setting of the encoders
SMALL = {"voxel": 0.025, "dictionary_size": 20, "topics": 8, "gibbs_iters": 10}


@pytest.fixture(scope="module")
def tiny_dataset():
    categories = [
        CategorySpec("box", "box", (0.12, 0.08, 0.05), points=150, noise_sigma=0.001),
        CategorySpec("sphere", "sphere", (0.05,), points=150, noise_sigma=0.001),
        CategorySpec("cone", "cone", (0.05, 0.13), points=150, noise_sigma=0.001),
    ]
    return LabeledDataset(views=generate_dataset(categories, 10, seed=7))


class TestConfig:
    def test_defaults_valid(self):
        ExperimentConfig()

    def test_bad_representation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(representation="vfh")

    def test_spinset_bayes_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(representation="spinset", learner="bayes")

    def test_ct_with_bayes_rejected(self):
        # only the instance memory can answer UNKNOWN
        ExperimentConfig(learner="instance", ct=0.5)
        with pytest.raises(ConfigError, match="ct"):
            ExperimentConfig(representation="bow", learner="bayes", ct=0.5)

    @pytest.mark.parametrize("name", [
        "voxel", "support_length", "support_angle", "alpha", "beta", "sigma_nbv", "ct",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig(**{name: value})

    @pytest.mark.parametrize("name", ["window_mult", "breakpoint_limit", "views_per_teach"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_teacher_counts_must_be_positive(self, name, value):
        message = f"^{name} must be an integer of at least 1, got {value}$"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**{name: value})

    @pytest.mark.parametrize("name,least", [
        ("seed", 0), ("max_dictionary_pool", 1), ("nbv_resolution", 1),
    ])
    def test_seed_and_sizes_have_a_floor(self, name, least):
        ExperimentConfig(**{name: least})
        message = f"^{name} must be an integer of at least {least}, got {least - 1}$"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**{name: least - 1})

    @pytest.mark.parametrize("name,value", [
        ("tau", 0.0), ("tau", 1.0), ("tau", -0.5), ("window_mult", 0), ("breakpoint_limit", -1),
        ("views_per_teach", 0), ("seed", -1),
    ])
    def test_config_and_protocol_refuse_a_value_in_one_message(self, tiny_dataset, name, value):
        with pytest.raises(ConfigError) as config_error:
            ExperimentConfig(**{name: value})
        with pytest.raises(EvaluationError) as protocol_error:
            run_protocol(tiny_dataset, None, **{name: value})
        assert str(config_error.value) == str(protocol_error.value)

    @pytest.mark.parametrize("name,value", [
        ("image_width", 2.5), ("good_bins", 5.5), ("topics", 3.7), ("seed", 1.0),
        ("folds", "10"),
    ])
    def test_counts_must_be_integers(self, name, value):
        ExperimentConfig(**{name: np.int64(getattr(ExperimentConfig(), name))})
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            ExperimentConfig(**{name: value})

    @pytest.mark.parametrize("angle", [0.0, -10.0, 180.5])
    def test_support_angle_range(self, angle):
        ExperimentConfig(support_angle=180.0)
        with pytest.raises(ConfigError, match="support_angle"):
            ExperimentConfig(support_angle=angle)

    @pytest.mark.parametrize("name,value", [
        ("voxel", "0.01"), ("ct", "x"), ("tau", None), ("alpha", True), ("sigma_nbv", -(10**400)),
    ])
    def test_non_numbers_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be a finite number"):
            ExperimentConfig(**{name: value})

    def test_fields_cannot_be_assigned(self):
        config = ExperimentConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = -1

    @pytest.mark.parametrize("name", ["max_dictionary_pool", "seed"])
    def test_dictionary_build_never_sees_a_negative_value(self, tiny_dataset, name):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer of at least"):
            build_dictionary_from_clouds(tiny_dataset.views["box"], ExperimentConfig(**{name: -1}))

    def test_dictionary_required(self):
        cfg = ExperimentConfig(representation="bow", learner="bayes")
        with pytest.raises(ConfigError):
            build_learner(cfg, dictionary=None)

    @pytest.mark.parametrize("learner", LEARNERS)
    @pytest.mark.parametrize("representation", ["bow", "lda", "local_lda"])
    def test_learner_refuses_to_start_without_a_dictionary(self, representation, learner):
        config = ExperimentConfig(representation=representation, learner=learner)
        with pytest.raises(ConfigError, match=f"{representation} needs a visual-word dictionary"):
            Learner(config)


# (function, parameter, config field): each function's default is the
# config's default for the field it is passed
DEFAULT_WIRING = [
    (compute_good, "n", "good_bins"),
    (compute_feature_set, "voxel", "voxel"),
    (compute_feature_set, "image_width", "image_width"),
    (compute_feature_set, "support_length", "support_length"),
    (compute_feature_set, "support_angle", "support_angle"),
    (build_dictionary, "v", "dictionary_size"),
    (build_dictionary, "seed", "seed"),
    (TopicModel, "alpha", "alpha"),
    (TopicModel, "beta", "beta"),
    (lda_update, "iters", "gibbs_iters"),
    (lda_infer, "iters", "gibbs_iters"),
    (run_protocol, "tau", "tau"),
    (run_protocol, "window_mult", "window_mult"),
    (run_protocol, "breakpoint_limit", "breakpoint_limit"),
    (run_protocol, "views_per_teach", "views_per_teach"),
    (run_protocol, "seed", "seed"),
    (render_virtual, "resolution", "nbv_resolution"),
]


@pytest.mark.parametrize("fn,param,name", DEFAULT_WIRING,
                         ids=[f"{fn.__name__}.{param}" for fn, param, _ in DEFAULT_WIRING])
def test_config_defaults_match_function_defaults(fn, param, name):
    default = inspect.signature(fn).parameters[param].default
    value = getattr(ExperimentConfig(), name)
    assert default == value and type(default) is type(value)


class TestLearnerWrappers:
    def run_protocol_with(self, config, dataset):
        dictionary = None
        if config.representation in ("bow", "lda", "local_lda"):
            clouds = [c for views in dataset.views.values() for c in views]
            dictionary = build_dictionary_from_clouds(clouds, config)
        learner = build_learner(config, dictionary)
        return run_protocol(dataset, learner, seed=1)

    def test_good_instance_protocol(self, tiny_dataset):
        cfg = ExperimentConfig(representation="good", learner="instance", good_bins=5)
        log, summary = self.run_protocol_with(cfg, tiny_dataset)
        assert summary.nlc == 3
        assert summary.gca > 0.8

    def test_spinset_instance_protocol(self, tiny_dataset):
        cfg = ExperimentConfig(
            representation="spinset", learner="instance", voxel=0.025,
            support_length=0.05, nocd_mode="A2",
        )
        log, summary = self.run_protocol_with(cfg, tiny_dataset)
        assert summary.nlc >= 2
        assert summary.qci > 0

    def test_bow_bayes_protocol(self, tiny_dataset):
        cfg = ExperimentConfig(
            representation="bow", learner="bayes", voxel=0.025, dictionary_size=20
        )
        log, summary = self.run_protocol_with(cfg, tiny_dataset)
        assert summary.nlc >= 2

    def test_local_lda_instance_protocol(self, tiny_dataset):
        cfg = ExperimentConfig(
            representation="local_lda", learner="instance", voxel=0.025,
            dictionary_size=20, topics=8, gibbs_iters=10,
        )
        log, summary = self.run_protocol_with(cfg, tiny_dataset)
        assert summary.nlc >= 2

    def test_lda_bayes_protocol(self, tiny_dataset):
        cfg = ExperimentConfig(
            representation="lda", learner="bayes", voxel=0.025,
            dictionary_size=20, topics=8, gibbs_iters=10,
        )
        log, summary = self.run_protocol_with(cfg, tiny_dataset)
        assert summary.nlc >= 2

    def test_spinset_fallback_honours_ct(self, tiny_dataset):
        # One instance per category: no ICD yet, so classify takes the
        # nearest-instance fallback.
        from openobj.learning import UNKNOWN, set_distance

        box, sphere = tiny_dataset.views["box"][0], tiny_dataset.views["sphere"][0]
        plain = build_learner(ExperimentConfig(representation="spinset", voxel=0.025))
        plain.teach("box", box)
        gap = set_distance(plain.features.get(sphere), plain.features.get(box))
        assert gap > 0
        assert plain.classify(sphere) == "box"
        strict = build_learner(
            ExperimentConfig(representation="spinset", voxel=0.025, ct=gap / 2)
        )
        strict.teach("box", box)
        assert all(len(c.instances) == 1 for c in strict.memory.categories.values())
        assert strict.classify(box) == "box"
        assert strict.classify(sphere) == UNKNOWN

    @pytest.mark.parametrize("representation,learner", PAIRS)
    def test_classify_before_teach_raises(self, tiny_dataset, representation, learner):
        cfg = ExperimentConfig(
            representation=representation, learner=learner, voxel=0.025,
            dictionary_size=20, topics=8, gibbs_iters=10,
        )
        dictionary = None
        if representation in ("bow", "lda", "local_lda"):
            dictionary = build_dictionary_from_clouds(tiny_dataset.views["box"][:2], cfg)
        learner = build_learner(cfg, dictionary)
        with pytest.raises(LearningError, match="no categories"):
            learner.classify(tiny_dataset.views["cone"][0])

    @pytest.mark.parametrize("representation", ["lda", "local_lda"])
    @pytest.mark.parametrize("learner", LEARNERS)
    def test_empty_memory_refused_before_encoding(self, tiny_dataset, representation, learner):
        # a learner taught nothing refuses a query before it describes the
        # view or runs a Gibbs chain
        cfg = ExperimentConfig(representation=representation, learner=learner, voxel=0.025,
                               dictionary_size=20, topics=8, gibbs_iters=10)
        dictionary = build_dictionary_from_clouds(tiny_dataset.views["box"][:2], cfg)
        learner = build_learner(cfg, dictionary)
        real = {"lda_infer": lda_infer, "compute_feature_set": compute_feature_set}
        spies = {name: mock.Mock(wraps=fn) for name, fn in real.items()}
        with contextlib.ExitStack() as patches:
            for module in (representations, descriptors, pipelines):
                for name, fn in real.items():
                    if getattr(module, name, None) is fn:
                        patches.enter_context(mock.patch.object(module, name, spies[name]))
            with pytest.raises(LearningError, match="^no categories in memory$"):
                learner.classify(tiny_dataset.views["cone"][0])
        assert [spy.call_count for spy in spies.values()] == [0, 0]

    @pytest.mark.parametrize("learner_kind", LEARNERS)
    def test_local_lda_queries_go_to_the_memory_scorer(self, tiny_dataset, learner_kind):
        # the query is represented in each category's own topic space and
        # scored there: chi-squared to the nearest instance, or the Bayes
        # log posterior, with ties to the earliest taught label
        cfg = ExperimentConfig(
            representation="local_lda", learner=learner_kind, voxel=0.025,
            dictionary_size=20, topics=8, gibbs_iters=10,
        )
        clouds = [c for views in tiny_dataset.views.values() for c in views]
        learner = build_learner(cfg, build_dictionary_from_clouds(clouds, cfg))
        for label in ("cone", "box", "sphere"):
            for cloud in tiny_dataset.views[label][:3]:
                learner.teach(label, cloud)
        scorer = "bayes_classify" if learner.bayes else "classify_instances"
        real, predictions = getattr(pipelines, scorer), []

        def record(*args):
            predictions.append(real(*args))
            return predictions[-1]

        with mock.patch.object(pipelines, scorer, side_effect=record):
            for label in ("box", "sphere", "cone"):
                for cloud in tiny_dataset.views[label][3:6]:
                    doc = learner._doc(cloud)
                    views = {lab: lda_infer(m, doc, cfg.gibbs_iters)
                             for lab, m in learner.models.items()}
                    if learner.bayes:
                        scores = {lab: log_posterior(learner.memory, lab, views[lab].counts)
                                  for lab in learner.memory.categories}
                        best = max(scores, key=scores.get)
                    else:
                        scores = {c.label: min(chi2(views[c.label].theta, inst)
                                               for inst in c.instances)
                                  for c in learner.memory.categories.values()}
                        best = min(scores, key=scores.get)
                    assert learner.classify(cloud) == best
                    assert predictions[-1].scores == scores
                    assert list(scores) == ["cone", "box", "sphere"]
        assert len(predictions) == 9

    def test_stored_instances_match_log(self, tiny_dataset):
        cfg = ExperimentConfig(representation="good", learner="instance", good_bins=5)
        learner = build_learner(cfg)
        log, summary = run_protocol(tiny_dataset, learner, seed=2)
        taught = sum(1 for e in log.events if e.action in ("teach", "correct"))
        assert sum(len(c.instances) for c in learner.memory.categories.values()) == taught


    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    def test_memory_resumes_from_json(self, tiny_dataset, representation):
        # teaching half, saving and loading the memory and teaching the rest
        # stores and answers what teaching everything does
        cfg = ExperimentConfig(representation=representation, voxel=0.025,
                               dictionary_size=20, topics=8, gibbs_iters=10)
        views = tiny_dataset.views
        dictionary = None
        if representation in ("bow", "lda", "local_lda"):
            dictionary = build_dictionary_from_clouds([v[0] for v in views.values()], cfg)
        lessons = [(label, views[label][i]) for i in range(4) for label in views]
        whole, resumed = build_learner(cfg, dictionary), build_learner(cfg, dictionary)
        for n, (label, cloud) in enumerate(lessons):
            if n == len(lessons) // 2:
                saved = json.dumps(resumed.memory.to_json_dict())
                resumed.memory = InstanceMemory.from_json_dict(json.loads(saved))
            whole.teach(label, cloud)
            resumed.teach(label, cloud)
        assert resumed.memory.to_json_dict() == whole.memory.to_json_dict()
        for cloud in (c for label in views for c in views[label][4:7]):
            assert resumed.classify(cloud) == whole.classify(cloud)

    def test_teach_and_classify_look_the_memory_functions_up_per_call(self, tiny_dataset):
        # a tracer swaps these module names after the learners are built
        cfg = {"voxel": 0.025, "dictionary_size": 20, "topics": 8, "gibbs_iters": 10}
        clouds = [views[0] for views in tiny_dataset.views.values()]
        learners = []
        for rep in REPRESENTATIONS:
            dictionary = None
            if rep in ("bow", "lda", "local_lda"):
                dictionary = build_dictionary_from_clouds(clouds, ExperimentConfig(**cfg))
            learners += [build_learner(ExperimentConfig(representation=rep, learner=mem, **cfg),
                                       dictionary)
                         for mem in LEARNERS if (rep, mem) != ("spinset", "bayes")]
        assert len(learners) == 9
        names = ("bayes_teach", "instance_teach", "classify_instances", "bayes_classify")
        with contextlib.ExitStack() as patches:
            spies = {name: patches.enter_context(
                mock.patch.object(pipelines, name, wraps=getattr(pipelines, name)))
                for name in names}
            for learner in learners:
                assert not {"teach", "classify"} & set(vars(learner))
                calls = [spy.call_count for spy in spies.values()]
                learner.teach("box", clouds[0])
                learner.classify(clouds[1])
                pair = ("bayes_teach", "bayes_classify") if learner.bayes else \
                    ("instance_teach", "classify_instances")
                assert [spy.call_count for spy in spies.values()] == [
                    n + (name in pair) for n, name in zip(calls, names)]

    @pytest.mark.parametrize("representation", ["lda", "local_lda"])
    def test_topic_models_by_scope_and_their_chains(self, tiny_dataset, representation):
        # learner.models maps each model's scope to it; a teach folds the view
        # into its scope's model and infers it there, and a query infers once
        # per model and folds nothing in
        cfg = ExperimentConfig(representation=representation, voxel=0.025,
                               dictionary_size=20, topics=8, gibbs_iters=10)
        views = tiny_dataset.views
        learner = build_learner(cfg, build_dictionary_from_clouds(
            [v[0] for v in views.values()], cfg))
        lda = representation == "lda"
        assert list(learner.models) == (["shared"] if lda else [])
        assert not hasattr(learner, "model")
        with contextlib.ExitStack() as patches:
            # each spy takes every module name bound to its function, as the
            # benchmark's tracer does
            real = {name: getattr(representations, name) for name in ("lda_update", "lda_infer")}
            spies = {name: mock.Mock(wraps=fn) for name, fn in real.items()}
            for module in (representations, pipelines):
                for name, fn in real.items():
                    if getattr(module, name, None) is fn:
                        patches.enter_context(mock.patch.object(module, name, spies[name]))
            update, infer = spies.values()
            for i, label in enumerate(["sphere", "box", "sphere", "cone"]):
                update.reset_mock()
                infer.reset_mock()
                learner.teach(label, views[label][i])
                model = learner.models["shared" if lda else label]
                assert [c.args[0] for c in update.call_args_list] == [model]
                assert [c.args[0] for c in infer.call_args_list] == [model]
            assert list(learner.models) == (["shared"] if lda else ["sphere", "box", "cone"])
            assert all(model.scope == key for key, model in learner.models.items())
            update.reset_mock()
            infer.reset_mock()
            learner.classify(views["cone"][5])
            assert update.call_count == 0
            assert [c.args[0] for c in infer.call_args_list] == list(learner.models.values())
            assert infer.call_count == (1 if lda else 3)

    @pytest.mark.parametrize("representation,learner", PAIRS)
    @pytest.mark.parametrize("label", [5, None, ("mug",)], ids=repr)
    def test_refused_label_changes_nothing(self, tiny_dataset, representation, learner, label):
        # the label is checked before the view reaches a model or the memory
        cfg = ExperimentConfig(representation=representation, learner=learner, **SMALL)
        views = tiny_dataset.views
        dictionary = None
        if representation in ("bow", "lda", "local_lda"):
            dictionary = build_dictionary_from_clouds([v[0] for v in views.values()], cfg)
        learner = build_learner(cfg, dictionary)
        learner.teach("box", views["box"][0])

        def state():
            return (learner.memory.to_json_dict(),
                    {scope: model.to_json_dict() for scope, model in learner.models.items()})

        before = state()
        message = f"^label must be a string, got {re.escape(repr(label))}$"
        with pytest.raises(LearningError, match=message):
            learner.teach(label, views["sphere"][0])
        assert state() == before

    @pytest.mark.parametrize("representation", ["lda", "local_lda"])
    def test_each_topic_model_is_built_once_from_the_config(self, tiny_dataset, representation):
        # lda's shared model is built with the learner and seeded by the
        # config's seed; a local_lda category's model is built on its first
        # teach, seeded by its label's CRC-32 XOR the config's seed, and
        # later teaches of other categories leave it as it was
        cfg = ExperimentConfig(representation=representation, alpha=0.5, beta=0.2, seed=3,
                               **SMALL)
        views = tiny_dataset.views
        dictionary = build_dictionary_from_clouds([v[0] for v in views.values()], cfg)
        learner = build_learner(cfg, dictionary)
        lda = representation == "lda"
        for i, label in enumerate(["sphere", "box", "sphere"]):
            learner.teach(label, views[label][i])
        frozen = {scope: model.to_json_dict() for scope, model in learner.models.items()}
        learner.teach("cone", views["cone"][0])
        for scope, model in learner.models.items():
            assert model.scope == scope
            assert (model.k, model.v, model.alpha, model.beta) == (8, 20, 0.5, 0.2)
            assert model.rng_seed == (3 if lda else zlib.crc32(scope.encode()) ^ 3)
            assert model.n_updates == (4 if lda else 1 + (scope == "sphere"))
            if not lda and scope != "cone":
                assert model.to_json_dict() == frozen[scope]
        assert list(learner.models) == (["shared"] if lda else ["sphere", "box", "cone"])

    @pytest.mark.parametrize("representation", ["lda", "local_lda"])
    def test_topic_models_resume_from_json(self, tiny_dataset, representation):
        # a learner whose models are saved and loaded midway teaches and
        # answers as one that kept them
        cfg = ExperimentConfig(representation=representation, **SMALL)
        views = tiny_dataset.views
        dictionary = build_dictionary_from_clouds([v[0] for v in views.values()], cfg)
        whole, resumed = build_learner(cfg, dictionary), build_learner(cfg, dictionary)
        for label in views:
            whole.teach(label, views[label][0])
            resumed.teach(label, views[label][0])
        saved = json.dumps({scope: m.to_json_dict() for scope, m in resumed.models.items()})
        resumed.models = {scope: TopicModel.from_json_dict(data)
                          for scope, data in json.loads(saved).items()}
        for label in views:
            whole.teach(label, views[label][1])
            resumed.teach(label, views[label][1])
        assert ({scope: m.to_json_dict() for scope, m in resumed.models.items()}
                == {scope: m.to_json_dict() for scope, m in whole.models.items()})
        assert resumed.memory.to_json_dict() == whole.memory.to_json_dict()
        for cloud in (views[label][5] for label in views):
            assert resumed.classify(cloud) == whole.classify(cloud)


class TestCvPipeline:
    def test_good_cv_runs(self, tiny_dataset):
        cfg = ExperimentConfig(representation="good", learner="instance", good_bins=5)
        cm = kfold(tiny_dataset, k=5, pipeline=make_cv_pipeline(cfg), seed=0)
        assert metrics(cm)["accuracy"] > 0.8

    def test_lda_instance_cv_runs(self, tiny_dataset):
        cfg = ExperimentConfig(
            representation="lda", learner="instance", voxel=0.025,
            dictionary_size=20, topics=8, gibbs_iters=10,
        )
        cm = kfold(tiny_dataset, k=3, pipeline=make_cv_pipeline(cfg), seed=0)
        assert cm.total == 30


class TestFeatureCache:
    def test_freed_cloud_id_never_serves_stale_features(self, tiny_dataset):
        # Each view is copied into a fresh cloud that is dropped right after
        # use, so CPython readily hands a later copy the same id. The cache
        # must still return each copy's own spin images and GOOD bins.
        from openobj.descriptors import compute_feature_set, compute_good
        from openobj.pipelines import _FeatureCache
        from openobj.pointcloud import PointCloud

        config = ExperimentConfig(representation="spinset")
        cache = _FeatureCache(config)
        views = [v for views in tiny_dataset.views.values() for v in views[:3]]
        for view in views:
            cloud = PointCloud(view.points.copy())
            got = cache.get(cloud)
            want = compute_feature_set(
                cloud, voxel=config.voxel, image_width=config.image_width,
                support_length=config.support_length, support_angle=config.support_angle,
            ).as_matrix()
            assert np.array_equal(got, want)
            del cloud
        for view in views:
            cloud = PointCloud(view.points.copy())
            want = compute_good(cloud, n=config.good_bins).bins
            assert np.array_equal(cache.good(cloud), want)
            del cloud

    @pytest.mark.parametrize("representation", ["good", "spinset"])
    def test_one_off_queries_leave_no_entries(self, tiny_dataset, representation):
        # Table-top candidates are classified once and dropped; their
        # features must go with them.
        from openobj.pointcloud import PointCloud

        learner = build_learner(ExperimentConfig(representation=representation, voxel=0.02))
        taught = [(label, views[:2]) for label, views in tiny_dataset.views.items()]
        for label, views in taught:
            for view in views:
                learner.teach(label, view)
        query = tiny_dataset.views["box"][5]
        for _ in range(50):
            learner.classify(PointCloud(query.points.copy()))
        assert len(learner.features._store) == 6

    def test_clouds_do_not_keep_a_discarded_cache_alive(self, tiny_dataset):
        import gc
        import weakref

        from openobj.pipelines import _FeatureCache

        cache = _FeatureCache(ExperimentConfig())
        cloud = tiny_dataset.views["box"][0]
        cache.good(cloud)
        ref = weakref.ref(cache)
        del cache
        gc.collect()
        assert ref() is None

    def test_cv_computes_good_once_per_view(self, tiny_dataset, monkeypatch):
        from openobj import pipelines

        calls = []
        original = pipelines.compute_good

        def counted(cloud, *args, **kwargs):
            calls.append(cloud)
            return original(cloud, *args, **kwargs)

        monkeypatch.setattr(pipelines, "compute_good", counted)
        cfg = ExperimentConfig(representation="good", learner="instance", good_bins=5)
        kfold(tiny_dataset, k=5, pipeline=make_cv_pipeline(cfg), seed=0)
        assert len(calls) == len({id(c) for c in calls}) == 30


@st.composite
def count_matrices(draw):
    """(n, d) integer counts up to 255 or 2**16, holding an entry of at
    least 16, where uint8 x**2 wraps, and one of at least 128, where uint8
    2 * x does too."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(6, 30)), draw(st.integers(1, 12))
    high = draw(st.sampled_from([255, 2**16]))
    counts = rng.integers(0, draw(st.integers(1, high)) + 1, size=(n, d))
    counts.flat[rng.choice(n * d, size=2, replace=False)] = (
        draw(st.integers(16, 127)), draw(st.integers(128, high)))
    return counts.astype(np.float64), draw(st.integers(2, 4))


class TestCompactCounts:
    """The feature cache holds spin images in the smallest exact integer type,
    and every consumer gives the bits it gives for float64 counts."""

    @settings(max_examples=100, deadline=None)
    @given(count_matrices())
    def test_consumers_match_float64(self, case):
        matrix, v = case
        compact = pipelines._compact_counts(matrix)
        assert compact.dtype == np.min_scalar_type(int(matrix.max()))
        assert not compact.flags.writeable
        np.testing.assert_array_equal(compact.astype(np.float64), matrix)
        split = len(matrix) // 2
        parts, float_parts = [compact[:split], compact[split:]], [matrix[:split], matrix[split:]]
        # capped and uncapped pools
        for cap in (len(matrix), len(matrix) - 1):
            pool = pipelines.collect_feature_pool(float_parts, cap, 3)
            dictionary = build_dictionary(pool, v=v)
            pool = pipelines.collect_feature_pool(parts, cap, 3)
            assert build_dictionary(pool, v=v).words.tobytes() == dictionary.words.tobytes()
        np.testing.assert_array_equal(bow_encode(compact, dictionary),
                                      bow_encode(matrix, dictionary))
        learner = Learner(ExperimentConfig(representation="lda"), dictionary,
                          features=mock.Mock(get=lambda cloud: compact))
        want = pipelines._assign(matrix, dictionary.words)
        np.testing.assert_array_equal(learner._doc(None), want)
        for a, b in ((parts[0], parts[1]), (parts[1], parts[0])):
            want = set_distance(a.astype(np.float64), b.astype(np.float64))
            assert set_distance(a, b) == want

    def test_cv_fold_caches_uint8(self, tiny_dataset, monkeypatch):
        caches = []

        class Recorded(pipelines._FeatureCache):
            def __init__(self, config):
                super().__init__(config)
                caches.append(self)

        monkeypatch.setattr(pipelines, "_FeatureCache", Recorded)
        pipeline = make_cv_pipeline(ExperimentConfig(representation="bow", learner="bayes",
                                                     dictionary_size=10))
        views = [(label, view) for label, views in tiny_dataset.views.items() for view in views]
        pipeline(views[1:], [views[0][1]])
        (cache,) = caches
        for _, view in views:
            spin = cache._store[view]["spin"]
            assert spin.dtype == np.uint8 and not spin.flags.writeable
            assert spin.nbytes == len(spin) * 45

    def test_spinset_memory_saves_integers(self, tiny_dataset):
        learner = build_learner(ExperimentConfig(representation="spinset"))
        for view in tiny_dataset.views["box"][:3]:
            learner.teach("box", view)
        (category,) = learner.memory.categories.values()
        assert all(inst.dtype == np.uint8 for inst in category.instances)
        saved = category.to_json_dict()
        assert all(isinstance(x, int) for inst in saved["instances"] for row in inst for x in row)
        loaded = InstanceCategory.from_json_dict(saved)
        assert loaded.to_json_dict() == saved
        query = tiny_dataset.views["box"][5]
        for inst, back in zip(category.instances, loaded.instances):
            assert back.dtype == np.uint8
            np.testing.assert_array_equal(back, inst)
            assert set_distance(learner.features.get(query), back) == \
                set_distance(learner.features.get(query), inst)

    def test_bow_counts_reach_both_memories_alike(self, tiny_dataset):
        clouds = [c for views in tiny_dataset.views.values() for c in views]
        encoded = []
        for learner in ("instance", "bayes"):
            config = ExperimentConfig(representation="bow", learner=learner, dictionary_size=10)
            built = pipelines.build_learner_from_pool(config, clouds)
            encoded.append(built._encode(clouds[0]))
            built.teach("box", clouds[0])
        instance, bayes = encoded
        assert instance.dtype == bayes.dtype == np.int64 and np.array_equal(instance, bayes)


class TestIcdWork:
    """The ICD is read, never kept current: a protocol computes each pair of
    a category once, and a learner that never reads an ICD computes none."""

    @staticmethod
    def protocol_spied(config, dataset):
        learner = pipelines.build_learner_from_pool(
            config, [c for views in dataset.views.values() for c in views])
        with mock.patch.object(learning, "set_distance", wraps=learning.set_distance) as pairs, \
                mock.patch.object(learning, "icd", wraps=learning.icd) as reads:
            run_protocol(dataset, learner, seed=0)
        return learner, pairs, reads

    def test_no_pair_is_computed_twice(self, tiny_dataset):
        learner, pairs, reads = self.protocol_spied(
            ExperimentConfig(representation="spinset"), tiny_dataset)

        def key(x):  # names one instance, as the first assert checks
            return x.shape, x.tobytes()

        stored = [inst for cat in learner.memory.categories.values() for inst in cat.instances]
        assert len({key(x) for x in stored}) == len(stored)
        computed = [(key(call.args[0]), key(call.args[1])) for call in pairs.call_args_list]
        assert reads.call_count > 0 and computed
        assert len(set(computed)) == len(computed)
        sizes = [len(cat.instances) for cat in learner.memory.categories.values()]
        assert len(computed) <= sum(n * (n - 1) for n in sizes)

    def test_nn_fixed_does_no_icd_work(self, tiny_dataset):
        _, pairs, reads = self.protocol_spied(
            ExperimentConfig(representation="good", good_bins=5), tiny_dataset)
        assert (reads.call_count, pairs.call_count) == (0, 0)
