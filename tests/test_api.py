"""Each library module's ``__all__`` lists exactly its public names, each
frozen parameter record checks every field by the one field rule, each
JSON record keeps its keys, each record that holds arrays compares by
identity, and every count argument takes an integer."""

import importlib
import inspect
import math
from dataclasses import fields

import numpy as np
import pytest

from openobj.descriptors import DescriptorError, FeatureSet, GoodDescriptor, compute_spin_image
from openobj.evaluation import (
    ConfusionMatrix,
    EvaluationError,
    LabeledDataset,
    ProtocolEvent,
    ProtocolLog,
    kfold,
    replay_accuracies,
    run_protocol,
)
from openobj.learning import (
    BayesCategory,
    BayesMemory,
    InstanceCategory,
    InstanceMemory,
    bayes_teach,
    instance_teach,
)
from openobj.nbv import CameraPose
from openobj.pipelines import ConfigError, ExperimentConfig
from openobj.pointcloud import PointCloud, ReferenceFrame
from openobj.representations import (
    Dictionary,
    RepresentationError,
    TopicHistogram,
    TopicModel,
    build_dictionary,
    lda_infer,
    lda_update,
)
from openobj.segmentation import Plane, SegmentationError, SegmentationParams, ransac_plane
from openobj.synthgen import CategorySpec, ShapeSpec, SynthgenError, generate_dataset

LIBRARY_MODULES = [
    "descriptors", "evaluation", "learning", "nbv", "pipelines", "pointcloud",
    "representations", "segmentation", "synthgen",
]


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_all_lists_every_public_definition(name):
    module = importlib.import_module(f"openobj.{name}")
    assert all(hasattr(module, exported) for exported in module.__all__)
    defined = [
        attr for attr, value in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    ]
    assert sorted(set(defined) - set(module.__all__)) == []


SHAPE = {"kind": "box", "dimensions": (0.1, 0.1, 0.1)}
# (record, its module's error, the arguments it needs)
FROZEN_RECORDS = [
    (ExperimentConfig, ConfigError, {}),
    (SegmentationParams, SegmentationError, {}),
    (ShapeSpec, SynthgenError, SHAPE),
    (CategorySpec, SynthgenError, {"name": "box", **SHAPE}),
]
# a value each annotation refuses
REFUSED = {"int": 2.5, "float": math.nan, "float | None": math.nan}


@pytest.mark.parametrize("record,error,required", FROZEN_RECORDS,
                         ids=[r.__name__ for r, _, _ in FROZEN_RECORDS])
def test_field_rule_covers_every_field(record, error, required):
    record(**required)
    checked = [f for f in fields(record) if f.type in REFUSED]
    assert checked
    for f in checked:
        with pytest.raises(error, match=f"^{f.name} must be an? "):
            record(**{**required, f.name: REFUSED[f.type]})


def sample_records():
    """One record of each JSON record class, built as the library builds it."""
    instances = InstanceCategory("mug")
    for x in ([0.0, 1.0], [1.0, 0.0], [2.0, 2.0]):
        instances.add(np.array(x))
    model = TopicModel(k=2, v=3)
    lda_update(model, [0, 2, 2], iters=2)
    memory = BayesMemory()
    bayes_teach(memory, "mug", np.array([1, 0, 2]))
    taught = InstanceMemory()
    instance_teach(taught, "mug", np.array([[1, 2], [3, 4]], dtype=np.uint8))
    return [
        Dictionary(np.eye(2)),
        model,
        instances,
        memory.categories["mug"],
        memory,
        ProtocolEvent(iteration=1, action="ask", category="mug", view_id=4, predicted="mug",
                      correct=True, accuracy=1.0, known=2),
        taught,
    ]


JSON_KEYS = {
    Dictionary: {"words"},
    TopicModel: {"scope", "k", "v", "alpha", "beta", "rng_seed", "n_updates", "n_wk", "n_k"},
    InstanceCategory: {"label", "instances"},
    BayesCategory: {"n_k", "accumulators"},
    BayesMemory: {"categories"},
    InstanceMemory: {"categories"},
    ProtocolEvent: {"iteration", "action", "category", "view_id", "predicted", "correct",
                    "accuracy", "known"},
}


def test_json_keys_are_pinned():
    records = sample_records()
    assert {type(r) for r in records} == set(JSON_KEYS)
    for record in records:
        assert set(record.to_json_dict()) == JSON_KEYS[type(record)]
    assert set(records[4].to_json_dict()["categories"]["mug"]) == JSON_KEYS[BayesCategory]
    assert set(records[6].to_json_dict()["categories"]["mug"]) == JSON_KEYS[InstanceCategory]


# records that hold arrays; two calls of a builder give records of equal contents
ARRAY_RECORDS = {
    ReferenceFrame: lambda: ReferenceFrame(np.zeros(3), np.eye(3)),
    Plane: lambda: Plane(np.array([0.0, 0, 1]), 0.5, [1, 2]),
    FeatureSet: lambda: FeatureSet(np.ones((2, 4)), np.zeros((2, 3)), np.zeros((2, 3))),
    GoodDescriptor: lambda: GoodDescriptor(
        np.ones(3), 1, ReferenceFrame(np.zeros(3), np.eye(3)), (0, 1, 2)
    ),
    Dictionary: lambda: Dictionary(np.eye(2)),
    TopicHistogram: lambda: TopicHistogram(np.array([0.25, 0.75]), np.array([1, 3])),
    TopicModel: lambda: TopicModel(k=2, v=3),
    InstanceCategory: lambda: InstanceCategory("mug", [[1.0, 2.0], [3.0, 4.0]]),
    InstanceMemory: lambda: InstanceMemory({"mug": InstanceCategory("mug", [[1.0, 2.0]])}),
    BayesCategory: lambda: BayesCategory(1, np.array([1, 2])),
    BayesMemory: lambda: BayesMemory({"mug": BayesCategory(1, np.array([1, 2]))}),
    ConfusionMatrix: lambda: ConfusionMatrix(("a", "b"), np.eye(2, dtype=int)),
    CameraPose: lambda: CameraPose(np.eye(3), np.zeros(3)),
    ShapeSpec: lambda: ShapeSpec(**SHAPE),
}


@pytest.mark.parametrize("build", ARRAY_RECORDS.values(), ids=[c.__name__ for c in ARRAY_RECORDS])
def test_array_records_compare_by_identity(build):
    a, b = build(), build()
    assert a == a and not a == b and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


def dataset():
    return LabeledDataset(views={"a": [0, 1], "b": [2, 3]})


CLOUD = PointCloud(np.random.default_rng(0).uniform(size=(20, 3)))
# (argument, its least value, its module's error, a call that passes it)
COUNT_ARGUMENTS = [
    ("iters", 1, RepresentationError, lambda n: lda_update(TopicModel(k=2, v=3), [0, 1], n)),
    ("iters", 1, RepresentationError, lambda n: lda_infer(TopicModel(k=2, v=3), [0, 1], n)),
    ("dictionary size", 2, RepresentationError,
     lambda n: build_dictionary(np.eye(4), v=n)),
    ("k", 2, EvaluationError, lambda n: kfold(dataset(), n, pipeline=None)),
    ("window_mult", 1, EvaluationError, lambda n: run_protocol(dataset(), None, window_mult=n)),
    ("breakpoint_limit", 1, EvaluationError,
     lambda n: run_protocol(dataset(), None, breakpoint_limit=n)),
    ("views_per_teach", 1, EvaluationError,
     lambda n: run_protocol(dataset(), None, views_per_teach=n)),
    ("window_mult", 1, EvaluationError, lambda n: replay_accuracies(ProtocolLog(), n)),
    ("views_per_category", 1, SynthgenError,
     lambda n: generate_dataset([CategorySpec("a", "sphere", (0.1,))], n)),
    ("iterations", 1, SegmentationError, lambda n: ransac_plane(CLOUD, 0.1, n, 0)),
    ("image width", 1, DescriptorError,
     lambda n: compute_spin_image(CLOUD, np.zeros(3), np.array([0.0, 0.0, 1.0]), n)),
]


@pytest.mark.parametrize("name,least,error,call", COUNT_ARGUMENTS,
                         ids=[f"{name}-{error.__name__}" for name, _, error, _ in COUNT_ARGUMENTS])
@pytest.mark.parametrize("value", ["fraction", "bool", "below"])
def test_count_arguments_take_integers_from_their_floor(name, least, error, call, value):
    bad = {"fraction": least + 0.5, "bool": True, "below": least - 1}[value]
    with pytest.raises(error, match=f"^{name} must be an integer of at least {least}"):
        call(bad)
