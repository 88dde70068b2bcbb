"""Fuzzed input files, parameter records and record JSON: the readers
either return or raise an OpenobjError, and a record is either built or
loaded or raises its module's error, never a stray Python or numpy
exception."""

import argparse
import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from openobj.cli import SCHEMA, build_config, load_dataset, parse_config_file
from openobj.errors import OpenobjError
from openobj.evaluation import EvaluationError, ProtocolEvent
from openobj.learning import (
    BayesCategory,
    BayesMemory,
    InstanceCategory,
    InstanceMemory,
    LearningError,
)
from openobj.nbv import load_poses
from openobj.pipelines import ConfigError, ExperimentConfig
from openobj.pointcloud import PointCloudError, load_pcd, save_pcd
from openobj.representations import Dictionary, RepresentationError, TopicModel
from openobj.segmentation import SegmentationError, SegmentationParams
from openobj.synthgen import CategorySpec, ShapeSpec, SynthgenError, generate_view

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

numbers = st.integers() | st.floats() | st.integers(-(10**400), 10**400)
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=5),
    max_leaves=20,
)
# bytes that are not JSON, ASCII or either
raw_files = st.binary(max_size=64) | st.text(max_size=64)


def write(path, content):
    """Bytes and text as they are, any other value as JSON."""
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif isinstance(content, str):
        path.write_text(content, encoding="utf-8")
    else:
        path.write_text(json.dumps(content))


def returns_or_raises_openobj_error(read, path):
    try:
        read(path)
    except OpenobjError:
        pass


@pytest.fixture(scope="module")
def dataset_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_data")
    for category in ("box", "sphere"):
        (root / category).mkdir()
        save_pcd(root / category / "view.pcd",
                 generate_view(ShapeSpec("box", (0.05, 0.05, 0.05), points=50, seed=1)))
    return root


contexts = st.dictionaries(
    st.sampled_from(["box", "sphere", "cone"]),
    st.sampled_from(["A", "B", "C"]) | json_values,
    max_size=3,
)
manifests = (
    json_values
    | st.fixed_dictionaries({"contexts": contexts | json_values}, optional={"seed": numbers})
    | raw_files
)


@FUZZ
@given(manifests)
def test_load_dataset_manifest(dataset_root, manifest):
    path = dataset_root / "manifest.json"
    write(path, manifest)
    returns_or_raises_openobj_error(load_dataset, str(dataset_root))


vectors = st.lists(numbers, max_size=10) | st.lists(st.lists(numbers, max_size=4), max_size=4)
poses = st.dictionaries(
    st.sampled_from(["rotation", "translation", "extra"]), vectors | json_values, max_size=3
)


@FUZZ
@given(st.lists(poses, max_size=4) | json_values | raw_files)
def test_load_poses(tmp_path, content):
    path = tmp_path / "poses.json"
    write(path, content)
    returns_or_raises_openobj_error(load_poses, path)


tokens = st.sampled_from(["0", "1.5", "-2e-3", "nan", "inf", "1e999", "x", "rgb", "#", ""]) | \
    st.integers().map(str) | st.text(alphabet="0123456789.-+eE", max_size=6)
header = st.sampled_from([
    "FIELDS x y z", "FIELDS x y z rgb", "FIELDS y x z", "FIELDS", "FIELDS x y z normal_x",
    "POINTS", "DATA ascii", "DATA binary", "DATA", "VERSION .7", "WIDTH 3", "# comment",
]) | st.lists(tokens, max_size=3).map(lambda ts: "POINTS " + " ".join(ts))
rows = st.lists(tokens, max_size=5).map(" ".join)
pcd_files = st.lists(header | rows, max_size=12).map("\n".join) | raw_files


@FUZZ
@given(pcd_files)
def test_load_pcd(tmp_path, content):
    path = tmp_path / "view.pcd"
    write(path, content)
    returns_or_raises_openobj_error(load_pcd, path)


# one whitespace-free token each, so every row keeps its four fields
rgb_tokens = (tokens | st.sampled_from(["-5", "4.5", "1e20", "-inf", "4294967296", "0x10"])
              | st.integers(0, 2**32 - 1).map(str)).filter(lambda t: t and "#" not in t)
coordinates = st.floats(-10, 10, allow_nan=False).map(repr)
rgb_rows = st.lists(st.tuples(coordinates, coordinates, coordinates, rgb_tokens), min_size=1,
                    max_size=6)


def rgb_problem(token) -> str | None:
    """What load_pcd reports for an rgb token, or None for a packed integer."""
    try:
        value = float(token)
    except ValueError:
        return "non-numeric field"
    return None if value.is_integer() and 0 <= value < 2**32 else "rgb must be an integer"


@FUZZ
@given(rgb_rows)
def test_load_pcd_rgb(tmp_path, rows):
    """A well-formed header, so every row reaches the rgb decode: the file
    loads when each rgb token is a packed integer, and otherwise raises for
    the first row whose token is not."""
    path = tmp_path / "view.pcd"
    lines = ["FIELDS x y z rgb", f"POINTS {len(rows)}", "DATA ascii"]
    write(path, "\n".join(lines + [" ".join(row) for row in rows]))
    problems = [(i, rgb_problem(row[3])) for i, row in enumerate(rows) if rgb_problem(row[3])]
    if not problems:
        packed = [int(float(row[3])) for row in rows]
        want = [[p >> 16 & 255, p >> 8 & 255, p & 255] for p in packed]
        assert load_pcd(path).colors.tolist() == want
    else:
        i, problem = problems[0]
        with pytest.raises(PointCloudError, match=f": line {i + 4}: {problem}"):
            load_pcd(path)


keys = st.sampled_from(sorted(SCHEMA)) | st.text(max_size=8)
values = tokens | st.sampled_from(["none", "true", "false", "good", "bow", "A1", "bayes"]) | \
    st.text(max_size=8)
config_lines = st.tuples(keys, values).map(" = ".join) | st.text(max_size=12)
config_files = st.lists(config_lines, max_size=6).map("\n".join) | raw_files


@FUZZ
@given(config_files)
def test_config_file(tmp_path, content):
    path = tmp_path / "exp.cfg"
    write(path, content)

    def read(path):
        parse_config_file(path)
        build_config(argparse.Namespace(config=str(path)))

    returns_or_raises_openobj_error(read, path)


SHAPE = {"kind": "box", "dimensions": (0.1, 0.1, 0.1)}
# (record, its module's error, the arguments it needs)
RECORDS = [
    (ExperimentConfig, ConfigError, {}),
    (SegmentationParams, SegmentationError, {}),
    (ShapeSpec, SynthgenError, SHAPE),
    (CategorySpec, SynthgenError, {"name": "box", **SHAPE}),
    (TopicModel, RepresentationError, {"k": 3, "v": 4}),
]
field_values = (
    numbers | st.sampled_from([10**400, -(10**400), np.nan, np.inf, -np.inf])
    | st.booleans() | st.integers(-(2**63), 2**63 - 1).map(np.int64) | st.floats().map(np.float64)
    | st.none() | st.text(max_size=4)
)


@FUZZ
@pytest.mark.parametrize("record,error,required", RECORDS, ids=[r.__name__ for r, _, _ in RECORDS])
@given(data=st.data())
def test_parameter_record(record, error, required, data):
    name = data.draw(st.sampled_from([f.name for f in fields(record)]))
    try:
        record(**{**required, name: data.draw(field_values | vectors)})
    except error:
        pass


# (record, its module's error, a valid JSON form)
JSON_RECORDS = [
    (Dictionary, RepresentationError, {"words": [[0.0, 1.0], [1.0, 0.0]]}),
    (TopicModel, RepresentationError, TopicModel(k=2, v=2).to_json_dict()),
    (InstanceCategory, LearningError,
     {"label": "mug", "instances": [[[0.0, 1.0]], [[1.0, 2.0], [3.0, 4.0]]]}),
    (InstanceMemory, LearningError,
     {"categories": {"mug": {"label": "mug", "instances": [[1.0, 2.0]]},
                     "bowl": {"label": "bowl", "instances": [[[0, 1], [2, 3]], [[1, 1]]]}}}),
    (BayesCategory, LearningError, {"n_k": 2, "accumulators": [1, 0, 3]}),
    (BayesMemory, LearningError,
     {"categories": {"mug": {"n_k": 2, "accumulators": [1, 0]},
                     "bowl": {"n_k": 1, "accumulators": [0.5, 2.0]}}}),
    (ProtocolEvent, EvaluationError,
     {"iteration": 3, "action": "ask", "category": "mug", "view_id": 7, "predicted": "bowl",
      "correct": False, "accuracy": 0.5, "known": 2}),
]


@st.composite
def near_valid(draw, valid):
    """A valid JSON form with one key dropped, added or given another value."""
    data = dict(valid)
    key = draw(st.sampled_from(sorted(data)))
    change = draw(st.sampled_from(["drop", "add", "replace"]))
    if change == "drop":
        del data[key]
    elif change == "add":
        data[draw(st.text(max_size=8))] = draw(json_values)
    else:
        data[key] = draw(json_values | vectors)
    return data


@FUZZ
@pytest.mark.parametrize("record,error,valid", JSON_RECORDS,
                         ids=[r.__name__ for r, _, _ in JSON_RECORDS])
@given(data=st.data())
def test_json_record(record, error, valid, data):
    record.from_json_dict(valid)
    try:
        loaded = record.from_json_dict(data.draw(json_values | near_valid(valid)))
    except OpenobjError as exc:
        assert isinstance(exc, error)
        return
    text = json.dumps(loaded.to_json_dict(), allow_nan=False)
    assert record.from_json_dict(json.loads(text)).to_json_dict() == loaded.to_json_dict()


arrays = hnp.arrays(st.sampled_from([np.uint8, np.uint16, np.int64, np.float64, np.bool_]),
                    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))


@FUZZ
@given(st.lists(arrays | vectors | json_values, max_size=4), st.lists(arrays | vectors, max_size=3))
def test_instance_category_from_any_instances(instances, added):
    """Any instance list builds a category or raises LearningError, and so
    does any later add."""
    try:
        category = InstanceCategory("x", instances)
    except LearningError:
        return
    for x in added:
        try:
            category.add(x)
        except LearningError:
            pass
