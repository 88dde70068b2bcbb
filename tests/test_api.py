"""Each library module's ``__all__`` lists exactly its public names, and
each frozen parameter record checks every field by the one field rule."""

import importlib
import inspect
import math
from dataclasses import fields

import pytest

from openobj.pipelines import ConfigError, ExperimentConfig
from openobj.segmentation import SegmentationError, SegmentationParams
from openobj.synthgen import CategorySpec, ShapeSpec, SynthgenError

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
