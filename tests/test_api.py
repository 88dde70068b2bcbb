"""Each library module's ``__all__`` lists exactly its public names."""

import importlib
import inspect

import pytest

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
