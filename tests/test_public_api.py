"""Each module's ``__all__`` lists exactly its public API."""

import importlib
import inspect

import pytest

import impedmodal

MODULES = ["impedmodal." + name for name in impedmodal.__all__
           if inspect.ismodule(getattr(impedmodal, name))]


@pytest.mark.parametrize("name", ["impedmodal"] + MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_public_definition_is_listed(name):
    """Every function or class the module defines without a leading
    underscore is in its ``__all__``."""
    module = importlib.import_module(name)
    public = [n for n, obj in vars(module).items()
              if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == name]
    assert [n for n in public if n not in module.__all__] == []
