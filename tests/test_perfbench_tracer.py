"""The benchmark tracer wraps package names from outside; each must still resolve.

``perfbench/tracer.py`` rebinds module functions and wraps methods and
properties on their classes by name.  A rename in the package would only
show in a traced benchmark run, so the targets are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("mod, attr, span", tracer.FUNCTIONS, ids=[t[-1] for t in tracer.FUNCTIONS])
def test_traced_function_resolves(mod, attr, span):
    assert callable(getattr(importlib.import_module(f"endoscope.{mod}"), attr))


@pytest.mark.parametrize("mod, cls, attr, span", tracer.METHODS, ids=[t[-1] for t in tracer.METHODS])
def test_traced_method_is_defined_on_its_class(mod, cls, attr, span):
    # the tracer reads the class __dict__, so an inherited method would not do
    assert callable(vars(getattr(importlib.import_module(f"endoscope.{mod}"), cls))[attr])


@pytest.mark.parametrize("mod, cls, attr, span", tracer.PROPERTIES, ids=[t[-1] for t in tracer.PROPERTIES])
def test_traced_property_is_defined_on_its_class(mod, cls, attr, span):
    assert isinstance(vars(getattr(importlib.import_module(f"endoscope.{mod}"), cls))[attr], property)
