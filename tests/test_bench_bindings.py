"""Every function the traced benchmark wraps still exists where it looks.

perfbench/tracer.py names its targets as strings; a rename or deletion
in the package would otherwise surface only as a failed benchmark run.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


LAYER_FUNCTIONS = _load_tracer().LAYER_FUNCTIONS


@pytest.mark.parametrize("name", sorted(LAYER_FUNCTIONS))
def test_traced_function_resolves(name):
    modname, attr, _, _ = LAYER_FUNCTIONS[name]
    owner = importlib.import_module(modname)
    if "." in attr:
        # the tracer installs methods through the class __dict__
        cls_name, meth = attr.split(".")
        assert callable(getattr(owner, cls_name).__dict__.get(meth))
    else:
        assert callable(getattr(owner, attr, None))
