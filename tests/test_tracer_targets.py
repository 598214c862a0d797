"""The per-layer benchmark wraps package functions by name from outside
(perfbench/tracer.py); a rename inside the package would silently leave a
metric at zero.  Every traced name must still resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
)
_tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracer)


@pytest.mark.parametrize("prefix, module_name, attr", _tracer.TARGETS, ids=[t[0] for t in _tracer.TARGETS])
def test_traced_name_resolves(prefix, module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"{module_name}.{attr} ({prefix}) no longer resolves"
