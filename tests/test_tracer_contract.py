"""The names perfbench/tracer.py patches must exist where it patches them.

The tracer rebinds methods through ``cls.__dict__``, so a method that is
only inherited raises a KeyError under ``perfbench/run.py --trace 1``.
This test keeps that contract visible to the unit tests.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(name):
    return importlib.import_module(f"zdbkit.{name}")


def test_spanned_methods_are_defined_on_their_own_class(tracer):
    missing = [
        key
        for key in tracer.SPANNED_METHODS
        if key[2] not in vars(getattr(_module(key[0]), key[1]))
    ]
    assert missing == []


def test_counted_methods_are_defined_on_every_ring_class(tracer):
    rings = _module("rings")
    missing = [
        (cls, meth)
        for cls in tracer.RING_CLASSES
        for meth in tracer.COUNTED_METHODS
        if meth not in vars(getattr(rings, cls))
    ]
    assert missing == []


def test_spanned_functions_exist(tracer):
    missing = [
        (mod, name)
        for mod, name in tracer.SPANNED_FUNCTIONS
        if not callable(getattr(_module(mod), name, None))
    ]
    assert missing == []
