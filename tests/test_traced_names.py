"""Every name the benchmark's tracer wraps, and the child's hooks, still exist on the package's modules.

``perfbench/tracing.py`` installs its wrappers with ``getattr`` on the names in its ``WRAPPED`` table, and
``perfbench/child.py`` replaces ``runner.observe`` and ``runner.predict_batch``. Removing or renaming one
of them makes every traced benchmark run fail with an AttributeError; this test makes it fail here first.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

import graphfill

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
CHILD_HOOKS = [("runner", "observe"), ("runner", "predict_batch")]


def wrapped_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # defines the table and classes only
    return [(module, attr) for module, attrs in tracing.WRAPPED.items() for attr in attrs]


@pytest.mark.parametrize("module, attr", wrapped_names() + CHILD_HOOKS)
def test_name_resolves_on_the_package(module, attr):
    importlib.import_module(f"graphfill.{module}")
    assert callable(getattr(getattr(graphfill, module), attr))
