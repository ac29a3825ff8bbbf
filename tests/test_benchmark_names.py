"""The names that perfbench's per-layer tracer wraps must exist where it looks.

``perfbench/tracing.py`` patches each public function of the modules it
lists, a few methods through their class ``__dict__``, and two CLI entry
points.  A refactor that renames or moves one of them breaks ``--trace 1``
only when the benchmark runs; these checks fail at once instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import pqdslln.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("short", [m for m in tracing.MODULES if m != "cli"])
def test_module_public_names_resolve(short):
    module = importlib.import_module(f"pqdslln.{short}")
    assert module.__all__
    for name in module.__all__:
        assert hasattr(module, name), f"pqdslln.{short}.__all__ names missing {name!r}"


@pytest.mark.parametrize("short, cls_name, attr, span", tracing.METHODS, ids=[m[3] for m in tracing.METHODS])
def test_wrapped_methods_sit_in_their_class(short, cls_name, attr, span):
    cls = getattr(importlib.import_module(f"pqdslln.{short}"), cls_name)
    assert attr in cls.__dict__, f"{span} is not in {cls_name}.__dict__"


def test_cli_entry_points_exist():
    for name in tracing.CLI_PUBLIC:
        assert inspect.isfunction(getattr(pqdslln.cli, name, None)), name
