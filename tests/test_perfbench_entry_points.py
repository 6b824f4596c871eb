"""The names the benchmark in ``perfbench/`` reaches into must stay put.

``perfbench/tracer.py`` wraps every entry point in ``ENTRY_POINTS`` by
looking it up in ``vars(owner)`` of its module or class, and
``perfbench/run.py`` calls a few package-level names.  Renaming, moving or
changing the kind of any of them breaks the traced benchmark run, so this
test loads the tracer by path, exactly as it is, and resolves them all.
"""

import functools
import importlib
import importlib.util
import re
import types
from pathlib import Path

import pytest

import webpolar

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ENTRY_POINTS = _load_tracer().ENTRY_POINTS


@pytest.mark.parametrize("module,path", [(m, p) for m, p, _, _ in ENTRY_POINTS],
                         ids=[name for _, _, name, _ in ENTRY_POINTS])
def test_entry_point_resolves_through_vars(module, path):
    owner = importlib.import_module(f"webpolar.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = vars(owner)[part]
    original = vars(owner)[attr]
    # the tracer wraps plain functions and rebuilds cached properties
    assert isinstance(original, (types.FunctionType, functools.cached_property))


def test_package_names_called_by_the_driver_exist():
    source = (PERFBENCH / "run.py").read_text()
    called = set(re.findall(r"\b(?:program|webpolar)\.([A-Za-z_][\w.]*)\(", source))
    assert {"cli.main", "cli.build_parser", "ImplicitWeb", "parse_poly_expr",
            "discriminant_locus"} <= called
    importlib.import_module("webpolar.cli")
    for dotted in called:
        target = webpolar
        for part in dotted.split("."):
            target = getattr(target, part)
        assert callable(target), dotted
