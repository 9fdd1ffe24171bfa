"""The public names: every export resolves, and pruned names stay gone."""

from __future__ import annotations

import importlib
import subprocess
import sys

import pytest

import corrdil

LAYERS = ("linalg", "graph", "correspondence", "gauge", "representation",
          "dilation", "disc", "io", "cli")

REMOVED = ("psi_t", "theta", "FiniteRankOp", "integrated_form", "shift_ampliation",
           "apply_rho", "compress", "katsura_ideal_support", "trivial_action", "build_parser")


@pytest.mark.parametrize("name", ("corrdil",) + tuple(f"corrdil.{m}" for m in LAYERS))
def test_exports_resolve(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    for attr in module.__all__:
        assert hasattr(module, attr), f"{name}.{attr}"


@pytest.mark.parametrize("name", ("corrdil",) + tuple(f"corrdil.{m}" for m in LAYERS))
def test_removed_names_not_exported(name):
    module = importlib.import_module(name)
    assert not set(REMOVED) & set(module.__all__)
    assert not any(hasattr(module, attr) for attr in REMOVED)


def test_graph_has_no_has_vertex():
    assert not hasattr(corrdil.DirectedGraph, "has_vertex")


def test_root_republishes_each_layer_list():
    layers = ("exceptions", "linalg", "graph", "gauge", "representation",
              "correspondence", "dilation", "disc")
    io_names = ["ProblemFile", "load_problem", "parse_problem", "problem_text", "save_problem"]
    assert set(io_names) <= set(corrdil.io.__all__)
    expected = [name for m in layers for name in importlib.import_module(f"corrdil.{m}").__all__]
    expected += io_names + ["__version__"]
    assert len(expected) == len(set(expected)) == 72
    assert set(corrdil.__all__) == set(expected)
    namespace = {}
    exec("from corrdil import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(expected)


def test_numerical_core_loads_without_the_element_layer():
    # A bare package stands in for corrdil/__init__.py, which imports every layer.
    code = (
        "import sys, types\n"
        "pkg = types.ModuleType('corrdil')\n"
        f"pkg.__path__ = {list(corrdil.__path__)!r}\n"
        "sys.modules['corrdil'] = pkg\n"
        "import corrdil.dilation, corrdil.io, corrdil.cli\n"
        "print(*(m for m in sys.modules if m.startswith('corrdil.')))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = run.stdout.split()
    assert "corrdil.dilation" in loaded
    assert "corrdil.correspondence" not in loaded
