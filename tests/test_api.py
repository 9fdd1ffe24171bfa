"""The public names: every export resolves, and pruned names stay gone."""

from __future__ import annotations

import importlib

import pytest

import corrdil

LAYERS = ("linalg", "graph", "correspondence", "gauge", "representation",
          "dilation", "disc", "io", "cli")

REMOVED = ("psi_t", "theta", "FiniteRankOp", "integrated_form", "shift_ampliation",
           "apply_rho", "compress", "katsura_ideal_support")


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
