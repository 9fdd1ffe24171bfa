"""Pinned stage tables of the dilation pipelines.

The fixture tests/data/stage_tables.json holds, for every (input, pipeline)
case below, the kind and new_dim of each stage and its measured defects.
Kinds and dims must match exactly and values to rounding, so a rewrite of
the one-step constructions that changes what they build fails here.

Regenerate the fixture (only for an intended change of results) with

    PYTHONPATH=src python tests/test_stage_tables.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from corrdil import cp_dilate, induced_regular_rep, iterate_ck, iterate_coextension
from helpers import (
    random_cc_rep,
    random_graph,
    rng_for,
    z2_loop_swap,
    z2_vertex_swap,
    z3_cycle_rotation,
    z3_loop_rotation,
)
from test_dilation import rank_deficient_cuntz2

FIXTURE = Path(__file__).parent / "data" / "stage_tables.json"

PIPELINES = {
    "coext": lambda rep: iterate_coextension(rep, 2),
    "ck": lambda rep: iterate_ck(rep, 2),
    "cp": lambda rep: cp_dilate(rep, 4),
}

VALUE_FIELDS = ("toeplitz", "ck", "covariance", "corner_toeplitz", "corner_ck")


def stage_inputs() -> dict:
    reps = {}
    for seed in range(7):
        rng = rng_for(960 + seed)
        reps[f"random-{seed}"] = random_cc_rep(rng, random_graph(rng), dim=int(rng.integers(1, 5)))
    actions = {
        "z2-loop-mixer": z2_loop_swap(mixer=True),
        "z3-loop-rotation": z3_loop_rotation(),
        "z3-cycle-rotation": z3_cycle_rotation()[1],
        "z2-vertex-swap": z2_vertex_swap()[1],
    }
    for name, a in actions.items():
        for seed in range(4):
            base = random_cc_rep(rng_for(970 + seed), a.graph, dim=2)
            reps[f"induced-{name}-{seed}"] = induced_regular_rep(base, a)
    reps["rank-deficient-cuntz2"] = rank_deficient_cuntz2()
    return reps


def stage_table(report) -> dict:
    return {
        "converged": report.converged,
        "capped": report.capped,
        "stages": [
            {"kind": s.kind, "new_dim": s.new_dim, **{f: getattr(s, f) for f in VALUE_FIELDS}}
            for s in report.steps
        ],
    }


def all_tables() -> dict:
    return {
        f"{name}/{pipe}": stage_table(run(rep))
        for name, rep in stage_inputs().items()
        for pipe, run in PIPELINES.items()
    }


@pytest.fixture(scope="module")
def tables() -> dict:
    return all_tables()


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(tables, pinned):
    assert sorted(tables) == sorted(pinned)


@pytest.mark.parametrize("case", [f"{n}/{p}" for n in stage_inputs() for p in PIPELINES])
def test_stage_table_matches_fixture(tables, pinned, case):
    got, want = tables[case], pinned[case]
    assert (got["converged"], got["capped"]) == (want["converged"], want["capped"])
    assert [(s["kind"], s["new_dim"]) for s in got["stages"]] == [
        (s["kind"], s["new_dim"]) for s in want["stages"]
    ]
    for i, (g, w) in enumerate(zip(got["stages"], want["stages"])):
        for f in VALUE_FIELDS:
            if w[f] is None:
                assert g[f] is None, (i, f)
            else:
                assert math.isclose(g[f], w[f], rel_tol=1e-9, abs_tol=1e-12), (i, f, g[f], w[f])


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(all_tables(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
