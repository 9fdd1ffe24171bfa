"""Pinned stage tables of inputs whose stages exceed _SUPPORT_MIN.

Above that size the stage residuals are normed on their support and the
Toeplitz and covariance products taken on the operators' nonzero extents,
a path the small inputs of test_stage_tables barely reach.  The fixture
tests/data/stage_tables_large.json holds, for every (input, pipeline) case
below, the kind and new_dim of each stage and its measured defects, as the
dense measurement gave them.  Kinds and dims must match exactly and values
to rounding.

Regenerate the fixture (only for an intended change of results) with

    PYTHONPATH=src python tests/test_stage_tables_large.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from corrdil import cp_dilate, induced_regular_rep, iterate_ck, iterate_coextension
from corrdil.linalg import _SUPPORT_MIN
from helpers import cuntz_graph, random_cc_rep, rng_for, z2_loop_swap
from test_stage_tables import VALUE_FIELDS, stage_table

FIXTURE = Path(__file__).parent / "data" / "stage_tables_large.json"

PIPELINES = {
    "coext": lambda rep: iterate_coextension(rep, 2),
    "ck": lambda rep: iterate_ck(rep, 2),
    "cp": lambda rep: cp_dilate(rep, 3),
}


def large_inputs() -> dict:
    return {
        "random-cuntz2-40": random_cc_rep(rng_for(990), cuntz_graph(2), 40),
        "induced-z2-mixer-cuntz2-20": induced_regular_rep(
            random_cc_rep(rng_for(991), cuntz_graph(2), 20), z2_loop_swap(mixer=True)),
    }


def all_tables() -> dict:
    return {
        f"{name}/{pipe}": stage_table(run(rep))
        for name, rep in large_inputs().items()
        for pipe, run in PIPELINES.items()
    }


def test_large_stage_tables_match_fixture():
    pinned = json.loads(FIXTURE.read_text())
    tables = all_tables()
    assert sorted(tables) == sorted(pinned)
    assert all(rep.dim > _SUPPORT_MIN for rep in large_inputs().values())
    for case, got in tables.items():
        want = pinned[case]
        assert (got["converged"], got["capped"]) == (want["converged"], want["capped"]), case
        assert [(s["kind"], s["new_dim"]) for s in got["stages"]] == [
            (s["kind"], s["new_dim"]) for s in want["stages"]
        ], case
        for i, (g, w) in enumerate(zip(got["stages"], want["stages"])):
            for f in VALUE_FIELDS:
                if w[f] is None:
                    assert g[f] is None, (case, i, f)
                else:
                    assert math.isclose(g[f], w[f], rel_tol=1e-9, abs_tol=1e-12), (
                        case, i, f, g[f], w[f])


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(all_tables(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
