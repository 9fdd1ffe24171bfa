"""Every pipeline keeps its input space as the leading coordinates.

Each one-step construction lays its input out first, so the pipelines'
embed is the inclusion np.eye(final.dim, rep.dim) exactly, and the
"compression" row's corner defects are the defects compressed by it.
"""

from __future__ import annotations

import numpy as np
import pytest

from corrdil import ck_defect, toeplitz_defect
from test_stage_tables import PIPELINES, stage_inputs

INPUTS = stage_inputs()


@pytest.mark.parametrize("pipe", sorted(PIPELINES))
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_embed_is_the_leading_inclusion(name, pipe):
    rep = INPUTS[name]
    report = PIPELINES[pipe](rep)
    final = report.final_rep
    assert report.embed.dtype == complex
    assert np.array_equal(report.embed, np.eye(final.dim, rep.dim))
    if pipe == "ck" or not report.steps:
        return
    row = report.steps[-1]
    assert row.kind == "compression"
    assert row.corner_toeplitz == toeplitz_defect(final, report.embed)
    assert row.corner_ck == ck_defect(final, report.embed)
