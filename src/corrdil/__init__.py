"""corrdil: numerical dilation toolkit for graph C*-correspondences with
finite-group gauge actions.

The package models the correspondence of a finite directed graph (functions
on edges as a Hilbert module over functions on vertices), finite-dimensional
representations of it, and unitary gauge symmetries, and provides
constructive dilation procedures — one-step isometric and Cuntz-Krieger
steps, minimal isometric coextension, and a Cuntz-Pimsner pipeline — whose
corner guarantees are machine-checkable defect reports.  A separate module
reproduces an exact two-part norm computation exhibiting an operator-algebra
cover to which a circle action does not extend.
"""

# Each layer's __all__ is the one list of its public names, republished here;
# io's three format helpers and the cli entry point stay out of the root.
from . import correspondence, dilation, disc, exceptions, gauge, graph, linalg, representation
from .exceptions import *
from .linalg import *
from .graph import *
from .gauge import *
from .representation import *
from .correspondence import *
from .dilation import *
from .disc import *
from .io import ProblemFile, load_problem, parse_problem, problem_text, save_problem

__version__ = "0.1.0"

__all__ = [
    *exceptions.__all__, *linalg.__all__, *graph.__all__, *gauge.__all__,
    *representation.__all__, *correspondence.__all__, *dilation.__all__, *disc.__all__,
    "ProblemFile", "load_problem", "parse_problem", "problem_text", "save_problem",
    "__version__",
]
