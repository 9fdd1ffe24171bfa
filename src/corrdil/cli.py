"""Command-line driver: validate problem files, run dilation pipelines,
induce regular representations, and reproduce the non-admissible-cover
computation.

Reports go to standard output as an aligned text table or, with
``--format records``, as one JSON object per line.  Exit statuses are a
stable contract: 0 all checks passed (or pipeline converged), 1 a check
failed, 2 input error, 3 dimension cap reached (partial results printed).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .dilation import StageRecord, cp_dilate, iterate_ck, iterate_coextension
from .disc import DEFAULT_GRID, DEFAULT_TRUNC, admissibility_gap, embed_poly, mobius_coeffs, relation_defect
from .exceptions import (
    ContractivityError,
    CorrdilError,
    ParseError,
    ResourceCapError,
)
from .gauge import verify_action, verify_group
from .graph import finite_receivers, satisfies_hyperrigidity_criterion
from .io import ProblemFile, load_problem, save_problem
from .linalg import Tolerance, _max_op_norms
from .representation import (
    CheckLine,
    GraphRep,
    _gated,
    ck_defect,
    covariance_defect,
    induced_regular_rep,
    row_contraction_check,
    toeplitz_defect,
    validate,
)

__all__ = ["Report", "render", "main"]

MOBIUS_EXPECTED = 3.0 * np.sqrt(10.0) / 16.0
GAP_TOL = 1e-9


@dataclass
class Report:
    """Everything one command run produced: the command echo, the check
    lines, the pipeline stage table (possibly empty), free-form notes, and
    the exit status (0 pass, 1 check failure, 3 capped)."""

    command: str
    checks: list = field(default_factory=list)
    stages: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    capped: bool = False

    @property
    def exit_status(self) -> int:
        if self.capped:
            return 3
        return 0 if all(c.passed for c in self.checks) else 1


# ---------------------------------------------------------------- rendering

def _fmt_value(x: float | None) -> str:
    return f"{'-':>15}" if x is None else f"{x:15.8e}"


def _check_row(c: CheckLine) -> str:
    thr = f"{c.threshold:10.1e}" if c.threshold is not None else f"{'-':>10}"
    status = ("INFO" if c.threshold is None else "PASS") if c.passed else "FAIL"
    return f"{c.name:<48} {_fmt_value(c.value)} {thr}  {status}"


# the measured StageRecord fields in table order, '_' written '-' in the text header
_STAGE_COLUMNS = ("toeplitz", "ck", "covariance", "corner_toeplitz", "corner_ck")


def _stage_row(i: int, s: StageRecord) -> str:
    return f"{i:>5}  {s.kind:<15} {s.new_dim:>6} " + " ".join(
        _fmt_value(getattr(s, c)) for c in _STAGE_COLUMNS)


def _render_text(report: Report) -> str:
    lines = [f"command: {report.command}"]
    if report.checks:
        lines.append(f"{'check':<48} {'value':>15} {'threshold':>10}  status")
        lines.extend(_check_row(c) for c in report.checks)
    if report.stages:
        lines.append(f"{'stage':>5}  {'kind':<15} {'dim':>6} "
                     + " ".join(f"{c.replace('_', '-'):>15}" for c in _STAGE_COLUMNS))
        lines.extend(_stage_row(i + 1, s) for i, s in enumerate(report.stages))
    lines.extend(f"note: {n}" for n in report.notes)
    verdict = {0: "PASS", 1: "FAIL", 3: "CAPPED"}[report.exit_status]
    lines.append(f"result: {verdict} (exit {report.exit_status})")
    return "\n".join(lines)


def _json_float(x) -> float | None:
    """x as a JSON number; None (null) for a missing or non-finite value,
    which JSON cannot hold."""
    return None if x is None or not math.isfinite(x) else float(x)


def _render_records(report: Report) -> str:
    rows = [{"record": "command", "text": report.command}]
    rows.extend(
        {
            "record": "check",
            "name": c.name,
            "value": _json_float(c.value),
            "threshold": _json_float(c.threshold),
            "passed": bool(c.passed),
        }
        for c in report.checks
    )
    rows.extend(
        {"record": "stage", "index": i + 1, "kind": s.kind, "dim": s.new_dim,
         **{c: _json_float(getattr(s, c)) for c in _STAGE_COLUMNS}}
        for i, s in enumerate(report.stages)
    )
    rows.extend({"record": "note", "text": n} for n in report.notes)
    rows.append({"record": "result", "exit_status": report.exit_status})
    return "\n".join(json.dumps(r, allow_nan=False) for r in rows)


def render(report: Report, fmt: str = "text") -> str:
    if fmt == "records":
        return _render_records(report)
    return _render_text(report)


# ---------------------------------------------------------------- shared pieces

def _merge_tol(file_tol: Tolerance, args) -> Tolerance:
    return Tolerance(
        eps=file_tol.eps if args.tol is None else args.tol,
        eig_clip=file_tol.eig_clip if args.eig_clip is None else args.eig_clip,
        max_dim=file_tol.max_dim if args.max_dim is None else args.max_dim,
    )


def _info(name: str, value: float) -> CheckLine:
    return CheckLine(name, float(value), None, True)


def _flag(name: str, ok: bool) -> CheckLine:
    # predicate indicator: value 1 when the named property holds, 0 when not
    return CheckLine(name, 1.0 if ok else 0.0, None, bool(ok))


def _structure_checks(pf: ProblemFile, tol: Tolerance, report: Report) -> bool:
    """Graph and action checks; returns whether the action (if any) passed
    its axioms, without which the covariance defect is not defined."""
    g = pf.graph
    report.checks.append(_info("graph.vertex-count", len(g.vertices)))
    report.checks.append(_info("graph.edge-count", len(g.edges)))
    report.checks.append(_info("graph.finite-receiver-count", len(finite_receivers(g))))
    report.checks.append(
        _info("graph.hyperrigidity-criterion", 1.0 if satisfies_hyperrigidity_criterion(g) else 0.0)
    )
    return pf.action is None or _action_checks(pf.action, tol, report)


def _action_checks(action, tol: Tolerance, report: Report) -> bool:
    """Append the action.* check lines, and a note for each that fails, to
    report; returns verify_action's verdict, which includes the group's."""
    for name, what, res in (("group-axioms", "group", verify_group(action.group)),
                            ("module-automorphism-axioms", "action", verify_action(action, tol))):
        report.checks.append(_flag(f"action.{name}", res.ok))
        if not res.ok:
            report.notes.append(f"{what} axioms: {res.reason}")
    return res.ok


def _action_fails(action, tol: Tolerance, report: Report, skipped: str) -> bool:
    """Whether the action fails its checks (a bucket matrix of the wrong
    shape is an input error, exit 2).  report, empty until now, then holds
    the failing action.* lines and their notes and says what was not run."""
    action.edge_unitaries
    failed = not _action_checks(action, tol, report)
    report.checks = [c for c in report.checks if not c.passed]
    if failed:
        report.notes.append(f"the action failed its checks; {skipped} not run")
    return failed


def _verdict_checks(rep: GraphRep, tol: Tolerance) -> list:
    """The check lines that decide whether rep can be dilated: its structure
    and the row contraction of each range fiber."""
    checks = list(validate(rep, tol).checks)
    checks.extend(CheckLine(f"row-contraction[{vc.vertex}]", vc.margin, tol.eig_clip, vc.passed)
                  for vc in row_contraction_check(rep, tol).per_vertex)
    return checks


def _defect_lines(rep: GraphRep, report: Report, covariance: bool = True) -> None:
    """The informational defect measurements, which decide nothing."""
    report.checks.append(_info("toeplitz-defect", toeplitz_defect(rep)))
    report.checks.append(_info("ck-defect", ck_defect(rep)))
    if rep.covariant and covariance:
        report.checks.append(_info("covariance-defect", covariance_defect(rep)))
    elif rep.covariant:
        report.notes.append("covariance-defect not measured: the action failed its checks")


def _write_out(args, rep: GraphRep, tol: Tolerance, report: Report) -> None:
    if getattr(args, "out", None):
        out_pf = ProblemFile(rep.graph, rep.action, rep, tol)
        save_problem(out_pf, args.out)
        report.notes.append(f"final representation written to {args.out}")


# ---------------------------------------------------------------- subcommands

def cmd_validate(args) -> Report:
    pf = load_problem(args.file)
    tol = _merge_tol(pf.tolerance, args)
    report = Report(command=f"validate {args.file}")
    action_ok = _structure_checks(pf, tol, report)
    if pf.representation is None:
        report.notes.append("no representation block: graph/action checks only")
    else:
        report.checks.extend(_verdict_checks(pf.representation, tol))
        _defect_lines(pf.representation, report, covariance=action_ok)
    return report


def _truncation_note(rep: GraphRep, report: Report) -> None:
    flagged = sorted(rep.graph.truncated)
    if flagged:
        report.notes.append(
            "truncation-flagged vertices excluded from Cuntz-Krieger conditions: "
            + ", ".join(flagged)
        )


def cmd_dilate(args) -> Report:
    pf = load_problem(args.file)
    if pf.representation is None:
        raise ParseError("top level: dilate requires a representation block")
    tol = _merge_tol(pf.tolerance, args)
    rep = pf.representation
    report = Report(command=f"dilate --mode {args.mode} {args.file}")

    verdict = _verdict_checks(rep, tol)
    if not all(c.passed for c in verdict):
        # validate's lines without the graph's and the passing action lines
        action_ok = rep.action is None or _action_checks(rep.action, tol, report)
        report.checks = [c for c in report.checks if not c.passed] + verdict
        _defect_lines(rep, report, covariance=action_ok)
        report.notes.append("input failed validation; pipeline not run")
        return report
    if rep.action is not None and _action_fails(rep.action, tol, report, "pipeline"):
        return report
    if args.mode in ("ck", "cp"):
        _truncation_note(rep, report)

    if args.mode == "ck":
        pipe = iterate_ck(rep, n_steps=args.steps, tol=tol)
        report.checks.append(_gated("corner-ck-defect", pipe.steps[-1].corner_ck, tol.eps))
    else:
        pipe = (iterate_coextension(rep, n_steps=args.steps, tol=tol) if args.mode == "isometric"
                else cp_dilate(rep, max_rounds=args.rounds, tol=tol))
        report.checks.append(_flag("pipeline.converged", pipe.converged))
    last = pipe.steps[-1]
    if last.covariance is not None:
        report.checks.append(_gated("final-covariance-defect", last.covariance, tol.eps))
    report.stages = list(pipe.steps)
    report.capped = pipe.capped
    _write_out(args, pipe.final_rep, tol, report)
    return report


def cmd_induce(args) -> Report:
    pf = load_problem(args.file)
    if pf.action is None:
        raise ParseError("top level: induce requires an action block")
    if pf.representation is None:
        raise ParseError("top level: induce requires a representation block")
    tol = _merge_tol(pf.tolerance, args)
    rep = pf.representation
    report = Report(command=f"induce {args.file}")

    tol.check_dim(pf.action.group.order * rep.dim)
    verdict = _verdict_checks(rep, tol)
    if not all(c.passed for c in verdict):
        report.checks = [c for c in verdict if not c.passed]
        report.notes.append("input failed validation; induction not run")
        return report
    if _action_fails(pf.action, tol, report, "induction"):
        return report
    ind = induced_regular_rep(rep, pf.action)
    report.checks.append(_info("induced.dim", ind.dim))
    report.checks.append(_gated("induced.covariance-defect", covariance_defect(ind), tol.eps))
    d, e = rep.dim, pf.action.group.identity
    sl = slice(e * d, (e + 1) * d)
    pairs = [(ind.proj[v], rep.proj[v]) for v in rep.graph.vertices] + [
        (ind.edge_op[e.eid], rep.edge_op[e.eid]) for e in rep.graph.edges]
    corner_dev = _max_op_norms(big[sl, sl] - small for big, small in pairs)[0]
    report.checks.append(_gated("induced.identity-corner-deviation", corner_dev, tol.eps))
    _write_out(args, ind, tol, report)
    return report


def _matrix_note(label: str, M: np.ndarray) -> str:
    rows = ", ".join(
        "[" + ", ".join(format(float(z.real), ".17g") for z in row) + "]" for row in M
    )
    return f"{label}: [{rows}]"


def cmd_counterexample(args) -> Report:
    report = Report(command=f"counterexample --degree {args.degree} --grid {args.grid}")
    lo, hi = admissibility_gap(trunc_degree=args.degree, grid=args.grid)
    report.checks.append(_info("defect-norm[mobius]", lo))
    report.checks.append(_info("defect-norm[coordinate]", hi))
    report.checks.append(_gated("mobius-norm-error", abs(lo - MOBIUS_EXPECTED), GAP_TOL))
    report.checks.append(_gated("coordinate-norm-error", abs(hi - 1.0), GAP_TOL))
    report.checks.append(
        CheckLine("strict-gap(mobius < coordinate)", hi - lo, None, lo < hi)
    )
    coeffs = mobius_coeffs(args.degree)
    emb = embed_poly(coeffs, grid=args.grid)
    dfct = relation_defect(coeffs, grid=args.grid)
    fres = float(np.max(np.abs(dfct.func_part))) if dfct.func_part.size else 0.0
    # A-priori residual bound for the truncated series: the dropped-tail mass is
    # t = 1.5 * 2**-degree, and |p - p^2 conj(p)| <= 2t + 3t^2 + t^3 < 5 * 2**-degree
    # on the circle.  At the default degree this reduces to the exact-gap tolerance.
    fres_bound = max(GAP_TOL, 5.0 * 2.0 ** (-args.degree))
    report.checks.append(_gated("function-residual[mobius]", fres, fres_bound))
    report.notes.append(_matrix_note("embedded mobius matrix part", emb.mat_part))
    report.notes.append(_matrix_note("mobius relation-defect matrix part", dfct.mat_part))
    report.notes.append(f"gap pair: ({format(lo, '.8f')}, {format(hi, '.8f')})")
    return report


# ---------------------------------------------------------------- entry point

@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built at first use and shared by every
    later main call: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="corrdil",
        description="Validation and constructive dilation of graph-correspondence representations.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_tolerance(p):   # the commands that read a problem file's tolerance
        p.add_argument("--tol", type=float, default=None, help="defect tolerance (default 1e-8)")
        p.add_argument("--eig-clip", type=float, default=None,
                       help="eigenvalue clipping threshold (default 1e-10)")
        p.add_argument("--max-dim", type=int, default=None,
                       help="dimension cap for dilation spaces (default 4096)")

    def add_format(p):
        p.add_argument("--format", choices=("text", "records"), default="text",
                       help="report format: aligned text or JSON records")

    p = sub.add_parser("validate", help="run structural and defect checks on a problem file")
    p.add_argument("file")
    add_tolerance(p)
    add_format(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("dilate", help="run a dilation pipeline on a problem file")
    p.add_argument("file")
    p.add_argument("--mode", choices=("isometric", "ck", "cp"), required=True)
    p.add_argument("--steps", type=int, default=1,
                   help="isometric/ck step count (modes isometric, ck)")
    p.add_argument("--rounds", type=int, default=8, help="maximum CK rounds (mode cp)")
    p.add_argument("--out", default=None, help="write the final representation to this file")
    add_tolerance(p)
    add_format(p)
    p.set_defaults(handler=cmd_dilate)

    p = sub.add_parser("induce", help="induce the finite-group regular representation")
    p.add_argument("file")
    p.add_argument("--out", default=None, help="write the induced representation to this file")
    add_tolerance(p)
    add_format(p)
    p.set_defaults(handler=cmd_induce)

    p = sub.add_parser("counterexample",
                       help="reproduce the non-admissible C*-cover norm computation")
    p.add_argument("--degree", type=int, default=DEFAULT_TRUNC,
                   help="Mobius series truncation degree (default 64)")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID,
                   help="unit-circle sample count (default 4096)")
    add_format(p)
    p.set_defaults(handler=cmd_counterexample)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report = args.handler(args)
    except (CorrdilError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (3 if isinstance(exc, ResourceCapError)
                else 1 if isinstance(exc, ContractivityError) else 2)
    print(render(report, args.format))
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
