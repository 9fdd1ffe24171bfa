#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Runs every operation of every workload once, then shows that each check
accepts the real output and rejects each deliberately corrupted copy of it
(a perturbed embed, a changed entry in a written file, a wrong exit status,
and the other corruptions listed in workloads.py).  A check that passed a
corrupted output would be passing vacuously.

    python3 perfbench/selftest.py

Exits 0 when every corruption is rejected, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 1


def verify_checks(op, out) -> tuple:
    """(problems, corruptions tried) for one operation's output: the clean
    output must pass, and every corrupted copy must be rejected by the check
    it was made for."""
    problems = [f"{op.label}: clean output rejected: {p}" for p in op.check(out)]
    tried = op.corruptions(out)
    for description, bad, check in tried:
        found = op.check(bad)
        if not any(p.startswith(check) for p in found):
            problems.append(f"{op.label}: {description} not rejected by the '{check}' check"
                            f" (found: {found[:2]})")
    return problems, len(tried)


def main() -> int:
    from run import BLAS_THREADS

    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    workdir = HERE / "out" / f"selftest-{os.getpid()}"
    failures = 0
    try:
        for name, build in workloads.WORKLOADS.items():
            workload = build(SEED, workdir)
            tried = 0
            for op in [workload.warmup] + workload.ops:
                problems, n = verify_checks(op, op.observe(op.run()))
                tried += n
                failures += len(problems)
                for p in problems:
                    print(f"FAIL {name}: {p}")
            print(f"{name}: {tried} corrupted outputs over {len(workload.ops) + 1} operations")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest:", "PASS" if failures == 0 else f"FAIL ({failures} problems)")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
