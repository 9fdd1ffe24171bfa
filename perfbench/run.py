#!/usr/bin/env python3
"""Benchmark of corrdil: one workload, all load from this one process.

    python3 perfbench/run.py --workload coext-deep --seed 1 --seconds 20 --trace 0

Workloads are coext-deep, cp-batch and cli-files (see README.md).  The run
pins BLAS to one thread before numpy is imported, builds the seeded inputs
and runs one untimed warm-up operation (both five times over, to time the
set-up), checks that the checks reject corrupted
copies of the warm-up output, and then repeats whole rounds (every operation
of the workload once, each output checked apart from corrdil) until
--seconds have passed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 every public function of corrdil's layers
is wrapped in a span and the metrics are the per-layer ones.  Details go to
perfbench/out/ (result files and the span trace).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("coext-deep", "cp-batch", "cli-files")
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
# inputs and warm-up are set up this many times; setup_s is the import time
# plus the median of these
SETUP_REPEATS = 5

END_TO_END_UNITS = {"wall_s": "s", "op_p50_s": "s", "peak_dim": "count",
                    "final_dim": "count", "peak_rss_mb": "MB", "setup_s": "s"}
# traced name -> the per-layer measures reported for it
PER_LAYER = {
    "linalg.op_norm": ("calls", "self_s", "svd_work"),
    "linalg.as_cmatrix": ("calls",),
    "linalg.orthonormal_closure": ("self_s", "out_dim"),
    "linalg.defect_sqrt": ("self_s",),
    "linalg.psd_sqrt": ("self_s",),
    "linalg.is_psd": ("calls",),
    "representation.toeplitz_defect": ("calls", "self_s"),
    "representation.ck_defect": ("self_s",),
    "representation.covariance_defect": ("self_s",),
    "representation.row_contraction_check": ("self_s",),
    "representation.validate": ("self_s",),
    "representation.induced_regular_rep": ("self_s",),
    "dilation.one_step_isometric": ("self_s", "out_dim"),
    "dilation.one_step_ck": ("self_s", "out_dim"),
    "dilation.minimal_reduce": ("self_s", "out_dim"),
    "dilation.compressed_toeplitz_defect": ("self_s",),
    "dilation.compressed_ck_defect": ("self_s",),
    "dilation.moment_signature": ("self_s",),
    "dilation.iterate_coextension": ("self_s",),
    "dilation.cp_dilate": ("self_s",),
    "gauge.act_on_element": ("calls", "self_s"),
    "graph.range_fiber": ("calls",),
    "io.parse_problem": ("self_s", "bytes"),
    "io.matrix_from_json": ("self_s",),
    "io.problem_text": ("self_s", "bytes"),
    "io.matrix_to_json": ("self_s",),
    "io.canonical_text": ("self_s",),
    "cli.main": ("self_s",),
    "cli.render": ("self_s",),
    "disc.admissibility_gap": ("self_s",),
}
MEASURE_UNITS = {"calls": "count", "self_s": "s", "svd_work": "mnk-computed",
                 "out_dim": "count", "bytes": "B"}


def parse_args(argv):
    p = argparse.ArgumentParser(description="corrdil benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_info(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_THREADS)
    if not (ROOT / "src" / "corrdil" / "__init__.py").is_file():
        print(f"error: corrdil sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import numpy as np
    import corrdil
    import corrdil.cli  # noqa: F401  (the cli-files workload drives it)
    import_s = time.perf_counter() - t0
    if Path(corrdil.__file__).resolve().parent != ROOT / "src" / "corrdil":
        print(f"error: imported corrdil from {corrdil.__file__}", file=sys.stderr)
        return 2
    import selftest
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            warm = workload.warmup
            warm_out = warm.observe(warm.run())
            setups.append(import_s + (time.perf_counter() - t0))
        broken, _ = selftest.verify_checks(warm, warm_out)
        if broken:
            print("error: check self-test failed: " + "; ".join(broken), file=sys.stderr)
            return 1
        return measure(args, np, workload, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, np, workload, setups) -> int:
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    rounds, samples, problems = [], [], []
    attempted = failed = peak = 0
    finals = []
    origin = time.perf_counter()
    while True:
        lo = len(tracer.spans) if tracer else 0
        times, final = [], 0
        for op in workload.ops:
            attempted += 1
            t0 = time.perf_counter()
            try:
                raw = op.run()
            except Exception as exc:  # a raising operation is a failed one; keep measuring
                times.append(time.perf_counter() - t0)
                failed += 1
                problems.append(f"{op.label}: raised {exc!r}")
                continue
            times.append(time.perf_counter() - t0)
            out = op.observe(raw)
            issues = op.check(out)
            if issues:
                failed += 1
                problems.append(f"{op.label}: " + "; ".join(issues))
                continue
            p, f = op.dims(out)
            peak, final = max(peak, p), final + f
        rounds.append((sum(times), lo, len(tracer.spans) if tracer else 0, peak_rss_mb()))
        samples += times
        finals.append(final)
        if time.perf_counter() - origin >= args.seconds:
            break
    if tracer:
        tracer.uninstall()

    if len(set(finals)) > 1:
        problems.append(f"final dimensions differ between rounds: {finals}")
    walls = [r[0] for r in rounds]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "op_samples": len(samples),
        "blas_threads": dict(BLAS_THREADS), "numpy": np.__version__, "blas": blas_info(np),
        "round_wall_s": walls, "round_peak_rss_mb": [r[3] for r in rounds],
        "setup_samples_s": setups, "problems": problems[:20],
    }
    if args.trace:
        metrics = layer_metrics(tracer, rounds)
        info["layers"] = tracer.summary(rounds[0][1], rounds[0][2])
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.csv", origin)
    else:
        metrics = {
            "wall_s": median(walls),
            "op_p50_s": median(samples),
            "peak_dim": peak,
            "final_dim": finals[0],
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": median(setups),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    info["metrics"] = metrics
    OUT.mkdir(parents=True, exist_ok=True)
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(info, indent=1) + "\n", encoding="utf-8")

    print(f"blas: {info['blas']}, numpy {info['numpy']}, pinned "
          + " ".join(f"{k}={v}" for k, v in BLAS_THREADS.items()))
    print(f"rounds: {len(rounds)}, op_p50_s over {len(samples)} samples, "
          f"setup samples {['%.3f' % s for s in setups]}")
    for p in problems[:10]:
        print(f"problem: {p}")
    correct = failed == 0 and len(set(finals)) == 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_metrics(tracer, rounds) -> dict:
    """Per-layer figures: call counts and amounts of the first traced round
    (every round does the same work), self times as the median over rounds."""
    summaries = [tracer.summary(lo, hi) for _, lo, hi, _ in rounds]
    empty = {"calls": 0, "self_s": 0.0, "amount": 0}
    metrics = {}
    for name, measures in PER_LAYER.items():
        first = summaries[0].get(name, empty)
        for measure in measures:
            if measure == "self_s":
                value = median([s.get(name, empty)["self_s"] for s in summaries])
            else:
                value = first["calls" if measure == "calls" else "amount"]
            metrics[f"{name}.{measure}"] = {"value": value, "unit": MEASURE_UNITS[measure]}
    metrics["trace.wall_s"] = {"value": median([r[0] for r in rounds]), "unit": "s"}
    metrics["trace.spans"] = {"value": rounds[0][2] - rounds[0][1], "unit": "count"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
