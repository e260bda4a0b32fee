"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads are defined in workloads.py. After a set-up that is repeated
and timed (setup_s is the median), the run repeats the workload's pass
until --seconds have passed. With --trace 0 it reports the end-to-end
metrics, built from each operation's fastest repetition over the passes
(see op_best); with --trace 1 it alternates untraced and traced passes
and reports the per-layer metrics of the traced ones, medians over the
traced passes (see spans.py).
--smoke runs every workload's code path on the paper's Fig. 1 graph.

The second-last line of output is a detail record (environment, every
pass time, operation latency, checks), which compare.py reads from the captured
output; the last line is the result {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="run on the Fig. 1 graph (n=8)")
    return p.parse_args(argv)


def pass_time(walls: list[float], rows: list[list[float]]) -> float:
    """Wall time of one pass, robust to slow phases of a shared machine.

    The passes run the same operations in the same order, so operation i
    of every pass is the same work: the estimate is the sum over
    operations of each one's best latency, plus the least time a pass
    spent between operations.
    """
    between = min(w - sum(r) for w, r in zip(walls, rows))
    return between + sum(op_best(rows))


def op_best(rows: list[list[float]]) -> list[float]:
    """Latency of each operation of the pass: its fastest repetition.

    Other tenants of a shared machine only ever slow an operation down,
    for stretches of seconds to minutes; the fastest of the repetitions
    is the operation's own cost and does not depend on how much of the
    run such a stretch covered.
    """
    return [min(col) for col in zip(*rows)]


def op_latency(times: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond
    it; with fewer than 20 samples that would not be a tail, so the
    maximum is reported instead."""
    s = sorted(times)
    if len(s) >= 20:
        tail, percentile, beyond = s[-11], 100.0 * (len(s) - 10) / len(s), 10
    else:
        tail, percentile, beyond = s[-1], 100.0, 0
    return {"samples": len(s), "sample": "fastest latency of one operation over the passes",
            "p50_s": statistics.median(s), "tail_s": tail, "tail_percentile": percentile,
            "beyond_tail": beyond}


def environment(args) -> dict:
    import numpy
    import scipy
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        top, sha = git.stdout.split() if git.returncode == 0 else (None, None)
        sha = sha if top and Path(top).resolve() == ROOT else None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        sha = None
    return {
        "git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "blas_threads": int(BLAS_THREADS),
        "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
        "smoke": args.smoke, "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "extreme_blocks" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy loads its BLAS
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    import extreme_blocks
    if Path(extreme_blocks.__file__).resolve().parent != SRC / "extreme_blocks":
        print(f"perfbench: imported {extreme_blocks.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # still clean up
    work = HERE / ".work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        record = measure(wl, args, work, tracer, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if record is None:
        return 1
    record["env"] = environment(args)
    print(json.dumps(record))
    print(json.dumps(record["result"]))
    return 0


def measure(wl, args, work: Path, tracer, workloads) -> dict | None:
    if tracer is not None:
        import spans
    setup_s, reps = [], 1 if args.smoke else wl.setup_reps

    def set_up():
        t0 = time.perf_counter()
        inputs = wl.setup(args.seed, args.smoke, work)
        setup_s.append(time.perf_counter() - t0)
        return inputs

    x = set_up()

    run_s, traced_s, op_rows, traced_rows, layers = [], [], [], [], []
    failed_ops, out, error = 0, None, None
    start = time.perf_counter()
    try:
        while not run_s or time.perf_counter() - start < args.seconds:
            ops = workloads.Ops()
            t0 = time.perf_counter()
            out = wl.run_pass(x, ops)
            run_s.append(time.perf_counter() - t0)
            op_rows.append(ops.times)
            # the other set-ups are spread over the run, one after each
            # pass, so their median does not hang on one stretch of it
            if len(setup_s) < reps:
                set_up()
            if tracer is not None:
                tracer.reset()
                tracer.install()
                try:
                    ops = workloads.Ops()
                    t0 = time.perf_counter()
                    wl.run_pass(x, ops, tracer)
                    traced_s.append(time.perf_counter() - t0)
                finally:
                    tracer.uninstall()
                traced_rows.append(ops.times)
                layers.append(spans.layer_metrics(tracer, traced_s[-1]))
    except Exception:  # a failed operation ends the measurement
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        failed_ops += 1
    if not run_s or (tracer is not None and not traced_s):
        return None
    while len(setup_s) < reps and error is None:
        set_up()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        checks, extra = wl.checks(x, out) if error is None else ([], {})
    except Exception:
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        checks, extra = [{"name": "checks raised", "ok": False, "detail": error[-300:]}], {}
    op_times = [t for row in op_rows + traced_rows for t in row]
    failed_ops += sum(t > workloads.OP_CAP_S for t in op_times)
    failed = failed_ops + sum(not c["ok"] for c in checks)
    attempted = len(op_times) + (1 if error and failed_ops else 0) + len(checks)
    latency = op_latency(op_best(op_rows))
    run_estimate = pass_time(run_s, op_rows)

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "run_s": (run_estimate, "s"),
            "op_p50_s": (latency["p50_s"], "s"),
            "op_tail_s": (latency["tail_s"], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        values = {k: statistics.median(p[k] for p in layers) for k in layers[0]}
        if values["fit.fit_s"] and error is None:
            values["fit.peak_traced_mb"] = fit_peak_memory(wl, x, tracer, workloads)
        values["trace.overhead_ratio"] = pass_time(traced_s, traced_rows) / run_estimate - 1
        values["tol_miss_ratio"] = extra.get("tol_miss_ratio", 0.0)
        values["fit_max_rel_err"] = extra.get("fit_max_rel_err", 0.0)
        metrics = {k: (values[k], unit) for k, unit in spans.PER_LAYER.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {
        "record": "perfbench", "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "setup_s": setup_s, "pass_wall_s": run_s, "op_s": op_rows,
        "run_s": run_estimate, "traced_pass_wall_s": traced_s, "op_latency": latency,
        "peak_rss_mb": peak_rss_mb,
        "checks": checks, "fail_ratio": failed / attempted, **extra,
        "layers_per_pass": layers, "error": error, "result": result,
    }


def fit_peak_memory(wl, x, tracer, workloads) -> float:
    """Peak traced memory of the fits, from one extra pass under tracemalloc."""
    tracer.reset()
    tracer.memory = True
    tracer.install()
    try:
        wl.run_pass(x, workloads.Ops(), tracer)
    finally:
        tracer.uninstall()
        tracer.memory = False
    return tracer.counters["fit.peak_traced_mb"]


if __name__ == "__main__":
    sys.exit(main())
