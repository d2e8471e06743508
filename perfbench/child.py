"""One workload run in its own process: set up, measure, check, report.

run.py starts this file with the BLAS thread count already in the
environment, so numpy reads it at import. The last line of standard output is
one JSON object with every value the run measured.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

_t_import = time.perf_counter()
import lvxattn  # noqa: E402,F401
IMPORT_S = time.perf_counter() - _t_import

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import COUNT_METRICS, RATIO_METRICS, WORKLOADS, CheckFailed  # noqa: E402

# set-up repeats at least SETUP_MIN_REPS times and until SETUP_TARGET_S is spent,
# so that a set-up of a few milliseconds still yields a steady median
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 50
SETUP_TARGET_S = 4.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# ops_per_s is the median throughput over this many stretches of consecutive ops
THROUGHPUT_STRETCHES = 5
MAX_LOGGED_FAILURES = 3
RUN_DIR = ROOT / ".perfbench_run"


def row(value: float, unit: str, count: int, tail_pct=None, tail=None) -> dict:
    return {"value": value, "unit": unit, "count": count, "tail_pct": tail_pct, "tail": tail}


def summarize(values: list[float], unit: str) -> dict:
    """Median, the highest listed percentile with at least ten samples beyond
    it (None when there are too few samples), and the sample count."""
    n = len(values)
    pct = next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10), None)
    return row(statistics.median(values), unit, n, pct,
               float(np.percentile(values, pct)) if pct else None)


def throughput(op_s: list[float]) -> float:
    """Ops per second of the closed loop. The timed ops are cut into
    THROUGHPUT_STRETCHES stretches of consecutive ops; each gives its op count
    over its summed op time, and the median of these is reported, so that one
    slow stretch of a shared host does not move the result."""
    n = len(op_s)
    k = min(THROUGHPUT_STRETCHES, n)
    stretches = [op_s[i * n // k:(i + 1) * n // k] for i in range(k)]
    return statistics.median(len(s) / sum(s) for s in stretches)


class Loop:
    """A closed loop with one caller; each op is checked after its timed call."""

    def __init__(self, workload, state):
        self.w = workload
        self.state = state
        self.attempted = 0
        self.failed = 0
        self.op_s: list[float] = []
        self.steps: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}
        self.ratios: dict[str, list[float]] = {}

    def one(self, tracer: Tracer | None = None) -> None:
        self.attempted += 1
        if tracer is not None:
            tracer.op = self.attempted
        try:
            t0 = time.perf_counter()
            times, outs = self.w.op(self.state)
            op_s = time.perf_counter() - t0
            if tracer is not None:
                tracer.op = None
            counts = self.w.check(self.state, times, outs)
            for key, value in counts.items():
                if key not in COUNT_METRICS:
                    raise KeyError(f"count {key} is not declared in COUNT_METRICS")
                if self.counts.setdefault(key, value) != value:
                    raise CheckFailed(f"{key} = {value}, earlier op gave {self.counts[key]}")
            ratios = self.w.ratios(times, outs) if hasattr(self.w, "ratios") else {}
        except Exception:  # every failure is counted and the loop goes on
            self.failed += 1
            if self.failed <= MAX_LOGGED_FAILURES:
                print(f"op {self.attempted} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return
        self.op_s.append(op_s)
        for key, value in times.items():
            self.steps.setdefault(key, []).append(value)
        for key, value in ratios.items():
            self.ratios.setdefault(key, []).append(value)

    def run_for(self, seconds: float, tracer: Tracer | None = None) -> list[float]:
        """Run ops while the stretch is more than half a typical op short of
        `seconds`; returns the op times of this stretch."""
        first = len(self.op_s)
        start = time.perf_counter()
        per_op: list[float] = []
        while True:
            elapsed = time.perf_counter() - start
            if per_op and elapsed + statistics.median(per_op) / 2 > seconds:
                break
            self.one(tracer)
            per_op.append(time.perf_counter() - start - elapsed)
        return self.op_s[first:]


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {"cores": len(os.sched_getaffinity(0)), "blas": blas,
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "numpy": np.__version__, "python": platform.python_version(),
            "git_sha": git_sha()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]
    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"

    try:
        setup: list[float] = []
        state = None
        while len(setup) < SETUP_MIN_REPS or (sum(setup) < SETUP_TARGET_S
                                              and len(setup) < SETUP_MAX_REPS):
            state = None    # the previous build is freed before the next one
            shutil.rmtree(workdir, ignore_errors=True)
            t0 = time.perf_counter()
            state = w.build(args.seed, workdir)
            setup.append(time.perf_counter() - t0)

        loop = Loop(w, state)
        loop.one()          # warm-up: checked and counted, not timed
        loop.op_s.clear()
        loop.steps.clear()
        loop.ratios.clear()

        tracer = None
        metrics: dict[str, float] = {}
        if args.trace:
            plain = loop.run_for(args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            before = loop.attempted
            try:
                traced = loop.run_for(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            metrics.update(layer_metrics(tracer.spans, loop.attempted - before, w.kv_rows))
            metrics["tracing.overhead_share"] = (
                statistics.median(traced) / statistics.median(plain) - 1.0
                if plain and traced else 0.0)
        else:
            loop.run_for(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not loop.op_s:
        print("no op succeeded; nothing to report", file=sys.stderr)
        return 1
    rows = {"setup_s": summarize(setup, "s"), "op_s": summarize(loop.op_s, "s")}
    for key, values in loop.steps.items():
        rows[key] = summarize(values, "ms" if key.endswith("_ms") else "s")
    rows["ops_per_s"] = row(throughput(loop.op_s), "1/s", len(loop.op_s))
    if hasattr(w, "THROUGHPUT"):
        rows[w.THROUGHPUT] = rows["ops_per_s"]
    rows["error_rate"] = row(loop.failed / loop.attempted, "ratio", loop.attempted)
    rows["peak_rss_mib"] = row(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                               "MiB", 1)
    rows["import_s"] = row(IMPORT_S, "s", 1)
    metrics.update({key: r["value"] for key, r in rows.items()})
    for key in COUNT_METRICS:
        metrics[key] = loop.counts.get(key, 0)
    for key in RATIO_METRICS:
        metrics[key] = statistics.median(loop.ratios[key]) if key in loop.ratios else 0.0

    trace_file = None
    if tracer is not None:
        RUN_DIR.mkdir(exist_ok=True)
        trace_file = RUN_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_file)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": loop.attempted, "failed": loop.failed,
        "correct": loop.failed == 0, "metrics": metrics,
        "rows": rows, "host": host_facts(),
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
