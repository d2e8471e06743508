"""Benchmark entry point.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each workload runs in its own process
(child.py) with one BLAS thread set in its environment before numpy loads; a
configuration whose workers times BLAS threads exceeds the cores this process
may use is refused, because oversubscribed runs measure the scheduler. The
output is a table of every metric with its unit, median, tail and sample
count, then, as the last line, one JSON object with `correct`, `attempted`,
`failed` and the metrics BENCHMARK.json lists: its `end_to_end` metrics with
`--trace 0` and its `per_layer` metrics with `--trace 1`. With `--workload
all` (the default) the workloads run one after another and the last line maps
each workload to its object.

This file imports no numpy, so it never starts BLAS threads of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# most worker threads any step of the workload runs at once
WORKLOAD_WORKERS = {"longvideo_throttled": 2, "mllm_toy_step": 1, "small_cli_runs": 2}
BLAS_THREADS = 1
# bounds the child's set-up (about four seconds), warm-up op and measuring time
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    cores = len(os.sched_getaffinity(0))
    if WORKLOAD_WORKERS[name] * BLAS_THREADS > cores:
        raise BenchError(f"{name}: {WORKLOAD_WORKERS[name]} workers x {BLAS_THREADS} BLAS "
                         f"threads exceeds the {cores} cores available; refusing a "
                         f"wall-clock run")
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: no result within {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name}: workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def print_table(res: dict, units: dict[str, str]) -> None:
    host = res["host"]
    print(f"== {res['workload']}  seed={res['seed']}  seconds={res['seconds']}  "
          f"trace={res['trace']}  attempted={res['attempted']}  failed={res['failed']}")
    print(f"   host: cores={host['cores']} blas={host['blas']['name']} "
          f"{host['blas']['version']} blas_threads={host['blas_threads']['OPENBLAS_NUM_THREADS']} "
          f"numpy={host['numpy']} python={host['python']} git={host['git_sha']}")
    # timings show their median and tail; the other rows show one value
    print(f"   {'metric':<44} {'value':>12} {'tail':>12} {'pct':>5} {'count':>6}  unit")
    for key, r in res["rows"].items():
        print(f"   {key:<44} {_fmt(r['value']):>12} {_fmt(r['tail']):>12} "
              f"{_fmt(r['tail_pct']):>5} {r['count']:>6}  {r['unit']}")
    for key, value in res["metrics"].items():
        if key not in res["rows"]:
            print(f"   {key:<44} {_fmt(value):>12} {'':>12} {'':>5} {'':>6}  "
                  f"{units.get(key, '')}")
    if res["trace_file"]:
        print(f"   spans written to {res['trace_file']}")


def contract_line(res: dict, declared: list[dict]) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in res["metrics"]]
    if missing:
        raise BenchError(f"{res['workload']}: no value for {', '.join(missing)}")
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
                        for m in declared}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOAD_WORKERS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        if not (ROOT / "src" / "lvxattn" / "__init__.py").is_file():
            raise BenchError(f"no program source at {ROOT / 'src' / 'lvxattn'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = spec["per_layer" if args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        names = list(WORKLOAD_WORKERS) if args.workload == "all" else [args.workload]
        lines = {}
        for name in names:
            res = run_workload(name, args.seed, seconds, args.trace)
            print_table(res, units)
            lines[name] = contract_line(res, declared)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(lines[names[0]] if len(names) == 1 else {"workloads": lines}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
