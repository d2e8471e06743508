"""Command-line front end.

Subcommands:

    run     execute one distributed attention problem, writing LVXT tensors
            and a stats JSON
    cost    closed-form per-worker byte volumes, round times, speedups,
            regime, and memory for a workload/hardware point (JSON)
    sweep   speedup/regime grid over S_Q x S_KV (CSV)
    mllm    toy cross-attention model: one forward+backward with a memory
            ledger, or a max-frames-under-budget query
    verify  run a named invariant suite; exit 0 iff everything passes

Exit codes: 0 success, 1 check/runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from itertools import islice
from pathlib import Path

from . import analytics, volumes
from .cluster import ClusterError, ClusterSpec, Throttled
from .kernels import DEFAULT_TILE_ROWS
from .mllm import (ActivationPolicy, ModelParams, OpCounter, ToyMllmConfig,
                   TOY_CONFIG, max_frames_under_budget, measured_activation_bytes,
                   mllm_backward, mllm_forward)
from .strategies import PROTOCOLS, StrategyKind, partition_rows, run_distributed
from .tensorio import (dtype_from_name, load_tensor, seeded_random_tensor,
                       store_tensor)
from .verify import SUITES, run_suite

# run refuses runs whose peak working set exceeds this many bytes;
# production-scale workloads go through cost
MAX_NUMERIC_BYTES = 1_600_000_000


def _write_json(data: dict, path: str | None) -> None:
    text = json.dumps(data, indent=2)
    if path is None or path == "-":
        print(text)
    else:
        Path(path).write_text(text + "\n")


def _parse_grid(text: str, name: str) -> list[float]:
    """START:STOP[:COUNT][:log|lin]; COUNT defaults to 20, spacing to log."""
    parts = text.split(":")
    if len(parts) < 2:
        raise ValueError(f"{name}: expected START:STOP[:COUNT][:log|lin], got {text!r}")
    start, stop = float(parts[0]), float(parts[1])
    count, log = 20, True
    for extra in parts[2:]:
        if extra == "log":
            log = True
        elif extra == "lin":
            log = False
        else:
            count = int(extra)
    return analytics.grid_values(start, stop, count, log=log)


def _require_positive(args, names) -> None:
    for name in names:
        value = getattr(args, name, None)
        if value is not None and value <= 0:
            raise ValueError(f"--{name.replace('_', '-')} must be positive, got {value}")


def _workload_from_args(args) -> analytics.WorkloadSpec:
    """Resolve preset/flags into a WorkloadSpec. A preset fixes the shape;
    --n and --elem-bytes override it."""
    shape = {f"--{f}": getattr(args, f) for f in ("sq", "skv", "h", "d")}
    if args.preset:
        given = [flag for flag, value in shape.items() if value is not None]
        if given:
            raise ValueError(f"--preset sets the shape; drop {', '.join(given)}")
        return analytics.get_preset(args.preset, n=args.n, elem_bytes=args.elem_bytes)
    missing = [flag for flag, value in shape.items() if value is None]
    if missing:
        raise ValueError(f"missing flags without --preset: {', '.join(missing)}")
    return analytics.WorkloadSpec(s_q=args.sq, s_kv=args.skv, h=args.h, d=args.d,
                                  n=1 if args.n is None else args.n,
                                  elem_bytes=args.elem_bytes or 2)


def _numeric_working_set(strategy: str, s_q: int, s_kv: int, h: int, d: int,
                         elem_bytes: int, backward: bool, n: int = 1) -> int:
    """Bytes a numeric run on n workers holds at its peak, summed over
    workers, as an upper bound. Inputs and outputs take the run's element
    size; kernel scratch is float64 and takes 8.

    Counted: the inputs, plus the larger of two transients that never
    overlap: one float64 buffer the size of the largest input while an input
    is drawn or read, or the run. The run holds two copies of every output
    (the workers' parts, which are the gradient accumulators in the
    backward, and the gathered copy); in the backward, what each body
    allocates besides them: on `lvx` a fresh dQ block per worker, which its
    kernel writes into; on `ring` and `single` the (dK, dV) accumulator
    pieces in flight to their owners, a K/V block of each per worker; on
    `head` the head-split input copies and the local gradients. The kernels
    hold six O- and L-shaped float64 arrays (the forward's scaled Q, running
    O and its update, and merge temporaries; the backward's folded
    [scale Q | L] and [dO | D], dQ sum and its tile update), four K/V tiles
    per worker, one more than they use (K and V staged, each a column wider
    in the backward, and a gradient tile), and one score tile per worker in
    the forward, two in the backward. A score tile is
    [h, query rows, min(DEFAULT_TILE_ROWS, KV rows)], with KV blocks of
    ceil(S_KV / n) rows on `lvx` and `ring`, all S_KV rows of h/n heads on
    `head`, and `single` counted as `ring` at n = 1. Python objects (the
    argument parser, the messages, round records and stats) add
    256 KiB + 6 KiB n², and 6 KiB for each message `volumes.kv_messages` lists,
    counted only up to the first that passes MAX_NUMERIC_BYTES, so a run
    refused on its tensors or n² term walks none, and neither does a phase
    with no K/V hop. The K/V pieces a `ring` worker keeps for its backward
    are views of the input, so only their messages count. The default n=1 is
    the bound for one worker holding every row."""
    q, kv, rows = h * s_q * d, h * s_kv * d, h * s_q
    inputs = q + 2 * kv + (q if backward else 0)
    outputs = q + rows + (q + 2 * kv if backward else 0)
    run = 2 * outputs * elem_bytes + 6 * (q + rows) * 8
    head = strategy == StrategyKind.HEAD_PARALLEL.value
    kv_rows = s_kv if head else -(-s_kv // n)
    cols = min(DEFAULT_TILE_ROWS, kv_rows)
    run += ((4 * d + 2 * backward) * (h if head else n * h) * cols * 8
            + (1 + backward) * rows * cols * 8)
    if head:
        run += (inputs + (q + 2 * kv if backward else 0)) * elem_bytes
    elif backward:
        grad_rows = -(-s_q // n) if strategy == StrategyKind.LVX.value else 2 * kv_rows
        run += n * h * grad_rows * d * elem_bytes
    total = (256 + 6 * n * n) * 1024 + inputs * elem_bytes + max(max(q, kv) * 8, run)
    if total > MAX_NUMERIC_BYTES:
        return total
    q_sizes, kv_sizes = ([b - a for a, b in partition_rows(s, n)] for s in (s_q, s_kv))
    messages = (m for phase in volumes.PHASES[:1 + backward]
                if any(hop.axis == "kv" for hop in volumes.HOPS[(strategy, phase)])
                for i in range(n) for r in range(n)
                for m in volumes.kv_messages(strategy, phase, i, r, q_sizes, kv_sizes, h))
    # enough messages to pass the cap, and no more
    room = (MAX_NUMERIC_BYTES - total) // (6 * 1024) + 1
    return total + 6 * 1024 * sum(1 for _ in islice(messages, room))


def cmd_run(args) -> int:
    _require_positive(args, ["n", "sq", "skv", "h", "d", "bandwidth"])
    s_q, s_kv, h, d, n = args.sq, args.skv, args.h, args.d, args.n
    dtype = dtype_from_name(args.dtype)
    total_bytes = _numeric_working_set(args.strategy, s_q, s_kv, h, d, dtype.itemsize,
                                       backward=args.backward, n=n)
    if total_bytes > MAX_NUMERIC_BYTES:
        raise ValueError(f"run would hold {total_bytes} bytes at its peak; "
                         f"use cost for workloads of this size")
    link = Throttled(bandwidth=math.inf if args.bandwidth is None else args.bandwidth,
                     latency=args.latency)

    def load_or_random(path, shape, stream):
        if path:
            t = load_tensor(path)
            if t.shape != shape:
                raise ValueError(f"{path}: shape {t.shape} != expected {shape}")
            return t.astype(dtype, copy=False)
        return seeded_random_tensor(args.seed, shape, dtype, stream=stream)

    Q = load_or_random(args.input_q, (h, s_q, d), 0)
    K = load_or_random(args.input_k, (h, s_kv, d), 1)
    V = load_or_random(args.input_v, (h, s_kv, d), 2)
    dO = None
    if args.backward:
        dO = load_or_random(args.input_do, (h, s_q, d), 3)

    res = run_distributed(StrategyKind(args.strategy), Q, K, V, dO=dO,
                          spec=ClusterSpec(n, link))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    store_tensor(res.O, out_dir / "o.lvxt")
    store_tensor(res.L, out_dir / "l.lvxt")
    written = ["o.lvxt", "l.lvxt"]
    if res.grads is not None:
        store_tensor(res.grads.dQ, out_dir / "dq.lvxt")
        store_tensor(res.grads.dK, out_dir / "dk.lvxt")
        store_tensor(res.grads.dV, out_dir / "dv.lvxt")
        written += ["dq.lvxt", "dk.lvxt", "dv.lvxt"]

    stats = {
        "strategy": args.strategy,
        "n": n,
        "workload": {"s_q": s_q, "s_kv": s_kv, "h": h, "d": d,
                     "dtype": args.dtype, "seed": args.seed},
        # an unlimited link writes null: JSON has no infinity
        "transport": {"bandwidth": link.bandwidth if math.isfinite(link.bandwidth) else None,
                      "latency": link.latency},
        "links": res.stats.as_dict(),
        "total_bytes": res.stats.total_bytes(),
        "per_worker_bytes_sent": [res.stats.bytes_sent_by(i) for i in range(n)],
        "total_modeled_comm_seconds": res.stats.total_modeled_seconds(),
        "rounds_forward": res.traces_forward[0].num_rounds,
        "traces": {
            "forward": [t.as_dict() for t in res.traces_forward],
            "backward": ([t.as_dict() for t in res.traces_backward]
                         if res.traces_backward else None),
        },
        "outputs": written,
    }
    _write_json(stats, str(out_dir / "stats.json"))
    return 0


def cmd_cost(args) -> int:
    _require_positive(args, ["gpu_flops", "net_bandwidth", "sq", "skv", "h", "d",
                             "elem_bytes"])
    w = _workload_from_args(args)
    hw = analytics.HardwareSpec(gpu_flops=args.gpu_flops, net_bandwidth=args.net_bandwidth)
    times = analytics.round_times(w, hw)
    regime = analytics.classify_regime(w, hw)
    # the workload's traffic defaults to bf16, the memory anchors to f32
    mem_bytes = args.elem_bytes or 4
    # the model width of every preset is h * d
    d_model = w.h * w.d
    memory = analytics.memory_cross_attention(w.s_q, w.s_kv, d_model, mem_bytes)
    out = {
        **analytics.volume_report(w),
        "hardware": asdict(hw),
        "round_times": {name: t.as_dict() for name, t in times.items()},
        "speedup": analytics.speedup(w, hw),
        "speedup_closed_form": analytics.speedup_closed_form(w, hw),
        "regime": regime.as_dict(),
        "memory": {
            "d_model": d_model,
            "elem_bytes": mem_bytes,
            "kv_bytes": memory["kv_bytes"],
            "kv_gib": memory["kv_bytes"] / 2**30,
            "kv_gb": memory["kv_bytes"] / 1e9,
            "flash_working_set_bytes": memory["flash_working_set_bytes"],
            "flash_working_set_gib": memory["flash_working_set_bytes"] / 2**30,
            "flash_working_set_gb": memory["flash_working_set_bytes"] / 1e9,
        },
    }
    _write_json(out, args.out)
    return 0


def cmd_sweep(args) -> int:
    _require_positive(args, ["gpu_flops", "net_bandwidth", "h", "d", "n", "elem_bytes"])
    s_q_values = _parse_grid(args.sq, "--sq")
    s_kv_values = _parse_grid(args.skv, "--skv")
    hw = analytics.HardwareSpec(gpu_flops=args.gpu_flops, net_bandwidth=args.net_bandwidth)
    rows = analytics.sweep(s_q_values, s_kv_values, hw, h=args.h, d=args.d,
                           n=args.n, elem_bytes=args.elem_bytes)
    text = analytics.format_sweep_csv(rows)
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
    return 0


def _load_mllm_config(args) -> ToyMllmConfig:
    if args.config:
        raw = Path(args.config).read_text()
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as e:
            raise ValueError(f"{args.config}: malformed JSON at line {e.lineno} "
                             f"column {e.colno}: {e.msg}")
        return ToyMllmConfig.from_dict(data)
    return TOY_CONFIG


def cmd_mllm(args) -> int:
    config = _load_mllm_config(args)
    policy = ActivationPolicy(args.policy)
    if args.budget is not None:
        ignored = [flag for flag, value in (("--seed", args.seed), ("--out-dir", args.out_dir))
                   if value is not None]
        if ignored:
            raise ValueError(f"--budget runs no step; drop {', '.join(ignored)}")
        if args.budget <= 0:
            raise ValueError(f"--budget must be positive, got {args.budget}")
        frames = max_frames_under_budget(config, policy, args.budget)
        out = {"policy": policy.value, "budget_bytes": args.budget,
               "max_frames": frames, "config": config.as_dict()}
        _write_json(out, args.out)
        print(f"{frames} frames", file=sys.stderr)
        return 0

    seed = 0 if args.seed is None else args.seed
    dtype = config.np_dtype
    params = ModelParams.init_random(config, seed=seed)
    x0 = seeded_random_tensor(seed, (config.s_q, config.d_embed), dtype, stream=101)
    y = seeded_random_tensor(seed, (config.s_kv, config.d_embed), dtype, stream=102)
    g_out = seeded_random_tensor(seed, (config.s_q, config.d_embed), dtype, stream=103)
    output, saved, ledger = mllm_forward(x0, y, params, config, policy)
    counter = OpCounter()
    grads = mllm_backward(g_out, saved, y, params, config, policy, counter=counter)

    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    store_tensor(output, out_dir / "output.lvxt")
    store_tensor(grads.d_x0, out_dir / "dx0.lvxt")
    store_tensor(grads.d_y, out_dir / "dy.lvxt")
    report = {
        "policy": policy.value,
        "config": config.as_dict(),
        "seed": seed,
        "ledger": ledger.as_dict(),
        "measured_activation_bytes": measured_activation_bytes(saved),
        "backward_projection_flops": counter.projection_flops,
        "outputs": ["output.lvxt", "dx0.lvxt", "dy.lvxt"],
    }
    _write_json(report, str(out_dir / "ledger.json") if args.out is None else args.out)
    return 0


def cmd_verify(args) -> int:
    report = run_suite(args.suite)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['name']} (error={check['error']:.3e}, "
              f"tolerance={check['tolerance']:.3e})")
    print(f"{report['suite']}: {report['num_checks']} checks, "
          f"{'all passed' if report['passed'] else 'FAILURES'}")
    if args.json:
        _write_json(report, args.json)
    return 0 if report["passed"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser is built once per process: parsing does not change it, and
    building it costs more than a small run's parse."""
    parser = argparse.ArgumentParser(
        prog="lvxattn",
        description="Distributed cross-attention engine with exact byte accounting "
                    "and closed-form cost models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one distributed attention problem")
    p_run.add_argument("--strategy", choices=[kind.value for kind in PROTOCOLS],
                       default="lvx")
    p_run.add_argument("--n", type=int, default=1, help="worker count")
    p_run.add_argument("--sq", type=int, required=True, help="query rows S_Q")
    p_run.add_argument("--skv", type=int, required=True, help="key/value rows S_KV")
    p_run.add_argument("--h", type=int, required=True, help="attention heads")
    p_run.add_argument("--d", type=int, required=True, help="per-head dimension")
    p_run.add_argument("--dtype", choices=["f32", "f64"], default="f64")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--bandwidth", type=float, default=None,
                       help="link bytes/second (default: unlimited)")
    p_run.add_argument("--latency", type=float, default=0.0,
                       help="link seconds per message (default 0)")
    p_run.add_argument("--backward", action="store_true",
                       help="also run the backward pass")
    p_run.add_argument("--input-q", default=None, help="LVXT file for Q")
    p_run.add_argument("--input-k", default=None, help="LVXT file for K")
    p_run.add_argument("--input-v", default=None, help="LVXT file for V")
    p_run.add_argument("--input-do", default=None, help="LVXT file for dO")
    p_run.add_argument("--out-dir", default=".", help="directory for LVXT outputs")
    p_run.set_defaults(func=cmd_run)

    p_cost = sub.add_parser("cost", help="closed-form cost model for one point")
    p_cost.add_argument("--preset", choices=sorted(analytics.PRESETS), default=None)
    p_cost.add_argument("--sq", type=int, default=None)
    p_cost.add_argument("--skv", type=int, default=None)
    p_cost.add_argument("--h", type=int, default=None)
    p_cost.add_argument("--d", type=int, default=None)
    p_cost.add_argument("--n", type=int, default=None)
    p_cost.add_argument("--elem-bytes", type=int, default=None,
                        help="element size (default: 2 for traffic, 4 for memory)")
    p_cost.add_argument("--gpu-flops", type=float, default=312e12)
    p_cost.add_argument("--net-bandwidth", type=float, default=25e9)
    p_cost.add_argument("--out", default=None, help="JSON path (default stdout)")
    p_cost.set_defaults(func=cmd_cost)

    p_sweep = sub.add_parser("sweep", help="speedup grid over S_Q x S_KV (CSV)")
    p_sweep.add_argument("--sq", required=True,
                         help="grid START:STOP[:COUNT][:log|lin], e.g. 1e3:1e6:20:log")
    p_sweep.add_argument("--skv", required=True)
    p_sweep.add_argument("--h", type=int, default=32)
    p_sweep.add_argument("--d", type=int, default=128)
    p_sweep.add_argument("--n", type=int, default=16)
    p_sweep.add_argument("--elem-bytes", type=int, default=2)
    p_sweep.add_argument("--gpu-flops", type=float, default=312e12)
    p_sweep.add_argument("--net-bandwidth", type=float, default=25e9)
    p_sweep.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_mllm = sub.add_parser("mllm", help="toy cross-attention model runs")
    p_mllm.add_argument("--config", default=None,
                        help="JSON config path (default: shipped toy preset)")
    p_mllm.add_argument("--policy", choices=[p.value for p in ActivationPolicy],
                        required=True)
    p_mllm.add_argument("--budget", type=int, default=None,
                        help="memory budget in bytes: report max frames instead of running")
    p_mllm.add_argument("--seed", type=int, default=None, help="default 0; not with --budget")
    p_mllm.add_argument("--out-dir", default=None,
                        help="directory for outputs (default .; not with --budget)")
    p_mllm.add_argument("--out", default=None,
                        help="report JSON path (default OUT_DIR/ledger.json)")
    p_mllm.set_defaults(func=cmd_mllm)

    p_verify = sub.add_parser("verify", help="run a named invariant suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--json", default=None, help="write the JSON report here")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ClusterError as e:
        print(f"cluster error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
