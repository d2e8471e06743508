"""The three benchmark workloads.

Each workload builds its inputs from the seed (`build`), runs one op of a
closed loop with a single caller (`op`) and checks that op's outputs outside
the timed region (`check`). The program sees only the generated inputs and
is reached through public functions, looked up on their modules at call time
so that the traced run's wrappers see the calls.

`op` returns the wall seconds of each named step plus the outputs to check.
`check` raises CheckFailed on a wrong output and returns exact counts; a count
reported again in a later op must repeat bit for bit.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lvxattn import cli, mllm, strategies
from lvxattn.analytics import HardwareSpec, WorkloadSpec, round_times
from lvxattn.cluster import ClusterSpec, Throttled
from lvxattn.kernels import dense_attention, dense_attention_backward
from lvxattn.strategies import StrategyKind
from lvxattn.tensorio import load_tensor, seeded_random_tensor, store_tensor
from lvxattn.verify import expected_bytes_by_worker, max_norm_error

TOL_F32 = 1e-4
TOL_F64 = 1e-12


class CheckFailed(Exception):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _close(what: str, actual, expected, tol: float) -> None:
    err = max_norm_error(actual, expected)
    _require(err <= tol, f"{what}: max-norm error {err:.3e} exceeds {tol:.0e}")


def attention_oracle(Q, K, V, dO) -> dict[str, np.ndarray]:
    """Float64 dense forward and backward: the reference every run is held to."""
    Qf, Kf, Vf, dOf = (t.astype(np.float64) for t in (Q, K, V, dO))
    st = dense_attention(Qf, Kf, Vf)
    g = dense_attention_backward(Qf, Kf, Vf, st.O, st.L, dOf)
    return {"O": st.O, "L": st.L, "dQ": g.dQ, "dK": g.dK, "dV": g.dV}


def _check_traffic(what: str, kind: StrategyKind, n: int, phases, shards, h, d, b,
                   traced_by_phase, sent_by_worker) -> dict[str, int]:
    """Per-phase round traces and per-worker transport counters against the
    closed forms, bit for bit; returns the per-phase totals."""
    totals = {}
    expected_sent = [0] * n
    for phase in phases:
        expected = expected_bytes_by_worker(kind, phase, shards.q_sizes, shards.kv_sizes,
                                            h, d, b)
        _require(traced_by_phase[phase] == expected,
                 f"{what}: {phase} bytes {traced_by_phase[phase]} != closed form {expected}")
        expected_sent = [a + e for a, e in zip(expected_sent, expected)]
        totals[phase] = sum(expected)
    _require(sent_by_worker == expected_sent,
             f"{what}: transport bytes {sent_by_worker} != closed form {expected_sent}")
    return totals


# exact counts, reported per strategy; zero where a workload has no such run
COUNT_METRICS = (
    [f"cluster.bytes.{s}.{p}" for s in ("lvx", "ring", "head") for p in ("forward", "backward")]
    + ["cluster.messages.lvx.fwd"]
    + [f"cluster.messages.{s}.step" for s in ("lvx", "ring", "head")]
    + [f"strategies.{s}.rounds" for s in ("lvx", "ring", "head")]
    + ["mllm.projection_flops.store", "mllm.projection_flops.recompute"])
# per-op ratios, reported as medians; zero where a workload has none
RATIO_METRICS = ("analytics.model_gap.lvx", "analytics.model_gap.ring")


def _traffic_counts(strategy: str, totals: dict[str, int], links: dict,
                    rounds: int) -> dict[str, int]:
    """Counts of one run: bytes per phase, messages and forward rounds. A
    forward-only run reports its messages under `fwd`, a full step under
    `step`."""
    if strategy == "single":
        return {}
    messages = sum(link["message_count"] for link in links.values())
    if "backward" not in totals:
        return {f"cluster.messages.{strategy}.fwd": messages}
    counts = {f"cluster.bytes.{strategy}.{phase}": total for phase, total in totals.items()}
    counts[f"cluster.messages.{strategy}.step"] = messages
    counts[f"strategies.{strategy}.rounds"] = rounds
    return counts


class LongVideoThrottled:
    """The paper's regime at CPU scale: S_KV = 64 x S_Q over a slow link."""

    name = "longvideo_throttled"
    kv_rows = None
    H, D, S_Q, S_KV = 4, 64, 256, 16384
    BANDWIDTH = 64e6
    # (metric, strategy, workers, with backward)
    STEPS = (("lvx_fwd_s", "lvx", 2, False), ("lvx_step_s", "lvx", 2, True),
             ("ring_step_s", "ring", 2, True), ("head_step_s", "head", 2, True),
             ("single_step_s", "single", 1, True))

    def build(self, seed: int, workdir: Path):
        h, d = self.H, self.D
        Q, K, V, dO = (seeded_random_tensor(seed, shape, np.float32, stream=i)
                       for i, shape in enumerate([(h, self.S_Q, d), (h, self.S_KV, d),
                                                  (h, self.S_KV, d), (h, self.S_Q, d)]))
        return {"Q": Q, "K": K, "V": V, "dO": dO, "ref": attention_oracle(Q, K, V, dO)}

    def op(self, st):
        transport = Throttled(bandwidth=self.BANDWIDTH, latency=0.0)
        times, outs = {}, {}
        for metric, strategy, n, backward in self.STEPS:
            t0 = time.perf_counter()
            outs[metric] = strategies.run_distributed(
                strategy, st["Q"], st["K"], st["V"], dO=st["dO"] if backward else None,
                spec=ClusterSpec(n, transport))
            times[metric] = time.perf_counter() - t0
        return times, outs

    def check(self, st, times, outs) -> dict[str, float]:
        ref, h, d, b = st["ref"], self.H, self.D, 4
        counts: dict[str, float] = {}
        for metric, strategy, n, backward in self.STEPS:
            res = outs[metric]
            kind = StrategyKind(strategy)
            for key in ("O", "L"):
                _close(f"{metric} {key}", getattr(res, key), ref[key], TOL_F32)
            phases = ("forward",)
            traced = {"forward": [t.total_sent_bytes() for t in res.traces_forward]}
            if backward:
                for key in ("dQ", "dK", "dV"):
                    _close(f"{metric} {key}", getattr(res.grads, key), ref[key], TOL_F32)
                phases = ("forward", "backward")
                traced["backward"] = [t.total_sent_bytes() for t in res.traces_backward]
            sent = [res.stats.bytes_sent_by(i) for i in range(n)]
            totals = _check_traffic(metric, kind, n, phases, res.shards, h, d, b, traced, sent)
            counts.update(_traffic_counts(strategy, totals, res.stats.as_dict(),
                                          res.traces_forward[0].num_rounds))
        return counts

    def ratios(self, times, outs) -> dict[str, float]:
        """Measured per-round time of each rotation step over the closed-form
        round time, with the model's compute rate set to the kernel rate the
        round traces measured in this op."""
        work = WorkloadSpec(s_q=self.S_Q, s_kv=self.S_KV, h=self.H, d=self.D, n=2,
                            elem_bytes=4)
        kernel_flops, kernel_s = 0.0, 0.0
        for metric in ("lvx_step_s", "ring_step_s"):
            res = outs[metric]
            # forward 4 and backward 10 flops per (query row, key row, column)
            kernel_flops += 14.0 * self.H * self.S_Q * self.S_KV * self.D
            kernel_s += sum(t.compute_only_seconds()
                            for t in res.traces_forward + res.traces_backward)
        model = round_times(work, HardwareSpec(gpu_flops=kernel_flops / kernel_s,
                                               net_bandwidth=self.BANDWIDTH))
        return {f"analytics.model_gap.{s}":
                (times[f"{s}_step_s"] / work.n) / (model[s].round_fwd + model[s].round_bwd)
                for s in ("lvx", "ring")}


class MllmToyStep:
    """One training step of the shipped toy model under each activation policy."""

    name = "mllm_toy_step"
    kv_rows = mllm.TOY_CONFIG.s_kv
    POLICIES = ("store", "recompute")

    def build(self, seed: int, workdir: Path):
        c = mllm.TOY_CONFIG
        dt = c.np_dtype
        st = {"params": mllm.ModelParams.init_random(c, seed=seed),
              "x0": seeded_random_tensor(seed, (c.s_q, c.d_embed), dt, stream=101),
              "y": seeded_random_tensor(seed, (c.s_kv, c.d_embed), dt, stream=102),
              "g": seeded_random_tensor(seed, (c.s_q, c.d_embed), dt, stream=103)}
        # the reference every op must reproduce bit for bit, under both policies
        out, grads, _ = self._step(st, "store")
        st["ref"] = self._flat(out, grads)
        return st

    @staticmethod
    def _step(st, policy):
        c = mllm.TOY_CONFIG
        counter = mllm.OpCounter()
        out, saved, _ = mllm.mllm_forward(st["x0"], st["y"], st["params"], c, policy)
        grads = mllm.mllm_backward(st["g"], saved, st["y"], st["params"], c, policy,
                                   counter=counter)
        return out, grads, counter.projection_flops

    def op(self, st):
        times, outs = {}, {}
        for policy in self.POLICIES:
            t0 = time.perf_counter()
            outs[policy] = self._step(st, policy)
            times[f"mllm_{policy}_step_s"] = time.perf_counter() - t0
        return times, outs

    @staticmethod
    def _flat(out, grads) -> list[np.ndarray]:
        arrays = [out, grads.d_x0, grads.d_y]
        for pos in sorted(grads.ca):
            p = grads.ca[pos]
            arrays += [p.w_q, p.w_k, p.w_v, p.w_o]
        for p in grads.lm:
            arrays += [p.w1, p.w2]
        return arrays

    def check(self, st, times, outs) -> dict[str, float]:
        c = mllm.TOY_CONFIG
        hd = c.h * c.d
        q_flops = mllm.projection_flops(c.s_q, c.d_embed, hd)
        kv_flops = mllm.projection_flops(c.s_kv, c.d_embed, hd)
        expected_flops = {"store": c.num_ca_layers * q_flops,
                          "recompute": c.num_ca_layers * (q_flops + 2 * kv_flops)}
        flat = {}
        for policy in self.POLICIES:
            out, grads, flops = outs[policy]
            _require(flops == expected_flops[policy],
                     f"{policy}: projection flops {flops} != {expected_flops[policy]}")
            flat[policy] = self._flat(out, grads)
            _require(all(np.isfinite(a).all() for a in flat[policy]),
                     f"{policy}: non-finite output or gradient")
        for policy in self.POLICIES:
            _require(all(a.dtype == r.dtype and a.tobytes() == r.tobytes()
                         for a, r in zip(flat[policy], st["ref"])),
                     f"{policy}: output or gradients differ bitwise from the reference")
        return {f"mllm.projection_flops.{p}": outs[p][2] for p in self.POLICIES}


@dataclass(frozen=True)
class _Shape:
    s_q: int
    s_kv: int
    h: int


class SmallCliRuns:
    """Many tiny CLI runs, so the harness, LVXT I/O and CLI glue dominate."""

    name = "small_cli_runs"
    THROUGHPUT = "small_runs_per_s"
    kv_rows = None
    NUM_SHAPES = 32
    D = 16
    # strategy and worker count, cycled per shape
    CALLS = (("lvx", 2), ("ring", 2), ("head", 2), ("single", 1))

    def build(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        shapes = [_Shape(int(rng.integers(1, 33)), int(rng.integers(8, 513)),
                         int(rng.choice([2, 4]))) for _ in range(self.NUM_SHAPES)]
        # shape 0 leaves an empty query shard at n=2; shape 1 splits both axes unevenly
        shapes[0] = _Shape(1, shapes[0].s_kv, shapes[0].h)
        shapes[1] = _Shape(2 * int(rng.integers(0, 16)) + 1,
                           2 * int(rng.integers(4, 256)) + 1, shapes[1].h)
        cases = []
        for k, s in enumerate(shapes):
            case_dir = workdir / f"case{k}"
            case_dir.mkdir(parents=True)
            dims = [(s.h, s.s_q, self.D), (s.h, s.s_kv, self.D), (s.h, s.s_kv, self.D),
                    (s.h, s.s_q, self.D)]
            tensors = [seeded_random_tensor(seed, dim, np.float64, stream=4 * k + j)
                       for j, dim in enumerate(dims)]
            files = {}
            for key, t in zip(("q", "k", "v", "do"), tensors):
                files[key] = case_dir / f"{key}.lvxt"
                store_tensor(t, files[key])
            cases.append((s, files, attention_oracle(*tensors)))
        return {"cases": cases, "out": workdir / "out", "calls": 0}

    def op(self, st):
        call = st["calls"]
        st["calls"] += 1
        case = st["cases"][(call // len(self.CALLS)) % len(st["cases"])]
        shape, files, _ = case
        strategy, n = self.CALLS[call % len(self.CALLS)]
        argv = ["run", "--strategy", strategy, "--n", str(n), "--sq", str(shape.s_q),
                "--skv", str(shape.s_kv), "--h", str(shape.h), "--d", str(self.D),
                "--dtype", "f64", "--backward",
                "--input-q", str(files["q"]), "--input-k", str(files["k"]),
                "--input-v", str(files["v"]), "--input-do", str(files["do"]),
                "--out-dir", str(st["out"])]
        t0 = time.perf_counter()
        rc = cli.main(argv)
        seconds = time.perf_counter() - t0
        return {"small_run_ms": seconds * 1e3}, (call, strategy, n, case, rc)

    def check(self, st, times, outs) -> dict[str, float]:
        call, strategy, n, (shape, _, ref), rc = outs
        what = f"call {call} ({strategy}, n={n}, {shape})"
        out = st["out"]
        try:
            _require(rc == 0, f"{what}: exit code {rc}")
            for key, name in (("O", "o"), ("L", "l"), ("dQ", "dq"), ("dK", "dk"),
                              ("dV", "dv")):
                _close(f"{what} {key}", load_tensor(out / f"{name}.lvxt"), ref[key], TOL_F64)
            stats = json.loads((out / "stats.json").read_text())
            traced = {phase: [sum(sum(r["sent_bytes"].values()) for r in t["rounds"])
                              + sum(t["epilogue_sent_bytes"].values())
                              for t in stats["traces"][phase]]
                      for phase in ("forward", "backward")}
            shards = strategies.ShardSpec.balanced(shape.s_q, shape.s_kv, n)
            totals = _check_traffic(what, StrategyKind(strategy), n, ("forward", "backward"),
                                    shards, shape.h, self.D, 8, traced,
                                    stats["per_worker_bytes_sent"])
        finally:
            # a later call must not pass on files this one left behind
            shutil.rmtree(out, ignore_errors=True)
        # counts of the first shape only, which has an empty query shard at n=2
        if call >= len(self.CALLS):
            return {}
        return _traffic_counts(strategy, totals, stats["links"], stats["rounds_forward"])


WORKLOADS = {w.name: w for w in (LongVideoThrottled(), MllmToyStep(), SmallCliRuns())}
