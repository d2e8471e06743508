"""Span tracing for the traced benchmark run, installed from outside the program.

The tracer replaces module-level names that the program calls into with
wrappers that call the original unchanged and record one span per call:
name, start, end, parent span, op id and thread. Spans stay in memory and are
written once, when the run ends. Nothing here is installed in an untraced
run.

Parent links follow a per-thread stack. Worker threads start with an empty
stack, so the wrapper around `spawn_cluster` wraps each worker body in a
`cluster.worker` span whose parent is the `spawn_cluster` span; everything a
worker calls then nests under its worker span.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from dataclasses import asdict, dataclass

from lvxattn import cli, cluster, mllm, strategies

KERNELS = ("blockwise_attention", "blockwise_attention_backward", "merge_states",
           "dense_attention", "dense_attention_backward", "project", "project_backward")
STRATEGIES = ("lvx", "ring", "head", "single")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int
    attrs: dict | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _attention_flops(factor: int):
    # Q [h, s_q, d] against K [h, s_kv, d]: forward does QK^T and PV (4 flops
    # per q-k-d triple), backward recomputes S and forms dV, dP, dQ, dK (10)
    def attrs(args, out):
        h, s_q, d = args[0].shape
        return {"flops": factor * h * s_q * args[1].shape[1] * d}
    return attrs


def _project_attrs(args, out):
    x, w = args[0], args[1]
    return {"rows": x.shape[0], "flops": 2 * x.shape[0] * w.shape[0] * w.shape[1]}


def _strategy_attrs(args, out):
    return {"strategy": getattr(args[0], "value", args[0])}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, attrs_fn=None, parent=None, attrs=None):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        # a call that raised leaves no span; its op is counted as failed
        if attrs_fn is not None:
            attrs = {**(attrs or {}), **attrs_fn(args, out)}
        self.spans.append(Span(sid, name, start, end, parent, self.op,
                               threading.get_ident(), attrs))
        return out

    def _wrap(self, owner, attr: str, name: str, attrs_fn=None, inner=None):
        original = getattr(owner, attr)
        target = inner(original) if inner is not None else original

        def traced(*args, **kwargs):
            return self._call(name, target, args, kwargs, attrs_fn)

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def _spawn_with_worker_spans(self, original):
        def spawn(spec, worker_body, *args, **kwargs):
            spawn_id = self._stack()[-1]

            def body(ctx):
                return self._call("cluster.worker", worker_body, (ctx,), {},
                                  parent=spawn_id, attrs={"rank": ctx.rank})
            return original(spec, body, *args, **kwargs)
        return spawn

    def install(self) -> None:
        """Wrap every traced name; `uninstall` puts the originals back."""
        fwd, bwd = _attention_flops(4), _attention_flops(10)
        for owner in (strategies, mllm):
            self._wrap(owner, "blockwise_attention", "kernels.blockwise_attention", fwd)
            self._wrap(owner, "dense_attention_backward", "kernels.dense_attention_backward",
                       bwd)
        self._wrap(strategies, "blockwise_attention_backward",
                   "kernels.blockwise_attention_backward", bwd)
        self._wrap(strategies, "merge_states", "kernels.merge_states")
        self._wrap(strategies, "dense_attention", "kernels.dense_attention", fwd)
        self._wrap(strategies, "spawn_cluster", "strategies.spawn_cluster",
                   inner=self._spawn_with_worker_spans)
        self._wrap(cluster.Cluster, "send", "cluster.send")
        self._wrap(cluster.Cluster, "recv", "cluster.recv")
        self._wrap(mllm, "project", "kernels.project", _project_attrs)
        self._wrap(mllm, "project_backward", "kernels.project_backward")
        self._wrap(cli, "load_tensor", "tensorio.load_tensor",
                   lambda args, out: {"bytes": int(out.nbytes)})
        self._wrap(cli, "store_tensor", "tensorio.store_tensor",
                   lambda args, out: {"bytes": int(args[0].nbytes)})
        self._wrap(cli, "run_distributed", "strategies.run_distributed", _strategy_attrs)
        # the benchmark's own entry calls, looked up through these modules
        self._wrap(strategies, "run_distributed", "strategies.run_distributed",
                   _strategy_attrs)
        self._wrap(mllm, "mllm_forward", "mllm.forward")
        self._wrap(mllm, "mllm_backward", "mllm.backward")
        self._wrap(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f)


def _covered(parent: Span, children: list[Span]) -> float:
    """Length of the part of the parent's interval that children cover; the
    children of a spawn run in parallel, so their intervals are merged."""
    total, reach = 0.0, parent.start
    for c in sorted(children, key=lambda s: s.start):
        a, b = max(c.start, reach), min(c.end, parent.end)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(spans: list[Span], ops: int, kv_rows: int | None) -> dict[str, float]:
    """Per-layer numbers from the spans of `ops` traced ops. Times are seconds
    per op; rates divide summed work by summed span time."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def busy(name):
        return sum(s.seconds for s in named(name)) / ops

    def self_time(name):
        return sum(s.seconds - _covered(s, children.get(s.id, [])) for s in named(name)) / ops

    def ancestor(s, name):
        while s is not None and s.parent is not None:
            s = by_id.get(s.parent)
            if s is not None and s.name == name:
                return s
        return None

    def rate(name, key, unit):
        work = sum((s.attrs or {}).get(key, 0) for s in named(name))
        secs = sum(s.seconds for s in named(name))
        return work / secs / unit if secs > 0 else 0.0

    m: dict[str, float] = {}
    for k in KERNELS:
        m[f"kernels.{k}.busy_s"] = busy(f"kernels.{k}")
    for k in ("blockwise_attention", "blockwise_attention_backward"):
        m[f"kernels.{k}.gflops"] = rate(f"kernels.{k}", "flops", 1e9)

    m["mllm.forward.self_s"] = self_time("mllm.forward")
    m["mllm.backward.self_s"] = self_time("mllm.backward")
    m["mllm.kv_recompute_s"] = sum(
        s.seconds for s in named("kernels.project")
        if s.attrs["rows"] == kv_rows and by_id.get(s.parent, s).name == "mllm.backward") / ops

    def strategy_of(s):
        run = ancestor(s, "strategies.run_distributed")
        return run.attrs["strategy"] if run is not None else None

    for strat in ("lvx", "ring", "head"):
        m[f"cluster.recv.wait_s.{strat}"] = sum(
            s.seconds for s in named("cluster.recv") if strategy_of(s) == strat) / ops
    m["cluster.send.busy_s"] = busy("cluster.send")
    m["cluster.spawn.overhead_s"] = sum(
        s.seconds - max((w.seconds for w in children.get(s.id, [])), default=0.0)
        for s in named("strategies.spawn_cluster")) / ops
    m["strategies.run_distributed.self_s"] = self_time("strategies.run_distributed")

    kernel_names = {f"kernels.{k}" for k in KERNELS}
    overlap: dict[str, list[float]] = {s: [] for s in STRATEGIES}
    for run in named("strategies.run_distributed"):
        for spawn in children.get(run.id, []):
            workers = children.get(spawn.id, [])
            if not workers:
                continue
            per_worker = [sum(c.seconds for c in children.get(w.id, [])
                              if c.name in kernel_names) / w.seconds
                          for w in workers if w.seconds > 0]
            if per_worker:
                overlap[run.attrs["strategy"]].append(min(per_worker))
    for strat, values in overlap.items():
        m[f"strategies.{strat}.overlap"] = statistics.median(values) if values else 0.0

    for io in ("load_tensor", "store_tensor"):
        m[f"tensorio.{io}.busy_s"] = busy(f"tensorio.{io}")
        m[f"tensorio.{io}.mib_per_s"] = rate(f"tensorio.{io}", "bytes", 2**20)
    m["cli.main.self_s"] = self_time("cli.main")
    return m
