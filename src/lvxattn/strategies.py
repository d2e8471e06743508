"""Distributed cross-attention protocols over the worker harness.

Four strategies, all exact:

  lvx     query rotation: each worker keeps its key/value block resident and
          the (Q, O, L) blocks travel around the ring. Per round the send,
          the recv, and the local blockwise kernel are all in flight at once;
          a final epilogue hop lands every (O, L) block on its owner.
  ring    kv rotation: Q, O, L stay resident, (K, V) blocks travel n-1 times.
  head    head parallelism: one all-to-all reshards sequence-split Q/K/V into
          head-split full-sequence tensors, attention runs locally per owned
          head, a second all-to-all restores sequence sharding. Requires the
          head count to be divisible by the worker count.
  single  ring on one worker: the same tiled kernels, and nothing travels but
          ring's backward epilogue, which a lone worker sends to itself free.

Each strategy is one `Protocol` record in PROTOCOLS: its forward and backward
bodies, which share one signature, and the worker-count rule; the messages
they send are its rows of the hop table in `volumes`. `run_distributed`,
the verify suites, the accounting-only report and the CLI all read PROTOCOLS.
No body runs the dense oracle; it is only the reference that `verify`, the
tests and the benchmark hold the protocols to.
A body runs its kernels through `ctx.compute` and closes each round on its
worker context; the round's kernel seconds, bytes and modeled wait come from
those calls and the messages it sent and received (see
`cluster.WorkerContext`). Bodies pass the kernels by their module-level names,
looked up at call time, so a wrapper installed on this module sees every call.
Every kernel call keeps the default KV tile.

Row partitions may be uneven (sizes differ by at most one). Each link
delivers in send order. A rotated block carries only its block id, which the
sender takes from the round index and every receive checks: a block's rows
follow from its id, so a protocol bug fails loudly instead of corrupting
results.
Workers with empty shards participate in all collectives with zero-row
tensors.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cluster import (ClusterError, ClusterSpec, RoundTrace, TransportStats,
                      WorkerContext, spawn_cluster)
from .kernels import (AttentionState, GradientBundle, attention_row_stats,
                      blockwise_attention, blockwise_attention_backward, default_scale,
                      dense_attention_backward, empty_state, merge_states,
                      require_finite, validate_qkv)
# no body calls the dense oracle; perfbench/tracer.py wraps it here by name
from .kernels import dense_attention  # noqa: F401


class StrategyKind(str, Enum):
    LVX = "lvx"
    RING = "ring"
    HEAD_PARALLEL = "head"
    SINGLE = "single"


def partition_rows(total: int, n: int) -> list[tuple[int, int]]:
    """Balanced contiguous half-open ranges: the first (total mod n) workers
    get one extra row. Empty ranges are fine when total < n."""
    if n < 1:
        raise ValueError(f"worker count must be >= 1, got {n}")
    if total < 0:
        raise ValueError(f"row count must be >= 0, got {total}")
    base, rem = divmod(total, n)
    ranges = []
    start = 0
    for i in range(n):
        size = base + (1 if i < rem else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


@dataclass(frozen=True)
class ShardSpec:
    """Per-worker row ranges over [0, S_Q) and [0, S_KV)."""

    q_ranges: tuple[tuple[int, int], ...]
    kv_ranges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.q_ranges) != len(self.kv_ranges):
            raise ValueError("q_ranges and kv_ranges must have one entry per worker")
        for name, ranges in (("q", self.q_ranges), ("kv", self.kv_ranges)):
            pos = 0
            for a, b in ranges:
                if a != pos or b < a:
                    raise ValueError(f"{name} ranges must be contiguous ascending, got {ranges}")
                pos = b
            sizes = [b - a for a, b in ranges]
            if sizes and max(sizes) - min(sizes) > 1:
                raise ValueError(f"{name} shard sizes differ by more than 1: {sizes}")

    @classmethod
    def balanced(cls, s_q: int, s_kv: int, n: int) -> "ShardSpec":
        return cls(q_ranges=tuple(partition_rows(s_q, n)),
                   kv_ranges=tuple(partition_rows(s_kv, n)))

    @property
    def n(self) -> int:
        return len(self.q_ranges)

    @property
    def q_sizes(self) -> list[int]:
        return [b - a for a, b in self.q_ranges]

    @property
    def kv_sizes(self) -> list[int]:
        return [b - a for a, b in self.kv_ranges]


def _expect_block(msg_meta: dict | None, key: str, block: int, where: str) -> None:
    if msg_meta is None or msg_meta.get(key) != block:
        got = None if msg_meta is None else msg_meta.get(key)
        raise ClusterError(f"{where}: expected {key}={block}, got {got}")


def lvx_forward(ctx: WorkerContext, shards: ShardSpec, q_block: np.ndarray,
                k_block: np.ndarray, v_block: np.ndarray, scale: float) -> AttentionState:
    """Query-rotation forward for one worker; collective over all n.

    Round r: send the state finished last round (block i-r+1) together with
    the query block about to be consumed downstream (block i-r), receive the
    counterpart from the predecessor, and meanwhile run the blockwise kernel
    of block i-r against the resident K/V. Round 0 ships the zero-initialized
    state rather than skipping the hop. After n rounds the worker holds the
    completed state of block i+1; one epilogue hop sends it home.
    """
    n, i = ctx.n, ctx.rank
    h, _, d = q_block.shape
    dtype = q_block.dtype

    send_state = empty_state(h, shards.q_sizes[(i + 1) % n], d, dtype)
    q_cur = q_block
    for r in range(n):
        j = (i - r) % n
        j_next = (i - r - 1) % n
        ctx.send(ctx.successor, {"O": send_state.O, "L": send_state.L, "Q": q_cur},
                 meta={"state_block": (j + 1) % n, "q_block": j})
        delta = ctx.compute(blockwise_attention, q_cur, k_block, v_block, scale)
        msg = ctx.recv(ctx.predecessor)
        _expect_block(msg.meta, "state_block", j, f"worker {i} round {r}")
        _expect_block(msg.meta, "q_block", j_next, f"worker {i} round {r}")
        recv_state = AttentionState(O=msg.payload["O"], L=msg.payload["L"])
        send_state = merge_states(recv_state, delta)
        q_cur = msg.payload["Q"]
        ctx.close_round()

    ctx.send(ctx.successor, {"O": send_state.O, "L": send_state.L},
             meta={"state_block": (i + 1) % n})
    msg = ctx.recv(ctx.predecessor)
    _expect_block(msg.meta, "state_block", i, f"worker {i} epilogue")
    return AttentionState(O=msg.payload["O"], L=msg.payload["L"])


def lvx_backward(ctx: WorkerContext, shards: ShardSpec, q_block: np.ndarray,
                 k_block: np.ndarray, v_block: np.ndarray, state: AttentionState,
                 do_block: np.ndarray, scale: float):
    """Query-rotation backward: the tuple (Q, dO, L, D, dQ-accumulator) of each
    block rotates once around the ring; every worker adds its K/V block's
    contribution, accumulating dK/dV into its one local pair and dQ into the
    tuple it holds. A tuple is only written between its receive and its send.
    The round n-1 send delivers each tuple to its owner, so the final receive,
    checked to be block (i - n) mod n = i, is the homecoming. Returns
    (dQ_i, dK_i, dV_i)."""
    n, i = ctx.n, ctx.rank
    dtype = q_block.dtype

    d_own = attention_row_stats(state, do_block).astype(dtype)
    tup = {"Q": q_block, "dO": do_block, "L": state.L, "D": d_own,
           "dQ": np.zeros_like(q_block)}
    dk = np.zeros_like(k_block)
    dv = np.zeros_like(v_block)
    for r in range(n):
        ctx.compute(blockwise_attention_backward, tup["Q"], k_block, v_block, tup["L"],
                    tup["D"], tup["dO"], scale, out=(tup["dQ"], dk, dv))
        ctx.send(ctx.successor, tup, meta={"block": (i - r) % n})
        msg = ctx.recv(ctx.predecessor)
        _expect_block(msg.meta, "block", (i - r - 1) % n, f"worker {i} backward round {r}")
        tup = msg.payload
        ctx.close_round()
    return tup["dQ"], dk, dv


def ring_forward(ctx: WorkerContext, shards: ShardSpec, q_block: np.ndarray,
                 k_block: np.ndarray, v_block: np.ndarray, scale: float) -> AttentionState:
    """KV-rotation forward: Q/O/L stay resident, (K, V) blocks shift n-1 times;
    each round's shift overlaps the blockwise kernel on the block in hand."""
    n, i = ctx.n, ctx.rank

    kv = {"K": k_block, "V": v_block}
    for r in range(n):
        if r < n - 1:
            ctx.send(ctx.successor, kv, meta={"block": (i - r) % n})
        delta = ctx.compute(blockwise_attention, q_block, kv["K"], kv["V"], scale)
        # round 0's state is taken as is: merging it into the empty state
        # would only copy it
        state = delta if r == 0 else merge_states(state, delta)
        if r < n - 1:
            msg = ctx.recv(ctx.predecessor)
            _expect_block(msg.meta, "block", (i - r - 1) % n, f"worker {i} round {r}")
            kv = msg.payload
        ctx.close_round()
    return state


def ring_backward(ctx: WorkerContext, shards: ShardSpec, q_block: np.ndarray,
                  k_block: np.ndarray, v_block: np.ndarray, state: AttentionState,
                  do_block: np.ndarray, scale: float):
    """KV-rotation backward: (K, V, dK, dV) rotate together for n-1 shifts while
    dQ accumulates locally; each worker adds into the dK/dV pair it holds,
    only between its receive and its send. An epilogue hop returns each
    (dK, dV) pair to its owner. Returns (dQ_i, dK_i, dV_i)."""
    n, i = ctx.n, ctx.rank
    dtype = q_block.dtype

    d_own = attention_row_stats(state, do_block).astype(dtype)
    dq = np.zeros_like(q_block)
    kv = {"K": k_block, "V": v_block, "dK": np.zeros_like(k_block),
          "dV": np.zeros_like(v_block)}
    for r in range(n):
        ctx.compute(blockwise_attention_backward, q_block, kv["K"], kv["V"], state.L, d_own,
                    do_block, scale, out=(dq, kv["dK"], kv["dV"]))
        if r < n - 1:
            ctx.send(ctx.successor, kv, meta={"block": (i - r) % n})
            msg = ctx.recv(ctx.predecessor)
            _expect_block(msg.meta, "block", (i - r - 1) % n, f"worker {i} backward round {r}")
            kv = msg.payload
        ctx.close_round()
    # kv's dK/dV now belong to block i+1; send them home
    ctx.send(ctx.successor, {"dK": kv["dK"], "dV": kv["dV"]},
             meta={"block": (i + 1) % n})
    msg = ctx.recv(ctx.predecessor)
    _expect_block(msg.meta, "block", i, f"worker {i} backward epilogue")
    return dq, msg.payload["dK"], msg.payload["dV"]


@dataclass(frozen=True)
class _HeadSplitState(AttentionState):
    """Own rows of O and L plus the head-split, full-sequence Q, K, V and
    state that the head-parallel backward reuses."""

    saved: tuple


def _gather(received: list[dict], cls: str, axis: int) -> np.ndarray:
    return np.concatenate([c[cls] for c in received], axis=axis)


def head_parallel_forward(ctx: WorkerContext, shards: ShardSpec, q_block: np.ndarray,
                          k_block: np.ndarray, v_block: np.ndarray,
                          scale: float) -> AttentionState:
    """All-to-all from sequence sharding to head sharding, local attention on
    the owned heads over the full sequence, all-to-all back."""
    n = ctx.n
    hpw = q_block.shape[0] // n

    received = ctx.all_to_all([{"Q": q_block[w * hpw:(w + 1) * hpw],
                                "K": k_block[w * hpw:(w + 1) * hpw],
                                "V": v_block[w * hpw:(w + 1) * hpw]} for w in range(n)])
    q_full, k_full, v_full = (_gather(received, cls, 1) for cls in ("Q", "K", "V"))

    st = ctx.compute(blockwise_attention, q_full, k_full, v_full, scale)
    received = ctx.all_to_all([{"O": st.O[:, a:b], "L": st.L[:, a:b]}
                               for a, b in shards.q_ranges])
    ctx.close_round()
    return _HeadSplitState(O=_gather(received, "O", 0), L=_gather(received, "L", 0),
                           saved=(q_full, k_full, v_full, st))


def head_parallel_backward(ctx: WorkerContext, shards: ShardSpec, q_block: np.ndarray,
                           k_block: np.ndarray, v_block: np.ndarray, state: _HeadSplitState,
                           do_block: np.ndarray, scale: float):
    """Mirror image of the forward: all-to-all dO to head sharding, local dense
    backward on owned heads, all-to-all dQ/dK/dV back to sequence sharding."""
    n = ctx.n
    q_full, k_full, v_full, st = state.saved
    hpw = q_full.shape[0]

    received = ctx.all_to_all([{"dO": do_block[w * hpw:(w + 1) * hpw]} for w in range(n)])
    do_full = _gather(received, "dO", 1)

    gb = ctx.compute(dense_attention_backward, q_full, k_full, v_full, st.O, st.L, do_full,
                     scale)
    received = ctx.all_to_all([{"dQ": gb.dQ[:, qa:qb], "dK": gb.dK[:, ka:kb],
                                "dV": gb.dV[:, ka:kb]}
                               for (qa, qb), (ka, kb) in zip(shards.q_ranges,
                                                             shards.kv_ranges)])
    ctx.close_round()
    return tuple(_gather(received, cls, 0) for cls in ("dQ", "dK", "dV"))


@dataclass(frozen=True)
class Protocol:
    """One strategy: its per-worker forward and backward bodies (both
    collective over all n workers) and its worker-count rule, which returns
    why a (workers, heads) pair is refused or None. Its messages are the hop
    table rows `volumes.HOPS[(kind, phase)]`.

    Every body takes the worker's blocks and the score scale:
    forward(ctx, shards, q, k, v, scale) returns its AttentionState, and
    backward(ctx, shards, q, k, v, state, dO, scale) returns (dQ, dK, dV)."""

    forward: Callable
    backward: Callable
    refusal: Callable[[int, int], str | None]

    def fits(self, n: int, h: int) -> bool:
        return self.refusal(n, h) is None

    def check(self, n: int, h: int) -> None:
        reason = self.refusal(n, h)
        if reason is not None:
            raise ValueError(reason)


def _any_workers(n: int, h: int) -> None:
    return None


PROTOCOLS = {
    StrategyKind.LVX: Protocol(lvx_forward, lvx_backward, _any_workers),
    StrategyKind.RING: Protocol(ring_forward, ring_backward, _any_workers),
    StrategyKind.HEAD_PARALLEL: Protocol(
        head_parallel_forward, head_parallel_backward,
        lambda n, h: None if h % n == 0 else f"head count {h} not divisible by workers {n}"),
    StrategyKind.SINGLE: Protocol(
        ring_forward, ring_backward,
        lambda n, h: None if n == 1 else f"single-worker strategy requires n=1, got n={n}"),
}


@dataclass
class RunResult:
    O: np.ndarray
    L: np.ndarray
    grads: GradientBundle | None
    stats: TransportStats
    traces_forward: list[RoundTrace]
    traces_backward: list[RoundTrace] | None
    shards: ShardSpec


def _assemble(name: str, parts: list[np.ndarray], ranges, shape: tuple,
              dtype) -> np.ndarray:
    """One full output from every worker's rows of it, placed at the worker's
    row range. A part of the wrong shape fails naming its worker instead of
    being broadcast into the range."""
    full = np.zeros(shape, dtype=dtype)
    for i, (part, (a, b)) in enumerate(zip(parts, ranges)):
        if part.shape != full[:, a:b].shape:
            raise ClusterError(f"worker {i} returned {name} of shape {part.shape}, "
                               f"expected {full[:, a:b].shape}")
        full[:, a:b] = part
    return full


def run_distributed(strategy, Q: np.ndarray, K: np.ndarray, V: np.ndarray,
                    dO: np.ndarray | None = None,
                    spec: ClusterSpec | None = None,
                    scale: float | None = None) -> RunResult:
    """Scatter Q/K/V by rows, run the strategy collectively, gather the full
    O, L (and gradients when dO is given) with transport stats and traces.
    Non-finite inputs are refused before any worker starts."""
    strategy = StrategyKind(strategy)
    protocol = PROTOCOLS[strategy]
    spec = spec or ClusterSpec(1)
    validate_qkv(Q, K, V)
    h, s_q, d = Q.shape
    s_kv = K.shape[1]
    if dO is not None and dO.shape != Q.shape:
        raise ValueError(f"dO shape {dO.shape} != Q shape {Q.shape}")
    require_finite(Q=Q, K=K, V=V, dO=dO)
    if scale is None:
        scale = default_scale(d)
    if not np.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale}")
    protocol.check(spec.n, h)
    shards = ShardSpec.balanced(s_q, s_kv, spec.n)
    q_rows, kv_rows = shards.q_ranges, shards.kv_ranges
    layout = {"O": (q_rows, Q.shape), "L": (q_rows, Q.shape[:2])}
    if dO is not None:
        layout.update(dQ=(q_rows, Q.shape), dK=(kv_rows, K.shape), dV=(kv_rows, V.shape))

    def body(ctx: WorkerContext):
        (qa, qb), (ka, kb) = q_rows[ctx.rank], kv_rows[ctx.rank]
        q_i, k_i, v_i = Q[:, qa:qb], K[:, ka:kb], V[:, ka:kb]
        state = protocol.forward(ctx, shards, q_i, k_i, v_i, scale)
        parts = {"O": state.O, "L": state.L}
        traces = [ctx.close_phase(strategy.value, "forward")]
        if dO is not None:
            parts["dQ"], parts["dK"], parts["dV"] = protocol.backward(
                ctx, shards, q_i, k_i, v_i, state, dO[:, qa:qb], scale)
            traces.append(ctx.close_phase(strategy.value, "backward"))
        return parts, traces

    run = spawn_cluster(spec, body)
    parts, traces = zip(*run.results)
    out_dt = np.result_type(Q, K, V)
    full = {name: _assemble(name, [p[name] for p in parts], ranges, shape, out_dt)
            for name, (ranges, shape) in layout.items()}
    return RunResult(O=full["O"], L=full["L"],
                     grads=(GradientBundle(dQ=full["dQ"], dK=full["dK"], dV=full["dV"])
                            if dO is not None else None),
                     stats=run.stats,
                     traces_forward=[t[0] for t in traces],
                     traces_backward=[t[1] for t in traces] if dO is not None else None,
                     shards=shards)
