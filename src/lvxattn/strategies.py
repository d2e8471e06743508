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
  single  the dense reference path on one worker.

Row partitions may be uneven (sizes differ by at most one); rotated blocks
carry their block id and row range as message metadata and every receive
checks them, so a protocol bug fails loudly instead of corrupting results.
Workers with empty shards participate in all collectives with zero-row
tensors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .cluster import (ClusterError, ClusterSpec, TransportStats, WorkerContext,
                      spawn_cluster)
from .kernels import (DEFAULT_TILE_ROWS, AttentionState, GradientBundle,
                      attention_row_stats, blockwise_attention,
                      blockwise_attention_backward, default_scale,
                      dense_attention, dense_attention_backward, empty_state,
                      merge_states, validate_qkv)


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


@dataclass
class RoundRecord:
    index: int
    compute_seconds: float      # measured blockwise-kernel wall time
    comm_seconds: float         # modeled time of the message waited on
    sent_bytes_by_class: dict[str, int]

    @property
    def sent_bytes(self) -> int:
        return sum(self.sent_bytes_by_class.values())


@dataclass
class RoundTrace:
    strategy: str
    phase: str
    rounds: list[RoundRecord] = field(default_factory=list)
    epilogue_bytes_by_class: dict[str, int] = field(default_factory=dict)
    epilogue_comm_seconds: float = 0.0

    def add_round(self, compute_seconds: float, comm_seconds: float,
                  sent_bytes_by_class: dict[str, int]) -> None:
        self.rounds.append(RoundRecord(index=len(self.rounds),
                                       compute_seconds=compute_seconds,
                                       comm_seconds=comm_seconds,
                                       sent_bytes_by_class=sent_bytes_by_class))

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def num_shifts(self) -> int:
        return sum(1 for r in self.rounds if r.sent_bytes > 0)

    def total_sent_bytes(self) -> int:
        return (sum(r.sent_bytes for r in self.rounds)
                + sum(self.epilogue_bytes_by_class.values()))

    def compute_only_seconds(self) -> float:
        return sum(r.compute_seconds for r in self.rounds)

    def modeled_overlapped_seconds(self) -> float:
        """Per-round max(compute, comm), the overlapped round-time model."""
        return sum(max(r.compute_seconds, r.comm_seconds) for r in self.rounds)

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "phase": self.phase,
            "rounds": [
                {"index": r.index, "compute_seconds": r.compute_seconds,
                 "comm_seconds": r.comm_seconds, "sent_bytes": r.sent_bytes_by_class}
                for r in self.rounds
            ],
            "epilogue_sent_bytes": self.epilogue_bytes_by_class,
            "epilogue_comm_seconds": self.epilogue_comm_seconds,
        }


def _counted(ctx: WorkerContext, dst: int, arrays: dict[str, np.ndarray]) -> dict[str, int]:
    # transport counts payload bytes only for off-worker messages
    if dst == ctx.rank:
        return {cls: 0 for cls in arrays}
    return {cls: int(a.nbytes) for cls, a in arrays.items()}


def _expect_block(msg_meta: dict | None, key: str, block: int, where: str) -> None:
    if msg_meta is None or msg_meta.get(key) != block:
        got = None if msg_meta is None else msg_meta.get(key)
        raise ClusterError(f"{where}: expected {key}={block}, got {got}")


def lvx_forward(ctx: WorkerContext, shards: ShardSpec, q_block: np.ndarray,
                k_block: np.ndarray, v_block: np.ndarray, scale: float,
                tile_rows: int = DEFAULT_TILE_ROWS,
                trace: RoundTrace | None = None) -> AttentionState:
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
    tags = ctx.collective_tag(n + 1)

    send_block = (i + 1) % n
    send_state = empty_state(h, shards.q_sizes[send_block], d, dtype)
    q_send_block = i
    q_send = q_block
    q_cur = q_block
    for r in range(n):
        j = (i - r) % n
        j_next = (i - r - 1) % n
        ctx.send(ctx.successor, tags + r, [send_state.O, send_state.L, q_send],
                 meta={"state_block": send_block, "state_rows": shards.q_ranges[send_block],
                       "q_block": q_send_block, "q_rows": shards.q_ranges[q_send_block]})
        sent = _counted(ctx, ctx.successor,
                        {"O": send_state.O, "L": send_state.L, "Q": q_send})
        t0 = time.perf_counter()
        delta = blockwise_attention(q_cur, k_block, v_block, scale, tile_rows)
        compute_s = time.perf_counter() - t0
        msg = ctx.recv(ctx.predecessor, tags + r)
        _expect_block(msg.meta, "state_block", j, f"worker {i} round {r}")
        _expect_block(msg.meta, "q_block", j_next, f"worker {i} round {r}")
        recv_state = AttentionState(O=msg.payload[0], L=msg.payload[1])
        merged = merge_states(recv_state, delta)
        if trace is not None:
            trace.add_round(compute_s, msg.modeled_seconds, sent)
        send_state, send_block = merged, j
        q_send = q_cur = msg.payload[2]
        q_send_block = j_next

    ctx.send(ctx.successor, tags + n, [send_state.O, send_state.L],
             meta={"state_block": send_block, "state_rows": shards.q_ranges[send_block]})
    epi_sent = _counted(ctx, ctx.successor, {"O": send_state.O, "L": send_state.L})
    msg = ctx.recv(ctx.predecessor, tags + n)
    _expect_block(msg.meta, "state_block", i, f"worker {i} epilogue")
    if msg.meta.get("state_rows") != shards.q_ranges[i]:
        raise ClusterError(f"worker {i} epilogue: rows {msg.meta.get('state_rows')} "
                           f"!= own range {shards.q_ranges[i]}")
    if trace is not None:
        trace.epilogue_bytes_by_class = epi_sent
        trace.epilogue_comm_seconds = msg.modeled_seconds
    return AttentionState(O=msg.payload[0], L=msg.payload[1])


def lvx_backward(ctx: WorkerContext, shards: ShardSpec, q_block: np.ndarray,
                 k_block: np.ndarray, v_block: np.ndarray, state: AttentionState,
                 do_block: np.ndarray, scale: float,
                 tile_rows: int = DEFAULT_TILE_ROWS,
                 trace: RoundTrace | None = None):
    """Query-rotation backward: the tuple (Q, dO, L, D, dQ-accumulator) of each
    block rotates once around the ring; every worker adds its K/V block's
    contribution, accumulating dK/dV locally and dQ into the tuple. The round
    n-1 send delivers each tuple to its owner, so the final receive is the
    homecoming. Returns (dQ_i, dK_i, dV_i)."""
    n, i = ctx.n, ctx.rank
    dtype = q_block.dtype
    tags = ctx.collective_tag(n)

    d_own = attention_row_stats(state, do_block).astype(dtype)
    tup = [q_block, do_block, state.L, d_own, np.zeros_like(q_block)]
    blk = i
    dk_local = np.zeros_like(k_block)
    dv_local = np.zeros_like(v_block)
    for r in range(n):
        j = (i - r) % n
        if blk != j:
            raise ClusterError(f"worker {i} backward round {r}: holding block {blk}, expected {j}")
        q_j, do_j, l_j, d_j, dq_j = tup
        t0 = time.perf_counter()
        dq_c, dk_c, dv_c = blockwise_attention_backward(q_j, k_block, v_block,
                                                        l_j, d_j, do_j, scale, tile_rows)
        compute_s = time.perf_counter() - t0
        dk_local += dk_c
        dv_local += dv_c
        dq_j = dq_j + dq_c
        ctx.send(ctx.successor, tags + r, [q_j, do_j, l_j, d_j, dq_j],
                 meta={"block": j, "rows": shards.q_ranges[j]})
        sent = _counted(ctx, ctx.successor,
                        {"Q": q_j, "dO": do_j, "L": l_j, "D": d_j, "dQ": dq_j})
        msg = ctx.recv(ctx.predecessor, tags + r)
        _expect_block(msg.meta, "block", (i - r - 1) % n, f"worker {i} backward round {r}")
        if trace is not None:
            trace.add_round(compute_s, msg.modeled_seconds, sent)
        tup = list(msg.payload)
        blk = msg.meta["block"]
    if blk != i:
        raise ClusterError(f"worker {i} backward: final tuple is block {blk}, expected {i}")
    return tup[4], dk_local, dv_local


def ring_forward(ctx: WorkerContext, shards: ShardSpec, q_block: np.ndarray,
                 k_block: np.ndarray, v_block: np.ndarray, scale: float,
                 tile_rows: int = DEFAULT_TILE_ROWS,
                 trace: RoundTrace | None = None) -> AttentionState:
    """KV-rotation forward: Q/O/L stay resident, (K, V) blocks shift n-1 times;
    each round's shift overlaps the blockwise kernel on the block in hand."""
    n, i = ctx.n, ctx.rank
    h, rows, d = q_block.shape
    dtype = q_block.dtype
    tags = ctx.collective_tag(max(n - 1, 1))

    state = empty_state(h, rows, d, dtype)
    k_cur, v_cur, blk = k_block, v_block, i
    for r in range(n):
        sent = {}
        if r < n - 1:
            ctx.send(ctx.successor, tags + r, [k_cur, v_cur],
                     meta={"block": blk, "rows": shards.kv_ranges[blk]})
            sent = _counted(ctx, ctx.successor, {"K": k_cur, "V": v_cur})
        t0 = time.perf_counter()
        delta = blockwise_attention(q_block, k_cur, v_cur, scale, tile_rows)
        compute_s = time.perf_counter() - t0
        state = merge_states(state, delta)
        comm_s = 0.0
        if r < n - 1:
            msg = ctx.recv(ctx.predecessor, tags + r)
            _expect_block(msg.meta, "block", (i - r - 1) % n, f"worker {i} round {r}")
            k_cur, v_cur = msg.payload
            blk = msg.meta["block"]
            comm_s = msg.modeled_seconds
        if trace is not None:
            trace.add_round(compute_s, comm_s, sent)
    return state


def ring_backward(ctx: WorkerContext, shards: ShardSpec, q_block: np.ndarray,
                  k_block: np.ndarray, v_block: np.ndarray, state: AttentionState,
                  do_block: np.ndarray, scale: float,
                  tile_rows: int = DEFAULT_TILE_ROWS,
                  trace: RoundTrace | None = None):
    """KV-rotation backward: (K, V, dK, dV) rotate together for n-1 shifts while
    dQ accumulates locally; an epilogue hop returns each (dK, dV) pair to its
    owner. Returns (dQ_i, dK_i, dV_i)."""
    n, i = ctx.n, ctx.rank
    dtype = q_block.dtype
    tags = ctx.collective_tag(n)

    d_own = attention_row_stats(state, do_block).astype(dtype)
    dq = np.zeros_like(q_block)
    k_cur, v_cur, blk = k_block, v_block, i
    dk_cur = np.zeros_like(k_block)
    dv_cur = np.zeros_like(v_block)
    for r in range(n):
        t0 = time.perf_counter()
        dq_c, dk_c, dv_c = blockwise_attention_backward(q_block, k_cur, v_cur,
                                                        state.L, d_own, do_block, scale,
                                                        tile_rows)
        compute_s = time.perf_counter() - t0
        dq += dq_c
        dk_cur = dk_cur + dk_c
        dv_cur = dv_cur + dv_c
        sent = {}
        comm_s = 0.0
        if r < n - 1:
            ctx.send(ctx.successor, tags + r, [k_cur, v_cur, dk_cur, dv_cur],
                     meta={"block": blk, "rows": shards.kv_ranges[blk]})
            sent = _counted(ctx, ctx.successor,
                            {"K": k_cur, "V": v_cur, "dK": dk_cur, "dV": dv_cur})
            msg = ctx.recv(ctx.predecessor, tags + r)
            _expect_block(msg.meta, "block", (i - r - 1) % n, f"worker {i} backward round {r}")
            k_cur, v_cur, dk_cur, dv_cur = msg.payload
            blk = msg.meta["block"]
            comm_s = msg.modeled_seconds
        if trace is not None:
            trace.add_round(compute_s, comm_s, sent)
    # dk_cur/dv_cur now belong to block i+1; send them home
    ctx.send(ctx.successor, tags + n - 1, [dk_cur, dv_cur],
             meta={"block": blk, "rows": shards.kv_ranges[blk]})
    epi_sent = _counted(ctx, ctx.successor, {"dK": dk_cur, "dV": dv_cur})
    msg = ctx.recv(ctx.predecessor, tags + n - 1)
    _expect_block(msg.meta, "block", i, f"worker {i} backward epilogue")
    if trace is not None:
        trace.epilogue_bytes_by_class = epi_sent
        trace.epilogue_comm_seconds = msg.modeled_seconds
    return dq, msg.payload[0], msg.payload[1]


def head_parallel_forward(ctx: WorkerContext, shards: ShardSpec, q_block: np.ndarray,
                          k_block: np.ndarray, v_block: np.ndarray, scale: float,
                          tile_rows: int = DEFAULT_TILE_ROWS,
                          trace: RoundTrace | None = None):
    """All-to-all from sequence sharding to head sharding, local attention on
    the owned heads over the full sequence, all-to-all back. Returns the own
    sequence shard's state plus the head-sharded tensors saved for backward."""
    n, i = ctx.n, ctx.rank
    h = q_block.shape[0]
    if h % n != 0:
        raise ValueError(f"head count {h} not divisible by workers {n}")
    hpw = h // n

    chunks = [[q_block[w * hpw:(w + 1) * hpw],
               k_block[w * hpw:(w + 1) * hpw],
               v_block[w * hpw:(w + 1) * hpw]] for w in range(n)]
    gather_bytes = sum(sum(int(a.nbytes) for a in chunks[w])
                       for w in range(n) if w != i)
    received = ctx.all_to_all(chunks)
    q_full = np.concatenate([c[0] for c in received], axis=1)
    k_full = np.concatenate([c[1] for c in received], axis=1)
    v_full = np.concatenate([c[2] for c in received], axis=1)

    t0 = time.perf_counter()
    st = blockwise_attention(q_full, k_full, v_full, scale, tile_rows)
    compute_s = time.perf_counter() - t0

    out_chunks = [[st.O[:, a:b], st.L[:, a:b]] for a, b in shards.q_ranges]
    scatter_bytes = sum(sum(int(a.nbytes) for a in out_chunks[w])
                        for w in range(n) if w != i)
    received = ctx.all_to_all(out_chunks)
    o_i = np.concatenate([c[0] for c in received], axis=0)
    l_i = np.concatenate([c[1] for c in received], axis=0)
    if trace is not None:
        trace.add_round(compute_s, 0.0,
                        {"QKV_gather": gather_bytes, "OL_scatter": scatter_bytes})
    return AttentionState(O=o_i, L=l_i), (q_full, k_full, v_full, st)


def head_parallel_backward(ctx: WorkerContext, shards: ShardSpec, saved,
                           do_block: np.ndarray, scale: float,
                           tile_rows: int = DEFAULT_TILE_ROWS,
                           trace: RoundTrace | None = None):
    """Mirror image of the forward: all-to-all dO to head sharding, local dense
    backward on owned heads, all-to-all dQ/dK/dV back to sequence sharding."""
    n, i = ctx.n, ctx.rank
    q_full, k_full, v_full, st = saved
    hpw = q_full.shape[0]

    chunks = [[do_block[w * hpw:(w + 1) * hpw]] for w in range(n)]
    gather_bytes = sum(int(chunks[w][0].nbytes) for w in range(n) if w != i)
    received = ctx.all_to_all(chunks)
    do_full = np.concatenate([c[0] for c in received], axis=1)

    t0 = time.perf_counter()
    gb = dense_attention_backward(q_full, k_full, v_full, st.O, st.L, do_full, scale,
                                  tile_rows)
    compute_s = time.perf_counter() - t0

    out_chunks = [[gb.dQ[:, qa:qb], gb.dK[:, ka:kb], gb.dV[:, ka:kb]]
                  for (qa, qb), (ka, kb) in zip(shards.q_ranges, shards.kv_ranges)]
    scatter_bytes = sum(sum(int(a.nbytes) for a in out_chunks[w])
                        for w in range(n) if w != i)
    received = ctx.all_to_all(out_chunks)
    dq_i = np.concatenate([c[0] for c in received], axis=0)
    dk_i = np.concatenate([c[1] for c in received], axis=0)
    dv_i = np.concatenate([c[2] for c in received], axis=0)
    if trace is not None:
        trace.add_round(compute_s, 0.0,
                        {"dO_gather": gather_bytes, "grad_scatter": scatter_bytes})
    return dq_i, dk_i, dv_i


@dataclass
class RunResult:
    O: np.ndarray
    L: np.ndarray
    grads: GradientBundle | None
    stats: TransportStats
    traces_forward: list[RoundTrace]
    traces_backward: list[RoundTrace] | None
    shards: ShardSpec


@dataclass
class _WorkerOut:
    state: AttentionState
    grads: tuple | None
    trace_forward: RoundTrace
    trace_backward: RoundTrace | None


def run_distributed(strategy, Q: np.ndarray, K: np.ndarray, V: np.ndarray,
                    dO: np.ndarray | None = None,
                    spec: ClusterSpec | None = None,
                    scale: float | None = None,
                    tile_rows: int = DEFAULT_TILE_ROWS,
                    timeout: float | None = None) -> RunResult:
    """Scatter Q/K/V by rows, run the strategy collectively, gather the full
    O, L (and gradients when dO is given) with transport stats and traces."""
    strategy = StrategyKind(strategy)
    spec = spec or ClusterSpec(1)
    validate_qkv(Q, K, V)
    h, s_q, d = Q.shape
    s_kv = K.shape[1]
    if dO is not None and dO.shape != Q.shape:
        raise ValueError(f"dO shape {dO.shape} != Q shape {Q.shape}")
    if scale is None:
        scale = default_scale(d)
    if tile_rows < 1:
        raise ValueError(f"tile_rows must be >= 1, got {tile_rows}")
    if strategy is StrategyKind.SINGLE and spec.n != 1:
        raise ValueError("single-worker strategy requires n=1")
    if strategy is StrategyKind.HEAD_PARALLEL and h % spec.n != 0:
        raise ValueError(f"head count {h} not divisible by workers {spec.n}")
    shards = ShardSpec.balanced(s_q, s_kv, spec.n)

    def body(ctx: WorkerContext) -> _WorkerOut:
        i = ctx.rank
        qa, qb = shards.q_ranges[i]
        ka, kb = shards.kv_ranges[i]
        q_i, k_i, v_i = Q[:, qa:qb], K[:, ka:kb], V[:, ka:kb]
        ftrace = RoundTrace(strategy=strategy.value, phase="forward")
        saved = None
        t0 = time.perf_counter()
        if strategy is StrategyKind.SINGLE:
            state = dense_attention(Q, K, V, scale)
            ftrace.add_round(time.perf_counter() - t0, 0.0, {})
        elif strategy is StrategyKind.LVX:
            state = lvx_forward(ctx, shards, q_i, k_i, v_i, scale, tile_rows, ftrace)
        elif strategy is StrategyKind.RING:
            state = ring_forward(ctx, shards, q_i, k_i, v_i, scale, tile_rows, ftrace)
        else:
            state, saved = head_parallel_forward(ctx, shards, q_i, k_i, v_i,
                                                 scale, tile_rows, ftrace)
        if dO is None:
            return _WorkerOut(state=state, grads=None, trace_forward=ftrace,
                              trace_backward=None)
        do_i = dO[:, qa:qb]
        btrace = RoundTrace(strategy=strategy.value, phase="backward")
        if strategy is StrategyKind.SINGLE:
            t0 = time.perf_counter()
            gb = dense_attention_backward(Q, K, V, state.O, state.L, dO, scale, tile_rows)
            btrace.add_round(time.perf_counter() - t0, 0.0, {})
            grads = (gb.dQ, gb.dK, gb.dV)
        elif strategy is StrategyKind.LVX:
            grads = lvx_backward(ctx, shards, q_i, k_i, v_i, state, do_i, scale,
                                 tile_rows, btrace)
        elif strategy is StrategyKind.RING:
            grads = ring_backward(ctx, shards, q_i, k_i, v_i, state, do_i, scale,
                                  tile_rows, btrace)
        else:
            grads = head_parallel_backward(ctx, shards, saved, do_i, scale,
                                           tile_rows, btrace)
        return _WorkerOut(state=state, grads=grads, trace_forward=ftrace,
                          trace_backward=btrace)

    run = spawn_cluster(ClusterSpec(spec.n, spec.transport), body, timeout=timeout)
    outs: list[_WorkerOut] = run.results

    out_dt = np.result_type(Q, K, V)
    o_full = np.zeros((h, s_q, d), dtype=out_dt)
    l_full = np.zeros((h, s_q), dtype=out_dt)
    if strategy is StrategyKind.SINGLE:
        o_full, l_full = outs[0].state.O, outs[0].state.L
    else:
        for i, out in enumerate(outs):
            qa, qb = shards.q_ranges[i]
            if out.state.O.shape[1] != qb - qa:
                raise ClusterError(f"worker {i} returned {out.state.O.shape[1]} rows, "
                                   f"expected {qb - qa}")
            o_full[:, qa:qb] = out.state.O
            l_full[:, qa:qb] = out.state.L

    grads = None
    if dO is not None:
        if strategy is StrategyKind.SINGLE:
            dq, dk, dv = outs[0].grads
        else:
            dq = np.zeros((h, s_q, d), dtype=out_dt)
            dk = np.zeros((h, s_kv, d), dtype=out_dt)
            dv = np.zeros((h, s_kv, d), dtype=out_dt)
            for i, out in enumerate(outs):
                qa, qb = shards.q_ranges[i]
                ka, kb = shards.kv_ranges[i]
                dq[:, qa:qb] = out.grads[0]
                dk[:, ka:kb] = out.grads[1]
                dv[:, ka:kb] = out.grads[2]
        grads = GradientBundle(dQ=dq, dK=dk, dV=dv)

    return RunResult(O=o_full, L=l_full, grads=grads, stats=run.stats,
                     traces_forward=[o.trace_forward for o in outs],
                     traces_backward=([o.trace_backward for o in outs]
                                      if dO is not None else None),
                     shards=shards)
