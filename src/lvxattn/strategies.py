"""Distributed cross-attention protocols over the worker harness.

Four strategies, all exact:

  lvx     query rotation: each worker keeps its key/value block resident and
          the query blocks travel around the ring toward the successor, each
          as a read-only part and an accumulator, in both phases: the
          read-only part (Q; Q, dO, L, D) leaves before the round's kernel,
          the accumulator ((O, L); dQ) after it, and round n-1 ends with
          the homecoming. One loop, `_query_rotation`, runs both phases.
  ring    kv rotation: Q, O, L stay resident, and (K, V) blocks travel
          toward the successor n-1 times in the pieces of
          `volumes.kv_messages`, each fed to the kernel as it lands. The
          backward turns toward the predecessor, starting from the block the
          forward ended with, and a block's (dK, dV) accumulator travels
          with it to its owner.
  head    head parallelism: every worker sends its rows of each head's
          Q/K/V to the head's owner, one head at a time, attention runs
          locally per owned head over the full sequence as its K/V pieces
          come, and each owner sends every worker its rows of O and L,
          which restores sequence sharding. Requires the head count to be
          divisible by the worker count.
  single  ring on one worker: the same tiled kernels, called once per
          phase, and nothing travels.

Every send leaves as soon as its data exists, except that the `ring`
backward passes on the K/V pieces its forward saved one kernel tile at a
time, as it passes on the pieces it receives. In the backward of `lvx` and
`ring` a block's gradient accumulator (dQ; dK and dV) travels apart from its
read-only part, and every worker on its way adds one contribution. An `lvx`
kernel writes dQ into a fresh zeroed block, the worker adds the arriving
accumulator into that block, and the block goes on as the accumulator. A
`ring` kernel adds into the accumulator piece its worker received right
after the K/V piece, or into a fresh zeroed piece where the accumulator
starts. The kernel rounds each gradient to the accumulator dtype before it
adds, and 0 + x = x, so each accumulator is the sum of the rounded
contributions in the order they were made. A `ring` accumulator reaches the
owner without the owner's contribution, which the owner computes first and
then adds the accumulator to: at n <= 2 that is the same sum, and at
n >= 3 the same terms in another order.

Each strategy is one `Protocol` record in PROTOCOLS: its forward and backward
bodies, which share one signature, and the worker-count rule; the messages
they send are its rows of the hop table in `volumes`. `run_distributed`,
the verify suites, the `cost` report and the CLI all read PROTOCOLS.
No body runs the dense oracle; it is only the reference that `verify`, the
tests and the benchmark hold the protocols to.
A body runs its kernels through `ctx.compute` and closes each round on its
worker context; the round's kernel seconds, bytes and modeled wait come from
those calls and the messages it sent and received (see
`cluster.WorkerContext`), and its last round ends its phase. Bodies pass the
kernels by their module-level names, looked up at call time, so a wrapper
installed on this module sees every call,
one per piece where K/V travels in pieces. Every kernel call keeps the
default KV tile, and a piece starts at a tile boundary of its walk, so a
walk continued piece by piece (`carry=`) gives the one-shot call's bits.

Row partitions may be uneven (sizes differ by at most one). Each link
delivers in send order. Every message, every piece included, carries one
block id, which the sender takes from the round index (`head`'s K/V and
their gradients: from the head; O/L and dO: the query block of their rows)
and every receive names as the id it expects (`ctx.recv(src, block=)`): a
block's rows follow from its id, so a protocol bug fails loudly, naming the
worker and round, instead of corrupting results.
Workers with empty shards take part in every round with zero-row tensors.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cluster import (ClusterError, ClusterSpec, RoundTrace, TransportStats,
                      WorkerContext, spawn_cluster)
from .kernels import (DEFAULT_TILE_ROWS, AttentionState, GradientBundle, GradientCarry,
                      SoftmaxCarry, attention_row_stats, blockwise_attention,
                      blockwise_attention_backward, default_scale, merge_states,
                      require_finite, tile_pieces, validate_qkv)
# no body calls the dense oracle or the dense backward; perfbench/tracer.py
# wraps them here by name
from .kernels import dense_attention, dense_attention_backward  # noqa: F401


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
    def q_sizes(self) -> list[int]:
        return [b - a for a, b in self.q_ranges]

    @property
    def kv_sizes(self) -> list[int]:
        return [b - a for a, b in self.kv_ranges]


def _query_rotation(ctx: WorkerContext, read_only: dict, step: Callable,
                    fold: Callable) -> dict:
    """The `lvx` rounds of one worker in either phase; collective over all
    n: each query block rotates once around the ring toward the successor
    as two messages, its read-only part and its accumulator.

    Round r handles block j = i-r. Its read-only part leaves before the
    kernel, except in round n-1, whose successor owns the block.
    `step(read_only)` runs the kernel through `ctx.compute` and returns the
    block's accumulator, into which, from round 1 on, `fold(arrived, acc)`
    adds the one arriving from the predecessor. The result leaves under id
    j, so the round's transfers overlap its kernel, and the round ends by
    receiving the next read-only part, block j-1, or in round n-1 the
    homecoming, checked to be block (i - n) mod n = i, which is returned."""
    n, i = ctx.n, ctx.rank
    for r in range(n):
        j = (i - r) % n
        if r < n - 1:
            ctx.send(ctx.successor, read_only, block=j)
        acc = step(read_only)
        if r:
            acc = fold(ctx.recv(ctx.predecessor, block=j), acc)
        ctx.send(ctx.successor, acc, block=j)
        if r < n - 1:
            read_only = ctx.recv(ctx.predecessor, block=(j - 1) % n)
        else:
            acc = ctx.recv(ctx.predecessor, block=i)
        ctx.close_round()
    return acc


def lvx_forward(ctx: WorkerContext, shards: ShardSpec, q_i: np.ndarray,
                k_i: np.ndarray, v_i: np.ndarray, scale: float) -> AttentionState:
    """Query-rotation forward for one worker (`_query_rotation`): the
    read-only part is Q and the accumulator the running (O, L) state. The
    kernel's state of block j merges into the state that arrives; round 0
    takes the kernel's state as it is."""
    def step(ro):
        state = ctx.compute(blockwise_attention, ro["Q"], k_i, v_i, scale)
        return {"O": state.O, "L": state.L}

    def fold(arrived, acc):
        state = merge_states(AttentionState(**arrived), AttentionState(**acc))
        return {"O": state.O, "L": state.L}

    return AttentionState(**_query_rotation(ctx, {"Q": q_i}, step, fold))


def lvx_backward(ctx: WorkerContext, shards: ShardSpec, q_i: np.ndarray,
                 k_i: np.ndarray, v_i: np.ndarray, state: AttentionState,
                 do_i: np.ndarray, scale: float):
    """Query-rotation backward (`_query_rotation`): the read-only part is
    (Q, dO, L, D) and the accumulator dQ. The kernel accumulates dK/dV into
    the worker's one local pair and writes dQ into a fresh zeroed block, to
    which the arriving accumulator is then added; in round 0 the fresh
    block is the worker's own accumulator from the start. Returns (dQ_i,
    dK_i, dV_i)."""
    d_own = attention_row_stats(state, do_i).astype(q_i.dtype)
    dk = np.zeros_like(k_i)
    dv = np.zeros_like(v_i)

    def step(ro):
        dq = np.zeros_like(ro["Q"])
        ctx.compute(blockwise_attention_backward, ro["Q"], k_i, v_i, ro["L"], ro["D"],
                    ro["dO"], scale, out=(dq, dk, dv))
        return {"dQ": dq}

    def fold(arrived, acc):
        acc["dQ"] += arrived["dQ"]
        return acc

    ro = {"Q": q_i, "dO": do_i, "L": state.L, "D": d_own}
    return _query_rotation(ctx, ro, step, fold)["dQ"], dk, dv


def _round_pieces(ctx: WorkerContext, shards: ShardSpec, k_i: np.ndarray, v_i: np.ndarray,
                  j: int, src: int, dst: int | None, held: tuple | None = None):
    """Yield the {"K", "V"} payloads of block j in a ring round; the block
    travels in the pieces `tile_pieces(0, rows)`. The worker's own block is
    yielded whole, once its pieces have left for dst. Another block is
    yielded piece by piece, each taken from `held` when given, else as it
    arrives from src, and sent on to dst first. A dst of None sends
    nothing."""
    if j == ctx.rank:
        for a, b in tile_pieces(0, k_i.shape[1]) if dst is not None else ():
            ctx.send(dst, {"K": k_i[:, a:b], "V": v_i[:, a:b]}, block=j)
        yield {"K": k_i, "V": v_i}
        return
    for p in range(len(tile_pieces(0, shards.kv_sizes[j]))):
        kv = held[p] if held is not None else ctx.recv(src, block=j)
        if dst is not None:
            ctx.send(dst, kv, block=j)
        yield kv


@dataclass(frozen=True)
class _SavedState(AttentionState):
    """A worker's own rows of O and L, plus what its backward reuses from the
    forward: on `ring` the pieces of block i+1 that the last forward round
    received (none at n = 1), on `head` the head-split, full-sequence Q, K,
    V and state."""

    saved: tuple


def ring_forward(ctx: WorkerContext, shards: ShardSpec, q_i: np.ndarray,
                 k_i: np.ndarray, v_i: np.ndarray, scale: float) -> _SavedState:
    """KV-rotation forward: Q/O/L stay resident, (K, V) blocks shift n-1 times
    toward the successor in pieces of one kernel tile.

    Round r handles block j = i-r, fed to the kernel piece by piece as
    `_round_pieces` yields it, continuing the block's softmax carry: in
    round 0 the whole own block once its pieces have left, in a later round
    each piece as it lands from the predecessor, sent on to the successor
    except in round n-1, so a piece's transfer overlaps the kernel on the
    pieces before it. The block's state then merges into the running state;
    round 0's is taken as is. The state returned saves the pieces of the
    last round's block, i+1, where the backward starts; they are the
    received payloads themselves, not copies. At n = 1 that block is the
    worker's own, and nothing is saved."""
    n, i = ctx.n, ctx.rank
    out_dt = np.result_type(q_i, k_i, v_i)
    saved = []
    for r in range(n):
        carry = ctx.compute(SoftmaxCarry.start, q_i, scale)
        for kv in _round_pieces(ctx, shards, k_i, v_i, (i - r) % n, ctx.predecessor,
                                ctx.successor if r < n - 1 else None):
            ctx.compute(blockwise_attention, q_i, kv["K"], kv["V"], scale, carry=carry)
            if 0 < r == n - 1:
                saved.append(kv)
        delta = ctx.compute(carry.state, out_dt)
        state = merge_states(state, delta) if r else delta
        ctx.close_round()
    return _SavedState(O=state.O, L=state.L, saved=tuple(saved))


def ring_backward(ctx: WorkerContext, shards: ShardSpec, q_i: np.ndarray,
                  k_i: np.ndarray, v_i: np.ndarray, state: _SavedState,
                  do_i: np.ndarray, scale: float):
    """KV-rotation backward: the K/V blocks rotate toward the predecessor,
    starting from the block the forward ended with, and a (dK, dV)
    accumulator piece travels with each piece to the block's owner, while dQ
    accumulates locally.

    Round r handles block j = i+1+r, fed to the kernel as `_round_pieces`
    yields it, continuing the block's dQ carry: in round 0 the pieces of
    block i+1 that the forward saved, in rounds 1..n-2 each piece as it
    lands from the successor, and in round n-1 the own block whole. While
    r <= n-3 a piece goes on to the predecessor, which handles the block
    next round. In round 0 the kernel writes each piece's contribution into
    a fresh zeroed accumulator piece; in rounds 1..n-2 the block's
    accumulator piece arrives from the successor right after the K/V piece,
    and the kernel adds into it. Either way the accumulator piece leaves for
    the predecessor as soon as its tile is done, so block j's accumulator
    starts at worker j-1 and ends at its owner. In round n-1 the kernel adds
    the own block's contribution into the worker's zeroed dK/dV, and then
    the block's accumulator pieces arrive and are added to it, so nothing
    follows the last round. Returns (dQ_i, dK_i, dV_i)."""
    n, i = ctx.n, ctx.rank
    dtype = q_i.dtype

    d_own = attention_row_stats(state, do_i).astype(dtype)
    dq, dk, dv = np.zeros_like(q_i), np.zeros_like(k_i), np.zeros_like(v_i)
    for r in range(n):
        j = (i + 1 + r) % n
        carry = ctx.compute(GradientCarry.start, q_i, state.L, d_own, do_i, scale)
        for kv in _round_pieces(ctx, shards, k_i, v_i, j, ctx.successor,
                                ctx.predecessor if r < n - 2 else None,
                                state.saved if r == 0 else None):
            if r == n - 1:
                grads = {"dK": dk, "dV": dv}
            elif r == 0:
                grads = {"dK": np.zeros_like(kv["K"]), "dV": np.zeros_like(kv["V"])}
            else:
                grads = ctx.recv(ctx.successor, block=j)
            ctx.compute(blockwise_attention_backward, q_i, kv["K"], kv["V"], state.L, d_own,
                        do_i, scale, out=(dq, grads["dK"], grads["dV"]), carry=carry)
            if r < n - 1:
                ctx.send(ctx.predecessor, grads, block=j)
        for a, b in tile_pieces(0, k_i.shape[1]) if r == n - 1 and n > 1 else ():
            got = ctx.recv(ctx.successor, block=i)
            dk[:, a:b] += got["dK"]
            dv[:, a:b] += got["dV"]
        ctx.compute(carry.close, dq)
        ctx.close_round()
    return dq, dk, dv


def _gather(received: list[dict], cls: str, axis: int) -> np.ndarray:
    return np.concatenate([c[cls] for c in received], axis=axis)


def head_parallel_forward(ctx: WorkerContext, shards: ShardSpec, q_i: np.ndarray,
                          k_i: np.ndarray, v_i: np.ndarray, scale: float) -> AttentionState:
    """Sequence sharding to head sharding, local attention on the owned heads
    over the full sequence, and back.

    Each worker sends its rows of every head to the head's owner, the K/V
    rows as pieces cut at the kernel tile boundaries of the full sequence
    and the Q rows on the first piece, all posted before the first receive.
    For each owned head, the owner first receives every source's first
    piece, since the kernel needs all the Q rows before its first tile.
    Then it walks the pieces in sequence order, the first ones already in
    hand, writes each into the gathered head, and runs the kernel up to
    the last tile boundary the walk has reached (the end of the sequence
    once it is there), continuing the head's softmax carry. So a head's
    kernel overlaps the transfer of its later pieces and of the next head.
    Last, the owner sends every worker w the O and L rows of query block w
    under id w, and receives its own rows from every worker in rank
    order."""
    n, i = ctx.n, ctx.rank
    hpw = q_i.shape[0] // n
    sources = [tile_pieces(*rows) for rows in shards.kv_ranges]
    ka = shards.kv_ranges[i][0]
    own = [(a - ka, b - ka) for a, b in sources[i]]
    for k in range(hpw):
        for w in range(n):
            head = w * hpw + k
            for p, (a, b) in enumerate(own):
                piece = {"K": k_i[head, a:b][None], "V": v_i[head, a:b][None]}
                ctx.send(w, {"Q": q_i[head][None], **piece} if p == 0 else piece, block=k)
    d, s_q, s_kv = q_i.shape[2], shards.q_ranges[-1][1], shards.kv_ranges[-1][1]
    full = {cls: np.empty((hpw, rows, d), dtype=t.dtype)
            for cls, rows, t in (("Q", s_q, q_i), ("K", s_kv, k_i), ("V", s_kv, v_i))}
    out_dt = np.result_type(q_i, k_i, v_i)
    st = AttentionState(O=np.empty((hpw, s_q, d), out_dt), L=np.empty((hpw, s_q), out_dt))
    for k in range(hpw):
        q, kh, vh = (full[cls][k:k + 1] for cls in ("Q", "K", "V"))
        first = [ctx.recv(w, block=k) for w in range(n)]
        for (a, b), got in zip(shards.q_ranges, first):
            q[:, a:b] = got["Q"]
        carry = ctx.compute(SoftmaxCarry.start, q, scale)
        done = 0
        for w, pieces in enumerate(sources):
            for p, (a, b) in enumerate(pieces):
                got = ctx.recv(w, block=k) if p else first[w]
                kh[:, a:b], vh[:, a:b] = got["K"], got["V"]
                end = b if b == s_kv else b - b % DEFAULT_TILE_ROWS
                if end > done:
                    ctx.compute(blockwise_attention, q, kh[:, done:end], vh[:, done:end], scale,
                                carry=carry)
                    done = end
        head_st = ctx.compute(carry.state, out_dt)
        st.O[k], st.L[k] = head_st.O[0], head_st.L[0]

    for w, (a, b) in enumerate(shards.q_ranges):
        ctx.send(w, {"O": st.O[:, a:b], "L": st.L[:, a:b]}, block=w)
    received = [ctx.recv(w, block=i) for w in range(n)]
    ctx.close_round()
    return _SavedState(O=_gather(received, "O", 0), L=_gather(received, "L", 0),
                       saved=(full["Q"], full["K"], full["V"], st))


def head_parallel_backward(ctx: WorkerContext, shards: ShardSpec, q_i: np.ndarray,
                           k_i: np.ndarray, v_i: np.ndarray, state: _SavedState,
                           do_i: np.ndarray, scale: float):
    """Mirror image of the forward: each worker sends every head owner its
    dO rows of the owner's heads under its own query block's id and receives
    every worker's rows in rank order, the backward kernel runs on each
    owned head over the full sequence, and dQ, dK and dV go back to
    sequence sharding.

    The kernel walks an owned head one kernel tile at a time, continuing the
    head's dQ carry, and each worker's dK/dV rows leave for it as soon as
    the walk has passed them, as pieces cut at the tile boundaries, sent in
    sequence order. A worker's last piece waits for the end of the head and
    carries its dQ rows."""
    n, i = ctx.n, ctx.rank
    q_full, k_full, v_full, st = state.saved
    hpw = q_full.shape[0]
    out_dt = np.result_type(q_full, k_full, v_full)

    for w in range(n):
        ctx.send(w, {"dO": do_i[w * hpw:(w + 1) * hpw]}, block=i)
    do_full = _gather([ctx.recv(w, block=w) for w in range(n)], "dO", 1)
    dests = [tile_pieces(*rows) for rows in shards.kv_ranges]
    # every destination's pieces but its last, which waits for dQ, in
    # sequence order
    early = [(w, a, b) for w, pieces in enumerate(dests) for a, b in pieces[:-1]]
    for k in range(hpw):
        head = slice(k, k + 1)
        q, do = q_full[head], do_full[head]
        d_head = attention_row_stats(AttentionState(O=st.O[head], L=st.L[head]), do)
        dq, dk, dv = (np.zeros(t[head].shape, out_dt) for t in (q_full, k_full, v_full))
        carry = ctx.compute(GradientCarry.start, q, st.L[head], d_head, do, scale)
        sent = 0
        for t0, t1 in tile_pieces(0, k_full.shape[1]):
            ctx.compute(blockwise_attention_backward, q, k_full[head, t0:t1],
                        v_full[head, t0:t1], st.L[head], d_head, do, scale,
                        out=(dq, dk[:, t0:t1], dv[:, t0:t1]), carry=carry)
            while sent < len(early) and early[sent][2] <= t1:
                w, a, b = early[sent]
                ctx.send(w, {"dK": dk[:, a:b], "dV": dv[:, a:b]}, block=k)
                sent += 1
        ctx.compute(carry.close, dq)
        for w, ((qa, qb), pieces) in enumerate(zip(shards.q_ranges, dests)):
            a, b = pieces[-1]
            ctx.send(w, {"dQ": dq[:, qa:qb], "dK": dk[:, a:b], "dV": dv[:, a:b]}, block=k)

    ka = shards.kv_ranges[i][0]
    grads = {cls: np.empty(t.shape, out_dt) for cls, t in (("dQ", q_i), ("dK", k_i), ("dV", v_i))}
    for k in range(hpw):
        for w in range(n):
            head = w * hpw + k
            for a, b in dests[i]:
                got = ctx.recv(w, block=k)
                grads["dK"][head, a - ka:b - ka] = got["dK"][0]
                grads["dV"][head, a - ka:b - ka] = got["dV"][0]
            grads["dQ"][head] = got["dQ"][0]
    ctx.close_round()
    return grads["dQ"], grads["dK"], grads["dV"]


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
                    spec: ClusterSpec | None = None) -> RunResult:
    """Scatter Q/K/V by rows, run the strategy collectively, gather the full
    O, L (and gradients when dO is given) with transport stats and traces.
    The score scale is 1/sqrt(d). Non-finite inputs are refused before any
    worker starts."""
    strategy = StrategyKind(strategy)
    protocol = PROTOCOLS[strategy]
    spec = spec or ClusterSpec(1)
    validate_qkv(Q, K, V)
    h, s_q, d = Q.shape
    s_kv = K.shape[1]
    if dO is not None and dO.shape != Q.shape:
        raise ValueError(f"dO shape {dO.shape} != Q shape {Q.shape}")
    require_finite(Q=Q, K=K, V=V, dO=dO)
    scale = default_scale(d)
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
