"""Exact attention math: dense oracle, blockwise forward, state merging, backward.

All tensors use the layout [heads, rows, cols]. Every kernel computes
internally in float64 regardless of the public dtype, so f32 results are the
rounding of the f64 computation and the f64 path is directly comparable to
the dense oracle. Softmax statistics travel as a single per-row logsumexp
L = m + log(l); a row with L = -inf and O = 0 is the empty state and is the
identity element of merge_states.

The blockwise forward and the backward both walk the KV rows in tiles of
tile_rows rows (DEFAULT_TILE_ROWS = 256), as FlashAttention-2 does. Each K/V
tile is copied into a float64 buffer that every tile reuses, so a KV block
is never upcast whole, and scores, exponentials and rescaling happen in place
in tile-sized scratch. The forward multiplies the tile by Q scaled once, not
each score tile by the scale. The backward recomputes P from the saved L
tile by tile and adds its (dQ, dK, dV) into accumulators the caller owns: a
protocol worker accumulates every round into the same arrays, and a gradient
is rounded to the accumulator's dtype before each add, so an f32 accumulator
rounds exactly as adding separately returned f32 gradients would. Its two
score-shaped GEMMs fold the row statistics in: [scale Q | L] and [dO | D]
against a K or V tile staged with a column of -1s give scale Q K^T - L and
dO V^T - D directly, with no elementwise pass. Kernel scratch is
O(h * rows * tile + h * (rows + tile) * d) whatever the KV block size; only
the dense oracle builds the full [h, S_Q, S_KV] score matrix.

Both walks can stop and resume between tiles, so K/V that arrives in pieces
meets the kernel as it lands: a `SoftmaxCarry` holds the forward's float64
scaled Q, m, l and O between calls and a `GradientCarry` the backward's
folded float64 operands and dQ sum, each operand built once when the walk
starts, so a piece costs only its tiles. Fed pieces that start at tile
boundaries of the walk, a carry gives the one-shot call's result bit for
bit; the one-shot call is the same walk fed one piece. `tile_pieces` cuts
rows into such pieces.

Scaling Q once and folding L and D into the GEMMs can round differently
from scaling each score tile and subtracting L and D after it: the forward's
O and L wherever the scale is not a power of two (1/sqrt(d) is one at d = 4,
16, 64), and the backward's gradients wherever BLAS does not add the folded
column last (float64 at d = 32 and 64 on OpenBLAS). Both stay within the
oracle gates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TILE_ROWS = 256


def tile_pieces(a: int, b: int) -> list[tuple[int, int]]:
    """Rows [a, b) cut at the multiples of DEFAULT_TILE_ROWS, the pieces in
    which K/V and its gradients travel and meet a carry; no rows is one
    empty piece, so a block is never less than one message."""
    cuts = [a, *range((a // DEFAULT_TILE_ROWS + 1) * DEFAULT_TILE_ROWS, b, DEFAULT_TILE_ROWS), b]
    return list(zip(cuts, cuts[1:]))


@dataclass(frozen=True)
class AttentionState:
    """Partial attention output O [h, rows, d] plus row logsumexp L [h, rows]."""

    O: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        if self.O.ndim != 3 or self.L.ndim != 2:
            raise ValueError(f"state shapes must be [h,rows,d] and [h,rows], "
                             f"got {self.O.shape} and {self.L.shape}")
        if self.O.shape[:2] != self.L.shape:
            raise ValueError(f"O {self.O.shape} and L {self.L.shape} disagree on heads/rows")


@dataclass(frozen=True)
class GradientBundle:
    dQ: np.ndarray
    dK: np.ndarray
    dV: np.ndarray


def empty_state(heads: int, rows: int, d: int, dtype=np.float64) -> AttentionState:
    """The merge identity: O = 0, L = -inf."""
    return AttentionState(
        O=np.zeros((heads, rows, d), dtype=dtype),
        L=np.full((heads, rows), -np.inf, dtype=dtype),
    )


def default_scale(d: int) -> float:
    return 1.0 / np.sqrt(d)


def validate_qkv(Q: np.ndarray, K: np.ndarray, V: np.ndarray) -> None:
    for name, t in (("Q", Q), ("K", K), ("V", V)):
        if t.ndim != 3:
            raise ValueError(f"{name} must be [heads, rows, d], got shape {t.shape}")
    if not (Q.shape[0] == K.shape[0] == V.shape[0]):
        raise ValueError(f"head counts differ: Q {Q.shape[0]}, K {K.shape[0]}, V {V.shape[0]}")
    if K.shape[1] != V.shape[1]:
        raise ValueError(f"K rows {K.shape[1]} != V rows {V.shape[1]}")
    if Q.shape[2] != K.shape[2]:
        raise ValueError(f"Q cols {Q.shape[2]} != K cols {K.shape[2]}")
    if V.shape[2] != Q.shape[2]:
        raise ValueError(f"V cols {V.shape[2]} != Q cols {Q.shape[2]}")


def require_finite(**tensors: np.ndarray | None) -> None:
    """Refuse a tensor holding inf or nan, naming it and its first such
    element; None is skipped. The kernels do not check: one non-finite
    element silently turns whole output rows into NaN. Callers check once
    at their boundary, not per kernel call."""
    for name, t in tensors.items():
        if t is not None and not np.isfinite(t).all():
            where = np.argwhere(~np.isfinite(t))[0]
            raise ValueError(f"{name} holds a non-finite value at {where.tolist()}")


def dense_attention(Q: np.ndarray, K: np.ndarray, V: np.ndarray,
                    scale: float | None = None) -> AttentionState:
    """Brute-force oracle: O = softmax(scale * Q K^T) V with the full score
    matrix materialized and a max-subtracted row softmax. L is the exact row
    logsumexp of the scaled scores."""
    validate_qkv(Q, K, V)
    if scale is None:
        scale = default_scale(Q.shape[2])
    out_dt = np.result_type(Q, K, V)
    h, s_q, d = Q.shape
    s_kv = K.shape[1]
    if s_kv == 0:
        return empty_state(h, s_q, d, out_dt)
    Qf = Q.astype(np.float64, copy=False)
    Kf = K.astype(np.float64, copy=False)
    Vf = V.astype(np.float64, copy=False)
    S = scale * (Qf @ Kf.transpose(0, 2, 1))        # [h, s_q, s_kv]
    m = S.max(axis=2)
    P = np.exp(S - m[..., None])
    l = P.sum(axis=2)
    O = (P @ Vf) / l[..., None]
    L = m + np.log(l)
    return AttentionState(O=O.astype(out_dt), L=L.astype(out_dt))


def _stage(buf: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Copy rows into the front of a flat buffer, cast to the buffer's dtype,
    and return them as a contiguous view of rows' shape; a short last tile
    reuses the same buffer."""
    tile = buf[:rows.size].reshape(rows.shape)
    np.copyto(tile, rows)
    return tile


def _add_rounded(acc: np.ndarray, grad: np.ndarray, buf: np.ndarray | None) -> None:
    """acc += grad. A narrower accumulator gets the float64 grad rounded to
    its dtype first, in the flat buffer buf, so it rounds exactly as adding a
    separately returned gradient of that dtype would."""
    if buf is not None:
        grad = _stage(buf, grad)
    acc += grad


@dataclass
class SoftmaxCarry:
    """The float64 online-softmax state of a forward walked over consecutive
    KV pieces: row max m and row sum l [h, rows], the unnormalized output O
    [h, rows, d], and the count of KV rows walked. It also owns the walk's
    one operand, the scaled query block Qs = scale * Q in float64 [h, rows,
    d], built once when the walk starts, so a piece costs only its tiles."""

    Qs: np.ndarray
    scale: float
    m: np.ndarray
    l: np.ndarray
    O: np.ndarray
    kv_rows: int = 0

    @classmethod
    def start(cls, Q: np.ndarray, scale: float | None = None) -> "SoftmaxCarry":
        """The state before any KV row, for the query block Q and the score
        scale (default 1/sqrt(d))."""
        h, s_q, d = Q.shape
        if scale is None:
            scale = default_scale(d)
        return cls(Qs=np.multiply(Q, scale, dtype=np.float64), scale=scale,
                   m=np.full((h, s_q), -np.inf), l=np.zeros((h, s_q)), O=np.zeros((h, s_q, d)))

    def state(self, dtype) -> AttentionState:
        """The partial state over the rows walked, in dtype; it consumes the
        carry. No rows walked gives the empty state."""
        if self.kv_rows == 0:
            return empty_state(*self.O.shape, dtype)
        self.O /= self.l[..., None]
        L = self.m + np.log(self.l)
        return AttentionState(O=self.O.astype(dtype, copy=False), L=L.astype(dtype, copy=False))


def _check_carry(carry, rows: np.ndarray, Q: np.ndarray, scale: float | None) -> None:
    if rows.shape != Q.shape:
        raise ValueError(f"carry rows {rows.shape} != Q shape {Q.shape}")
    if scale is not None and scale != carry.scale:
        raise ValueError(f"scale {scale} != the carry's scale {carry.scale}")


def blockwise_attention(Q: np.ndarray, K: np.ndarray, V: np.ndarray,
                        scale: float | None = None,
                        tile_rows: int = DEFAULT_TILE_ROWS,
                        carry: SoftmaxCarry | None = None):
    """Partial state for one KV block, via a running (m, l) online softmax over
    KV tiles of at most tile_rows rows (clamped to the block size). Restricted
    to this block, the result equals dense_attention on it.

    Given a carry, the call instead continues it over K and V, the next KV
    rows, and returns it; `carry.state(dtype)` ends the walk. The carry's
    scaled Q stands for Q, which must have its shape, and a scale given
    must be the carry's. Pieces that start at multiples of tile_rows from
    the walk's first row give the one-shot result bit for bit, which is
    this same walk fed one piece.

    Q is scaled once per walk, not each score tile; where the scale is not
    a power of two this rounds differently from scaling the product. Each
    K/V tile is copied into a reused float64 buffer, and the tile's scores
    are shifted and exponentiated in one reused score buffer, so scratch
    memory is O(h * (rows + tile) * d + h * rows * tile) whatever the block
    size."""
    validate_qkv(Q, K, V)
    if tile_rows < 1:
        raise ValueError(f"tile_rows must be >= 1, got {tile_rows}")
    one_shot = carry is None
    if one_shot:
        carry = SoftmaxCarry.start(Q, scale)
    else:
        _check_carry(carry, carry.O, Q, scale)
    h, s_q, d = Q.shape
    s_kv = K.shape[1]
    tile = max(1, min(tile_rows, s_kv))

    k_buf = np.empty(h * tile * d)
    v_buf = np.empty(h * tile * d)
    s_buf = np.empty(h * s_q * tile)
    pv = np.empty((h, s_q, d))
    Qs, m, l, O = carry.Qs, carry.m, carry.l, carry.O
    for t0 in range(0, s_kv, tile):
        Kt = _stage(k_buf, K[:, t0:t0 + tile])
        Vt = _stage(v_buf, V[:, t0:t0 + tile])
        S = s_buf[:h * s_q * Kt.shape[1]].reshape(h, s_q, Kt.shape[1])
        # the carry's Qs is scale * Q, so this product is the scaled score
        np.matmul(Qs, Kt.transpose(0, 2, 1), out=S)
        m_new = np.maximum(m, S.max(axis=2))
        S -= m_new[..., None]
        np.exp(S, out=S)
        alpha = np.exp(m - m_new)                   # first tile: exp(-inf) = 0
        l *= alpha
        l += S.sum(axis=2)
        O *= alpha[..., None]
        O += np.matmul(S, Vt, out=pv)
        m = m_new
    carry.m = m
    carry.kv_rows += s_kv
    return carry.state(np.result_type(Q, K, V)) if one_shot else carry


def merge_states(a: AttentionState, b: AttentionState) -> AttentionState:
    """Combine two partial states over disjoint KV blocks.

    L = logaddexp(L_a, L_b); O = exp(L_a - L) O_a + exp(L_b - L) O_b.
    Merging with the empty state returns the other operand exactly."""
    if a.O.shape != b.O.shape:
        raise ValueError(f"state shape mismatch: {a.O.shape} vs {b.O.shape}")
    out_dt = np.result_type(a.O, b.O)
    La = a.L.astype(np.float64, copy=False)
    Lb = b.L.astype(np.float64, copy=False)
    L = np.logaddexp(La, Lb)
    # rows where both inputs are empty keep L = -inf, O = 0; exp() below
    # yields exactly 0 for them because La - Lsafe = -inf
    Lsafe = np.where(np.isneginf(L), 0.0, L)
    wa = np.exp(La - Lsafe)[..., None]
    wb = np.exp(Lb - Lsafe)[..., None]
    O = wa * a.O.astype(np.float64, copy=False) + wb * b.O.astype(np.float64, copy=False)
    return AttentionState(O=O.astype(out_dt), L=L.astype(out_dt))


def attention_row_stats(state: AttentionState, dO: np.ndarray) -> np.ndarray:
    """D = rowsum(dO * O), the per-row statistic the backward pass reuses."""
    if dO.shape != state.O.shape:
        raise ValueError(f"dO shape {dO.shape} != O shape {state.O.shape}")
    return np.sum(dO.astype(np.float64, copy=False) * state.O.astype(np.float64, copy=False),
                  axis=2)


def dense_attention_backward(Q: np.ndarray, K: np.ndarray, V: np.ndarray,
                             O: np.ndarray, L: np.ndarray, dO: np.ndarray,
                             scale: float | None = None) -> GradientBundle:
    """Full softmax-attention backward from the saved forward stats.

    P = exp(scale QK^T - L); D = rowsum(dO * O); dV = P^T dO;
    dS = P * (dO V^T - D); dQ = scale dS K; dK = scale dS^T Q.

    Runs blockwise_attention_backward on the whole KV range, so P is
    recomputed from L one KV tile of DEFAULT_TILE_ROWS rows at a time and
    scratch memory is O(h * S_Q * tile), never the full score matrix.
    """
    validate_qkv(Q, K, V)
    if O.shape != Q.shape or dO.shape != Q.shape:
        raise ValueError(f"O/dO must match Q shape {Q.shape}, got {O.shape}/{dO.shape}")
    if L.shape != Q.shape[:2]:
        raise ValueError(f"L shape {L.shape} != {Q.shape[:2]}")
    if scale is None:
        scale = default_scale(Q.shape[2])
    D = attention_row_stats(AttentionState(O=O, L=L), dO)
    dQ, dK, dV = blockwise_attention_backward(Q, K, V, L, D, dO, scale)
    return GradientBundle(dQ=dQ, dK=dK, dV=dV)


@dataclass
class GradientCarry:
    """The float64 sum of the dQ tile updates of a backward walked over
    consecutive KV pieces, before the score scale, and the walk's two folded
    float64 operands [h, rows, d + 1], built once when the walk starts:
    QL = [scale * Q | L] and dOD = [dO | D]. Against a K or V tile staged
    with a column of -1s, one GEMM each gives the shifted scores
    scale * Q K^T - L and dO V^T - D, so a piece costs only its tiles."""

    dQ: np.ndarray
    QL: np.ndarray
    dOD: np.ndarray
    scale: float

    @classmethod
    def start(cls, Q: np.ndarray, L: np.ndarray, D: np.ndarray, dO: np.ndarray,
              scale: float | None = None) -> "GradientCarry":
        """The sum before any KV row, for the query block Q with its final
        forward statistics L and D, its output gradient dO, and the score
        scale (default 1/sqrt(d))."""
        h, s_q, d = Q.shape
        if scale is None:
            scale = default_scale(d)
        folded = np.concatenate((np.multiply(Q, scale, dtype=np.float64), L[..., None], dO,
                                 D[..., None]), axis=2, dtype=np.float64)
        return cls(dQ=np.zeros(Q.shape), QL=folded[..., :d + 1], dOD=folded[..., d + 1:],
                   scale=scale)

    def close(self, dQ: np.ndarray) -> None:
        """Scale the sum and add it, rounded to dQ's dtype, into the
        accumulator dQ; it consumes the carry."""
        self.dQ *= self.scale
        _add_rounded(dQ, self.dQ, (None if dQ.dtype == np.float64
                                   else np.empty(dQ.size, dtype=dQ.dtype)))


def _stage_folded(buf: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Copy rows [h, t, d] into the first t rows of buf [h, tile, d + 1],
    whose last column holds -1s, and return those rows of buf."""
    tile = buf[:, :rows.shape[1]]
    np.copyto(tile[..., :-1], rows)
    return tile


def blockwise_attention_backward(Q_block: np.ndarray, K_block: np.ndarray,
                                 V_block: np.ndarray, L_full: np.ndarray,
                                 D_full: np.ndarray, dO_block: np.ndarray,
                                 scale: float | None = None,
                                 tile_rows: int = DEFAULT_TILE_ROWS,
                                 out: tuple | None = None,
                                 carry: GradientCarry | None = None):
    """Add the gradient contributions of one (Q block, KV block) pair into
    the accumulators out = (dQ, dK, dV), shaped like Q_block, K_block and
    V_block, and return them. Zero-filled accumulators of the inputs' result
    dtype are allocated when out is None.

    L_full and D_full must be the final forward statistics for these query
    rows, taken over all KV blocks; accumulating over every KV block
    reproduces the dense backward.

    The KV block is walked in tiles of at most tile_rows rows (default 256),
    as in the FlashAttention-2 backward. Each tile is copied into a reused
    float64 buffer whose last column holds -1s, so that
    P = exp(scale Q K_t^T - L) is one GEMM of the folded [scale Q | L] and
    an exp, and dS = P * (dO V_t^T - D) one GEMM of the folded [dO | D] and
    a product. The tile adds dV_t = P^T dO and dK_t = dS^T (scale Q) into
    its rows of the dV and dK accumulators, and dS K_t to a float64 dQ sum
    that is scaled and added into the dQ accumulator once, at the end. Each
    gradient is rounded to its accumulator's dtype before the add. Scratch
    memory is O(h * rows * tile + h * (rows + tile) * d), reused by every
    tile.

    Given a carry, the call instead walks K_block and V_block as the next KV
    rows of a longer walk: it adds into dK and dV and into the carry's dQ
    sum, and leaves dQ to `carry.close(dQ)`. The carry's folded operands
    stand for Q_block, L_full, D_full and dO_block, which must have their
    shapes, and a scale given must be the carry's. Pieces that start at
    multiples of tile_rows from the walk's first row give the one-shot
    result bit for bit, which is this same walk fed one piece.
    """
    validate_qkv(Q_block, K_block, V_block)
    if dO_block.shape != Q_block.shape:
        raise ValueError(f"dO shape {dO_block.shape} != Q shape {Q_block.shape}")
    if L_full.shape != Q_block.shape[:2] or D_full.shape != Q_block.shape[:2]:
        raise ValueError(f"L/D shapes {L_full.shape}/{D_full.shape} != {Q_block.shape[:2]}")
    if tile_rows < 1:
        raise ValueError(f"tile_rows must be >= 1, got {tile_rows}")
    if out is None:
        out_dt = np.result_type(Q_block, K_block, V_block)
        out = tuple(np.zeros(t.shape, dtype=out_dt) for t in (Q_block, K_block, V_block))
    dQ_acc, dK_acc, dV_acc = out
    for name, acc, t in (("dQ", dQ_acc, Q_block), ("dK", dK_acc, K_block),
                         ("dV", dV_acc, V_block)):
        if acc.shape != t.shape or acc.dtype != dQ_acc.dtype:
            raise ValueError(f"{name} accumulator {acc.shape} {acc.dtype} must have shape "
                             f"{t.shape} and the dtype of dQ, {dQ_acc.dtype}")
    one_shot = carry is None
    if one_shot:
        carry = GradientCarry.start(Q_block, L_full, D_full, dO_block, scale)
    else:
        _check_carry(carry, carry.dQ, Q_block, scale)

    h, s_q, d = Q_block.shape
    s_kv = K_block.shape[1]
    QL, dOD = carry.QL, carry.dOD
    Qs, dOf = QL[..., :d], dOD[..., :d]
    tile = max(1, min(tile_rows, s_kv))

    # flat score and gradient buffers, so a short last tile still gets a
    # contiguous view: matmul into a strided view misses the BLAS path. The
    # K/V staging buffer's -1 column is written once; its [h, t, d] part is
    # strided, which BLAS reads as a matrix with leading dimension d + 1
    kv_buf = np.empty((2, h, tile, d + 1))
    kv_buf[..., d] = -1.0
    k_buf, v_buf = kv_buf[0], kv_buf[1]
    g_buf = np.empty(h * tile * d)
    r_buf = None if dK_acc.dtype == np.float64 else np.empty(h * tile * d, dtype=dK_acc.dtype)
    p_buf = np.empty(h * s_q * tile)
    ds_buf = np.empty(h * s_q * tile)
    dq_tile = np.empty((h, s_q, d))
    for t0 in range(0, s_kv, tile):
        t1 = min(t0 + tile, s_kv)
        Kt = _stage_folded(k_buf, K_block[:, t0:t1])
        Vt = _stage_folded(v_buf, V_block[:, t0:t1])
        P = p_buf[:h * s_q * (t1 - t0)].reshape(h, s_q, t1 - t0)
        dS = ds_buf[:P.size].reshape(P.shape)
        G = g_buf[:h * (t1 - t0) * d].reshape(h, t1 - t0, d)
        np.matmul(QL, Kt.transpose(0, 2, 1), out=P)
        np.exp(P, out=P)
        np.matmul(P.transpose(0, 2, 1), dOf, out=G)
        _add_rounded(dV_acc[:, t0:t1], G, r_buf)
        np.matmul(dOD, Vt.transpose(0, 2, 1), out=dS)
        dS *= P
        carry.dQ += np.matmul(dS, Kt[..., :d], out=dq_tile)
        np.matmul(dS.transpose(0, 2, 1), Qs, out=G)
        _add_rounded(dK_acc[:, t0:t1], G, r_buf)
    if one_shot:
        carry.close(dQ_acc)
    return out


def project(x: np.ndarray, W: np.ndarray, heads: int) -> np.ndarray:
    """x [S, d_embed] @ W [d_embed, h*d] reshaped to [h, S, d]; head k owns
    column block [k*d, (k+1)*d)."""
    if x.ndim != 2 or W.ndim != 2:
        raise ValueError(f"expected 2-D input and weight, got {x.shape} and {W.shape}")
    if x.shape[1] != W.shape[0]:
        raise ValueError(f"inner dims disagree: input {x.shape[1]} vs weight {W.shape[0]}")
    if W.shape[1] % heads != 0:
        raise ValueError(f"weight cols {W.shape[1]} not divisible by heads {heads}")
    d = W.shape[1] // heads
    flat = x.astype(np.float64, copy=False) @ W.astype(np.float64, copy=False)
    out = np.empty((heads, x.shape[0], d), dtype=np.result_type(x, W))
    np.copyto(out, flat.reshape(x.shape[0], heads, d).transpose(1, 0, 2))
    return out


def project_backward(x: np.ndarray, W: np.ndarray, dOut: np.ndarray):
    """Backward of project: returns (dInput = dOut_flat W^T, dW = x^T dOut_flat)."""
    heads = dOut.shape[0]
    if dOut.ndim != 3 or dOut.shape[1] != x.shape[0] or heads * dOut.shape[2] != W.shape[1]:
        raise ValueError(f"dOut shape {dOut.shape} inconsistent with input {x.shape} "
                         f"and weight {W.shape}")
    out_dt = np.result_type(x, W)
    s = x.shape[0]
    dflat = dOut.astype(np.float64, copy=False).transpose(1, 0, 2).reshape(s, W.shape[1])
    dX = dflat @ W.astype(np.float64, copy=False).T
    dW = x.astype(np.float64, copy=False).T @ dflat
    return dX.astype(out_dt, copy=False), dW.astype(out_dt, copy=False)
