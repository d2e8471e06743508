"""Toy cross-attention language-model stack with activation-policy bookkeeping.

The model alternates residual MLP blocks with cross-attention layers that all
read the same visual-feature buffer y. Block b first applies cross-attention
when b is a configured position, then the MLP:

    x <- x + flatten(Attention(project(x, W_Q), project(y, W_K), project(y, W_V))) W_O
    x <- x + tanh(x W1) W2

Two activation policies for the backward pass:

    store      keep K and V per cross-attention layer.
    recompute  keep only x, O, L per layer; re-project K and V from the one
               shared y buffer (and Q from the saved x) when needed.

Q is always recomputed from the saved x, under either policy, so the only
extra work of the recompute policy is the two y projections per layer. The
memory ledger is analytic (shape arithmetic, no tensors), with a measured
counterpart over the live saved buffers for cross-checks.

Each cross-attention layer walks y in the row blocks `kernels.tile_pieces`
cuts (256 rows; one empty block for no rows), so what the layers allocate
besides the ledger's buffers and d_y does not grow with S_KV. A block's K_b
and V_b are one projection of the block of y against [W_K | W_V]. The
forward walks the blocks on one `SoftmaxCarry` (under store, copying K_b and
V_b into the layer's full K and V), so the layer's O and L are those of one
blockwise_attention call over all of y. The backward computes D = rowsum(dO
O) once per layer, from the rounded O it saved, and walks the same blocks,
saved or re-projected, with blockwise_attention_backward on one
`GradientCarry`, which closes dQ once per layer; each block's float64 dK_b
and dV_b go back through one project_backward against float64 [W_K | W_V],
into d_y's rows and a float64 d[W_K | W_V] accumulator. Rounding to the
config dtype happens at the Q, K and V projections and once per layer for O
and L, d_y's rows, dQ, dW_K and dW_V; dK and dV stay float64. A y block is
what one worker's y shard would be in a sequence-parallel step, and its
kernel calls are the ones a `ring` worker makes per piece.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from enum import Enum

import numpy as np

from .kernels import (AttentionState, GradientCarry, SoftmaxCarry, attention_row_stats,
                      blockwise_attention, blockwise_attention_backward, default_scale,
                      project, project_backward, require_finite, tile_pieces)
# no body calls the dense backward; perfbench/tracer.py wraps it here by name
from .kernels import dense_attention_backward  # noqa: F401
from .tensorio import dtype_from_name, seeded_random_tensor


class ActivationPolicy(str, Enum):
    STORE_KV = "store"
    RECOMPUTE_KV = "recompute"


_INT_FIELDS = ("num_lm_blocks", "d_embed", "h", "d", "frames", "tokens_per_frame", "s_q")


def _is_int(value) -> bool:
    # JSON gives bool, float and str for what should be counts; all are refused
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ToyMllmConfig:
    num_lm_blocks: int
    ca_positions: tuple[int, ...]
    d_embed: int
    h: int
    d: int
    frames: int
    tokens_per_frame: int
    s_q: int
    dtype: str = "f32"

    def __post_init__(self):
        for name in _INT_FIELDS:
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not (isinstance(self.ca_positions, (list, tuple))
                and all(_is_int(p) for p in self.ca_positions)):
            raise ValueError(f"ca_positions must be a list of integers, "
                             f"got {self.ca_positions!r}")
        if not isinstance(self.dtype, str):
            raise ValueError(f"dtype must be a name, got {self.dtype!r}")
        object.__setattr__(self, "ca_positions", tuple(self.ca_positions))
        if self.num_lm_blocks < 0:
            raise ValueError(f"num_lm_blocks must be >= 0, got {self.num_lm_blocks}")
        for name in ("d_embed", "h", "d", "tokens_per_frame", "s_q"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.frames < 0:
            raise ValueError(f"frames must be >= 0, got {self.frames}")
        if len(set(self.ca_positions)) != len(self.ca_positions):
            raise ValueError(f"duplicate ca_positions: {self.ca_positions}")
        for p in self.ca_positions:
            if not 0 <= p < self.num_lm_blocks:
                raise ValueError(f"ca_position {p} out of range [0, {self.num_lm_blocks})")
        dtype_from_name(self.dtype)

    @property
    def s_kv(self) -> int:
        return self.frames * self.tokens_per_frame

    @property
    def num_ca_layers(self) -> int:
        return len(self.ca_positions)

    @property
    def np_dtype(self):
        return dtype_from_name(self.dtype)

    @property
    def elem_bytes(self) -> int:
        return self.np_dtype.itemsize

    @classmethod
    def from_dict(cls, data: dict) -> "ToyMllmConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be an object of fields, got {data!r}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(data)
        if missing:
            raise ValueError(f"missing config fields: {sorted(missing)}")
        return cls(**data)

    def as_dict(self) -> dict:
        return {**asdict(self), "ca_positions": list(self.ca_positions)}


# shipped toy preset: four cross-attention layers, h*d = d_embed
TOY_CONFIG = ToyMllmConfig(num_lm_blocks=8, ca_positions=(1, 3, 5, 7),
                           d_embed=128, h=2, d=64, frames=16,
                           tokens_per_frame=729, s_q=64, dtype="f32")


@dataclass
class CrossAttentionParams:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray


@dataclass
class LmBlockParams:
    w1: np.ndarray
    w2: np.ndarray


@dataclass
class ModelParams:
    ca: dict[int, CrossAttentionParams]
    lm: list[LmBlockParams]

    @classmethod
    def init_random(cls, config: ToyMllmConfig, seed: int = 0) -> "ModelParams":
        e, hd = config.d_embed, config.h * config.d
        dt = config.np_dtype
        # small weights keep tanh well away from saturation
        w_scale = 0.5 / np.sqrt(e)
        stream = iter(range(1, 10_000))
        ca = {}
        for pos in config.ca_positions:
            ca[pos] = CrossAttentionParams(
                w_q=seeded_random_tensor(seed, (e, hd), dt, w_scale, stream=next(stream)),
                w_k=seeded_random_tensor(seed, (e, hd), dt, w_scale, stream=next(stream)),
                w_v=seeded_random_tensor(seed, (e, hd), dt, w_scale, stream=next(stream)),
                w_o=seeded_random_tensor(seed, (hd, e), dt, w_scale, stream=next(stream)),
            )
        lm = [LmBlockParams(
                w1=seeded_random_tensor(seed, (e, e), dt, w_scale, stream=next(stream)),
                w2=seeded_random_tensor(seed, (e, e), dt, w_scale, stream=next(stream)))
              for _ in range(config.num_lm_blocks)]
        return cls(ca=ca, lm=lm)


@dataclass(frozen=True)
class MemoryLedger:
    """Byte accounting for what a policy keeps alive through the forward pass.

    Per-layer categories are for one cross-attention layer; peak_total is
    their sum over the layers plus the parameters and the single shared y
    buffer: the end of the forward, since nothing is freed.
    """

    params_bytes: int
    visual_features_y: int
    per_layer_saved_x: int
    per_layer_saved_o_l: int
    per_layer_saved_kv: int
    num_ca_layers: int
    peak_total: int

    def as_dict(self) -> dict:
        return asdict(self)


def analytic_ledger(config: ToyMllmConfig, policy: ActivationPolicy) -> MemoryLedger:
    policy = ActivationPolicy(policy)
    b = config.elem_bytes
    e, h, d = config.d_embed, config.h, config.d
    c = config.num_ca_layers
    params = c * 4 * e * h * d * b + config.num_lm_blocks * 2 * e * e * b
    y = config.s_kv * e * b
    # per-layer categories only exist when cross-attention layers do
    x = config.s_q * e * b if c else 0
    o_l = (config.s_q * h * d + config.s_q * h) * b if c else 0
    kv = (2 * config.s_kv * h * d * b
          if c and policy is ActivationPolicy.STORE_KV else 0)
    return MemoryLedger(params_bytes=params, visual_features_y=y,
                        per_layer_saved_x=x, per_layer_saved_o_l=o_l,
                        per_layer_saved_kv=kv, num_ca_layers=c,
                        peak_total=params + y + c * (x + o_l + kv))


@dataclass
class SavedActivations:
    policy: ActivationPolicy
    y: np.ndarray
    lm_inputs: list[np.ndarray] = field(default_factory=list)
    ca: dict[int, dict[str, np.ndarray]] = field(default_factory=dict)


def measured_activation_bytes(saved: SavedActivations) -> dict[str, int]:
    """Live-buffer counterpart of the analytic ledger categories, deduplicated
    by buffer identity so the shared y counts once no matter how many layers
    read it."""
    seen: set[int] = set()

    def count(arr: np.ndarray) -> int:
        if id(arr) in seen:
            return 0
        seen.add(id(arr))
        return int(arr.nbytes)

    out = {"visual_features_y": count(saved.y), "saved_x": 0, "saved_o_l": 0,
           "saved_kv": 0}
    for entry in saved.ca.values():
        out["saved_x"] += count(entry["x"])
        out["saved_o_l"] += count(entry["O"]) + count(entry["L"])
        if "K" in entry:
            out["saved_kv"] += count(entry["K"]) + count(entry["V"])
    return out


def projection_flops(rows: int, d_in: int, d_out: int) -> int:
    return 2 * rows * d_in * d_out


@dataclass
class OpCounter:
    """Forward-direction projection work performed inside the backward pass."""

    projection_flops: int = 0

    def add_projection(self, rows: int, d_in: int, d_out: int) -> None:
        self.projection_flops += projection_flops(rows, d_in, d_out)


@dataclass
class MllmGradients:
    d_x0: np.ndarray
    d_y: np.ndarray
    ca: dict[int, CrossAttentionParams]
    lm: list[LmBlockParams]


def _flatten_heads(t: np.ndarray) -> np.ndarray:
    h, s, d = t.shape
    return np.ascontiguousarray(t.transpose(1, 0, 2)).reshape(s, h * d)


def _unflatten_heads(t: np.ndarray, h: int) -> np.ndarray:
    s, hd = t.shape
    return np.ascontiguousarray(t.reshape(s, h, hd // h).transpose(1, 0, 2))


def mllm_forward(x0: np.ndarray, y: np.ndarray, params: ModelParams,
                 config: ToyMllmConfig, policy: ActivationPolicy):
    """Run the block stack; returns (output, saved activations, memory ledger).

    There is exactly one y buffer: every cross-attention layer projects from
    the same array, and the saved set holds one reference to it. Each layer
    walks y in row blocks; under the store policy the block projections are
    copied into the layer's full K and V."""
    policy = ActivationPolicy(policy)
    if x0.shape != (config.s_q, config.d_embed):
        raise ValueError(f"x0 shape {x0.shape} != ({config.s_q}, {config.d_embed})")
    if y.shape != (config.s_kv, config.d_embed):
        raise ValueError(f"y shape {y.shape} != ({config.s_kv}, {config.d_embed})")
    require_finite(x0=x0, y=y)
    scale = default_scale(config.d)
    h, d, s_kv = config.h, config.d, config.s_kv
    ca_set = set(config.ca_positions)
    saved = SavedActivations(policy=policy, y=y)
    x = x0
    for blk in range(config.num_lm_blocks):
        if blk in ca_set:
            p = params.ca[blk]
            q = project(x, p.w_q, h)
            w_kv = np.concatenate((p.w_k, p.w_v), axis=1)
            # the dtype the projections round K and V to
            dt = np.result_type(q, y, w_kv)
            entry = {"x": x}
            if policy is ActivationPolicy.STORE_KV:
                entry["K"] = np.empty((h, s_kv, d), dt)
                entry["V"] = np.empty((h, s_kv, d), dt)
            carry = SoftmaxCarry.start(q, scale)
            for a, b in tile_pieces(0, s_kv):
                kv = project(y[a:b], w_kv, 2 * h)
                if policy is ActivationPolicy.STORE_KV:
                    entry["K"][:, a:b] = kv[:h]
                    entry["V"][:, a:b] = kv[h:]
                blockwise_attention(q, kv[:h], kv[h:], scale, carry=carry)
            st = carry.state(dt)
            entry["O"], entry["L"] = st.O, st.L
            saved.ca[blk] = entry
            x = x + _flatten_heads(entry["O"]) @ p.w_o
        u = x
        saved.lm_inputs.append(u)
        x = u + np.tanh(u @ params.lm[blk].w1) @ params.lm[blk].w2
    return x, saved, analytic_ledger(config, policy)


def _require_saved(entry: dict, layer: int, name: str) -> np.ndarray:
    if name not in entry:
        raise ValueError(f"layer {layer}: missing saved tensor {name}")
    return entry[name]


def mllm_backward(d_out: np.ndarray, saved: SavedActivations, y: np.ndarray,
                  params: ModelParams, config: ToyMllmConfig,
                  policy: ActivationPolicy,
                  counter: OpCounter | None = None) -> MllmGradients:
    """Backpropagate d_out through the stack; both policies yield identical
    gradients. Q is re-projected from the saved x in both; the recompute
    policy additionally re-projects K and V from the shared y, one row block
    at a time."""
    policy = ActivationPolicy(policy)
    if saved.policy is not policy:
        raise ValueError(f"saved activations were produced under policy "
                         f"{saved.policy.value!r}, not {policy.value!r}")
    scale = default_scale(config.d)
    ca_set = set(config.ca_positions)
    e, h, hd = config.d_embed, config.h, config.h * config.d
    f64 = np.float64

    g = d_out
    d_y = np.zeros_like(y)
    ca_grads: dict[int, CrossAttentionParams] = {}
    lm_grads: list[LmBlockParams] = [None] * config.num_lm_blocks  # type: ignore
    for blk in reversed(range(config.num_lm_blocks)):
        p_lm = params.lm[blk]
        u = saved.lm_inputs[blk]
        t = np.tanh(u @ p_lm.w1)
        d_t = g @ p_lm.w2.T
        g_w2 = t.T @ g
        d_pre = d_t * (1.0 - t * t)
        g_w1 = u.T @ d_pre
        lm_grads[blk] = LmBlockParams(w1=g_w1, w2=g_w2)
        g = g + d_pre @ p_lm.w1.T
        if blk in ca_set:
            p = params.ca[blk]
            entry = saved.ca[blk]
            x_in = _require_saved(entry, blk, "x")
            o = _require_saved(entry, blk, "O")
            l = _require_saved(entry, blk, "L")
            if policy is ActivationPolicy.STORE_KV:
                k_all = _require_saved(entry, blk, "K")
                v_all = _require_saved(entry, blk, "V")
            d_o_flat = g @ p.w_o.T
            g_wo = _flatten_heads(o).T @ g
            d_o = _unflatten_heads(d_o_flat, h)
            q = project(x_in, p.w_q, h)
            if counter is not None:
                counter.add_projection(config.s_q, e, hd)
            w_kv = np.concatenate((p.w_k, p.w_v), axis=1)
            w_kv64 = w_kv.astype(f64, copy=False)
            d_stats = attention_row_stats(AttentionState(O=o, L=l), d_o)
            carry = GradientCarry.start(q, l, d_stats, d_o, scale)
            # float64 accumulators: each block gradient is exact, and the
            # layer rounds each of dQ, dW_K and dW_V once
            d_q = np.zeros(q.shape)
            g_wkv = np.zeros(w_kv.shape)
            for a, b in tile_pieces(0, config.s_kv):
                if policy is ActivationPolicy.STORE_KV:
                    k, v = k_all[:, a:b], v_all[:, a:b]
                else:
                    kv = project(y[a:b], w_kv, 2 * h)
                    k, v = kv[:h], kv[h:]
                    if counter is not None:
                        counter.add_projection(b - a, e, 2 * hd)
                d_kv = np.zeros((2 * h, b - a, config.d))
                blockwise_attention_backward(q, k, v, l, d_stats, d_o, scale,
                                             out=(d_q, d_kv[:h], d_kv[h:]), carry=carry)
                d_y_b, g_wkv_b = project_backward(y[a:b], w_kv64, d_kv)
                d_y[a:b] += d_y_b                   # the layer's one rounding
                g_wkv += g_wkv_b
            carry.close(d_q)
            d_x_q, g_wq = project_backward(x_in, p.w_q, d_q.astype(q.dtype, copy=False))
            ca_grads[blk] = CrossAttentionParams(
                w_q=g_wq, w_k=g_wkv[:, :hd].astype(p.w_k.dtype),
                w_v=g_wkv[:, hd:].astype(p.w_v.dtype), w_o=g_wo)
            g = g + d_x_q
    return MllmGradients(d_x0=g, d_y=d_y, ca=ca_grads, lm=lm_grads)


def max_frames_under_budget(config: ToyMllmConfig, policy: ActivationPolicy,
                            budget_bytes: int) -> int:
    """Largest frame count whose analytic peak fits the budget; 0 when even the
    frame-independent costs exceed it. The peak is affine in the frame count
    (each frame adds the same y rows and, under store, the same K/V rows to
    every layer), so the answer is one floor division, with no tensors."""
    if budget_bytes <= 0:
        raise ValueError(f"budget must be positive, got {budget_bytes}")

    def peak(frames: int) -> int:
        return analytic_ledger(replace(config, frames=frames), policy).peak_total

    fixed = peak(0)
    if budget_bytes < fixed:
        return 0
    # > 0: a frame adds tokens_per_frame >= 1 rows of d_embed >= 1 to y
    return (budget_bytes - fixed) // (peak(1) - fixed)
