"""Closed-form runtime, communication, and memory models.

Per-round times (n workers, elements of size b bytes, h heads of dim d):

    compute_fwd(both strategies) = 4 (S_Q/n)(S_KV/n) h d / gpu_flops
    compute_bwd(both strategies) = 10 (S_Q/n)(S_KV/n) h d / gpu_flops
    kv-rotation    comm_fwd = 2 (S_KV/n) h d b / net_bandwidth
                   comm_bwd = 4 (S_KV/n) h d b / net_bandwidth
    query-rotation comm_fwd = (2 (S_Q/n) h d + (S_Q/n) h) b / net_bandwidth
                   comm_bwd = (3 (S_Q/n) h d + 2 (S_Q/n) h) b / net_bandwidth

A round costs max(compute, comm) because the transfer overlaps the kernel.
In the regime where query rotation is compute-bound and kv rotation is
communication-bound, the speedup ratio collapses to the closed forms

    forward:  b/(2 S_Q/n) * gpu_flops/net_bandwidth
    backward: 2b/(5 S_Q/n) * gpu_flops/net_bandwidth

(the published element-count version omits b; byte counting makes the comm
side element-size sensitive, so it appears explicitly here). Outside that
regime the general max-based ratio is used.

Memory model: kv_bytes = 2 S_KV d_model b; the flash working set adds Q, O,
and one logsumexp scalar per query row: (2 S_Q d_model + S_Q) b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import volumes
from .strategies import PROTOCOLS, partition_rows

COMPUTE_BOUND = "compute"
COMM_BOUND = "communication"

# quadrant naming follows the speedup surface: x axis = S_Q, y axis = S_KV
_QUADRANTS = {
    (COMPUTE_BOUND, COMM_BOUND): "top-left",
    (COMM_BOUND, COMM_BOUND): "bottom-left",
    (COMPUTE_BOUND, COMPUTE_BOUND): "top-right",
    (COMM_BOUND, COMPUTE_BOUND): "bottom-right",
}


@dataclass(frozen=True)
class HardwareSpec:
    gpu_flops: float        # floating-point ops per second
    net_bandwidth: float    # bytes per second

    def __post_init__(self):
        if not (self.gpu_flops > 0 and self.net_bandwidth > 0):
            raise ValueError(f"hardware numbers must be positive: {self}")


@dataclass(frozen=True)
class WorkloadSpec:
    s_q: int
    s_kv: int
    h: int
    d: int
    n: int
    elem_bytes: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"worker count must be >= 1, got {self.n}")
        for name in ("h", "d", "elem_bytes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        # zero-length sequences are legal degenerate workloads (empty video)
        for name in ("s_q", "s_kv"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class StrategyRoundTimes:
    compute_fwd: float
    comm_fwd: float
    compute_bwd: float
    comm_bwd: float

    @property
    def round_fwd(self) -> float:
        return max(self.compute_fwd, self.comm_fwd)

    @property
    def round_bwd(self) -> float:
        return max(self.compute_bwd, self.comm_bwd)

    def as_dict(self) -> dict:
        return {"compute_fwd": self.compute_fwd, "comm_fwd": self.comm_fwd,
                "compute_bwd": self.compute_bwd, "comm_bwd": self.comm_bwd,
                "round_fwd": self.round_fwd, "round_bwd": self.round_bwd}


@dataclass(frozen=True)
class RegimeReport:
    lvx_bound: str
    ring_bound: str
    quadrant: str
    speedup_forward: float
    speedup_backward: float

    def as_dict(self) -> dict:
        return {"lvx_bound": self.lvx_bound, "ring_bound": self.ring_bound,
                "quadrant": self.quadrant, "speedup_forward": self.speedup_forward,
                "speedup_backward": self.speedup_backward}


def attention_round_flops(w: WorkloadSpec, phase: str) -> float:
    factor = 4.0 if phase == "forward" else 10.0
    return factor * (w.s_q / w.n) * (w.s_kv / w.n) * w.h * w.d


def round_comm_bytes(strategy: str, phase: str, w: WorkloadSpec) -> float:
    """Steady-state bytes one worker ships per round; 0 for n = 1 (loopback)."""
    if w.n == 1:
        return 0.0
    return volumes.round_model_elems(strategy, phase, w.s_q, w.s_kv,
                                     w.n, w.h, w.d) * w.elem_bytes


def round_times(w: WorkloadSpec, hw: HardwareSpec) -> dict[str, StrategyRoundTimes]:
    out = {}
    for strategy in ("lvx", "ring"):
        out[strategy] = StrategyRoundTimes(
            compute_fwd=attention_round_flops(w, "forward") / hw.gpu_flops,
            comm_fwd=round_comm_bytes(strategy, "forward", w) / hw.net_bandwidth,
            compute_bwd=attention_round_flops(w, "backward") / hw.gpu_flops,
            comm_bwd=round_comm_bytes(strategy, "backward", w) / hw.net_bandwidth,
        )
    return out


def speedup(w: WorkloadSpec, hw: HardwareSpec) -> dict[str, float]:
    """Per-round time ratio kv-rotation / query-rotation, from the max-based
    round times. Equals the closed form exactly when query rotation is
    compute-bound and kv rotation is communication-bound."""
    t = round_times(w, hw)
    if w.n == 1:
        return {"forward": 1.0, "backward": 1.0}

    def ratio(a: float, b: float) -> float:
        if a == b:        # covers the all-zero degenerate workload
            return 1.0
        return a / b

    return {"forward": ratio(t["ring"].round_fwd, t["lvx"].round_fwd),
            "backward": ratio(t["ring"].round_bwd, t["lvx"].round_bwd)}


def speedup_closed_form(w: WorkloadSpec, hw: HardwareSpec) -> dict[str, float]:
    """The top-left-quadrant closed forms (comm side carries elem_bytes)."""
    ratio = hw.gpu_flops / hw.net_bandwidth
    per_worker_q = w.s_q / w.n
    return {"forward": w.elem_bytes / (2.0 * per_worker_q) * ratio,
            "backward": 2.0 * w.elem_bytes / (5.0 * per_worker_q) * ratio}


def classify_regime(w: WorkloadSpec, hw: HardwareSpec) -> RegimeReport:
    """Which operand of max(compute, comm) dominates each strategy's forward
    round; ties classify as compute-bound."""
    t = round_times(w, hw)
    lvx_bound = COMPUTE_BOUND if t["lvx"].compute_fwd >= t["lvx"].comm_fwd else COMM_BOUND
    ring_bound = COMPUTE_BOUND if t["ring"].compute_fwd >= t["ring"].comm_fwd else COMM_BOUND
    s = speedup(w, hw)
    return RegimeReport(lvx_bound=lvx_bound, ring_bound=ring_bound,
                        quadrant=_QUADRANTS[(lvx_bound, ring_bound)],
                        speedup_forward=s["forward"], speedup_backward=s["backward"])


def memory_cross_attention(s_q: int, s_kv: int, d_model: int,
                           elem_bytes: int) -> dict[str, int]:
    if min(s_q, d_model, elem_bytes) <= 0 or s_kv < 0:
        raise ValueError("memory model inputs must be positive (s_kv may be 0)")
    kv_bytes = 2 * s_kv * d_model * elem_bytes
    working_set = kv_bytes + (2 * s_q * d_model + s_q) * elem_bytes
    return {"kv_bytes": kv_bytes, "flash_working_set_bytes": working_set}


# tokens emitted per video frame by each model family's encoder + projection
TOKENS_PER_FRAME = {"llama3v": 6404, "owl3": 729, "openflamingo": 64}

# artifact defaults for head layout (h * d equals the model width used in the
# memory anchors: 32*128 = 4096, 28*128 = 3584, 8*64 = 512)
MODEL_HEAD_LAYOUT = {"llama3v": (32, 128), "owl3": (28, 128), "openflamingo": (8, 64)}


def workload_from_video(model: str, duration_s: float, fps: float,
                        prompt_words: int, n: int,
                        elem_bytes: int = 2) -> WorkloadSpec:
    """Scenario arithmetic: frames = duration * fps; the key/value length is
    frames * tokens_per_frame; the query side gets one <image> token per frame
    on top of the prompt words."""
    if model not in TOKENS_PER_FRAME:
        raise ValueError(f"unknown model {model!r}, expected one of {sorted(TOKENS_PER_FRAME)}")
    if duration_s < 0 or fps <= 0 or prompt_words < 0:
        raise ValueError("duration must be >= 0, fps > 0, prompt_words >= 0")
    frames = int(round(duration_s * fps))
    h, d = MODEL_HEAD_LAYOUT[model]
    return WorkloadSpec(s_q=frames + prompt_words, s_kv=frames * TOKENS_PER_FRAME[model],
                        h=h, d=d, n=n, elem_bytes=elem_bytes)


@dataclass(frozen=True)
class WorkloadPreset:
    name: str
    workload: WorkloadSpec
    d_model: int
    description: str


def _build_presets() -> dict[str, WorkloadPreset]:
    presets = {}
    presets["video-mme-llama3v"] = WorkloadPreset(
        name="video-mme-llama3v",
        workload=workload_from_video("llama3v", 2386, 1, 3128, n=16),
        d_model=4096,
        description="average long-video benchmark input: 2386 s at 1 fps, 3128-word prompt",
    )
    presets["llama3v-20min"] = WorkloadPreset(
        name="llama3v-20min",
        workload=workload_from_video("llama3v", 1200, 1, 2048, n=16),
        d_model=4096,
        description="20-minute video at 1 fps with a 2048-token text sequence",
    )
    presets["owl3-3600frames"] = WorkloadPreset(
        name="owl3-3600frames",
        workload=workload_from_video("owl3", 3600, 1, 2048, n=16),
        d_model=3584,
        description="3600-frame video, 729 tokens per frame",
    )
    return presets


PRESETS = _build_presets()


def get_preset(name: str, n: int | None = None,
               elem_bytes: int | None = None) -> WorkloadPreset:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}, expected one of {sorted(PRESETS)}")
    p = PRESETS[name]
    w = p.workload
    if n is not None:
        w = replace(w, n=n)
    if elem_bytes is not None:
        w = replace(w, elem_bytes=elem_bytes)
    return WorkloadPreset(name=p.name, workload=w, d_model=p.d_model,
                          description=p.description)


def lvx_ring_forward_volume_ratio(w: WorkloadSpec) -> float:
    """Per-round communication volume of query rotation over kv rotation;
    element size cancels: (2 S_Q d + S_Q) / (2 S_KV d)."""
    lvx = volumes.round_model_elems("lvx", "forward", w.s_q, w.s_kv, w.n, w.h, w.d)
    ring = volumes.round_model_elems("ring", "forward", w.s_q, w.s_kv, w.n, w.h, w.d)
    return lvx / ring


def volume_report(w: WorkloadSpec) -> dict:
    """Accounting-only run: exact per-worker byte counts for every strategy
    that fits the worker and head counts, computed from the balanced row
    partition without materializing tensors.
    These equal the transport counters of a numeric run bit for bit."""
    q_sizes = [b - a for a, b in partition_rows(w.s_q, w.n)]
    kv_sizes = [b - a for a, b in partition_rows(w.s_kv, w.n)]
    per_worker = {kind.value: {phase: volumes.bytes_by_worker(kind.value, phase, q_sizes,
                                                              kv_sizes, w.h, w.d, w.elem_bytes)
                               for phase in volumes.PHASES}
                  for kind, protocol in PROTOCOLS.items() if protocol.fits(w.n, w.h)}
    report = {
        "workload": {"s_q": w.s_q, "s_kv": w.s_kv, "h": w.h, "d": w.d,
                     "n": w.n, "elem_bytes": w.elem_bytes},
        "per_worker_bytes": per_worker,
        "per_round_bytes": {s: {phase: round_comm_bytes(s, phase, w) for phase in volumes.PHASES}
                            for s in ("lvx", "ring")},
    }
    ratio = lvx_ring_forward_volume_ratio(w)
    report["lvx_ring_forward_volume_ratio"] = ratio
    report["lvx_ring_forward_volume_ratio_rounded"] = round(ratio, 4)
    report["lvx_ring_forward_volume_percent"] = f"{ratio:.2%}"
    return report


def grid_values(start: float, stop: float, count: int, log: bool = True) -> list[float]:
    if count < 1:
        raise ValueError(f"grid count must be >= 1, got {count}")
    if start <= 0 or stop <= 0:
        raise ValueError("grid endpoints must be positive")
    if count == 1:
        return [float(start)]
    if log:
        step = (math.log(stop) - math.log(start)) / (count - 1)
        return [math.exp(math.log(start) + i * step) for i in range(count)]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def sweep(s_q_values, s_kv_values, hw: HardwareSpec, h: int, d: int, n: int,
          elem_bytes: int) -> list[dict]:
    """One row per grid point, row-major with s_q outermost."""
    rows = []
    for s_q in s_q_values:
        for s_kv in s_kv_values:
            w = WorkloadSpec(s_q=s_q, s_kv=s_kv, h=h, d=d, n=n, elem_bytes=elem_bytes)
            rep = classify_regime(w, hw)
            rows.append({"s_q": s_q, "s_kv": s_kv,
                         "speedup_fwd": rep.speedup_forward,
                         "speedup_bwd": rep.speedup_backward,
                         "quadrant": rep.quadrant})
    return rows


SWEEP_CSV_HEADER = "s_q,s_kv,speedup_fwd,speedup_bwd,quadrant"


def format_sweep_csv(rows) -> str:
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        lines.append(f"{row['s_q']:.6g},{row['s_kv']:.6g},"
                     f"{row['speedup_fwd']:.6g},{row['speedup_bwd']:.6g},{row['quadrant']}")
    return "\n".join(lines) + "\n"
