"""Named verification suites: exactness, gradients, volumes, mllm.

Each suite returns a list of checks with the measured error and its
tolerance; the CLI and the acceptance tests share these functions so there is
one source of truth for what "passing" means. Errors on tensor comparisons
are max-normalized: max |actual - expected| / max |expected| (rows where both
logsumexp values are -inf compare equal).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import volumes
from .analytics import WorkloadSpec, volume_report
from .cluster import ClusterSpec
from .kernels import (GradientBundle, default_scale, dense_attention,
                      dense_attention_backward, project, project_backward)
from .mllm import (ActivationPolicy, ModelParams, OpCounter, ToyMllmConfig,
                   TOY_CONFIG, max_frames_under_budget, mllm_backward,
                   mllm_forward, projection_flops)
from .strategies import PROTOCOLS, StrategyKind, run_distributed
from .tensorio import seeded_random_tensor

EXACTNESS_SHAPES = [(5, 7), (8, 8), (3, 16), (16, 3)]
EXACTNESS_WORKERS = [1, 2, 3, 4, 6]
EXACTNESS_HEADS = [1, 2, 4]
EXACTNESS_HEAD_DIM = 5
TOL_EXACT_F64 = 1e-12
TOL_EXACT_F32 = 1e-4
TOL_GRAD_F64 = 1e-12
TOL_FINITE_DIFF = 1e-5
TOL_POLICY = 1e-13
FD_STEP = 1e-6


@dataclass(frozen=True)
class Check:
    name: str
    error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.error <= self.tolerance

    def as_dict(self) -> dict:
        return {"name": self.name, "error": self.error,
                "tolerance": self.tolerance, "passed": self.passed}


def max_norm_error(actual: np.ndarray, expected: np.ndarray) -> float:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if actual.shape != expected.shape:
        return np.inf
    both_empty = np.isneginf(actual) & np.isneginf(expected)
    actual = np.where(both_empty, 0.0, actual)
    expected = np.where(both_empty, 0.0, expected)
    if not (np.all(np.isfinite(actual)) and np.all(np.isfinite(expected))):
        return np.inf
    denom = float(np.max(np.abs(expected))) if expected.size else 0.0
    diff = float(np.max(np.abs(actual - expected))) if expected.size else 0.0
    if denom == 0.0:
        return diff
    return diff / denom


def strategies_for(n: int, h: int) -> list[StrategyKind]:
    return [kind for kind, protocol in PROTOCOLS.items() if protocol.fits(n, h)]


def iter_exactness_configs():
    for s_q, s_kv in EXACTNESS_SHAPES:
        for n in EXACTNESS_WORKERS:
            for h in EXACTNESS_HEADS:
                for strategy in strategies_for(n, h):
                    yield strategy, n, h, s_q, s_kv


def make_inputs(s_q: int, s_kv: int, h: int, d: int, seed: int):
    """Deterministic f64 problem instance (Q, K, V, dO)."""
    return (seeded_random_tensor(seed, (h, s_q, d)),
            seeded_random_tensor(seed, (h, s_kv, d), stream=1),
            seeded_random_tensor(seed, (h, s_kv, d), stream=2),
            seeded_random_tensor(seed, (h, s_q, d), stream=3))


def exactness_suite() -> list[Check]:
    """Gathered O and L of every strategy/worker/head/shape combination match
    the f64 dense oracle, in f64 and in f32 (f32 runs on f32-rounded inputs,
    the oracle on the same values in f64)."""
    checks = []
    d = EXACTNESS_HEAD_DIM
    for idx, (strategy, n, h, s_q, s_kv) in enumerate(iter_exactness_configs()):
        Q, K, V, _ = make_inputs(s_q, s_kv, h, d, seed=1000 + idx)
        for dtype, tol in ((np.float64, TOL_EXACT_F64), (np.float32, TOL_EXACT_F32)):
            Qc, Kc, Vc = (t.astype(dtype) for t in (Q, K, V))
            oracle = dense_attention(Qc.astype(np.float64), Kc.astype(np.float64),
                                     Vc.astype(np.float64))
            res = run_distributed(strategy, Qc, Kc, Vc, spec=ClusterSpec(n))
            err = max(max_norm_error(res.O, oracle.O), max_norm_error(res.L, oracle.L))
            name = (f"exactness/{strategy.value}/n{n}/h{h}/sq{s_q}-skv{s_kv}/"
                    f"{np.dtype(dtype).name}")
            checks.append(Check(name=name, error=err, tolerance=tol))
    return checks


def untiled_backward_reference(Q, K, V, L, D, dO, scale):
    """Textbook attention backward in float64, sharing no code with the tiled
    kernel: the full score-shaped S, P, dP and dS are materialized.
    P = exp(scale Q K^T - L), dV = P^T dO, dS = P * (dO V^T - D),
    dQ = scale dS K, dK = scale dS^T Q. Returns (dQ, dK, dV)."""
    Qf, Kf, Vf, dOf = (t.astype(np.float64) for t in (Q, K, V, dO))
    S = scale * (Qf @ Kf.transpose(0, 2, 1))
    P = np.exp(S - L.astype(np.float64)[..., None])
    dV = P.transpose(0, 2, 1) @ dOf
    dP = dOf @ Vf.transpose(0, 2, 1)
    dS = P * (dP - D.astype(np.float64)[..., None])
    return scale * (dS @ Kf), scale * (dS.transpose(0, 2, 1) @ Qf), dV


def gradient_oracle(Q, K, V, dO, scale: float | None = None) -> GradientBundle:
    """The gradients of <dO, attention(Q, K, V)> from the dense forward and
    the untiled reference, all in float64: the independent reference the
    distributed gradients are held to."""
    Qf, Kf, Vf, dOf = (t.astype(np.float64) for t in (Q, K, V, dO))
    if scale is None:
        scale = default_scale(Q.shape[2])
    st = dense_attention(Qf, Kf, Vf, scale)
    dQ, dK, dV = untiled_backward_reference(Qf, Kf, Vf, st.L, np.sum(dOf * st.O, axis=2),
                                            dOf, scale)
    return GradientBundle(dQ=dQ, dK=dK, dV=dV)


def _finite_difference(loss, array: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    fd = np.zeros_like(array, dtype=np.float64)
    for idx in np.ndindex(array.shape):
        orig = array[idx]
        array[idx] = orig + step
        up = loss()
        array[idx] = orig - step
        down = loss()
        array[idx] = orig
        fd[idx] = (up - down) / (2.0 * step)
    return fd


def _fd_checks(group: str, loss, targets) -> list[Check]:
    """One check per (name, primal, analytic gradient): the gradient against
    central finite differences of loss() in that primal."""
    return [Check(name=f"gradients/{group}/{name}",
                  error=max_norm_error(grad, _finite_difference(loss, prim)),
                  tolerance=TOL_FINITE_DIFF)
            for name, prim, grad in targets]


def _dense_fd_checks() -> list[Check]:
    h, s_q, s_kv, d = 1, 3, 5, 2
    Q, K, V, dO = make_inputs(s_q, s_kv, h, d, seed=77)
    state = dense_attention(Q, K, V)
    gb = dense_attention_backward(Q, K, V, state.O, state.L, dO)

    def loss():
        st = dense_attention(Q, K, V)
        return float(np.sum(dO * st.O))

    return _fd_checks("dense-fd", loss, (("dQ", Q, gb.dQ), ("dK", K, gb.dK), ("dV", V, gb.dV)))


def _project_fd_checks() -> list[Check]:
    s, e, h, d = 3, 4, 2, 2
    x = seeded_random_tensor(31, (s, e))
    W = seeded_random_tensor(32, (e, h * d))
    g = seeded_random_tensor(33, (h, s, d))
    dX, dW = project_backward(x, W, g)

    def loss():
        return float(np.sum(g * project(x, W, h)))

    return _fd_checks("project-fd", loss, (("dInput", x, dX), ("dW", W, dW)))


MLLM_FD_CONFIG = ToyMllmConfig(num_lm_blocks=2, ca_positions=(1,), d_embed=4,
                               h=1, d=2, frames=2, tokens_per_frame=2, s_q=3,
                               dtype="f64")


def _mllm_fd_checks() -> list[Check]:
    cfg = MLLM_FD_CONFIG
    params = ModelParams.init_random(cfg, seed=5)
    x0 = seeded_random_tensor(41, (cfg.s_q, cfg.d_embed))
    y = seeded_random_tensor(42, (cfg.s_kv, cfg.d_embed))
    g_out = seeded_random_tensor(43, (cfg.s_q, cfg.d_embed))
    _, saved, _ = mllm_forward(x0, y, params, cfg, ActivationPolicy.RECOMPUTE_KV)
    grads = mllm_backward(g_out, saved, y, params, cfg, ActivationPolicy.RECOMPUTE_KV)

    def loss():
        out, _, _ = mllm_forward(x0, y, params, cfg, ActivationPolicy.RECOMPUTE_KV)
        return float(np.sum(g_out * out))

    targets = [("x0", x0, grads.d_x0), ("y", y, grads.d_y)]
    for pos, p in params.ca.items():
        gp = grads.ca[pos]
        targets += [(f"ca{pos}.w_q", p.w_q, gp.w_q), (f"ca{pos}.w_k", p.w_k, gp.w_k),
                    (f"ca{pos}.w_v", p.w_v, gp.w_v), (f"ca{pos}.w_o", p.w_o, gp.w_o)]
    for blk, p in enumerate(params.lm):
        gp = grads.lm[blk]
        targets += [(f"lm{blk}.w1", p.w1, gp.w1), (f"lm{blk}.w2", p.w2, gp.w2)]
    return _fd_checks("mllm-fd", loss, targets)


def gradients_suite() -> list[Check]:
    """Distributed backward matches the untiled f64 gradient oracle; dense
    backward, projection backward, and every toy-model parameter gradient
    match central finite differences."""
    checks = []
    d = EXACTNESS_HEAD_DIM
    for idx, (strategy, n, h, s_q, s_kv) in enumerate(iter_exactness_configs()):
        Q, K, V, dO = make_inputs(s_q, s_kv, h, d, seed=2000 + idx)
        oracle = gradient_oracle(Q, K, V, dO)
        res = run_distributed(strategy, Q, K, V, dO=dO, spec=ClusterSpec(n))
        err = max(max_norm_error(res.grads.dQ, oracle.dQ),
                  max_norm_error(res.grads.dK, oracle.dK),
                  max_norm_error(res.grads.dV, oracle.dV))
        checks.append(Check(name=f"gradients/{strategy.value}/n{n}/h{h}/sq{s_q}-skv{s_kv}",
                            error=err, tolerance=TOL_GRAD_F64))
    checks += _dense_fd_checks()
    checks += _project_fd_checks()
    checks += _mllm_fd_checks()
    return checks


def expected_bytes_by_worker(strategy: StrategyKind, phase: str, q_sizes, kv_sizes,
                             h: int, d: int, elem_bytes: int) -> list[int]:
    strategy = StrategyKind(strategy)
    PROTOCOLS[strategy].check(len(q_sizes), h)
    return volumes.bytes_by_worker(strategy.value, phase, q_sizes, kv_sizes, h, d, elem_bytes)


def volumes_suite() -> list[Check]:
    """Transport byte counters equal the documented closed forms exactly (per
    phase via the round traces, per worker via the link stats), every round
    record equals its hop-table entry class by class, every epilogue sends
    nothing, and the `cost` report's per-worker predictions equal the
    measured counters."""
    checks = []
    d = EXACTNESS_HEAD_DIM
    for idx, (strategy, n, h, s_q, s_kv) in enumerate(iter_exactness_configs()):
        Q, K, V, dO = make_inputs(s_q, s_kv, h, d, seed=3000 + idx)
        for dtype in (np.float64, np.float32):
            b = np.dtype(dtype).itemsize
            res = run_distributed(strategy, Q.astype(dtype), K.astype(dtype),
                                  V.astype(dtype), dO=dO.astype(dtype),
                                  spec=ClusterSpec(n))
            q_sizes, kv_sizes = res.shards.q_sizes, res.shards.kv_sizes
            fwd = expected_bytes_by_worker(strategy, "forward", q_sizes, kv_sizes, h, d, b)
            bwd = expected_bytes_by_worker(strategy, "backward", q_sizes, kv_sizes, h, d, b)
            mismatch = 0
            for i in range(n):
                if res.traces_forward[i].total_sent_bytes() != fwd[i]:
                    mismatch += 1
                if res.traces_backward[i].total_sent_bytes() != bwd[i]:
                    mismatch += 1
                if res.stats.bytes_sent_by(i) != fwd[i] + bwd[i]:
                    mismatch += 1
            name = (f"volumes/{strategy.value}/n{n}/h{h}/sq{s_q}-skv{s_kv}/"
                    f"{np.dtype(dtype).name}")
            checks.append(Check(name=name, error=float(mismatch), tolerance=0.0))
            round_mismatch = 0
            for phase, traces in (("forward", res.traces_forward),
                                  ("backward", res.traces_backward)):
                for i, trace in enumerate(traces):
                    round_mismatch += trace.epilogue_bytes_by_class != {}
                    for record in trace.rounds:
                        round_mismatch += record.sent_bytes_by_class != volumes.sent_by_class(
                            strategy.value, phase, i, record.index, q_sizes, kv_sizes, h, d, b)
            checks.append(Check(name=name + "/rounds", error=float(round_mismatch),
                                tolerance=0.0))
            w = WorkloadSpec(s_q=s_q, s_kv=s_kv, h=h, d=d, n=n, elem_bytes=b)
            pred = volume_report(w)["per_worker_bytes"][strategy.value]
            model_mismatch = 0 if (pred["forward"] == fwd and pred["backward"] == bwd) else 1
            checks.append(Check(name=name + "/model", error=float(model_mismatch),
                                tolerance=0.0))
    return checks


def mllm_suite() -> list[Check]:
    """Store vs recompute produce the same gradients; the ledger difference is
    exactly C * 2 * S_KV * h * d * b; extra backward work of the recompute
    policy is exactly two y projections per layer; the toy preset fits at
    least 1.5x more frames under recompute."""
    cfg = replace(TOY_CONFIG, dtype="f64", frames=4)
    params = ModelParams.init_random(cfg, seed=9)
    x0 = seeded_random_tensor(51, (cfg.s_q, cfg.d_embed))
    y = seeded_random_tensor(52, (cfg.s_kv, cfg.d_embed))
    g_out = seeded_random_tensor(53, (cfg.s_q, cfg.d_embed))

    results = {}
    for policy in ActivationPolicy:
        out, saved, ledger = mllm_forward(x0, y, params, cfg, policy)
        counter = OpCounter()
        grads = mllm_backward(g_out, saved, y, params, cfg, policy, counter=counter)
        results[policy] = (out, grads, ledger, counter)

    out_s, g_s, led_s, c_s = results[ActivationPolicy.STORE_KV]
    out_r, g_r, led_r, c_r = results[ActivationPolicy.RECOMPUTE_KV]
    grad_err = max(max_norm_error(out_r, out_s),
                   max_norm_error(g_r.d_x0, g_s.d_x0),
                   max_norm_error(g_r.d_y, g_s.d_y),
                   max(max_norm_error(getattr(g_r.ca[p], w), getattr(g_s.ca[p], w))
                       for p in g_s.ca for w in ("w_q", "w_k", "w_v", "w_o")),
                   max(max_norm_error(getattr(g_r.lm[i], w), getattr(g_s.lm[i], w))
                       for i in range(cfg.num_lm_blocks) for w in ("w1", "w2")))
    checks = [Check(name="mllm/policy-equivalence", error=grad_err, tolerance=TOL_POLICY)]

    expected_gap = cfg.num_ca_layers * 2 * cfg.s_kv * cfg.h * cfg.d * cfg.elem_bytes
    gap = led_s.peak_total - led_r.peak_total
    checks.append(Check(name="mllm/ledger-identity", error=float(abs(gap - expected_gap)),
                        tolerance=0.0))

    expected_ops = cfg.num_ca_layers * 2 * projection_flops(cfg.s_kv, cfg.d_embed,
                                                            cfg.h * cfg.d)
    op_gap = c_r.projection_flops - c_s.projection_flops
    checks.append(Check(name="mllm/recompute-op-counter",
                        error=float(abs(op_gap - expected_ops)), tolerance=0.0))

    budget = 512 * 2**20
    frames_store = max_frames_under_budget(TOY_CONFIG, ActivationPolicy.STORE_KV, budget)
    frames_rec = max_frames_under_budget(TOY_CONFIG, ActivationPolicy.RECOMPUTE_KV, budget)
    ratio = frames_rec / frames_store if frames_store else np.inf
    # error formulation: how far below the 1.5x floor the ratio fell
    checks.append(Check(name="mllm/max-frames-ratio", error=max(0.0, 1.5 - ratio),
                        tolerance=0.0))
    return checks


SUITES = {
    "exactness": exactness_suite,
    "gradients": gradients_suite,
    "volumes": volumes_suite,
    "mllm": mllm_suite,
}


def run_suite(name: str) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}, expected one of {sorted(SUITES)}")
    checks = SUITES[name]()
    return {
        "suite": name,
        "passed": all(c.passed for c in checks),
        "num_checks": len(checks),
        "checks": [c.as_dict() for c in checks],
    }
