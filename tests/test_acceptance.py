"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import hashlib
import json
import statistics
import time

import numpy as np

from lvxattn import analytics
from lvxattn.cli import main as cli_main
from lvxattn.cluster import ClusterSpec, Instant, Throttled
from lvxattn.kernels import blockwise_attention
from lvxattn.strategies import run_distributed
from lvxattn.tensorio import seeded_random_tensor
from lvxattn.verify import (EXACTNESS_HEAD_DIM, iter_exactness_configs,
                            make_inputs, run_suite)

HW = analytics.HardwareSpec(gpu_flops=312e12, net_bandwidth=25e9)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")


def run_named_suite(num: int, name: str, budget_seconds: float) -> None:
    start = time.perf_counter()
    result = run_suite(name)
    elapsed = time.perf_counter() - start
    failed = [c for c in result["checks"] if not c["passed"]]
    ok = result["passed"] and elapsed < budget_seconds
    report(num, f"{name} suite", ok,
           f"{result['num_checks']} checks, {elapsed:.1f}s")
    for check in failed[:10]:
        print("  failed:", check)
    assert result["passed"], f"{len(failed)} checks failed"
    assert elapsed < budget_seconds


def test_criterion_1_exactness():
    run_named_suite(1, "exactness", budget_seconds=60.0)


def test_criterion_2_gradients():
    run_named_suite(2, "gradients", budget_seconds=120.0)


def test_criterion_3_volumes():
    run_named_suite(3, "volumes", budget_seconds=120.0)


def test_criterion_4_volume_ratio(tmp_path):
    stats_path = tmp_path / "stats.json"
    rc = cli_main(["run", "--mode", "accounting-only", "--preset",
                   "video-mme-llama3v", "--n", "16", "--stats", str(stats_path)])
    data = json.loads(stats_path.read_text())
    ratio = data["lvx_ring_forward_volume_ratio"]
    ok = (rc == 0 and 3.5e-4 <= ratio <= 3.7e-4
          and data["lvx_ring_forward_volume_percent"] == "0.04%")
    report(4, "volume ratio anchor", ok, f"ratio={ratio:.4e}")
    assert rc == 0
    assert 3.5e-4 <= ratio <= 3.7e-4
    assert data["lvx_ring_forward_volume_percent"] == "0.04%"


def test_criterion_5_memory_anchors():
    owl = analytics.get_preset("owl3-3600frames")
    owl_mem = analytics.memory_cross_attention(owl.workload.s_q, owl.workload.s_kv,
                                               owl.d_model, elem_bytes=4)
    owl_gib = owl_mem["kv_bytes"] / 2**30
    llama = analytics.get_preset("llama3v-20min")
    llama_mem = analytics.memory_cross_attention(llama.workload.s_q,
                                                 llama.workload.s_kv,
                                                 llama.d_model, elem_bytes=4)
    ok = abs(owl_gib - 70.08) / 70.08 <= 1e-3 and llama_mem["kv_bytes"] >= 234e9
    report(5, "memory anchors", ok,
           f"owl3 {owl_gib:.2f} GiB, llama3v {llama_mem['kv_bytes'] / 1e9:.1f} GB")
    assert abs(owl_gib - 70.08) / 70.08 <= 1e-3
    assert llama_mem["kv_bytes"] >= 234e9


def test_criterion_6_regime_and_sweep():
    start = time.perf_counter()
    w = analytics.get_preset("video-mme-llama3v").workload
    regime = analytics.classify_regime(w, HW)
    quadrant_ok = (regime.lvx_bound == analytics.COMPUTE_BOUND
                   and regime.ring_bound == analytics.COMM_BOUND
                   and regime.quadrant == "top-left")

    closed = analytics.speedup_closed_form(w, HW)
    general = analytics.speedup(w, HW)
    agreement_ok = (abs(general["forward"] - closed["forward"])
                    <= 1e-12 * closed["forward"]
                    and abs(general["backward"] - closed["backward"])
                    <= 1e-12 * closed["backward"])

    sq = analytics.grid_values(1e3, 1e6, 20)
    skv = analytics.grid_values(1e5, 1e8, 20)
    rows = analytics.sweep(sq, skv, HW, h=w.h, d=w.d, n=w.n, elem_bytes=w.elem_bytes)
    monotone_ok = True
    by_kv: dict = {}
    for r in rows:
        by_kv.setdefault(r["s_kv"], []).append(r)
    for col in by_kv.values():
        col.sort(key=lambda r: r["s_q"])
        for a, b in zip(col, col[1:]):
            if a["quadrant"] == b["quadrant"] == "top-left":
                if not b["speedup_fwd"] < a["speedup_fwd"]:
                    monotone_ok = False
    elapsed = time.perf_counter() - start
    ok = quadrant_ok and agreement_ok and monotone_ok and elapsed < 5.0
    report(6, "regime and sweep", ok,
           f"quadrant={regime.quadrant}, {len(rows)} grid points, {elapsed:.2f}s")
    assert quadrant_ok and agreement_ok and monotone_ok
    assert elapsed < 5.0


def test_criterion_7_overlap():
    start = time.perf_counter()
    n, h, d, tile = 2, 2, 64, 256
    s_q, s_kv = 1024 * n, 2048 * n          # S_KV/n = 2048, h*d = 128
    Q = seeded_random_tensor(71, (h, s_q, d))
    K = seeded_random_tensor(72, (h, s_kv, d))
    V = seeded_random_tensor(73, (h, s_kv, d))

    # measure the per-round kernel and derive a bandwidth giving comm = 0.4x
    qb, kb, vb = Q[:, :s_q // n], K[:, :s_kv // n], V[:, :s_kv // n]
    blockwise_attention(qb, kb, vb, None, tile)   # warm up
    kernel = statistics.median(
        _timed(lambda: blockwise_attention(qb, kb, vb, None, tile))
        for _ in range(5))
    from lvxattn.volumes import round_model_elems
    round_bytes = round_model_elems("lvx", "forward", s_q, s_kv, n, h, d) * 8
    latency = 1e-3
    bandwidth = round_bytes / (0.4 * kernel - latency)

    def wall(transport):
        t0 = time.perf_counter()
        res = run_distributed("lvx", Q, K, V, spec=ClusterSpec(n, transport))
        return time.perf_counter() - t0, res

    throttle = Throttled(bandwidth=bandwidth, latency=latency)
    for _ in range(2):                      # warmup, both arms
        wall(Instant())
        wall(throttle)
    instant_walls, throttled = [], []
    for _ in range(5):                      # interleaved so load hits both arms
        instant_walls.append(wall(Instant())[0])
        throttled.append(wall(throttle))
    throttled_walls = [t for t, _ in throttled]
    ratio = statistics.mean(throttled_walls) / statistics.mean(instant_walls)

    # modeled overlap: per-round max(compute, comm) collapses to compute only
    modeled_ok = True
    for _, res in throttled:
        for trace in res.traces_forward:
            for record in trace.rounds:
                if record.comm_seconds > record.compute_seconds:
                    modeled_ok = False
    elapsed = time.perf_counter() - start
    ok = ratio <= 1.15 and modeled_ok and elapsed < 60.0
    report(7, "communication overlap", ok,
           f"wall ratio {ratio:.3f}, kernel {kernel * 1e3:.0f} ms, {elapsed:.1f}s")
    assert modeled_ok
    assert ratio <= 1.15
    assert elapsed < 60.0


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_8_recomputation():
    start = time.perf_counter()
    result = run_suite("mllm")
    elapsed = time.perf_counter() - start
    ok = result["passed"] and elapsed < 30.0
    report(8, "activation recomputation", ok,
           f"{result['num_checks']} checks, {elapsed:.1f}s")
    assert result["passed"]
    assert elapsed < 30.0


def _criteria_outputs_digest() -> str:
    """Every numeric output of the criterion 1 and 2 workloads, hashed."""
    digest = hashlib.sha256()
    d = EXACTNESS_HEAD_DIM
    for idx, (strategy, n, h, s_q, s_kv) in enumerate(iter_exactness_configs()):
        Q, K, V, dO = make_inputs(s_q, s_kv, h, d, seed=1000 + idx)
        for dtype in (np.float64, np.float32):
            res = run_distributed(strategy, Q.astype(dtype), K.astype(dtype),
                                  V.astype(dtype), spec=ClusterSpec(n))
            digest.update(res.O.tobytes())
            digest.update(res.L.tobytes())
        res = run_distributed(strategy, Q, K, V, dO=dO, spec=ClusterSpec(n))
        digest.update(res.grads.dQ.tobytes())
        digest.update(res.grads.dK.tobytes())
        digest.update(res.grads.dV.tobytes())
    return digest.hexdigest()


def test_criterion_9_determinism():
    digests = [_criteria_outputs_digest() for _ in range(3)]
    ok = digests[0] == digests[1] == digests[2]
    report(9, "determinism", ok, f"digest {digests[0][:16]}")
    assert digests[0] == digests[1] == digests[2]
