import pytest

from lvxattn import analytics as A

HW = A.HardwareSpec(gpu_flops=312e12, net_bandwidth=25e9)
VIDEO_MME = A.WorkloadSpec(s_q=5514, s_kv=15_279_944, h=32, d=128, n=16, elem_bytes=2)

# frozen by exact rational evaluation of the documented formulas
EXPECTED_ROUND_TIMES = {
    "compute_fwd": 0.01728279204430769,
    "compute_bwd": 0.04320698011076923,
    "ring_comm_fwd": 0.62586650624,
    "ring_comm_bwd": 1.25173301248,
    "lvx_comm_fwd": 0.00022673568,
    "lvx_comm_bwd": 0.00034054464,
}


class TestRoundTimes:
    def test_video_mme_point_frozen_values(self):
        t = A.round_times(VIDEO_MME, HW)
        assert t["lvx"].compute_fwd == pytest.approx(EXPECTED_ROUND_TIMES["compute_fwd"], rel=1e-14)
        assert t["ring"].compute_fwd == pytest.approx(EXPECTED_ROUND_TIMES["compute_fwd"], rel=1e-14)
        assert t["lvx"].compute_bwd == pytest.approx(EXPECTED_ROUND_TIMES["compute_bwd"], rel=1e-14)
        assert t["ring"].compute_bwd == pytest.approx(EXPECTED_ROUND_TIMES["compute_bwd"], rel=1e-14)
        assert t["ring"].comm_fwd == pytest.approx(EXPECTED_ROUND_TIMES["ring_comm_fwd"], rel=1e-14)
        assert t["ring"].comm_bwd == pytest.approx(EXPECTED_ROUND_TIMES["ring_comm_bwd"], rel=1e-14)
        assert t["lvx"].comm_fwd == pytest.approx(EXPECTED_ROUND_TIMES["lvx_comm_fwd"], rel=1e-14)
        assert t["lvx"].comm_bwd == pytest.approx(EXPECTED_ROUND_TIMES["lvx_comm_bwd"], rel=1e-14)

    def test_round_time_is_max_of_compute_and_comm(self):
        t = A.round_times(VIDEO_MME, HW)
        assert t["lvx"].round_fwd == t["lvx"].compute_fwd
        assert t["ring"].round_fwd == t["ring"].comm_fwd

    def test_single_worker_no_comm(self):
        w = A.WorkloadSpec(s_q=100, s_kv=1000, h=2, d=8, n=1, elem_bytes=4)
        t = A.round_times(w, HW)
        for strategy in ("lvx", "ring"):
            assert t[strategy].comm_fwd == 0.0
            assert t[strategy].comm_bwd == 0.0
            assert t[strategy].round_fwd == t[strategy].compute_fwd
        assert A.speedup(w, HW) == {"forward": 1.0, "backward": 1.0}

    def test_doubling_skv_doubles_ring_comm_and_compute(self):
        w = A.WorkloadSpec(s_q=512, s_kv=100_000, h=4, d=64, n=4, elem_bytes=2)
        w2 = A.WorkloadSpec(s_q=512, s_kv=200_000, h=4, d=64, n=4, elem_bytes=2)
        t, t2 = A.round_times(w, HW), A.round_times(w2, HW)
        assert t2["ring"].comm_fwd == pytest.approx(2 * t["ring"].comm_fwd, rel=1e-14)
        for strategy in ("lvx", "ring"):
            assert t2[strategy].compute_fwd == pytest.approx(
                2 * t[strategy].compute_fwd, rel=1e-14)
        # query-rotation comm does not depend on S_KV
        assert t2["lvx"].comm_fwd == t["lvx"].comm_fwd


class TestSpeedup:
    def test_closed_form_example_at_unit_elem_bytes(self):
        # S_Q/n = 344.625, flops/bw = 312e12/25e9 -> about 18.1
        w = A.WorkloadSpec(s_q=5514, s_kv=15_279_944, h=32, d=128, n=16, elem_bytes=1)
        closed = A.speedup_closed_form(w, HW)
        assert closed["forward"] == pytest.approx(18.106637649619152, rel=1e-12)
        general = A.speedup(w, HW)
        assert general["forward"] == pytest.approx(closed["forward"], rel=1e-9)

    def test_closed_form_agrees_in_top_left_quadrant(self):
        rep = A.classify_regime(VIDEO_MME, HW)
        assert rep.quadrant == "top-left"
        closed = A.speedup_closed_form(VIDEO_MME, HW)
        general = A.speedup(VIDEO_MME, HW)
        assert abs(general["forward"] - closed["forward"]) <= 1e-12 * closed["forward"]
        assert abs(general["backward"] - closed["backward"]) <= 1e-12 * closed["backward"]

    def test_invariant_under_simultaneous_hardware_scaling(self):
        # scaling flops and bandwidth together scales every round time
        # uniformly, leaving both regimes and the ratio unchanged
        base = A.speedup(VIDEO_MME, HW)
        for scale in (10.0, 0.01):
            scaled = A.HardwareSpec(gpu_flops=HW.gpu_flops * scale,
                                    net_bandwidth=HW.net_bandwidth * scale)
            got = A.speedup(VIDEO_MME, scaled)
            assert got["forward"] == pytest.approx(base["forward"], rel=1e-12)
            assert got["backward"] == pytest.approx(base["backward"], rel=1e-12)
            assert (A.classify_regime(VIDEO_MME, scaled).quadrant
                    == A.classify_regime(VIDEO_MME, HW).quadrant)

    def test_comparable_sequences_give_speedup_near_one(self):
        # both sides communication-bound, S_Q = S_KV: ratio ~ 2d / (2d + 1)
        w = A.WorkloadSpec(s_q=4096, s_kv=4096, h=8, d=128, n=8, elem_bytes=2)
        slow = A.HardwareSpec(gpu_flops=1e18, net_bandwidth=1e6)
        rep = A.classify_regime(w, slow)
        assert rep.lvx_bound == A.COMM_BOUND and rep.ring_bound == A.COMM_BOUND
        expected = (2 * w.s_kv * w.d) / (2 * w.s_q * w.d + w.s_q)
        assert rep.speedup_forward == pytest.approx(expected, rel=1e-12)
        assert rep.speedup_forward == pytest.approx(1.0, abs=0.01)


class TestRegime:
    def test_video_mme_top_left(self):
        rep = A.classify_regime(VIDEO_MME, HW)
        assert rep.lvx_bound == A.COMPUTE_BOUND
        assert rep.ring_bound == A.COMM_BOUND
        assert rep.quadrant == "top-left"

    def test_tiny_sequences_slow_network_bottom_left(self):
        w = A.WorkloadSpec(s_q=64, s_kv=128, h=2, d=32, n=4, elem_bytes=4)
        slow = A.HardwareSpec(gpu_flops=1e15, net_bandwidth=1e5)
        rep = A.classify_regime(w, slow)
        assert rep.lvx_bound == A.COMM_BOUND and rep.ring_bound == A.COMM_BOUND
        assert rep.quadrant == "bottom-left"

    def test_enormous_equal_sequences_top_right(self):
        w = A.WorkloadSpec(s_q=10**7, s_kv=10**7, h=8, d=128, n=16, elem_bytes=2)
        rep = A.classify_regime(w, HW)
        assert rep.lvx_bound == A.COMPUTE_BOUND and rep.ring_bound == A.COMPUTE_BOUND
        assert rep.quadrant == "top-right"
        assert rep.speedup_forward == 1.0

    def test_tie_classified_compute_bound(self):
        # choose bandwidth so ring comm exactly equals compute
        w = A.WorkloadSpec(s_q=100, s_kv=100, h=1, d=10, n=2, elem_bytes=1)
        compute = 4 * 50 * 50 * 10 / 1e9
        comm_bytes = 2 * 50 * 10
        hw = A.HardwareSpec(gpu_flops=1e9, net_bandwidth=comm_bytes / compute)
        rep = A.classify_regime(w, hw)
        assert rep.ring_bound == A.COMPUTE_BOUND


class TestMemory:
    def test_owl3_anchor(self):
        m = A.memory_cross_attention(5648, 3600 * 729, 3584, 4)
        assert m["kv_bytes"] == 75_246_796_800
        assert m["kv_bytes"] / 2**30 == pytest.approx(70.08, rel=1e-3)

    def test_llama3v_20min_anchor(self):
        m = A.memory_cross_attention(3248, 1200 * 6404, 4096, 4)
        assert m["kv_bytes"] == 251_815_526_400
        assert m["kv_bytes"] >= 234e9           # over 234 GB
        assert m["kv_bytes"] / 2**30 >= 234     # and over 234 GiB

    def test_zero_frames(self):
        m = A.memory_cross_attention(100, 0, 4096, 4)
        assert m["kv_bytes"] == 0
        assert m["flash_working_set_bytes"] == (2 * 100 * 4096 + 100) * 4

    def test_kv_linear_in_skv_independent_of_sq(self):
        base = A.memory_cross_attention(10, 1000, 64, 4)
        assert A.memory_cross_attention(99999, 1000, 64, 4)["kv_bytes"] == base["kv_bytes"]
        assert A.memory_cross_attention(10, 3000, 64, 4)["kv_bytes"] == 3 * base["kv_bytes"]


class TestWorkloadFromVideo:
    def test_video_mme_numbers(self):
        w = A.workload_from_video("llama3v", 2386, 1, 3128, n=16)
        assert w.s_kv == 15_279_944
        assert w.s_q == 5514

    def test_20min_token_count(self):
        w = A.workload_from_video("llama3v", 1200, 1, 2048, n=16)
        assert w.s_kv == 7_684_800
        assert w.s_kv > 7_000_000

    def test_zero_duration(self):
        w = A.workload_from_video("owl3", 0, 1, 500, n=4)
        assert w.s_kv == 0
        assert w.s_q == 500

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            A.workload_from_video("gpt", 10, 1, 10, n=2)


class TestPresets:
    def test_video_mme_preset(self):
        w = A.get_preset("video-mme-llama3v")
        assert w.s_q == 5514
        assert w.s_kv == 15_279_944
        assert w.n == 16
        assert w.h * w.d == 4096

    def test_overrides(self):
        w = A.get_preset("owl3-3600frames", n=4, elem_bytes=4)
        assert w.n == 4
        assert w.elem_bytes == 4
        assert w.h * w.d == 3584

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            A.get_preset("nope")


class TestVolumeReport:
    def test_ratio_matches_anchor_scenario(self):
        report = A.volume_report(VIDEO_MME)
        ratio = report["lvx_ring_forward_volume_ratio"]
        assert 3.5e-4 <= ratio <= 3.7e-4
        assert report["lvx_ring_forward_volume_ratio_rounded"] == 0.0004
        assert report["lvx_ring_forward_volume_percent"] == "0.04%"

    def test_per_worker_bytes_match_strategy_counters(self):
        from lvxattn.cluster import ClusterSpec
        from lvxattn.strategies import run_distributed
        from lvxattn.tensorio import seeded_random_tensor
        w = A.WorkloadSpec(s_q=5, s_kv=7, h=2, d=3, n=3, elem_bytes=8)
        report = A.volume_report(w)
        Q = seeded_random_tensor(1, (2, 5, 3))
        K = seeded_random_tensor(2, (2, 7, 3))
        V = seeded_random_tensor(3, (2, 7, 3))
        res = run_distributed("lvx", Q, K, V, spec=ClusterSpec(3))
        for i in range(3):
            assert res.stats.bytes_sent_by(i) == report["per_worker_bytes"]["lvx"]["forward"][i]

    def test_per_round_model_matches_trace_on_even_shards(self):
        from lvxattn.cluster import ClusterSpec
        from lvxattn.strategies import run_distributed
        from lvxattn.tensorio import seeded_random_tensor
        n, h, d, b = 4, 2, 3, 8
        s_q, s_kv = 8, 12
        w = A.WorkloadSpec(s_q=s_q, s_kv=s_kv, h=h, d=d, n=n, elem_bytes=b)
        Q = seeded_random_tensor(4, (h, s_q, d))
        K = seeded_random_tensor(5, (h, s_kv, d))
        V = seeded_random_tensor(6, (h, s_kv, d))
        res = run_distributed("lvx", Q, K, V, spec=ClusterSpec(n))
        per_round = A.round_comm_bytes("lvx", "forward", w)
        for trace in res.traces_forward:
            for record in trace.rounds[:-1]:
                assert record.sent_bytes == per_round
            # round n-1 sends (O, L) home and no Q
            assert trace.rounds[-1].sent_bytes == per_round - (s_q // n) * h * d * b
        res = run_distributed("ring", Q, K, V, spec=ClusterSpec(n))
        per_round = A.round_comm_bytes("ring", "forward", w)
        for trace in res.traces_forward:
            for record in trace.rounds[:-1]:
                assert record.sent_bytes == per_round
            assert trace.rounds[-1].sent_bytes == 0


class TestSweep:
    def test_single_point_grid_reduces_to_speedup(self):
        rows = A.sweep([5514], [15_279_944], HW, h=32, d=128, n=16, elem_bytes=2)
        assert len(rows) == 1
        s = A.speedup(VIDEO_MME, HW)
        assert rows[0]["speedup_fwd"] == s["forward"]
        assert rows[0]["quadrant"] == "top-left"

    def test_row_count_and_order(self):
        sq = A.grid_values(1e3, 1e5, 3)
        skv = A.grid_values(1e5, 1e7, 4)
        rows = A.sweep(sq, skv, HW, h=8, d=64, n=8, elem_bytes=2)
        assert len(rows) == 12
        assert [r["s_q"] for r in rows[:4]] == [sq[0]] * 4
        assert [r["s_kv"] for r in rows[:4]] == skv

    def test_csv_format(self):
        rows = A.sweep([1000.0], [123456.789], HW, h=8, d=64, n=8, elem_bytes=2)
        text = A.format_sweep_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "s_q,s_kv,speedup_fwd,speedup_bwd,quadrant"
        fields = lines[1].split(",")
        assert fields[0] == "1000"
        assert fields[1] == "123457"      # six significant digits
        assert text.endswith("\n")

    def test_monotone_decreasing_in_sq_within_quadrant(self):
        sq = A.grid_values(1e3, 1e6, 20)
        skv = A.grid_values(1e5, 1e8, 20)
        rows = A.sweep(sq, skv, HW, h=32, d=128, n=16, elem_bytes=2)
        by_kv = {}
        for r in rows:
            by_kv.setdefault(r["s_kv"], []).append(r)
        for col in by_kv.values():
            col.sort(key=lambda r: r["s_q"])
            for a, b in zip(col, col[1:]):
                if a["quadrant"] == b["quadrant"] == "top-left":
                    assert b["speedup_fwd"] < a["speedup_fwd"]

    def test_quadrants_form_axis_aligned_regions(self):
        # lvx boundary is a horizontal line in (S_Q, S_KV) space, ring boundary
        # a vertical one: each classification flips at most once along its axis
        sq = A.grid_values(1e3, 1e6, 12)
        skv = A.grid_values(1e5, 1e8, 12)
        reports = [[A.classify_regime(
            A.WorkloadSpec(s_q=q, s_kv=kv, h=32, d=128, n=16, elem_bytes=2), HW)
            for kv in skv] for q in sq]

        def flips(seq):
            return sum(1 for x, y in zip(seq, seq[1:]) if x != y)

        for qi in range(len(sq)):
            assert flips([reports[qi][ki].lvx_bound for ki in range(len(skv))]) <= 1
        for ki in range(len(skv)):
            assert flips([reports[qi][ki].ring_bound for qi in range(len(sq))]) <= 1


def test_workload_validation():
    with pytest.raises(ValueError, match="worker count"):
        A.WorkloadSpec(s_q=1, s_kv=1, h=1, d=1, n=0, elem_bytes=1)
    with pytest.raises(ValueError, match="must be positive"):
        A.WorkloadSpec(s_q=1, s_kv=1, h=0, d=1, n=1, elem_bytes=1)
    with pytest.raises(ValueError, match=">= 0"):
        A.WorkloadSpec(s_q=-1, s_kv=1, h=1, d=1, n=1, elem_bytes=1)
    with pytest.raises(ValueError, match="positive"):
        A.HardwareSpec(gpu_flops=0, net_bandwidth=1)
