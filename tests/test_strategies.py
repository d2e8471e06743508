import itertools
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lvxattn import cluster, strategies, volumes
from lvxattn.cluster import (ClusterError, ClusterSpec, CollectiveTimeout, Throttled,
                             WorkerFailed, spawn_cluster)
from lvxattn.kernels import dense_attention
from lvxattn.strategies import (ShardSpec, lvx_forward, partition_rows,
                                run_distributed)
from lvxattn.tensorio import seeded_random_tensor
from lvxattn.verify import gradient_oracle, max_norm_error


def rand_problem(h, s_q, s_kv, d, seed):
    return (seeded_random_tensor(seed, (h, s_q, d)),
            seeded_random_tensor(seed, (h, s_kv, d), stream=1),
            seeded_random_tensor(seed, (h, s_kv, d), stream=2),
            seeded_random_tensor(seed, (h, s_q, d), stream=3))


class TestPartition:
    def test_examples(self):
        assert [b - a for a, b in partition_rows(10, 4)] == [3, 3, 2, 2]
        assert [b - a for a, b in partition_rows(8, 4)] == [2, 2, 2, 2]
        assert [b - a for a, b in partition_rows(2, 4)] == [1, 1, 0, 0]

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="worker count"):
            partition_rows(10, 0)

    def test_cover_and_balance(self):
        for total in range(0, 23):
            for n in range(1, 8):
                ranges = partition_rows(total, n)
                assert ranges[0][0] == 0 and ranges[-1][1] == total
                sizes = [b - a for a, b in ranges]
                assert max(sizes) - min(sizes) <= 1


class TestShardSpec:
    def test_balanced(self):
        s = ShardSpec.balanced(5, 7, 3)
        assert s.q_sizes == [2, 2, 1]
        assert s.kv_sizes == [3, 2, 2]

    def test_rejects_gap(self):
        with pytest.raises(ValueError, match="contiguous"):
            ShardSpec(q_ranges=((0, 2), (3, 5)), kv_ranges=((0, 2), (2, 4)))

    def test_rejects_imbalance(self):
        with pytest.raises(ValueError, match="differ"):
            ShardSpec(q_ranges=((0, 3), (3, 4)), kv_ranges=((0, 2), (2, 4)))


class TestExactness:
    def test_single_worker_matches_dense(self):
        Q, K, V, _ = rand_problem(2, 5, 7, 4, seed=1)
        oracle = dense_attention(Q, K, V)
        for strategy in ("lvx", "ring", "head", "single"):
            res = run_distributed(strategy, Q, K, V, spec=ClusterSpec(1))
            assert max_norm_error(res.O, oracle.O) <= 1e-12
            assert max_norm_error(res.L, oracle.L) <= 1e-12

    def test_uneven_shards_match_oracle(self):
        Q, K, V, _ = rand_problem(1, 5, 7, 3, seed=11)
        oracle = dense_attention(Q, K, V)
        res = run_distributed("lvx", Q, K, V, spec=ClusterSpec(3))
        assert max_norm_error(res.O, oracle.O) <= 1e-12
        assert max_norm_error(res.L, oracle.L) <= 1e-12

    def test_cross_strategy_agreement(self):
        Q, K, V, _ = rand_problem(4, 6, 10, 3, seed=2)
        out = {}
        for strategy, n in (("lvx", 2), ("ring", 2), ("head", 2)):
            res = run_distributed(strategy, Q, K, V, spec=ClusterSpec(n))
            out[strategy] = res
        for a in out.values():
            for b in out.values():
                assert max_norm_error(a.O, b.O) <= 1e-12

    def test_empty_query_shards(self):
        Q, K, V, dO = rand_problem(1, 2, 9, 3, seed=3)
        oracle = dense_attention(Q, K, V)
        for strategy in ("lvx", "ring"):
            res = run_distributed(strategy, Q, K, V, dO=dO, spec=ClusterSpec(4))
            assert max_norm_error(res.O, oracle.O) <= 1e-12

    def test_empty_kv_shards(self):
        Q, K, V, dO = rand_problem(1, 9, 2, 3, seed=4)
        oracle = dense_attention(Q, K, V)
        ob = gradient_oracle(Q, K, V, dO)
        for strategy in ("lvx", "ring"):
            res = run_distributed(strategy, Q, K, V, dO=dO, spec=ClusterSpec(4))
            assert max_norm_error(res.O, oracle.O) <= 1e-12
            assert max_norm_error(res.grads.dK, ob.dK) <= 1e-12

    def test_backward_matches_dense(self):
        Q, K, V, dO = rand_problem(4, 8, 8, 4, seed=5)
        ob = gradient_oracle(Q, K, V, dO)
        for strategy in ("lvx", "ring", "head"):
            res = run_distributed(strategy, Q, K, V, dO=dO, spec=ClusterSpec(4))
            assert max_norm_error(res.grads.dQ, ob.dQ) <= 1e-12
            assert max_norm_error(res.grads.dK, ob.dK) <= 1e-12
            assert max_norm_error(res.grads.dV, ob.dV) <= 1e-12

    def test_worker_holds_own_rows_after_epilogue(self):
        # rotation closure: run the collective directly and check each
        # worker's returned state against the oracle slice for its own range
        Q, K, V, _ = rand_problem(2, 7, 9, 3, seed=6)
        oracle = dense_attention(Q, K, V)
        shards = ShardSpec.balanced(7, 9, 3)

        def body(ctx):
            i = ctx.rank
            qa, qb = shards.q_ranges[i]
            ka, kb = shards.kv_ranges[i]
            return lvx_forward(ctx, shards, Q[:, qa:qb], K[:, ka:kb], V[:, ka:kb],
                               scale=1.0 / np.sqrt(3))

        res = spawn_cluster(ClusterSpec(3), body)
        for i, state in enumerate(res.results):
            qa, qb = shards.q_ranges[i]
            assert state.O.shape[1] == qb - qa
            assert max_norm_error(state.O, oracle.O[:, qa:qb]) <= 1e-12


class TestVolumes:
    def test_lvx_even_shards_match_spec_formula(self):
        n, h, d, b = 4, 2, 5, 8
        s_q, s_kv = 8, 12
        q = s_q // n
        expected = n * ((2 * q * h * d) * b + (q * h) * b) + (q * h * d + q * h) * b
        Q, K, V, _ = rand_problem(h, s_q, s_kv, d, seed=7)
        res = run_distributed("lvx", Q, K, V, spec=ClusterSpec(n))
        for i in range(n):
            assert res.stats.bytes_sent_by(i) == expected
        assert volumes.bytes_by_worker("lvx", "forward", [q] * n, [s_kv // n] * n,
                                       h, d, b) == [expected] * n

    def test_ring_even_shards_match_spec_formula(self):
        n, h, d, b = 3, 2, 5, 8
        s_q, s_kv = 6, 9
        kv = s_kv // n
        expected = (n - 1) * 2 * kv * h * d * b
        Q, K, V, _ = rand_problem(h, s_q, s_kv, d, seed=8)
        res = run_distributed("ring", Q, K, V, spec=ClusterSpec(n))
        for i in range(n):
            assert res.stats.bytes_sent_by(i) == expected

    def test_uneven_shards_counters_match_closed_form(self):
        n, h, d, b = 3, 2, 4, 8
        Q, K, V, dO = rand_problem(h, 5, 7, d, seed=9)
        res = run_distributed("lvx", Q, K, V, dO=dO, spec=ClusterSpec(n))
        q_sizes, kv_sizes = res.shards.q_sizes, res.shards.kv_sizes
        fwd = volumes.bytes_by_worker("lvx", "forward", q_sizes, kv_sizes, h, d, b)
        bwd = volumes.bytes_by_worker("lvx", "backward", q_sizes, kv_sizes, h, d, b)
        for i in range(n):
            assert res.stats.bytes_sent_by(i) == fwd[i] + bwd[i]
            assert res.traces_forward[i].total_sent_bytes() == fwd[i]
            assert res.traces_backward[i].total_sent_bytes() == bwd[i]

    def test_zero_do_still_communicates(self):
        n, h, d, b = 2, 1, 3, 8
        Q, K, V, _ = rand_problem(h, 4, 6, d, seed=10)
        res = run_distributed("lvx", Q, K, V, dO=np.zeros_like(Q), spec=ClusterSpec(n))
        assert np.all(res.grads.dQ == 0)
        assert np.all(res.grads.dK == 0)
        assert np.all(res.grads.dV == 0)
        q_sizes, kv_sizes = res.shards.q_sizes, res.shards.kv_sizes
        fwd = volumes.bytes_by_worker("lvx", "forward", q_sizes, kv_sizes, h, d, b)
        bwd = volumes.bytes_by_worker("lvx", "backward", q_sizes, kv_sizes, h, d, b)
        for i in range(n):
            assert res.stats.bytes_sent_by(i) == fwd[i] + bwd[i]

    def test_head_even_shards_match_spec_formula(self):
        n, h, d, b = 3, 6, 5, 8
        s_q, s_kv = 6, 9
        q, kv, hpw = [s_q // n] * n, [s_kv // n] * n, h // n
        Q, K, V, dO = rand_problem(h, s_q, s_kv, d, seed=24)
        res = run_distributed("head", Q, K, V, dO=dO, spec=ClusterSpec(n))
        for i in range(n):
            others = [w for w in range(n) if w != i]
            fwd = ((n - 1) * (q[i] + 2 * kv[i]) * hpw * d * b
                   + sum(q[w] for w in others) * hpw * (d + 1) * b)
            bwd = ((n - 1) * q[i] * hpw * d * b
                   + sum(q[w] + 2 * kv[w] for w in others) * hpw * d * b)
            assert res.traces_forward[i].total_sent_bytes() == fwd
            assert res.traces_backward[i].total_sent_bytes() == bwd
            assert res.stats.bytes_sent_by(i) == fwd + bwd

    def test_per_round_volume_ordering_when_kv_larger(self):
        # steady-state per-round volume: query rotation ships less than kv
        # rotation whenever S_KV is meaningfully larger than S_Q
        h, d = 2, 5
        for s_q, s_kv in ((5, 7), (3, 16)):
            for n in (2, 3, 4, 6):
                lvx = volumes.round_model_elems("lvx", "forward", s_q, s_kv, n, h, d)
                ring = volumes.round_model_elems("ring", "forward", s_q, s_kv, n, h, d)
                assert lvx < ring

    def test_total_volume_ordering_strongly_separated(self):
        h, d = 2, 5
        Q, K, V, _ = rand_problem(h, 3, 16, d, seed=12)
        for n in (2, 3, 4):
            lvx = run_distributed("lvx", Q, K, V, spec=ClusterSpec(n))
            ring = run_distributed("ring", Q, K, V, spec=ClusterSpec(n))
            assert lvx.stats.total_bytes() < ring.stats.total_bytes()


class TestTraces:
    def test_lvx_forward_has_n_rounds(self):
        Q, K, V, _ = rand_problem(1, 6, 6, 3, seed=13)
        for n in (1, 2, 3):
            res = run_distributed("lvx", Q, K, V, spec=ClusterSpec(n))
            for trace in res.traces_forward:
                assert trace.num_rounds == n

    def test_ring_forward_has_n_minus_1_shifts(self):
        Q, K, V, _ = rand_problem(1, 6, 6, 3, seed=14)
        for n in (2, 3, 4):
            res = run_distributed("ring", Q, K, V, spec=ClusterSpec(n))
            for trace in res.traces_forward:
                assert trace.num_rounds == n
                assert sum(1 for r in trace.rounds if r.sent_bytes > 0) == n - 1

    def test_trace_class_bytes(self):
        h, d, n, b = 2, 5, 2, 8
        Q, K, V, _ = rand_problem(h, 4, 6, d, seed=15)
        res = run_distributed("lvx", Q, K, V, spec=ClusterSpec(n))
        trace = res.traces_forward[0]
        for record in trace.rounds:
            assert set(record.sent_bytes_by_class) == {"O", "L", "Q"}
            assert record.sent_bytes_by_class["L"] * d == record.sent_bytes_by_class["O"]

    def test_head_round_records_modeled_wait(self):
        # n=2: each all-to-all has one incoming message, so the round's wait is
        # the modeled time of the peer's link into this worker
        Q, K, V, _ = rand_problem(2, 4, 64, 2, seed=27)
        res = run_distributed("head", Q, K, V, spec=ClusterSpec(2, Throttled(bandwidth=1e5)))
        for i, trace in enumerate(res.traces_forward):
            (record,) = trace.rounds
            assert record.comm_seconds != 0.0
            assert record.comm_seconds == res.stats.link(1 - i, i).modeled_time_seconds


@pytest.mark.parametrize("strategy", ["lvx", "ring", "head"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("s_q,s_kv", [(5, 7), (2, 9), (9, 2)])
def test_every_round_matches_hop_table(strategy, n, s_q, s_kv):
    # uneven shards; (2, 9) leaves an empty query shard at n=3, (9, 2) an empty kv shard
    h, d = 6, 3
    Q, K, V, dO = rand_problem(h, s_q, s_kv, d, seed=25)
    for dtype in (np.float64, np.float32):
        b = np.dtype(dtype).itemsize
        res = run_distributed(strategy, *(t.astype(dtype) for t in (Q, K, V)),
                              dO=dO.astype(dtype), spec=ClusterSpec(n))
        sizes = (res.shards.q_sizes, res.shards.kv_sizes)
        for phase, traces in (("forward", res.traces_forward),
                              ("backward", res.traces_backward)):
            for i, trace in enumerate(traces):
                assert trace.num_rounds == (1 if strategy == "head" else n)
                for record in trace.rounds:
                    assert record.sent_bytes_by_class == volumes.sent_by_class(
                        strategy, phase, i, record.index, *sizes, h, d, b), (phase, i)
                assert trace.epilogue_bytes_by_class == volumes.sent_by_class(
                    strategy, phase, i, None, *sizes, h, d, b), (phase, i)


class TestErrors:
    def test_head_divisibility(self):
        Q, K, V, _ = rand_problem(4, 6, 6, 3, seed=16)
        with pytest.raises(ValueError, match="not divisible"):
            run_distributed("head", Q, K, V, spec=ClusterSpec(3))

    def test_single_worker_requires_n1(self):
        Q, K, V, _ = rand_problem(2, 4, 4, 3, seed=17)
        with pytest.raises(ValueError, match="requires n=1"):
            run_distributed("single", Q, K, V, spec=ClusterSpec(2))

    def test_do_shape_mismatch(self):
        Q, K, V, _ = rand_problem(2, 4, 4, 3, seed=18)
        with pytest.raises(ValueError, match="dO shape"):
            run_distributed("lvx", Q, K, V, dO=np.zeros((2, 3, 3)), spec=ClusterSpec(2))

    def test_unknown_strategy(self):
        Q, K, V, _ = rand_problem(1, 2, 2, 2, seed=19)
        with pytest.raises(ValueError):
            run_distributed("bogus", Q, K, V, spec=ClusterSpec(1))

    @pytest.mark.parametrize("scale", [np.inf, -np.inf, np.nan])
    def test_non_finite_scale_rejected_before_spawn(self, monkeypatch, scale):
        def no_spawn(*args, **kwargs):
            raise AssertionError("workers spawned")

        monkeypatch.setattr(strategies, "spawn_cluster", no_spawn)
        Q, K, V, dO = rand_problem(2, 4, 4, 3, seed=26)
        with pytest.raises(ValueError, match="scale must be finite"):
            run_distributed("lvx", Q, K, V, dO=dO, spec=ClusterSpec(2), scale=scale)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("name", ["Q", "K", "V", "dO"])
    @pytest.mark.parametrize("strategy,n", [("lvx", 2), ("single", 1)])
    def test_non_finite_input_rejected_before_spawn(self, monkeypatch, strategy, n, name,
                                                    value):
        # unchecked, one inf in K turns whole rows of O into NaN on both paths
        def no_spawn(*args, **kwargs):
            raise AssertionError("workers spawned")

        monkeypatch.setattr(strategies, "spawn_cluster", no_spawn)
        tensors = dict(zip(("Q", "K", "V", "dO"), rand_problem(2, 16, 64, 4, seed=30)))
        tensors[name][0, 5, 1] = value
        with pytest.raises(ValueError, match=rf"^{name} holds a non-finite value at \[0, 5, 1\]"):
            run_distributed(strategy, spec=ClusterSpec(n), **tensors)


def test_wrong_gradient_rows_name_the_worker(monkeypatch):
    def short_dk_backward(ctx, *args):
        dq, dk, dv = strategies.lvx_backward(ctx, *args)
        return dq, (dk[:, :1] if ctx.rank == 1 else dk), dv

    kind = strategies.StrategyKind.LVX
    monkeypatch.setitem(strategies.PROTOCOLS, kind,
                        replace(strategies.PROTOCOLS[kind], backward=short_dk_backward))
    Q, K, V, dO = rand_problem(2, 4, 6, 3, seed=27)
    with pytest.raises(ClusterError, match="worker 1 returned dK"):
        run_distributed("lvx", Q, K, V, dO=dO, spec=ClusterSpec(2))


def test_repeated_runs_bit_identical():
    Q, K, V, dO = rand_problem(2, 7, 9, 4, seed=20)

    def run_once():
        res = run_distributed("lvx", Q, K, V, dO=dO, spec=ClusterSpec(3))
        return (res.O.tobytes(), res.L.tobytes(), res.grads.dQ.tobytes(),
                res.grads.dK.tobytes(), res.grads.dV.tobytes())

    baseline = run_once()
    for _ in range(19):
        assert run_once() == baseline


def _snapshot(payload):
    return {cls: np.asarray(a).tobytes() for cls, a in payload.items()}


@pytest.mark.parametrize("strategy,n", [(s, n) for s in ("lvx", "ring", "head")
                                        for n in (1, 2, 3)] + [("single", 1)])
def test_payloads_unchanged_between_send_and_recv(monkeypatch, strategy, n):
    # backward bodies accumulate into received tensors; a sender must never
    # write to a payload after sending it. The latency leaves each message in
    # flight long enough for a late write to show.
    sent, sends, recvs = {}, {}, {}
    send, recv = cluster.Cluster.send, cluster.Cluster.recv

    def snapshotting_send(self, src, dst, payload, meta=None):
        index = next(sends.setdefault((src, dst), itertools.count()))
        sent[(src, dst, index)] = _snapshot(payload)
        return send(self, src, dst, payload, meta=meta)

    def checking_recv(self, rank, src):
        msg = recv(self, rank, src)
        index = next(recvs.setdefault((src, rank), itertools.count()))
        if _snapshot(msg.payload) != sent.pop((src, rank, index)):
            raise AssertionError(f"payload {index} on link {src}->{rank} changed in flight")
        return msg

    monkeypatch.setattr(cluster.Cluster, "send", snapshotting_send)
    monkeypatch.setattr(cluster.Cluster, "recv", checking_recv)
    # S_KV = 1100: at n <= 3 each worker's K/V block spans two or more
    # 256-row kernel tiles
    Q, K, V, dO = rand_problem(6, 7, 1100, 3, seed=28)
    res = run_distributed(strategy, Q, K, V, dO=dO,
                          spec=ClusterSpec(n, Throttled(bandwidth=1e12, latency=2e-3)))
    assert not sent
    ob = gradient_oracle(Q, K, V, dO)
    for name in ("dQ", "dK", "dV"):
        assert max_norm_error(getattr(res.grads, name), getattr(ob, name)) <= 1e-12


def _largest_message(trace):
    return max([r.sent_bytes for r in trace.rounds]
               + [sum(trace.epilogue_bytes_by_class.values())])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("strategy", ["lvx", "ring"])
def test_worker_memory_flat_in_n(strategy, dtype):
    # K/V dominate: going from one worker to two may add only the messages
    # each worker has in flight, never a second K/V-sized gradient
    Q, K, V, dO = (t.astype(dtype) for t in rand_problem(2, 128, 30000, 8, seed=29))

    def traced_run(n):
        run_distributed(strategy, Q, K, V, dO=dO, spec=ClusterSpec(n))
        tracemalloc.start()
        try:
            res = run_distributed(strategy, Q, K, V, dO=dO, spec=ClusterSpec(n))
            return res, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _, one_worker = traced_run(1)
    res, two_workers = traced_run(2)
    in_flight = sum(max(_largest_message(res.traces_forward[i]),
                        _largest_message(res.traces_backward[i])) for i in range(2))
    assert two_workers <= one_worker + in_flight


def _failure_of(*args, **kwargs) -> WorkerFailed:
    """The WorkerFailed that run_distributed(*args, **kwargs) raises. It runs
    in a helper thread, so a hang fails the test after 20 s instead of
    stalling it, and no worker thread may outlive it."""
    raised = []

    def target():
        try:
            run_distributed(*args, **kwargs)
        except WorkerFailed as exc:
            raised.append(exc)

    runner = threading.Thread(target=target)
    runner.start()
    runner.join(20.0)
    assert not runner.is_alive(), "run_distributed hung"
    assert [t for t in threading.enumerate() if t.name.startswith("lvx-worker-")] == []
    assert len(raised) == 1, "run_distributed did not raise WorkerFailed"
    return raised[0]


def _fault_before_round_1(monkeypatch, fault):
    """Make the lvx forward body of rank 1 call fault() after its round 1
    send, just before that round's kernel."""
    kind = strategies.StrategyKind.LVX
    protocol = strategies.PROTOCOLS[kind]

    def forward(ctx, *args):
        compute, kernels = ctx.compute, itertools.count()

        def faulty_compute(kernel, *kernel_args, **kwargs):
            if ctx.rank == 1 and next(kernels) == 1:
                fault()
            return compute(kernel, *kernel_args, **kwargs)

        ctx.compute = faulty_compute
        return protocol.forward(ctx, *args)

    monkeypatch.setitem(strategies.PROTOCOLS, kind, replace(protocol, forward=forward))


def test_worker_raising_mid_round_fails_naming_it(monkeypatch):
    def fault():
        time.sleep(0.2)     # the other workers are blocked in recv by now
        raise RuntimeError("injected fault")

    monkeypatch.setenv("LVX_TIMEOUT_SECS", "30")
    _fault_before_round_1(monkeypatch, fault)
    Q, K, V, dO = rand_problem(2, 6, 9, 3, seed=31)
    start = time.monotonic()
    err = _failure_of("lvx", Q, K, V, dO=dO, spec=ClusterSpec(3))
    # the failure wakes the blocked workers, which abort instead of waiting
    # out the timeout
    assert time.monotonic() - start < 5.0
    assert err.worker == 1 and "worker 1 failed" in str(err)
    assert isinstance(err.cause, RuntimeError)


def test_dropped_message_times_out_naming_rank_and_src(monkeypatch):
    monkeypatch.setenv("LVX_TIMEOUT_SECS", "1")
    send = cluster.Cluster.send
    sends = {}
    dropped = []

    def lossy_send(self, src, dst, payload, meta=None):
        # message 2 on link 0->1 is the epilogue of a 2-worker forward:
        # worker 0's (O, L) never reaches worker 1, while worker 0 finishes
        # normally
        index = next(sends.setdefault((src, dst), itertools.count()))
        if (src, dst, index) == (0, 1, 2):
            dropped.append(index)
            return dict.fromkeys(payload, 0)
        return send(self, src, dst, payload, meta=meta)

    monkeypatch.setattr(cluster.Cluster, "send", lossy_send)
    Q, K, V, _ = rand_problem(2, 6, 9, 3, seed=32)
    start = time.monotonic()
    err = _failure_of("lvx", Q, K, V, spec=ClusterSpec(2))
    assert 1.0 <= time.monotonic() - start < 2.0
    assert dropped == [2]
    assert err.worker == 1
    assert isinstance(err.cause, CollectiveTimeout)
    assert "worker 1: recv(src=0) timed out after 1.0s" in str(err.cause)


def test_stalled_worker_times_out_naming_rank_and_src(monkeypatch):
    monkeypatch.setenv("LVX_TIMEOUT_SECS", "1")
    stall = 1.5
    _fault_before_round_1(monkeypatch, lambda: time.sleep(stall))
    Q, K, V, _ = rand_problem(2, 6, 9, 3, seed=33)
    start = time.monotonic()
    err = _failure_of("lvx", Q, K, V, spec=ClusterSpec(2))
    assert time.monotonic() - start < 1.0 + stall + 1.0
    # rank 1 sent its round 1 message before stalling, so rank 0 waits in
    # its epilogue
    assert err.worker == 0
    assert isinstance(err.cause, CollectiveTimeout)
    assert "worker 0: recv(src=1) timed out after 1.0s" in str(err.cause)


# (strategy, backward, index, where, key, expected): with n = 3 the forward of
# lvx sends messages 0-3 on each link (message 3 is its epilogue) and that of
# ring messages 0-1, so ring's backward starts at message 2 and lvx's at
# message 4. Each row rewrites the block id of message `index` on link 0->1.
@pytest.mark.parametrize("strategy,backward,index,where,key,expected", [
    ("lvx", False, 0, "worker 1 round 0", "state_block", 1),
    ("lvx", False, 3, "worker 1 epilogue", "state_block", 1),
    ("lvx", True, 6, "worker 1 backward round 2", "block", 1),
    ("ring", False, 0, "worker 1 round 0", "block", 0),
    ("ring", True, 2, "worker 1 backward round 0", "block", 0),
    ("ring", True, 4, "worker 1 backward epilogue", "block", 1),
])
def test_wrong_block_id_fails_naming_expected_block(monkeypatch, strategy, backward, index,
                                                    where, key, expected):
    monkeypatch.setenv("LVX_TIMEOUT_SECS", "5")
    send = cluster.Cluster.send
    sends = {}
    n = 3

    def relabeling_send(self, src, dst, payload, meta=None):
        if (src, dst, next(sends.setdefault((src, dst), itertools.count()))) == (0, 1, index):
            meta = {k: v + n for k, v in meta.items()}
        return send(self, src, dst, payload, meta=meta)

    monkeypatch.setattr(cluster.Cluster, "send", relabeling_send)
    Q, K, V, dO = rand_problem(2, 7, 8, 3, seed=34)
    err = _failure_of(strategy, Q, K, V, dO=dO if backward else None, spec=ClusterSpec(n))
    assert err.worker == 1
    assert type(err.cause) is ClusterError
    assert str(err.cause) == f"{where}: expected {key}={expected}, got {expected + n}"
