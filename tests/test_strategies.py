import itertools
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lvxattn import cluster, strategies, volumes
from lvxattn.cluster import (ClusterError, ClusterSpec, RecvTimeout, Throttled,
                             WorkerFailed, spawn_cluster)
from lvxattn.kernels import DEFAULT_TILE_ROWS, dense_attention
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
        # Q and (O, L) in rounds 0..n-2, (O, L) home in round n-1
        n, h, d, b = 4, 2, 5, 8
        s_q, s_kv = 8, 12
        q = s_q // n
        expected = (n - 1) * (2 * q * h * d + q * h) * b + (q * h * d + q * h) * b
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

    def test_ring_backward_even_shards_match_spec_formula(self):
        # blocks of 600 rows travel as three pieces; no hop follows the last
        # round. The backward starts from the block the forward ended with: a
        # worker sends (K, V) in rounds 0..n-3 and (dK, dV) in rounds 0..n-2,
        # 2(n - 2) + 2(n - 1) = 4n - 6 K/V-sized blocks
        n, h, d, b = 3, 2, 5, 8
        s_q, s_kv = 6, 1800
        kv = s_kv // n
        expected = (4 * n - 6) * kv * h * d * b
        Q, K, V, dO = rand_problem(h, s_q, s_kv, d, seed=37)
        res = run_distributed("ring", Q, K, V, dO=dO, spec=ClusterSpec(n))
        for i in range(n):
            assert res.traces_backward[i].total_sent_bytes() == expected
        assert volumes.bytes_by_worker("ring", "backward", [s_q // n] * n, [kv] * n,
                                       h, d, b) == [expected] * n

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

    @pytest.mark.parametrize("n", [2, 3])
    def test_ring_backward_starts_from_forward_block(self, n):
        # round 0's block arrived in the forward's last round, so on a
        # throttled link that round receives nothing, and the owner takes its
        # (dK, dV) pieces in round n - 1, so nothing follows the rounds. At
        # n = 2 no K or V travels in the backward
        Q, K, V, dO = rand_problem(2, 6, 600, 3, seed=38)
        res = run_distributed("ring", Q, K, V, dO=dO,
                              spec=ClusterSpec(n, Throttled(bandwidth=1e9, latency=1e-4)))
        for trace in res.traces_backward:
            assert trace.rounds[0].comm_seconds == 0.0
            assert trace.rounds[-1].comm_seconds > 0.0
            sent = {cls for record in trace.rounds
                    for cls, nbytes in record.sent_bytes_by_class.items() if nbytes}
            assert sent == ({"dK", "dV"} if n == 2 else {"K", "V", "dK", "dV"})

    @pytest.mark.parametrize("n", [2, 3])
    def test_lvx_last_round_waits_for_the_homecoming(self, n):
        # round n-1 receives the accumulator of block i+1, then the
        # homecoming, block i's: (O, L) in the forward, dQ in the backward.
        # Query blocks of 4, 3 (n = 2) and 3, 2, 2 (n = 3) rows
        h, d, b = 2, 3, 8
        Q, K, V, dO = rand_problem(h, 7, 9, d, seed=39)
        link = Throttled(bandwidth=1e9, latency=1e-5)
        res = run_distributed("lvx", Q, K, V, dO=dO, spec=ClusterSpec(n, link))
        q = res.shards.q_sizes
        for phase, traces, cols in (("forward", res.traces_forward, d + 1),
                                    ("backward", res.traces_backward, d)):
            for i, trace in enumerate(traces):
                incoming = sum(link.message_seconds(q[j] * h * cols * b)
                               for j in ((i + 1) % n, i))
                assert trace.rounds[n - 1].comm_seconds == pytest.approx(
                    incoming, rel=1e-12), (phase, i)

    def test_trace_class_bytes(self):
        h, d, n, b = 2, 5, 2, 8
        Q, K, V, _ = rand_problem(h, 4, 6, d, seed=15)
        res = run_distributed("lvx", Q, K, V, spec=ClusterSpec(n))
        trace = res.traces_forward[0]
        for record in trace.rounds:
            last = record.index == n - 1
            assert set(record.sent_bytes_by_class) == ({"O", "L"} if last else {"O", "L", "Q"})
            assert record.sent_bytes_by_class["L"] * d == record.sent_bytes_by_class["O"]

    def test_head_round_records_modeled_wait(self):
        # one wait rule for every protocol: a round waits for the modeled time
        # of each message it receives, so a worker's wait over both phases'
        # rounds is the modeled time of the links into it. K/V blocks of
        # 1100 / n rows travel in two or more pieces
        Q, K, V, dO = rand_problem(12, 7, 1100, 2, seed=27)
        link = Throttled(bandwidth=1e9, latency=1e-5)
        for strategy, protocol in strategies.PROTOCOLS.items():
            for n in range(1, 5):
                if not protocol.fits(n, Q.shape[0]):
                    continue
                res = run_distributed(strategy, Q, K, V, dO=dO, spec=ClusterSpec(n, link))
                for i, traces in enumerate(zip(res.traces_forward, res.traces_backward)):
                    waited = sum(r.comm_seconds for t in traces for r in t.rounds)
                    incoming = sum(res.stats.link(w, i).modeled_time_seconds
                                   for w in range(n) if w != i)
                    assert (incoming > 0) == (n > 1), (strategy, n, i)
                    assert waited == pytest.approx(incoming, rel=1e-12), (strategy, n, i)


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


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("strategy", ["lvx", "ring", "head"])
def test_link_message_counts(strategy, n, backward):
    # K/V blocks of 550 (n = 2) or 366-367 (n = 3) rows end mid-tile. ring
    # sends block j of |kv_j| rows as p(j) = max(1, ceil(|kv_j| / tile))
    # pieces; head cuts worker w's rows [a, b) at the tile multiples of the
    # full sequence, g(w) pieces
    h, s_q, s_kv, tile = 6, 7, 1100, DEFAULT_TILE_ROWS
    Q, K, V, dO = rand_problem(h, s_q, s_kv, 4, seed=27)
    res = run_distributed(strategy, Q, K, V, dO=dO if backward else None,
                          spec=ClusterSpec(n))
    kv = partition_rows(s_kv, n)

    def p(j):
        a, b = kv[j % n]
        return max(1, -(-(b - a) // tile))

    def g(w):
        a, b = kv[w]
        return max(1, -(-b // tile) - a // tile)

    hpw = h // n
    expected = {}
    for i in range(n):
        if strategy == "lvx":
            # per phase n - 1 read-only parts and n accumulator sends
            expected[i, (i + 1) % n] = (2 * n - 1) * (1 + backward)
        elif strategy == "ring":
            # the forward sends block i-r to the successor in rounds
            # 0..n-2; the backward sends block i+1+r to the predecessor,
            # its K/V in rounds 0..n-3 and its (dK, dV) in rounds 0..n-2
            expected[i, (i + 1) % n] = sum(p(i - r) for r in range(n - 1))
            back = (sum(p(i + 1 + r) for r in range(n - 2))
                    + sum(p(i + 1 + r) for r in range(n - 1)))
            pred = (i, (i - 1) % n)
            expected[pred] = expected.get(pred, 0) + back * backward
        else:
            for w in range(n):
                # K/V pieces of every head plus the O, L chunk; the dO chunk
                # plus dK/dV pieces of every head
                expected[i, w] = hpw * g(i) + 1 + (1 + hpw * g(w)) * backward
    counts = {(i, w): res.stats.link(i, w).message_count
              for i in range(n) for w in range(n) if w != i}
    assert counts == {link: expected.get(link, 0) for link in counts}


@pytest.mark.parametrize("n", [3, 4])
def test_lvx_forward_messages_carry_rows_of_their_block(monkeypatch, n):
    # S_Q = 7 gives uneven query blocks (3, 2, 2 or 2, 2, 2, 1), so a
    # tensor of one block sent under another block's id shows in its rows
    sent = []
    send = cluster.Cluster.send

    def recording_send(self, src, dst, payload, block=None):
        sent.append((block, {cls: t.shape[1] for cls, t in payload.items()}))
        return send(self, src, dst, payload, block=block)

    monkeypatch.setattr(cluster.Cluster, "send", recording_send)
    Q, K, V, _ = rand_problem(2, 7, 5, 3, seed=39)
    res = run_distributed("lvx", Q, K, V, spec=ClusterSpec(n))
    q_sizes = res.shards.q_sizes
    assert len(set(q_sizes)) == 2
    assert len(sent) == n * (2 * n - 1)
    for block, rows in sent:
        assert set(rows) in ({"Q"}, {"O", "L"}), (block, rows)
        assert set(rows.values()) == {q_sizes[block]}, (block, rows)


# (S_Q, S_KV): empty query and K/V shards at n = 4, tiny uneven blocks, and
# K/V blocks that end mid-tile or span several pieces (1100 rows: 550, 366-367
# and 275 per worker; 513 rows: three pieces at n = 1)
STREAM_SHAPES = [(3, 3), (5, 7), (7, 1100), (2, 513)]


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("strategy,n", [(s, n) for s in ("lvx", "ring", "head") for n in range(1, 5)]
                         + [("single", 1)])
def test_kv_streams_match_kv_messages(monkeypatch, strategy, n, backward):
    # every link's K/V stream and dK/dV stream, each in send order, as
    # (block id, shapes) pairs; the ring backward interleaves the two on one
    # link, so they are compared apart
    h, d = 12, 2
    sent = []
    send = cluster.Cluster.send

    def recording_send(self, src, dst, payload, block=None):
        sent.append((src, dst, block, {cls: t.shape for cls, t in payload.items()}))
        return send(self, src, dst, payload, block=block)

    monkeypatch.setattr(cluster.Cluster, "send", recording_send)
    for s_q, s_kv in STREAM_SHAPES:
        Q, K, V, dO = rand_problem(h, s_q, s_kv, d, seed=28)
        sent.clear()
        res = run_distributed(strategy, Q, K, V, dO=dO if backward else None,
                              spec=ClusterSpec(n))
        sizes = (res.shards.q_sizes, res.shards.kv_sizes)
        for classes in (("K", "V"), ("dK", "dV")):
            got, expected = {}, {}
            for src, dst, block, shapes in sent:
                if classes[0] in shapes:
                    got.setdefault((src, dst), []).append(
                        (block, [shapes.get(cls) for cls in classes]))
            for phase, i, r in itertools.product(volumes.PHASES[:1 + backward], range(n),
                                                 range(n)):
                for msg_classes, dst, block, rows, heads in volumes.kv_messages(
                        strategy, phase, i, r, *sizes, h):
                    if msg_classes == classes:
                        expected.setdefault((i, dst), []).append(
                            (block, [(heads, rows, d)] * len(classes)))
            assert got == expected, (s_q, s_kv, classes)


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

    def snapshotting_send(self, src, dst, payload, block=None):
        index = next(sends.setdefault((src, dst), itertools.count()))
        sent[(src, dst, index)] = _snapshot(payload)
        return send(self, src, dst, payload, block=block)

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


@pytest.mark.parametrize("n", [3, 4])
def test_ring_sends_only_gradients_its_kernel_wrote(monkeypatch, n):
    # a worker's kernel adds into the (dK, dV) accumulator piece it sends,
    # so every dK and dV a worker sends was an `out` of its own kernel
    # calls; payloads pass by reference, so the check is per worker thread,
    # and the lists hold every array so no id is reused
    outs, sent = {}, {}
    kernel, send = strategies.blockwise_attention_backward, cluster.Cluster.send

    def recording_kernel(*args, out, **kwargs):
        outs.setdefault(threading.get_ident(), []).extend(out[1:])
        return kernel(*args, out=out, **kwargs)

    def recording_send(self, src, dst, payload, block=None):
        sent.setdefault(threading.get_ident(), []).extend(
            payload[cls] for cls in ("dK", "dV") if cls in payload)
        return send(self, src, dst, payload, block=block)

    monkeypatch.setattr(strategies, "blockwise_attention_backward", recording_kernel)
    monkeypatch.setattr(cluster.Cluster, "send", recording_send)
    # S_KV = 1100: every K/V block spans two or more pieces
    Q, K, V, dO = rand_problem(n, 7, 1100, 3, seed=30)
    res = run_distributed("ring", Q, K, V, dO=dO, spec=ClusterSpec(n))
    assert len(sent) == n
    for worker, arrays in sent.items():
        foreign = sum(not any(a is o for o in outs[worker]) for a in arrays)
        assert foreign == 0, f"{foreign} of {len(arrays)} sent gradients not from own kernel"
    ob = gradient_oracle(Q, K, V, dO)
    for name in ("dQ", "dK", "dV"):
        assert max_norm_error(getattr(res.grads, name), getattr(ob, name)) <= 1e-12


def _largest_message(trace):
    return max(r.sent_bytes for r in trace.rounds)


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


def _fixed_time(kernel, seconds):
    """kernel, held to at least `seconds` per call, so that wall times show
    the schedule and not the host's BLAS speed."""
    def fixed_time_kernel(*args, **kwargs):
        t0 = time.perf_counter()
        out = kernel(*args, **kwargs)
        time.sleep(max(0.0, seconds - (time.perf_counter() - t0)))
        return out
    return fixed_time_kernel


# The backward kernel is held to a fixed 50 ms, and the link moves one
# round's bytes in that time. Sending the read-only part before the kernel
# and the accumulator after it makes a round cost max(kernel, link): at
# n = 2 the throttled backward then takes 1.15 (lvx) times the instant one,
# for the homecoming dQ (a third of a round's bytes) cannot overlap a
# kernel. Ring's takes 1.00: it sends no K/V at n = 2, and the (dK, dV)
# accumulator that round 0 sends home travels while the owner's kernel runs
# on its own block in round 1. Sending a whole block after the kernel costs
# kernel + link per round, about 2.0 for lvx.
BACKWARD_KERNEL_S = 0.05
BACKWARD_OVERLAP_BOUND = 1.5


@pytest.mark.parametrize("strategy", ["lvx", "ring"])
def test_backward_transfer_overlaps_kernel(monkeypatch, strategy):
    n, h, d = 2, 2, 8
    s_q, s_kv = 16 * n, 64 * n
    Q, K, V, dO = rand_problem(h, s_q, s_kv, d, seed=35)
    fixed_time_kernel = _fixed_time(strategies.blockwise_attention_backward,
                                    BACKWARD_KERNEL_S)
    kind = strategies.StrategyKind(strategy)
    protocol = strategies.PROTOCOLS[kind]
    walls = {}

    def timed_backward(ctx, *args):
        t0 = time.perf_counter()
        out = protocol.backward(ctx, *args)
        walls[ctx.rank] = time.perf_counter() - t0
        return out

    monkeypatch.setattr(strategies, "blockwise_attention_backward", fixed_time_kernel)
    monkeypatch.setitem(strategies.PROTOCOLS, kind, replace(protocol, backward=timed_backward))
    round_bytes = volumes.round_model_elems(strategy, "backward", s_q, s_kv, n, h, d) * 8
    link = Throttled(bandwidth=round_bytes / BACKWARD_KERNEL_S)

    def backward_wall(transport):
        run_distributed(strategy, Q, K, V, dO=dO, spec=ClusterSpec(n, transport))
        return max(walls.values())

    instant, throttled = [], []
    for _ in range(3):                      # interleaved so load hits both arms
        instant.append(backward_wall(Throttled()))
        throttled.append(backward_wall(link))
    ratio = float(np.median(throttled) / np.median(instant))
    assert ratio <= BACKWARD_OVERLAP_BOUND, f"{strategy} backward wall ratio {ratio:.3f}"


# Ring at n = 2 with blocks of four 256-row pieces: every kernel call is
# held to 10 ms and the link moves one K/V block in T = 100 ms, so the link
# sets the pace. Each piece meets the kernel as it lands and each (dK, dV)
# piece leaves as its tile is done, so a forward+backward takes about
# 2.2 T: the forward 1.1 T and the (dK, dV) 1 T, as the backward starts
# from the block the forward ended with and sends no K/V. Whole-block
# messages with an epilogue hop home take about 4.2 T.
PIECE_KERNEL_S = 0.01
LINK_BLOCK_S = 0.1
RING_LINK_FLOOR_BOUND = 3.5


def test_ring_step_streams_pieces_at_link_pace(monkeypatch):
    n, h, d = 2, 1, 8
    s_q, s_kv = 8 * n, 4 * DEFAULT_TILE_ROWS * n
    Q, K, V, dO = rand_problem(h, s_q, s_kv, d, seed=36)
    for name in ("blockwise_attention", "blockwise_attention_backward"):
        monkeypatch.setattr(strategies, name,
                            _fixed_time(getattr(strategies, name), PIECE_KERNEL_S))
    block_bytes = 2 * (s_kv // n) * h * d * 8
    link = Throttled(bandwidth=block_bytes / LINK_BLOCK_S)
    walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        run_distributed("ring", Q, K, V, dO=dO, spec=ClusterSpec(n, link))
        walls.append(time.perf_counter() - t0)
    ratio = float(np.median(walls)) / LINK_BLOCK_S
    assert ratio <= RING_LINK_FLOOR_BOUND, f"ring step took {ratio:.2f} T"


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
    """Make the lvx forward body of rank 1 call fault() just before its
    round 1 kernel."""
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

    def lossy_send(self, src, dst, payload, block=None):
        # message 2 on link 0->1 is the homecoming of a 2-worker forward:
        # the (O, L) of block 1 never reaches its owner, worker 1, while
        # worker 0 finishes normally
        index = next(sends.setdefault((src, dst), itertools.count()))
        if (src, dst, index) == (0, 1, 2):
            dropped.append(index)
            return dict.fromkeys(payload, 0)
        return send(self, src, dst, payload, block=block)

    monkeypatch.setattr(cluster.Cluster, "send", lossy_send)
    Q, K, V, _ = rand_problem(2, 6, 9, 3, seed=32)
    start = time.monotonic()
    err = _failure_of("lvx", Q, K, V, spec=ClusterSpec(2))
    assert 1.0 <= time.monotonic() - start < 2.0
    assert dropped == [2]
    assert err.worker == 1
    assert isinstance(err.cause, RecvTimeout)
    assert "worker 1: recv(src=0) timed out after 1.0s" in str(err.cause)


def test_stalled_worker_times_out_naming_rank_and_src(monkeypatch):
    monkeypatch.setenv("LVX_TIMEOUT_SECS", "1")
    stall = 1.5
    _fault_before_round_1(monkeypatch, lambda: time.sleep(stall))
    Q, K, V, _ = rand_problem(2, 6, 9, 3, seed=33)
    start = time.monotonic()
    err = _failure_of("lvx", Q, K, V, spec=ClusterSpec(2))
    assert time.monotonic() - start < 1.0 + stall + 1.0
    # rank 1 sends nothing in round 1 before its kernel, so rank 0 waits in
    # its final receive, for the homecoming (O, L) that rank 1 sends after
    # the stalled kernel
    assert err.worker == 0
    assert isinstance(err.cause, RecvTimeout)
    assert "worker 0: recv(src=1) timed out after 1.0s" in str(err.cause)


def _relabeled_failure(monkeypatch, strategy, backward, index, s_kv, n=3, link=(0, 1)):
    """The failure of an n-worker run whose message `index` on `link`, a
    (src, dst) pair, carries its block id plus n."""
    monkeypatch.setenv("LVX_TIMEOUT_SECS", "5")
    send = cluster.Cluster.send
    sends = {}

    def relabeling_send(self, src, dst, payload, block=None):
        if (src, dst, next(sends.setdefault((src, dst), itertools.count()))) == (*link, index):
            block += n
        return send(self, src, dst, payload, block=block)

    monkeypatch.setattr(cluster.Cluster, "send", relabeling_send)
    Q, K, V, dO = rand_problem(6, 7, s_kv, 3, seed=34)
    err = _failure_of(strategy, Q, K, V, dO=dO if backward else None, spec=ClusterSpec(n))
    assert err.worker == link[1]
    assert type(err.cause) is ClusterError
    return str(err.cause)


# (strategy, backward, index, receive, round, expected, n, src): with
# S_KV = 8 every K/V block is one piece. Each row rewrites the block id of
# message `index` on link src->1, which worker 1 reads at `receive`. Every
# receive falls in one of the phase's rounds 0..n-1.
#
# lvx and the ring forward use link 0->1. An lvx round, forward or
# backward, sends the read-only part before the kernel, except in the last
# round, and the accumulator after it. With n = 3, on link 0->1, the
# forward sends the Q of blocks 0, 2 as messages 0, 2 and the (O, L) of
# blocks 0, 2, 1 as 1, 3, 4, the last one home; the backward sends
# (Q, dO, L, D) of blocks 0, 2 as 5, 7 and the dQ of blocks 0, 2, 1 as 6,
# 8, 9. Worker 1 reads a read-only part at the end of the round it was
# sent in, and an accumulator in the round after, except the homecoming,
# which it reads at the end of the round it was sent in, n - 1. With n = 4
# the lvx backward starts at message 7 and sends the read-only part of
# blocks 0, 3, 2 as messages 7, 9, 11, so a read-only part also lands in a
# round after the first. The ring forward sends messages 0-1 on link 0->1 at
# n = 3.
#
# The ring backward sends to the predecessor, so its rows use link 2->1,
# which no ring forward at n >= 3 uses. Worker 2 handles block 3 + r in
# round r; it sends a block's (K, V) before the round's kernel while
# r <= n - 3 and its (dK, dV) after it while r <= n - 2, and worker 1 reads
# both in the round after. At n = 3, block 0, saved by worker 2's forward,
# as messages 0, 1, and block 1's (dK, dV) home as 2. At n = 4, block 3 as
# 0, 1, block 0, which worker 2 got from worker 3, as 2, 3, and block 1's
# (dK, dV) home as 4. At n = 5, block 0 as 4, 5 in worker 2's round 2.
#
# head at n = 3 owns two heads per worker, and worker 0 sends worker 1 one
# K/V piece of each as messages 0, 1, then worker 1's rows of O and L under
# its query block's id, 1, as message 2, and in the backward its own dO rows
# under its own id, 0, as message 3.
@pytest.mark.parametrize("strategy,backward,index,receive,round_index,expected,n,src", [
    ("lvx", False, 0, "worker 1 round 0", 0, 0, 3, 0),
    ("lvx", False, 1, "worker 1 round 1, O and L", 1, 0, 3, 0),
    ("lvx", False, 4, "worker 1 homecoming, O and L", 2, 1, 3, 0),
    ("lvx", True, 5, "worker 1 backward round 0", 0, 0, 3, 0),
    ("lvx", True, 6, "worker 1 backward round 1, dQ", 1, 0, 3, 0),
    ("lvx", True, 7, "worker 1 backward round 1", 1, 2, 3, 0),
    ("lvx", True, 8, "worker 1 backward round 2, dQ", 2, 2, 3, 0),
    ("lvx", True, 9, "worker 1 backward homecoming, dQ", 2, 1, 3, 0),
    ("lvx", True, 11, "worker 1 backward round 2", 2, 2, 4, 0),
    ("ring", False, 0, "worker 1 round 1", 1, 0, 3, 0),
    ("ring", True, 0, "worker 1 backward round 1, saved K and V", 1, 0, 3, 2),
    ("ring", True, 2, "worker 1 backward round 2, dK and dV home", 2, 1, 3, 2),
    ("ring", True, 2, "worker 1 backward round 2, forwarded K and V", 2, 0, 4, 2),
    ("ring", True, 3, "worker 1 backward round 2, dK and dV", 2, 0, 4, 2),
    ("ring", True, 4, "worker 1 backward round 3, dK and dV home", 3, 1, 4, 2),
    ("ring", True, 5, "worker 1 backward round 3, dK and dV", 3, 0, 5, 2),
    ("head", False, 2, "worker 1 round 0, O and L", 0, 1, 3, 0),
    ("head", True, 3, "worker 1 backward round 0, dO", 0, 0, 3, 0),
])
def test_wrong_block_id_fails_naming_expected_block(monkeypatch, strategy, backward, index,
                                                    receive, round_index, expected, n, src):
    assert _relabeled_failure(monkeypatch, strategy, backward, index, s_kv=8, n=n,
                              link=(src, 1)) == (
        f"worker 1 round {round_index}: recv(src={src}) expected block {expected}, "
        f"got {expected + n}"), receive


# With S_KV = 1100 every block travels as two pieces, of 256 rows and of the
# rest. With n = 3, on link 0->1, ring's forward sends the pieces of block 0
# as messages 0, 1, and head's forward sends worker 0's two pieces of head 2
# (worker 1's head k = 0, block id 0) as messages 0, 1, the first with the
# Q rows. With n = 4, on link 2->1, ring's backward sends each piece of
# blocks 3 and 0 before the (dK, dV) piece it starts or carries on, as
# messages 0-3 and 4-7, and then the two (dK, dV) pieces of block 1 home
# as 8, 9.
@pytest.mark.parametrize("strategy,backward,index,receive,round_index,expected,n,src", [
    ("ring", False, 1, "worker 1 round 1, second piece", 1, 0, 3, 0),
    ("ring", True, 9, "worker 1 backward round 3, second dK and dV piece home", 3, 1, 4, 2),
    ("head", False, 1, "worker 1 round 0, second piece", 0, 0, 3, 0),
])
def test_wrong_piece_id_fails_naming_expected_block(monkeypatch, strategy, backward, index,
                                                    receive, round_index, expected, n, src):
    assert _relabeled_failure(monkeypatch, strategy, backward, index, s_kv=1100, n=n,
                              link=(src, 1)) == (
        f"worker 1 round {round_index}: recv(src={src}) expected block {expected}, "
        f"got {expected + n}"), receive
