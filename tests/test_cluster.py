import sys
import time

import numpy as np
import pytest

from lvxattn.cluster import (ClusterError, ClusterSpec, CollectiveTimeout, Throttled,
                             WorkerFailed, spawn_cluster)


def test_single_worker_no_communication():
    res = spawn_cluster(ClusterSpec(1), lambda ctx: 42)
    assert res.results == [42]
    assert res.stats.total_bytes() == 0


def test_ping_pong_counts_payload_bytes_only():
    data = np.arange(3, dtype=np.float32)

    def body(ctx):
        peer = 1 - ctx.rank
        ctx.send(peer, {0: data}, meta={"note": "metadata is free"})
        return ctx.recv(peer).payload[0]

    res = spawn_cluster(ClusterSpec(2), body)
    assert np.array_equal(res.results[0], data)
    assert res.stats.link(0, 1).bytes_sent == 12
    assert res.stats.link(1, 0).bytes_sent == 12
    assert res.stats.link(0, 1).message_count == 1


def test_throttled_modeled_time_formula():
    payload = np.zeros(125_000, dtype=np.float64)   # 1 MB

    def body(ctx):
        ctx.send(ctx.successor, {0: payload})
        ctx.recv(ctx.predecessor)

    res = spawn_cluster(ClusterSpec(4, Throttled(bandwidth=1e9, latency=1e-3)), body)
    for i in range(4):
        link = res.stats.link(i, (i + 1) % 4)
        assert link.bytes_sent == 1_000_000
        assert link.modeled_time_seconds == pytest.approx(0.002, rel=1e-12)


def test_throttled_recv_not_earlier_than_modeled():
    # 50 ms transfer at the chosen bandwidth; allow 30% scheduler slack
    payload = np.zeros(125_000, dtype=np.float64)
    bandwidth = payload.nbytes / 0.05

    def body(ctx):
        start = time.monotonic()
        ctx.send(ctx.successor, {0: payload})
        ctx.recv(ctx.predecessor)
        return time.monotonic() - start

    res = spawn_cluster(ClusterSpec(2, Throttled(bandwidth=bandwidth)), body)
    for waited in res.results:
        assert waited >= 0.05 * 0.7
        assert waited < 1.0


def test_send_is_buffered_nonblocking():
    # three sends complete before the peer posts any recv
    def body(ctx):
        if ctx.rank == 0:
            start = time.monotonic()
            for i in range(3):
                ctx.send(1, {0: np.array([i])})
            elapsed = time.monotonic() - start
            ctx.send(1, {0: np.array([elapsed])})
            return None
        time.sleep(0.2)
        values = [int(ctx.recv(0).payload[0][0]) for _ in range(3)]
        send_elapsed = float(ctx.recv(0).payload[0][0])
        return values, send_elapsed

    res = spawn_cluster(ClusterSpec(2), body)
    values, send_elapsed = res.results[1]
    assert values == [0, 1, 2]
    assert send_elapsed < 0.1


def test_fifo_per_link_stream():
    # workers 0 and 2 both send to worker 1, which drains worker 2's link
    # first: each link delivers in its own send order
    def body(ctx):
        if ctx.rank != 1:
            for i in range(3):
                ctx.send(1, {0: np.array([10 * ctx.rank + i])})
            return None
        late = [int(ctx.recv(2).payload[0][0]) for _ in range(3)]
        early = [int(ctx.recv(0).payload[0][0]) for _ in range(3)]
        return late, early

    res = spawn_cluster(ClusterSpec(3), body)
    assert res.results[1] == ([20, 21, 22], [0, 1, 2])


def test_link_order_holds_under_contention():
    # eight workers (more than a CI runner has cores), all sending into every
    # mailbox at once, with thread switches forced often: a message that
    # overtook another on its link would show as a step out of order
    n, steps = 8, 60

    def body(ctx):
        for step in range(steps):
            for dst in range(n):
                if dst != ctx.rank:
                    ctx.send(dst, {0: np.array([step])})
            for src in range(n):
                if src != ctx.rank:
                    got = int(ctx.recv(src).payload[0][0])
                    assert got == step, f"{src}->{ctx.rank}: got step {got}, expected {step}"

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        start = time.monotonic()
        res = spawn_cluster(ClusterSpec(n, Throttled(bandwidth=1e9, latency=1e-5)), body)
        elapsed = time.monotonic() - start
    finally:
        sys.setswitchinterval(interval)
    assert all(res.stats.link(i, j).message_count == steps
               for i in range(n) for j in range(n) if i != j)
    assert elapsed < 10.0


def test_ring_shift_rotation():
    def body(ctx):
        ctx.send(ctx.successor, {0: np.array([ctx.rank])})
        return int(ctx.recv(ctx.predecessor).payload[0][0])

    res = spawn_cluster(ClusterSpec(3), body)
    assert res.results == [2, 0, 1]


def test_ring_shift_loopback():
    def body(ctx):
        ctx.send(ctx.successor, {0: np.array([99])})
        return int(ctx.recv(ctx.predecessor).payload[0][0])

    res = spawn_cluster(ClusterSpec(1), body)
    assert res.results == [99]
    assert res.stats.total_bytes() == 0


def test_ring_shift_n_times_is_identity():
    n = 4

    def body(ctx):
        value = np.array([ctx.rank * 100])
        for step in range(n):
            ctx.send(ctx.successor, {0: value})
            value = ctx.recv(ctx.predecessor).payload[0]
        return int(value[0])

    res = spawn_cluster(ClusterSpec(n), body)
    assert res.results == [0, 100, 200, 300]


def test_all_to_all_exchange():
    def body(ctx):
        chunks = [{0: np.array([ctx.rank * 10 + dst])} for dst in range(2)]
        got = ctx.all_to_all(chunks)
        return [int(g[0][0]) for g in got]

    res = spawn_cluster(ClusterSpec(2), body)
    assert res.results[0] == [0, 10]    # A0, B0
    assert res.results[1] == [1, 11]    # A1, B1


def test_all_to_all_bytes_exclude_self_chunk():
    chunk = np.zeros(10, dtype=np.float64)

    def body(ctx):
        ctx.all_to_all([{0: chunk} for _ in range(3)])

    res = spawn_cluster(ClusterSpec(3), body)
    for i in range(3):
        sent = sum(res.stats.link(i, j).bytes_sent for j in range(3))
        assert sent == 2 * chunk.nbytes


def test_all_to_all_single_worker_identity():
    def body(ctx):
        return ctx.all_to_all([{0: np.array([5.0])}])

    res = spawn_cluster(ClusterSpec(1), body)
    assert res.results[0][0][0][0] == 5.0
    assert res.stats.total_bytes() == 0


def test_all_to_all_chunk_count_mismatch():
    def body(ctx):
        ctx.all_to_all([{0: np.zeros(1)}] * 3)

    with pytest.raises(WorkerFailed, match="expects 2 chunks"):
        spawn_cluster(ClusterSpec(2), body)


def test_worker_error_names_worker(monkeypatch):
    monkeypatch.setenv("LVX_TIMEOUT_SECS", "5")

    def body(ctx):
        if ctx.rank == 2:
            raise ValueError("boom")
        ctx.recv((ctx.rank + 1) % 4)

    with pytest.raises(WorkerFailed, match="worker 2") as exc_info:
        spawn_cluster(ClusterSpec(4), body)
    assert exc_info.value.worker == 2
    assert isinstance(exc_info.value.cause, ValueError)


def test_recv_from_nonexistent_worker():
    def body(ctx):
        ctx.recv(5)

    with pytest.raises(WorkerFailed, match="out of range"):
        spawn_cluster(ClusterSpec(2), body)


def test_recv_timeout(monkeypatch):
    monkeypatch.setenv("LVX_TIMEOUT_SECS", "0.3")

    def body(ctx):
        if ctx.rank == 0:
            ctx.recv(1)   # never sent

    with pytest.raises(WorkerFailed, match="worker 0") as exc_info:
        spawn_cluster(ClusterSpec(2), body)
    assert isinstance(exc_info.value.cause, CollectiveTimeout)
    assert str(exc_info.value.cause) == "worker 0: recv(src=1) timed out after 0.3s"


def test_unreceived_message_fails_naming_its_link():
    def body(ctx):
        if ctx.rank == 0:
            ctx.send(1, {0: np.zeros(1)})   # worker 1 never receives it

    with pytest.raises(ClusterError,
                       match=r"^1 message\(s\) from worker 0 to worker 1 were never received$"):
        spawn_cluster(ClusterSpec(2), body)


def test_timeout_env_override(monkeypatch):
    monkeypatch.setenv("LVX_TIMEOUT_SECS", "0.2")

    def body(ctx):
        if ctx.rank == 0:
            ctx.recv(1)

    start = time.monotonic()
    with pytest.raises(WorkerFailed):
        spawn_cluster(ClusterSpec(2), body)
    assert time.monotonic() - start < 5.0


@pytest.mark.parametrize("bad", ["inf", "nan", "0", "-1"])
def test_bad_timeout_rejected_before_spawn(monkeypatch, bad):
    def body(ctx):
        raise AssertionError("workers spawned")

    monkeypatch.setenv("LVX_TIMEOUT_SECS", bad)
    with pytest.raises(ValueError, match="LVX_TIMEOUT_SECS must be finite and positive"):
        spawn_cluster(ClusterSpec(2), body)


def test_compute_seconds_are_the_rounds_kernel_calls():
    def body(ctx):
        ctx.compute(time.sleep, 0.02)
        ctx.compute(time.sleep, 0.02)
        ctx.close_round()
        ctx.close_round()
        return ctx.close_phase("test", "forward")

    for trace in spawn_cluster(ClusterSpec(2), body).results:
        assert trace.rounds[0].compute_seconds >= 0.04
        assert trace.rounds[1].compute_seconds == 0.0


def test_throttled_validation():
    with pytest.raises(ValueError, match="bandwidth"):
        Throttled(bandwidth=0.0)
    with pytest.raises(ValueError, match="latency"):
        Throttled(bandwidth=1.0, latency=-1.0)
    for latency in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="latency"):
            Throttled(bandwidth=1.0, latency=latency)
    with pytest.raises(ValueError, match="worker count"):
        ClusterSpec(0)


def test_instant_results_independent_of_scheduling():
    def body(ctx):
        total = np.zeros(4)
        for step in range(5):
            ctx.send(ctx.successor, {0: np.full(4, float(ctx.rank))})
            got = ctx.recv(ctx.predecessor)
            total = total + got.payload[0]
        return total.tobytes()

    baseline = spawn_cluster(ClusterSpec(3), body).results
    for _ in range(19):
        assert spawn_cluster(ClusterSpec(3), body).results == baseline
