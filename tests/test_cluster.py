import sys
import time

import numpy as np
import pytest

from lvxattn.cluster import (ClusterError, ClusterSpec, RecvTimeout, Throttled,
                             WorkerFailed, spawn_cluster)


def test_single_worker_no_communication():
    res = spawn_cluster(ClusterSpec(1), lambda ctx: 42)
    assert res.results == [42]
    assert res.stats.total_bytes() == 0


def test_ping_pong_counts_payload_bytes_only():
    data = np.arange(3, dtype=np.float32)

    def body(ctx):
        peer = 1 - ctx.rank
        ctx.send(peer, {0: data}, block=7)
        return ctx.recv(peer, block=7)[0]

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


def test_recv_awaits_a_sent_message_past_the_timeout(monkeypatch):
    # each message takes 0.5 s to cross its link, longer than the 0.2 s
    # timeout: the timeout bounds only the wait for a message never sent
    monkeypatch.setenv("LVX_TIMEOUT_SECS", "0.2")

    def body(ctx):
        peer = 1 - ctx.rank
        ctx.send(peer, {0: np.array([ctx.rank]), 1: np.array([time.monotonic()])})
        got = ctx.recv(peer)
        return int(got[0][0]), time.monotonic() - got[1][0]

    res = spawn_cluster(ClusterSpec(2, Throttled(latency=0.5)), body)
    for rank, (got, since_sent) in enumerate(res.results):
        assert got == 1 - rank
        assert since_sent >= 0.5


def _arrival_offsets(link, payloads):
    """Worker 0 sends the payloads to worker 1 back to back; returns how long
    after the first send each one arrived."""
    def body(ctx):
        if ctx.rank == 0:
            ctx.send(1, {0: np.array([time.monotonic()])})
            for payload in payloads:
                ctx.send(1, {0: payload})
            return None
        start = ctx.recv(0)[0][0]
        offsets = []
        for _ in payloads:
            ctx.recv(0)
            offsets.append(time.monotonic() - start)
        return offsets

    return spawn_cluster(ClusterSpec(2, link), body).results[1]


def test_latencies_of_back_to_back_messages_overlap():
    # only bytes/bandwidth holds a link: two empty messages sent together
    # both arrive one latency after they were sent, not the second after two
    latency = 0.4
    offsets = _arrival_offsets(Throttled(latency=latency), [np.zeros(0)] * 2)
    assert all(latency * 0.9 <= t < latency * 1.5 for t in offsets), offsets


def test_transfers_of_back_to_back_messages_serialize():
    # each message takes 0.1 s to leave its link: the second leaves after the
    # first and arrives at 0.2 s
    payload = np.zeros(125_000, dtype=np.float64)
    offsets = _arrival_offsets(Throttled(bandwidth=payload.nbytes / 0.1), [payload] * 2)
    assert offsets[0] >= 0.09 and 0.18 <= offsets[1] < 0.5, offsets


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
        values = [int(ctx.recv(0)[0][0]) for _ in range(3)]
        send_elapsed = float(ctx.recv(0)[0][0])
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
        late = [int(ctx.recv(2)[0][0]) for _ in range(3)]
        early = [int(ctx.recv(0)[0][0]) for _ in range(3)]
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
                    got = int(ctx.recv(src)[0][0])
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
        return int(ctx.recv(ctx.predecessor)[0][0])

    res = spawn_cluster(ClusterSpec(3), body)
    assert res.results == [2, 0, 1]


def test_ring_shift_loopback():
    def body(ctx):
        ctx.send(ctx.successor, {0: np.array([99])})
        return int(ctx.recv(ctx.predecessor)[0][0])

    res = spawn_cluster(ClusterSpec(1), body)
    assert res.results == [99]
    assert res.stats.total_bytes() == 0


def test_ring_shift_n_times_is_identity():
    n = 4

    def body(ctx):
        value = np.array([ctx.rank * 100])
        for step in range(n):
            ctx.send(ctx.successor, {0: value})
            value = ctx.recv(ctx.predecessor)[0]
        return int(value[0])

    res = spawn_cluster(ClusterSpec(n), body)
    assert res.results == [0, 100, 200, 300]


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
    assert isinstance(exc_info.value.cause, RecvTimeout)
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


@pytest.mark.parametrize("bad", ["inf", "nan", "0", "-1", "abc"])
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
            total = total + got[0]
        return total.tobytes()

    baseline = spawn_cluster(ClusterSpec(3), body).results
    for _ in range(19):
        assert spawn_cluster(ClusterSpec(3), body).results == baseline
