"""In-process worker harness: n threads exchanging tensor messages.

Workers are threads, not OS processes; the transport mailboxes are the only
shared state and are internally synchronized. Tensors in payloads are passed
by reference and are immutable once sent. Two protocols hand a gradient
accumulator downstream in messages of its own: the dQ of each `lvx`
backward query block, and the dK and dV of each `ring` backward K/V block,
one piece per kernel tile. The worker that receives one owns it until it
sends it on, and never writes to it after that. An `lvx` worker adds it
into the fresh block its kernel wrote dQ into and sends that block on in
its place. A `ring` accumulator piece is created by the worker before the
block's owner, whose kernel writes its contribution into it; each later
worker's kernel adds into the piece it received, and the last receiver, the
block's owner, adds the piece into its own contribution.

Payloads map tensor class names ("Q", "dK", ...) to arrays. Byte accounting
counts tensor payload bytes only (no framing, no block id), and only for
src != dst: loopback delivery is free. The one link model, `Throttled`,
models each message as latency + bytes/bandwidth seconds and delays its
delivery in wall-clock time, so a blocked recv really waits. A message holds
its directed link for bytes/bandwidth only: it starts to leave once the
message before it has left, and arrives `latency` after it has left, so the
latencies of messages sent back to back overlap while their transfers
serialize. Its defaults, infinite bandwidth and no latency, are the instant
link: modeled time 0.

Every message goes point to point, addressed by its directed link alone: a
receive takes the oldest message from the named source. A message may carry
one block id, which the receiving worker context checks against the id it
expects. A receive waits for a message already sent until it arrives,
however slow its link; the timeout bounds only the wait for a message that
no worker has sent. A run that ends with a message still queued fails, as a
later receive on its link would have read it.

The transport is the one accounting path: each worker context adds the bytes
per class that `Cluster.send` counted, and the modeled time of every message
it receives, to its open round, so protocol round traces and the link
counters cannot disagree: a worker's wait, summed over its rounds, is the
modeled time of the links into it. Every send, receive and kernel call
falls in a round: a phase that ends with a round still open is refused.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import defaultdict, deque
from dataclasses import asdict, dataclass, field

import numpy as np

DEFAULT_TIMEOUT_SECONDS = 30.0
TIMEOUT_ENV_VAR = "LVX_TIMEOUT_SECS"


class ClusterError(RuntimeError):
    pass


class RecvTimeout(ClusterError):
    pass


class ClusterAborted(ClusterError):
    pass


class WorkerFailed(ClusterError):
    def __init__(self, worker: int, cause: BaseException):
        super().__init__(f"worker {worker} failed: {cause!r}")
        self.worker = worker
        self.cause = cause


@dataclass(frozen=True)
class Throttled:
    """Per-message modeled time latency + bytes/bandwidth, applied in wall
    clock. Only the bytes/bandwidth part holds the link; the latency of
    messages sent back to back overlaps. The defaults are the instant link:
    0 + bytes/inf = 0 seconds."""

    bandwidth: float = math.inf     # bytes per second
    latency: float = 0.0            # seconds

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if not (math.isfinite(self.latency) and self.latency >= 0):
            raise ValueError(f"latency must be finite and nonnegative, got {self.latency}")

    def transfer_seconds(self, nbytes: int) -> float:
        return nbytes / self.bandwidth

    def message_seconds(self, nbytes: int) -> float:
        return self.latency + self.transfer_seconds(nbytes)


@dataclass(frozen=True)
class ClusterSpec:
    n: int
    transport: Throttled = Throttled()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"worker count must be >= 1, got {self.n}")


@dataclass
class LinkStats:
    bytes_sent: int = 0
    message_count: int = 0
    modeled_time_seconds: float = 0.0


class TransportStats:
    """Per ordered (src, dst) pair counters; loopback never appears."""

    def __init__(self):
        self._links: dict[tuple[int, int], LinkStats] = {}
        self._lock = threading.Lock()

    def record(self, src: int, dst: int, nbytes: int, modeled_seconds: float) -> None:
        with self._lock:
            link = self._links.setdefault((src, dst), LinkStats())
            link.bytes_sent += nbytes
            link.message_count += 1
            link.modeled_time_seconds += modeled_seconds

    def link(self, src: int, dst: int) -> LinkStats:
        return self._links.get((src, dst), LinkStats())

    def bytes_sent_by(self, src: int) -> int:
        return sum(s.bytes_sent for (a, _), s in self._links.items() if a == src)

    def total_bytes(self) -> int:
        return sum(s.bytes_sent for s in self._links.values())

    def total_modeled_seconds(self) -> float:
        return sum(s.modeled_time_seconds for s in self._links.values())

    def as_dict(self) -> dict:
        return {f"{src}->{dst}": asdict(s) for (src, dst), s in sorted(self._links.items())}


@dataclass
class Message:
    payload: dict[str, np.ndarray]
    block: int | None = None
    modeled_seconds: float = 0.0


class _Mailbox:
    """One destination's inbox: per source, its (arrival, message) pairs in
    send order, and when the link from that source is next free."""

    def __init__(self):
        self.cond = threading.Condition()
        self.queues: defaultdict[int, deque] = defaultdict(deque)
        self.free_at: defaultdict[int, float] = defaultdict(float)


class Cluster:
    def __init__(self, spec: ClusterSpec):
        self.n = spec.n
        self.transport = spec.transport
        self.stats = TransportStats()
        self.timeout = _resolve_timeout()
        self._mailboxes = [_Mailbox() for _ in range(spec.n)]
        self._fail_lock = threading.Lock()
        self.first_failure: tuple[int, BaseException] | None = None

    def fail(self, rank: int, exc: BaseException) -> None:
        with self._fail_lock:
            if self.first_failure is None:
                self.first_failure = (rank, exc)
        for box in self._mailboxes:
            with box.cond:
                box.cond.notify_all()

    def send(self, src: int, dst: int, payload: dict, block: int | None = None) -> dict[str, int]:
        """Queue a payload keyed by tensor class for dst; returns the bytes
        per class that the transport counted, 0 for each class on loopback."""
        self._check_rank("send dst", dst)
        payload = dict(payload)
        sizes = {cls: int(np.asarray(a).nbytes) for cls, a in payload.items()}
        nbytes = sum(sizes.values())
        if src == dst:
            modeled = transfer = 0.0
            sizes = dict.fromkeys(sizes, 0)
        else:
            modeled = self.transport.message_seconds(nbytes)
            transfer = self.transport.transfer_seconds(nbytes)
            self.stats.record(src, dst, nbytes, modeled)
        msg = Message(payload=payload, block=block, modeled_seconds=modeled)
        box = self._mailboxes[dst]
        with box.cond:
            # a message starts to leave once the one before it on its link
            # has left, takes bytes/bandwidth to leave and arrives latency
            # later: one latency for all, so each link delivers in send order
            depart = max(time.monotonic(), box.free_at[src])
            box.free_at[src] = depart + transfer
            box.queues[src].append((depart + modeled, msg))
            box.cond.notify_all()
        return sizes

    def recv(self, rank: int, src: int) -> Message:
        self._check_rank("recv src", src)
        box = self._mailboxes[rank]
        deadline = time.monotonic() + self.timeout
        with box.cond:
            queue = box.queues[src]
            while True:
                if self.first_failure is not None:
                    raise ClusterAborted(f"worker {rank}: cluster aborted while receiving "
                                         f"(src={src})")
                now = time.monotonic()
                if queue and queue[0][0] <= now:
                    return queue.popleft()[1]
                if not queue and now >= deadline:
                    raise RecvTimeout(f"worker {rank}: recv(src={src}) "
                                      f"timed out after {self.timeout}s")
                wake = queue[0][0] if queue else deadline
                box.cond.wait(timeout=max(wake - now, 1e-4))

    def _check_rank(self, what: str, rank: int) -> None:
        if not (0 <= rank < self.n):
            raise ClusterError(f"{what} {rank} out of range for {self.n} workers")

    def check_drained(self) -> None:
        for dst, box in enumerate(self._mailboxes):
            for src, queue in sorted(box.queues.items()):
                if queue:
                    raise ClusterError(f"{len(queue)} message(s) from worker {src} to "
                                       f"worker {dst} were never received")


@dataclass
class RoundRecord:
    index: int
    compute_seconds: float      # measured kernel wall time
    comm_seconds: float         # modeled time of the messages received
    sent_bytes_by_class: dict[str, int]

    @property
    def sent_bytes(self) -> int:
        return sum(self.sent_bytes_by_class.values())


@dataclass
class RoundTrace:
    strategy: str
    phase: str
    rounds: list[RoundRecord] = field(default_factory=list)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def total_sent_bytes(self) -> int:
        return sum(r.sent_bytes for r in self.rounds)

    def compute_only_seconds(self) -> float:
        return sum(r.compute_seconds for r in self.rounds)

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "phase": self.phase,
            "rounds": [
                {"index": r.index, "compute_seconds": r.compute_seconds,
                 "comm_seconds": r.comm_seconds, "sent_bytes": r.sent_bytes_by_class}
                for r in self.rounds
            ],
            # always empty: nothing follows a phase's last round; the key
            # stays only because perfbench/workloads.py reads it
            "epilogue_sent_bytes": {},
        }


class WorkerContext:
    """Per-worker handle: point-to-point send and recv, the one message path.
    send is non-blocking (buffered); recv(src, block=) blocks until the next
    message that src sent this worker arrives, in send order, checks its
    block id when one is expected, and returns its payload. A worker may
    have any number of sends in flight while it computes.

    The context also keeps the worker's round trace. Every `compute` adds the
    wall seconds of its kernel call to the open round, every send the bytes
    per class that the transport counted, and every recv the modeled seconds
    of its message; `close_round` and `close_phase` end rounds and phases."""

    def __init__(self, cluster: Cluster, rank: int):
        self.cluster = cluster
        self.rank = rank
        self._rounds: list[RoundRecord] = []
        self._sent: dict[str, int] = {}
        self._waited = 0.0
        self._computed = 0.0
        self._open = False      # a send, recv or compute since the last close_round

    @property
    def n(self) -> int:
        return self.cluster.n

    @property
    def successor(self) -> int:
        return (self.rank + 1) % self.n

    @property
    def predecessor(self) -> int:
        return (self.rank - 1) % self.n

    def _count(self, sizes: dict[str, int]) -> None:
        for cls, nbytes in sizes.items():
            self._sent[cls] = self._sent.get(cls, 0) + nbytes

    def send(self, dst: int, payload: dict, block: int | None = None) -> None:
        self._open = True
        self._count(self.cluster.send(self.rank, dst, payload, block=block))

    def recv(self, src: int, block: int | None = None) -> dict:
        self._open = True
        msg = self.cluster.recv(self.rank, src)
        self._waited += msg.modeled_seconds
        if block is not None and msg.block != block:
            raise ClusterError(f"worker {self.rank} round {len(self._rounds)}: recv(src={src}) "
                               f"expected block {block}, got {msg.block}")
        return msg.payload

    def compute(self, kernel, *args, **kwargs):
        """Run kernel(*args, **kwargs); add its wall seconds to the open round."""
        self._open = True
        t0 = time.perf_counter()
        out = kernel(*args, **kwargs)
        self._computed += time.perf_counter() - t0
        return out

    def close_round(self) -> None:
        """End the open round."""
        self._rounds.append(RoundRecord(index=len(self._rounds),
                                        compute_seconds=self._computed,
                                        comm_seconds=self._waited,
                                        sent_bytes_by_class=self._sent))
        self._sent, self._waited, self._computed, self._open = {}, 0.0, 0.0, False

    def close_phase(self, strategy: str, phase: str) -> RoundTrace:
        """End a protocol phase, which began where the previous one ended (or
        at the context's start), and return its closed rounds. A send, recv or
        compute after the last `close_round` is refused."""
        if self._open:
            raise ClusterError(f"worker {self.rank} {strategy} {phase}: a send, recv or "
                               f"compute follows the phase's last close_round")
        trace = RoundTrace(strategy=strategy, phase=phase, rounds=self._rounds)
        self._rounds = []
        return trace


@dataclass
class ClusterResult:
    results: list
    stats: TransportStats


def _resolve_timeout() -> float:
    """The recv timeout in seconds: the environment variable, else the
    default. It must be finite and positive."""
    timeout = os.environ.get(TIMEOUT_ENV_VAR) or DEFAULT_TIMEOUT_SECONDS
    try:
        value = float(timeout)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{TIMEOUT_ENV_VAR} must be finite and positive seconds, "
                         f"got {timeout!r}")
    return value


def spawn_cluster(spec: ClusterSpec, worker_body) -> ClusterResult:
    """Run worker_body(ctx) on n workers, block until all finish, and return
    their results in rank order plus the transport counters. The first worker
    error aborts the cluster and is re-raised naming the worker; a message
    that no worker received fails the run naming its link."""
    cluster = Cluster(spec)
    results: list = [None] * spec.n

    def run(rank: int) -> None:
        ctx = WorkerContext(cluster, rank)
        try:
            results[rank] = worker_body(ctx)
        except BaseException as exc:   # surfaced via WorkerFailed below
            cluster.fail(rank, exc)

    threads = [threading.Thread(target=run, args=(rank,), name=f"lvx-worker-{rank}")
               for rank in range(spec.n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if cluster.first_failure is not None:
        rank, exc = cluster.first_failure
        raise WorkerFailed(rank, exc) from exc
    cluster.check_drained()
    return ClusterResult(results=results, stats=cluster.stats)
