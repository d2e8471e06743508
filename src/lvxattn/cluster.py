"""In-process worker harness: n threads exchanging tensor messages.

Workers are threads, not OS processes; the transport mailboxes are the only
shared state and are internally synchronized. Tensors in payloads are passed
by reference and are immutable once sent. Two protocols hand a gradient
accumulator downstream: the dQ of `lvx`'s rotating backward tuple and the dK
and dV that travel with `ring`'s backward K/V block. The worker that receives
one owns it and adds its round's contribution in place; it never writes to
it after sending it on.

Payloads map tensor class names ("Q", "dK", ...) to arrays. Byte accounting
counts tensor payload bytes only (no framing, no metadata), and only for
src != dst: loopback delivery is free. The throttled transport delays
delivery in wall-clock time by latency + bytes/bandwidth per message,
serialized per directed link, so a blocked recv really waits.

A message is addressed by its directed link alone: a receive takes the
oldest message from the named source. A run that ends with a message still
queued fails, as a later receive on its link would have read it.

The transport is the one accounting path: each worker context adds the bytes
per class that `Cluster.send` counted, and the modeled time of the messages
it receives, to its open round, so protocol round traces and the link
counters cannot disagree.
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


class CollectiveTimeout(ClusterError):
    pass


class ClusterAborted(ClusterError):
    pass


class WorkerFailed(ClusterError):
    def __init__(self, worker: int, cause: BaseException):
        super().__init__(f"worker {worker} failed: {cause!r}")
        self.worker = worker
        self.cause = cause


@dataclass(frozen=True)
class Instant:
    """Zero-delay transport; modeled time is 0."""

    def message_seconds(self, nbytes: int) -> float:
        return 0.0


@dataclass(frozen=True)
class Throttled:
    """Per-message modeled time latency + bytes/bandwidth, applied in wall clock."""

    bandwidth: float            # bytes per second
    latency: float = 0.0        # seconds

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if not (math.isfinite(self.latency) and self.latency >= 0):
            raise ValueError(f"latency must be finite and nonnegative, got {self.latency}")

    def message_seconds(self, nbytes: int) -> float:
        return self.latency + nbytes / self.bandwidth


@dataclass(frozen=True)
class ClusterSpec:
    n: int
    transport: Instant | Throttled = Instant()

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
    meta: dict | None = None
    modeled_seconds: float = 0.0


class _Mailbox:
    """One destination's inbox: per source, its (arrival, message) pairs in
    send order."""

    def __init__(self):
        self.cond = threading.Condition()
        self.queues: defaultdict[int, deque] = defaultdict(deque)


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

    def send(self, src: int, dst: int, payload: dict, meta=None) -> dict[str, int]:
        """Queue a payload keyed by tensor class for dst; returns the bytes
        per class that the transport counted, 0 for each class on loopback."""
        self._check_rank("send dst", dst)
        payload = dict(payload)
        sizes = {cls: int(np.asarray(a).nbytes) for cls, a in payload.items()}
        nbytes = sum(sizes.values())
        if src == dst:
            modeled = 0.0
            sizes = dict.fromkeys(sizes, 0)
        else:
            modeled = self.transport.message_seconds(nbytes)
            self.stats.record(src, dst, nbytes, modeled)
        msg = Message(payload=payload, meta=meta, modeled_seconds=modeled)
        box = self._mailboxes[dst]
        with box.cond:
            # a message departs once the one queued before it on its link
            # has arrived, so each link delivers in send order
            queue = box.queues[src]
            now = time.monotonic()
            depart = max(now, queue[-1][0]) if queue else now
            queue.append((depart + modeled, msg))
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
                if now >= deadline:
                    raise CollectiveTimeout(f"worker {rank}: recv(src={src}) "
                                            f"timed out after {self.timeout}s")
                wake = min(queue[0][0], deadline) if queue else deadline
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
    epilogue_bytes_by_class: dict[str, int] = field(default_factory=dict)
    epilogue_comm_seconds: float = 0.0

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def total_sent_bytes(self) -> int:
        return (sum(r.sent_bytes for r in self.rounds)
                + sum(self.epilogue_bytes_by_class.values()))

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
            "epilogue_sent_bytes": self.epilogue_bytes_by_class,
            "epilogue_comm_seconds": self.epilogue_comm_seconds,
        }


class WorkerContext:
    """Per-worker handle: point-to-point send/recv plus an all-to-all
    collective. send is non-blocking (buffered); recv(src) blocks until the
    next message that src sent this worker arrives, in send order. A worker
    may hold one outstanding send, one outstanding recv, and local compute at
    the same time.

    The context also keeps the worker's round trace. Every `compute` adds the
    wall seconds of its kernel call to the open round, every send the bytes
    per class that the transport counted, every recv the modeled seconds of
    its message, and every all-to-all its slowest incoming message;
    `close_round` and `close_phase` end rounds and phases."""

    def __init__(self, cluster: Cluster, rank: int):
        self.cluster = cluster
        self.rank = rank
        self._rounds: list[RoundRecord] = []
        self._sent: dict[str, int] = {}
        self._waited = 0.0
        self._computed = 0.0

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

    def send(self, dst: int, payload: dict, meta=None) -> None:
        self._count(self.cluster.send(self.rank, dst, payload, meta=meta))

    def recv(self, src: int) -> Message:
        msg = self.cluster.recv(self.rank, src)
        self._waited += msg.modeled_seconds
        return msg

    def all_to_all(self, chunks: list) -> list:
        """Deliver chunk w (a payload keyed by class) to worker w; returns the
        n received payloads ordered by source id. The self-chunk takes the
        free loopback link; its classes count 0 bytes."""
        if len(chunks) != self.n:
            raise ClusterError(f"worker {self.rank}: all_to_all expects {self.n} chunks, "
                               f"got {len(chunks)}")
        for dst, chunk in enumerate(chunks):
            self.send(dst, chunk)
        msgs = [self.cluster.recv(self.rank, src) for src in range(self.n)]
        self._waited += max(msg.modeled_seconds for msg in msgs)
        return [msg.payload for msg in msgs]

    def compute(self, kernel, *args, **kwargs):
        """Run kernel(*args, **kwargs); add its wall seconds to the open round."""
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
        self._sent, self._waited, self._computed = {}, 0.0, 0.0

    def close_phase(self, strategy: str, phase: str) -> RoundTrace:
        """End a protocol phase, which began where the previous one ended (or
        at the context's start): its closed rounds, with what is still open
        as the epilogue."""
        trace = RoundTrace(strategy=strategy, phase=phase, rounds=self._rounds,
                           epilogue_bytes_by_class=self._sent,
                           epilogue_comm_seconds=self._waited)
        self._rounds, self._sent, self._waited, self._computed = [], {}, 0.0, 0.0
        return trace


@dataclass
class ClusterResult:
    results: list
    stats: TransportStats


def _resolve_timeout() -> float:
    """The recv timeout in seconds: the environment variable, else the
    default. It must be finite and positive."""
    timeout = os.environ.get(TIMEOUT_ENV_VAR) or DEFAULT_TIMEOUT_SECONDS
    value = float(timeout)
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
