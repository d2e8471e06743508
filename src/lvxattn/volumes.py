"""Closed-form communication volumes for the distributed attention protocols.

This module is the single place that pins down which tensor classes travel in
each protocol round, so the analytic cost model, the `cost` report and the
byte counters measured by the transport cannot drift apart. Counts are
tensor payload bytes only, matching the transport's accounting, and a
message a worker addresses to itself costs 0 because loopback delivery is
free (so every count is 0 for n = 1).

`HOPS[(strategy, phase)]` lists the hops of one protocol phase in the
order a worker sends them. A hop carries its tensor `classes`; each class
row holds h*d elements (Q, K, V, O and the gradients) or h elements (the L
and D row statistics). Its rows are those of one block along its `axis`:
|q_j| or |kv_j| for block j, indices mod n, b bytes per element. On worker
i the hop fires as its `when` says:

  ROUND     in each of the n ring rounds but its last `skip`, round r,
            it sends block i - direction*r + offset to worker
            i + direction: the successor for direction +1, the predecessor
            for -1
  OWN       an all-to-all in round 0: to every other worker, worker i's own
            rows of h/n heads
  PEER      an all-to-all in round 0: to every other worker w, w's rows of
            h/n heads

How a hop is cut into messages changes no byte count. `lvx` sends a
query block's read-only part (Q in the forward; Q, dO, L and D in the
backward) before the round's kernel and its accumulator ((O, L); dQ) after
it. `ring` and `head` move K/V and dK/dV in the pieces that `kv_messages`
lists; per head, the `head` forward's Q rows ride on a worker's first K/V
piece and the backward's dQ rows on its last dK/dV piece, and O, L and dO
travel as one message to each worker.

So query rotation forward sends |q_{i-r}| (2 h*d + h) b in rounds 0..n-2 (the
Q in flight and the O, L just merged) and |q_{i+1}| (h*d + h) b home in round
n-1. The kv rotation backward starts from block i+1, which its forward ended
with, and sends to the predecessor 2 |kv_{i+1+r}| h*d b of (K, V) in rounds
0..n-3 and as many of the (dK, dV) accumulator in rounds 0..n-2, as the
accumulator of block j starts at worker j-1 and ends at its owner:
2(n-2) + 2(n-1) K/V-sized blocks, none of them K or V at n = 2.
Head parallelism gathers (n-1) (|q_i| + 2 |kv_i|) (h/n) d b and scatters
sum_{w != i} |q_w| (h/n) (d + 1) b forward.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product

from .kernels import tile_pieces

ROUND, OWN, PEER = "round", "own", "peer"
PHASES = ("forward", "backward")

# Elements per block row for each message class, as (hd_factor, h_factor):
# row elements = hd_factor * heads * d + h_factor * heads.
CLASS_ROW_ELEMS = {
    "Q": (1, 0), "O": (1, 0), "dO": (1, 0), "dQ": (1, 0),
    "K": (1, 0), "V": (1, 0), "dK": (1, 0), "dV": (1, 0),
    "L": (0, 1), "D": (0, 1),
}


@dataclass(frozen=True)
class Hop:
    classes: tuple[str, ...]
    axis: str                       # "q" or "kv"
    when: str                       # ROUND, OWN or PEER
    offset: int = 0
    skip: int = 0                       # final rounds a ROUND hop skips
    direction: int = 1                  # +1 successor, -1 predecessor, for a ROUND hop


HOPS = {
    # lvx: the read-only part leaves while r < n-1, the accumulator in every
    # round, so the round n-1 accumulator sends are the homecoming hops
    ("lvx", "forward"): (Hop(("Q",), "q", ROUND, skip=1),
                         Hop(("O", "L"), "q", ROUND)),
    ("lvx", "backward"): (Hop(("Q", "dO", "L", "D"), "q", ROUND, skip=1),
                          Hop(("dQ",), "q", ROUND)),
    ("ring", "forward"): (Hop(("K", "V"), "kv", ROUND, skip=1),),
    # the backward starts from block i+1, which the forward ended with, and
    # its accumulator of block j starts at worker j-1 and ends at its owner
    ("ring", "backward"): (Hop(("K", "V"), "kv", ROUND, offset=1, skip=2,
                               direction=-1),
                           Hop(("dK", "dV"), "kv", ROUND, offset=1, skip=1,
                               direction=-1)),
    ("head", "forward"): (Hop(("Q",), "q", OWN), Hop(("K", "V"), "kv", OWN),
                          Hop(("O", "L"), "q", PEER)),
    ("head", "backward"): (Hop(("dO",), "q", OWN), Hop(("dQ",), "q", PEER),
                           Hop(("dK", "dV"), "kv", PEER)),
}
HOPS |= {("single", phase): HOPS[("ring", phase)] for phase in PHASES}  # ring on one worker


def class_row_elems(cls: str, heads: int, d: int) -> int:
    hd, hf = CLASS_ROW_ELEMS[cls]
    return hd * heads * d + hf * heads


def _transfers(strategy: str, phase: str, i: int, r: int, q_sizes, kv_sizes, h: int):
    """Yield (hop, destination, block, (a, b), heads) for each transfer of
    worker i in round r, with the block's rows [a, b) counted from its first
    row on a ROUND hop, else from the sequence's first row."""
    n = len(q_sizes)
    for hop in HOPS[(strategy, phase)]:
        rows = q_sizes if hop.axis == "q" else kv_sizes
        if hop.when == ROUND and r < n - hop.skip:
            block = (i - hop.direction * r + hop.offset) % n
            yield hop, (i + hop.direction) % n, block, (0, rows[block]), h
        elif hop.when in (OWN, PEER) and r == 0:
            starts = list(accumulate(rows, initial=0))
            for w, block in enumerate([i] * n if hop.when == OWN else range(n)):
                yield hop, w, block, (starts[block], starts[block + 1]), h // n


def sent_by_class(strategy: str, phase: str, i: int, r: int, q_sizes, kv_sizes,
                  h: int, d: int, elem_bytes: int) -> dict[str, int]:
    """Bytes per tensor class that worker i sends in round r; only the
    classes of hops that fire appear."""
    out = {}
    for hop, dst, _, (a, b), heads in _transfers(strategy, phase, i, r, q_sizes, kv_sizes, h):
        for cls in hop.classes:
            sent = elem_bytes * (b - a) * class_row_elems(cls, heads, d) if dst != i else 0
            out[cls] = out.get(cls, 0) + sent
    return out


def kv_messages(strategy: str, phase: str, i: int, r: int, q_sizes, kv_sizes, h: int):
    """Yield (classes, destination, id, rows, heads) for each message of the
    K/V-axis transfers of worker i in round r, cut by `tile_pieces`: a ROUND
    block under its id, an OWN or PEER block one head at a time under the
    head's index among its owner's heads. Each link carries them in order."""
    for hop, dst, block, (a, b), heads in _transfers(strategy, phase, i, r, q_sizes, kv_sizes, h):
        if hop.axis == "kv":
            ids, per = ([block], heads) if hop.when == ROUND else (range(heads), 1)
            for k, (pa, pb) in product(ids, tile_pieces(a, b)):
                yield hop.classes, dst, k, pb - pa, per


def bytes_by_worker(strategy: str, phase: str, q_sizes, kv_sizes, h: int, d: int,
                    elem_bytes: int) -> list[int]:
    """Total payload bytes each worker sends in one phase over its n rounds."""
    n = len(q_sizes)
    return [sum(sum(sent_by_class(strategy, phase, i, r, q_sizes, kv_sizes, h, d,
                                  elem_bytes).values())
                for r in range(n))
            for i in range(n)]


def round_model_elems(strategy: str, phase: str, s_q: float, s_kv: float,
                      n: int, h: int, d: int) -> float:
    """Steady-state per-round element count of the ROUND hops with even S/n
    shards, as the cost model uses it: S_Q/n rows per q-axis block and
    S_KV/n per kv-axis block."""
    row_elems = {}
    for hop in HOPS[(strategy, phase)]:
        if hop.when == ROUND:
            row_elems[hop.axis] = (row_elems.get(hop.axis, 0)
                                   + sum(class_row_elems(c, h, d) for c in hop.classes))
    rows = {"q": s_q / n, "kv": s_kv / n}
    return sum(rows[axis] * elems for axis, elems in row_elems.items())
