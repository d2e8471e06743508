"""Closed-form communication volumes for the distributed attention protocols.

This module is the single place that pins down which tensor classes travel in
each protocol round, so the analytic cost model, the accounting-only report
and the byte counters measured by the transport cannot drift apart. Counts
are tensor payload bytes only, matching the transport's accounting, and a
message a worker addresses to itself costs 0 because loopback delivery is
free (so every count is 0 for n = 1).

`HOPS[(strategy, phase)]` lists the messages of one protocol phase. A hop
carries its tensor `classes`; each class row holds h*d elements (Q, K, V, O
and the gradients) or h elements (the L and D row statistics). Its rows are
those of one block along its `axis`: |q_j| or |kv_j| for block j, indices
mod n, b bytes per element. On worker i the hop fires as its `when` says:

  ROUND     in ring round r = 0..n-1 (0..n-2 with `skips_last_round`) it sends
            block i-r+offset to the successor
  EPILOGUE  once after the rounds, sending block i+offset to the successor
  OWN       an all-to-all in round 0: to every other worker, worker i's own
            rows of h/n heads
  PEER      an all-to-all in round 0: to every other worker w, w's rows of
            h/n heads

So query rotation forward sends (|q_{i-r+1}| (h*d + h) + |q_{i-r}| h*d) b in
round r (the O, L just finished plus the Q in flight) and |q_{i+1}| (h*d + h) b
home in its epilogue; head parallelism gathers (n-1) (|q_i| + 2 |kv_i|) (h/n) d b
and scatters sum_{w != i} |q_w| (h/n) (d + 1) b forward.
"""

from __future__ import annotations

from dataclasses import dataclass

ROUND, EPILOGUE, OWN, PEER = "round", "epilogue", "own", "peer"
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
    when: str                       # ROUND, EPILOGUE, OWN or PEER
    offset: int = 0
    skips_last_round: bool = False


HOPS = {
    ("lvx", "forward"): (Hop(("O", "L"), "q", ROUND, offset=1), Hop(("Q",), "q", ROUND),
                         Hop(("O", "L"), "q", EPILOGUE, offset=1)),
    # the round n-1 send doubles as the homecoming hop
    ("lvx", "backward"): (Hop(("Q", "dO", "L", "D", "dQ"), "q", ROUND),),
    ("ring", "forward"): (Hop(("K", "V"), "kv", ROUND, skips_last_round=True),),
    ("ring", "backward"): (Hop(("K", "V", "dK", "dV"), "kv", ROUND, skips_last_round=True),
                           Hop(("dK", "dV"), "kv", EPILOGUE, offset=1)),
    ("head", "forward"): (Hop(("Q",), "q", OWN), Hop(("K", "V"), "kv", OWN),
                          Hop(("O", "L"), "q", PEER)),
    ("head", "backward"): (Hop(("dO",), "q", OWN), Hop(("dQ",), "q", PEER),
                           Hop(("dK", "dV"), "kv", PEER)),
}
HOPS |= {("single", phase): HOPS[("ring", phase)] for phase in PHASES}  # ring on one worker


def class_row_elems(cls: str, heads: int, d: int) -> int:
    hd, hf = CLASS_ROW_ELEMS[cls]
    return hd * heads * d + hf * heads


def sent_by_class(strategy: str, phase: str, i: int, r: int | None, q_sizes, kv_sizes,
                  h: int, d: int, elem_bytes: int) -> dict[str, int]:
    """Bytes per tensor class that worker i sends in round r, or in the
    epilogue when r is None; only the classes of hops that fire appear."""
    n = len(q_sizes)
    sizes = {"q": q_sizes, "kv": kv_sizes}
    out = {}
    for hop in HOPS[(strategy, phase)]:
        rows = sizes[hop.axis]
        if hop.when == ROUND and r is not None and r < n - hop.skips_last_round:
            messages = [((i + 1) % n, rows[(i - r + hop.offset) % n], h)]
        elif hop.when == EPILOGUE and r is None:
            messages = [((i + 1) % n, rows[(i + hop.offset) % n], h)]
        elif hop.when in (OWN, PEER) and r == 0:
            messages = [(w, rows[i if hop.when == OWN else w], h // n) for w in range(n)]
        else:
            continue
        for cls in hop.classes:
            out[cls] = elem_bytes * sum(rows_sent * class_row_elems(cls, heads, d)
                                        for dst, rows_sent, heads in messages if dst != i)
    return out


def bytes_by_worker(strategy: str, phase: str, q_sizes, kv_sizes, h: int, d: int,
                    elem_bytes: int) -> list[int]:
    """Total payload bytes each worker sends in one phase, rounds plus epilogue."""
    n = len(q_sizes)
    return [sum(sum(sent_by_class(strategy, phase, i, r, q_sizes, kv_sizes, h, d,
                                  elem_bytes).values())
                for r in [*range(n), None])
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
