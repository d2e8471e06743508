"""The benchmark's traced run still sees every layer it measures.

`perfbench/tracer.py` wraps module-level names of the program and
`perfbench/workloads.py` drives it through public functions. A refactor that
moves a call out of reach of those wrappers would silently zero a per-layer
metric; this test runs one cycle of the small CLI workload under the tracer
and checks that the spans are there. It asserts no timings.
"""

import importlib
from pathlib import Path

from lvxattn import strategies

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = ("kernels.blockwise_attention", "strategies.spawn_cluster", "cluster.worker",
         "cluster.send", "cluster.recv")


def test_small_cli_runs_cycle_is_traced(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    workload = workloads.SmallCliRuns()
    state = workload.build(seed=0, workdir=tmp_path)
    spawn = strategies.spawn_cluster
    t = tracer.Tracer()
    t.install()
    try:
        for _ in workload.CALLS:    # one call each of lvx, ring, head and single
            times, outs = workload.op(state)
            workload.check(state, times, outs)
    finally:
        t.uninstall()
    assert strategies.spawn_cluster is spawn
    names = {s.name for s in t.spans}
    assert set(SPANS) <= names, sorted(set(SPANS) - names)
    runs = [s.attrs["strategy"] for s in t.spans if s.name == "strategies.run_distributed"]
    assert sorted(set(runs)) == ["head", "lvx", "ring", "single"]
