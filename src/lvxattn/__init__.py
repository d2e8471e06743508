"""Distributed cross-attention engine for very long key/value sequences.

The query-rotation strategy keeps the large key/value blocks resident on each
worker and circulates the small query/output/statistics blocks instead, which
shrinks communication volume by orders of magnitude when S_KV >> S_Q. KV
rotation and head parallelism ship as baselines, every strategy is verified
against a dense oracle, and the transport counts bytes exactly so the
analytic cost model can be checked against measured traffic.
"""

from .analytics import (HardwareSpec, RegimeReport, WorkloadSpec, classify_regime,
                        get_preset, memory_cross_attention, round_times, speedup,
                        speedup_closed_form, sweep, volume_report,
                        workload_from_video)
from .cluster import (ClusterSpec, RoundTrace, Throttled, TransportStats,
                      WorkerContext, spawn_cluster)
from .kernels import (AttentionState, GradientBundle, blockwise_attention,
                      blockwise_attention_backward, dense_attention,
                      dense_attention_backward, empty_state, merge_states,
                      project, project_backward)
from .mllm import (ActivationPolicy, MemoryLedger, ModelParams, ToyMllmConfig,
                   analytic_ledger, max_frames_under_budget, mllm_backward,
                   mllm_forward)
from .strategies import ShardSpec, StrategyKind, partition_rows, run_distributed
from .tensorio import load_tensor, seeded_random_tensor, store_tensor

__version__ = "0.1.0"

__all__ = [
    "ActivationPolicy", "AttentionState", "ClusterSpec", "GradientBundle",
    "HardwareSpec", "MemoryLedger", "ModelParams",
    "RegimeReport", "RoundTrace", "ShardSpec", "StrategyKind", "Throttled",
    "ToyMllmConfig", "TransportStats", "WorkerContext", "WorkloadSpec",
    "analytic_ledger", "blockwise_attention", "blockwise_attention_backward",
    "classify_regime", "dense_attention", "dense_attention_backward",
    "empty_state", "get_preset", "load_tensor", "max_frames_under_budget",
    "memory_cross_attention", "merge_states", "mllm_backward", "mllm_forward",
    "partition_rows", "project", "project_backward", "round_times",
    "run_distributed", "seeded_random_tensor", "spawn_cluster", "speedup",
    "speedup_closed_form", "store_tensor", "sweep", "volume_report",
    "workload_from_video",
]
