"""The metric catalogue ``BENCHMARK.json`` records, and the per-layer split.

Every workload prints every end-to-end metric (untraced run) and every
per-layer metric (traced run); a layer the workload never calls reads 0.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: name, unit, better, bound (share of the parent's median).
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("write_p50_ms", "ms", "lower", 0.25),
    ("write_p90_ms", "ms", "lower", 0.25),
    ("read_p50_ms", "ms", "lower", 0.25),
    ("read_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("ok_frac", "1", "higher", 0.01),
]

#: Functions traced at each layer boundary (``<layer>.<function>``).
TRACED = [
    "channels.request_connection",
    "channels.terminate_connection",
    "channels.average_live_bandwidth",
    "channels.level_histogram",
    "channels.redistribute_all",
    "channels.fail_link",
    "channels.repair_link",
    "channels.state_digest",
    "elastic.redistribute_soa",
    "elastic.drop_to_minimum_soa",
    "routing.primary_plan",
    "routing.raw_disjoint_backup",
    "sim.estimator.observe",
    "markov.average_bandwidth",
    "topology.build",
    "service.protocol.decode_line",
    "service.protocol.parse_request",
    "service.protocol.encode_line",
    "service.engine.validate",
    "service.engine.apply_batch",
    "service.engine.apply_sequential",
    "service.engine.query",
    "service.wal.log_events",
    "service.wal.log_epoch",
    "service.wal.fsync",
    "service.wal.read",
    "service.replay.replay_log",
]

#: Derived per-layer figures: name, unit, better.
DERIVED: List[Tuple[str, str, str]] = [
    ("elastic.redistribute_soa.candidates_mean", "count", "lower"),
    ("routing.cache_hit_ratio", "1", "higher"),
    ("channels.accept_ratio", "1", "higher"),
    ("service.engine.apply_batch.batch_mean", "count", "higher"),
    ("service.wal.bytes_per_event", "B", "lower"),
    ("service.recovery_s", "s", "lower"),
    ("service.loop_other_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_frac", "1", "lower"),
]

#: name, unit, better.
PER_LAYER: List[Tuple[str, str, str]] = [
    item
    for name in TRACED
    for item in ((f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"))
] + DERIVED


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: Dict[str, float], measures: Dict[str, float]) -> Dict[str, float]:
    """Per-layer figures from a span summary plus the wrappers' measures."""
    out = {name: 0.0 for name, *_ in PER_LAYER}
    for name, *_ in PER_LAYER:
        if name in summary:
            out[name] = summary[name]
    out["elastic.redistribute_soa.candidates_mean"] = _ratio(
        measures.get("elastic.redistribute_soa.candidates", 0.0),
        summary.get("elastic.redistribute_soa.calls", 0.0),
    )
    out["routing.cache_hit_ratio"] = _ratio(
        measures.get("routing.primary_plan.hits", 0.0),
        summary.get("routing.primary_plan.calls", 0.0),
    )
    out["service.engine.apply_batch.batch_mean"] = _ratio(
        measures.get("service.engine.apply_batch.batch", 0.0),
        summary.get("service.engine.apply_batch.calls", 0.0),
    )
    return out
