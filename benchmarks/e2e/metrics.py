"""Metric declarations: names, units, direction and bounds.

``BENCHMARK.json`` at the repo root repeats the ``manifest`` subset of
these (the smoke test keeps the two in step).  The report prints all of
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import layers


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the first measurement by which a second one may differ:
    #: ``BENCHMARK.json``'s bound, and --repeat-check's tolerance.
    bound: float
    #: ``BENCHMARK.json``'s end_to_end list only takes metrics that are
    #: non-zero numbers on every workload.  The others are carried there
    #: as the per-layer metric ``e2e.<name>`` and gated by --repeat-check.
    in_manifest: bool = True
    #: Simulated-clock values: two runs with one seed must agree exactly.
    exact_on_sim: bool = False
    #: Differences below this always agree (metrics that can be near 0).
    absolute_floor: float = 0.0


# The time-like bounds are the widest BENCHMARK.json allows: the 2-core
# box runs 10-25 % slower for minutes at a time, and ten-run sets taken in
# such a phase spread by up to 14 % (README, "Measured spread").  What a
# 25 % bound cannot see, the exact gates on the simulated-clock values and
# the per-layer counts can.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("commits_per_s", "txn/s", "higher", 0.25),
    EndToEnd("commit_latency_p50_ms", "ms", "lower", 0.25, exact_on_sim=True),
    EndToEnd("commit_latency_p99_ms", "ms", "lower", 0.25, exact_on_sim=True),
    EndToEnd("failure_ratio", "ratio", "lower", 0.0, in_manifest=False,
             exact_on_sim=True, absolute_floor=0.01),
    EndToEnd("setup_s", "s", "lower", 0.25, absolute_floor=0.05),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10),
    EndToEnd("drain_sim_s", "s", "lower", 0.0, in_manifest=False, exact_on_sim=True),
    EndToEnd("restart_to_commit_ms", "ms", "lower", 0.25, in_manifest=False),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str


def _layer_metrics() -> List[PerLayer]:
    declared: List[PerLayer] = []
    for layer in layers.LAYERS:
        declared.append(PerLayer(f"{layer}.calls_per_commit", "1/txn", "lower"))
        declared.append(PerLayer(f"{layer}.self_us_per_commit", "us/txn", "lower"))
        declared.append(PerLayer(f"{layer}.share", "ratio", "lower"))
    return declared


COUNTERS: Tuple[PerLayer, ...] = (
    PerLayer("core.conditions.cache_hit_ratio", "ratio", "higher"),
    PerLayer("core.polyvalue.installed", "count", "lower"),
    PerLayer("core.polyvalue.peak", "count", "lower"),
    PerLayer("core.polytransaction.polytxn_share", "ratio", "higher"),
    PerLayer("core.polytransaction.mean_fanout", "count", "lower"),
    PerLayer("core.outcome.residual", "count", "lower"),
    PerLayer("db.locks.denied_ratio", "ratio", "lower"),
    PerLayer("txn.site.commit_latency_rtts", "rtt", "lower"),
    PerLayer("net.msgs_per_commit", "1/txn", "lower"),
    PerLayer("net.dropped_per_commit", "1/txn", "lower"),
    PerLayer("net.anchor_msgs_polyvalue", "count", "lower"),
    PerLayer("net.anchor_msgs_paxos", "count", "lower"),
    PerLayer("sim.engine.events_per_commit", "1/txn", "lower"),
    PerLayer("sim.engine.events_per_s", "1/s", "higher"),
    PerLayer("live.wire.bytes_per_commit", "B/txn", "lower"),
    PerLayer("runtime.aio.reconnects", "count", "lower"),
    PerLayer("runtime.aio.handler_errors", "count", "lower"),
    PerLayer("runtime.aio.loop_idle_share", "ratio", "higher"),
    PerLayer("runtime.aio.checkpoint.writes_per_commit", "1/txn", "lower"),
    PerLayer("runtime.aio.checkpoint.bytes_per_commit", "B/txn", "lower"),
    PerLayer("runtime.aio.checkpoint.bytes_growth", "ratio", "lower"),
    PerLayer("runtime.aio.checkpoint.fsyncs_per_commit", "1/txn", "lower"),
    PerLayer("live.cluster.notify_lag_p50_ms", "ms", "lower"),
    PerLayer("trace.overhead_ratio", "ratio", "lower"),
    PerLayer("trace.untraced_share", "ratio", "lower"),
    PerLayer("trace.unresolved_seams", "count", "lower"),
)

PER_LAYER: Tuple[PerLayer, ...] = (
    tuple(_layer_metrics())
    + COUNTERS
    + tuple(
        PerLayer(f"e2e.{metric.name}", metric.unit, metric.better)
        for metric in END_TO_END
        if not metric.in_manifest
    )
)


def manifest_sections() -> Dict[str, List[Dict[str, object]]]:
    """The ``end_to_end`` and ``per_layer`` lists of ``BENCHMARK.json``."""
    return {
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
            if m.in_manifest
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def quantile(ordered: Sequence[float], q: float) -> float:
    """The *q*-quantile of an ascending sequence (nearest rank)."""
    if not ordered:
        raise ValueError("quantile of an empty sample")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def agrees(metric: EndToEnd, workload: str, first: Optional[float],
           second: Optional[float]) -> bool:
    """--repeat-check: do two runs of the same code agree on *metric*?"""
    if first is None or second is None:
        return first is second
    if metric.exact_on_sim and workload.startswith("sim_"):
        return first == second
    difference = abs(second - first)
    return difference <= max(metric.absolute_floor, metric.bound * abs(first))
