"""One segment of a ``sim_*`` workload: fresh system, fixed inputs, checks.

The driver is a plain loop over the generated events: advance the
simulator to the event's time, then submit, crash or recover.  It uses
``repro.api`` names only and never touches ``system.sim``.
"""

from __future__ import annotations

import hashlib
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.api import (
    CheckContext,
    DistributedSystem,
    Transaction,
    TxnStatus,
    check_converged,
    config_for_protocol,
    execute_polytransaction,
    failed,
)

import layers
from common import CheckFailed, condition_cache_hit_ratio, prepare_segment
from workloads import SimInputs, SimSpec, Update

#: How finely settle() looks for convergence (simulated seconds); this is
#: the resolution of drain_sim_s.
SETTLE_STEP = 0.02
#: Simulated seconds allowed for convergence after the last event.
SETTLE_HORIZON = 60.0
#: In a traced segment the polyvalue count is sampled at every fault
#: event and every this-many submissions (each sample scans all items).
POLYVALUE_SAMPLE_EVERY = 20


def _transaction(update: Update) -> Transaction:
    target, dependencies, salt = update.target, update.dependencies, update.salt

    def body(ctx: Any) -> None:
        mixed = salt
        for item in dependencies:
            mixed = (mixed * 31 + int(ctx.read(item))) % 1_000_000_007
        mixed = (mixed * 31 + int(ctx.read(target))) % 1_000_000_007
        ctx.write(target, mixed)

    declared = tuple(dict.fromkeys((target,) + dependencies))
    return Transaction(body=body, items=declared, label=f"update:{target}")


def fingerprint(state: Dict[str, Any], *counts: Any) -> str:
    digest = hashlib.sha256()
    for item in sorted(state):
        digest.update(f"{item}={state[item]!r};".encode("utf-8"))
    digest.update(repr(counts).encode("utf-8"))
    return digest.hexdigest()[:16]


def serial_replay(handles: List[Any], initial: Dict[str, Any]) -> Dict[str, Any]:
    """Replay the committed transactions serially, in decision order."""
    committed = sorted(
        (h for h in handles if h.status is TxnStatus.COMMITTED),
        key=lambda h: h.decided_at,
    )
    state = dict(initial)
    for handle in committed:
        result = execute_polytransaction(handle.transaction.body, state)
        state.update(result.merged_writes(state))
    return state


def build(spec: SimSpec, items: Dict[str, int], seed: int) -> DistributedSystem:
    """A fresh system for *spec*, ready to take its first transaction."""
    return DistributedSystem.build(
        sites=spec.sites,
        items=items,
        seed=seed,
        config=config_for_protocol(spec.protocol),
    )


def run_segment(
    inputs: SimInputs,
    *,
    tracer: Optional[layers.Tracer] = None,
    full_checks: bool = True,
) -> Dict[str, Any]:
    """Run *inputs* once on a fresh system and return its measurements."""
    spec = inputs.spec
    schedule = [
        (time, kind, (_transaction(payload), payload.at) if kind == "submit" else payload)
        for time, kind, payload in inputs.events
    ]
    prepare_segment()

    built_at = perf_counter()
    system = build(spec, inputs.items, inputs.seed)
    build_s = perf_counter() - built_at

    handles: List[Any] = []
    peak_polyvalues = 0
    submissions = 0
    if tracer is not None:
        tracer.on = True
    started = perf_counter()
    for time, kind, payload in schedule:
        system.run_until(time)
        if kind == "submit":
            handles.append(system.submit(payload[0], at=payload[1]))
            submissions += 1
            sample = submissions % POLYVALUE_SAMPLE_EVERY == 0
        else:
            if kind == "crash":
                system.crash_site(payload)
            else:
                system.recover_site(payload)
            sample = True
        if tracer is not None and sample:
            peak_polyvalues = max(peak_polyvalues, system.total_polyvalues())
    # Step to the first SETTLE_STEP boundary at which the uncertainty has
    # drained, then let settle() give the authoritative verdict.
    last_event_at = schedule[-1][0] if schedule else 0.0
    steps = 0
    while not _drained(system) and steps * SETTLE_STEP < SETTLE_HORIZON:
        steps += 1
        system.run_until(last_event_at + steps * SETTLE_STEP)
    drained_at = last_event_at + steps * SETTLE_STEP
    settled = system.settle(max_time=drained_at + SETTLE_HORIZON)
    wall_s = perf_counter() - started
    if tracer is not None:
        tracer.on = False

    committed = [h for h in handles if h.status is TxnStatus.COMMITTED]
    aborted = sum(h.status is TxnStatus.ABORTED for h in handles)
    pending = sum(h.status is TxnStatus.PENDING for h in handles)
    latencies_ms = sorted(h.latency * 1e3 for h in committed)
    state = system.database_state()
    counters = layers.sim_counters(system)
    cache_hit_ratio = condition_cache_hit_ratio()

    problems: List[str] = []
    if not settled:
        problems.append("settle() did not converge")
    if pending:
        problems.append(f"{pending} transactions still pending")
    if counters.get("outcome_residual"):
        problems.append(f"outcome bookkeeping left: {counters['outcome_residual']}")
    if inputs.last_recover_at is not None and not (
        counters.get("polyvalues_installed") and any(
            h.was_polytransaction for h in committed
        )
    ):
        problems.append("the in-doubt batches produced no polyvalues or polytransactions")
    if full_checks:
        problems.extend(
            str(verdict) for verdict in failed(check_converged(CheckContext(system)))
        )
        if serial_replay(handles, inputs.items) != state:
            problems.append("final state differs from the serial replay")
    if problems:
        raise CheckFailed("; ".join(problems))

    drain_sim_s = None
    if inputs.last_recover_at is not None:
        drain_sim_s = drained_at - inputs.last_recover_at
    return {
        "build_s": build_s,
        "wall_s": wall_s,
        "submitted": submissions,
        "committed": len(committed),
        "aborted": aborted,
        "pending": pending,
        "errors": 0,
        "latencies_ms": latencies_ms,
        "polytxn_commits": sum(h.was_polytransaction for h in committed),
        "peak_polyvalues": peak_polyvalues,
        "drain_sim_s": drain_sim_s,
        "counters": counters,
        "cache_hit_ratio": cache_hit_ratio,
        "fingerprint": fingerprint(
            state, len(committed), aborted, counters.get("msgs_sent"),
            counters.get("events"), latencies_ms,
        ),
    }


def _drained(system: DistributedSystem) -> bool:
    """Zero polyvalues, zero outcome bookkeeping, nothing pending, quiescent."""
    return (
        system.total_polyvalues() == 0
        and system.outcome_bookkeeping_size() == 0
        and system.quiescent()
        and not system.pending_handles()
    )


def anchor_messages(protocol: str) -> Optional[float]:
    """Messages for one isolated 2-participant commit on 3 sites, no faults."""
    system = DistributedSystem.build(
        sites=3, items={"a": 1, "b": 2, "c": 3}, seed=0,
        config=config_for_protocol(protocol),
    )

    def body(ctx: Any) -> None:
        ctx.write("b", ctx.read("b") + 1)
        ctx.write("c", ctx.read("c") - 1)

    handle = system.submit(Transaction(body=body, items=("b", "c")), at="site-0")
    if not system.settle(max_time=30.0) or handle.status is not TxnStatus.COMMITTED:
        return None
    return layers.sim_counters(system).get("msgs_sent")
