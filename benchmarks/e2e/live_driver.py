"""One segment of a ``live_*`` workload: fresh socket cluster, fixed inputs.

Clients are coroutines on the cluster's own event loop (no threads, no
sockets beyond the sites' own).  Every loop is closed: a client submits
its next transfer only after the previous one was decided.  The driver
uses ``repro.api`` names only.

A client learns of its decision by yielding to the loop until the handle
is decided, not through ``LiveCluster.wait_decided``: that helper polls
every 5 ms, a commit takes 4-8 ms, and so the wake-up lands on one poll
or the next depending on a few percent of machine speed (p50 measured
6.4 ms or 12 ms on the same code).  The poll's cost is measured on its
own, by a few extra transfers per segment, as ``notify_lag_ms``.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.api import LiveCluster, TxnStatus, decode_state

import layers
from common import CheckFailed, condition_cache_hit_ratio, prepare_segment
from workloads import LiveInputs, LiveSpec, Transfer

DECISION_TIMEOUT_S = 10.0
CONVERGENCE_TIMEOUT_S = 20.0
#: A restart cycle resubmits its transfer until one commits.
RESTART_ATTEMPTS = 5
#: Checkpoint growth compares the site files after this many transfers
#: with the site files after the last one.
GROWTH_BASELINE_TRANSFERS = 10


async def _converge(cluster: LiveCluster) -> bool:
    """``wait_converged()`` and no frame still in flight.

    ``wait_converged`` alone returns once the coordinator has decided,
    before the participants have installed (ROADMAP, first open item), so
    the driver also waits until every frame sent was delivered or dropped.
    """
    deadline = perf_counter() + CONVERGENCE_TIMEOUT_S
    while perf_counter() < deadline:
        if not await cluster.wait_converged(timeout=CONVERGENCE_TIMEOUT_S):
            return False
        transport = cluster.describe()["transport"]
        if transport["sent"] == transport["delivered"] + transport["dropped"]:
            return True
        await asyncio.sleep(0.001)
    return False


async def _decided(handle: Any) -> bool:
    """Yield to the loop until *handle* is decided; False on timeout."""
    deadline = perf_counter() + DECISION_TIMEOUT_S
    while handle.status is TxnStatus.PENDING:
        if perf_counter() > deadline:
            return False
        await asyncio.sleep(0)
    return True


def _directory_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


async def start_cluster(
    spec: LiveSpec, accounts: Dict[str, int], seed: int, data_dir: Optional[str]
) -> LiveCluster:
    """A fresh cluster for *spec*: sockets bound, first checkpoints written."""
    cluster = LiveCluster(
        sites=spec.sites,
        items=accounts,
        protocol="polyvalue",
        seed=seed,
        data_dir=data_dir,
    )
    await cluster.start()
    return cluster


async def _segment(
    inputs: LiveInputs, data_dir: Optional[str], tracer: Optional[layers.Tracer]
) -> Dict[str, Any]:
    built_at = perf_counter()
    cluster = await start_cluster(inputs.spec, inputs.accounts, inputs.seed, data_dir)
    build_s = perf_counter() - built_at
    try:
        return await _drive(cluster, inputs, data_dir, tracer, build_s)
    finally:
        await cluster.stop()


async def _drive(
    cluster: LiveCluster,
    inputs: LiveInputs,
    data_dir: Optional[str],
    tracer: Optional[layers.Tracer],
    build_s: float,
) -> Dict[str, Any]:
    spec = inputs.spec
    #: (transfer, handle, decided in time, client-measured seconds): the
    #: timed transfers, and every other one (priming, probes, restarts).
    results: List[Tuple[Transfer, Any, bool, float]] = []
    untimed: List[Tuple[Transfer, Any, bool, float]] = []
    baseline_bytes = 0
    for site, transfer in inputs.priming:
        handle = cluster.submit_script(transfer.script, at=site)
        untimed.append((transfer, handle, await _decided(handle), 0.0))
    await _converge(cluster)
    primed_counters = layers.live_counters(cluster)
    queue = iter(inputs.transfers)

    async def client() -> None:
        nonlocal baseline_bytes
        for transfer in queue:
            sent = perf_counter()
            handle = cluster.submit_script(transfer.script)
            decided = await _decided(handle)
            results.append((transfer, handle, decided, perf_counter() - sent))
            if data_dir and len(results) == GROWTH_BASELINE_TRANSFERS:
                baseline_bytes = _directory_bytes(data_dir)

    if tracer is not None:
        tracer.on = True
    started = perf_counter()
    await asyncio.gather(*(client() for _ in range(spec.clients)))
    converged = await _converge(cluster)
    wall_s = perf_counter() - started
    if tracer is not None:
        tracer.on = False
    cache_hit_ratio = condition_cache_hit_ratio()
    final_bytes = _directory_bytes(data_dir) if data_dir else 0
    transfer_counters = {
        key: None if value is None else value - (primed_counters.get(key) or 0)
        for key, value in layers.live_counters(cluster).items()
    }

    notify_lag_ms: List[float] = []
    for transfer in inputs.notify_probes:
        sent = perf_counter()
        handle = cluster.submit_script(transfer.script)
        decided = await cluster.wait_decided(handle, timeout=DECISION_TIMEOUT_S)
        woke = perf_counter() - sent
        untimed.append((transfer, handle, decided, woke))
        if handle.status is TxnStatus.COMMITTED:
            # Client wake-up time minus the decision time on the handle.
            notify_lag_ms.append((woke - handle.latency) * 1e3)

    restart_ms: List[float] = []
    restart_failures = 0
    for site, transfer in inputs.restarts:
        cluster.crash(site)
        restarted = perf_counter()
        cluster.restart(site)
        for _ in range(RESTART_ATTEMPTS):
            handle = cluster.submit_script(transfer.script, at=site)
            decided = await _decided(handle)
            elapsed = perf_counter() - restarted
            untimed.append((transfer, handle, decided, elapsed))
            if handle.status is TxnStatus.COMMITTED:
                restart_ms.append(elapsed * 1e3)
                break
        else:
            restart_failures += 1
    if inputs.notify_probes or inputs.restarts:
        converged = await _converge(cluster) and converged

    # Message and checkpoint counts describe the transfers alone; errors
    # and leftovers are judged after the restart cycles too.
    final_counters = layers.live_counters(cluster)
    counters = dict(transfer_counters)
    for key in ("handler_errors", "reconnects", "outcome_residual"):
        counters[key] = final_counters.get(key)
    state = cluster.database_state()
    expected = dict(inputs.accounts)
    for transfer, handle, _, _ in results + untimed:
        if handle.status is TxnStatus.COMMITTED:
            expected[transfer.source] -= transfer.amount
            expected[transfer.target] += transfer.amount

    problems: List[str] = []
    if not converged:
        problems.append("wait_converged() timed out")
    if counters.get("handler_errors"):
        problems.append(f"{counters['handler_errors']} handler errors")
    if sum(state.values()) != sum(inputs.accounts.values()):
        problems.append("total balance not conserved")
    wrong = [item for item in expected if state.get(item) != expected[item]]
    if wrong:
        problems.append(f"{len(wrong)} accounts differ from initial + committed deltas")
    if restart_failures:
        problems.append(f"{restart_failures} restart cycles never committed")
    if data_dir:
        on_disk: Dict[str, Any] = {}
        for index in range(spec.sites):
            values = layers.site_file_values(data_dir, f"site-{index}")
            if values is None:
                problems.append(f"site-{index} has no readable checkpoint")
            else:
                on_disk.update(decode_state(values))
        if on_disk != state:
            problems.append("site files differ from memory after the restart cycles")
    if problems:
        raise CheckFailed("; ".join(problems))

    committed = [r for r in results if r[1].status is TxnStatus.COMMITTED]
    return {
        "build_s": build_s,
        "wall_s": wall_s,
        "submitted": len(results),
        "committed": len(committed),
        "aborted": sum(r[1].status is TxnStatus.ABORTED for r in results),
        "pending": sum(r[1].status is TxnStatus.PENDING for r in results),
        "errors": sum(not r[2] for r in results),
        "latencies_ms": sorted(r[3] * 1e3 for r in committed),
        "notify_lag_ms": notify_lag_ms,
        "restart_ms": restart_ms,
        "checkpoint_growth": final_bytes / baseline_bytes if baseline_bytes else None,
        "counters": counters,
        "cache_hit_ratio": cache_hit_ratio,
        "polytxn_commits": sum(r[1].was_polytransaction for r in committed),
    }


def run_segment(
    inputs: LiveInputs,
    *,
    out_dir: str,
    tracer: Optional[layers.Tracer] = None,
) -> Dict[str, Any]:
    """Run *inputs* once on a fresh cluster and return its measurements."""
    prepare_segment()
    data_dir = None
    if inputs.spec.durable:
        os.makedirs(out_dir, exist_ok=True)
        data_dir = tempfile.mkdtemp(prefix="data-", dir=out_dir)
    try:
        return asyncio.run(_segment(inputs, data_dir, tracer))
    finally:
        if data_dir:
            shutil.rmtree(data_dir, ignore_errors=True)
