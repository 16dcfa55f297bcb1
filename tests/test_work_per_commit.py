"""Gate: the work one commit costs does not grow with history.

Each simulated workload shape runs at two lengths, 1x and 4x, under
``PYTHONHASHSEED=0`` in a fresh interpreter.  Per commit, the gate
counts Python function calls (``cProfile``), simulator events and
messages sent.  Work for one commit should be bounded by what that
commit touches — its items, its in-doubt dependencies, its messages —
never by how many transactions ran before it, so no count may grow by
more than 10 % between the two lengths.

The same runs gate memory: after settling, the bytes still held that
were allocated in the transition log's and the metrics collector's
modules (``tracemalloc``) must stay within 10 % plus 16 KiB of the
short run's.  Instrumentation counts; it does not keep a record per
transaction.

Counts, not seconds: both lengths run in one process on one machine,
so the ratio does not depend on how fast the machine is.

The shapes mirror the end-to-end benchmark's simulator workloads:

* ``indoubt`` — eight sites, Poisson updates, and every 4 simulated
  seconds a batch of ten transactions whose coordinator crashes after
  the votes, so polyvalues are installed and polytransactions run;
* ``steady`` — five sites, the same update stream, no faults;
* ``paxos`` — ``steady``'s shape under Paxos Commit;
* ``paxos-indoubt`` — ``indoubt``'s shape under Paxos Commit.

The live arm gates the durable checkpoint: a three-site ``LiveCluster``
with a data directory commits transfers from one closed-loop client, and
the Python calls made inside ``AsyncioRuntime.checkpoint`` per
checkpoint may grow by at most 10 % from 1x to 4x the transfers.  A
checkpoint costs what the action changed, not what the site has ever
learned.

Run one shape by hand with ``PYTHONPATH=src python
tests/test_work_per_commit.py indoubt`` (or ``live-durable``).
"""

from __future__ import annotations

import cProfile
import functools
import gc
import json
import os
import pathlib
import pstats
import random
import subprocess
import sys
import tracemalloc
from typing import Any, Dict, List, Optional, Tuple

import pytest

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Allowed growth of any per-commit count from the short run to the long.
MAX_GROWTH = 0.10
LENGTHS = (1, 4)

#: Retained bytes the long run may hold beyond the short run's share.
MAX_RETAINED_GROWTH = 0.10
RETAINED_SLACK = 16 * 1024
#: Modules whose retained allocations the memory gate sums.
RETAINED_IN = ("repro/txn/runtime.py", "repro/metrics/collector.py")

#: shape -> (commit protocol, sites, items, seconds of arrivals at 1x,
#: mean dependencies, seconds between in-doubt batches or None).
SHAPES: Dict[str, Tuple[str, int, int, float, float, Optional[float]]] = {
    "indoubt": ("polyvalue", 8, 400, 8.0, 2.0, 4.0),
    "steady": ("polyvalue", 5, 200, 4.0, 1.0, None),
    "paxos": ("paxos", 5, 200, 4.0, 1.0, None),
    "paxos-indoubt": ("paxos", 8, 400, 8.0, 2.0, 4.0),
}
RATE = 200.0
VICTIMS = 10
#: A victim's coordinator crashes after the participants voted and
#: before any Ready reached it; it stays down this long.
CRASH_AFTER = 0.035
DOWN_FOR = 3.0


def _events(shape: str, length: int) -> Tuple[List[Tuple[float, str, Any]], List[str]]:
    _, sites, items, seconds, dependency_mean, every = SHAPES[shape]
    names = [f"item-{index:04d}" for index in range(items)]
    duration = seconds * length
    rng = random.Random(0)
    events: List[Tuple[float, int, str, Any]] = []
    now = 0.0
    while True:
        now += rng.expovariate(RATE)
        if now >= duration:
            break
        target = rng.choice(names)
        count = int(round(rng.expovariate(1.0 / dependency_mean)))
        deps = tuple(dict.fromkeys(rng.choice(names) for _ in range(count)))
        events.append((now, 0, "submit", (target, deps, None)))
    if every is not None:
        home = {item: f"site-{index % sites}" for index, item in enumerate(names)}
        start, batch = every / 2, 0
        while start < duration:
            site = f"site-{batch % sites}"
            remote = [item for item in names if home[item] != site]
            for _ in range(VICTIMS):
                target, dependency = rng.sample(remote, 2)
                events.append((start, 1, "submit", (target, (dependency,), site)))
            events.append((start + CRASH_AFTER, 2, "crash", site))
            events.append((start + CRASH_AFTER + DOWN_FOR, 3, "recover", site))
            start += every
            batch += 1
    events.sort(key=lambda event: (event[0], event[1]))
    return [(time, kind, payload) for time, _, kind, payload in events], names


def _update(target: str, deps: Tuple[str, ...], salt: int):
    from repro.api import Transaction

    def body(ctx: Any) -> None:
        mixed = salt
        for item in deps + (target,):
            mixed = (mixed * 31 + int(ctx.read(item))) % 1_000_000_007
        ctx.write(target, mixed)

    return Transaction(body=body, items=tuple(dict.fromkeys((target,) + deps)))


#: Transfers the live arm commits at 1x, and its cluster's accounts.
LIVE_TRANSFERS = 150
LIVE_ACCOUNTS = 60


def measure_live(length: int) -> Dict[str, Any]:
    """Python calls made inside ``AsyncioRuntime.checkpoint``, per call,
    while one client commits ``LIVE_TRANSFERS * length`` transfers on a
    durable live cluster."""
    import asyncio
    import tempfile

    from repro.api import LiveCluster, TxnStatus
    from repro.live.client import transfer_script
    from repro.runtime.aio import AsyncioRuntime

    profile = cProfile.Profile()
    counts = {"checkpoints": 0}
    checkpoint = AsyncioRuntime.checkpoint

    def profiled(runtime: Any, site: str) -> None:
        counts["checkpoints"] += 1
        profile.enable()
        try:
            checkpoint(runtime, site)
        finally:
            profile.disable()

    accounts = {f"acct-{index:02d}": 1000 for index in range(LIVE_ACCOUNTS)}

    async def run(data_dir: str) -> int:
        cluster = LiveCluster(
            sites=3, items=accounts, seed=0, data_dir=data_dir
        )
        await cluster.start()
        try:
            committed = 0
            for index in range(LIVE_TRANSFERS * length):
                source = index % LIVE_ACCOUNTS
                handle = cluster.submit_script(
                    transfer_script(
                        f"acct-{source:02d}",
                        f"acct-{(source + 7) % LIVE_ACCOUNTS:02d}",
                        1,
                    )
                )
                assert await cluster.wait_decided(handle, timeout=10.0)
                committed += handle.status is TxnStatus.COMMITTED
            return committed
        finally:
            await cluster.stop()

    AsyncioRuntime.checkpoint = profiled
    try:
        with tempfile.TemporaryDirectory() as data_dir:
            committed = asyncio.run(run(data_dir))
    finally:
        AsyncioRuntime.checkpoint = checkpoint
    return {
        "committed": committed,
        "checkpoints": counts["checkpoints"],
        "calls": pstats.Stats(profile).total_calls / counts["checkpoints"],
    }


def _retained(snapshot: tracemalloc.Snapshot) -> Dict[str, int]:
    """Bytes still held per :data:`RETAINED_IN` module, charged to the
    frame that allocated them."""
    retained = dict.fromkeys(RETAINED_IN, 0)
    for stat in snapshot.statistics("filename"):
        filename = pathlib.PurePath(stat.traceback[0].filename).as_posix()
        for module in RETAINED_IN:
            if filename.endswith(module):
                retained[module] += stat.size
    return retained


def measure(shape: str, length: int) -> Dict[str, Any]:
    """Per-commit calls, events and messages of one seeded run, and the
    bytes it still holds after settling."""
    from repro.api import DistributedSystem, TxnStatus, config_for_protocol

    events, names = _events(shape, length)
    protocol, sites = SHAPES[shape][:2]
    tracemalloc.start()
    system = DistributedSystem.build(
        sites=sites,
        items={name: 1 for name in names},
        seed=0,
        config=config_for_protocol(protocol),
    )
    handles = []
    profile = cProfile.Profile()
    profile.enable()
    for salt, (time, kind, payload) in enumerate(events):
        system.run_until(time)
        if kind == "submit":
            target, deps, at = payload
            handles.append(system.submit(_update(target, deps, salt), at=at))
        elif kind == "crash":
            system.crash_site(payload)
        else:
            system.recover_site(payload)
    settled = system.settle(max_time=events[-1][0] + 60.0)
    profile.disable()
    gc.collect()
    retained = _retained(tracemalloc.take_snapshot())
    tracemalloc.stop()
    committed = sum(h.status is TxnStatus.COMMITTED for h in handles)
    return {
        "settled": settled,
        "committed": committed,
        "calls": pstats.Stats(profile).total_calls / committed,
        "events": system.sim.events_processed / committed,
        "messages": system.network.stats.sent / committed,
        "retained": retained,
    }


@functools.lru_cache(maxsize=None)
def _measure_fresh(shape: str) -> Dict[int, Dict[str, Any]]:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC_DIR))
    out = subprocess.run(
        [sys.executable, __file__, shape],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return {int(length): counts for length, counts in json.loads(out).items()}


@pytest.mark.slow
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_per_commit_work_does_not_grow_with_history(shape):
    runs = _measure_fresh(shape)
    short, long = (runs[length] for length in LENGTHS)
    assert short["settled"] and long["settled"]
    assert long["committed"] > 3 * short["committed"]
    grown = {
        name: round(long[name] / short[name], 3)
        for name in ("calls", "events", "messages")
        if long[name] > short[name] * (1 + MAX_GROWTH)
    }
    assert not grown, (
        f"{shape}: per-commit work grew with history "
        f"({LENGTHS[0]}x -> {LENGTHS[1]}x ratios {grown}; "
        f"short {short}, long {long})"
    )


@pytest.mark.slow
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_retained_memory_does_not_grow_with_history(shape):
    runs = _measure_fresh(shape)
    short, long = (runs[length]["retained"] for length in LENGTHS)
    grown = {
        module: (short[module], long[module])
        for module in RETAINED_IN
        if long[module] > short[module] * (1 + MAX_RETAINED_GROWTH) + RETAINED_SLACK
    }
    assert not grown, (
        f"{shape}: retained bytes grew with history "
        f"({LENGTHS[0]}x -> {LENGTHS[1]}x bytes {grown})"
    )


@pytest.mark.slow
def test_checkpoint_work_does_not_grow_with_history():
    runs = _measure_fresh("live-durable")
    short, long = (runs[length] for length in LENGTHS)
    assert short["committed"] > 0.9 * LIVE_TRANSFERS
    assert long["committed"] > 3 * short["committed"]
    assert long["calls"] <= short["calls"] * (1 + MAX_GROWTH), (
        f"calls per checkpoint grew with history: {short} -> {long}"
    )


if __name__ == "__main__":
    shape = sys.argv[1]
    if shape == "live-durable":
        run_one = measure_live
    else:
        run_one = functools.partial(measure, shape)
    print(json.dumps({length: run_one(length) for length in LENGTHS}))
