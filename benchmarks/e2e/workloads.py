"""Seeded input generation for the five workloads.

Pure functions of ``(workload, seed, scale)`` built on :mod:`random`
only: the same seed gives the same transactions, scripts and failure
schedule, and the program under test receives nothing else.  ``scale``
shrinks the operation count (``--smoke`` uses 0.1, the warm-up 0.25)
without changing the shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: Transfers per live segment that wait through ``wait_decided``.
NOTIFY_PROBES = 5

#: DistributedSystem.build's default one-way message delay, 10 ms +
#: U(0, 5) ms: the mean round trip commit latency is reported against.
SIM_MEAN_ROUND_TRIP_S = 2 * (0.010 + 0.005 / 2)


@dataclass(frozen=True)
class SimSpec:
    protocol: str
    sites: int
    items: int
    rate: float  # Poisson arrivals per simulated second
    duration: float  # simulated seconds of arrivals at scale 1
    dependency_mean: float
    #: Simulated seconds between in-doubt batches (None: no faults).
    indoubt_every: Optional[float] = None
    victims: int = 10
    #: A victim's coordinator crashes this long after submitting it: the
    #: participants have voted (two one-way delays, at most 30 ms) and no
    #: Ready has reached the coordinator yet (at least 40 ms).
    crash_after: float = 0.035
    down_for: float = 3.0


@dataclass(frozen=True)
class LiveSpec:
    sites: int
    accounts: int
    clients: int
    transfers: int
    durable: bool
    restart_cycles: int
    opening_balance: int = 1000


# Segments are kept short (about a second of wall time; sim_indoubt needs
# its eight batches) because a run reports its best segment: twelve short
# segments found a quiet stretch of the machine more reliably than six of
# twice the size (README, "How a run is shaped").
SIM_SPECS: Dict[str, SimSpec] = {
    "sim_steady": SimSpec("polyvalue", sites=5, items=200, rate=200.0,
                          duration=15.0, dependency_mean=1.0),
    "sim_indoubt": SimSpec("polyvalue", sites=8, items=400, rate=200.0,
                           duration=32.0, dependency_mean=2.0,
                           indoubt_every=4.0),
    # The first 8 simulated seconds of sim_steady's arrival stream.
    "sim_paxos": SimSpec("paxos", sites=5, items=200, rate=200.0,
                         duration=8.0, dependency_mean=1.0),
}

LIVE_SPECS: Dict[str, LiveSpec] = {
    "live_durable": LiveSpec(sites=3, accounts=600, clients=1, transfers=100,
                             durable=True, restart_cycles=3),
    "live_volatile": LiveSpec(sites=3, accounts=600, clients=8, transfers=1200,
                              durable=False, restart_cycles=0),
}

WORKLOADS: Tuple[str, ...] = tuple(SIM_SPECS) + tuple(LIVE_SPECS)


@dataclass(frozen=True)
class Update:
    """One random-update transaction: target := mix(salt, deps, target)."""

    target: str
    dependencies: Tuple[str, ...]
    salt: int
    #: Coordinator site; None lets the system pick the target's home site.
    at: Optional[str] = None


@dataclass(frozen=True)
class SimInputs:
    spec: SimSpec
    seed: int
    items: Dict[str, int]
    #: (simulated time, kind, payload), time-ordered.  Kinds: "submit"
    #: (payload Update), "crash" and "recover" (payload site id).
    events: Tuple[Tuple[float, str, Any], ...]
    last_recover_at: Optional[float]


@dataclass(frozen=True)
class Transfer:
    script: Dict[str, Any]
    source: str
    target: str
    amount: int


@dataclass(frozen=True)
class LiveInputs:
    spec: LiveSpec
    seed: int
    accounts: Dict[str, int]
    transfers: Tuple[Transfer, ...]
    #: One untimed (site, transfer) per site, run first: coordinated at
    #: the site between accounts of two other sites, so that every
    #: connection is open before the clock starts.  (Unprimed, the eight
    #: clients' first transfers are 1 % of a segment and set its p99.)
    priming: Tuple[Tuple[str, Transfer], ...]
    #: Untimed transfers that wait through ``LiveCluster.wait_decided``,
    #: to measure what its poll adds.
    notify_probes: Tuple[Transfer, ...]
    #: One (site, transfer) per restart cycle: crash the site, restart it,
    #: then submit the transfer there.
    restarts: Tuple[Tuple[str, Transfer], ...]


def _item_names(count: int) -> List[str]:
    return [f"item-{index:04d}" for index in range(count)]


def sim_items(spec: SimSpec) -> Dict[str, int]:
    return {name: 1 for name in _item_names(spec.items)}


def live_accounts(spec: LiveSpec) -> Dict[str, int]:
    return {f"acct-{index:04d}": spec.opening_balance
            for index in range(spec.accounts)}


def sim_inputs(name: str, seed: int, scale: float = 1.0) -> SimInputs:
    spec = SIM_SPECS[name]
    names = _item_names(spec.items)
    duration = spec.duration * scale
    arrivals = random.Random(f"{seed}:arrivals")
    events: List[Tuple[float, int, str, Any]] = []
    now = 0.0
    salt = 0
    while True:
        now += arrivals.expovariate(spec.rate)
        if now >= duration:
            break
        target = arrivals.choice(names)
        count = int(round(arrivals.expovariate(1.0 / spec.dependency_mean)))
        dependencies = tuple(dict.fromkeys(
            arrivals.choice(names) for _ in range(count)
        ))
        salt += 1
        events.append((now, 0, "submit", Update(target, dependencies, salt)))
    last_recover_at: Optional[float] = None
    if spec.indoubt_every is not None:
        # Round-robin placement, as DistributedSystem.build lays items out.
        home = {item: f"site-{index % spec.sites}"
                for index, item in enumerate(names)}
        victims = random.Random(f"{seed}:victims")
        batch = 0
        start = spec.indoubt_every / 2
        while start < duration:
            site = f"site-{batch % spec.sites}"
            remote = [item for item in names if home[item] != site]
            for _ in range(spec.victims):
                target, dependency = victims.sample(remote, 2)
                salt += 1
                events.append(
                    (start, 1, "submit", Update(target, (dependency,), salt, at=site))
                )
            events.append((start + spec.crash_after, 2, "crash", site))
            last_recover_at = start + spec.crash_after + spec.down_for
            events.append((last_recover_at, 3, "recover", site))
            start += spec.indoubt_every
            batch += 1
    events.sort(key=lambda event: (event[0], event[1]))
    return SimInputs(
        spec=spec,
        seed=seed,
        items=sim_items(spec),
        events=tuple((time, kind, payload) for time, _, kind, payload in events),
        last_recover_at=last_recover_at,
    )


def _transfer(rng: random.Random, accounts: List[str], label: str) -> Transfer:
    source, target = rng.sample(accounts, 2)
    return _script(source, target, rng.randint(1, 9), label)


def _script(source: str, target: str, amount: int, label: str) -> Transfer:
    script = {
        "label": label,
        "items": [source, target],
        "ops": [
            {"write": source, "expr": ["-", ["read", source], amount]},
            {"write": target, "expr": ["+", ["read", target], amount]},
        ],
    }
    return Transfer(script, source, target, amount)


def live_inputs(name: str, seed: int, scale: float = 1.0) -> LiveInputs:
    spec = LIVE_SPECS[name]
    accounts = live_accounts(spec)
    names = sorted(accounts)
    rng = random.Random(f"{seed}:transfers")
    count = max(spec.clients * 2, int(round(spec.transfers * scale)))
    transfers = tuple(
        _transfer(rng, names, f"transfer-{index}") for index in range(count)
    )
    # Round-robin placement, as LiveCluster lays the sorted accounts out.
    priming = tuple(
        (f"site-{site}", _script(names[(site + 1) % spec.sites],
                                 names[(site + 2) % spec.sites], 1, f"prime-{site}"))
        for site in range(spec.sites)
    )
    notify_probes = tuple(
        _transfer(rng, names, f"notify-{index}") for index in range(NOTIFY_PROBES)
    )
    restarts = tuple(
        (f"site-{cycle % spec.sites}", _transfer(rng, names, f"restart-{cycle}"))
        for cycle in range(spec.restart_cycles)
    )
    return LiveInputs(spec, seed, accounts, transfers, priming, notify_probes, restarts)
