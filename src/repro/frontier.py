"""The commit-protocol frontier: four protocols, one fault matrix.

The bake-off's headline artifact.  Every protocol in
:data:`FRONTIER_PROTOCOLS` runs the **identical** seed-derived fault
matrix — the same scenarios, the same traffic, the same crash /
partition walks at the same virtual times — and the campaign reports
the availability/latency/message-cost frontier:

* **commit availability** — committed / (committed + aborted);
* **commit latency** — mean and p99 submission-to-commit seconds;
* **message cost** — network sends per committed transaction.

The protocols occupy deliberately different points on that frontier
(see ``docs/protocols.md``): blocking is cheapest per commit but
stalls under coordinator loss; polyvalues buy availability with
forwarding traffic; Paxos Commit buys non-blocking termination with
2F+1 acceptors' worth of messages; path-sensitive commit skips
coordination entirely for order-invariant transactions.  The campaign
makes those trade-offs *measured* rather than asserted, and feeds
floor guards into ``BENCH_perf.json`` so CI notices when a protocol
falls off its frontier point.

Sanity anchor (Didona & Zwaenepoel, "Size-aware Sharding", and the
general coordination literature): a coordinated commit cannot finish
faster than one round trip, so every coordinated protocol's mean
commit latency must be at least ``2 x`` the healthy one-way link
latency.  A measured mean below that floor means the harness is
mis-measuring (e.g. counting local fast-path commits as coordinated),
not that the protocol got supernaturally fast.

Trials run through the shared campaign engine
(:func:`repro.parallel.pool.run_trials`), so ``--jobs N`` shards them
across cores with bit-identical results at any worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import SimulationError
from repro.net.failures import ScheduleScript
from repro.obs.events import EventBus
from repro.parallel.pool import run_trials
from repro.parallel.seeds import trial_seeds
from repro.txn.config import PROTOCOL_NAMES, config_for_protocol
from repro.check.explorer import Schedule, random_walk
from repro.check.scenarios import SCENARIOS, build_scenario

#: The bake-off peers, in presentation order.  (``relaxed`` is excluded
#: by default: it trades correctness, not performance, and the oracle
#: suite exists to show exactly that — see ``repro check``.)
FRONTIER_PROTOCOLS: Tuple[str, ...] = (
    "polyvalue",
    "blocking",
    "paxos",
    "pathsensitive",
)

#: Protocols whose every commit crosses the network at least once
#: (the Didona sanity floor applies to these).
COORDINATED: Tuple[str, ...] = ("polyvalue", "blocking", "paxos")

#: Scenario subsets: full mode runs every scenario, smoke trims to the
#: two cheapest scopes (mirroring the chaos campaign's CI budget).
FULL_SCENARIOS: Tuple[str, ...] = ("pair", "transfers", "mixed")
SMOKE_SCENARIOS: Tuple[str, ...] = ("pair", "transfers")

#: Fail-stop walk length per faulty schedule.
WALK_STEPS_FULL = 10
WALK_STEPS_SMOKE = 6


def fault_matrix(
    *,
    campaign_seed: int = 0,
    trials: int = 4,
    scenarios: Sequence[str] = FULL_SCENARIOS,
    steps: int = WALK_STEPS_FULL,
) -> List[Schedule]:
    """The protocol-independent fault matrix: one failure-free schedule
    per scenario (the clean-path latency anchor) plus *trials* seeded
    fail-stop walks per scenario.

    The matrix mentions no protocol — the campaign crosses it with
    :data:`FRONTIER_PROTOCOLS`, so every protocol faces byte-identical
    adversity and the measured differences are attributable to the
    protocol alone.
    """
    for scenario in scenarios:
        if scenario not in SCENARIOS:
            raise SimulationError(f"unknown scenario {scenario!r}")
    matrix: List[Schedule] = []
    for scenario in scenarios:
        matrix.append(
            Schedule(
                scenario=scenario,
                seed=campaign_seed,
                actions=(),
                label=f"frontier:{scenario}:clean",
            )
        )
        for seed in trial_seeds(campaign_seed, trials):
            walk = random_walk(scenario, seed, steps=steps)
            matrix.append(
                Schedule(
                    scenario=walk.scenario,
                    seed=walk.seed,
                    actions=walk.actions,
                    horizon=walk.horizon,
                    label=f"frontier:{scenario}:{seed}",
                )
            )
    return matrix


def _frontier_trial(task: Tuple[str, Schedule]) -> Dict[str, Any]:
    """One (protocol, schedule) measurement — the engine worker.

    Mirrors the explorer's run shape (apply actions at exact virtual
    times, then repair everything and settle) but collects the metrics
    the frontier is made of instead of judging oracles; correctness
    under these exact schedules is the explorer's and chaos campaign's
    job.
    """
    protocol, schedule = task
    system = build_scenario(
        schedule.scenario,
        schedule.seed,
        config=config_for_protocol(protocol),
    )
    script = ScheduleScript(system.sim, system, system.network, ())
    for action in sorted(schedule.actions, key=lambda entry: entry.at):
        system.run_until(action.at)
        script.apply(action)
    system.run_until(max(system.now, schedule.horizon))
    system.network.heal_all()
    system.network.clear_degradations()
    for site in system.down_sites():
        system.recover_site(site)
    settled = system.settle(max_time=system.now + 120.0, step=0.5)
    metrics = system.metrics
    return {
        "protocol": protocol,
        "label": schedule.label,
        "submitted": metrics.submitted,
        "committed": metrics.committed,
        "aborted": metrics.aborted,
        "latencies": list(metrics.commit_latencies),
        "messages": system.network.stats.sent,
        "settled": settled,
        "base_latency": system.network.base_latency,
    }


def _percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of *values* (empty -> 0.0)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(fraction * len(ordered))))
    return ordered[rank]


@dataclass
class ProtocolFrontier:
    """One protocol's aggregated point on the frontier."""

    protocol: str
    schedules: int = 0
    submitted: int = 0
    committed: int = 0
    aborted: int = 0
    messages: int = 0
    latencies: List[float] = field(default_factory=list)
    unsettled: int = 0

    @property
    def availability(self) -> float:
        decided = self.committed + self.aborted
        return self.committed / decided if decided else 0.0

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    @property
    def p99_latency(self) -> float:
        return _percentile(self.latencies, 0.99)

    @property
    def messages_per_commit(self) -> float:
        return self.messages / max(1, self.committed)


@dataclass
class FrontierReport:
    """Aggregate of one frontier campaign."""

    campaign_seed: int
    protocols: Dict[str, ProtocolFrontier] = field(default_factory=dict)
    schedules_per_protocol: int = 0
    wall_seconds: float = 0.0
    base_latency: float = 0.0
    failed_trials: List[str] = field(default_factory=list)

    @property
    def didona_ok(self) -> bool:
        """Every coordinated protocol's mean commit latency clears the
        one-round-trip floor (see the module docstring)."""
        floor = 2.0 * self.base_latency
        return all(
            stats.mean_latency >= floor
            for name, stats in self.protocols.items()
            if name in COORDINATED and stats.latencies
        )

    @property
    def ok(self) -> bool:
        return (
            not self.failed_trials
            and self.didona_ok
            and all(
                stats.unsettled == 0 for stats in self.protocols.values()
            )
            and all(
                stats.committed > 0 for stats in self.protocols.values()
            )
        )

    def to_bench(self) -> Dict[str, Dict[str, Any]]:
        """The ``BENCH_perf.json`` contribution: results + floor guards.

        Guards are per-protocol commit availability (a regression means
        a protocol started aborting or stalling where it used to
        commit) plus the path-sensitive message advantage — the whole
        point of coordination avoidance is fewer messages per commit
        than the polyvalue protocol on the same matrix.
        """
        results: Dict[str, Any] = {
            "frontier_schedules_per_protocol": self.schedules_per_protocol,
            "frontier_didona_ok": self.didona_ok,
            "frontier_settled": all(
                stats.unsettled == 0 for stats in self.protocols.values()
            ),
        }
        guards: Dict[str, Any] = {}
        for name, stats in self.protocols.items():
            results[f"frontier_{name}_committed"] = stats.committed
            results[f"frontier_{name}_aborted"] = stats.aborted
            results[f"frontier_{name}_mean_latency_ms"] = round(
                stats.mean_latency * 1000.0, 2
            )
            results[f"frontier_{name}_p99_latency_ms"] = round(
                stats.p99_latency * 1000.0, 2
            )
            results[f"frontier_{name}_msgs_per_commit"] = round(
                stats.messages_per_commit, 2
            )
            guards[f"frontier_availability_{name}"] = round(
                stats.availability, 3
            )
        polyvalue = self.protocols.get("polyvalue")
        path = self.protocols.get("pathsensitive")
        if polyvalue and path and path.messages_per_commit > 0:
            guards["frontier_path_message_advantage"] = round(
                polyvalue.messages_per_commit / path.messages_per_commit, 2
            )
        return {"results": results, "guards": guards}

    def summary_lines(self) -> List[str]:
        lines = [
            f"frontier: {len(self.protocols)} protocol(s) x "
            f"{self.schedules_per_protocol} schedule(s) in "
            f"{self.wall_seconds:.2f}s wall "
            f"(base latency {self.base_latency * 1000:.0f} ms one-way)",
            "  protocol       avail   mean ms    p99 ms  msg/commit",
        ]
        for name in FRONTIER_PROTOCOLS:
            stats = self.protocols.get(name)
            if stats is None:
                continue
            lines.append(
                f"  {name:<13}"
                f"{stats.availability:>7.3f}"
                f"{stats.mean_latency * 1000:>10.2f}"
                f"{stats.p99_latency * 1000:>10.2f}"
                f"{stats.messages_per_commit:>12.2f}"
            )
        lines.append(
            "  didona sanity (coordinated mean >= 1 RTT): "
            + ("ok" if self.didona_ok else "VIOLATED")
        )
        if self.failed_trials:
            lines.append(
                f"  {len(self.failed_trials)} FAILED TRIAL(S): "
                + "; ".join(self.failed_trials)
            )
        return lines


def run_frontier(
    *,
    campaign_seed: int = 0,
    trials: int = 4,
    scenarios: Optional[Sequence[str]] = None,
    protocols: Sequence[str] = FRONTIER_PROTOCOLS,
    smoke: bool = False,
    jobs: Optional[int] = 1,
    bus: Optional[EventBus] = None,
) -> FrontierReport:
    """Run the frontier campaign: every protocol over the same matrix.

    ``smoke=True`` trims scenarios and walk length to the CI budget.
    *jobs* selects the campaign engine's worker count (``1`` = serial,
    ``None`` = every core); aggregation is order-independent sums over
    per-trial results merged in task order, so the report is
    bit-identical at any worker count.
    """
    for protocol in protocols:
        if protocol not in PROTOCOL_NAMES:
            raise SimulationError(
                f"unknown protocol {protocol!r}; choose from {PROTOCOL_NAMES}"
            )
    if scenarios is None:
        scenarios = SMOKE_SCENARIOS if smoke else FULL_SCENARIOS
    steps = WALK_STEPS_SMOKE if smoke else WALK_STEPS_FULL
    matrix = fault_matrix(
        campaign_seed=campaign_seed,
        trials=trials,
        scenarios=scenarios,
        steps=steps,
    )
    tasks: List[Tuple[str, Schedule]] = [
        (protocol, schedule)
        for protocol in protocols
        for schedule in matrix
    ]
    report = FrontierReport(
        campaign_seed=campaign_seed,
        schedules_per_protocol=len(matrix),
    )
    started = time.perf_counter()
    outcome = run_trials(
        _frontier_trial, tasks, jobs=jobs, bus=bus, label="frontier"
    )
    for (protocol, schedule), result in zip(tasks, outcome.results):
        if result is None:
            continue
        stats = report.protocols.setdefault(
            protocol, ProtocolFrontier(protocol=protocol)
        )
        stats.schedules += 1
        stats.submitted += result["submitted"]
        stats.committed += result["committed"]
        stats.aborted += result["aborted"]
        stats.messages += result["messages"]
        stats.latencies.extend(result["latencies"])
        if not result["settled"]:
            stats.unsettled += 1
        report.base_latency = result["base_latency"]
    report.failed_trials = [
        f"{tasks[failure.index][0]}:{tasks[failure.index][1].label}: "
        f"{failure.error}"
        for failure in outcome.failures
    ]
    report.wall_seconds = time.perf_counter() - started
    return report
