"""The deterministic schedule explorer.

The protocol's bugs live in rare interleavings of message delivery,
crashes and recoveries — exactly the class of behaviour hand-written
scenarios miss.  The explorer drives a seeded
:class:`~repro.txn.system.DistributedSystem` through many failure
schedules and evaluates the :mod:`repro.check.oracles` catalogue at
every quiescent point along the way, plus the convergence oracles after
a final recover-everything settle phase.

Two schedule sources:

* :func:`random_walk` — a seed-enumerated walk: at each step, advance
  virtual time by a seeded amount and apply a seeded choice of crash /
  recover / partition / heal (or nothing).  Different seeds shift every
  message-delivery jitter draw *and* the failure instants, so each seed
  is a genuinely different interleaving.
* :func:`enumerate_small_scope` — systematic enumeration over the 2- and
  3-site scenarios: every site crashed at every protocol-phase boundary
  for short and long outages, and every site pair partitioned across
  the commit window.  Small scopes are exhaustively checkable and are
  where protocol bugs overwhelmingly first appear.

Every run is a pure function of ``(scenario, seed, schedule)``; a run
that violates an oracle writes that triple to a JSON artifact which
:func:`replay` re-executes bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import SimulationError
from repro.net.failures import FailureAction, ScheduleScript
from repro.obs.events import EventBus
from repro.parallel.artifacts import (
    fingerprint as artifact_fingerprint,
    write_violation_artifact,
)
from repro.parallel.pool import run_trials
from repro.parallel.seeds import trial_seeds
from repro.sim.rand import Rng
from repro.txn.config import ProtocolConfig, config_for_protocol
from repro.check.oracles import (
    CheckContext,
    Verdict,
    check_converged,
    check_quiescent,
    failed,
)
from repro.check.scenarios import SCENARIOS, build_scenario

#: Time-step menu for random walks: spans sub-latency nudges (to land
#: inside read/stage/wait windows of the default 10-15 ms links) up to
#: full maintenance periods.
WALK_DELTAS: Tuple[float, ...] = (
    0.004, 0.008, 0.015, 0.03, 0.06, 0.12, 0.25, 0.5, 1.0,
)

#: Crash instants for small-scope enumeration, chosen to bracket the
#: default-timing protocol phases of the scenarios' first transfer:
#: reads in flight (~5-15 ms), staging (~30-45 ms), wait phase
#: (~45-60 ms), decided (~60 ms+), and steady state.
PHASE_GRID: Tuple[float, ...] = (0.005, 0.015, 0.03, 0.045, 0.06, 0.2)

#: Outage lengths: shorter than the wait timeout (transient blip) and
#: much longer (a real outage that forces polyvalue installation).
OUTAGE_DURATIONS: Tuple[float, ...] = (0.3, 2.5)


@dataclass(frozen=True)
class Schedule:
    """One deterministic exploration input: scenario + seed + actions."""

    scenario: str
    seed: int
    actions: Tuple[FailureAction, ...]
    #: When the scenario's traffic is over and finalisation may begin.
    horizon: float = 4.5
    #: Armed protocol fault (mutation smoke test only; None normally).
    #: Plain names arm ``wait_phase_fault``; the ``paxos:``/``path:``
    #: prefixes arm the corresponding protocol's fault hook.
    fault: Optional[str] = None
    #: Which commit protocol to explore (a repro.txn.runtime
    #: PROTOCOL_NAMES entry; None = the default polyvalue system).
    protocol: Optional[str] = None
    label: str = ""

    def fingerprint(self) -> str:
        """A short stable id for artifact file names."""
        return artifact_fingerprint(self.to_dict())

    def to_dict(self) -> Dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "horizon": self.horizon,
            "fault": self.fault,
            "protocol": self.protocol,
            "label": self.label,
            "actions": [
                {
                    "at": action.at,
                    "kind": action.kind,
                    "targets": list(action.targets),
                    "value": action.value,
                }
                for action in self.actions
            ],
        }

    @staticmethod
    def from_dict(data: Dict) -> "Schedule":
        return Schedule(
            scenario=data["scenario"],
            seed=int(data["seed"]),
            horizon=float(data.get("horizon", 4.5)),
            fault=data.get("fault"),
            protocol=data.get("protocol"),
            label=data.get("label", ""),
            actions=tuple(
                FailureAction(
                    at=float(entry["at"]),
                    kind=entry["kind"],
                    targets=tuple(entry["targets"]),
                    value=float(entry.get("value", 0.0)),
                )
                for entry in data["actions"]
            ),
        )


def schedule_config(schedule: Schedule) -> Optional[ProtocolConfig]:
    """The protocol configuration a schedule asks for (None = defaults).

    Fault names are namespaced by protocol: a plain name arms the
    participant's ``wait_phase_fault`` (the original mutation
    catalogue), ``paxos:<name>`` arms ``paxos_fault``, ``path:<name>``
    arms ``path_fault`` — one schedule field round-trips every mutant.
    Returns None when neither a protocol nor a fault is requested, so
    the unconfigured baseline path stays bit-for-bit identical.
    """
    if not schedule.fault and not schedule.protocol:
        return None
    base = ProtocolConfig()
    if schedule.fault:
        if schedule.fault.startswith("paxos:"):
            base = dataclasses.replace(
                base, paxos_fault=schedule.fault.split(":", 1)[1]
            )
        elif schedule.fault.startswith("path:"):
            base = dataclasses.replace(
                base, path_fault=schedule.fault.split(":", 1)[1]
            )
        else:
            base = dataclasses.replace(base, wait_phase_fault=schedule.fault)
    return config_for_protocol(schedule.protocol or "polyvalue", base=base)


@dataclass(frozen=True)
class Violation:
    """One oracle violation, tagged with where in the run it was seen."""

    phase: str
    oracle: str
    details: str

    def __str__(self) -> str:
        return f"{self.phase}: {self.oracle}: {self.details}"


@dataclass
class ExplorationResult:
    """What one schedule run produced."""

    schedule: Schedule
    violations: List[Violation]
    final_verdicts: List[Verdict]
    quiescent_checkpoints: int
    events_processed: int
    converged: bool
    artifact_path: Optional[str] = None
    #: Headline numbers of the run's metrics collector (committed,
    #: aborted, polyvalue counts, ...) — deterministic per (scenario,
    #: seed, schedule), so they survive the worker boundary intact.
    stats: Dict[str, float] = field(default_factory=dict)
    #: The run's in-doubt window distribution as non-cumulative
    #: (upper-bound, count) pairs, ready for
    #: :meth:`~repro.obs.store.CampaignStore.record_histogram`.
    in_doubt_hist: List[Tuple[float, int]] = field(default_factory=list)
    #: Position in the campaign's task list (set by the reduce step);
    #: the key the store's trial rows are written under.
    task_index: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class ExplorerReport:
    """Aggregate of an exploration batch."""

    results: List[ExplorationResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Trials that produced no result at all (worker process died);
    #: one human-readable line each.  Distinct from oracle violations.
    failed_trials: List[str] = field(default_factory=list)

    @property
    def schedules_run(self) -> int:
        return len(self.results)

    @property
    def violations(self) -> List[Violation]:
        return [v for result in self.results for v in result.violations]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.failed_trials

    @property
    def schedules_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.schedules_run / self.wall_seconds

    def summary_lines(self) -> List[str]:
        checkpoints = sum(r.quiescent_checkpoints for r in self.results)
        lines = [
            f"{self.schedules_run} schedules explored in "
            f"{self.wall_seconds:.2f}s wall "
            f"({self.schedules_per_second:.1f} schedules/s), "
            f"{checkpoints} quiescent checkpoints",
        ]
        if self.failed_trials:
            lines.append(
                f"{len(self.failed_trials)} FAILED TRIAL(S) "
                "(no result produced):"
            )
            lines.extend(f"  {entry}" for entry in self.failed_trials)
        if self.ok:
            lines.append("all oracles passed on every schedule")
        elif self.violations:
            lines.append(f"{len(self.violations)} ORACLE VIOLATION(S):")
            for result in self.results:
                for violation in result.violations:
                    where = result.artifact_path or (
                        f"{result.schedule.scenario} seed="
                        f"{result.schedule.seed}"
                    )
                    lines.append(f"  {where}: {violation}")
        return lines


# ----------------------------------------------------------------------
# Schedule generation
# ----------------------------------------------------------------------


def _site_ids(scenario: str) -> List[str]:
    return [f"site-{index}" for index in range(SCENARIOS[scenario].sites)]


def random_walk(
    scenario: str,
    seed: int,
    *,
    steps: int = 12,
    allow_partitions: bool = True,
) -> Schedule:
    """Generate one seeded random-walk schedule (symbolically — no run).

    The walk tracks which sites are down and which pairs are
    partitioned so generated actions are always sensible, and it
    guarantees nothing stays broken at the end: finalisation during the
    run recovers and heals whatever the walk left outstanding.
    """
    if scenario not in SCENARIOS:
        raise SimulationError(f"unknown scenario {scenario!r}")
    rng = Rng(seed).fork(f"walk:{scenario}")
    sites = _site_ids(scenario)
    down: set = set()
    partitions: set = set()
    now = 0.0
    actions: List[FailureAction] = []
    for _ in range(steps):
        now += rng.choice(WALK_DELTAS)
        now = round(now, 6)
        candidates: List[Tuple[str, Tuple[str, ...]]] = [("none", ())]
        for site in sites:
            if site in down:
                candidates.append(("recover", (site,)))
            elif len(down) < len(sites) - 1:
                # Keep at least one site alive so traffic can flow.
                candidates.append(("crash", (site,)))
        if allow_partitions:
            for a, b in itertools.combinations(sites, 2):
                pair = frozenset((a, b))
                if pair in partitions:
                    candidates.append(("heal", (a, b)))
                else:
                    candidates.append(("partition", (a, b)))
        kind, targets = rng.choice(candidates)
        if kind == "none":
            continue
        if kind == "crash":
            down.add(targets[0])
        elif kind == "recover":
            down.discard(targets[0])
        elif kind == "partition":
            partitions.add(frozenset(targets))
        elif kind == "heal":
            partitions.discard(frozenset(targets))
        actions.append(FailureAction(at=now, kind=kind, targets=targets))
    horizon = max(4.5, now + 0.25)
    return Schedule(
        scenario=scenario,
        seed=seed,
        actions=tuple(actions),
        horizon=round(horizon, 6),
        label=f"walk:{scenario}:{seed}",
    )


def enumerate_small_scope(
    scenarios: Sequence[str] = ("pair", "transfers"),
    *,
    seed: int = 0,
    crash_instants: Sequence[float] = PHASE_GRID,
    durations: Sequence[float] = OUTAGE_DURATIONS,
) -> List[Schedule]:
    """Systematic small-scope schedules over the 2- and 3-site scenarios.

    Every site is crashed at every protocol-phase instant for every
    outage duration, and every site pair is partitioned across the
    commit window.  With the default grids this is a bounded, fast,
    exhaustive-in-the-small sweep (~70 schedules).
    """
    schedules: List[Schedule] = []
    for scenario in scenarios:
        sites = _site_ids(scenario)
        for victim, at, duration in itertools.product(
            sites, crash_instants, durations
        ):
            schedules.append(
                Schedule(
                    scenario=scenario,
                    seed=seed,
                    actions=(
                        FailureAction(at=at, kind="crash", targets=(victim,)),
                        FailureAction(
                            at=round(at + duration, 6),
                            kind="recover",
                            targets=(victim,),
                        ),
                    ),
                    label=(
                        f"scope:{scenario}:crash:{victim}@{at:g}+{duration:g}"
                    ),
                )
            )
        for (a, b), at in itertools.product(
            itertools.combinations(sites, 2), (0.015, 0.045)
        ):
            schedules.append(
                Schedule(
                    scenario=scenario,
                    seed=seed,
                    actions=(
                        FailureAction(at=at, kind="partition", targets=(a, b)),
                        FailureAction(
                            at=round(at + 1.0, 6), kind="heal", targets=(a, b)
                        ),
                    ),
                    label=f"scope:{scenario}:partition:{a}|{b}@{at:g}",
                )
            )
    return schedules


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def _write_artifact(
    schedule: Schedule, violations: List[Violation], artifact_dir: str
) -> str:
    return write_violation_artifact(
        schedule, violations, artifact_dir, prefix="violation"
    )


def load_artifact(path: str) -> Schedule:
    """Load the ``(seed, schedule)`` of a violation artifact."""
    with open(path, "r", encoding="utf-8") as handle:
        return Schedule.from_dict(json.load(handle))


def run_schedule(
    schedule: Schedule,
    *,
    artifact_dir: Optional[str] = None,
    settle_budget: float = 120.0,
    system_factory: Optional[Callable] = None,
) -> ExplorationResult:
    """Execute one schedule and judge it with the full oracle catalogue.

    The run applies each failure action at its exact virtual time,
    drives the system to quiescence between actions (bounded by the
    next action's time) and evaluates the quiescent-point oracles at
    every such point.  After the last action and the traffic horizon it
    recovers every site, heals every partition, clears every gray
    degradation, settles, and evaluates the convergence oracles.  Any
    violation (or an outright crash of the protocol code) is recorded;
    with *artifact_dir* set, a replayable artifact is written.

    *system_factory* (``schedule -> DistributedSystem``) overrides the
    default scenario construction — the chaos campaign uses it to build
    scenarios over lossy/corrupting networks with resilience configs.
    A factory takes full responsibility for the config (including
    ``schedule.fault``, which the default path arms itself).
    """
    if system_factory is not None:
        system = system_factory(schedule)
    else:
        system = build_scenario(
            schedule.scenario, schedule.seed, config=schedule_config(schedule)
        )
    ctx = CheckContext(system=system)
    script = ScheduleScript(system.sim, system, system.network, ())
    violations: List[Violation] = []
    checkpoints = 0

    def note(phase: str, verdicts: List[Verdict]) -> None:
        for verdict in failed(verdicts):
            violations.append(
                Violation(
                    phase=phase, oracle=verdict.oracle, details=verdict.details
                )
            )

    final_verdicts: List[Verdict] = []
    converged = False
    try:
        pending = sorted(schedule.actions, key=lambda action: action.at)
        for index, action in enumerate(pending):
            system.run_until(action.at)
            script.apply(action)
            next_at = (
                pending[index + 1].at
                if index + 1 < len(pending)
                else schedule.horizon
            )
            if system.run_to_quiescence(max_time=next_at):
                checkpoints += 1
                note(
                    f"quiescent@t={system.now:.3f} after "
                    f"{action.kind}({','.join(action.targets)})",
                    check_quiescent(ctx),
                )
        system.run_until(max(system.now, schedule.horizon))
        # Finalisation: deterministically repair everything, then let
        # the section 3.3 machinery resolve all remaining uncertainty.
        system.network.heal_all()
        system.network.clear_degradations()
        for site in system.down_sites():
            system.recover_site(site)
        converged = system.settle(
            max_time=system.now + settle_budget, step=0.5
        )
        system.run_to_quiescence(max_time=system.now + 5.0)
        checkpoints += 1
        final_verdicts = check_converged(ctx)
        note(f"converged@t={system.now:.3f}", final_verdicts)
    except Exception as error:  # noqa: BLE001 — a crash IS a finding
        violations.append(
            Violation(
                phase=f"exception@t={system.now:.3f}",
                oracle="no-crash",
                details=f"{type(error).__name__}: {error}",
            )
        )
    artifact_path: Optional[str] = None
    if violations and artifact_dir is not None:
        artifact_path = _write_artifact(schedule, violations, artifact_dir)
    return ExplorationResult(
        schedule=schedule,
        violations=violations,
        final_verdicts=final_verdicts,
        quiescent_checkpoints=checkpoints,
        events_processed=system.sim.events_processed,
        converged=converged,
        artifact_path=artifact_path,
        stats=system.metrics.summary(),
        in_doubt_hist=_in_doubt_hist(system),
    )


def _in_doubt_hist(system) -> List[Tuple[float, int]]:
    """The run's in-doubt window histogram as (upper-bound, count)
    pairs, non-cumulative, with the +Inf overflow slot last."""
    family = system.metrics.registry.get("repro_in_doubt_window_seconds")
    if family is None:
        return []
    child = family.merged()
    bounds = list(child.buckets) + [float("inf")]
    return list(zip(bounds, child.counts))


def replay(artifact_path: str, **kwargs) -> ExplorationResult:
    """Re-execute the schedule stored in a violation artifact.

    Determinism guarantee: the same (scenario, seed, actions) triple
    reproduces the same event interleaving, so the recorded violation
    either reappears identically (a real, stable finding) or the
    artifact was produced by a since-fixed build.
    """
    return run_schedule(load_artifact(artifact_path), **kwargs)


def _explore_trial(schedule: Schedule) -> ExplorationResult:
    """The engine worker: one schedule, no artifact I/O in the worker.

    Artifacts are written by the reduce step in the parent so the file
    set is identical whatever the worker count.
    """
    return run_schedule(schedule, artifact_dir=None)


def reduce_exploration(
    schedules: Sequence[Schedule],
    outcome,
    *,
    artifact_dir: Optional[str] = None,
    artifact_prefix: str = "violation",
    artifact_extra: Optional[Dict] = None,
) -> Tuple[List[ExplorationResult], List[str]]:
    """The typed reduce step shared by the explorer and chaos campaigns.

    Merges a :class:`~repro.parallel.pool.CampaignOutcome` back into the
    serial output shape: completed :class:`ExplorationResult` records in
    schedule order (violating ones get their artifact written here, by
    the parent), plus one line per trial that produced no result.
    """
    errors = {failure.index: failure.error for failure in outcome.failures}
    results: List[ExplorationResult] = []
    failed_trials: List[str] = []
    for index, (schedule, result) in enumerate(
        zip(schedules, outcome.results)
    ):
        if result is None:
            where = schedule.label or (
                f"{schedule.scenario} seed={schedule.seed}"
            )
            failed_trials.append(
                f"{where}: {errors.get(index, 'no result')}"
            )
            continue
        if result.violations and artifact_dir is not None:
            result.artifact_path = write_violation_artifact(
                schedule,
                result.violations,
                artifact_dir,
                prefix=artifact_prefix,
                extra=artifact_extra,
            )
        result.task_index = index
        results.append(result)
    return results, failed_trials


def explore(
    *,
    scenarios: Sequence[str] = ("pair", "transfers", "mixed"),
    seeds: Optional[Iterable[int]] = None,
    campaign_seed: int = 0,
    trials: int = 10,
    steps: int = 12,
    include_enumeration: bool = True,
    artifact_dir: Optional[str] = None,
    fault: Optional[str] = None,
    protocol: Optional[str] = None,
    jobs: Optional[int] = 1,
    bus: Optional[EventBus] = None,
) -> ExplorerReport:
    """Run the full exploration budget: random walks plus enumeration.

    Walk seeds come from the shared campaign derivation
    (:func:`repro.parallel.seeds.trial_seed` over
    ``(campaign_seed, 0..trials)``); pass *seeds* explicitly to pin
    exact walk seeds instead (replay, tests).  Every seed yields one
    random walk per scenario; the small-scope enumeration is appended
    once (it is deterministic and seed-free).  *fault* arms a
    wait-phase mutation in every run (used by the mutation smoke test;
    ``paxos:``/``path:`` prefixes arm the new protocols' mutants) and
    *protocol* walks a non-default commit protocol — see
    :func:`schedule_config`.

    *jobs* selects the campaign engine's worker count (``1`` = the
    serial in-process path, ``None`` = every core); per-seed results
    are bit-identical for every value.  *bus* receives streamed
    ``campaign.*`` progress events.
    """
    if seeds is None:
        seeds = trial_seeds(campaign_seed, trials)
    schedules: List[Schedule] = []
    for seed in seeds:
        for scenario in scenarios:
            schedules.append(random_walk(scenario, seed, steps=steps))
    if include_enumeration:
        schedules.extend(
            enumerate_small_scope(
                [name for name in ("pair", "transfers") if name in scenarios]
            )
        )
    if fault is not None or protocol is not None:
        schedules = [
            dataclasses.replace(schedule, fault=fault, protocol=protocol)
            for schedule in schedules
        ]
    report = ExplorerReport()
    started = time.perf_counter()
    outcome = run_trials(
        _explore_trial, schedules, jobs=jobs, bus=bus, label="explore"
    )
    report.results, report.failed_trials = reduce_exploration(
        schedules, outcome, artifact_dir=artifact_dir
    )
    report.wall_seconds = time.perf_counter() - started
    return report
