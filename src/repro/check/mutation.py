"""Mutation smoke test: prove the oracles catch real protocol bugs.

An oracle library that has never failed proves nothing — it might be
vacuously green.  :func:`run_mutation_smoke` arms each mutant of the
:mod:`repro.check.mutants` catalogue in turn (the bugs are applied to a
built system from the harness; no protocol code carries a fault knob)
and runs the schedule explorer over schedules under which that mutant
is observable.  The harness passes only if **every** mutant is caught
by at least one oracle **and** the unmutated protocol passes the same
schedules clean.

The three wait-phase mutants each break a different paper claim, so
together they exercise most of the oracle catalogue:

* ``unilateral-commit`` — the participant commits its staged writes at
  wait timeout instead of installing polyvalues (the classic unsafe
  resolution of the in-doubt window; section 2).  Caught by
  serial-equivalence (a possibly-aborted transaction's effects
  survive).
* ``overlapping-conditions`` — the installed polyvalue pairs
  ``<new, T>`` with ``<old, TRUE>`` instead of ``<old, ~T>``, so two
  conditions are simultaneously true (violates section 3's
  "one and only one").  Caught by condition-sets / single-outcome.
* ``keep-locks`` — polyvalues are installed correctly but the item
  locks are never released, defeating the availability claim the
  polyvalue mechanism exists to provide.  Caught by no-blocking and
  convergence.

The bake-off peers' mutants (:data:`PROTOCOL_FAULTS`) are a Paxos
acceptor that acks without persisting its vote (caught by
decision-consistency via the shared decision board) and a
path-sensitive pre-analysis that misclassifies or drops effects
(caught by the effect-conservation oracle).  Each mutant needs its own
traffic shape or failure timing to become observable, so the schedules
are chosen per fault (:func:`smoke_schedules`).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

from repro.net.failures import FailureAction
from repro.check.explorer import (
    Schedule,
    Violation,
    enumerate_small_scope,
    run_schedule,
)
from repro.check.mutants import FAULTS, installer


@dataclass
class FaultOutcome:
    """What the explorer saw with one fault armed."""

    fault: str
    schedules_run: int
    violations: List[Violation]
    oracles_triggered: List[str] = field(default_factory=list)
    #: Per schedule, how many times the armed bug ran.
    fired: List[int] = field(default_factory=list)

    @property
    def caught(self) -> bool:
        return bool(self.violations)


@dataclass
class MutationReport:
    """Result of the full smoke test: clean baseline + every fault caught."""

    baseline_violations: List[Violation]
    outcomes: List[FaultOutcome]
    schedules_per_fault: int = 0
    wall_seconds: float = 0.0

    @property
    def baseline_ok(self) -> bool:
        return not self.baseline_violations

    @property
    def ok(self) -> bool:
        return self.baseline_ok and all(o.caught for o in self.outcomes)

    def summary_lines(self) -> List[str]:
        lines = [
            f"mutation smoke: {len(self.outcomes)} fault(s) x "
            f"{self.schedules_per_fault} schedule(s) in "
            f"{self.wall_seconds:.2f}s wall",
        ]
        if self.baseline_ok:
            lines.append("  baseline (no fault): all oracles passed")
        else:
            lines.append(
                f"  baseline (no fault): {len(self.baseline_violations)} "
                f"UNEXPECTED violation(s):"
            )
            for violation in self.baseline_violations:
                lines.append(f"    {violation}")
        for outcome in self.outcomes:
            if outcome.caught:
                lines.append(
                    f"  {outcome.fault}: CAUGHT by "
                    f"{', '.join(outcome.oracles_triggered)} "
                    f"({len(outcome.violations)} violation(s))"
                )
            else:
                lines.append(
                    f"  {outcome.fault}: NOT CAUGHT — oracle gap!"
                )
        return lines


def _armed(schedule: Schedule, fault: Optional[str]) -> Schedule:
    return dataclasses.replace(
        schedule,
        fault=fault,
        label=f"{schedule.label}|fault={fault}" if fault else schedule.label,
    )


def _paxos_smoke_schedules(seed: int) -> List[Schedule]:
    """Schedules that make ``paxos:acceptor-no-persist`` observable.

    The mutant is invisible while the ballot-0 leader stays fast: the
    fast-path Phase2b quorum completes before any failover Phase1 ever
    reads the (unpersisted) acceptor history.  Degrading the
    coordinator site *after* every participant's Phase2a vote is out
    but *before* the leader's Phase2b quorum completes (the
    0.056-0.065 window for the transfers scenario's first cross-site
    transfer at default timings) slows only the collection leg, so the
    participants' failover timers fire while the ballot-0 Phase2b
    messages are still crawling home.  A correct acceptor hands the
    failover its ``prepared`` vote and both proposers agree; the
    mutant hands it nothing, the failover presumes abort, and the
    ballot-0 leader later commits — a decision conflict the
    decision-consistency oracle reports from the shared board.
    (Degrading earlier delays the leader's own participant vote too,
    and then *both* proposers see an incomplete history and agree on
    abort — the mutant hides.)
    """
    schedules = []
    for at in (0.056, 0.06, 0.065):
        schedules.append(
            Schedule(
                scenario="transfers",
                seed=seed,
                actions=(
                    FailureAction(
                        at=at, kind="degrade", targets=("site-0",), value=100.0
                    ),
                    FailureAction(at=2.0, kind="restore", targets=("site-0",)),
                ),
                protocol="paxos",
                label=f"paxos-slow-leader@{at}",
            )
        )
    return schedules


def _path_smoke_schedules(fault: str, seed: int) -> List[Schedule]:
    """Schedules that make the path-sensitive mutants observable.

    Both mutants corrupt the fast path itself, so no failure injection
    is needed — a failure-free run over traffic with the right shape
    suffices.  ``misclassify-one`` needs an order-sensitive transaction
    (the ``mixed`` scenario's copy) to force onto the fast path;
    ``drop-remote-apply`` needs a genuinely decomposable multi-site
    transaction (any ``transfers`` braid) whose remote delta it can
    swallow.
    """
    scenarios = ("mixed",) if fault == "path:misclassify-one" else ("transfers",)
    return [
        Schedule(
            scenario=scenario,
            seed=seed,
            actions=(),
            protocol="pathsensitive",
            label=f"path-{scenario}",
        )
        for scenario in scenarios
    ]


def smoke_schedules(fault: str, seed: int = 0) -> List[Schedule]:
    """Schedules (fault *not* yet armed) under which *fault* is visible.

    The wait-phase mutants share schedules that force polyvalue
    installation (long coordinator outages straddling the wait phase).
    Raises ValueError for a name outside the catalogue.
    """
    installer(fault)
    if fault.startswith("paxos:"):
        return _paxos_smoke_schedules(seed)
    if fault.startswith("path:"):
        return _path_smoke_schedules(fault, seed)
    return enumerate_small_scope(
        ("pair", "transfers"),
        seed=seed,
        crash_instants=(0.03, 0.045),
        durations=(2.5,),
    )


def run_mutation_smoke(
    *,
    faults: Sequence[str] = tuple(FAULTS),
    seed: int = 0,
    artifact_dir: Optional[str] = None,
) -> MutationReport:
    """Run the smoke test: baseline must be clean, every fault caught.

    Every fault runs over its own :func:`smoke_schedules`; each distinct
    schedule also runs once with nothing armed, and those baseline runs
    must raise no violation.  Unknown fault names are rejected before
    anything runs.  Artifacts (when *artifact_dir* is given) are
    written only for baseline violations — a violation under an armed
    fault is the expected outcome, not a finding.
    """
    schedules = {fault: smoke_schedules(fault, seed) for fault in faults}
    started = time.perf_counter()
    baseline_violations: List[Violation] = []
    baseline_done: Set[str] = set()
    outcomes: List[FaultOutcome] = []
    for fault in faults:
        for schedule in schedules[fault]:
            key = schedule.fingerprint()
            if key not in baseline_done:
                baseline_done.add(key)
                result = run_schedule(schedule, artifact_dir=artifact_dir)
                baseline_violations.extend(result.violations)
        results = [
            run_schedule(_armed(schedule, fault)) for schedule in schedules[fault]
        ]
        violations = [v for result in results for v in result.violations]
        outcomes.append(
            FaultOutcome(
                fault=fault,
                schedules_run=len(results),
                violations=violations,
                oracles_triggered=sorted({v.oracle for v in violations}),
                fired=[result.fault_fired for result in results],
            )
        )
    return MutationReport(
        baseline_violations=baseline_violations,
        outcomes=outcomes,
        schedules_per_fault=max(map(len, schedules.values()), default=0),
        wall_seconds=time.perf_counter() - started,
    )
