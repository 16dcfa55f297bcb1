"""Failure injection: crash/recovery schedules for the full-system simulator.

The paper's analysis is parameterised by a per-update failure
probability ``F`` and a recovery rate ``R`` (mean repair time ``1/R``,
exponentially distributed in the section 4.2 simulation).  This module
provides both:

* :class:`ScriptedFailures` — an exact list of (site, crash time,
  duration) triples, for tests and for driving the protocol through
  specific Figure-1 transitions; and
* :class:`RandomFailures` — Poisson crash arrivals per site with
  exponential repair times, for statistical experiments.

Both drive any object implementing the :class:`Crashable` duck type
(the :class:`~repro.txn.system.DistributedSystem` facade does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Protocol, Sequence, Tuple

from repro.core.errors import SimulationError
from repro.net.message import SiteId
from repro.sim.engine import Simulator
from repro.sim.rand import Rng


class Crashable(Protocol):
    """Anything the injectors can crash and recover."""

    def crash_site(self, site: SiteId) -> None:
        """Take *site* down (it stops processing and its traffic drops)."""

    def recover_site(self, site: SiteId) -> None:
        """Bring *site* back up (it runs its recovery procedure)."""


@dataclass(frozen=True)
class CrashPlan:
    """One scheduled outage: *site* goes down at *at* for *duration* seconds."""

    site: SiteId
    at: float
    duration: float

    def __post_init__(self) -> None:
        if self.at < 0 or self.duration <= 0:
            raise SimulationError(
                f"invalid crash plan for {self.site}: at={self.at}, "
                f"duration={self.duration}"
            )


class ScriptedFailures:
    """Replay an exact outage schedule.

    Deterministic failure injection is what lets the Figure-1 bench and
    the protocol tests force a failure into precisely the wait phase of
    a chosen transaction.
    """

    def __init__(
        self, sim: Simulator, target: Crashable, plans: Iterable[CrashPlan]
    ) -> None:
        self._sim = sim
        self._target = target
        self.plans: List[CrashPlan] = sorted(plans, key=lambda p: p.at)
        for plan in self.plans:
            sim.schedule_at(
                plan.at,
                lambda p=plan: self._crash(p),
                label=f"crash:{plan.site}",
            )

    def _crash(self, plan: CrashPlan) -> None:
        self._target.crash_site(plan.site)
        self._sim.schedule(
            plan.duration,
            lambda: self._target.recover_site(plan.site),
            label=f"recover:{plan.site}",
        )


@dataclass(frozen=True)
class FailureAction:
    """One scheduled failure-injection action, at absolute time *at*.

    ``kind`` is one of the fail-stop kinds — ``"crash"``, ``"recover"``,
    ``"partition"``, ``"heal"``, ``"heal-all"`` — or the gray-failure
    kinds — ``"degrade"``/``"restore"`` (site latency multiplier),
    ``"link-spike"``/``"link-clear"`` (directed link multiplier) and
    ``"partition-oneway"``/``"heal-oneway"`` (asymmetric reachability).
    ``targets`` names the affected site(s); for the directed kinds the
    order is ``(sender, recipient)``.  ``value`` carries the multiplier
    for ``degrade``/``link-spike`` and is ignored elsewhere.  This is
    the on-disk vocabulary of the schedule explorer's
    ``(seed, schedule)`` artifacts (:mod:`repro.check.explorer`), so a
    violating interleaving replays exactly.
    """

    at: float
    kind: str
    targets: Tuple[SiteId, ...] = ()
    value: float = 0.0

    KINDS = (
        "crash",
        "recover",
        "partition",
        "heal",
        "heal-all",
        "degrade",
        "restore",
        "link-spike",
        "link-clear",
        "partition-oneway",
        "heal-oneway",
    )

    #: Kinds whose ``value`` is a latency multiplier (must be >= 1).
    VALUED_KINDS = ("degrade", "link-spike")

    _TARGET_COUNTS = {
        "crash": 1,
        "recover": 1,
        "partition": 2,
        "heal": 2,
        "heal-all": 0,
        "degrade": 1,
        "restore": 1,
        "link-spike": 2,
        "link-clear": 2,
        "partition-oneway": 2,
        "heal-oneway": 2,
    }

    def __post_init__(self) -> None:
        if self.at < 0:
            raise SimulationError(f"action time must be >= 0, got {self.at}")
        if self.kind not in self.KINDS:
            raise SimulationError(f"unknown failure action kind {self.kind!r}")
        expected = self._TARGET_COUNTS[self.kind]
        if len(self.targets) != expected:
            raise SimulationError(
                f"{self.kind} takes {expected} target(s), got {self.targets}"
            )
        if self.kind in self.VALUED_KINDS and self.value < 1.0:
            raise SimulationError(
                f"{self.kind} needs a multiplier value >= 1, got {self.value}"
            )


class PartitionableNetwork(Protocol):
    """The network surface :class:`ScheduleScript` drives."""

    def partition(self, a: SiteId, b: SiteId) -> None: ...

    def heal(self, a: SiteId, b: SiteId) -> None: ...

    def heal_all(self) -> None: ...

    def degrade_site(self, site: SiteId, factor: float) -> None: ...

    def restore_site(self, site: SiteId) -> None: ...

    def spike_link(self, sender: SiteId, recipient: SiteId, factor: float) -> None: ...

    def clear_link(self, sender: SiteId, recipient: SiteId) -> None: ...

    def partition_oneway(self, sender: SiteId, recipient: SiteId) -> None: ...

    def heal_oneway(self, sender: SiteId, recipient: SiteId) -> None: ...


class ScheduleScript:
    """Replay an exact failure schedule of mixed action kinds.

    Where :class:`ScriptedFailures` expresses self-contained outages
    (crash + automatic recovery), a schedule script is the fully
    general form the schedule explorer emits: an ordered list of
    crash / recover / partition / heal actions at absolute times.
    Applying the same actions to the same seeded system reproduces the
    same interleaving, which is what makes explorer violation
    artifacts deterministic repro cases.
    """

    def __init__(
        self,
        sim: Simulator,
        target: Crashable,
        network: PartitionableNetwork,
        actions: Iterable[FailureAction],
    ) -> None:
        self._target = target
        self._network = network
        self.actions: List[FailureAction] = sorted(
            actions, key=lambda action: action.at
        )
        for action in self.actions:
            sim.schedule_at(
                action.at,
                lambda a=action: self.apply(a),
                label=f"schedule:{action.kind}",
            )

    def apply(self, action: FailureAction) -> None:
        """Apply one action now (also usable without scheduling)."""
        if action.kind == "crash":
            self._target.crash_site(action.targets[0])
        elif action.kind == "recover":
            self._target.recover_site(action.targets[0])
        elif action.kind == "partition":
            self._network.partition(*action.targets)
        elif action.kind == "heal":
            self._network.heal(*action.targets)
        elif action.kind == "heal-all":
            self._network.heal_all()
        elif action.kind == "degrade":
            # Prefer the system facade (it emits obs events) when the
            # crash target exposes degradation; fall back to the raw
            # network for network-only scripts.
            driver = (
                self._target
                if hasattr(self._target, "degrade_site")
                else self._network
            )
            driver.degrade_site(action.targets[0], action.value)
        elif action.kind == "restore":
            driver = (
                self._target
                if hasattr(self._target, "restore_site")
                else self._network
            )
            driver.restore_site(action.targets[0])
        elif action.kind == "link-spike":
            self._network.spike_link(*action.targets, action.value)
        elif action.kind == "link-clear":
            self._network.clear_link(*action.targets)
        elif action.kind == "partition-oneway":
            self._network.partition_oneway(*action.targets)
        elif action.kind == "heal-oneway":
            self._network.heal_oneway(*action.targets)


class RandomFailures:
    """Poisson crash arrivals with exponential repair times.

    Parameters
    ----------
    crash_rate:
        Expected crashes per simulated second, per site.
    mean_repair:
        Mean outage duration (the paper's ``1/R``).
    sites:
        Which sites may crash.  A site that is already down when its
        next crash fires simply reschedules.
    """

    def __init__(
        self,
        sim: Simulator,
        target: Crashable,
        rng: Rng,
        *,
        crash_rate: float,
        mean_repair: float,
        sites: Sequence[SiteId],
    ) -> None:
        if crash_rate < 0:
            raise SimulationError(f"crash_rate must be >= 0, got {crash_rate}")
        if mean_repair <= 0:
            raise SimulationError(f"mean_repair must be > 0, got {mean_repair}")
        if not sites:
            raise SimulationError("RandomFailures needs at least one site")
        self._sim = sim
        self._target = target
        self._rng = rng
        self._crash_rate = crash_rate
        self._mean_repair = mean_repair
        self._sites = list(sites)
        self._down: set = set()
        self.crashes_injected = 0
        if crash_rate > 0:
            for site in self._sites:
                self._schedule_next_crash(site)

    def _schedule_next_crash(self, site: SiteId) -> None:
        delay = self._rng.exponential(1.0 / self._crash_rate)
        self._sim.schedule(delay, lambda: self._crash(site), label=f"crash:{site}")

    def _crash(self, site: SiteId) -> None:
        if site not in self._down:
            self._down.add(site)
            self.crashes_injected += 1
            self._target.crash_site(site)
            repair = self._rng.exponential(self._mean_repair)
            self._sim.schedule(
                repair, lambda: self._recover(site), label=f"recover:{site}"
            )
        self._schedule_next_crash(site)

    def _recover(self, site: SiteId) -> None:
        self._down.discard(site)
        self._target.recover_site(site)
