"""Experiment runner: workload + failures + invariant checking, in one call.

The integration tests and several benches share a shape: drive a
workload into a system while a failure injector runs, let everything
settle, then check the global guarantees (convergence, bookkeeping
emptiness, serial equivalence).  :class:`ExperimentRunner` packages
that shape for library users, and :func:`serial_replay` exposes the
ground-truth check on its own: re-execute exactly the committed
transactions, serially, in commit order, against a fresh copy of the
initial state — a correct run's final database must equal it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.core.errors import SimulationError
from repro.core.polytransaction import execute
from repro.core.polyvalue import Value
from repro.obs.export import prometheus_text
from repro.obs.registry import MetricsRegistry
from repro.txn.system import DistributedSystem
from repro.txn.transaction import TransactionHandle, TxnStatus

ItemId = str


def serial_replay(
    handles: Iterable[TransactionHandle],
    initial_values: Mapping[ItemId, Value],
) -> Dict[ItemId, Value]:
    """The state a serial execution of the committed transactions yields.

    Committed handles are replayed in commit (decision) order; aborted
    and pending transactions contribute nothing.  This is the paper's
    correctness criterion made executable: "the database state reached
    by an execution of a set of transactions must be the same as that
    reached by some serial execution of the transactions."
    """
    committed = sorted(
        (h for h in handles if h.status is TxnStatus.COMMITTED),
        key=lambda h: h.decided_at,
    )
    state: Dict[ItemId, Value] = dict(initial_values)
    for handle in committed:
        result = execute(handle.transaction.body, state)
        state.update(result.merged_writes(state))
    return state


@dataclass
class RunReport:
    """Everything an experiment run produced."""

    simulated_seconds: float
    submitted: int
    committed: int
    aborted: int
    pending: int
    polyvalues_installed: int
    polyvalues_resolved: int
    residual_polyvalues: int
    residual_bookkeeping: int
    mean_polyvalues: Optional[float]
    serially_equivalent: Optional[bool]
    final_state: Dict[ItemId, Value] = field(default_factory=dict)
    #: The system's labeled metrics registry at report time (None when
    #: the system predates the registry — e.g. hand-built doubles).
    registry: Optional[MetricsRegistry] = None

    def to_prometheus(self) -> str:
        """The run's metrics in the Prometheus text exposition format."""
        if self.registry is None:
            raise ValueError("this report carries no metrics registry")
        return prometheus_text(self.registry)

    @property
    def converged(self) -> bool:
        """No residual uncertainty, bookkeeping, or undecided work."""
        return (
            self.residual_polyvalues == 0
            and self.residual_bookkeeping == 0
            and self.pending == 0
        )

    @property
    def commit_rate(self) -> float:
        decided = self.committed + self.aborted
        return self.committed / decided if decided else 0.0

    def summary_lines(self) -> List[str]:
        """Human-readable report (for examples and bench output)."""
        lines = [
            f"simulated {self.simulated_seconds:g}s: "
            f"{self.committed} committed, {self.aborted} aborted, "
            f"{self.pending} pending",
            f"polyvalues: {self.polyvalues_installed} installed, "
            f"{self.polyvalues_resolved} resolved, "
            f"{self.residual_polyvalues} residual",
        ]
        if self.mean_polyvalues is not None:
            lines.append(
                f"time-weighted mean polyvalues: {self.mean_polyvalues:.3f}"
            )
        if self.serially_equivalent is not None:
            lines.append(
                f"serially equivalent to committed history: "
                f"{self.serially_equivalent}"
            )
        return lines


class ExperimentRunner:
    """Run a workload (and optional failures) to convergence.

    Parameters
    ----------
    system:
        The system under test.  Any failure injector should already be
        attached to ``system.sim`` (ScriptedFailures / RandomFailures).
    workload:
        An object with ``start()``/``stop()`` and a ``handles`` list
        (e.g. :class:`~repro.workloads.generator.RandomUpdateWorkload`),
        or None to run only whatever was submitted by hand.
    initial_values:
        Required for the serial-equivalence check; omit to skip it.
    workload_name:
        Label value under which this run's transaction deltas are
        recorded in the ``repro_workload_transactions_total`` counter
        (default: the workload object's class name, or ``"adhoc"``).
    """

    def __init__(
        self,
        system: DistributedSystem,
        *,
        workload=None,
        initial_values: Optional[Mapping[ItemId, Value]] = None,
        workload_name: str = "",
    ) -> None:
        self._system = system
        self._workload = workload
        self._initial_values = (
            dict(initial_values) if initial_values is not None else None
        )
        if not workload_name:
            workload_name = (
                type(workload).__name__ if workload is not None else "adhoc"
            )
        self._workload_name = workload_name

    def run(
        self,
        duration: float,
        *,
        settle: float = 30.0,
        settle_step: float = 1.0,
        max_settle: float = 300.0,
    ) -> RunReport:
        """Drive for *duration* simulated seconds, then settle.

        Settling runs in *settle_step* increments past the minimum
        *settle* window until the system converges (or *max_settle*
        elapses — a run that cannot converge returns a report with
        ``converged == False`` rather than raising, so callers can
        inspect what was left).
        """
        if duration <= 0:
            raise SimulationError(f"duration must be positive, got {duration}")
        system = self._system
        metrics = system.metrics
        before = (metrics.submitted, metrics.committed, metrics.aborted)
        if self._workload is not None:
            self._workload.start()
        system.run_for(duration)
        if self._workload is not None:
            self._workload.stop()
        system.run_for(settle)
        settled = settle
        while settled < max_settle and not system.converged():
            system.run_for(settle_step)
            settled += settle_step
        self._record_workload_deltas(before)
        return self._report(duration)

    def _record_workload_deltas(self, before) -> None:
        """File this run's transaction deltas under its workload label.

        The per-site counters accumulate across runs sharing a system;
        the workload-labeled counter attributes each run's share to the
        generator that produced the traffic.
        """
        metrics = self._system.metrics
        counter = metrics.registry.counter(
            "repro_workload_transactions_total",
            "Transactions per workload generator and outcome",
            ("workload", "outcome"),
        )
        for outcome, now, then in (
            ("submitted", metrics.submitted, before[0]),
            ("committed", metrics.committed, before[1]),
            ("aborted", metrics.aborted, before[2]),
        ):
            if now > then:
                counter.inc(
                    now - then, workload=self._workload_name, outcome=outcome
                )

    def _handles(self) -> List[TransactionHandle]:
        return list(self._system.handles)

    def _report(self, duration: float) -> RunReport:
        system = self._system
        handles = self._handles()
        metrics = system.metrics
        mean_polyvalues: Optional[float] = None
        if len(metrics.polyvalue_count) > 0:
            try:
                mean_polyvalues = metrics.polyvalue_count.time_weighted_mean(
                    metrics.polyvalue_count.points[0][0], system.now
                )
            except ValueError:
                mean_polyvalues = None
        serially_equivalent: Optional[bool] = None
        final_state = system.database_state()
        if self._initial_values is not None:
            expected = serial_replay(handles, self._initial_values)
            serially_equivalent = final_state == expected
        return RunReport(
            simulated_seconds=system.now,
            submitted=metrics.submitted,
            committed=metrics.committed,
            aborted=metrics.aborted,
            pending=len(system.pending_handles()),
            polyvalues_installed=metrics.polyvalues_installed,
            polyvalues_resolved=metrics.polyvalues_resolved,
            residual_polyvalues=system.total_polyvalues(),
            residual_bookkeeping=system.outcome_bookkeeping_size(),
            mean_polyvalues=mean_polyvalues,
            serially_equivalent=serially_equivalent,
            final_state=final_state,
            registry=getattr(metrics, "registry", None),
        )
