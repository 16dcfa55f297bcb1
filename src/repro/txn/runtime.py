"""Shared runtime plumbing for the transaction layer.

:class:`SiteRuntime` bundles the per-site services (clock, transport,
store, locks, outcome table, metrics) that the participant and
coordinator roles both need, and :class:`TransitionLog` records the
Figure-1 state transitions that the protocol bench replays.

The clock/timer/transport surface is the :class:`repro.runtime.Runtime`
interface — the protocol state machines never touch the simulator or
the network directly, which is what lets the same code run on the
discrete-event kernel (:class:`repro.runtime.SimRuntime`) or on
wall-clock asyncio sockets (:class:`repro.runtime.AsyncioRuntime`).

Configuration (:class:`CommitPolicy`, :class:`ProtocolConfig`, …) moved
to :mod:`repro.txn.config`; importing those names from here still works
but emits :class:`DeprecationWarning`.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List
from typing import Mapping, Optional, Set, Tuple

from repro.core.outcome import OutcomeLog, OutcomeTable
from repro.core.polyvalue import Value, depends_on, is_polyvalue, simplify
from repro.db.catalog import Catalog
from repro.db.locks import LockManager
from repro.db.store import ItemStore
from repro.metrics.collector import MetricsCollector
from repro.net.message import SiteId
from repro.obs.events import EventBus
from repro.runtime.base import Runtime, TimerHandle
from repro.txn.timeouts import Patience

if TYPE_CHECKING:  # the runtime value lives in repro.txn.config now
    from repro.txn.config import ProtocolConfig
    from repro.txn.transaction import TransactionHandle


#: Participant states, exactly the three of Figure 1.
class SiteState(enum.Enum):
    IDLE = "idle"
    COMPUTE = "compute"
    WAIT = "wait"


@dataclass(frozen=True)
class Transition:
    """One observed Figure-1 state transition at one site."""

    time: float
    site: SiteId
    txn: str
    source: SiteState
    target: SiteState
    trigger: str


class TransitionLog:
    """An append-only record of participant state transitions.

    The Figure 1 bench uses this to demonstrate that the implementation
    realises exactly the paper's state diagram: every observed
    (source, trigger, target) triple must be one of the six edges.
    """

    #: The six edges of Figure 1 as (source, trigger, target).
    FIGURE_1_EDGES = frozenset(
        [
            (SiteState.IDLE, "begin", SiteState.COMPUTE),
            (SiteState.COMPUTE, "ready", SiteState.WAIT),
            (SiteState.COMPUTE, "abort", SiteState.IDLE),
            (SiteState.COMPUTE, "compute-timeout", SiteState.IDLE),
            (SiteState.WAIT, "complete", SiteState.IDLE),
            (SiteState.WAIT, "abort", SiteState.IDLE),
            (SiteState.WAIT, "wait-timeout", SiteState.IDLE),
        ]
    )

    def __init__(self, bus: Optional[EventBus] = None) -> None:
        self.records: List[Transition] = []
        self._bus = bus

    def record(
        self,
        time: float,
        site: SiteId,
        txn: str,
        source: SiteState,
        target: SiteState,
        trigger: str,
    ) -> None:
        """Append one transition (and mirror it onto the event bus)."""
        self.records.append(
            Transition(
                time=time,
                site=site,
                txn=txn,
                source=source,
                target=target,
                trigger=trigger,
            )
        )
        bus = self._bus
        if bus:
            bus.emit(
                "site.state",
                time=time,
                txn=txn,
                site=site,
                source=source.value,
                target=target.value,
                trigger=trigger,
            )

    def edge_counts(self) -> Dict[Tuple[str, str, str], int]:
        """How many times each (source, trigger, target) edge fired."""
        counts: Dict[Tuple[str, str, str], int] = {}
        for record in self.records:
            key = (record.source.value, record.trigger, record.target.value)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def observed_edges(self) -> frozenset:
        """The distinct (source, trigger, target) triples observed."""
        return frozenset(
            (record.source, record.trigger, record.target)
            for record in self.records
        )

    def all_edges_valid(self) -> bool:
        """True iff every observed transition is an edge of Figure 1."""
        return self.observed_edges() <= self.FIGURE_1_EDGES

    def to_dot(self, *, observed_only: bool = True) -> str:
        """Render the state diagram as Graphviz DOT.

        With *observed_only* (default) edges carry the empirically
        observed counts and unobserved Figure-1 edges are drawn dashed;
        otherwise all seven edges are drawn plain.  Paste the output
        into any DOT renderer to get Figure 1 with live annotations.
        """
        counts = self.edge_counts()
        lines = [
            "digraph update_protocol {",
            "  rankdir=LR;",
            '  node [shape=ellipse, fontname="Helvetica"];',
            "  idle; compute; wait;",
        ]
        for source, trigger, target in sorted(
            self.FIGURE_1_EDGES, key=lambda e: (e[0].value, e[1])
        ):
            key = (source.value, trigger, target.value)
            count = counts.get(key, 0)
            if observed_only:
                style = "solid" if count else "dashed"
                label = f"{trigger} (x{count})" if count else trigger
            else:
                style = "solid"
                label = trigger
            lines.append(
                f'  {source.value} -> {target.value} '
                f'[label="{label}", style={style}];'
            )
        lines.append("}")
        return "\n".join(lines)


@dataclass
class SiteRuntime:
    """The services one database site's protocol roles share.

    All clock, timer, and transport access funnels through :attr:`rt`
    — a :class:`repro.runtime.Runtime`.  Swapping that one field is
    what moves a site between simulated time and wall-clock sockets.
    """

    site_id: SiteId
    rt: Runtime
    catalog: Catalog
    store: ItemStore
    locks: LockManager
    outcomes: OutcomeTable
    outcome_log: OutcomeLog
    config: ProtocolConfig
    metrics: MetricsCollector
    transitions: TransitionLog
    #: Durable cache of transaction outcomes this site has learned
    #: (its own decisions as coordinator plus notifications received).
    #: Incoming and installed values are eagerly reduced against it,
    #: which closes the race where an outcome notification arrives
    #: before a polyvalue that depends on it.  The paper's "quickly
    #: deleted" bookkeeping is the per-item OutcomeTable; this cache is
    #: an implementation convenience documented in DESIGN.md.
    known_outcomes: Dict[str, bool] = field(default_factory=dict)
    #: Durable set of in-doubt transactions this site was a *direct*
    #: participant of (it installed wait-timeout polyvalues for them).
    #: Only these are actively queried at the coordinator; sites holding
    #: merely-forwarded polyvalues are resolved through the section 3.3
    #: notification chain instead.
    direct_doubts: Set[str] = field(default_factory=set)
    up: bool = True
    #: The system-wide observability bus (None in standalone use; every
    #: emission is guarded so the unobserved cost is a truthiness check).
    bus: Optional[EventBus] = None
    #: Per-peer RTT estimators + timeout policy (auto-built from the
    #: config; volatile — survives crashes only because rebuilding from
    #: scratch is exactly what a recovering site would do anyway).
    patience: Optional[Patience] = None

    def __post_init__(self) -> None:
        if self.patience is None:
            self.patience = Patience(self.config.timeout_policy)

    def send(self, recipient: SiteId, payload: Any) -> None:
        """Send a protocol message from this site."""
        self.rt.send(self.site_id, recipient, payload)

    def schedule(self, delay: float, action: Callable[[], None], *, label: str = "") -> TimerHandle:
        """Schedule an action, guarded so it is dropped if the site is down.

        A crashed site's timers must not fire: the site's volatile state
        is gone and the action would act on stale state.
        """

        def guarded() -> None:
            if self.up:
                action()

        return self.rt.schedule(delay, guarded, label=label, site=self.site_id)

    @property
    def now(self) -> float:
        """Current runtime time (simulated or wall-clock seconds)."""
        return self.rt.now

    def apply_write(self, item: str, value: Value) -> None:
        """Write *value* to the local store with full polyvalue bookkeeping.

        This is the single funnel through which every installation goes
        (commit installs, wait-timeout polyvalue installs, and recovery
        reductions), so the outcome table and the metrics stay exactly
        in step with the store:

        * installing a polyvalue records a dependency on each in-doubt
          transaction it mentions (section 3.3's table);
        * overwriting a polyvalue with a simple value removes the item
          from every table entry (the uncertainty was overwritten, one
          of the paper's four polyvalue-removal paths).
        """
        value = simplify(value)
        if is_polyvalue(value) and self.known_outcomes:
            value = value.reduce(self.known_outcomes)
        was_poly = is_polyvalue(self.store.read(item))
        self.store.write(item, value)
        if is_polyvalue(value):
            self.outcomes.remove_all_dependencies(item)
            self.outcomes.record_dependencies(value.depends_on(), item)
            if not was_poly:
                self.metrics.polyvalue_installed(
                    self.now, site=self.site_id, item=item
                )
                if self.bus:
                    self.bus.emit(
                        "polyvalue.install",
                        time=self.now,
                        site=self.site_id,
                        item=item,
                        depends_on=sorted(value.depends_on()),
                    )
        else:
            if was_poly:
                self.outcomes.remove_all_dependencies(item)
                self.metrics.polyvalue_resolved(
                    self.now, site=self.site_id, item=item
                )
                if self.bus:
                    self.bus.emit(
                        "polyvalue.resolve",
                        time=self.now,
                        site=self.site_id,
                        item=item,
                    )

    # ------------------------------------------------------------------
    # Transaction events: the one place each is marked, counted, emitted
    # ------------------------------------------------------------------

    def report_submitted(
        self, handle: TransactionHandle, sites: Iterable[SiteId]
    ) -> None:
        """*handle* entered the protocol here, involving *sites*."""
        self.metrics.txn_submitted(site=self.site_id)
        bus = self.bus
        if bus:
            bus.emit(
                "txn.submitted",
                time=self.now,
                txn=handle.txn,
                site=self.site_id,
                items=tuple(handle.transaction.items),
                sites=tuple(sorted(set(sites))),
            )

    def report_committed(
        self, handle: TransactionHandle, outputs: Mapping[str, Any]
    ) -> None:
        """This site decided *handle* committed with *outputs*; each
        output is counted certain or uncertain (section 3.4)."""
        handle.mark_committed(self.now, outputs)
        latency = handle.latency or 0.0
        self.metrics.txn_committed(latency, site=self.site_id)
        for value in outputs.values():
            self.metrics.output_produced(certain=not is_polyvalue(value))
        bus = self.bus
        if bus:
            bus.emit(
                "txn.committed",
                time=self.now,
                txn=handle.txn,
                site=self.site_id,
                latency=latency,
            )

    def report_aborted(self, handle: TransactionHandle, reason: str) -> None:
        """This site decided (or presumed) *handle* aborted."""
        handle.mark_aborted(self.now, reason)
        self.metrics.txn_aborted(site=self.site_id)
        bus = self.bus
        if bus:
            bus.emit(
                "txn.aborted",
                time=self.now,
                txn=handle.txn,
                site=self.site_id,
                reason=reason,
            )

    def report_lock_conflict(self, txn: str, item: str, mode: str) -> None:
        """*txn* was refused a *mode* lock on *item* here."""
        self.metrics.lock_conflict(site=self.site_id)
        bus = self.bus
        if bus:
            bus.emit(
                "lock.conflict",
                time=self.now,
                txn=txn,
                site=self.site_id,
                item=item,
                mode=mode,
            )


#: Names the runtime redesign moved to repro.txn.config; the old import
#: path keeps working through the PEP 562 shim below (the PR 3 pattern).
_MOVED_TO_CONFIG = (
    "CommitPolicy",
    "CommitProtocol",
    "ProtocolConfig",
    "PROTOCOL_NAMES",
    "config_for_protocol",
)


def __getattr__(name: str) -> Any:
    if name in _MOVED_TO_CONFIG:
        warnings.warn(
            f"importing {name!r} from repro.txn.runtime is deprecated; "
            f"use repro.txn.config (or repro.api)",
            DeprecationWarning,
            stacklevel=2,
        )
        import repro.txn.config as _config

        return getattr(_config, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
