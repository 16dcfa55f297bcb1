"""One cluster, two runtimes: the composition root over :class:`Runtime`.

:class:`Cluster` owns everything about a distributed database that is
not time-driving: the observability bus, the metrics and transition
log, the per-protocol registries, one
:class:`~repro.txn.site.DatabaseSite` per catalog site, the client
``submit``, crash and recovery, the whole-database observations and the
single convergence predicate.  It talks to the outside world only
through :class:`~repro.runtime.base.Runtime`, so the two front-ends —
:class:`~repro.txn.system.DistributedSystem` (simulated time) and
:class:`~repro.live.cluster.LiveCluster` (wall-clock sockets) — add
only construction and the verbs that drive their kind of time.

There is one way back up.  A site that restarts — after
:meth:`Cluster.crash_site`, or at boot over a previous incarnation's
data directory — is rebuilt from the snapshot the runtime hands back
(``Runtime.load_durable`` → ``DatabaseSite.restore_durable`` →
``recover``); no state survives a crash by staying in memory, on either
runtime.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.core.outcome import OutcomeLog, OutcomeTable
from repro.core.polyvalue import Value
from repro.db.catalog import Catalog
from repro.db.locks import LockManager
from repro.db.store import ItemStore
from repro.metrics.collector import MetricsCollector
from repro.net.message import SiteId
from repro.obs.events import EventBus
from repro.runtime.base import Runtime
from repro.txn.config import CommitProtocol, ProtocolConfig
from repro.txn.paxos import DecisionBoard, PaxosSite
from repro.txn.pathsensitive import PathRegistry, PathSensitiveSite
from repro.txn.runtime import SiteRuntime, TransitionLog
from repro.txn.site import DatabaseSite
from repro.txn.transaction import Transaction, TransactionHandle, TxnStatus

ItemId = str


class Cluster:
    """A distributed database on any :class:`Runtime`.

    Front-ends construct the runtime, call ``Cluster.__init__`` and then
    :meth:`_wire_sites` once the runtime can take timers and handlers
    (immediately on the simulator, after the sockets are bound live).
    """

    def __init__(
        self,
        runtime: Runtime,
        *,
        catalog: Catalog,
        initial_values: Mapping[ItemId, Value],
        config: ProtocolConfig,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.config = config
        #: The database's initial contents, retained for ground-truth
        #: checks (serial replay needs the state before any commit).
        self.initial_values: Dict[ItemId, Value] = dict(initial_values)
        self.runtime = runtime
        self.catalog = catalog
        #: The system-wide observability bus.  With no subscribers every
        #: instrumentation point short-circuits on a truthiness check,
        #: so an unobserved system pays (almost) nothing.  The simulator
        #: front-end passes the bus its engine and network already emit on.
        self.bus = bus if bus is not None else EventBus()
        self.metrics = MetricsCollector()
        self.transitions = TransitionLog(bus=self.bus)
        self.sites: Dict[SiteId, DatabaseSite] = {}
        self.handles: List[TransactionHandle] = []
        #: Populated for the protocols that need system-wide registries:
        #: Paxos Commit's client-handle board, path-sensitive commit's
        #: routing record.  None under the classic two-phase protocol.
        self.decision_board: Optional[DecisionBoard] = None
        self.path_registry: Optional[PathRegistry] = None
        if config.protocol is CommitProtocol.PAXOS:
            self.decision_board = DecisionBoard()
        elif config.protocol is CommitProtocol.PATH_SENSITIVE:
            self.path_registry = PathRegistry()

    def _wire_sites(self) -> None:
        """Build every site's state machine on the runtime.

        A site whose runtime holds a snapshot (a previous incarnation
        of this cluster left a data directory) restarts from it before
        serving; every site then writes its first checkpoint.
        """
        for site_id in sorted(self.catalog.all_sites()):
            runtime = SiteRuntime(
                site_id=site_id,
                rt=self.runtime,
                catalog=self.catalog,
                store=ItemStore(
                    {
                        item: self.initial_values[item]
                        for item in self.catalog.items_at(site_id)
                    }
                ),
                locks=LockManager(),
                outcomes=OutcomeTable(),
                outcome_log=OutcomeLog(),
                config=self.config,
                metrics=self.metrics,
                transitions=self.transitions,
                bus=self.bus,
            )
            if self.decision_board is not None:
                site = PaxosSite(runtime, self.decision_board)
            elif self.path_registry is not None:
                site = PathSensitiveSite(runtime, self.path_registry)
            else:
                site = DatabaseSite(runtime)
            self.sites[site_id] = site
            snapshot = self.runtime.load_durable(site_id)
            if snapshot is not None:
                self._restart(site_id, snapshot)
            self.runtime.checkpoint(site_id)

    def _restart(self, site_id: SiteId, snapshot: Dict[str, Any]) -> None:
        """Rebuild *site_id* from *snapshot* and replay recovery."""
        site = self.sites[site_id]
        site.restore_durable(snapshot)
        site.recover()

    @property
    def now(self) -> float:
        """Current runtime time (simulated or wall-clock seconds)."""
        return self.runtime.now

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------

    def submit(
        self, transaction: Transaction, *, at: Optional[SiteId] = None
    ) -> TransactionHandle:
        """Submit *transaction*, coordinated at *at* (default: the home
        site of its first declared item)."""
        coordinator = at if at is not None else self.catalog.site_of(
            transaction.items[0]
        )
        site = self.sites[coordinator]
        handle = TransactionHandle(
            txn="?",
            transaction=transaction,
            submitted_at=self.now,
        )
        self.handles.append(handle)
        if not site.is_up:
            # The client's request never reaches a crashed coordinator;
            # it fails immediately (the client may retry elsewhere).
            handle.txn = f"unsent@{coordinator}"
            handle.was_delayed_by_failure = True
            site.runtime.report_submitted(handle, ())
            site.runtime.report_aborted(
                handle, f"coordinator site {coordinator} is down"
            )
            return handle
        site.submit(transaction, handle)
        # begin() consumed a durable sequence number and possibly logged
        # state; submit runs outside the runtime's own checkpoint
        # wrappers, so persist explicitly.
        self.runtime.checkpoint(coordinator)
        return handle

    def read_item(self, item: ItemId) -> Value:
        """Directly read an item's current value (simple or polyvalue).

        This is an observer's view for tests and metrics, not a
        transactional read.
        """
        return self.sites[self.catalog.site_of(item)].store.read(item)

    # ------------------------------------------------------------------
    # Failure injection (Crashable)
    # ------------------------------------------------------------------

    def crash_site(self, site: SiteId) -> None:
        """Fail-stop *site*: it loses volatile state, its traffic drops.

        Transactions it was coordinating and had not decided are
        presumed aborted — participants converge to the same answer by
        querying after recovery.
        """
        self.runtime.mark_down(site)
        if self.bus:
            self.bus.emit("site.crash", time=self.now, site=site)
        runtime = self.sites[site].runtime
        for handle in self.sites[site].crash():
            if handle.status is TxnStatus.PENDING:
                handle.was_delayed_by_failure = True
                runtime.report_aborted(
                    handle, "coordinator crashed; presumed abort"
                )

    def recover_site(self, site: SiteId) -> None:
        """Bring *site* back up from the snapshot its runtime holds: the
        site file, or the one taken at the instant of the crash.
        Recovering a site that is up does nothing."""
        if self.sites[site].is_up:
            return
        snapshot = self.runtime.load_durable(site)
        self.runtime.mark_up(site)
        if self.bus:
            self.bus.emit("site.recover", time=self.now, site=site)
        self._restart(site, snapshot)
        self.runtime.checkpoint(site)

    def down_sites(self) -> List[SiteId]:
        """The sites currently crashed, in stable order."""
        return sorted(
            site_id
            for site_id, site in self.sites.items()
            if not site.is_up
        )

    # ------------------------------------------------------------------
    # Whole-database observations
    # ------------------------------------------------------------------

    def quiescent(self) -> bool:
        """True iff no protocol work is in flight (no protocol message
        travelling, no protocol timer armed).  The invariant oracles are
        evaluated at quiescent points, where the global state is well
        defined."""
        return self.runtime.quiescent()

    def converged(self) -> bool:
        """The paper's end state after all failures recover: zero
        polyvalues, zero outcome bookkeeping (both the participants'
        outcome tables and the coordinators' outcome logs), no
        protocol residue, no pending transactions, nothing in flight."""
        return (
            self.total_polyvalues() == 0
            and self.outcome_bookkeeping_size() == 0
            and self.total_protocol_residue() == 0
            and not any(
                site.runtime.outcome_log.pending()
                for site in self.sites.values()
            )
            and not self.pending_handles()
            # A protocol timer still armed (e.g. a participant whose
            # abort message was lost, waiting out its compute timeout)
            # or a message still travelling will still move state — and
            # release locks — when it lands; the system has not
            # converged until it is also quiescent.
            and self.quiescent()
        )

    def total_polyvalues(self) -> int:
        """The number of items currently holding polyvalues — the
        paper's ``P(t)`` for this system."""
        return sum(site.polyvalue_count() for site in self.sites.values())

    def polyvalued_items(self) -> List[ItemId]:
        """Every item currently holding a polyvalue."""
        found: List[ItemId] = []
        for site in self.sites.values():
            found.extend(site.store.polyvalued_items())
        return sorted(found)

    def all_certain(self) -> bool:
        """True iff no item holds a polyvalue (all uncertainty resolved)."""
        return not self.total_polyvalues()

    def database_state(self) -> Dict[ItemId, Value]:
        """A copy of every item's current value across all sites."""
        state: Dict[ItemId, Value] = {}
        for site in self.sites.values():
            state.update(site.store.all_values())
        return state

    def pending_handles(self) -> List[TransactionHandle]:
        """Handles still awaiting a decision."""
        return [
            handle
            for handle in self.handles
            if handle.status is TxnStatus.PENDING
        ]

    def total_protocol_residue(self) -> int:
        """Protocol-specific undecided state across all sites (Paxos
        acceptor/registrar records, path-sensitive apply queues);
        convergence requires it to drain to zero."""
        return sum(site.protocol_residue() for site in self.sites.values())

    def outcome_bookkeeping_size(self) -> int:
        """Total outcome-table entries across sites (should fall back to
        zero after failures recover — the paper's GC property)."""
        return sum(len(site.runtime.outcomes) for site in self.sites.values())
