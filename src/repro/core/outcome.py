"""Outcome tables: tracking and propagating in-doubt transaction outcomes.

Section 3.3 of the paper distributes the responsibility for resolving
polyvalues: "Each site maintains a table recording, for each transaction
T whose outcome is unknown[,] a list of the polyvalues held by the site
that depend on T, and a list of other sites to which polyvalues
dependent on T have been sent.  When a site learns the outcome of a
transaction T, it can reduce the polyvalues that it holds ... [and] must
inform all of the sites listed in its table entry for T.  Once this is
done, that site can forget the outcome of T and the table entry for T."

:class:`OutcomeTable` is that per-site table.  It is deliberately
independent of the network and storage layers: the database site layer
(:mod:`repro.db.site`) records dependencies as polyvalues are installed
and forwarded, and consumes the :class:`Resolution` produced by
:meth:`OutcomeTable.resolve` to reduce its store and send notification
messages.  Keeping the bookkeeping pure makes the garbage-collection
property ("data structures used in the mechanism are also quickly
removed") directly testable.

Both tables are durable site state.  Once a logging runtime asks, each
marks the transactions whose durable entry it touched (``marks``), so a
log record renders only those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Set

from repro.core.conditions import TxnId

#: Site identifiers are plain strings (e.g. ``"site-3"``).
SiteId = str
ItemId = str


@dataclass(frozen=True)
class Resolution:
    """What a site must do upon learning the outcome of one transaction.

    Produced by :meth:`OutcomeTable.resolve`; the caller reduces the
    listed items' polyvalues with the now-known outcome and sends an
    outcome notification to each listed site.  By the time the caller
    holds a :class:`Resolution`, the table entry is already forgotten.
    """

    txn: TxnId
    committed: bool
    items_to_reduce: FrozenSet[ItemId]
    sites_to_notify: FrozenSet[SiteId]


@dataclass
class _Entry:
    """The table row for one in-doubt transaction."""

    dependent_items: Set[ItemId] = field(default_factory=set)
    forwarded_sites: Set[SiteId] = field(default_factory=set)

    def is_empty(self) -> bool:
        return not self.dependent_items and not self.forwarded_sites


class OutcomeTable:
    """One site's record of which local state depends on which in-doubt txn.

    The table is self-garbage-collecting: entries disappear as soon as
    the outcome is resolved (:meth:`resolve`) or the last dependency is
    dropped (:meth:`remove_dependency` / :meth:`remove_all_dependencies`).
    """

    def __init__(self) -> None:
        self._entries: Dict[TxnId, _Entry] = {}
        #: Transactions whose forwarding list changed since the site's
        #: last log record; None until a logging runtime asks for marks.
        self.marks: Optional[Set[TxnId]] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_dependency(self, txn: TxnId, item: ItemId) -> None:
        """Note that local *item* now holds a polyvalue dependent on *txn*."""
        self._entries.setdefault(txn, _Entry()).dependent_items.add(item)

    def record_dependencies(self, txns: Iterable[TxnId], item: ItemId) -> None:
        """Note that *item* depends on every transaction in *txns*."""
        for txn in txns:
            self.record_dependency(txn, item)

    def record_forward(self, txn: TxnId, site: SiteId) -> None:
        """Note that a polyvalue dependent on *txn* was sent to *site*.

        The forwarding site becomes responsible for relaying the outcome
        of *txn* to *site* when it learns it.
        """
        self._entries.setdefault(txn, _Entry()).forwarded_sites.add(site)
        if self.marks is not None:
            self.marks.add(txn)

    def remove_dependency(self, txn: TxnId, item: ItemId) -> None:
        """Drop one item dependency (e.g. the item was overwritten with a
        simple value, so its polyvalue no longer exists)."""
        entry = self._entries.get(txn)
        if entry is None:
            return
        entry.dependent_items.discard(item)
        if entry.is_empty():
            del self._entries[txn]

    def remove_all_dependencies(self, item: ItemId) -> None:
        """Drop *item* from every entry (the item became simple)."""
        for txn in list(self._entries):
            self.remove_dependency(txn, item)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def pending_transactions(self) -> FrozenSet[TxnId]:
        """The transactions this site is still waiting to hear about."""
        return frozenset(self._entries)

    def dependent_items(self, txn: TxnId) -> FrozenSet[ItemId]:
        """The local items whose polyvalues depend on *txn*."""
        entry = self._entries.get(txn)
        return frozenset(entry.dependent_items) if entry else frozenset()

    def forwarded_sites(self, txn: TxnId) -> FrozenSet[SiteId]:
        """The sites this site must relay the outcome of *txn* to."""
        entry = self._entries.get(txn)
        return frozenset(entry.forwarded_sites) if entry else frozenset()

    def tracks(self, txn: TxnId) -> bool:
        """True iff the table has an entry for *txn*."""
        return txn in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (a restart refills the table from its snapshot)."""
        if self.marks is not None:
            self.marks.update(self._entries)
        self._entries.clear()

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def resolve(self, txn: TxnId, committed: bool) -> Resolution:
        """Consume the entry for *txn* now that its outcome is known.

        Returns the work the site must perform; the entry itself is
        deleted immediately ("that site can forget the outcome of T and
        the table entry for T").  Resolving a transaction the table does
        not track returns an empty :class:`Resolution` — duplicate
        notifications are harmless and expected, since several sites may
        relay the same outcome.
        """
        entry = self._entries.pop(txn, None)
        if entry is None:
            return Resolution(
                txn=txn,
                committed=committed,
                items_to_reduce=frozenset(),
                sites_to_notify=frozenset(),
            )
        if entry.forwarded_sites and self.marks is not None:
            self.marks.add(txn)
        return Resolution(
            txn=txn,
            committed=committed,
            items_to_reduce=frozenset(entry.dependent_items),
            sites_to_notify=frozenset(entry.forwarded_sites),
        )


class OutcomeLog:
    """A coordinator-side durable record of decided transaction outcomes.

    The 2PC coordinator must be able to answer "what happened to T?"
    for any participant that timed out in its wait phase and later
    recovers communication.  Entries are retained until explicitly
    garbage-collected (:meth:`forget`) once every participant has
    acknowledged the outcome — the paper's requirement that "any data
    structures used to keep track of the transaction outcome should be
    quickly deleted when no longer needed."
    """

    def __init__(self) -> None:
        self._outcomes: Dict[TxnId, bool] = {}
        self._unacknowledged: Dict[TxnId, Set[SiteId]] = {}
        #: Transactions whose entry changed since the site's last log
        #: record; None until a logging runtime asks for marks.
        self.marks: Optional[Set[TxnId]] = None

    def decide(self, txn: TxnId, committed: bool, participants: Iterable[SiteId]) -> None:
        """Record the decision for *txn* and who still must learn it."""
        self._outcomes[txn] = committed
        self._unacknowledged[txn] = set(participants)
        if self.marks is not None:
            self.marks.add(txn)

    def outcome_of(self, txn: TxnId) -> bool:
        """The decided outcome of *txn* (KeyError if undecided/forgotten)."""
        return self._outcomes[txn]

    def knows(self, txn: TxnId) -> bool:
        """True iff the log still holds a decision for *txn*."""
        return txn in self._outcomes

    def acknowledge(self, txn: TxnId, site: SiteId) -> None:
        """Record that *site* learned the outcome; GC when all have."""
        waiting = self._unacknowledged.get(txn)
        if waiting is None:
            return
        if site in waiting:
            waiting.discard(site)
            if self.marks is not None:
                self.marks.add(txn)
        if not waiting:
            self.forget(txn)

    def forget(self, txn: TxnId) -> None:
        """Drop all record of *txn*."""
        forgotten = self._outcomes.pop(txn, None) is not None
        if forgotten and self.marks is not None:
            self.marks.add(txn)
        self._unacknowledged.pop(txn, None)

    def pending(self) -> FrozenSet[TxnId]:
        """Transactions decided but not yet fully acknowledged."""
        return frozenset(self._unacknowledged)

    def entries(
        self, txns: Optional[Iterable[TxnId]] = None
    ) -> Dict[TxnId, "OutcomeLogEntry"]:
        """A copy of every retained decision, or of those among *txns*
        (for snapshots/inspection)."""
        outcomes = self._outcomes
        if txns is not None:
            outcomes = {txn: outcomes[txn] for txn in txns if txn in outcomes}
        return {
            txn: OutcomeLogEntry(
                committed=committed,
                unacknowledged=frozenset(self._unacknowledged.get(txn, ())),
            )
            for txn, committed in outcomes.items()
        }

    def __len__(self) -> int:
        return len(self._outcomes)

    def clear(self) -> None:
        """Drop every decision (a restart refills the log from its snapshot)."""
        if self.marks is not None:
            self.marks.update(self._outcomes)
        self._outcomes.clear()
        self._unacknowledged.clear()


@dataclass(frozen=True)
class OutcomeLogEntry:
    """One retained coordinator decision."""

    committed: bool
    unacknowledged: FrozenSet[SiteId]
