"""A database site: storage + participant + coordinator + outcome relay.

:class:`DatabaseSite` is the unit of failure in the simulated system.
It owns one :class:`~repro.db.store.ItemStore` (stable storage), one
lock manager (volatile), the section 3.3 outcome table (stable — it
describes stable polyvalues), and the two protocol roles.

Message dispatch, outcome learning/propagation with reliable retry, and
crash/recovery behaviour all live here:

* **crash** — volatile state (locks, in-flight coordination, compute/
  wait records) is lost; stable state (item values, staged-at-ready
  updates, the outcome table, the outcome log, pending outcome
  notifications) is exactly what :meth:`DatabaseSite.durable_snapshot`
  captures.  Once a logging runtime asks
  (:meth:`DatabaseSite.track_changes`), every write to it is also marked
  where it happens, and :meth:`DatabaseSite.durable_record` renders
  just the marked entries.
* **restart** — :meth:`DatabaseSite.restore_durable` rebuilds the
  stable state from that snapshot and nothing else, on the simulator as
  on the socket runtime (:class:`repro.txn.cluster.Cluster` does it for
  a crashed site and at boot, :mod:`repro.txn.snapshot` for a whole
  imported system); then
* **recover** — the participant re-applies its wait-timeout policy to
  staged-in-doubt transactions, undecided locally-coordinated
  transactions are presumed aborted, and the outcome-maintenance loop
  resumes querying and re-notifying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.errors import ProtocolError
from repro.core.polyvalue import is_polyvalue
from repro.core.serialize import decode_state, encode_state
from repro.net.message import Envelope, SiteId
from repro.runtime.base import Periodic
from repro.txn import protocol
from repro.txn.coordinator import Coordinator
from repro.txn.participant import Participant
from repro.txn.runtime import DurableMarks, SiteRuntime
from repro.txn.transaction import (
    Transaction,
    TransactionHandle,
    TxnId,
    coordinator_of,
)


_MISSING = object()


def _pick(
    mapping: Mapping[str, Any], keys: Optional[Iterable[str]]
) -> Dict[str, Any]:
    """A copy of *mapping*, or of its entries under *keys* (None: all)."""
    if keys is None:
        return dict(mapping)
    return {key: mapping[key] for key in keys if key in mapping}


@dataclass
class _RetryState:
    """Volatile backoff bookkeeping for one owed notification."""

    attempts: int = 0
    next_at: float = 0.0


class DatabaseSite:
    """One site of the distributed database."""

    def __init__(self, runtime: SiteRuntime) -> None:
        self.runtime = runtime
        self.participant = Participant(runtime)
        self.coordinator = Coordinator(runtime)
        #: Durable: outcome notifications owed to other sites, retried
        #: until acknowledged.  Maps (txn, site) -> committed.
        self._pending_notifies: Dict[Tuple[TxnId, SiteId], bool] = {}
        #: Volatile: per-owed-entry exponential backoff state, keyed by
        #: destination peer and then txn, so liveness evidence from one
        #: peer touches only that peer's entries.  Losing it on a crash
        #: is correct — a recovering site should resend promptly,
        #: exactly what empty state produces.
        self._retry: Dict[SiteId, Dict[TxnId, _RetryState]] = {}
        #: Volatile: consecutive unacknowledged sends per destination;
        #: reaching the policy threshold suppresses the destination.
        self._peer_strikes: Dict[SiteId, int] = {}
        # Raw (unguarded) runtime schedule on purpose: the periodic
        # keeps re-arming while the site is down — exactly the old
        # PeriodicTask-on-the-simulator behaviour — and the action
        # itself checks `runtime.up`.
        self._maintenance = Periodic(
            runtime.rt,
            runtime.config.outcome_query_interval,
            self._outcome_maintenance,
            label=f"outcome-maintenance:{runtime.site_id}",
            site=runtime.site_id,
        )
        runtime.rt.register(runtime.site_id, self.on_message)
        runtime.rt.attach_durability(runtime.site_id, self)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    @property
    def site_id(self) -> SiteId:
        return self.runtime.site_id

    @property
    def store(self):
        return self.runtime.store

    @property
    def is_up(self) -> bool:
        return self.runtime.up

    def polyvalue_count(self) -> int:
        """How many local items currently hold polyvalues."""
        return self.runtime.store.polyvalue_count()

    def protocol_residue(self) -> int:
        """Protocol-specific undecided state held at this site.

        The base protocol's is the participant's outstanding outcome
        queries: blocked transactions still holding their locks and
        unaudited unilateral decisions (everything else it keeps is in
        the structures the cluster already counts — polyvalues, outcome
        tables, outcome logs, pending handles).  Subclasses with extra
        durable machinery (Paxos acceptor state, path-sensitive apply
        queues) report it here too, so :meth:`Cluster.converged` and the
        convergence oracle include it.
        """
        return len(self.participant.pending_outcome_queries())

    # ------------------------------------------------------------------
    # Client entry point (the system facade calls this)
    # ------------------------------------------------------------------

    def submit(self, transaction: Transaction, handle: TransactionHandle) -> TxnId:
        """Begin coordinating *transaction* at this site."""
        if not self.runtime.up:
            raise ProtocolError(
                f"cannot submit to crashed site {self.site_id!r}"
            )
        return self.coordinator.begin(transaction, handle)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    #: The message vocabulary: message class -> name of the method that
    #: handles it, called as ``handler(message, sender)``.  Lookup is by
    #: exact type, so a message subclass needs its own entry; a protocol
    #: site extends the table with ``{**DatabaseSite.HANDLERS, ...}``.
    #: Handlers are found by name on the instance, so an override (or a
    #: mutant patched onto one site) is what runs.
    HANDLERS: Dict[type, str] = {
        protocol.ReadRequest: "_on_read_request",
        protocol.ReadReply: "_on_read_reply",
        protocol.StageRequest: "_on_stage_request",
        protocol.Ready: "_on_ready",
        protocol.Refuse: "_on_refuse",
        protocol.Complete: "_on_complete",
        protocol.Abort: "_on_abort",
        protocol.OutcomeQuery: "_answer_outcome_query",
        protocol.OutcomeNotify: "_on_outcome_notify",
        protocol.OutcomeAck: "_on_outcome_ack",
    }

    def on_message(self, envelope: Envelope) -> None:
        """Handle one delivered protocol message: the one dispatch body
        of every site class.  Any message from a peer is liveness
        evidence (:meth:`_note_peer_alive`)."""
        if not self.runtime.up:
            return  # the network normally drops these; belt and braces
        message, sender = envelope.payload, envelope.sender
        if sender != self.site_id:
            self._note_peer_alive(sender)
        name = self.HANDLERS.get(type(message))
        if name is None:
            raise ProtocolError(f"unhandled message type: {message!r}")
        getattr(self, name)(message, sender)

    def _on_read_request(
        self, message: protocol.ReadRequest, sender: SiteId
    ) -> None:
        self.participant.handle_read_request(message, sender)

    def _on_read_reply(
        self, message: protocol.ReadReply, sender: SiteId
    ) -> None:
        self.coordinator.handle_read_reply(message)

    def _on_stage_request(
        self, message: protocol.StageRequest, sender: SiteId
    ) -> None:
        self.participant.handle_stage_request(message, sender)

    def _on_ready(self, message: protocol.Ready, sender: SiteId) -> None:
        self.coordinator.handle_ready(message)

    def _on_refuse(self, message: protocol.Refuse, sender: SiteId) -> None:
        self.coordinator.handle_refuse(message)

    def _on_complete(self, message: protocol.Complete, sender: SiteId) -> None:
        self.participant.handle_complete(message)
        self._learn_and_ack(message.txn, True, sender)

    def _on_abort(self, message: protocol.Abort, sender: SiteId) -> None:
        self.participant.handle_abort(message)
        self._learn_outcome(message.txn, committed=False)

    def _on_outcome_notify(
        self, message: protocol.OutcomeNotify, sender: SiteId
    ) -> None:
        self._learn_and_ack(message.txn, message.committed, message.origin)

    def _on_outcome_ack(
        self, message: protocol.OutcomeAck, sender: SiteId
    ) -> None:
        rt = self.runtime
        rt.outcome_log.acknowledge(message.txn, message.site)
        owed = self._pending_notifies.pop((message.txn, message.site), None)
        if owed is not None and rt.marks is not None:
            rt.marks.whole.add("pending_notifies")
        if message.site in self._retry:
            self._retry[message.site].pop(message.txn, None)

    # ------------------------------------------------------------------
    # Outcome learning and propagation (section 3.3)
    # ------------------------------------------------------------------

    def _learn_outcome(self, txn: TxnId, committed: bool) -> None:
        """Absorb one transaction outcome: reduce, relay, audit, forget."""
        rt = self.runtime
        marks = rt.marks
        rt.known_outcomes[txn] = committed
        if marks is not None:
            marks.keys["known_outcomes"].add(txn)
        if txn in rt.direct_doubts:
            # This site installed wait-timeout polyvalues for txn and has
            # only now learned its fate: the in-doubt window closes here.
            rt.metrics.in_doubt_closed(rt.now, site=self.site_id, txn=txn)
            if rt.bus:
                rt.bus.emit(
                    "indoubt.close",
                    time=rt.now,
                    txn=txn,
                    site=self.site_id,
                    committed=committed,
                )
            rt.direct_doubts.discard(txn)
            if marks is not None:
                marks.whole.add("direct_doubts")
        self.participant.handle_outcome_known(txn, committed)
        resolution = rt.outcomes.resolve(txn, committed)
        for item in resolution.items_to_reduce:
            value = rt.store.read(item)
            if is_polyvalue(value):
                rt.apply_write(item, value.reduce({txn: committed}))
        for site in resolution.sites_to_notify:
            if site == self.site_id:
                continue
            self._pending_notifies[(txn, site)] = committed
            if marks is not None:
                marks.whole.add("pending_notifies")
            rt.send(
                site,
                protocol.OutcomeNotify(
                    txn=txn, committed=committed, origin=self.site_id
                ),
            )

    def _learn_and_ack(self, txn: TxnId, committed: bool, to: SiteId) -> None:
        """Learn *txn*'s outcome, then acknowledge it to *to*."""
        self._learn_outcome(txn, committed)
        self.runtime.send(to, protocol.OutcomeAck(txn=txn, site=self.site_id))

    def _answer_outcome_query(
        self, message: protocol.OutcomeQuery, sender: SiteId
    ) -> None:
        """Answer "what happened to T?" as T's coordinator.

        Known commits come from the durable outcome log (or the local
        outcome cache); an unknown, non-active transaction is presumed
        aborted.  A still-undecided transaction gets no answer — the
        requester retries.
        """
        txn = message.txn
        if coordinator_of(txn) != self.site_id:
            return  # misdirected; only the coordinator answers queries
        committed = self._decided_here(txn)
        if committed is None:
            return  # undecided: stay silent, the requester will retry
        self.runtime.send(
            message.requester,
            protocol.OutcomeNotify(
                txn=txn, committed=committed, origin=self.site_id
            ),
        )

    def _decided_here(self, txn: TxnId) -> Optional[bool]:
        """What this site, as *txn*'s coordinator, decided: the durable
        outcome log, then the outcome cache, else presumed abort — or
        None while *txn* is still being coordinated here."""
        rt = self.runtime
        if txn in self.coordinator.active_transactions():
            return None
        if rt.outcome_log.knows(txn):
            return rt.outcome_log.outcome_of(txn)
        return rt.known_outcomes.get(txn, False)

    def _note_peer_alive(self, peer: SiteId) -> None:
        """Any inbound message is liveness evidence: end suppression and
        re-arm owed entries for *peer* at the base delay, so a recovered
        peer is caught up within roughly one maintenance period instead
        of waiting out a capped backoff."""
        if self._peer_strikes.get(peer):
            self._peer_strikes[peer] = 0
        if peer not in self._retry or not self._retry[peer]:
            return
        rt = self.runtime
        base = rt.config.retry.base(rt.config.outcome_query_interval)
        horizon = rt.now + base
        for state in self._retry[peer].values():
            if state.next_at > horizon:
                state.next_at = horizon
                state.attempts = 0

    def _owed_notifications(self) -> Dict[Tuple[TxnId, SiteId], bool]:
        """Every (txn, site) this site owes an OutcomeNotify, deduplicated.

        ``_pending_notifies`` (relay duties from the section 3.3 tables)
        and the durable outcome log's unacknowledged participants can
        both list the same pair — the log retry exists because the first
        Complete can be delivered while this coordinator is down for the
        returning OutcomeAck (the repro.check convergence oracle caught
        that leak).  Merging them here sends one message per pair per
        pass instead of two.
        """
        rt = self.runtime
        owed: Dict[Tuple[TxnId, SiteId], bool] = dict(self._pending_notifies)
        for txn, entry in rt.outcome_log.entries().items():
            for site in entry.unacknowledged:
                if site == self.site_id:
                    rt.outcome_log.acknowledge(txn, site)
                    continue
                owed[(txn, site)] = entry.committed
        return owed

    def _outcome_maintenance(self) -> None:
        """Periodic: retry owed notifications, query for needed outcomes.

        Notification retries back off exponentially per destination
        entry (deterministic jitter, suppression window for peers that
        never answer) — a long outage costs O(log) sends per entry, not
        one per tick.  Outcome *queries* stay flat-interval: they are
        the liveness path for this site's own polyvalues and their cost
        is bounded by the number of in-doubt transactions.
        """
        rt = self.runtime
        if not rt.up:
            return
        policy = rt.config.retry
        base = policy.base(rt.config.outcome_query_interval)
        now = rt.now
        owed = self._owed_notifications()
        # Drop retry state for entries no longer owed (acknowledged).
        for site in list(self._retry):
            entries = self._retry[site]
            for txn in [txn for txn in entries if (txn, site) not in owed]:
                del entries[txn]
            if not entries:
                del self._retry[site]
        for (txn, site), committed in owed.items():
            entries = self._retry.setdefault(site, {})
            state = entries.get(txn)
            if state is None:
                state = entries[txn] = _RetryState()
                if self._peer_strikes.get(site, 0) >= policy.suppression_threshold:
                    # The destination has repeatedly failed to ack:
                    # start new entries inside the suppression window
                    # instead of probing from the base again.
                    state.next_at = now + policy.suppression_window
                    continue
            elif now < state.next_at:
                continue
            state.attempts += 1
            state.next_at = now + policy.delay(
                state.attempts, default_base=base, key=f"{txn}->{site}"
            )
            self._peer_strikes[site] = self._peer_strikes.get(site, 0) + 1
            rt.metrics.notify_retransmitted(site=self.site_id)
            rt.send(
                site,
                protocol.OutcomeNotify(
                    txn=txn, committed=committed, origin=self.site_id
                ),
            )
        needed = set(rt.direct_doubts) | self.participant.pending_outcome_queries()
        for txn in needed:
            coordinator = coordinator_of(txn)
            if coordinator == self.site_id:
                # Local coordinator: resolve directly.
                committed = self._decided_here(txn)
                if committed is not None:
                    self._learn_outcome(txn, committed)
            else:
                rt.send(
                    coordinator,
                    protocol.OutcomeQuery(txn=txn, requester=self.site_id),
                )

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------

    def crash(self) -> List[TransactionHandle]:
        """Fail-stop: lose volatile state, return undecided local handles."""
        rt = self.runtime
        rt.up = False
        undecided = self.coordinator.on_crash()
        self.participant.on_crash()
        # Locks are volatile, as is the retransmission bookkeeping.
        rt.locks = type(rt.locks)()
        self._retry.clear()
        self._peer_strikes.clear()
        return undecided

    def recover(self) -> None:
        """Restart after a crash: replay durable state, resume maintenance."""
        rt = self.runtime
        rt.up = True
        self.participant.on_recover()
        # Kick maintenance immediately: recovery is exactly when queued
        # queries and notifications are most likely to matter.
        self._outcome_maintenance()

    def shutdown(self) -> None:
        """Stop background work permanently (live-cluster teardown)."""
        self._maintenance.stop()

    # ------------------------------------------------------------------
    # Durable state: the one definition, and the one way back up
    # ------------------------------------------------------------------

    #: Bump when the snapshot layout changes incompatibly.  2 added the
    #: outcome table's forwarding lists.
    DURABLE_VERSION = 2

    #: The durable sections, in snapshot order: name -> the method that
    #: renders it.  A section in :attr:`KEYED_SECTIONS` is a dict whose
    #: renderer takes the keys to render (absent ones are left out), or
    #: None for all of them; any other section is rendered whole.  The
    #: snapshot and the log record both render through here, so they
    #: cannot disagree.
    DURABLE_SECTIONS: Dict[str, str] = {
        "values": "_render_values",
        "outcome_log": "_render_outcome_log",
        "known_outcomes": "_render_known_outcomes",
        "direct_doubts": "_render_direct_doubts",
        "forwarded": "_render_forwarded",
        "pending_notifies": "_render_pending_notifies",
        "staged": "_render_staged",
        "unilateral": "_render_unilateral",
        "sequence": "_render_sequence",
    }
    KEYED_SECTIONS: Tuple[str, ...] = (
        "values",
        "outcome_log",
        "known_outcomes",
        "forwarded",
        "staged",
        "unilateral",
    )

    def durable_snapshot(self) -> Dict[str, object]:
        """This site's durable state as a JSON-serialisable dict.

        Exactly the state the crash/recovery docstring above calls
        stable: item values (polyvalues included), the outcome log, the
        learned-outcome cache, direct doubts, the outcome table's
        forwarding lists (section 3.3's "other sites to which polyvalues
        dependent on T have been sent"; its per-item half is the
        polyvalues themselves), owed notifications, staged updates,
        relaxed-policy unilateral choices, and the coordinator's
        transaction sequence (so a restarted coordinator never reuses a
        txn id).  Every restart on every runtime rebuilds the site from
        this and nothing else (:meth:`restore_durable`): the simulator
        holds it from crash to recovery, :mod:`repro.txn.snapshot`
        collects one per site, and the
        :class:`~repro.runtime.aio.AsyncioRuntime` writes it as a
        compacted site file at a site's first checkpoint and logs only
        :meth:`durable_record` after that.
        """
        snapshot: Dict[str, object] = {
            "version": self.DURABLE_VERSION,
            "site": self.site_id,
        }
        for name, render in self.DURABLE_SECTIONS.items():
            snapshot[name] = getattr(self, render)()
        return snapshot

    def track_changes(self) -> None:
        """Mark every durable write from now on, starting from none."""
        rt = self.runtime
        marks = rt.marks = DurableMarks(self.KEYED_SECTIONS)
        rt.store.marks = marks.keys["values"]
        rt.outcome_log.marks = marks.keys["outcome_log"]
        rt.outcomes.marks = marks.keys["forwarded"]

    def durable_record(self, logged: Dict[str, Any]) -> Dict[str, Any]:
        """The log record from *logged* to now, rendered from the marks
        alone (``{}`` when nothing marked differs), then clear them.

        A section marked whole goes under ``"set"`` when its rendering
        differs from *logged*'s; a keyed section goes under ``"patch"``
        as ``[entries whose rendering differs, marked keys now gone]``.
        """
        marks = self.runtime.marks
        sections = self.DURABLE_SECTIONS
        marked = []
        patched: Dict[str, Any] = {}
        for name, keys in marks.keys.items():
            if not keys:
                continue
            marked.append(keys)
            keys = sorted(keys)
            entries = getattr(self, sections[name])(keys)
            before = logged[name]
            changed: Dict[str, Any] = {}
            deleted = []
            for key in keys:
                value = entries.get(key, _MISSING)
                if value is _MISSING:
                    if key in before:
                        deleted.append(key)
                elif before.get(key, _MISSING) != value:
                    changed[key] = value
            if changed or deleted:
                patched[name] = [changed, deleted]
        replaced: Dict[str, Any] = {}
        if marks.whole:
            marked.append(marks.whole)
            for name in sorted(marks.whole):
                value = getattr(self, sections[name])()
                if value != logged[name]:
                    replaced[name] = value
        for keys in marked:
            keys.clear()
        record: Dict[str, Any] = {}
        if replaced:
            record["set"] = replaced
        if patched:
            record["patch"] = patched
        return record

    def _render_values(
        self, items: Optional[Iterable[str]] = None
    ) -> Dict[str, Any]:
        store = self.runtime.store
        if items is None:
            return store.encoded_values()
        return store.encoded(items)

    def _render_outcome_log(
        self, txns: Optional[Iterable[TxnId]] = None
    ) -> Dict[str, Any]:
        return {
            txn: {
                "committed": entry.committed,
                "unacknowledged": sorted(entry.unacknowledged),
            }
            for txn, entry in self.runtime.outcome_log.entries(txns).items()
        }

    def _render_known_outcomes(
        self, txns: Optional[Iterable[TxnId]] = None
    ) -> Dict[str, bool]:
        return _pick(self.runtime.known_outcomes, txns)

    def _render_direct_doubts(self) -> List[TxnId]:
        return sorted(self.runtime.direct_doubts)

    def _render_forwarded(
        self, txns: Optional[Iterable[TxnId]] = None
    ) -> Dict[str, List[SiteId]]:
        outcomes = self.runtime.outcomes
        if txns is None:
            txns = sorted(outcomes.pending_transactions())
        return {
            txn: sorted(sites)
            for txn in txns
            if (sites := outcomes.forwarded_sites(txn))
        }

    def _render_pending_notifies(self) -> List[list]:
        owed = self._pending_notifies
        return [
            [txn, site, committed]
            for (txn, site), committed in sorted(owed.items())
        ]

    def _render_staged(
        self, txns: Optional[Iterable[TxnId]] = None
    ) -> Dict[str, Any]:
        staged = _pick(self.participant.durable_staged(), txns)
        return {txn: encode_state(writes) for txn, writes in staged.items()}

    def _render_unilateral(
        self, txns: Optional[Iterable[TxnId]] = None
    ) -> Dict[str, bool]:
        return _pick(self.participant.unaudited_unilateral(), txns)

    def _render_sequence(self) -> int:
        return self.coordinator.sequence

    def restore_durable(self, snapshot: Dict[str, object]) -> None:
        """Rebuild durable state from :meth:`durable_snapshot` output.

        Call on a down site (:meth:`crash` already dropped the volatile
        state) or a freshly built one, before :meth:`recover`.  What it
        marks does not matter: a runtime that logs starts a restored
        site's marks over and writes its whole snapshot again.  The
        shared structures (outcome log, outcome table, outcome cache,
        direct doubts) are refilled in place, so whoever holds a
        reference keeps seeing the live object.  The outcome table's
        per-item half is rebuilt from the restored polyvalues themselves
        (they *are* the durable record of which items depend on which
        in-doubt transactions).
        """
        rt = self.runtime
        version = snapshot.get("version")
        if version != self.DURABLE_VERSION:
            raise ProtocolError(
                f"unsupported durable snapshot version {version!r} "
                f"(this build reads version {self.DURABLE_VERSION})"
            )
        if snapshot["site"] != self.site_id:
            raise ProtocolError(
                f"snapshot of site {snapshot['site']!r} cannot restore "
                f"site {self.site_id!r}"
            )
        rt.known_outcomes.clear()
        rt.known_outcomes.update(snapshot["known_outcomes"])
        rt.direct_doubts.clear()
        rt.direct_doubts.update(snapshot["direct_doubts"])
        rt.outcome_log.clear()
        for txn, entry in snapshot["outcome_log"].items():
            rt.outcome_log.decide(
                txn, entry["committed"], participants=entry["unacknowledged"]
            )
        rt.outcomes.clear()
        for item, value in decode_state(snapshot["values"]).items():
            rt.store.write(item, value)
            if is_polyvalue(value):
                rt.outcomes.record_dependencies(value.depends_on(), item)
        for txn, sites in snapshot["forwarded"].items():
            for site in sites:
                rt.outcomes.record_forward(txn, site)
        self._pending_notifies = {
            (txn, site): committed
            for txn, site, committed in snapshot["pending_notifies"]
        }
        self.participant.restore_staged(
            staged={
                txn: decode_state(staged)
                for txn, staged in snapshot["staged"].items()
            },
            unilateral=snapshot["unilateral"],
        )
        self.coordinator.sequence = snapshot["sequence"]
