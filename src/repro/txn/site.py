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
  captures.
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
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ProtocolError
from repro.core.polyvalue import is_polyvalue
from repro.core.serialize import decode_state, encode_state
from repro.net.message import Envelope, SiteId
from repro.runtime.base import Periodic
from repro.txn import protocol
from repro.txn.coordinator import Coordinator
from repro.txn.participant import Participant
from repro.txn.runtime import SiteRuntime
from repro.txn.transaction import (
    Transaction,
    TransactionHandle,
    TxnId,
    coordinator_of,
)


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
        #: Volatile: per-owed-entry exponential backoff state.  Losing
        #: it on a crash is correct — a recovering site should resend
        #: promptly, exactly what empty state produces.
        self._retry: Dict[Tuple[TxnId, SiteId], _RetryState] = {}
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
        runtime.rt.attach_durability(runtime.site_id, self.durable_snapshot)

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

    def on_message(self, envelope: Envelope) -> None:
        """Handle one delivered protocol message."""
        if not self.runtime.up:
            return  # the network normally drops these; belt and braces
        if envelope.sender != self.site_id:
            self._note_peer_alive(envelope.sender)
        message = envelope.payload
        if isinstance(message, protocol.ReadRequest):
            self.participant.handle_read_request(message, envelope.sender)
        elif isinstance(message, protocol.ReadReply):
            self.coordinator.handle_read_reply(message)
        elif isinstance(message, protocol.StageRequest):
            self.participant.handle_stage_request(message, envelope.sender)
        elif isinstance(message, protocol.Ready):
            self.coordinator.handle_ready(message)
        elif isinstance(message, protocol.Refuse):
            self.coordinator.handle_refuse(message)
        elif isinstance(message, protocol.Complete):
            self.participant.handle_complete(message)
            self._learn_outcome(message.txn, committed=True)
            self.runtime.send(
                envelope.sender,
                protocol.OutcomeAck(txn=message.txn, site=self.site_id),
            )
        elif isinstance(message, protocol.Abort):
            self.participant.handle_abort(message)
            self._learn_outcome(message.txn, committed=False)
        elif isinstance(message, protocol.OutcomeQuery):
            self._answer_outcome_query(message)
        elif isinstance(message, protocol.OutcomeNotify):
            self._learn_outcome(message.txn, message.committed)
            self.runtime.send(
                message.origin,
                protocol.OutcomeAck(txn=message.txn, site=self.site_id),
            )
        elif isinstance(message, protocol.OutcomeAck):
            self.runtime.outcome_log.acknowledge(message.txn, message.site)
            self._pending_notifies.pop((message.txn, message.site), None)
            self._retry.pop((message.txn, message.site), None)
        else:
            raise ProtocolError(f"unhandled message type: {message!r}")

    # ------------------------------------------------------------------
    # Outcome learning and propagation (section 3.3)
    # ------------------------------------------------------------------

    def _learn_outcome(self, txn: TxnId, committed: bool) -> None:
        """Absorb one transaction outcome: reduce, relay, audit, forget."""
        rt = self.runtime
        rt.known_outcomes[txn] = committed
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
            rt.send(
                site,
                protocol.OutcomeNotify(
                    txn=txn, committed=committed, origin=self.site_id
                ),
            )

    def _answer_outcome_query(self, message: protocol.OutcomeQuery) -> None:
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
        if not self._retry:
            return
        rt = self.runtime
        base = rt.config.retry.base(rt.config.outcome_query_interval)
        horizon = rt.now + base
        for (txn, site), state in self._retry.items():
            if site == peer and state.next_at > horizon:
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
        for key in [key for key in self._retry if key not in owed]:
            del self._retry[key]
        for (txn, site), committed in owed.items():
            state = self._retry.get((txn, site))
            if state is None:
                state = _RetryState()
                if self._peer_strikes.get(site, 0) >= policy.suppression_threshold:
                    # The destination has repeatedly failed to ack:
                    # start new entries inside the suppression window
                    # instead of probing from the base again.
                    state.next_at = now + policy.suppression_window
                    self._retry[(txn, site)] = state
                    continue
                self._retry[(txn, site)] = state
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
        holds it from crash to recovery, the
        :class:`~repro.runtime.aio.AsyncioRuntime` diffs it after every
        action against the one it last logged and appends the change to
        the site's log, :mod:`repro.txn.snapshot` collects one per site.
        """
        rt = self.runtime
        return {
            "version": self.DURABLE_VERSION,
            "site": self.site_id,
            "values": rt.store.encoded_values(),
            "outcome_log": {
                txn: {
                    "committed": entry.committed,
                    "unacknowledged": sorted(entry.unacknowledged),
                }
                for txn, entry in rt.outcome_log.entries().items()
            },
            "known_outcomes": dict(rt.known_outcomes),
            "direct_doubts": sorted(rt.direct_doubts),
            "forwarded": {
                txn: sorted(sites)
                for txn in sorted(rt.outcomes.pending_transactions())
                if (sites := rt.outcomes.forwarded_sites(txn))
            },
            "pending_notifies": [
                [txn, site, committed]
                for (txn, site), committed in sorted(
                    self._pending_notifies.items()
                )
            ],
            "staged": {
                txn: encode_state(staged)
                for txn, staged in self.participant.durable_staged().items()
            },
            "unilateral": self.participant.unaudited_unilateral(),
            "sequence": self.coordinator.sequence,
        }

    def restore_durable(self, snapshot: Dict[str, object]) -> None:
        """Rebuild durable state from :meth:`durable_snapshot` output.

        Call on a down site (:meth:`crash` already dropped the volatile
        state) or a freshly built one, before :meth:`recover`.  The
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
