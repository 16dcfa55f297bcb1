"""Paxos Commit (Gray & Lamport, "Consensus on Transaction Commit").

The bake-off peer that replaces the single 2PC coordinator decision
with one Paxos consensus instance per participant: each participant's
prepared/aborted vote is chosen by 2F+1 acceptors, so the global
decision (commit iff every instance chose *prepared*) survives any F
simultaneous faults.  The protocol is non-blocking where 2PC blocks —
a coordinator crash inside the in-doubt window is resolved by **leader
failover**: any participant whose decision timer expires runs Phase 1
with a higher ballot, learns the accepted votes from a quorum, and
completes the commit (or aborts the free instances) itself.

Mapping onto the repo's machinery:

* the **compute phase is reused verbatim** — reads, execution, write
  locks and durable staging run the existing
  :class:`~repro.txn.coordinator.Coordinator` and
  :class:`~repro.txn.participant.Participant` code paths, which hand
  off to the only three overrides: ``Coordinator._stage`` (register
  the transaction, lead ballot 0) and ``Participant._vote`` /
  ``_refuse`` (a Phase 2a vote instead of *ready* / *refuse*).  The
  message-cost comparison against 2PC therefore isolates the decision
  layer;
* the fast path is **Phase-2a-by-participant**: instead of *ready* to
  the coordinator, a participant sends its vote at ballot 0 directly
  to every acceptor, which persists it and relays Phase 2b to the
  ballot's leader (one message delay saved, as in the paper);
* ballots are globally partitioned (``round * n_sites + site_index``)
  so two proposers can never collide on a ballot number;
* the durable state is exactly Gray & Lamport's: staged writes and the
  (participants, acceptors) registration at the participant, promises
  and accepted votes at the acceptors, the commit record at whichever
  site decides.

The :class:`DecisionBoard` is the client's-eye registry of transaction
handles: whichever site completes the protocol marks the handle there,
and contradictory decisions — impossible with correct acceptors, and
exactly what the ``acceptor-no-persist`` mutation produces — are
recorded for the protocol-aware decision-consistency oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.errors import ProtocolError
from repro.net.message import SiteId
from repro.txn import protocol
from repro.txn.coordinator import Coordinator, _CoordTxn, _Phase
from repro.txn.participant import Participant, _ParticipantTxn
from repro.txn.runtime import SiteRuntime
from repro.txn.site import DatabaseSite
from repro.txn.transaction import (
    Transaction,
    TransactionHandle,
    TxnId,
    TxnStatus,
    coordinator_of,
)

ItemId = str

#: The two values a participant's Paxos instance can choose.
PREPARED = "prepared"
ABORTED = "aborted"


# ----------------------------------------------------------------------
# Wire messages
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PaxosStage(protocol.StageRequest):
    """The coordinator's stage request, Paxos flavour.

    Beyond the staged writes it registers the transaction: the full
    participant set, the acceptor set, and the ballot-0 leader — the
    durable knowledge a participant needs to run failover on its own.
    """

    participants: Tuple[SiteId, ...] = ()
    acceptors: Tuple[SiteId, ...] = ()
    leader: SiteId = ""


@dataclass(frozen=True)
class Phase2a(protocol.ProtocolMessage):
    """Propose *vote* for *instance* at *ballot* (fast path: ballot 0,
    sent by the instance's own participant)."""

    instance: SiteId
    ballot: int
    vote: str
    leader: SiteId


@dataclass(frozen=True)
class Phase2b(protocol.ProtocolMessage):
    """An acceptor's acceptance of a Phase 2a proposal."""

    instance: SiteId
    ballot: int
    vote: str
    acceptor: SiteId


@dataclass(frozen=True)
class Phase1a(protocol.ProtocolMessage):
    """A failover proposer's prepare request at *ballot* (all instances)."""

    ballot: int
    proposer: SiteId


@dataclass(frozen=True)
class Phase1b(protocol.ProtocolMessage):
    """An acceptor's promise: its accepted (ballot, vote) per instance."""

    ballot: int
    acceptor: SiteId
    accepted: Mapping[SiteId, Tuple[int, str]] = field(default_factory=dict)


@dataclass(frozen=True)
class PaxosDecision(protocol.ProtocolMessage):
    """The consensus outcome, broadcast by whichever site completed it."""

    committed: bool


# ----------------------------------------------------------------------
# The client's-eye transaction registry
# ----------------------------------------------------------------------


class DecisionBoard:
    """System-level registry mapping transactions to client handles.

    Paxos Commit has no single site that always survives to mark the
    client's handle — the decider may be the original coordinator or
    any failover leader.  The board is the client's stable mailbox:
    :meth:`decide` marks the handle exactly once, and records any
    contradictory later decision (a protocol-safety violation) for the
    decision-consistency oracle.
    """

    def __init__(self) -> None:
        self.handles: Dict[TxnId, TransactionHandle] = {}
        self.decisions: Dict[TxnId, bool] = {}
        #: Coordinator-computed outputs, delivered with a commit.
        self.outputs: Dict[TxnId, Dict[str, Any]] = {}
        #: (txn, first, second, site) for every contradictory decision.
        self.conflicts: List[Tuple[TxnId, bool, bool, SiteId]] = []

    def register(self, txn_handle: TransactionHandle) -> None:
        if txn_handle.txn:
            self.handles[txn_handle.txn] = txn_handle

    def decided(self, txn: TxnId) -> Optional[bool]:
        return self.decisions.get(txn)

    def decide(self, txn: TxnId, committed: bool, rt: SiteRuntime) -> bool:
        """Record one decision reached at *rt*'s site; returns True iff
        this was the first.

        A second, contradictory decision is the bug class Paxos exists
        to prevent — it is recorded (never applied to the handle) so
        the oracle layer can flag it.
        """
        handle = self.handles.get(txn)
        previous = self.decisions.get(txn)
        if previous is None and handle is not None:
            if handle.status is TxnStatus.COMMITTED:
                previous = True
            elif handle.status is TxnStatus.ABORTED:
                previous = False
        if previous is not None:
            if previous != committed:
                self.conflicts.append((txn, previous, committed, rt.site_id))
                rt.metrics.inconsistent_decision()
            return False
        self.decisions[txn] = committed
        outputs = self.outputs.pop(txn, {})
        # A handle reaching here is pending: a decided one set `previous`.
        if handle is not None:
            if committed:
                rt.report_committed(handle, outputs)
            else:
                rt.report_aborted(handle, "paxos consensus aborted")
        return True


# ----------------------------------------------------------------------
# Proposer / ballot-leader state
# ----------------------------------------------------------------------


@dataclass
class _Proposal:
    """Volatile state of one ballot this site is leading."""

    txn: TxnId
    ballot: int
    participants: Tuple[SiteId, ...]
    acceptors: Tuple[SiteId, ...]
    #: ``"p1"`` while collecting promises, ``"p2"`` while collecting
    #: acceptances (the ballot-0 fast path starts directly in p2).
    phase: str = "p2"
    promises: Dict[SiteId, Dict[SiteId, Tuple[int, str]]] = field(
        default_factory=dict
    )
    #: Phase-2b acceptances at this ballot: instance -> acceptor -> vote.
    votes: Dict[SiteId, Dict[SiteId, str]] = field(default_factory=dict)
    #: Instances whose consensus value this ballot has established.
    chosen: Dict[SiteId, str] = field(default_factory=dict)


class PaxosCoordinator(Coordinator):
    """The 2PC coordinator's compute phase with a Paxos decision layer.

    Reads and transaction-body execution are inherited unchanged; only
    :meth:`_stage` differs (a :class:`PaxosStage` registers the
    participant and acceptor sets) and the decision never happens here
    directly — the site's ballot-0 leadership (or any failover leader)
    completes the commit through the acceptors.
    """

    def __init__(self, runtime: SiteRuntime, site: "PaxosSite") -> None:
        super().__init__(runtime)
        self._site = site

    def _stage(self, record: _CoordTxn, writes: Dict[ItemId, Any]) -> None:
        rt = self._rt
        by_site = rt.catalog.group_by_site(writes)
        participants = tuple(sorted(record.involved))
        acceptors = self._site.acceptor_set()
        # Durable registration (Gray & Lamport's registrar record): the
        # participant set must survive a coordinator crash so recovery
        # can drive failover for the transaction.
        self._site.registrar[record.txn] = participants
        self._site.board.outputs[record.txn] = record.outputs
        record.awaiting = set(record.involved)
        for site in record.involved:
            site_writes = {
                item: writes[item] for item in by_site.get(site, ())
            }
            rt.send(
                site,
                PaxosStage(
                    txn=record.txn,
                    coordinator=rt.site_id,
                    writes=site_writes,
                    participants=participants,
                    acceptors=acceptors,
                    leader=rt.site_id,
                ),
            )
        # Ballot-0 leadership: the participants send Phase 2a straight
        # to the acceptors; this site only collects the Phase 2b flow.
        self._site.start_ballot0(record.txn, participants, acceptors)
        record.timer = rt.schedule(
            rt.config.paxos_failover_timeout,
            lambda: self._site.failover(record.txn),
            label=f"paxos-lead-timeout:{record.txn}",
        )

    def _decide_abort(self, record: _CoordTxn, reason: str) -> None:
        # Read-phase failures (lock refusals, read timeouts) abort the
        # classic way — no vote exists anywhere yet, so presumed abort
        # is safe.  Route the decision through the board so a later
        # (buggy) consensus decision for the same transaction is
        # detected as a conflict rather than silently double-marked.
        if record.phase is _Phase.READING:
            self._site.board.decisions.setdefault(record.txn, False)
        super()._decide_abort(record, reason)

    def on_crash(self) -> List[TransactionHandle]:
        """Lose volatile coordination state; only read-phase handles die.

        A transaction that reached staging has durable registration and
        (possibly) accepted votes — failover can still commit it, so
        its handle must stay pending.  Read-phase transactions have no
        vote anywhere and are presumed aborted, as in 2PC.
        """
        reading = [
            record.handle
            for record in self._active.values()
            if record.phase is _Phase.READING
        ]
        for record in self._active.values():
            record.cancel_timer()
        self._active.clear()
        return reading

    def forget(self, txn: TxnId) -> None:
        """Drop the volatile record once consensus decided *txn*."""
        record = self._active.pop(txn, None)
        if record is not None:
            record.cancel_timer()
            record.phase = _Phase.DECIDED


class PaxosParticipant(Participant):
    """The participant role with Phase-2a-by-participant voting.

    Staging is the inherited no-wait 2PL acquisition of 2PC; only the
    vote differs (:meth:`_vote` / :meth:`_refuse`): it goes to the
    acceptors at ballot 0 instead of a *ready* / *refuse* to the
    coordinator, and the wait phase ends with the consensus decision —
    or with this site running leader failover itself.
    """

    def __init__(self, runtime: SiteRuntime, site: "PaxosSite") -> None:
        super().__init__(runtime)
        self._site = site
        #: Durable: (participants, acceptors) per staged transaction —
        #: everything a recovering participant needs to run failover.
        self._meta: Dict[TxnId, Tuple[Tuple[SiteId, ...], Tuple[SiteId, ...]]] = {}

    def registration(
        self, txn: TxnId
    ) -> Optional[Tuple[Tuple[SiteId, ...], Tuple[SiteId, ...]]]:
        return self._meta.get(txn)

    def _vote(
        self, record: _ParticipantTxn, message: PaxosStage, sender: SiteId
    ) -> None:
        """Vote Prepared at ballot 0, straight to the acceptors."""
        rt = self._rt
        txn = record.txn
        # Durable, like the staged writes, before the vote leaves.
        self._meta[txn] = (
            tuple(message.participants),
            tuple(message.acceptors),
        )
        self._phase2a(message, PREPARED)
        record.timer = rt.schedule(
            rt.patience.timeout_for(
                message.leader, rt.config.paxos_failover_timeout
            ),
            lambda: self._site.failover(txn),
            label=f"paxos-wait:{txn}",
        )

    def _refuse(
        self, message: PaxosStage, sender: SiteId, reason: str
    ) -> None:
        """Vote Aborted — to the acceptors, not the coordinator:
        consensus, not the leader, aborts."""
        self._phase2a(message, ABORTED)

    def _phase2a(self, message: PaxosStage, vote: str) -> None:
        rt = self._rt
        for acceptor in message.acceptors:
            rt.send(
                acceptor,
                Phase2a(
                    txn=message.txn,
                    instance=rt.site_id,
                    ballot=0,
                    vote=vote,
                    leader=message.leader,
                ),
            )

    def handle_outcome_known(self, txn: TxnId, committed: bool) -> None:
        record = self._active.get(txn)
        if record is None and txn in self._durable_staged:
            # Decided while this site had no live record (e.g. the
            # outcome arrived through the notify chain right after
            # recovery): apply straight from the durable staging log.
            if committed:
                self._install_staged(txn, self._durable_staged[txn])
            else:
                self._durable_staged.pop(txn, None)
                self._rt.locks.release_all(txn)
        super().handle_outcome_known(txn, committed)
        self._meta.pop(txn, None)

    def on_recover(self) -> None:
        """Re-enter the wait phase for every undecided staged transaction.

        Unlike the 2PC policies there is nothing unilateral to do: the
        participant stays prepared and re-initiates leader failover —
        the acceptors (not this site) hold the authoritative state.
        """
        for txn, staged in list(self._durable_staged.items()):
            outcome = self._rt.known_outcomes.get(txn)
            if outcome is not None:
                self.handle_outcome_known(txn, outcome)
                continue
            record = self._resume_wait(txn, staged)
            record.timer = self._rt.schedule(
                self._rt.config.paxos_failover_timeout,
                lambda txn=txn: self._site.failover(txn),
                label=f"paxos-recover-failover:{txn}",
            )


class PaxosSite(DatabaseSite):
    """A database site speaking Paxos Commit.

    Every site carries three roles: the inherited participant (with
    Paxos voting), the inherited coordinator (with Paxos staging), and
    an **acceptor** — promises and accepted votes are durable, the
    whole point of the protocol.  Any site can additionally become a
    failover leader.
    """

    def __init__(self, runtime: SiteRuntime, board: DecisionBoard) -> None:
        self.board = board
        #: Durable registrar records: txn -> participant set, kept from
        #: staging until the decision is learned here.
        self.registrar: Dict[TxnId, Tuple[SiteId, ...]] = {}
        #: Durable acceptor state: highest ballot promised per txn, and
        #: accepted (ballot, vote) per (txn, instance).
        self._promised: Dict[TxnId, int] = {}
        self._accepted: Dict[Tuple[TxnId, SiteId], Tuple[int, str]] = {}
        #: Volatile: ballots this site is currently leading.
        self._proposals: Dict[TxnId, _Proposal] = {}
        #: Volatile: next failover round per txn (restarts at 1 after a
        #: crash — ballots stay unique because rounds only move up per
        #: proposer and the site index partitions the ballot space).
        self._round: Dict[TxnId, int] = {}
        super().__init__(runtime)
        self.participant = PaxosParticipant(runtime, self)
        self.coordinator = PaxosCoordinator(runtime, self)

    # ------------------------------------------------------------------
    # Configuration-derived sets
    # ------------------------------------------------------------------

    def _all_sites(self) -> List[SiteId]:
        return sorted(self.runtime.catalog.all_sites())

    def fault_tolerance(self) -> int:
        """F: how many simultaneous acceptor faults commit survives."""
        sites = self._all_sites()
        max_f = (len(sites) - 1) // 2
        configured = self.runtime.config.paxos_fault_tolerance
        if configured is None:
            return max_f
        return max(0, min(configured, max_f))

    def acceptor_set(self) -> Tuple[SiteId, ...]:
        """The 2F+1 acceptors (deterministic: the lowest site ids)."""
        sites = self._all_sites()
        return tuple(sites[: 2 * self.fault_tolerance() + 1])

    def quorum(self) -> int:
        return self.fault_tolerance() + 1

    def protocol_residue(self) -> int:
        """Undecided Paxos state still held at this site."""
        return (
            len(self.participant._durable_staged)
            + len(self.registrar)
            + len(self._proposals)
            + len(self._promised)
            + len(self._accepted)
        )

    # ------------------------------------------------------------------
    # Client entry point
    # ------------------------------------------------------------------

    def submit(self, transaction: Transaction, handle: TransactionHandle) -> TxnId:
        txn = super().submit(transaction, handle)
        self.board.register(handle)
        return txn

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def on_message(self, envelope) -> None:
        if not self.runtime.up:
            return
        message = envelope.payload
        # A PaxosStage is a StageRequest: the base dispatch routes it.
        if isinstance(message, Phase2a):
            self._accept_phase2a(message, envelope.sender)
        elif isinstance(message, Phase2b):
            self._collect_phase2b(message)
        elif isinstance(message, Phase1a):
            self._accept_phase1a(message, envelope.sender)
        elif isinstance(message, Phase1b):
            self._collect_phase1b(message)
        elif isinstance(message, PaxosDecision):
            if envelope.sender != self.site_id:
                self._note_peer_alive(envelope.sender)
            self._learn_outcome(message.txn, message.committed)
            if envelope.sender != self.site_id:
                self.runtime.send(
                    envelope.sender,
                    protocol.OutcomeAck(txn=message.txn, site=self.site_id),
                )
        else:
            super().on_message(envelope)

    # ------------------------------------------------------------------
    # Acceptor role (durable)
    # ------------------------------------------------------------------

    def _accept_phase2a(self, message: Phase2a, sender: SiteId) -> None:
        rt = self.runtime
        txn = message.txn
        known = rt.known_outcomes.get(txn)
        if known is not None:
            rt.send(message.leader, PaxosDecision(txn=txn, committed=known))
            return
        promised = self._promised.get(txn, -1)
        if message.ballot < promised:
            return  # promised a higher ballot: silently reject
        self._promised[txn] = message.ballot
        if rt.config.paxos_fault != "acceptor-no-persist":
            self._accepted[(txn, message.instance)] = (
                message.ballot,
                message.vote,
            )
        # else: BUG (intentional, mutation smoke only) — acknowledge
        # the vote without persisting it, so a failover leader can
        # later contradict a fast-path decision.
        rt.send(
            message.leader,
            Phase2b(
                txn=txn,
                instance=message.instance,
                ballot=message.ballot,
                vote=message.vote,
                acceptor=rt.site_id,
            ),
        )

    def _accept_phase1a(self, message: Phase1a, sender: SiteId) -> None:
        rt = self.runtime
        txn = message.txn
        known = rt.known_outcomes.get(txn)
        if known is not None:
            rt.send(message.proposer, PaxosDecision(txn=txn, committed=known))
            return
        if message.ballot <= self._promised.get(txn, -1):
            return
        self._promised[txn] = message.ballot
        accepted = {
            instance: entry
            for (entry_txn, instance), entry in self._accepted.items()
            if entry_txn == txn
        }
        rt.send(
            message.proposer,
            Phase1b(
                txn=txn,
                ballot=message.ballot,
                acceptor=rt.site_id,
                accepted=accepted,
            ),
        )

    # ------------------------------------------------------------------
    # Leader / proposer role (volatile)
    # ------------------------------------------------------------------

    def start_ballot0(
        self,
        txn: TxnId,
        participants: Tuple[SiteId, ...],
        acceptors: Tuple[SiteId, ...],
    ) -> None:
        """Collect the fast path's Phase 2b flow as ballot-0 leader."""
        self._proposals[txn] = _Proposal(
            txn=txn,
            ballot=0,
            participants=participants,
            acceptors=acceptors,
            phase="p2",
        )

    def failover(self, txn: TxnId) -> None:
        """Become the leader for *txn* at a fresh, higher ballot.

        Called on decision timeout (participant or ballot-0 leader), on
        recovery, and from the maintenance loop.  Stops itself once the
        outcome is known locally; otherwise retries with ever-higher
        ballots, so the transaction decides as soon as a quorum of
        acceptors is reachable — the non-blocking property.
        """
        rt = self.runtime
        if not rt.up or txn in rt.known_outcomes:
            return
        registration = self.participant.registration(txn)
        if registration is not None:
            participants, acceptors = registration
        elif txn in self.registrar:
            participants = self.registrar[txn]
            acceptors = self.acceptor_set()
        else:
            return  # nothing durable to act on
        sites = self._all_sites()
        round_ = self._round.get(txn, 0) + 1
        self._round[txn] = round_
        ballot = round_ * len(sites) + sites.index(rt.site_id)
        self._proposals[txn] = _Proposal(
            txn=txn,
            ballot=ballot,
            participants=participants,
            acceptors=acceptors,
            phase="p1",
        )
        if rt.bus:
            rt.bus.emit(
                "paxos.ballot",
                time=rt.now,
                txn=txn,
                site=rt.site_id,
                ballot=ballot,
            )
        for acceptor in acceptors:
            rt.send(acceptor, Phase1a(txn=txn, ballot=ballot, proposer=rt.site_id))
        # Re-arm: if this ballot stalls (acceptors down, messages lost)
        # try again at a higher one.  The chain stops once decided.
        rt.schedule(
            rt.config.paxos_failover_timeout,
            lambda: self.failover(txn),
            label=f"paxos-failover:{txn}",
        )

    def _collect_phase1b(self, message: Phase1b) -> None:
        proposal = self._proposals.get(message.txn)
        if (
            proposal is None
            or proposal.phase != "p1"
            or proposal.ballot != message.ballot
        ):
            return
        proposal.promises[message.acceptor] = dict(message.accepted)
        if len(proposal.promises) < self.quorum():
            return
        # Quorum promised: per instance, propose the highest-ballot
        # accepted vote, or Aborted for a free instance (Gray &
        # Lamport: a free instance means that participant never voted —
        # aborting it is always safe and makes the protocol non-blocking).
        proposal.phase = "p2"
        rt = self.runtime
        for instance in proposal.participants:
            best: Optional[Tuple[int, str]] = None
            for accepted in proposal.promises.values():
                entry = accepted.get(instance)
                if entry is not None and (best is None or entry[0] > best[0]):
                    best = entry
            vote = best[1] if best is not None else ABORTED
            for acceptor in proposal.acceptors:
                rt.send(
                    acceptor,
                    Phase2a(
                        txn=message.txn,
                        instance=instance,
                        ballot=proposal.ballot,
                        vote=vote,
                        leader=rt.site_id,
                    ),
                )

    def _collect_phase2b(self, message: Phase2b) -> None:
        proposal = self._proposals.get(message.txn)
        if (
            proposal is None
            or proposal.phase != "p2"
            or proposal.ballot != message.ballot
        ):
            return
        votes = proposal.votes.setdefault(message.instance, {})
        votes[message.acceptor] = message.vote
        counts: Dict[str, int] = {}
        for vote in votes.values():
            counts[vote] = counts.get(vote, 0) + 1
        for vote, count in counts.items():
            if count >= self.quorum():
                proposal.chosen[message.instance] = vote
        chosen = proposal.chosen
        if any(vote == ABORTED for vote in chosen.values()):
            self._decide(proposal, committed=False)
        elif all(
            chosen.get(instance) == PREPARED
            for instance in proposal.participants
        ):
            self._decide(proposal, committed=True)

    def _decide(self, proposal: _Proposal, *, committed: bool) -> None:
        rt = self.runtime
        txn = proposal.txn
        if txn in rt.known_outcomes:
            return
        if rt.bus:
            rt.bus.emit(
                "paxos.decide",
                time=rt.now,
                txn=txn,
                site=rt.site_id,
                committed=committed,
                ballot=proposal.ballot,
            )
        # Durable decision record before any message leaves.  Unlike
        # 2PC, aborts are logged too: the acceptors hold durable votes
        # for this transaction and must all learn the outcome to
        # garbage-collect them — the site layer's unacknowledged-
        # participants retry loop redelivers the outcome reliably.
        learners = sorted(
            (
                set(proposal.participants)
                | set(proposal.acceptors)
                | {coordinator_of(txn)}
            )
            - {rt.site_id}
        )
        rt.outcome_log.decide(txn, committed, participants=learners)
        self.board.decide(txn, committed, rt)
        for learner in learners:
            rt.send(learner, PaxosDecision(txn=txn, committed=committed))
        self._learn_outcome(txn, committed)

    # ------------------------------------------------------------------
    # Outcome learning / garbage collection
    # ------------------------------------------------------------------

    def _learn_outcome(self, txn: TxnId, committed: bool) -> None:
        super()._learn_outcome(txn, committed)
        self.registrar.pop(txn, None)
        self._proposals.pop(txn, None)
        self._round.pop(txn, None)
        self._promised.pop(txn, None)
        for key in [key for key in self._accepted if key[0] == txn]:
            del self._accepted[key]
        self.coordinator.forget(txn)

    def _answer_outcome_query(self, message: protocol.OutcomeQuery) -> None:
        # An undecided registered transaction must not be presumed
        # aborted — failover (not presumption) resolves it.
        if message.txn in self.registrar:
            return
        super()._answer_outcome_query(message)

    def _outcome_maintenance(self) -> None:
        super()._outcome_maintenance()
        rt = self.runtime
        if not rt.up:
            return
        for txn in list(self.registrar):
            known = rt.known_outcomes.get(txn)
            if known is not None:
                self._learn_outcome(txn, known)
            elif txn not in self.coordinator.active_transactions():
                self.failover(txn)

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------

    def crash(self) -> List[TransactionHandle]:
        undecided = super().crash()
        # Leadership and failover pacing are volatile; promises,
        # accepted votes and registrar records are durable.
        self._proposals.clear()
        self._round.clear()
        # Recovery needs no override: the base ``recover`` kicks the
        # maintenance loop, whose paxos extension runs failover for
        # every undecided registrar entry.
        return undecided

    # ------------------------------------------------------------------
    # Durable state (see DatabaseSite.durable_snapshot)
    # ------------------------------------------------------------------

    def durable_snapshot(self) -> Dict[str, object]:
        snapshot = super().durable_snapshot()
        meta = self.participant._meta
        snapshot["paxos"] = {
            "registrar": {
                txn: list(sites) for txn, sites in self.registrar.items()
            },
            "promised": dict(self._promised),
            "accepted": [
                [txn, instance, ballot, vote]
                for (txn, instance), (ballot, vote) in sorted(
                    self._accepted.items()
                )
            ],
            "meta": {
                txn: [list(participants), list(acceptors)]
                for txn, (participants, acceptors) in meta.items()
            },
        }
        return snapshot

    def restore_durable(self, snapshot: Dict[str, object]) -> None:
        super().restore_durable(snapshot)
        paxos = snapshot.get("paxos")
        if paxos is None:
            raise ProtocolError(
                f"snapshot of {self.site_id!r} was not written by a "
                f"Paxos Commit site"
            )
        self.registrar = {
            txn: tuple(sites) for txn, sites in paxos["registrar"].items()
        }
        self._promised = dict(paxos["promised"])
        self._accepted = {
            (txn, instance): (ballot, vote)
            for txn, instance, ballot, vote in paxos["accepted"]
        }
        self.participant._meta = {
            txn: (tuple(participants), tuple(acceptors))
            for txn, (participants, acceptors) in paxos["meta"].items()
        }
