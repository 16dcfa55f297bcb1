"""The participant role: one site's side of the update protocol.

This class realises the Figure-1 state machine.  For each transaction a
site is involved in, the site is in one of three states:

* **idle** — no work for that transaction;
* **compute** — the site has received the coordinator's read request,
  holds read locks, and (after the stage request arrives) stages the
  computed updates;
* **wait** — the site has sent *ready* and awaits *complete* or *abort*.

Every edge of the figure is implemented and logged to the shared
:class:`~repro.txn.runtime.TransitionLog`:

* idle → compute on the coordinator's read request (``begin``);
* compute → wait when staging succeeds (``ready``);
* compute → idle on an abort or a compute-phase timeout (discarding
  "as if the transaction ... had never occurred", section 3.1);
* wait → idle on *complete* (install), on *abort* (discard), or on the
  wait-phase timeout — whose behaviour is the whole point of the paper
  and is selected by the :class:`~repro.txn.runtime.CommitPolicy`:

  - POLYVALUE installs ``{<new, T>, <old, ~T>}`` for every staged item
    and **releases the locks**;
  - BLOCKING keeps the locks and stays in wait until the outcome is
    learned (the window-minimisation baseline);
  - RELAXED decides unilaterally (the relaxed-consistency baseline) and
    the simulator later scores the decision against the coordinator's.

Staged updates become durable when *ready* is sent (the participant
must survive its own crash while in doubt); all other per-transaction
state is volatile and lost on a crash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

from repro.core.polyvalue import Polyvalue
from repro.db.locks import LockMode
from repro.runtime.base import TimerHandle
from repro.txn import protocol
from repro.txn.config import CommitPolicy
from repro.txn.runtime import SiteRuntime, SiteState
from repro.txn.transaction import TxnId, coordinator_of

ItemId = str


@dataclass
class _ParticipantTxn:
    """Volatile per-transaction participant state."""

    txn: TxnId
    coordinator: str
    state: SiteState = SiteState.COMPUTE
    read_items: Tuple[ItemId, ...] = ()
    staged: Optional[Dict[ItemId, Any]] = None
    timer: Optional[TimerHandle] = None
    #: BLOCKING policy: when this record started holding its locks past
    #: the wait-phase timeout (for blocked-item-seconds accounting).
    blocked_since: Optional[float] = None
    #: POLYVALUE policy: outcome-query retries already spent in the
    #: wait phase (§6 combination; see ProtocolConfig.wait_query_retries).
    wait_retries_used: int = 0
    #: When this site answered the read request / sent ready — closed by
    #: the stage request / decision arrival into the phase-interval
    #: samples that feed adaptive patience.
    reply_sent_at: Optional[float] = None
    ready_sent_at: Optional[float] = None

    def cancel_timer(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None


class Participant:
    """One site's participant role across all transactions."""

    def __init__(self, runtime: SiteRuntime) -> None:
        self._rt = runtime
        #: Volatile: live per-transaction records (compute/wait states).
        self._active: Dict[TxnId, _ParticipantTxn] = {}
        #: Durable: updates staged at ready time, kept until the
        #: transaction is decided or its polyvalues are installed.
        self._durable_staged: Dict[TxnId, Dict[ItemId, Any]] = {}
        #: Durable (RELAXED policy): unilateral decisions awaiting audit
        #: against the coordinator's actual outcome.
        self._unilateral: Dict[TxnId, bool] = {}
        #: Durable (BLOCKING policy): transactions blocked in wait,
        #: polled by the outcome-query loop.
        self._blocked: Set[TxnId] = set()

    # ------------------------------------------------------------------
    # Introspection (used by tests and benches)
    # ------------------------------------------------------------------

    def state_of(self, txn: TxnId) -> SiteState:
        """The Figure-1 state of this site for *txn* (IDLE if unknown)."""
        record = self._active.get(txn)
        return record.state if record is not None else SiteState.IDLE

    def blocked_transactions(self) -> Set[TxnId]:
        """BLOCKING policy: transactions currently holding their locks
        past a wait-phase timeout."""
        return set(self._blocked)

    def unaudited_unilateral(self) -> Dict[TxnId, bool]:
        """RELAXED policy: unilateral decisions not yet audited."""
        return dict(self._unilateral)

    def durable_staged(self) -> Dict[TxnId, Dict[ItemId, Any]]:
        """The staged-at-ready updates held durably (for checkpoints)."""
        return dict(self._durable_staged)

    def restore_staged(
        self,
        staged: Dict[TxnId, Dict[ItemId, Any]],
        unilateral: Dict[TxnId, bool],
    ) -> None:
        """Overwrite durable state from a checkpoint (site is down)."""
        self._durable_staged = dict(staged)
        self._unilateral = dict(unilateral)

    # ------------------------------------------------------------------
    # Compute phase
    # ------------------------------------------------------------------

    def handle_read_request(self, message: protocol.ReadRequest, sender: str) -> None:
        """Begin the compute phase: lock and return the requested values."""
        rt = self._rt
        txn = message.txn
        if txn in self._active:
            return  # duplicate delivery
        record = _ParticipantTxn(
            txn=txn, coordinator=sender, read_items=tuple(message.items)
        )
        self._active[txn] = record
        self._transition(record, SiteState.IDLE, SiteState.COMPUTE, "begin")
        for item in message.items:
            if not rt.locks.try_acquire(txn, item, LockMode.READ):
                rt.report_lock_conflict(txn, item, "read")
                self._discard(record, "abort")
                rt.send(
                    sender,
                    protocol.ReadReply(
                        txn=txn,
                        site=rt.site_id,
                        ok=False,
                        reason=f"read-lock conflict on {item!r}",
                    ),
                )
                return
        values = rt.store.snapshot(message.items)
        # Section 3.3: polyvalues are about to leave this site — record
        # the coordinator as a destination to notify for every in-doubt
        # transaction they depend on.
        if sender != rt.site_id:
            for value in values.values():
                # Simple values depend on nothing; only polyvalues carry
                # in-doubt transactions that need forwarding.
                if isinstance(value, Polyvalue):
                    for in_doubt in value.depends_on():
                        rt.outcomes.record_forward(in_doubt, sender)
        rt.send(
            sender,
            protocol.ReadReply(txn=txn, site=rt.site_id, ok=True, values=values),
        )
        record.reply_sent_at = rt.now
        record.timer = rt.schedule(
            rt.patience.timeout_for(sender, rt.config.compute_timeout),
            lambda: self._compute_timeout(txn),
            label=f"compute-timeout:{txn}",
        )

    def handle_stage_request(self, message: protocol.StageRequest, sender: str) -> None:
        """Stage the coordinator's computed updates, then :meth:`_vote`
        (or :meth:`_refuse` when a write lock is unavailable)."""
        rt = self._rt
        txn = message.txn
        record = self._active.get(txn)
        if record is None or record.state is not SiteState.COMPUTE:
            # Already discarded (timeout) or duplicate; the coordinator's
            # own timeout will handle it.
            return
        record.cancel_timer()
        if record.reply_sent_at is not None:
            # One compute-phase interval: reply sent -> stage request
            # arrived.  This is exactly the span the compute timeout
            # must cover, coordinator processing included.
            rt.patience.observe(sender, rt.now - record.reply_sent_at)
            record.reply_sent_at = None
        for item in message.writes:
            if not rt.locks.try_acquire(txn, item, LockMode.WRITE):
                rt.report_lock_conflict(txn, item, "write")
                self._discard(record, "abort")
                self._refuse(
                    message, sender, f"write-lock conflict on {item!r}"
                )
                return
        staged = dict(message.writes)
        record.staged = staged
        # Durable before the vote leaves this site: a prepared
        # participant must survive its own crash still prepared.
        self._durable_staged[txn] = staged
        record.state = SiteState.WAIT
        self._transition(record, SiteState.COMPUTE, SiteState.WAIT, "ready")
        record.ready_sent_at = rt.now
        self._vote(record, message, sender)

    def _vote(
        self,
        record: _ParticipantTxn,
        message: protocol.StageRequest,
        sender: str,
    ) -> None:
        """Vote yes: *ready* to the coordinator, then wait for its decision."""
        rt = self._rt
        txn = record.txn
        rt.send(sender, protocol.Ready(txn=txn, site=rt.site_id))
        record.timer = rt.schedule(
            rt.patience.timeout_for(sender, rt.config.wait_timeout),
            lambda: self._wait_timeout(txn),
            label=f"wait-timeout:{txn}",
        )

    def _refuse(
        self, message: protocol.StageRequest, sender: str, reason: str
    ) -> None:
        """Vote no: tell the coordinator, which aborts."""
        rt = self._rt
        rt.send(
            sender,
            protocol.Refuse(txn=message.txn, site=rt.site_id, reason=reason),
        )

    # ------------------------------------------------------------------
    # Decision messages
    # ------------------------------------------------------------------

    def handle_complete(self, message: protocol.Complete) -> None:
        """Install the staged updates; the transaction completed."""
        record = self._active.get(message.txn)
        if record is None or record.state is not SiteState.WAIT:
            return  # late/duplicate; outcome handling at the site level applies
        record.cancel_timer()
        self._observe_decision_interval(record)
        self._install_staged(message.txn, record.staged or {})
        self._transition(record, SiteState.WAIT, SiteState.IDLE, "complete")
        self._forget(message.txn)

    def handle_abort(self, message: protocol.Abort) -> None:
        """Discard any computation done for the transaction."""
        record = self._active.get(message.txn)
        if record is None:
            return
        record.cancel_timer()
        if record.state is SiteState.WAIT:
            self._observe_decision_interval(record)
        source = record.state
        self._transition(record, source, SiteState.IDLE, "abort")
        self._forget(message.txn)

    def _observe_decision_interval(self, record: _ParticipantTxn) -> None:
        """Close the wait-phase sample: ready sent -> decision arrived.

        This interval includes the *slowest other participant's* stage
        round — exactly what this site's wait patience must outlast, so
        it is the right sample even though it is not a pure network RTT.
        """
        if record.ready_sent_at is not None:
            self._rt.patience.observe(
                record.coordinator, self._rt.now - record.ready_sent_at
            )
            record.ready_sent_at = None

    # ------------------------------------------------------------------
    # Timeouts (the interesting part)
    # ------------------------------------------------------------------

    def _compute_timeout(self, txn: TxnId) -> None:
        record = self._active.get(txn)
        if record is None or record.state is not SiteState.COMPUTE:
            return
        # Karn backoff, mirroring the coordinator's: the stage request
        # that failed to arrive in time is the censored sample.
        self._rt.patience.penalize(record.coordinator)
        # Section 3.1: "that site simply discards the computation
        # performed for the transaction and continues processing
        # transactions as if the transaction interrupted by the failure
        # had never occurred."
        self._discard(record, "compute-timeout")

    def _wait_timeout(self, txn: TxnId) -> None:
        record = self._active.get(txn)
        if record is None or record.state is not SiteState.WAIT:
            return
        policy = self._rt.config.policy
        # Karn backoff: the decision that failed to arrive in time is
        # the censored sample (see Patience.penalize).
        self._rt.patience.penalize(record.coordinator)
        if policy is CommitPolicy.POLYVALUE:
            if record.wait_retries_used < self._rt.config.wait_query_retries:
                # §6 combination: ask the coordinator once more before
                # resorting to polyvalues — a lost complete message or a
                # healed blip resolves here without creating uncertainty.
                record.wait_retries_used += 1
                self._rt.send(
                    record.coordinator,
                    protocol.OutcomeQuery(txn=txn, requester=self._rt.site_id),
                )
                record.timer = self._rt.schedule(
                    self._rt.patience.timeout_for(
                        record.coordinator, self._rt.config.wait_timeout
                    ),
                    lambda: self._wait_timeout(txn),
                    label=f"wait-retry:{txn}",
                )
                return
            budget = self._rt.config.polyvalue_budget
            if (
                budget is not None
                and self._rt.store.polyvalue_count() >= budget
            ):
                # §6 hybrid, overload valve: this site already carries
                # its budget of unresolved polyvalues — fall back to the
                # blocking policy for this transaction instead of adding
                # uncertainty.  Availability on these items is traded
                # for a bound on in-doubt state; the outcome-query loop
                # resolves it like any blocked transaction.
                self._rt.metrics.overload_blocked(site=self._rt.site_id)
                if self._rt.bus:
                    self._rt.bus.emit(
                        "overload.block",
                        time=self._rt.now,
                        txn=txn,
                        site=self._rt.site_id,
                        budget=budget,
                        polyvalues=self._rt.store.polyvalue_count(),
                    )
                self._blocked.add(txn)
                record.blocked_since = self._rt.now
                return
            self._install_polyvalues(txn, record.staged or {})
            self._transition(record, SiteState.WAIT, SiteState.IDLE, "wait-timeout")
            self._forget(txn)
        elif policy is CommitPolicy.BLOCKING:
            # Keep the locks; the items stay unavailable until the
            # outcome is learned via the outcome-query loop.  No state
            # transition: the site remains in wait.
            self._blocked.add(txn)
            record.blocked_since = self._rt.now
        elif policy is CommitPolicy.RELAXED:
            commit = self._rt.config.relaxed_commit_probability >= 1.0
            if not commit:
                commit = self._relaxed_choice()
            self._rt.metrics.unilateral_decision()
            self._unilateral[txn] = commit
            if commit:
                self._install_staged(txn, record.staged or {})
            self._transition(record, SiteState.WAIT, SiteState.IDLE, "wait-timeout")
            self._forget(txn)

    def _relaxed_choice(self) -> bool:
        # The relaxed baseline's "arbitrary decision": deterministic
        # per-call alternation would bias experiments, so derive from the
        # configured probability via the shared metrics counter (cheap,
        # reproducible, and adequate for a baseline the paper dismisses).
        probability = self._rt.config.relaxed_commit_probability
        tick = self._rt.metrics.unilateral_decisions + 1
        return (tick * 0.6180339887498949) % 1.0 < probability

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------

    def on_crash(self) -> None:
        """Lose all volatile state (timers fire harmlessly via the guard).

        A compute-phase transaction dies with the crash — exactly the
        Figure-1 "failure discards the computation" edge, logged as
        such.  A wait-phase transaction survives in the durable staging
        log; its wait->idle transition is logged when recovery applies
        the wait-timeout policy.
        """
        for record in self._active.values():
            record.cancel_timer()
            if record.state is SiteState.COMPUTE:
                self._transition(
                    record, SiteState.COMPUTE, SiteState.IDLE, "compute-timeout"
                )
        self._active.clear()
        self._blocked.clear()

    def on_recover(self) -> None:
        """Re-handle transactions that were staged-and-in-doubt at crash.

        The durable staging log plays the role of Gray's participant
        log: for each staged transaction whose outcome this site never
        learned, apply the configured wait-timeout policy now (the
        outcome was certainly not received — the site was down).
        """
        policy = self._rt.config.policy
        for txn, staged in list(self._durable_staged.items()):
            if policy is CommitPolicy.POLYVALUE:
                self._install_polyvalues(txn, staged, live=False)
                self._log_recovery_timeout(txn)
                self._forget(txn)
            elif policy is CommitPolicy.BLOCKING:
                # Stay blocked until the outcome query resolves it.
                record = self._resume_wait(txn, staged)
                record.blocked_since = self._rt.now
                self._blocked.add(txn)
            elif policy is CommitPolicy.RELAXED:
                self._rt.metrics.unilateral_decision()
                commit = self._relaxed_choice()
                self._unilateral[txn] = commit
                if commit:
                    self._install_staged(txn, staged)
                else:
                    self._forget(txn)
                self._log_recovery_timeout(txn)

    # ------------------------------------------------------------------
    # Outcome learned later (blocking/relaxed resolution, audits)
    # ------------------------------------------------------------------

    def handle_outcome_known(self, txn: TxnId, committed: bool) -> None:
        """React to an outcome learned outside the normal wait phase.

        * BLOCKING: finally install/discard and release the locks.
        * RELAXED: audit the earlier unilateral decision.
        * POLYVALUE: nothing to do here — polyvalue reduction happens at
          the site level through the outcome table.
        """
        self._blocked.discard(txn)
        record = self._active.get(txn)
        if record is not None and record.state is SiteState.WAIT:
            # Covers both the BLOCKING policy (locks held across the
            # window) and a POLYVALUE participant still in its §6
            # query-retry loop: the outcome arrived, so finish normally.
            record.cancel_timer()
            if record.blocked_since is not None:
                blocked_for = self._rt.now - record.blocked_since
                item_count = len(record.staged or {})
                self._rt.metrics.add_blocked_item_seconds(
                    blocked_for * item_count
                )
            if committed:
                self._install_staged(txn, record.staged or {})
                self._transition(record, SiteState.WAIT, SiteState.IDLE, "complete")
            else:
                self._transition(record, SiteState.WAIT, SiteState.IDLE, "abort")
            self._forget(txn)
        if txn in self._unilateral:
            decided = self._unilateral.pop(txn)
            if decided != committed:
                self._rt.metrics.inconsistent_decision()
            self._durable_staged.pop(txn, None)

    def pending_outcome_queries(self) -> Set[TxnId]:
        """Transactions whose outcome this participant still needs."""
        return set(self._blocked) | set(self._unilateral)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _resume_wait(
        self, txn: TxnId, staged: Dict[ItemId, Any]
    ) -> _ParticipantTxn:
        """Re-enter the wait phase for *txn* after a restart.

        Re-acquires the write locks (nothing else can have locked the
        items while the site was down) and returns the new record.
        """
        for item in staged:
            self._rt.locks.try_acquire(txn, item, LockMode.WRITE)
        record = _ParticipantTxn(
            txn=txn,
            coordinator=coordinator_of(txn),
            state=SiteState.WAIT,
            staged=dict(staged),
        )
        self._active[txn] = record
        return record

    def _install_staged(self, txn: TxnId, staged: Dict[ItemId, Any]) -> None:
        rt = self._rt
        for item, value in staged.items():
            rt.apply_write(item, value)
        rt.locks.release_all(txn)
        self._durable_staged.pop(txn, None)

    def _install_polyvalues(
        self, txn: TxnId, staged: Dict[ItemId, Any], *, live: bool = True
    ) -> None:
        """The paper's wait-timeout action: ``{<new, T>, <old, ~T>}``.

        The staged ``new`` value may itself be a polyvalue (the
        transaction ran as a polytransaction); flattening in the
        Polyvalue constructor produces the combined conditions.  Locks
        are released — the items become available immediately.

        *live* distinguishes a wait-timeout on a running site (the §4
        model's failure event: uncertainty persists until the remote
        failure recovers) from a crash-recovery replay (where recovery
        has already happened and the outcome resolves moments later);
        only live windows feed the measured-F cross-validation.
        """
        rt = self._rt
        fault = rt.config.wait_phase_fault
        if fault is not None and staged:
            # Deliberately-wrong branches, reachable only when the
            # correctness harness arms ProtocolConfig.wait_phase_fault.
            # They exist to prove the repro.check oracles catch real
            # protocol bugs (mutation smoke test); see
            # repro.check.mutation for the catalogue.
            if fault == "unilateral-commit":
                # BUG (intentional): treat the timeout as a commit and
                # install the new values as simple values.  If the
                # coordinator in fact aborted, the update survives —
                # serial equivalence is violated.
                self._install_staged(txn, staged)
                return
            if fault == "overlapping-conditions":
                # BUG (intentional): install ``{<new, T>, <old, TRUE>}``
                # instead of ``{<new, T>, <old, ~T>}`` — the condition
                # set is no longer disjoint.
                from repro.core.conditions import Condition

                for item, new_value in staged.items():
                    old_value = rt.store.read(item)
                    malformed = Polyvalue(
                        [
                            (new_value, Condition.of(txn)),
                            (old_value, Condition.true()),
                        ],
                        validate=False,
                    )
                    rt.store.write(item, malformed)
                rt.locks.release_all(txn)
                self._durable_staged.pop(txn, None)
                rt.direct_doubts.add(txn)
                return
            if fault == "keep-locks":
                # BUG (intentional): install the polyvalues but leak the
                # write locks (re-acquired under a phantom owner no code
                # path ever releases) — the paper's availability claim
                # (polyvalued items stay writable) is violated.
                for item, new_value in staged.items():
                    old_value = rt.store.read(item)
                    rt.apply_write(
                        item, Polyvalue.in_doubt(txn, new_value, old_value)
                    )
                rt.locks.release_all(txn)
                for item in staged:
                    rt.locks.try_acquire(f"fault:{txn}", item, LockMode.WRITE)
                self._durable_staged.pop(txn, None)
                rt.direct_doubts.add(txn)
                return
            raise ValueError(f"unknown wait_phase_fault {fault!r}")
        if staged and live:
            # Read-only participants have nothing at stake; only a
            # participant with staged updates experienced a real
            # in-doubt window in the §4 model's sense.
            rt.metrics.in_doubt_opened(rt.now, site=rt.site_id, txn=txn)
        if staged and rt.bus:
            rt.bus.emit(
                "indoubt.open",
                time=rt.now,
                txn=txn,
                site=rt.site_id,
                items=tuple(sorted(staged)),
                live=live,
            )
        for item, new_value in staged.items():
            old_value = rt.store.read(item)
            in_doubt = Polyvalue.in_doubt(txn, new_value, old_value)
            rt.apply_write(item, in_doubt)
        rt.locks.release_all(txn)
        self._durable_staged.pop(txn, None)
        # This site was a direct participant of the in-doubt transaction:
        # it is entitled to query the coordinator for the outcome (and,
        # unlike sites that merely received forwarded polyvalues, it is
        # covered by the coordinator's outcome-log retention).
        rt.direct_doubts.add(txn)

    def _log_recovery_timeout(self, txn: TxnId) -> None:
        """Log the wait->idle edge for a transaction resolved at recovery.

        The site conceptually stayed in its wait phase across the
        outage (the staging log is durable); applying the policy at
        recovery is the Figure-1 wait-timeout transition.
        """
        self._rt.transitions.record(
            time=self._rt.now,
            site=self._rt.site_id,
            txn=txn,
            source=SiteState.WAIT,
            target=SiteState.IDLE,
            trigger="wait-timeout",
        )

    def _discard(self, record: _ParticipantTxn, trigger: str) -> None:
        record.cancel_timer()
        self._transition(record, record.state, SiteState.IDLE, trigger)
        self._forget(record.txn)

    def _forget(self, txn: TxnId) -> None:
        self._rt.locks.release_all(txn)
        self._active.pop(txn, None)
        self._durable_staged.pop(txn, None)

    def _transition(
        self,
        record: _ParticipantTxn,
        source: SiteState,
        target: SiteState,
        trigger: str,
    ) -> None:
        record.state = target
        self._rt.transitions.record(
            time=self._rt.now,
            site=self._rt.site_id,
            txn=record.txn,
            source=source,
            target=target,
            trigger=trigger,
        )
