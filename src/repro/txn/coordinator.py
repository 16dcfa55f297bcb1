"""The coordinator role: driving one transaction through the protocol.

The coordinator implements the paper's simple decision rule: "After the
transaction coordinator has received ready messages from all sites
involved in the transaction, it sends out complete messages to all of
those sites.  If ready messages are not promptly received by the
coordinator, then the coordinator sends out abort messages to all
sites."

Our compute phase has two sub-steps (both inside the paper's "compute"):

1. **read** — the coordinator asks every involved site for the current
   values of the transaction's declared items; sites answer with values
   that may include polyvalues.
2. **stage** — the coordinator executes the transaction body through the
   polytransaction engine (:mod:`repro.core.polytransaction`), ships the
   computed updates to the sites that store them, and waits for *ready*
   from every involved site.

Commit decisions are recorded in the durable
:class:`~repro.core.outcome.OutcomeLog` *before* complete messages are
sent, and garbage-collected once every participant acknowledges — abort
decisions are not logged at all (presumed abort): a query about an
unknown transaction is answered "aborted".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.core import polytransaction
from repro.core.errors import ConditionError, PolyvalueError, TransactionError
from repro.core.polytransaction import TooManyAlternativesError
from repro.core.polyvalue import depends_on, reduce_value
from repro.runtime.base import TimerHandle
from repro.txn import protocol
from repro.txn.runtime import SiteRuntime
from repro.txn.transaction import (
    Transaction,
    TransactionHandle,
    TxnId,
    make_txn_id,
)

ItemId = str


class _Phase(enum.Enum):
    READING = "reading"
    STAGING = "staging"
    DECIDED = "decided"


@dataclass
class _CoordTxn:
    """Volatile per-transaction coordinator state."""

    txn: TxnId
    transaction: Transaction
    handle: TransactionHandle
    involved: Dict[str, List[ItemId]]
    phase: _Phase = _Phase.READING
    awaiting: Set[str] = field(default_factory=set)
    values: Dict[ItemId, Any] = field(default_factory=dict)
    outputs: Dict[str, Any] = field(default_factory=dict)
    timer: Optional[TimerHandle] = None
    #: When the current phase's request went out to each site — the
    #: reply closes a per-peer round-trip sample for adaptive patience.
    sent_at: Dict[str, float] = field(default_factory=dict)

    def cancel_timer(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None


class Coordinator:
    """One site's coordinator role across the transactions it initiates."""

    def __init__(self, runtime: SiteRuntime) -> None:
        self._rt = runtime
        self._active: Dict[TxnId, _CoordTxn] = {}
        #: Durable: the transaction-id counter (in the site snapshot, so
        #: a restarted coordinator never reuses a txn id).
        self.sequence = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def active_transactions(self) -> Set[TxnId]:
        """Transactions this coordinator is currently driving."""
        return set(self._active)

    def phase_of(self, txn: TxnId) -> Optional[str]:
        """The protocol phase *txn* is in at this coordinator.

        ``"reading"`` / ``"staging"`` while active, None once decided
        (or never known here).  The schedule explorer's small-scope
        enumeration uses this to label which phase a crash landed in.
        """
        record = self._active.get(txn)
        return record.phase.value if record is not None else None

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def begin(self, transaction: Transaction, handle: TransactionHandle) -> TxnId:
        """Start coordinating *transaction*; returns its new identifier."""
        rt = self._rt
        self.sequence += 1
        txn = make_txn_id(self.sequence, rt.site_id)
        handle.txn = txn
        involved = rt.catalog.group_by_site(transaction.items)
        record = _CoordTxn(
            txn=txn,
            transaction=transaction,
            handle=handle,
            involved=involved,
            awaiting=set(involved),
        )
        self._active[txn] = record
        rt.report_submitted(handle, involved)
        if rt.bus:
            rt.bus.emit("phase.read.start", time=rt.now, txn=txn, site=rt.site_id)
        for site, items in involved.items():
            record.sent_at[site] = rt.now
            rt.send(site, protocol.ReadRequest(txn=txn, items=tuple(items)))
        record.timer = rt.schedule(
            rt.patience.timeout_over(involved, rt.config.ready_timeout),
            lambda: self._phase_timeout(txn),
            label=f"coord-read-timeout:{txn}",
        )
        return txn

    # ------------------------------------------------------------------
    # Compute phase, step 1: reads
    # ------------------------------------------------------------------

    def handle_read_reply(self, message: protocol.ReadReply) -> None:
        record = self._active.get(message.txn)
        if record is None or record.phase is not _Phase.READING:
            return
        if message.site in record.awaiting:
            sent = record.sent_at.get(message.site)
            if sent is not None:
                self._rt.patience.observe(message.site, self._rt.now - sent)
        if not message.ok:
            self._decide_abort(record, f"read refused by {message.site}: {message.reason}")
            return
        if message.site not in record.awaiting:
            return  # duplicate
        # Reduce incoming polyvalues with outcomes this site already
        # knows — closes the race where a forwarded notification beat
        # the data it concerns.
        for item, value in message.values.items():
            record.values[item] = reduce_value(value, self._rt.known_outcomes)
        record.awaiting.discard(message.site)
        if not record.awaiting:
            self._execute_and_stage(record)

    def _execute_and_stage(self, record: _CoordTxn) -> None:
        """Run the body over the gathered reads, then :meth:`_stage`."""
        rt = self._rt
        record.cancel_timer()
        # Everything that can blow up on pathological in-doubt fan-out
        # lives inside this try: ``execute`` raises
        # TooManyAlternativesError past ``max_alternatives``, and the
        # merge steps re-validate the combined condition sets, which can
        # raise PolyvalueError/ConditionError on the same inputs.  All
        # of it must become a clean abort — an exception escaping here
        # would unwind the site's message handler out of the simulator.
        try:
            result = polytransaction.execute(
                record.transaction.body,
                record.values,
                max_alternatives=rt.config.max_alternatives,
            )
            writes = result.merged_writes(record.values)
            outputs = result.merged_outputs()
        except TooManyAlternativesError as error:
            rt.metrics.fanout_overflow(site=rt.site_id)
            if rt.bus:
                rt.bus.emit(
                    "txn.overflow",
                    time=rt.now,
                    txn=record.txn,
                    site=rt.site_id,
                    limit=rt.config.max_alternatives,
                )
            self._decide_abort(record, f"fan-out overflow: {error}")
            return
        except (TransactionError, PolyvalueError, ConditionError) as error:
            self._decide_abort(record, f"body failed: {error}")
            return
        if not result.is_simple():
            record.handle.was_polytransaction = True
            rt.metrics.txn_was_poly(
                fanout=len(result.alternatives), site=rt.site_id
            )
        record.outputs = outputs
        record.phase = _Phase.STAGING
        if rt.bus:
            rt.bus.emit(
                "phase.stage.start",
                time=rt.now,
                txn=record.txn,
                site=rt.site_id,
                writes=tuple(sorted(writes)),
            )
        self._stage(record, writes)

    def _stage(self, record: _CoordTxn, writes: Dict[ItemId, Any]) -> None:
        """Ship each involved site its share of *writes* and wait for
        every *ready* (Paxos Commit overrides this with its
        registration and ballot-0 leadership)."""
        rt = self._rt
        by_site = rt.catalog.group_by_site(writes)
        record.awaiting = set(record.involved)
        record.sent_at = {}
        for site in record.involved:
            site_writes = {
                item: writes[item] for item in by_site.get(site, ())
            }
            # Section 3.3 forwarding: this site is about to hand
            # polyvalues to another site and becomes responsible for
            # relaying the relevant outcomes there.
            for value in site_writes.values():
                for in_doubt in depends_on(value):
                    if site != rt.site_id:
                        rt.outcomes.record_forward(in_doubt, site)
            record.sent_at[site] = rt.now
            rt.send(
                site,
                protocol.StageRequest(
                    txn=record.txn, coordinator=rt.site_id, writes=site_writes
                ),
            )
        record.timer = rt.schedule(
            rt.patience.timeout_over(record.involved, rt.config.ready_timeout),
            lambda: self._phase_timeout(record.txn),
            label=f"coord-ready-timeout:{record.txn}",
        )

    # ------------------------------------------------------------------
    # Compute phase, step 2: readiness
    # ------------------------------------------------------------------

    def handle_ready(self, message: protocol.Ready) -> None:
        record = self._active.get(message.txn)
        if record is None or record.phase is not _Phase.STAGING:
            return
        if message.site in record.awaiting:
            sent = record.sent_at.get(message.site)
            if sent is not None:
                self._rt.patience.observe(message.site, self._rt.now - sent)
        record.awaiting.discard(message.site)
        if not record.awaiting:
            self._decide_complete(record)

    def handle_refuse(self, message: protocol.Refuse) -> None:
        record = self._active.get(message.txn)
        if record is None or record.phase is _Phase.DECIDED:
            return
        self._decide_abort(
            record, f"stage refused by {message.site}: {message.reason}"
        )

    def _phase_timeout(self, txn: TxnId) -> None:
        record = self._active.get(txn)
        if record is None or record.phase is _Phase.DECIDED:
            return
        # Karn backoff: the peers that failed to answer within the
        # adaptive timeout never produce the sample that would stretch
        # it, so stretch it explicitly or a latency step up aborts
        # every subsequent transaction too.
        for site in record.awaiting:
            self._rt.patience.penalize(site)
        missing = ", ".join(sorted(record.awaiting))
        record.handle.was_delayed_by_failure = True
        self._decide_abort(
            record,
            f"timeout in {record.phase.value} phase waiting for: {missing}",
        )

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def _decide_complete(self, record: _CoordTxn) -> None:
        rt = self._rt
        record.cancel_timer()
        record.phase = _Phase.DECIDED
        # Durable commit record first, then the complete messages: a
        # crash between the two leaves participants able to learn the
        # true outcome by querying.
        rt.outcome_log.decide(record.txn, True, participants=record.involved)
        rt.known_outcomes[record.txn] = True
        for site in record.involved:
            rt.send(site, protocol.Complete(txn=record.txn))
        rt.report_committed(record.handle, record.outputs)
        del self._active[record.txn]

    def _decide_abort(self, record: _CoordTxn, reason: str) -> None:
        rt = self._rt
        record.cancel_timer()
        record.phase = _Phase.DECIDED
        # Presumed abort: nothing is logged; queries about unknown
        # transactions are answered "aborted".
        rt.known_outcomes[record.txn] = False
        for site in record.involved:
            rt.send(site, protocol.Abort(txn=record.txn))
        rt.report_aborted(record.handle, reason)
        del self._active[record.txn]

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------

    def on_crash(self) -> List[TransactionHandle]:
        """Lose all in-flight coordination state.

        Returns the handles of the transactions that were still
        undecided; the system facade marks them aborted (presumed
        abort — participants converge to the same outcome by querying).
        """
        undecided = [record.handle for record in self._active.values()]
        for record in self._active.values():
            record.cancel_timer()
        self._active.clear()
        return undecided
