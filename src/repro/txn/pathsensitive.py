"""Path-sensitive commit — coordination avoidance by pre-analysis.

The second bake-off peer, after Soethout et al.'s path-sensitive
LoCA ("local coordination avoidance") line of work: instead of running
an atomic-commitment protocol for every transaction, **pre-analyse the
transaction's possible execution paths** and skip coordination whenever
the outcome provably cannot depend on the serialization order.  Three
routes, decided at submit time:

* **local** — every declared item lives at the submitting site
  (:func:`repro.txn.preanalysis.classify`): execute and commit in
  place, zero protocol messages;
* **decomposable** — the transaction's effect on every written item is
  a *state-independent delta* (discovered by finite-difference probing
  of the body, see :func:`decompose`): commit immediately at the
  submitting site and ship one idempotent ``LocalApply(item, delta)``
  effect per remote item — deltas commute, so no serialization point
  is needed (this is the paper-family's "sum-splitting" of transfers
  and increments);
* **coordinated** — anything whose writes or outputs are path-sensitive
  (a copy, a threshold branch) falls back to the unchanged polyvalue
  two-phase protocol of the base site.

The trade is explicit and measured rather than hidden: decomposable
transactions give up strict serializability (a coordinated reader can
observe a state where a transfer's debit has landed but its credit has
not) in exchange for immediate commit and per-item message cost.  The
correctness contract the harness checks is therefore not serial
equivalence but **effect conservation**: every declared delta of every
committed fast-path transaction is applied exactly once, nowhere twice,
and the system converges with no pending effects.  The classification
itself is re-audited by the oracles (a misclassified path is a protocol
bug, exercised by the ``misclassify-one`` mutation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core import polytransaction
from repro.core.errors import (
    ConditionError,
    PolyvalueError,
    TransactionError,
)
from repro.core.polytransaction import TooManyAlternativesError
from repro.core.polyvalue import is_polyvalue
from repro.db.locks import LockMode
from repro.net.message import SiteId
from repro.txn import preanalysis, protocol
from repro.txn.runtime import SiteRuntime
from repro.txn.site import DatabaseSite
from repro.txn.transaction import (
    Transaction,
    TransactionHandle,
    TxnId,
    make_txn_id,
)

ItemId = str


# ----------------------------------------------------------------------
# Wire messages
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LocalApply(protocol.ProtocolMessage):
    """One decomposed effect: add *delta* to *item* (idempotent per txn)."""

    item: ItemId
    delta: Any
    origin: SiteId


@dataclass(frozen=True)
class LocalApplyAck(protocol.ProtocolMessage):
    """The receiving site durably applied (or already had) the effect."""

    item: ItemId
    site: SiteId


# ----------------------------------------------------------------------
# Pre-analysis: the path-sensitivity probe
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """A successful probe: state-independent per-item deltas."""

    deltas: Dict[ItemId, Any]
    outputs: Dict[str, Any]


def _probe_snapshots(items: Tuple[ItemId, ...]) -> List[Dict[ItemId, Any]]:
    """Synthetic database states that try to flip any hidden branch.

    One base state, per-item positive and large-negative perturbations
    (to cross plausible thresholds in either direction), and a global
    shift.  All deterministic: classification must not depend on run
    order or randomness.
    """
    base = {item: 1009 + 97 * index for index, item in enumerate(items)}
    snapshots = [dict(base)]
    for item in items:
        for perturbation in (211, -100003):
            perturbed = dict(base)
            perturbed[item] += perturbation
            snapshots.append(perturbed)
    snapshots.append({item: value + 557 for item, value in base.items()})
    return snapshots


def _probe_once(
    transaction: Transaction, snapshot: Dict[ItemId, Any]
) -> Optional[Tuple[frozenset, Dict[ItemId, Any], Dict[str, Any]]]:
    """One trial run: (written set, deltas, outputs), or None if the
    body fails or writes anything non-numeric."""
    try:
        result = polytransaction.execute(transaction.body, snapshot)
        writes = result.merged_writes(snapshot)
        outputs = result.merged_outputs()
    except (
        TransactionError,
        PolyvalueError,
        ConditionError,
        TooManyAlternativesError,
    ):
        return None
    deltas: Dict[ItemId, Any] = {}
    for item, value in writes.items():
        old = snapshot.get(item)
        for number in (value, old):
            if isinstance(number, bool) or not isinstance(number, (int, float)):
                return None
        deltas[item] = value - old
    return frozenset(writes), deltas, outputs


def decompose(transaction: Transaction) -> Optional[Decomposition]:
    """Finite-difference probe for order-invariance.

    A transaction is decomposable iff, across every probe snapshot, it
    writes the same item set, with the same per-item delta, and the
    same outputs.  Then its effect anywhere in any serialization order
    is exactly "add these deltas" — the condition under which skipping
    coordination cannot change the final state.  Conservative by
    construction: a single divergent probe (a branch taken, a copy, a
    value-dependent output) disqualifies the transaction.
    """
    items = tuple(sorted(transaction.items))
    reference = None
    for snapshot in _probe_snapshots(items):
        probe = _probe_once(transaction, snapshot)
        if probe is None:
            return None
        if reference is None:
            reference = probe
        elif probe != reference:
            return None
    if reference is None:
        return None
    return Decomposition(deltas=dict(reference[1]), outputs=dict(reference[2]))


def _decompose_unsound(transaction: Transaction) -> Optional[Decomposition]:
    """BUG (intentional, mutation smoke only): a single-snapshot probe.

    This is the classic pre-analysis mistake — profiling one path and
    believing it.  Used by the ``misclassify-one`` fault to force a
    genuinely path-sensitive transaction onto the fast path, so the
    harness can prove the classification-audit oracle catches it.
    """
    items = tuple(sorted(transaction.items))
    probe = _probe_once(transaction, _probe_snapshots(items)[0])
    if probe is None:
        return None
    return Decomposition(deltas=dict(probe[1]), outputs=dict(probe[2]))


# ----------------------------------------------------------------------
# System-level routing registry (for clients, tests, and oracles)
# ----------------------------------------------------------------------


@dataclass
class PathDecision:
    """How one transaction was routed, and with what claimed effect."""

    kind: str  # "local" | "decomposable" | "coordinated"
    transaction: Transaction
    deltas: Dict[ItemId, Any] = field(default_factory=dict)


class PathRegistry:
    """Shared record of every routing decision the system made.

    The oracles audit this after the fact: decomposable claims are
    re-probed, and every claimed delta is reconciled against the sites'
    durable apply logs (effect conservation).
    """

    def __init__(self) -> None:
        self.routed: Dict[TxnId, PathDecision] = {}
        #: The transaction the ``misclassify-one`` fault forced onto the
        #: fast path (bookkeeping so tests can assert the mutant fired).
        self.forced: Optional[TxnId] = None
        #: The effect the ``drop-remote-apply`` fault swallowed.
        self.dropped: Optional[Tuple[TxnId, ItemId]] = None

    def decided(self, txn: TxnId) -> Optional[PathDecision]:
        return self.routed.get(txn)

    def by_kind(self, kind: str) -> Dict[TxnId, PathDecision]:
        return {
            txn: decision
            for txn, decision in self.routed.items()
            if decision.kind == kind
        }


class PathSensitiveSite(DatabaseSite):
    """A database site with submit-time path-sensitive routing.

    Coordinated transactions run the inherited polyvalue protocol
    untouched; local and decomposable ones never enter it.  Apply-log
    state (durable): ``applied`` — every effect this site installed,
    the idempotence and audit record; ``pending_applies`` — effects
    owed to other sites, retransmitted until acknowledged; the apply
    queue — effects waiting behind a write lock or an in-doubt
    polyvalue.
    """

    def __init__(self, runtime: SiteRuntime, registry: PathRegistry) -> None:
        self.registry = registry
        #: Durable: (txn, item) -> delta for every effect applied here.
        self.applied: Dict[Tuple[TxnId, ItemId], Any] = {}
        #: Durable: effects owed to remote sites, until acknowledged.
        self.pending_applies: Dict[Tuple[TxnId, ItemId], Tuple[SiteId, Any]] = {}
        #: Durable: local effects blocked behind a lock or polyvalue.
        self._apply_queue: Dict[Tuple[TxnId, ItemId], Any] = {}
        super().__init__(runtime)

    # ------------------------------------------------------------------
    # Submit-time routing
    # ------------------------------------------------------------------

    def _mint(self) -> TxnId:
        # Share the coordinator's sequence so fast-path and coordinated
        # transaction ids never collide.
        self.coordinator.sequence += 1
        return make_txn_id(self.coordinator.sequence, self.site_id)

    def submit(self, transaction: Transaction, handle: TransactionHandle) -> TxnId:
        rt = self.runtime
        classification = preanalysis.classify(transaction, rt.catalog)
        if (
            classification.is_single_site
            and classification.home_site == self.site_id
        ):
            return self._run_local(transaction, handle)
        decomposition = decompose(transaction)
        forced = False
        if (
            decomposition is None
            and rt.config.path_fault == "misclassify-one"
            and self.registry.forced is None
        ):
            decomposition = _decompose_unsound(transaction)
            forced = decomposition is not None
        if decomposition is None:
            txn = super().submit(transaction, handle)
            self.registry.routed[txn] = PathDecision("coordinated", transaction)
            if rt.bus:
                rt.bus.emit(
                    "path.classify",
                    time=rt.now,
                    txn=txn,
                    site=self.site_id,
                    kind="coordinated",
                )
            return txn
        return self._run_decomposable(transaction, handle, decomposition, forced)

    def _run_local(
        self, transaction: Transaction, handle: TransactionHandle
    ) -> TxnId:
        """§2.1 lock avoidance, realised: a purely local atomic update."""
        rt = self.runtime
        txn = self._mint()
        handle.txn = txn
        rt.report_submitted(handle, (self.site_id,))
        if rt.bus:
            rt.bus.emit(
                "path.classify",
                time=rt.now,
                txn=txn,
                site=self.site_id,
                kind="local",
            )
        self.registry.routed[txn] = PathDecision("local", transaction)
        for item in transaction.items:
            if not rt.locks.try_acquire(txn, item, LockMode.WRITE):
                rt.report_lock_conflict(txn, item, "write")
                return self._abort_fast(
                    txn, handle, f"local lock conflict on {item!r}"
                )
        try:
            snapshot = rt.store.snapshot(transaction.items)
            result = polytransaction.execute(
                transaction.body,
                snapshot,
                max_alternatives=rt.config.max_alternatives,
            )
            writes = result.merged_writes(snapshot)
            outputs = result.merged_outputs()
        except (
            TransactionError,
            PolyvalueError,
            ConditionError,
            TooManyAlternativesError,
        ) as error:
            return self._abort_fast(txn, handle, f"body failed: {error}")
        for item, value in writes.items():
            rt.apply_write(item, value)
        rt.locks.release_all(txn)
        rt.report_committed(handle, outputs)
        return txn

    def _run_decomposable(
        self,
        transaction: Transaction,
        handle: TransactionHandle,
        decomposition: Decomposition,
        forced: bool,
    ) -> TxnId:
        """Commit now; ship commuting per-item effects asynchronously."""
        rt = self.runtime
        txn = self._mint()
        handle.txn = txn
        rt.report_submitted(
            handle, map(rt.catalog.site_of, decomposition.deltas)
        )
        if rt.bus:
            rt.bus.emit(
                "path.classify",
                time=rt.now,
                txn=txn,
                site=self.site_id,
                kind="decomposable",
                forced=forced,
            )
        self.registry.routed[txn] = PathDecision(
            "decomposable", transaction, deltas=dict(decomposition.deltas)
        )
        if forced:
            self.registry.forced = txn
        rt.report_committed(handle, decomposition.outputs)
        for item in sorted(decomposition.deltas):
            delta = decomposition.deltas[item]
            target = rt.catalog.site_of(item)
            if target == self.site_id:
                self._apply_delta(txn, item, delta)
                continue
            if (
                rt.config.path_fault == "drop-remote-apply"
                and self.registry.dropped is None
            ):
                # BUG (intentional, mutation smoke only): the effect is
                # silently swallowed — never sent, never retried.  The
                # effect-conservation oracle must notice the claimed
                # delta missing from every apply log.
                self.registry.dropped = (txn, item)
                continue
            self.pending_applies[(txn, item)] = (target, delta)
            rt.send(
                target,
                LocalApply(txn=txn, item=item, delta=delta, origin=self.site_id),
            )
        return txn

    def _abort_fast(
        self, txn: TxnId, handle: TransactionHandle, reason: str
    ) -> TxnId:
        rt = self.runtime
        rt.locks.release_all(txn)
        rt.report_aborted(handle, reason)
        return txn

    # ------------------------------------------------------------------
    # Effect application (durable, idempotent)
    # ------------------------------------------------------------------

    def _apply_delta(self, txn: TxnId, item: ItemId, delta: Any) -> bool:
        """Install one effect; returns True iff it is durably applied.

        Effects wait politely: behind a coordinated transaction's write
        lock (the delta lands after that transaction resolves, which is
        what keeps effect conservation compatible with the 2PC subset)
        and behind an in-doubt polyvalue (adding to an uncertain value
        is deferred until the uncertainty resolves).
        """
        key = (txn, item)
        if key in self.applied:
            return True
        rt = self.runtime
        owner = f"apply:{txn}"
        if not rt.locks.try_acquire(owner, item, LockMode.WRITE):
            self._apply_queue[key] = delta
            return False
        value = rt.store.read(item)
        if is_polyvalue(value):
            rt.locks.release_all(owner)
            self._apply_queue[key] = delta
            return False
        rt.apply_write(item, value + delta)
        rt.locks.release_all(owner)
        self.applied[key] = delta
        self._apply_queue.pop(key, None)
        if rt.bus:
            rt.bus.emit(
                "path.apply",
                time=rt.now,
                txn=txn,
                site=self.site_id,
                item=item,
                delta=delta,
            )
        return True

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def on_message(self, envelope) -> None:
        if not self.runtime.up:
            return
        message = envelope.payload
        if isinstance(message, LocalApply):
            if envelope.sender != self.site_id:
                self._note_peer_alive(envelope.sender)
            if self._apply_delta(message.txn, message.item, message.delta):
                self.runtime.send(
                    message.origin,
                    LocalApplyAck(
                        txn=message.txn, item=message.item, site=self.site_id
                    ),
                )
            # else: queued — no ack yet; the origin keeps retrying and a
            # later duplicate will be acknowledged once the queue drains.
        elif isinstance(message, LocalApplyAck):
            self.pending_applies.pop((message.txn, message.item), None)
        else:
            super().on_message(envelope)

    # ------------------------------------------------------------------
    # Maintenance / convergence / crash
    # ------------------------------------------------------------------

    def protocol_residue(self) -> int:
        return (
            super().protocol_residue()
            + len(self.pending_applies)
            + len(self._apply_queue)
        )

    def _outcome_maintenance(self) -> None:
        super()._outcome_maintenance()
        rt = self.runtime
        if not rt.up:
            return
        for (txn, item), delta in list(self._apply_queue.items()):
            self._apply_delta(txn, item, delta)
        for (txn, item), (target, delta) in list(self.pending_applies.items()):
            rt.send(
                target,
                LocalApply(txn=txn, item=item, delta=delta, origin=self.site_id),
            )
    # Crash/recovery need no override: ``applied``, ``pending_applies``
    # and the apply queue are all durable, locks reset to free, and the
    # base ``recover`` kicks the maintenance loop, which drains the
    # queue and resumes retransmission.  None of the three is in
    # ``durable_snapshot()`` yet — ``restore_durable`` leaves them as
    # they are, which only a simulated restart can get away with; that
    # is why this protocol is not in ``LIVE_PROTOCOLS``.
