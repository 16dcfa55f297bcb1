"""Global invariant oracles for the polyvalue protocol.

Each oracle inspects a whole :class:`~repro.txn.cluster.Cluster` — the
simulator's ``DistributedSystem`` or a socket ``LiveCluster`` — and
renders a :class:`Verdict`.  Two evaluation points exist:

* **quiescent** — no protocol work in flight (messages, protocol
  timers); failures may still be outstanding.  The section 3
  *structural* invariants must hold here: well-formed condition sets,
  single-outcome resolution, outcome-table coverage of every polyvalue,
  no locks on polyvalued items, only Figure-1 state transitions.
* **converged** — additionally, every failure has recovered and the
  maintenance loops have run to completion.  The *end-state* guarantees
  apply: zero polyvalues, empty bookkeeping, every transaction decided,
  and a final state equal to some serial execution of the committed
  transactions (conflict-serializability / no lost update, via
  :func:`repro.workloads.runner.serial_replay`).

Oracles never mutate the system.  They are deliberately exhaustive and
slow-ish (truth-table enumeration per polyvalue) — they run in tests and
in the schedule explorer, not on any hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.conditions import all_assignments
from repro.core.errors import ConditionError, PolyvalueError
from repro.core.polyvalue import Value, is_polyvalue
from repro.txn.cluster import Cluster
from repro.txn.transaction import TxnStatus
from repro.workloads.runner import serial_replay

ItemId = str


@dataclass(frozen=True)
class Verdict:
    """One oracle's judgement of one system state."""

    oracle: str
    ok: bool
    details: str = ""

    def __str__(self) -> str:
        mark = "ok" if self.ok else "VIOLATION"
        suffix = f": {self.details}" if self.details else ""
        return f"[{mark}] {self.oracle}{suffix}"


@dataclass
class CheckContext:
    """Everything the oracles need to judge a system.

    ``initial_values`` defaults to the system's own retained copy; pass
    it explicitly only for hand-built systems that predate the field.
    """

    system: Cluster
    initial_values: Optional[Mapping[ItemId, Value]] = None

    def initial(self) -> Dict[ItemId, Value]:
        if self.initial_values is not None:
            return dict(self.initial_values)
        return dict(self.system.initial_values)


Oracle = Callable[[CheckContext], Verdict]


def _verdict(name: str, problems: List[str]) -> Verdict:
    if problems:
        return Verdict(oracle=name, ok=False, details="; ".join(problems))
    return Verdict(oracle=name, ok=True)


# ----------------------------------------------------------------------
# Quiescent-point oracles (structural invariants, section 3)
# ----------------------------------------------------------------------


def condition_sets_oracle(ctx: CheckContext) -> Verdict:
    """Every polyvalue's condition set is complete and disjoint.

    Section 3: "one and only one of the conditions must be true under
    any assignment of outcomes to the transactions".  Also flags nested
    polyvalues, unmerged equal values and unsatisfiable conditions —
    the three simplification rules of section 3.1.
    """
    problems: List[str] = []
    for site_id, site in ctx.system.sites.items():
        for item in site.store.polyvalued_items():
            value = site.store.read(item)
            for problem in value.well_formedness_problems():
                problems.append(f"{site_id}/{item}: {problem}")
    return _verdict("condition-sets", problems)


def single_outcome_oracle(ctx: CheckContext) -> Verdict:
    """Every polyvalue resolves to exactly one simple value per outcome.

    For each polyvalued item, enumerate every assignment of outcomes to
    the transactions it depends on: substitution must produce a plain
    (non-poly) value — "when the outcome of every transaction is known,
    a single value pair will be left in each polyvalue" (section 3.3).
    """
    problems: List[str] = []
    for site_id, site in ctx.system.sites.items():
        for item in site.store.polyvalued_items():
            value = site.store.read(item)
            doubts = sorted(value.depends_on())
            if not doubts:
                problems.append(
                    f"{site_id}/{item}: polyvalue depends on no "
                    f"transaction (should have collapsed)"
                )
                continue
            try:
                for assignment in all_assignments(doubts):
                    reduced = value.reduce(assignment)
                    if is_polyvalue(reduced):
                        problems.append(
                            f"{site_id}/{item}: still uncertain under "
                            f"full assignment {assignment}"
                        )
                        break
            except (PolyvalueError, ConditionError) as error:
                problems.append(f"{site_id}/{item}: {error}")
    return _verdict("single-outcome", problems)


def outcome_tracking_oracle(ctx: CheckContext) -> Verdict:
    """The section 3.3 tables cover every polyvalue dependency.

    A site holding a polyvalue that depends on transaction T must have
    a table entry mapping T to that item — otherwise learning T's
    outcome would never reduce the polyvalue and the forwarding chain
    silently loses the update.  The reverse direction (an entry lists
    an item that is not actually a dependent polyvalue) is bookkeeping
    leakage and flagged too.
    """
    problems: List[str] = []
    for site_id, site in ctx.system.sites.items():
        table = site.runtime.outcomes
        dependent: Dict[str, set] = {}
        for item in site.store.polyvalued_items():
            for txn in site.store.read(item).depends_on():
                dependent.setdefault(txn, set()).add(item)
        for txn, items in dependent.items():
            missing = items - set(table.dependent_items(txn))
            for item in sorted(missing):
                problems.append(
                    f"{site_id}/{item}: depends on {txn} but the outcome "
                    f"table does not track it (unresolvable polyvalue)"
                )
        for txn in table.pending_transactions():
            stale = set(table.dependent_items(txn)) - dependent.get(txn, set())
            for item in sorted(stale):
                problems.append(
                    f"{site_id}/{item}: outcome table tracks a dependency "
                    f"on {txn} but the item holds no such polyvalue "
                    f"(bookkeeping leak)"
                )
    return _verdict("outcome-tracking", problems)


def no_blocking_oracle(ctx: CheckContext) -> Verdict:
    """Availability at quiescence, dispatched on the protocol kind.

    The claim this oracle guards is protocol-specific, so it inspects
    ``ProtocolConfig.protocol_kind`` rather than hard-coding the
    polyvalue semantics:

    * **polyvalue** (and the polyvalue subset of **pathsensitive**) —
      the paper's claim: at a quiescent point no polyvalued item may
      still be locked (installation released the locks);
    * **blocking** / **relaxed** — the blocking baseline *legitimately*
      holds locks across the window and relaxed never installs
      polyvalues; neither is a violation, exactly the contrast the
      paper draws — skipped;
    * **paxos** — Paxos Commit never creates polyvalues at all; any
      polyvalue in a paxos system is a protocol bug, which is the check
      applied instead of the lock scan.

    One deliberate exception on the polyvalue path: a configured
    ``polyvalue_budget`` (ProtocolConfig's §6 overload valve) switches
    wait-timeouts to blocking once the site is saturated, and those
    transactions hold their locks *by design* — a lock whose holder the
    participant reports as blocked is therefore not a violation.
    """
    kind = ctx.system.config.protocol_kind
    if kind in ("blocking", "relaxed"):
        return Verdict(
            oracle="no-blocking",
            ok=True,
            details=f"skipped: {kind} legitimately blocks",
        )
    if kind == "paxos":
        polyvalued = ctx.system.polyvalued_items()
        if polyvalued:
            return Verdict(
                oracle="no-blocking",
                ok=False,
                details=(
                    "paxos commit must never create polyvalues, found on: "
                    + ", ".join(polyvalued)
                ),
            )
        return Verdict(oracle="no-blocking", ok=True)
    budgeted = ctx.system.config.polyvalue_budget is not None
    problems: List[str] = []
    for site_id, site in ctx.system.sites.items():
        locks = site.runtime.locks
        locked = locks.locked_items()
        blocked = site.participant.blocked_transactions() if budgeted else set()
        for item in site.store.polyvalued_items():
            if item in locked:
                if blocked and locks.holders(item) <= blocked:
                    continue  # overload valve: blocking chosen by config
                problems.append(
                    f"{site_id}/{item}: holds a polyvalue but is locked "
                    f"(availability violated)"
                )
    return _verdict("no-blocking", problems)


def figure1_oracle(ctx: CheckContext) -> Verdict:
    """Every observed participant transition is an edge of Figure 1."""
    transitions = ctx.system.transitions
    invalid = transitions.observed_edges() - transitions.FIGURE_1_EDGES
    problems = [
        f"illegal transition {source.value} --{trigger}--> {target.value}"
        for source, trigger, target in sorted(
            invalid, key=lambda e: (e[0].value, e[1])
        )
    ]
    return _verdict("figure1-edges", problems)


def decision_consistency_oracle(ctx: CheckContext) -> Verdict:
    """No transaction was both committed and aborted anywhere.

    Every handle reaches at most one decided status (the handle raises
    on re-decision), and no two handles share a transaction id.  Under
    Paxos Commit the decision additionally flows through the shared
    :class:`~repro.txn.paxos.DecisionBoard`, which records any
    contradictory consensus outcome (the bug class 2F+1 durable
    acceptors exist to prevent) instead of applying it — those conflict
    records are violations here.
    """
    problems: List[str] = []
    seen: Dict[str, TxnStatus] = {}
    for handle in ctx.system.handles:
        if handle.txn.startswith(("?", "unsent@")):
            continue  # never entered the protocol
        previous = seen.get(handle.txn)
        if previous is not None and previous is not handle.status:
            problems.append(
                f"{handle.txn}: decided both {previous.value} and "
                f"{handle.status.value}"
            )
        seen[handle.txn] = handle.status
    board = ctx.system.decision_board
    if board is not None:
        for txn, first, second, site in board.conflicts:
            problems.append(
                f"{txn}: consensus decided "
                f"{'commit' if first else 'abort'} then "
                f"{'commit' if second else 'abort'} (second at {site})"
            )
    return _verdict("decision-consistency", problems)


# ----------------------------------------------------------------------
# Convergence oracles (end-state guarantees, sections 3.3-3.4)
# ----------------------------------------------------------------------


def convergence_oracle(ctx: CheckContext) -> Verdict:
    """All uncertainty resolved and all bookkeeping garbage-collected.

    After every failure recovers: zero polyvalues at every site, empty
    outcome tables ("the table entry for T [is forgotten]"), empty
    coordinator outcome logs (all acknowledged), no pending handles,
    and no locks held anywhere.
    """
    system = ctx.system
    problems: List[str] = []
    down = system.down_sites()
    if down:
        problems.append(f"sites still down: {', '.join(down)}")
    leftover = system.polyvalued_items()
    if leftover:
        problems.append(f"polyvalues remain on: {', '.join(leftover)}")
    bookkeeping = system.outcome_bookkeeping_size()
    if bookkeeping:
        problems.append(f"{bookkeeping} outcome-table entries not collected")
    for site_id, site in system.sites.items():
        pending_log = site.runtime.outcome_log.pending()
        if pending_log:
            problems.append(
                f"{site_id}: outcome log retains {sorted(pending_log)}"
            )
        locked = site.runtime.locks.locked_items()
        if locked:
            problems.append(f"{site_id}: locks held on {sorted(locked)}")
    pending = [handle.txn for handle in system.pending_handles()]
    if pending:
        problems.append(f"undecided transactions: {', '.join(pending)}")
    for site_id, site in system.sites.items():
        residue = site.protocol_residue()
        if residue:
            problems.append(
                f"{site_id}: {residue} protocol-residue entries not drained"
            )
    return _verdict("convergence", problems)


def serial_equivalence_oracle(ctx: CheckContext) -> Verdict:
    """The final state equals a serial execution of the committed set.

    The classic atomicity criterion, applied once converged: replaying
    exactly the committed transactions, serially, in decision order,
    against the initial state must reproduce the database byte for
    byte.  Catches lost updates (an effect vanished), phantom updates
    (an aborted transaction's effect survived — e.g. a unilateral
    commit), and non-serializable interleavings.

    Path-sensitive commit deliberately trades strict serializability
    for immediate fast-path commit (a coordinated reader can observe a
    half-landed transfer), so under that protocol the criterion is the
    effect-conservation contract of :func:`path_effects_oracle`
    instead, and this oracle steps aside.
    """
    system = ctx.system
    if system.config.protocol_kind == "pathsensitive":
        return Verdict(
            oracle="serial-equivalence",
            ok=True,
            details="skipped: pathsensitive is audited by effect conservation",
        )
    expected = serial_replay(system.handles, ctx.initial())
    actual = system.database_state()
    problems: List[str] = []
    for item in sorted(expected):
        if item not in actual:
            problems.append(f"{item}: missing from the final state")
        elif actual[item] != expected[item]:
            problems.append(
                f"{item}: final value {actual[item]!r} != serial "
                f"replay {expected[item]!r}"
            )
    for item in sorted(set(actual) - set(expected)):
        problems.append(f"{item}: not present in the serial replay")
    return _verdict("serial-equivalence", problems)


def path_effects_oracle(ctx: CheckContext) -> Verdict:
    """Path-sensitive commit's correctness contract (effect conservation).

    What replaces serial equivalence for the fast path, checked once
    converged:

    * **classification audit** — every transaction that skipped
      coordination is re-probed; if the pre-analysis cannot reproduce
      the order-invariance claim (same deltas under every probe
      snapshot), the routing was a protocol bug (the
      ``misclassify-one`` mutant);
    * **exactly-once effects** — every declared delta of a committed
      fast-path transaction appears in exactly one site's durable apply
      log, with the declared value; no apply log holds an effect for an
      aborted, undeclared, or coordinated transaction (the
      ``drop-remote-apply`` mutant loses an effect; a retransmission
      bug would double one);
    * **value conservation** — items touched *only* by fast-path
      transactions end at initial-plus-sum-of-committed-deltas.
    """
    system = ctx.system
    registry = system.path_registry
    if registry is None:
        return Verdict(
            oracle="path-effects", ok=True, details="skipped: not pathsensitive"
        )
    from repro.txn.pathsensitive import decompose

    problems: List[str] = []
    status = {handle.txn: handle.status for handle in system.handles}
    applied: Dict[Tuple[str, ItemId], List[Tuple[str, Value]]] = {}
    for site_id, site in system.sites.items():
        for (txn, item), delta in site.applied.items():
            applied.setdefault((txn, item), []).append((site_id, delta))
    decomposable = registry.by_kind("decomposable")
    for txn, decision in sorted(decomposable.items()):
        audit = decompose(decision.transaction)
        if audit is None or audit.deltas != decision.deltas:
            problems.append(
                f"{txn}: took the fast path but re-analysis finds it "
                f"order-sensitive (misclassified)"
            )
        if status.get(txn) is not TxnStatus.COMMITTED:
            continue
        for item, delta in sorted(decision.deltas.items()):
            entries = applied.get((txn, item), [])
            if not entries:
                problems.append(
                    f"{txn}/{item}: declared delta {delta!r} was never "
                    f"applied (effect lost)"
                )
            elif len(entries) > 1:
                sites = ", ".join(sorted(site for site, _ in entries))
                problems.append(
                    f"{txn}/{item}: effect applied {len(entries)} times "
                    f"(at {sites})"
                )
            elif entries[0][1] != delta:
                problems.append(
                    f"{txn}/{item}: applied {entries[0][1]!r} but declared "
                    f"{delta!r}"
                )
    for (txn, item), entries in sorted(applied.items()):
        decision = registry.decided(txn)
        if decision is None or decision.kind != "decomposable":
            problems.append(
                f"{txn}/{item}: apply log holds an effect for a "
                f"non-fast-path transaction"
            )
        elif status.get(txn) is not TxnStatus.COMMITTED:
            problems.append(
                f"{txn}/{item}: effect of an uncommitted transaction was "
                f"applied (phantom update)"
            )
        elif item not in decision.deltas:
            problems.append(f"{txn}/{item}: undeclared effect applied")
    touched_elsewhere: set = set()
    for decision in registry.routed.values():
        if decision.kind != "decomposable":
            touched_elsewhere.update(decision.transaction.items)
    initial = ctx.initial()
    expected_delta: Dict[ItemId, Value] = {}
    for txn, decision in decomposable.items():
        if status.get(txn) is TxnStatus.COMMITTED:
            for item, delta in decision.deltas.items():
                expected_delta[item] = expected_delta.get(item, 0) + delta
    actual = system.database_state()
    for item in sorted(expected_delta):
        if item in touched_elsewhere:
            continue  # a coordinated/local write makes the sum non-closed
        want = initial[item] + expected_delta[item]
        if actual.get(item) != want:
            problems.append(
                f"{item}: final value {actual.get(item)!r} != initial "
                f"{initial[item]!r} + committed deltas {expected_delta[item]!r}"
            )
    return _verdict("path-effects", problems)


#: Oracles valid at any quiescent point (failures may be outstanding).
QUIESCENT_ORACLES: Tuple[Oracle, ...] = (
    condition_sets_oracle,
    single_outcome_oracle,
    outcome_tracking_oracle,
    no_blocking_oracle,
    figure1_oracle,
    decision_consistency_oracle,
)

#: Additional oracles valid only once every failure has recovered and
#: the system has settled.
CONVERGENCE_ORACLES: Tuple[Oracle, ...] = (
    convergence_oracle,
    serial_equivalence_oracle,
    path_effects_oracle,
)

ALL_ORACLES: Tuple[Oracle, ...] = QUIESCENT_ORACLES + CONVERGENCE_ORACLES


def check_quiescent(ctx: CheckContext) -> List[Verdict]:
    """Evaluate every quiescent-point oracle."""
    return [oracle(ctx) for oracle in QUIESCENT_ORACLES]


def check_converged(ctx: CheckContext) -> List[Verdict]:
    """Evaluate the full oracle catalogue (quiescent + convergence)."""
    return [oracle(ctx) for oracle in ALL_ORACLES]


def failed(verdicts: Sequence[Verdict]) -> List[Verdict]:
    """The violations among *verdicts*."""
    return [verdict for verdict in verdicts if not verdict.ok]
