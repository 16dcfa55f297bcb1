"""The mutant catalogue: deliberate protocol bugs, armed from outside.

The oracles prove the paper's claims only if they can fail, so the
harness keeps six known-wrong variants of the protocols.  None of them
lives in :mod:`repro.txn`: :func:`arm` applies one to a system that is
already built, by replacing one method on each site, participant or
runtime *instance* with a wrapper that runs the bug.  A cluster keeps
its site objects across ``crash_site`` / ``recover_site``, so an armed
method survives restarts.  This follows tippers-commit's role factory,
which injects faulty participants and coordinators without touching
the protocol code.

Each :class:`Armed` counts how often its bug actually ran, so a test
can tell a mutant the oracles missed from one that never fired.
:func:`repro.check.explorer.run_schedule` arms ``Schedule.fault`` and
reports the count as ``ExplorationResult.fault_fired``.

The three plain names break the paper's own wait phase; the
``paxos:`` / ``path:`` names break the bake-off peers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.core.conditions import Condition
from repro.core.polyvalue import Polyvalue
from repro.db.locks import LockMode
from repro.txn.pathsensitive import (
    Decomposition,
    LocalApply,
    _probe_once,
    _probe_snapshots,
    decompose,
)

_ABSENT = object()


class Armed:
    """One mutant armed on one system.

    ``fired`` counts the times the bug ran, not the calls of the
    wrapped method.
    """

    fired = 0


# ----------------------------------------------------------------------
# Wait-phase mutants: the participant's wait-timeout action
# ----------------------------------------------------------------------


def _unilateral_commit(participant, txn, staged) -> None:
    """Treat the timeout as a commit: if the coordinator in fact
    aborted, the update survives and serial equivalence is violated."""
    participant._install_staged(txn, staged)


def _overlapping_conditions(participant, txn, staged) -> None:
    """Install ``{<new, T>, <old, TRUE>}`` instead of
    ``{<new, T>, <old, ~T>}``: the condition set is not disjoint."""
    rt = participant._rt
    for item, new_value in staged.items():
        malformed = Polyvalue(
            [
                (new_value, Condition.of(txn)),
                (rt.store.read(item), Condition.true()),
            ],
            validate=False,
        )
        rt.store.write(item, malformed)
    rt.locks.release_all(txn)
    participant._durable_staged.pop(txn, None)
    rt.direct_doubts.add(txn)


def _keep_locks(participant, txn, staged) -> None:
    """Install the polyvalues but leak the write locks, re-acquired
    under a phantom owner nothing ever releases: polyvalued items stay
    blocked, which is the availability the mechanism exists for."""
    rt = participant._rt
    for item, new_value in staged.items():
        old_value = rt.store.read(item)
        rt.apply_write(item, Polyvalue.in_doubt(txn, new_value, old_value))
    rt.locks.release_all(txn)
    for item in staged:
        rt.locks.try_acquire(f"fault:{txn}", item, LockMode.WRITE)
    participant._durable_staged.pop(txn, None)
    rt.direct_doubts.add(txn)


def _wait_phase(bug: Callable) -> Callable[[Any, Armed], None]:
    """Run *bug* instead of every participant's polyvalue install
    whenever the participant has staged writes."""

    def install(system, armed: Armed) -> None:
        for site in system.sites.values():
            participant = site.participant
            original = participant._install_polyvalues

            def install_polyvalues(
                txn, staged, *, live=True,
                participant=participant, original=original,
            ):
                if not staged:
                    return original(txn, staged, live=live)
                armed.fired += 1
                bug(participant, txn, staged)

            participant._install_polyvalues = install_polyvalues

    return install


# ----------------------------------------------------------------------
# Bake-off peer mutants
# ----------------------------------------------------------------------


def _acceptor_no_persist(system, armed: Armed) -> None:
    """Acceptors ack Phase 2a but put back the ``_accepted`` entry that
    was there before, so a failover leader's Phase 1 reads a history
    without the vote."""
    for site in system.sites.values():
        original = site._accept_phase2a

        def accept_phase2a(message, sender, site=site, original=original):
            key = (message.txn, message.instance)
            before = site._accepted.get(key, _ABSENT)
            original(message, sender)
            if site._accepted.get(key, _ABSENT) is before:
                return
            armed.fired += 1
            if before is _ABSENT:
                del site._accepted[key]
            else:
                site._accepted[key] = before

        site._accept_phase2a = accept_phase2a


def _decompose_unsound(transaction) -> Optional[Decomposition]:
    """The classic pre-analysis mistake: probe one snapshot and
    believe it."""
    items = tuple(sorted(transaction.items))
    probe = _probe_once(transaction, _probe_snapshots(items)[0])
    if probe is None:
        return None
    return Decomposition(deltas=dict(probe[1]), outputs=dict(probe[2]))


def _misclassify_one(system, armed: Armed) -> None:
    """Once per system, route a transaction the sound probe rejects
    through the single-snapshot probe instead."""

    def decompose_or_force(transaction) -> Optional[Decomposition]:
        decomposition = decompose(transaction)
        if decomposition is None and not armed.fired:
            decomposition = _decompose_unsound(transaction)
            if decomposition is not None:
                armed.fired += 1
        return decomposition

    for site in system.sites.values():
        site._decompose = decompose_or_force


def _drop_remote_apply(system, armed: Armed) -> None:
    """Swallow the first remote delta in the system: never sent, never
    retried, so a committed effect is lost."""
    for site in system.sites.values():
        original = site.runtime.send

        def send(recipient, payload, site=site, original=original):
            if isinstance(payload, LocalApply) and not armed.fired:
                armed.fired += 1
                site.pending_applies.pop((payload.txn, payload.item))
                return
            original(recipient, payload)

        site.runtime.send = send


#: Every mutant, by the name ``Schedule.fault`` carries, with the
#: function that installs it on a built system (its docstring, or its
#: bug's, says what it breaks).
FAULTS: Dict[str, Callable[[Any, Armed], None]] = {
    "unilateral-commit": _wait_phase(_unilateral_commit),
    "overlapping-conditions": _wait_phase(_overlapping_conditions),
    "keep-locks": _wait_phase(_keep_locks),
    "paxos:acceptor-no-persist": _acceptor_no_persist,
    "path:misclassify-one": _misclassify_one,
    "path:drop-remote-apply": _drop_remote_apply,
}

#: The bake-off peers' mutants (namespaced by protocol).
PROTOCOL_FAULTS = tuple(name for name in FAULTS if ":" in name)
#: The mutants of the paper's own wait phase.
WAIT_PHASE_FAULTS = tuple(name for name in FAULTS if ":" not in name)


def installer(fault: str) -> Callable[[Any, Armed], None]:
    """The catalogue entry for *fault*; ValueError for an unknown name."""
    if fault not in FAULTS:
        raise ValueError(
            f"unknown fault {fault!r}; choose from {sorted(FAULTS)}"
        )
    return FAULTS[fault]


def arm(system, fault: Optional[str]) -> Armed:
    """Install *fault* (None: nothing) on the built *system*."""
    armed = Armed()
    if fault is not None:
        installer(fault)(system, armed)
    return armed
