"""repro.check — the correctness harness for the polyvalue protocol.

The paper's central claims are *global* properties of the whole
distributed database, not of any single module:

* the ``<value, condition>`` sets of every polyvalue stay complete and
  disjoint (section 3);
* substituting any single assignment of outcomes yields exactly one
  simple value per item;
* committed effects are equivalent to a serial execution (no lost
  updates, even across section 3.3 forwarding chains);
* polyvalued items stay unlocked — availability is never sacrificed;
* once every failure recovers, the database converges: zero polyvalues,
  empty bookkeeping, no undecided transactions.

This package makes those claims machine-checkable:

* :mod:`repro.check.oracles` — the invariant oracle library, evaluated
  against a live :class:`~repro.txn.system.DistributedSystem`;
* :mod:`repro.check.scenarios` — small seeded workloads the explorer
  drives;
* :mod:`repro.check.explorer` — the deterministic schedule explorer:
  seed-enumerated random walks over crash/recovery/partition
  interleavings plus systematic small-scope enumeration, checking every
  oracle at each quiescent point and emitting a replayable
  ``(seed, schedule)`` artifact on violation;
* :mod:`repro.check.mutants` — the catalogue of deliberate protocol
  bugs, armed on a built system from outside the protocol code;
* :mod:`repro.check.mutation` — the mutation smoke test that arms each
  of them in turn and proves the oracles notice.

Command line: ``python -m repro check`` (see ``docs/testing.md``).
"""

from repro.check.explorer import (
    ExplorationResult,
    ExplorerReport,
    Schedule,
    Violation,
    enumerate_small_scope,
    explore,
    load_artifact,
    random_walk,
    replay,
    run_schedule,
)
from repro.check.mutants import FAULTS
from repro.check.mutation import MutationReport, run_mutation_smoke
from repro.check.oracles import (
    ALL_ORACLES,
    CONVERGENCE_ORACLES,
    QUIESCENT_ORACLES,
    CheckContext,
    Verdict,
    check_converged,
    check_quiescent,
    failed,
)

__all__ = [
    "ALL_ORACLES",
    "CONVERGENCE_ORACLES",
    "QUIESCENT_ORACLES",
    "CheckContext",
    "ExplorationResult",
    "ExplorerReport",
    "FAULTS",
    "MutationReport",
    "Schedule",
    "Verdict",
    "Violation",
    "check_converged",
    "check_quiescent",
    "enumerate_small_scope",
    "explore",
    "failed",
    "load_artifact",
    "random_walk",
    "replay",
    "run_mutation_smoke",
    "run_schedule",
]
