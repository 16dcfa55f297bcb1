"""repro.api — the stable, supported public surface of the library.

Import from here (or from the :mod:`repro` top level, which re-exports
the most common names).  Everything below is covered by the test suite
and kept backwards compatible; anything you reach by deep-importing
``repro.core.*`` / ``repro.txn.*`` internals is not, and the package
``__init__`` modules emit :class:`DeprecationWarning` for names this
facade replaces.

The surface, by layer:

* **Mechanism** (paper section 3) — :class:`Condition`,
  :class:`Literal`, :class:`Polyvalue`, the lifted helpers
  (:func:`combine`, :func:`definitely`, :func:`possibly`,
  :func:`certain`), polytransaction execution
  (:func:`execute_polytransaction`), and :func:`parse_condition`.
* **Retired cache hooks** — :func:`cache_info` (always ``{}``) and
  :func:`clear_caches` (a no-op) outlive the condition-algebra caches
  for callers written against them; ``docs/performance.md``.
* **Simulation** (section 4) — :class:`Simulator`, :class:`Network`,
  :class:`DistributedSystem` and the policy constructors
  (:func:`polyvalue_system`, :func:`blocking_system`,
  :func:`relaxed_system`, :func:`paxos_commit_system`,
  :func:`path_sensitive_system`), :class:`Transaction`,
  :class:`ProtocolConfig`, and the protocol selector
  (:data:`PROTOCOL_NAMES`, :data:`LIVE_PROTOCOLS`,
  :class:`CommitProtocol`, :func:`config_for_protocol`) —
  ``docs/protocols.md``.
* **Observability** — :class:`EventBus`, :class:`SpanTracer`,
  :class:`MetricsRegistry`, :class:`ProtocolTracer`
  (``docs/observability.md``).
* **Campaign telemetry** — the persistent results store
  (:class:`CampaignStore`, :class:`CampaignRecorder`,
  :func:`default_store_path`) behind ``repro history``, and the live
  dashboard (:class:`DashboardServer`, :class:`LiveState`,
  :func:`serve_dash`) behind ``repro serve-dash``
  (``docs/observability.md``, "The campaign store").
* **Correctness harness** — :func:`explore`, :func:`run_mutation_smoke`
  and the oracle entry points (``docs/testing.md``).
* **Resilience** — the gray-failure fault model
  (:class:`FailureAction`, :class:`ScheduleScript`), adaptive patience
  (:class:`TimeoutPolicy`, :class:`RttEstimator`, :class:`Patience`),
  bounded retransmission (:class:`RetryPolicy`), and the chaos
  campaign (:class:`ChaosProfile`, :func:`run_campaign`,
  :func:`replay_chaos`) — ``docs/faults.md``.
* **Measurement** — :func:`run_benchmarks`, backing
  ``python -m repro bench`` (``docs/performance.md``), and the
  four-protocol frontier campaign (:func:`run_frontier`,
  :class:`FrontierReport`, :func:`fault_matrix`,
  :data:`FRONTIER_PROTOCOLS`) behind ``repro frontier``
  (``docs/protocols.md``).
* **Parallel campaigns** — the process-pool campaign engine
  (:func:`run_trials`, :class:`CampaignOutcome`,
  :class:`TrialFailure`, :func:`default_jobs`), the shared seed
  derivation (:func:`trial_seed`, :func:`trial_seeds`), and the
  batched Monte-Carlo entry point (:func:`simulate_many`) —
  ``docs/performance.md`` ("Parallel campaigns").

Example
-------
>>> from repro.api import DistributedSystem, Transaction
>>> system = DistributedSystem.build(sites=3, items={"a": 10, "b": 0}, seed=1)
>>> def move(ctx):
...     ctx.write("a", ctx.read("a") - 4)
...     ctx.write("b", ctx.read("b") + 4)
>>> handle = system.submit(Transaction(body=move, items=("a", "b")))
>>> system.run_for(1.0)
>>> handle.status.value
'committed'
"""

from __future__ import annotations

from typing import Any, Dict

# Mechanism: conditions and polyvalues (paper section 3).
from repro.core.conditions import (
    FALSE,
    TRUE,
    Condition,
    Literal,
    TxnId,
    conditions_are_complete,
    conditions_are_complete_and_disjoint,
    conditions_are_disjoint,
)
from repro.core.errors import (
    ConditionError,
    PolyvalueError,
    ProtocolError,
    ReproError,
    SimulationError,
    TransactionAborted,
    TransactionError,
    TransactionInDoubt,
    UncertainValueError,
)
from repro.core.outcome import OutcomeLog, OutcomeTable, Resolution
from repro.core.parser import parse_condition
from repro.core.polytransaction import (
    PolyContext,
    PolyTransactionResult,
    execute as execute_polytransaction,
)
from repro.core.polyvalue import (
    Polyvalue,
    as_pairs,
    certain,
    combine,
    definitely,
    depends_on,
    is_polyvalue,
    possible_values,
    possibly,
    reduce_value,
    simplify,
)
from repro.core.serialize import (
    decode_state,
    decode_value,
    encode_state,
    encode_value,
)

# Simulation substrate and the full-system simulator (section 4).
from repro.sim.engine import PeriodicTask, Simulator
from repro.sim.events import Event, SimTime
from repro.sim.rand import Rng
from repro.net.network import Network, NetworkStats
from repro.net.failures import (
    CrashPlan,
    FailureAction,
    RandomFailures,
    ScheduleScript,
    ScriptedFailures,
)
from repro.txn.baselines import (
    blocking_system,
    paxos_commit_system,
    path_sensitive_system,
    polyvalue_system,
    relaxed_system,
)
from repro.txn.config import (
    LIVE_PROTOCOLS,
    PROTOCOL_NAMES,
    CommitPolicy,
    CommitProtocol,
    ProtocolConfig,
    config_for_protocol,
)
from repro.txn.timeouts import (
    Patience,
    RetryPolicy,
    RttEstimator,
    TimeoutPolicy,
)
from repro.txn.system import DistributedSystem
from repro.txn.tracing import ProtocolTracer
from repro.txn.transaction import Transaction, TransactionHandle, TxnStatus

# Observability (PR 1, docs/observability.md).
from repro.obs.events import EventBus
from repro.obs.export import CampaignMetrics
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanTracer

# Campaign telemetry: the persistent store + live dashboard (PR 6).
from repro.obs.store import (
    CampaignRecorder,
    CampaignStore,
    RunRecord,
    StoreError,
    TrialRecord,
    VerdictRecord,
    default_store_path,
)
from repro.obs.live import DashboardServer, LiveState, serve_dash

# Correctness harness (PR 2, docs/testing.md).
from repro.check.explorer import explore, replay, run_schedule
from repro.check.mutants import PROTOCOL_FAULTS
from repro.check.mutation import run_mutation_smoke
from repro.check.oracles import CheckContext, check_converged, check_quiescent, failed

# Resilience layer: gray-failure chaos campaign (docs/faults.md).
from repro.chaos import ChaosProfile, chaos_walk, replay_chaos, run_campaign

# Analysis: the section 4 analytic model and Monte-Carlo simulation.
from repro.analysis.model import table1_rows, table2_rows
from repro.analysis.montecarlo import simulate, simulate_many

# Measurement (docs/performance.md).
from repro.bench import run_benchmarks

# The commit-protocol bake-off frontier (docs/protocols.md).
from repro.frontier import (
    FRONTIER_PROTOCOLS,
    FrontierReport,
    fault_matrix,
    run_frontier,
)

# The Runtime seam and the live cluster (docs/runtime.md): the same
# state machines on sim time or wall-clock asyncio sockets.
from repro.runtime import AsyncioRuntime, Periodic, Runtime, SimRuntime
from repro.live import (
    ClusterThread,
    HttpApi,
    LiveCluster,
    LiveClusterError,
    TransactionScriptError,
    WireError,
    compile_script,
    decode_envelope,
    decode_message,
    encode_envelope,
    encode_message,
    run_serve,
)

# Parallel campaign engine (docs/performance.md, "Parallel campaigns").
from repro.parallel import (
    CampaignOutcome,
    TrialFailure,
    default_jobs,
    run_trials,
    trial_seed,
    trial_seeds,
)


def cache_info() -> Dict[str, Any]:
    """Statistics of the condition-algebra caches: there are none.

    Conditions are exact truth tables and need no memoization, so this
    is always ``{}``; it stays for callers that report cache hit rates.
    """
    return {}


def clear_caches() -> None:
    """Drop memoized condition-algebra results: there are none to drop."""


__all__ = [
    "AsyncioRuntime",
    "CampaignMetrics",
    "CampaignOutcome",
    "CampaignRecorder",
    "CampaignStore",
    "ChaosProfile",
    "CheckContext",
    "ClusterThread",
    "CommitPolicy",
    "CommitProtocol",
    "Condition",
    "ConditionError",
    "CrashPlan",
    "DashboardServer",
    "DistributedSystem",
    "Event",
    "EventBus",
    "FALSE",
    "FRONTIER_PROTOCOLS",
    "FailureAction",
    "FrontierReport",
    "HttpApi",
    "LIVE_PROTOCOLS",
    "Literal",
    "LiveCluster",
    "LiveClusterError",
    "LiveState",
    "MetricsRegistry",
    "Network",
    "NetworkStats",
    "OutcomeLog",
    "OutcomeTable",
    "PROTOCOL_FAULTS",
    "PROTOCOL_NAMES",
    "Patience",
    "Periodic",
    "PeriodicTask",
    "PolyContext",
    "PolyTransactionResult",
    "Polyvalue",
    "PolyvalueError",
    "ProtocolConfig",
    "ProtocolError",
    "ProtocolTracer",
    "RandomFailures",
    "ReproError",
    "Resolution",
    "RetryPolicy",
    "Rng",
    "RttEstimator",
    "RunRecord",
    "Runtime",
    "ScheduleScript",
    "ScriptedFailures",
    "SimRuntime",
    "SimTime",
    "SimulationError",
    "Simulator",
    "SpanTracer",
    "StoreError",
    "TRUE",
    "TimeoutPolicy",
    "Transaction",
    "TransactionAborted",
    "TransactionError",
    "TransactionHandle",
    "TransactionInDoubt",
    "TransactionScriptError",
    "TrialFailure",
    "TrialRecord",
    "TxnId",
    "TxnStatus",
    "UncertainValueError",
    "VerdictRecord",
    "WireError",
    "as_pairs",
    "blocking_system",
    "cache_info",
    "certain",
    "chaos_walk",
    "check_converged",
    "check_quiescent",
    "clear_caches",
    "combine",
    "compile_script",
    "conditions_are_complete",
    "conditions_are_complete_and_disjoint",
    "conditions_are_disjoint",
    "config_for_protocol",
    "decode_envelope",
    "decode_message",
    "decode_state",
    "decode_value",
    "default_jobs",
    "default_store_path",
    "definitely",
    "depends_on",
    "encode_envelope",
    "encode_message",
    "encode_state",
    "encode_value",
    "execute_polytransaction",
    "explore",
    "failed",
    "fault_matrix",
    "is_polyvalue",
    "parse_condition",
    "path_sensitive_system",
    "paxos_commit_system",
    "polyvalue_system",
    "possible_values",
    "possibly",
    "reduce_value",
    "relaxed_system",
    "replay",
    "replay_chaos",
    "run_benchmarks",
    "run_campaign",
    "run_frontier",
    "run_mutation_smoke",
    "run_schedule",
    "run_serve",
    "run_trials",
    "serve_dash",
    "simplify",
    "simulate",
    "simulate_many",
    "table1_rows",
    "table2_rows",
    "trial_seed",
    "trial_seeds",
]