"""The transaction layer: two-phase commit with polyvalue wait-timeouts.

.. deprecated::
    Importing the supported surface (``DistributedSystem``,
    ``Transaction``, ``ProtocolConfig``, the policy constructors, …)
    from this package emits :class:`DeprecationWarning`; import it from
    :mod:`repro.api` (or the :mod:`repro` top level) instead.  Protocol
    internals (``Coordinator``, ``Participant``, ``SiteRuntime``, …)
    and all submodules stay importable from here without a warning.
"""

import importlib
import warnings

from repro.txn.coordinator import Coordinator
from repro.txn.participant import Participant
from repro.txn.preanalysis import (
    TransactionClass,
    TransactionProfile,
    WorkloadMix,
    classify,
    conflict_graph,
    conflicts,
    parallel_batches,
    profile,
    workload_mix,
)
from repro.txn.snapshot import export_snapshot, import_snapshot
from repro.txn.tracing import TraceRecord
from repro.txn.runtime import SiteRuntime, SiteState, TransitionLog
from repro.txn.site import DatabaseSite
from repro.txn.transaction import coordinator_of, make_txn_id

#: Names the :mod:`repro.api` facade replaces, served lazily by
#: :func:`__getattr__` below with a :class:`DeprecationWarning`.
_DEPRECATED = {
    "blocking_system": ("repro.txn.baselines", "blocking_system"),
    "polyvalue_system": ("repro.txn.baselines", "polyvalue_system"),
    "relaxed_system": ("repro.txn.baselines", "relaxed_system"),
    "CommitPolicy": ("repro.txn.config", "CommitPolicy"),
    "ProtocolConfig": ("repro.txn.config", "ProtocolConfig"),
    "ProtocolTracer": ("repro.txn.tracing", "ProtocolTracer"),
    "DistributedSystem": ("repro.txn.system", "DistributedSystem"),
    "Transaction": ("repro.txn.transaction", "Transaction"),
    "TransactionHandle": ("repro.txn.transaction", "TransactionHandle"),
    "TxnStatus": ("repro.txn.transaction", "TxnStatus"),
}


def __getattr__(name):
    # PEP 562 shim: resolve deprecated names lazily, and do not cache
    # them on the package, so every deep import keeps warning.
    try:
        module_name, attr = _DEPRECATED[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    warnings.warn(
        f"importing {name!r} from 'repro.txn' is deprecated; import it "
        f"from 'repro.api' (stable facade) or {module_name!r}",
        DeprecationWarning,
        stacklevel=2,
    )
    return getattr(importlib.import_module(module_name), attr)


__all__ = [
    "CommitPolicy",
    "Coordinator",
    "DatabaseSite",
    "DistributedSystem",
    "Participant",
    "ProtocolConfig",
    "ProtocolTracer",
    "SiteRuntime",
    "SiteState",
    "TraceRecord",
    "Transaction",
    "TransactionClass",
    "TransactionHandle",
    "TransactionProfile",
    "TransitionLog",
    "TxnStatus",
    "WorkloadMix",
    "blocking_system",
    "classify",
    "conflict_graph",
    "conflicts",
    "coordinator_of",
    "export_snapshot",
    "import_snapshot",
    "make_txn_id",
    "parallel_batches",
    "polyvalue_system",
    "profile",
    "relaxed_system",
    "workload_mix",
]
