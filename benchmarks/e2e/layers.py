"""The span table: which calls belong to which layer, and how they are traced.

This is the only file of the benchmark that names anything deeper than
``repro.api``.  Each entry of :data:`SEAMS` maps a layer (the repo's own
module names) to one public callable; :func:`install` wraps the callable
in place with ``setattr`` *before* a cluster is built, so bound methods
captured at construction time (``rt.register(site, self.on_message)``,
``self._encode = wire.encode_envelope``) already point at the wrapper.
Module-level functions are also replaced in every loaded ``repro.*``
module that imported them by name.

A seam that no longer resolves is reported in ``Installed.unresolved``
and skipped: its layer reads ``null`` in the report, and the end-to-end
numbers are unaffected.  To add a seam, add one :class:`Seam` line below;
nothing else needs to change.

Both runtimes are single-threaded, so one span stack is enough.
Coroutine functions are never wrapped (a span around ``await`` would
count other tasks' work); only the synchronous calls inside them are.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple


@dataclass(frozen=True)
class Seam:
    """One traced callable: ``module:owner.attr`` (owner empty for functions)."""

    layer: str
    module: str
    owner: str
    attr: str
    #: Where a transaction id can be read from the call's arguments:
    #: ("arg", i) — positional argument i is the id itself;
    #: ("envelope", i) — positional argument i is an Envelope whose
    #: payload carries ``.txn``.  None records no id.
    txn_from: Optional[Tuple[str, int]] = None
    #: Called as ``hook(tracer, args, result)`` after the seam returns:
    #: counts made where the work happens (denied locks, bytes encoded,
    #: bytes checkpointed).
    hook: Optional[Callable[["Tracer", tuple, Any], None]] = None

    @property
    def name(self) -> str:
        target = f"{self.owner}.{self.attr}" if self.owner else self.attr
        return f"{self.module}:{target}"


class Tracer:
    """In-memory spans, one column per field, plus the hooks' tallies."""

    def __init__(self) -> None:
        self.seam = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.txn = array("i")
        self.txn_ids: Dict[str, int] = {}
        self.stack: List[int] = [-1]
        self.tallies: Dict[str, float] = {}
        self.on = False
        #: The runtime's checkpoint count when the hook last looked.
        self.checkpoints_seen = 0

    def reset(self) -> None:
        """Drop recorded spans and tallies (between traced segments)."""
        for column in (self.seam, self.parent, self.start, self.end, self.txn):
            del column[:]
        self.txn_ids.clear()
        self.stack[:] = [-1]
        self.tallies.clear()
        self.checkpoints_seen = 0

    def tally(self, key: str, amount: float = 1.0) -> None:
        self.tallies[key] = self.tallies.get(key, 0.0) + amount


def _hook_lock(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.tally("lock_attempts")
    if result is False:
        tracer.tally("lock_denied")


def _hook_wire_bytes(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.tally("wire_bytes", len(result))


def _hook_fanout(tracer: Tracer, args: tuple, result: Any) -> None:
    alternatives = len(result.alternatives)
    if alternatives > 1:
        tracer.tally("poly_executions")
        tracer.tally("poly_alternatives", alternatives)


def _hook_checkpoint(tracer: Tracer, args: tuple, result: Any) -> None:
    # checkpoint() returns early for volatile runtimes and down sites;
    # only a call that bumped the runtime's own counter wrote a file.
    runtime, site = args[0], args[1]
    written = runtime.stats.checkpoints
    if written == tracer.checkpoints_seen:
        return
    tracer.checkpoints_seen = written
    tracer.tally("checkpoint_writes")
    try:
        size = os.path.getsize(site_file(runtime.data_dir, site))
    except OSError:
        return
    tracer.tally("checkpoint_bytes", size)


SEAMS: Tuple[Seam, ...] = (
    Seam("core.conditions", "repro.core.conditions", "Condition", "__and__"),
    Seam("core.conditions", "repro.core.conditions", "Condition", "__or__"),
    Seam("core.conditions", "repro.core.conditions", "Condition", "__invert__"),
    Seam("core.conditions", "repro.core.conditions", "Condition", "substitute"),
    Seam("core.polyvalue", "repro.core.polyvalue", "Polyvalue", "in_doubt", ("arg", 0)),
    Seam("core.polyvalue", "repro.core.polyvalue", "Polyvalue", "reduce"),
    Seam("core.polyvalue", "repro.core.polyvalue", "", "combine"),
    Seam("core.polyvalue", "repro.core.polyvalue", "", "simplify"),
    Seam("core.polytransaction", "repro.core.polytransaction", "", "execute", hook=_hook_fanout),
    Seam("core.outcome", "repro.core.outcome", "OutcomeTable", "record_dependencies"),
    Seam("core.outcome", "repro.core.outcome", "OutcomeTable", "resolve", ("arg", 1)),
    Seam("core.outcome", "repro.core.outcome", "OutcomeLog", "decide", ("arg", 1)),
    Seam("core.outcome", "repro.core.outcome", "OutcomeLog", "acknowledge", ("arg", 1)),
    Seam("core.serialize", "repro.core.serialize", "", "encode_state"),
    Seam("db.store", "repro.db.store", "ItemStore", "read"),
    Seam("db.store", "repro.db.store", "ItemStore", "write"),
    Seam("db.store", "repro.db.store", "ItemStore", "all_values"),
    Seam("db.locks", "repro.db.locks", "LockManager", "try_acquire", ("arg", 1), _hook_lock),
    Seam("db.locks", "repro.db.locks", "LockManager", "release_all", ("arg", 1)),
    Seam("txn.site", "repro.txn.site", "DatabaseSite", "submit"),
    Seam("txn.site", "repro.txn.site", "DatabaseSite", "on_message", ("envelope", 1)),
    Seam("txn.paxos", "repro.txn.paxos", "PaxosSite", "submit"),
    Seam("txn.paxos", "repro.txn.paxos", "PaxosSite", "on_message", ("envelope", 1)),
    Seam("runtime.sim", "repro.runtime.sim", "SimRuntime", "send"),
    Seam("runtime.sim", "repro.runtime.sim", "SimRuntime", "schedule"),
    Seam("net.network", "repro.net.network", "Network", "send"),
    # The delivery callback Network.send schedules.
    Seam("net.network", "repro.net.network", "Network", "_deliver_batch"),
    Seam("sim.engine", "repro.sim.engine", "Simulator", "step"),
    Seam("sim.engine", "repro.sim.engine", "Simulator", "schedule_at"),
    Seam("live.txnscript", "repro.live.txnscript", "", "compile_script"),
    Seam("live.wire", "repro.live.wire", "", "encode_envelope", ("envelope", 0), _hook_wire_bytes),
    Seam("live.wire", "repro.live.wire", "", "decode_envelope"),
    Seam("runtime.aio", "repro.runtime.aio", "AsyncioRuntime", "send"),
    Seam("runtime.aio", "repro.runtime.aio", "AsyncioRuntime", "schedule"),
    # The action a scheduled timer fires, and inbound handler dispatch.
    Seam("runtime.aio", "repro.runtime.aio", "AsyncioRuntime", "_fire_timer"),
    Seam("runtime.aio", "repro.runtime.aio", "AsyncioRuntime", "_dispatch"),
    Seam("runtime.aio.checkpoint", "repro.runtime.aio", "AsyncioRuntime", "checkpoint", hook=_hook_checkpoint),
    # A forced write inside a checkpoint would show up here (none today:
    # the flush policy is write-then-rename without fsync).
    Seam("runtime.aio.checkpoint", "os", "", "fsync"),
    # LiveCluster.wait_decided is a coroutine and is not wrapped; its cost
    # is the driver's live.cluster.notify_lag_p50_ms.
    Seam("live.cluster", "repro.live.cluster", "LiveCluster", "submit_script"),
    Seam("live.cluster", "repro.live.cluster", "LiveCluster", "crash"),
    Seam("live.cluster", "repro.live.cluster", "LiveCluster", "restart"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(seam.layer for seam in SEAMS))


def _wrap(fn: Callable, seam_id: int, seam: Seam, tracer: Tracer) -> Callable:
    seams, parents, starts, ends, txns = (
        tracer.seam, tracer.parent, tracer.start, tracer.end, tracer.txn,
    )
    stack, txn_ids = tracer.stack, tracer.txn_ids
    hook = seam.hook
    kind, position = seam.txn_from or ("", 0)

    def traced(*args: Any, **kwargs: Any) -> Any:
        if not tracer.on:
            return fn(*args, **kwargs)
        txn = -1
        if kind and len(args) > position:
            subject = args[position]
            if kind == "envelope":
                subject = getattr(getattr(subject, "payload", None), "txn", None)
            if isinstance(subject, str):
                txn = txn_ids.setdefault(subject, len(txn_ids))
        index = len(seams)
        seams.append(seam_id)
        parents.append(stack[-1])
        txns.append(txn)
        ends.append(0.0)
        stack.append(index)
        starts.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[index] = perf_counter()
            stack.pop()
        if hook is not None:
            hook(tracer, args, result)
        return result

    traced.__wrapped__ = fn  # type: ignore[attr-defined]
    traced.__name__ = getattr(fn, "__name__", seam.attr)
    return traced


@dataclass
class Installed:
    """What :func:`install` changed, so :func:`uninstall` can undo it."""

    tracer: Tracer
    patches: List[Tuple[Any, str, Any]] = field(default_factory=list)
    unresolved: List[str] = field(default_factory=list)


def _resolve(seam: Seam) -> Optional[Tuple[Any, Any]]:
    """(owner object, raw attribute as stored in its ``__dict__``) or None."""
    try:
        owner: Any = importlib.import_module(seam.module)
        if seam.owner:
            owner = getattr(owner, seam.owner)
        raw = vars(owner)[seam.attr]
    except (ImportError, AttributeError, KeyError):
        return None
    target = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
    if not callable(target) or inspect.iscoroutinefunction(target):
        return None
    return owner, raw


def install(tracer: Tracer) -> Installed:
    """Wrap every resolvable seam.  Call before building the cluster."""
    installed = Installed(tracer=tracer)
    for seam_id, seam in enumerate(SEAMS):
        resolved = _resolve(seam)
        if resolved is None:
            installed.unresolved.append(seam.name)
            continue
        owner, raw = resolved
        if isinstance(raw, staticmethod):
            wrapper: Any = staticmethod(_wrap(raw.__func__, seam_id, seam, tracer))
        elif isinstance(raw, classmethod):
            wrapper = classmethod(_wrap(raw.__func__, seam_id, seam, tracer))
        else:
            wrapper = _wrap(raw, seam_id, seam, tracer)
        installed.patches.append((owner, seam.attr, raw))
        setattr(owner, seam.attr, wrapper)
        if not seam.owner:
            # Modules that did ``from x import f`` hold their own reference.
            for name, module in list(sys.modules.items()):
                if module is owner or not name.startswith("repro."):
                    continue
                if vars(module).get(seam.attr) is raw:
                    installed.patches.append((module, seam.attr, raw))
                    setattr(module, seam.attr, wrapper)
    return installed


def uninstall(installed: Installed) -> None:
    installed.tracer.on = False
    for owner, attr, raw in reversed(installed.patches):
        setattr(owner, attr, raw)
    installed.patches.clear()


def summarize(tracer: Tracer, wall: float, unresolved: List[str]) -> Dict[str, Any]:
    """Per-layer calls and self time from the recorded spans.

    A span's self time is its duration minus the durations of its direct
    children; summed over a layer's spans that is the layer's total time
    minus the total time of every span whose parent is in the layer.
    """
    seam_layer = [LAYERS.index(seam.layer) for seam in SEAMS]
    calls = [0] * len(LAYERS)
    total = [0.0] * len(LAYERS)
    children = [0.0] * len(LAYERS)
    seam_calls = [0] * len(SEAMS)
    seams, parents, starts, ends = tracer.seam, tracer.parent, tracer.start, tracer.end
    for index in range(len(seams)):
        seam_id = seams[index]
        layer = seam_layer[seam_id]
        duration = ends[index] - starts[index]
        calls[layer] += 1
        seam_calls[seam_id] += 1
        total[layer] += duration
        parent = parents[index]
        if parent >= 0:
            children[seam_layer[seams[parent]]] += duration
    resolved_layers = {seam.layer for seam in SEAMS if seam.name not in unresolved}
    layers: Dict[str, Any] = {}
    traced = 0.0
    for index, layer in enumerate(LAYERS):
        if layer not in resolved_layers:
            layers[layer] = None
            continue
        self_time = total[index] - children[index]
        traced += self_time
        layers[layer] = {"calls": calls[index], "self_s": self_time}
    return {
        "layers": layers,
        "seam_calls": {
            seam.name: seam_calls[index] for index, seam in enumerate(SEAMS)
        },
        "spans": len(seams),
        "wall_s": wall,
        "untraced_share": max(0.0, wall - traced) / wall if wall > 0 else 0.0,
        "tallies": dict(tracer.tallies),
        "unresolved": list(unresolved),
    }


def trace_document(tracer: Tracer, workload: str, epoch: float) -> Dict[str, Any]:
    """The spans in columnar form (one list per field), for the trace file."""
    txn_names = [""] * len(tracer.txn_ids)
    for name, index in tracer.txn_ids.items():
        txn_names[index] = name
    return {
        "workload": workload,
        "seams": [seam.name for seam in SEAMS],
        "layers": [seam.layer for seam in SEAMS],
        "txns": txn_names,
        "columns": {
            "seam": tracer.seam.tolist(),
            "parent": tracer.parent.tolist(),
            "txn": tracer.txn.tolist(),
            "start_us": [round((value - epoch) * 1e6, 1) for value in tracer.start],
            "end_us": [round((value - epoch) * 1e6, 1) for value in tracer.end],
        },
    }


# ----------------------------------------------------------------------
# Counters read from the program's public stats objects.  Every reach is
# guarded: a missing attribute yields None for that counter only.
# ----------------------------------------------------------------------


def _reach(root: Any, path: str) -> Any:
    value = root
    for part in path.split("."):
        value = getattr(value, part, None)
        if value is None:
            return None
    return value() if callable(value) else value


def sim_counters(system: Any) -> Dict[str, Optional[float]]:
    """Network, engine and metrics-collector counts of a DistributedSystem."""
    return {
        "msgs_sent": _reach(system, "network.stats.sent"),
        "msgs_dropped": _reach(system, "network.stats.dropped"),
        "events": _reach(system, "sim.events_processed"),
        "polyvalues_installed": _reach(system, "metrics.polyvalues_installed"),
        "lock_conflict_aborts": _reach(system, "metrics.lock_conflict_aborts"),
        "outcome_residual": _reach(system, "outcome_bookkeeping_size"),
    }


def live_counters(cluster: Any) -> Dict[str, Optional[float]]:
    """Transport counts of a LiveCluster plus its outcome-table residue."""
    transport: Mapping[str, Any] = {}
    try:
        transport = cluster.describe()["transport"]
    except (AttributeError, KeyError, TypeError):
        pass
    residual: Optional[int] = 0
    try:
        for site in cluster.sites.values():
            residual += len(site.runtime.outcomes)
    except (AttributeError, TypeError):
        residual = None
    return {
        "msgs_sent": transport.get("sent"),
        "msgs_dropped": transport.get("dropped"),
        "reconnects": transport.get("reconnects"),
        "checkpoints": transport.get("checkpoints"),
        "handler_errors": transport.get("handler_errors"),
        "polyvalues_installed": _reach(cluster, "metrics.polyvalues_installed"),
        "outcome_residual": residual,
    }


def site_file(data_dir: str, site: str) -> str:
    """Where AsyncioRuntime.checkpoint writes *site*'s durable snapshot."""
    return os.path.join(data_dir, f"site-{site}.json")


def site_file_values(data_dir: str, site: str) -> Optional[Dict[str, Any]]:
    """The encoded item values stored in *site*'s checkpoint (None if absent)."""
    try:
        with open(site_file(data_dir, site), "r", encoding="utf-8") as handle:
            return json.load(handle).get("values")
    except (OSError, ValueError, AttributeError):
        return None
