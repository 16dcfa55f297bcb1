"""LiveCluster — N polyvalue database sites on wall-clock sockets.

The socket front-end of :class:`repro.txn.cluster.Cluster`: the same
site wiring, ``submit``, crash/recovery, observations and convergence
predicate as the simulator's
:class:`~repro.txn.system.DistributedSystem`, composed over an
:class:`~repro.runtime.aio.AsyncioRuntime`.  What this module adds is
what only wall-clock time needs: ``start``/``stop``, the polling
``wait_*`` verbs, JSON transaction scripts and ``describe*`` payloads
for the HTTP API, and :class:`ClusterThread` for synchronous callers.
Timers are real ``call_later`` timers, messages are JSON frames over
localhost TCP, and with a data directory each site checkpoints its
durable state to a JSON file after every action — so
:meth:`crash`/:meth:`restart` genuinely exercise restart-from-disk
(without one, the restart is from the snapshot taken at the crash).

Transactions arrive as JSON scripts (:mod:`repro.live.txnscript`)
because live clients cannot ship Python callables.

Path-sensitive commit stays sim-only: its apply log and routing queues
are not part of the durable snapshot, so a site could not come back from
its file.  ``LIVE_PROTOCOLS`` is the supported set.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Callable, Dict, Mapping, Optional

from repro.core.errors import ReproError
from repro.core.polyvalue import Value, is_polyvalue
from repro.core.serialize import encode_value
from repro.db.catalog import Catalog
from repro.net.message import SiteId
from repro.runtime.aio import AsyncioRuntime
from repro.txn.cluster import Cluster
from repro.txn.config import ProtocolConfig, config_for_protocol
from repro.txn.timeouts import TimeoutPolicy
from repro.txn.transaction import TransactionHandle, TxnId, TxnStatus
from repro.live.txnscript import compile_script

ItemId = str

#: Protocols the live cluster can run (pathsensitive is sim-only).
LIVE_PROTOCOLS = ("polyvalue", "blocking", "relaxed", "paxos")


class LiveClusterError(ReproError):
    """The live cluster was misconfigured or misused."""


def _default_items(sites: int) -> Dict[ItemId, int]:
    """Two account items per site, value 100 — enough for transfers."""
    return {f"acct-{index}": 100 for index in range(sites * 2)}


class LiveCluster(Cluster):
    """A wall-clock polyvalue cluster on localhost.

    Drive it from inside an asyncio event loop (``await start()`` …
    ``await stop()``), or through :class:`ClusterThread` from
    synchronous code.
    """

    def __init__(
        self,
        *,
        sites: int = 3,
        items: Optional[Mapping[ItemId, Value]] = None,
        protocol: str = "polyvalue",
        config: Optional[ProtocolConfig] = None,
        seed: int = 0,
        host: str = "127.0.0.1",
        data_dir: Optional[str] = None,
    ) -> None:
        if sites <= 0:
            raise LiveClusterError(f"need at least one site, got {sites}")
        if protocol not in LIVE_PROTOCOLS:
            raise LiveClusterError(
                f"protocol {protocol!r} is not live-capable; "
                f"expected one of {LIVE_PROTOCOLS}"
            )
        if config is None:
            # Live default: adaptive patience — the fixed constants are
            # sim-calibrated; real sockets get Jacobson RTT estimators.
            config = ProtocolConfig(timeout_policy=TimeoutPolicy(mode="adaptive"))
        if items is None:
            items = _default_items(sites)
        site_ids = [f"site-{index}" for index in range(sites)]
        super().__init__(
            AsyncioRuntime(host=host, data_dir=data_dir, seed=seed),
            catalog=Catalog.round_robin(sorted(items), site_ids),
            initial_values=items,
            config=config_for_protocol(protocol, config),
        )
        self.protocol = protocol
        self._by_txn: Dict[TxnId, TransactionHandle] = {}

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> None:
        """Listen on every site's socket and build the state machines.

        If the data directory already holds site checkpoints (a
        previous incarnation of this cluster), each site restores from
        its file before serving — restart-the-whole-cluster recovery.
        A site file that cannot be restored stops the boot.
        """
        await self.runtime.start()
        for site_id in sorted(self.catalog.all_sites()):
            await self.runtime.listen(site_id)
        try:
            self._wire_sites()
        except Exception:
            await self.stop()
            raise

    async def stop(self) -> None:
        """Stop maintenance loops and close every socket."""
        for site in self.sites.values():
            site.shutdown()
        await self.runtime.close()

    # ------------------------------------------------------------------
    # Client surface

    def submit_script(
        self, script: Mapping[str, Any], *, at: Optional[SiteId] = None
    ) -> TransactionHandle:
        """Submit a JSON transaction script; returns its handle."""
        if not self.sites:
            raise LiveClusterError("cluster is not started")
        if at is not None:
            self._known(at)
        handle = self.submit(compile_script(script), at=at)
        self._by_txn[handle.txn] = handle
        return handle

    async def wait_decided(
        self, handle: TransactionHandle, *, timeout: float = 10.0
    ) -> bool:
        """Poll until *handle* is decided; False on timeout."""
        return await self._poll(
            lambda: handle.status is not TxnStatus.PENDING, timeout, 0.005
        )

    async def wait_converged(self, *, timeout: float = 10.0) -> bool:
        """Poll until the cluster has :meth:`converged`; False on timeout."""
        return await self._poll(self.converged, timeout, 0.02)

    async def _poll(
        self, done: Callable[[], bool], timeout: float, ceiling: float
    ) -> bool:
        """Re-check *done* until it holds or *timeout* passes.

        The first re-checks only yield to the loop, so a condition a few
        callbacks away costs no fixed sleep; after that the interval
        doubles from 0.5 ms up to *ceiling*.
        """
        deadline = self.runtime.now + timeout
        yields, delay = 8, 0.0005
        while not done():
            if self.runtime.now >= deadline:
                return False
            if yields:
                yields -= 1
                await asyncio.sleep(0)
            else:
                await asyncio.sleep(delay)
                delay = min(ceiling, delay * 2)
        return True

    # ------------------------------------------------------------------
    # Failure injection

    def crash(self, site_id: SiteId) -> None:
        """Fail-stop *site_id* (see :meth:`Cluster.crash_site`)."""
        self.crash_site(self._known(site_id))

    def restart(self, site_id: SiteId) -> None:
        """Restart *site_id* from its durable snapshot (see
        :meth:`Cluster.recover_site`)."""
        self.recover_site(self._known(site_id))

    def _known(self, site_id: SiteId) -> SiteId:
        if site_id not in self.sites:
            raise LiveClusterError(f"unknown site {site_id!r}")
        return site_id

    # ------------------------------------------------------------------
    # JSON views (the HTTP API's payloads)

    def describe(self) -> Dict[str, Any]:
        """A JSON-safe status summary (the HTTP ``/state`` payload)."""
        return {
            "protocol": self.protocol,
            "sites": {
                site_id: {
                    "up": site.is_up,
                    "port": self.runtime.port_of(site_id),
                    "items": sorted(site.store.items()),
                    "polyvalues": site.polyvalue_count(),
                    "residue": site.protocol_residue(),
                }
                for site_id, site in sorted(self.sites.items())
            },
            "polyvalues": self.total_polyvalues(),
            "pending": [handle.txn for handle in self.pending_handles()],
            "transport": self.runtime.stats.as_dict(),
        }

    def describe_item(self, item: ItemId) -> Dict[str, Any]:
        """One item's value, JSON-encoded (polyvalues in wire form)."""
        value = self.read_item(item)
        return {
            "item": item,
            "site": self.catalog.site_of(item),
            "value": encode_value(value),
            "polyvalue": is_polyvalue(value),
        }

    def describe_txn(self, txn: TxnId) -> Optional[Dict[str, Any]]:
        """One transaction's client-visible outcome (None if unknown)."""
        handle = self._by_txn.get(txn)
        if handle is None:
            return None
        return {
            "txn": handle.txn,
            "status": handle.status.value,
            "label": handle.transaction.label,
            "reason": handle.abort_reason,
            "submitted_at": handle.submitted_at,
            "decided_at": handle.decided_at,
        }


class ClusterThread:
    """A LiveCluster (plus optional HTTP API) on a background thread.

    For synchronous callers — tests and the differential harness — that
    want a live cluster without owning an event loop::

        with ClusterThread(sites=3) as ct:
            handle = ct.call(ct.cluster.submit_script, script)
            ct.run(ct.cluster.wait_decided(handle))

    ``call`` runs a plain function on the loop thread; ``run`` awaits a
    coroutine there.  Everything that touches the cluster must go
    through one of the two — the cluster is not thread-safe.
    """

    def __init__(
        self,
        *,
        http: bool = False,
        host: str = "127.0.0.1",
        port: int = 0,
        **cluster_kwargs: Any,
    ) -> None:
        self._http = http
        self._host = host
        self._port_request = port
        self._cluster_kwargs = cluster_kwargs
        self.cluster: Optional[LiveCluster] = None
        self.port: Optional[int] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._thread_main, daemon=True)

    def start(self) -> "ClusterThread":
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise LiveClusterError("cluster thread failed to start in time")
        if self._error is not None:
            raise LiveClusterError(f"cluster thread died: {self._error!r}")
        return self

    def stop(self) -> None:
        if self.loop is not None and self._stop is not None:
            self.loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30.0)

    def call(self, fn, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` on the loop thread, return result."""

        async def _invoke() -> Any:
            return fn(*args, **kwargs)

        return self.run(_invoke())

    def run(self, coro) -> Any:
        """Await *coro* on the loop thread, return its result."""
        if self.loop is None:
            raise LiveClusterError("cluster thread is not running")
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(
            timeout=60.0
        )

    def __enter__(self) -> "ClusterThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced to caller
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self.loop = asyncio.get_event_loop()
        self._stop = asyncio.Event()
        self.cluster = LiveCluster(**self._cluster_kwargs)
        await self.cluster.start()
        api = None
        if self._http:
            from repro.live.httpapi import HttpApi

            api = HttpApi(self.cluster, host=self._host, port=self._port_request)
            self.port = await api.start()
        self._ready.set()
        await self._stop.wait()
        if api is not None:
            await api.close()
        await self.cluster.stop()
