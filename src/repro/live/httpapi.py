"""The HTTP/JSON control surface of a :class:`LiveCluster`.

``python -m repro serve`` stands up a cluster and binds this API; any
HTTP client (curl, the bundled ``python -m repro client``) can then
submit transactions, read items, query outcomes, crash/restart sites,
scrape metrics and follow the event stream.  It runs on the package's
one HTTP server (:mod:`repro.obs.httpd`), on the same event loop as the
cluster itself, so every request observes and mutates the cluster
without locks.

Routes (JSON unless noted)::

    GET  /health            liveness probe: {"ok": true, ...}
    GET  /state             full cluster summary (sites, ports, pending)
    GET  /item/<id>         one item's value (polyvalues in wire form)
    GET  /txn/<id>          one transaction's outcome
    GET  /metrics           the cluster's metrics registry, Prometheus
                            text format 0.0.4
    GET  /events            server-sent events: a dash.hello frame with
                            /state, then one frame per bus event
    POST /txn               submit a transaction script
                            body: {"script": {...}, "at"?: site,
                                   "wait"?: bool, "timeout"?: seconds}
    POST /crash             {"site": "site-0"} — fail-stop a site
    POST /restart           {"site": "site-0"} — restart from checkpoint

The event stream is subscribed to ``cluster.bus`` only while a client
is connected, so a cluster nobody watches builds no events.  Malformed
input is 400, unknown items/transactions/routes are 404; error bodies
are ``{"error": "..."}``.
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, Dict, Optional

from repro.core.errors import UnknownItemError
from repro.live.txnscript import TransactionScriptError
from repro.obs.export import prometheus_text
from repro.obs.httpd import HttpError, HttpServer, Reply, json_reply

#: The Prometheus text exposition content type.
PROMETHEUS = "text/plain; version=0.0.4"


class HttpApi(HttpServer):
    """Serve the cluster control API on *host*:*port* (0 = ephemeral)."""

    def __init__(self, cluster: Any, *, host: str = "127.0.0.1", port: int = 0):
        super().__init__(host=host, port=port)
        self.cluster = cluster
        self.broker.follow(cluster.bus)

    async def route(
        self, method: str, path: str, body: Optional[Dict[str, Any]]
    ) -> Reply:
        if method == "GET":
            if path == "/health":
                return json_reply({
                    "ok": True,
                    "protocol": self.cluster.protocol,
                    "sites": len(self.cluster.sites),
                    "down": self.cluster.down_sites(),
                })
            if path == "/state":
                return json_reply(self.cluster.describe())
            if path == "/metrics":
                text = prometheus_text(self.cluster.metrics.registry)
                return Reply(200, text.encode("utf-8"), PROMETHEUS)
            if path == "/events":
                return self.broker.reply(self.cluster.describe())
            if path.startswith("/item/"):
                item = path[len("/item/") :]
                try:
                    return json_reply(self.cluster.describe_item(item))
                except UnknownItemError as exc:
                    raise HttpError(404, str(exc)) from None
            if path.startswith("/txn/"):
                txn = path[len("/txn/") :]
                described = self.cluster.describe_txn(txn)
                if described is None:
                    raise HttpError(404, f"unknown transaction {txn!r}")
                return json_reply(described)
        elif method == "POST":
            if path == "/txn":
                return await self._post_txn(body or {})
            if path == "/crash":
                site = self._required_site(body)
                self.cluster.crash(site)
                return json_reply({"site": site, "up": False})
            if path == "/restart":
                site = self._required_site(body)
                self.cluster.restart(site)
                return json_reply({"site": site, "up": True})
        else:
            raise HttpError(405, f"unsupported method {method}")
        return await super().route(method, path, body)

    async def _post_txn(self, body: Dict[str, Any]) -> Reply:
        # Every argument is checked before the transaction is submitted:
        # a rejected request must not have run it.
        script = body.get("script")
        if script is None:
            raise HttpError(400, 'POST /txn needs a "script" object')
        at = body.get("at")
        if at is not None and not isinstance(at, str):
            raise HttpError(400, '"at" must be a site id string')
        wait = body.get("wait", False)
        if not isinstance(wait, bool):
            raise HttpError(400, '"wait" must be true or false')
        timeout = body.get("timeout", 10.0)
        if (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or not math.isfinite(timeout)
            or timeout < 0
        ):
            raise HttpError(400, '"timeout" must be a finite number >= 0')
        try:
            handle = self.cluster.submit_script(script, at=at)
        except (TransactionScriptError, UnknownItemError) as exc:
            raise HttpError(400, str(exc)) from None
        decided = True
        if wait:
            decided = await self.cluster.wait_decided(handle, timeout=timeout)
        described = self.cluster.describe_txn(handle.txn) or {
            "txn": handle.txn,
            "status": handle.status.value,
        }
        described["decided"] = decided and handle.decided_at is not None
        return json_reply(described)

    def _required_site(self, body: Optional[Dict[str, Any]]) -> str:
        site = (body or {}).get("site")
        if not isinstance(site, str):
            raise HttpError(400, 'request needs a "site" string')
        if site not in self.cluster.sites:
            raise HttpError(404, f"unknown site {site!r}")
        return site


def run_serve(
    *,
    sites: int = 3,
    protocol: str = "polyvalue",
    seed: int = 0,
    host: str = "127.0.0.1",
    port: int = 8790,
    data_dir: Optional[str] = None,
    announce: bool = True,
) -> None:
    """Blocking entry point behind ``python -m repro serve``."""
    from repro.live.cluster import LiveCluster

    async def _main() -> None:
        cluster = LiveCluster(
            sites=sites,
            protocol=protocol,
            seed=seed,
            host=host,
            data_dir=data_dir,
        )
        await cluster.start()
        api = HttpApi(cluster, host=host, port=port)
        bound = await api.start()
        if announce:
            print(f"repro live cluster: protocol={protocol} sites={sites}")
            for site_id in sorted(cluster.sites):
                print(f"  {site_id}: 127.0.0.1:{cluster.runtime.port_of(site_id)}")
            print(f"  http api: http://{host}:{bound}", flush=True)
        try:
            await asyncio.Event().wait()
        finally:
            await api.close()
            await cluster.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
