"""Whole-system snapshots: persist and restore a database mid-uncertainty.

A database using polyvalues must be able to checkpoint *while failures
are outstanding* — polyvalues are first-class state, not an in-memory
anomaly.  A whole-system snapshot is the data placement (item → site)
plus every site's :meth:`~repro.txn.site.DatabaseSite.durable_snapshot`
— the same per-site state a crashed site restarts from, so there is no
second definition of "durable" here: item values (polyvalues included),
outcome logs and caches, outcome-table forwarding lists, staged updates,
coordinator sequences and Paxos acceptor/registrar records all travel.

Restoring builds a fresh system on the same site topology (transaction
identifiers embed coordinator site names) and restarts every site from
its snapshot — exactly as if the whole cluster had crashed and
recovered, which is what a restore is.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.core.errors import ReproError
from repro.core.serialize import decode_state
from repro.db.catalog import Catalog
from repro.txn.config import ProtocolConfig
from repro.txn.system import DistributedSystem

#: 2: per-site ``durable_snapshot()`` payloads (1 was a private subset).
SNAPSHOT_VERSION = 2


def export_snapshot(system: DistributedSystem) -> Dict[str, Any]:
    """Capture *system*'s durable state as a JSON-compatible dict."""
    return {
        "version": SNAPSHOT_VERSION,
        "placement": {
            item: site_id
            for site_id in system.sites
            for item in system.catalog.items_at(site_id)
        },
        "sites": {
            site_id: site.durable_snapshot()
            for site_id, site in system.sites.items()
        },
    }


def import_snapshot(
    snapshot: Mapping[str, Any],
    *,
    seed: int = 0,
    config: Optional[ProtocolConfig] = None,
    **network_kwargs,
) -> DistributedSystem:
    """Build a fresh system from :func:`export_snapshot` output.

    *config* must name the protocol the snapshot was taken under.  The
    restored system resumes outcome resolution on its own: every site
    runs its ordinary crash recovery over the restored state.
    """
    if snapshot.get("version") != SNAPSHOT_VERSION:
        raise ReproError(
            f"unsupported snapshot version {snapshot.get('version')!r}"
        )
    try:
        placement = dict(snapshot["placement"])
        sites = snapshot["sites"]
    except KeyError as error:
        raise ReproError(f"snapshot missing section {error}") from error
    values: Dict[str, Any] = {}
    for site_snapshot in sites.values():
        values.update(decode_state(site_snapshot["values"]))
    system = DistributedSystem(
        catalog=Catalog.from_mapping(placement),
        initial_values=values,
        seed=seed,
        config=config,
        **network_kwargs,
    )
    for site_id, site in system.sites.items():
        site.restore_durable(sites[site_id])
        site.recover()
    return system
