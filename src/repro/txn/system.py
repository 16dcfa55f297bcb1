"""The top-level facade: a whole simulated distributed database.

:class:`DistributedSystem` is the simulator front-end of
:class:`~repro.txn.cluster.Cluster`: it assembles the simulation engine
and the network, hands them to the shared composition root as a
:class:`~repro.runtime.sim.SimRuntime`, and adds the verbs that drive
simulated time.  The client-level API the examples and benchmarks use:

>>> from repro.txn.transaction import Transaction
>>> system = DistributedSystem.build(
...     sites=3, items={"a": 10, "b": 20}, seed=42)
>>> handle = system.submit(Transaction(
...     body=lambda ctx: ctx.write("a", ctx.read("a") + 1), items=("a",)))
>>> system.run_for(1.0)
>>> handle.status
<TxnStatus.COMMITTED: 'committed'>

The facade also implements the :class:`~repro.net.failures.Crashable`
interface so the failure injectors can drive it.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.errors import ProtocolError
from repro.core.polyvalue import Value
from repro.db.catalog import Catalog
from repro.net.message import SiteId
from repro.net.network import Network
from repro.obs.events import EventBus
from repro.runtime.sim import SimRuntime
from repro.sim.engine import Simulator
from repro.sim.rand import Rng
from repro.txn.cluster import Cluster
from repro.txn.config import ProtocolConfig

ItemId = str


class DistributedSystem(Cluster):
    """A complete simulated distributed database.

    Use :meth:`build` for the common case (items spread round-robin over
    ``site-0 .. site-N``); the constructor accepts an explicit
    :class:`~repro.db.catalog.Catalog` for custom placements.
    Everything that is not simulated-time driving — ``submit``,
    crash/recovery, the observations, ``converged`` — is inherited from
    :class:`~repro.txn.cluster.Cluster`.
    """

    def __init__(
        self,
        *,
        catalog: Catalog,
        initial_values: Mapping[ItemId, Value],
        seed: int = 0,
        config: Optional[ProtocolConfig] = None,
        base_latency: float = 0.01,
        jitter: float = 0.005,
        loss_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        corruption_probability: float = 0.0,
    ) -> None:
        self.sim = Simulator()
        self.rng = Rng(seed)
        bus = EventBus()
        self.sim.bus = bus
        self.network = Network(
            self.sim,
            self.rng.fork("network"),
            base_latency=base_latency,
            jitter=jitter,
            loss_probability=loss_probability,
            duplicate_probability=duplicate_probability,
            corruption_probability=corruption_probability,
            bus=bus,
        )
        # The facade keeps direct `sim`/`network` access: it is the
        # simulator front-end, not a protocol state machine.
        super().__init__(
            SimRuntime(self.sim, self.network, rng=self.rng),
            catalog=catalog,
            initial_values=initial_values,
            config=config or ProtocolConfig(),
            bus=bus,
        )
        self._wire_sites()

    @staticmethod
    def build(
        *,
        sites: int,
        items: Mapping[ItemId, Value],
        seed: int = 0,
        config: Optional[ProtocolConfig] = None,
        base_latency: float = 0.01,
        jitter: float = 0.005,
        loss_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        corruption_probability: float = 0.0,
    ) -> "DistributedSystem":
        """Build a system with *items* spread round-robin over *sites* sites."""
        if sites <= 0:
            raise ProtocolError(f"need at least one site, got {sites}")
        site_ids = [f"site-{index}" for index in range(sites)]
        catalog = Catalog.round_robin(sorted(items), site_ids)
        return DistributedSystem(
            catalog=catalog,
            initial_values=items,
            seed=seed,
            config=config,
            base_latency=base_latency,
            jitter=jitter,
            loss_probability=loss_probability,
            duplicate_probability=duplicate_probability,
            corruption_probability=corruption_probability,
        )

    # ------------------------------------------------------------------
    # Simulation control
    # ------------------------------------------------------------------

    def run_for(self, seconds: float) -> None:
        """Advance simulated time by *seconds*."""
        self.sim.run_until(self.sim.now + seconds)

    def run_until(self, time: float) -> None:
        """Advance simulated time to absolute *time*."""
        self.sim.run_until(time)

    def run_to_quiescence(self, *, max_time: Optional[float] = None) -> bool:
        """Advance until :meth:`quiescent` (or absolute *max_time*).

        Returns True when quiescence was reached.  Maintenance events
        that come due still fire (they are part of normal behaviour).
        """
        return self.sim.run_until_quiescent(max_time=max_time)

    def settle(self, *, max_time: float, step: float = 1.0) -> bool:
        """Run maintenance rounds until the database :meth:`converged`.

        Returns True when convergence was reached before absolute
        *max_time*; the caller is responsible for having recovered all
        sites and healed all partitions first.
        """
        while self.sim.now < max_time:
            if self.converged():
                return True
            self.run_for(min(step, max_time - self.sim.now))
        return self.converged()

    # ------------------------------------------------------------------
    # Gray failure injection (the simulated network's vocabulary)
    # ------------------------------------------------------------------

    def degrade_site(self, site: SiteId, factor: float) -> None:
        """Gray-degrade *site*: all its traffic slows by *factor*.

        The site keeps processing — this is the slow-but-alive failure
        mode, not an outage.
        """
        self.network.degrade_site(site, factor)
        if self.bus:
            self.bus.emit(
                "site.degrade", time=self.sim.now, site=site, factor=factor
            )

    def restore_site(self, site: SiteId) -> None:
        """Remove *site*'s gray degradation."""
        self.network.restore_site(site)
        if self.bus:
            self.bus.emit("site.restore", time=self.sim.now, site=site)
