"""Random update workloads for a full cluster, on either runtime.

This reproduces the section 4.2 workload shape on the *real* system
(network, 2PC, polyvalue installation) rather than the abstract tag-set
model: transactions arrive in a Poisson stream at rate U; each updates
one uniformly chosen item with a value computed from ``d`` dependency
items (``d`` exponential with mean D) and, with probability ``1-Y``,
the item's previous value.  Arrivals are timers on the cluster's own
``Runtime``, so the same generator drives the simulator and a socket
cluster.

Item selection can be skewed (``hot_fraction``/``hot_weight``) to model
the paper's remark that non-uniform access "has the effect of reducing
the effective size of the database".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.errors import SimulationError
from repro.sim.rand import Rng
from repro.txn.cluster import Cluster
from repro.txn.transaction import Transaction, TransactionHandle

ItemId = str


def make_item_ids(count: int, prefix: str = "item") -> List[ItemId]:
    """Zero-padded item identifiers: ``item-0000`` ... (stable sort order)."""
    width = max(4, len(str(count - 1)))
    return [f"{prefix}-{index:0{width}d}" for index in range(count)]


def make_update_transaction(
    target: ItemId,
    dependencies: Sequence[ItemId],
    *,
    include_previous: bool,
    salt: int,
    label: str = "",
) -> Transaction:
    """A deterministic random-update transaction.

    The new value is an integer mix of the dependency values (and the
    previous value when *include_previous*), so uncertainty in any input
    genuinely propagates to the output — matching the analysis's ``D``
    and ``Y`` semantics on the real datapath.
    """
    dependency_list = tuple(dict.fromkeys(dependencies))
    declared = tuple(
        dict.fromkeys((target,) + dependency_list)
    )

    def body(ctx):
        mixed = salt
        for item in dependency_list:
            mixed = (mixed * 31 + int(ctx.read(item))) % 1_000_000_007
        if include_previous:
            mixed = (mixed * 31 + int(ctx.read(target))) % 1_000_000_007
        ctx.write(target, mixed)

    return Transaction(body=body, items=declared, label=label or f"update:{target}")


class ArrivalProcess:
    """A Poisson arrival stream invoking an action (submit-one callbacks).

    Shared by the application workloads' ``stream``/``stop_stream``:
    arrivals are exponential with mean ``1/rate``, drawn from their own
    RNG stream so starting a stream does not perturb the workload's
    operation mix.
    """

    def __init__(self, sim, rate: float, action, rng: Rng) -> None:
        if rate <= 0:
            raise SimulationError(f"arrival rate must be positive, got {rate}")
        self._sim = sim
        self._rate = rate
        self._action = action
        self._rng = rng
        self._running = True
        self._schedule_next()

    def _schedule_next(self) -> None:
        delay = self._rng.exponential(1.0 / self._rate)
        self._sim.schedule(delay, self._fire, label="arrival")

    def _fire(self) -> None:
        if not self._running:
            return
        self._action()
        self._schedule_next()

    def stop(self) -> None:
        """Stop after the currently scheduled arrival."""
        self._running = False


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape parameters mirroring the paper's U, D, Y (F and R come from
    the failure injector, not the workload)."""

    update_rate: float  # U: transactions per simulated second
    dependency_mean: float = 1.0  # D
    update_independence: float = 0.0  # Y
    #: Optional hot-spot skew: this fraction of items receives
    #: ``hot_weight`` of the traffic (0 disables).
    hot_fraction: float = 0.0
    hot_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.update_rate <= 0:
            raise SimulationError(
                f"update_rate must be positive, got {self.update_rate}"
            )
        if self.dependency_mean < 0:
            raise SimulationError(
                f"dependency_mean must be >= 0, got {self.dependency_mean}"
            )
        if not 0.0 <= self.update_independence <= 1.0:
            raise SimulationError(
                f"update_independence must be in [0,1], got "
                f"{self.update_independence}"
            )
        if not 0.0 <= self.hot_fraction < 1.0 or not 0.0 <= self.hot_weight < 1.0:
            raise SimulationError("hot_fraction/hot_weight must be in [0,1)")
        if (self.hot_fraction == 0.0) != (self.hot_weight == 0.0):
            raise SimulationError(
                "hot_fraction and hot_weight must be set together"
            )


class RandomUpdateWorkload:
    """Drives a Poisson stream of random updates into a system.

    Call :meth:`start` once; arrivals self-schedule until
    :meth:`stop`.  Handles of all submitted transactions are kept for
    post-run assertions.
    """

    def __init__(
        self,
        system: Cluster,
        config: WorkloadConfig,
        *,
        seed: int = 0,
        items: Optional[Sequence[ItemId]] = None,
    ) -> None:
        self._system = system
        self._config = config
        self._rng = Rng(seed)
        self._items: List[ItemId] = (
            list(items) if items is not None else sorted(system.catalog.all_items())
        )
        if not self._items:
            raise SimulationError("workload needs at least one item")
        self.handles: List[TransactionHandle] = []
        self._running = False
        self._salt = 0

    def start(self) -> None:
        """Begin the arrival stream."""
        if self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        """Stop after the currently scheduled arrival."""
        self._running = False

    def _schedule_next(self) -> None:
        delay = self._rng.exponential(1.0 / self._config.update_rate)
        self._system.runtime.schedule(
            delay, self._arrive, label="workload-arrival"
        )

    def _arrive(self) -> None:
        if not self._running:
            return
        self._submit_one()
        self._schedule_next()

    def _pick_item(self) -> ItemId:
        config = self._config
        if config.hot_fraction > 0 and self._rng.bernoulli(config.hot_weight):
            hot_count = max(1, int(len(self._items) * config.hot_fraction))
            return self._items[self._rng.randint(0, hot_count - 1)]
        return self._rng.choice(self._items)

    def _submit_one(self) -> TransactionHandle:
        config = self._config
        target = self._pick_item()
        if config.dependency_mean > 0:
            count = int(round(self._rng.exponential(config.dependency_mean)))
        else:
            count = 0
        dependencies = [self._pick_item() for _ in range(count)]
        include_previous = not self._rng.bernoulli(config.update_independence)
        self._salt += 1
        transaction = make_update_transaction(
            target,
            dependencies,
            include_previous=include_previous,
            salt=self._salt,
        )
        handle = self._system.submit(transaction)
        self.handles.append(handle)
        return handle
