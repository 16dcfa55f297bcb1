"""The :class:`Runtime` interface: clock, timers, transport, durability, RNG.

Everything a protocol state machine needs from the outside world, and
nothing more.  The transaction layer (:mod:`repro.txn`) depends only on
this surface — an API-lint test enforces that no protocol module
imports the simulator or the network directly — so the same
coordinator/participant/paxos code runs on simulated time
(:class:`repro.runtime.sim.SimRuntime`) or on wall-clock sockets
(:class:`repro.runtime.aio.AsyncioRuntime`).

Design notes
------------
* **Timers** return a :class:`TimerHandle`, a structural protocol with
  a single ``cancel()`` method.  The simulator's
  :class:`~repro.sim.events.Event` and asyncio's ``TimerHandle`` both
  already satisfy it, so neither implementation wraps its native
  handle — important for the sim path, where handle identity and
  scheduling order must stay bit-identical to the pre-refactor code.
* **Durability** is a pair of hooks with no-op defaults.  A site
  registers a snapshot provider once (:meth:`Runtime.attach_durability`)
  and the runtime decides when to persist: the sim runtime never does
  (crashes are simulated by discarding volatile attributes), the
  asyncio runtime checkpoints after every timer fire and every message
  delivery, *before* any message scheduled by that action reaches a
  socket — giving the write-ahead ordering the protocol's recovery
  story assumes (e.g. the coordinator's outcome-log record is on disk
  before any *complete* message is sent).
* **RNG** hands out named deterministic streams
  (:meth:`Runtime.rng`) so workload generators and relaxed-policy coin
  flips are reproducible per seed on either runtime.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

try:  # Protocol is typing_extensions-free only on 3.8+
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - 3.7 fallback, not exercised
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

from repro.core.errors import SimulationError
from repro.net.message import SiteId


#: Timer-label prefixes that do not count against quiescence: the
#: per-site outcome-maintenance loops and workload arrival streams
#: reschedule themselves forever, so "no timers pending" never happens;
#: "nothing pending but background periodics" is the meaningful notion
#: of an idle system.
BACKGROUND_LABELS = ("outcome-maintenance", "workload-arrival", "arrival")


@runtime_checkable
class TimerHandle(Protocol):
    """A cancellable timer.  ``sim.events.Event`` and
    ``asyncio.TimerHandle`` both satisfy this structurally."""

    def cancel(self) -> None:  # pragma: no cover - protocol signature
        ...


class Runtime:
    """Abstract clock + timers + transport + durability + RNG.

    Implementations must be driven from a single thread (the simulator
    loop or the asyncio event loop); none of the methods are
    thread-safe.
    """

    #: True when :meth:`checkpoint` actually persists anywhere.  Lets
    #: composition code (and tests) know whether restart-from-disk is a
    #: meaningful operation on this runtime.
    durable: bool = False

    @property
    def now(self) -> float:
        """Current time in runtime seconds (simulated or wall-clock)."""
        raise NotImplementedError

    def schedule(
        self,
        delay: float,
        action: Callable[[], None],
        *,
        label: str = "",
        site: SiteId = "",
    ) -> TimerHandle:
        """Run *action* after *delay* seconds; returns a cancellable handle.

        *label* is diagnostic (the simulator uses it for quiescence
        filtering and traces).  *site* attributes the timer to a site
        so durable runtimes can checkpoint that site's state after the
        action runs.
        """
        raise NotImplementedError

    def send(self, sender: SiteId, recipient: SiteId, payload: Any) -> None:
        """Deliver *payload* to *recipient*'s registered handler, eventually.

        Delivery is asynchronous and unreliable in exactly the ways the
        implementation defines (simulated latency/partitions, or real
        sockets); senders never learn whether delivery happened.
        """
        raise NotImplementedError

    def register(self, site: SiteId, handler: Callable[[Any], None]) -> None:
        """Register *site*'s message handler (called with an Envelope)."""
        raise NotImplementedError

    def rng(self, stream: str):
        """A deterministic named random stream (``repro.sim.rand.Rng``)."""
        raise NotImplementedError

    def mark_down(self, site: SiteId) -> None:
        """Fail-stop *site*: drop all traffic to and from it."""
        raise NotImplementedError

    def mark_up(self, site: SiteId) -> None:
        """Undo :meth:`mark_down`: *site*'s traffic flows again."""
        raise NotImplementedError

    def quiescent(self) -> bool:
        """True iff no protocol work is in flight: no message sent but
        not yet handled, and no armed timer other than the
        :data:`BACKGROUND_LABELS` periodics."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Durability hooks — no-ops by default (the sim runtime keeps them).

    def attach_durability(
        self, site: SiteId, snapshot: Callable[[], Dict[str, Any]]
    ) -> None:
        """Register *site*'s durable-state snapshot provider."""

    def checkpoint(self, site: SiteId) -> None:
        """Persist *site*'s durable state now (no-op when not durable)."""

    def load_durable(self, site: SiteId) -> Optional[Dict[str, Any]]:
        """The last persisted snapshot for *site*, or None."""
        return None


class Periodic:
    """A repeating timer on any :class:`Runtime`.

    The same fire/re-arm discipline as the simulator's
    :class:`~repro.sim.engine.PeriodicTask` (arm, fire, re-arm after
    the action unless stopped), expressed over :meth:`Runtime.schedule`
    so it behaves identically on simulated and wall-clock time.  On the
    sim runtime the scheduling call sequence — and therefore the event
    heap's (time, seq) order — is exactly what PeriodicTask produced.
    """

    def __init__(
        self,
        runtime: Runtime,
        period: float,
        action: Callable[[], None],
        *,
        label: str = "",
        site: SiteId = "",
    ) -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        self._runtime = runtime
        self.period = period
        self._action = action
        self.label = label
        self._site = site
        self._stopped = False
        self._handle: Optional[TimerHandle] = None
        self._arm()

    def _arm(self) -> None:
        self._handle = self._runtime.schedule(
            self.period, self._fire, label=self.label, site=self._site
        )

    def _fire(self) -> None:
        if self._stopped:
            return
        self._action()
        if not self._stopped:
            self._arm()

    def stop(self) -> None:
        """Stop firing.  Safe to call from within the action."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
