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
* **Durability** — a site registers a snapshot provider once
  (:meth:`Runtime.attach_durability`) and comes back from a crash only
  through what :meth:`Runtime.load_durable` returns.  The runtime
  decides when the snapshot is taken: a runtime without storage of its
  own (the simulator, a live cluster with no data directory) takes it
  at :meth:`Runtime.mark_down` — the instant of the crash — and holds
  the text until the restart; the asyncio runtime with a data directory
  checkpoints after every timer fire and every message delivery,
  *before* any message scheduled by that action reaches a socket —
  giving the write-ahead ordering the protocol's recovery story assumes
  (e.g. the coordinator's outcome-log record is on disk before any
  *complete* message is sent).  Held or on disk, the snapshot is the
  same text (:func:`dump_snapshot` / :func:`parse_snapshot`).
* **RNG** hands out named deterministic streams
  (:meth:`Runtime.rng`) so workload generators and relaxed-policy coin
  flips are reproducible per seed on either runtime.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Optional, Protocol, runtime_checkable

from repro.core.errors import ReproError, SimulationError
from repro.net.message import SiteId

# Defined beside the simulator's counter, which classifies by it;
# re-exported because it is part of the ``quiescent()`` contract.
from repro.sim.events import BACKGROUND_LABELS  # noqa: F401


class DurableStateError(ReproError):
    """A persisted site snapshot cannot be read back.

    Raised instead of booting the site empty, which would silently drop
    committed data.
    """


def dump_snapshot(snapshot: Dict[str, Any]) -> str:
    """The text form of a site's durable snapshot (held or on disk)."""
    return json.dumps(snapshot, separators=(",", ":"))


def parse_snapshot(text: str | bytes, source: str) -> Dict[str, Any]:
    """Decode :func:`dump_snapshot` output (or its UTF-8 bytes); *source*
    names where *text* came from — a file path — in the error raised for
    unreadable input."""
    try:
        snapshot = json.loads(text)
    except ValueError as error:
        raise DurableStateError(f"{source}: unreadable ({error})") from error
    if not isinstance(snapshot, dict):
        raise DurableStateError(f"{source}: not a JSON object")
    return snapshot


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

    #: True when :meth:`checkpoint` persists to storage that outlives
    #: the process.
    durable: bool = False

    def __init__(self) -> None:
        self._snapshots: Dict[SiteId, Callable[[], Dict[str, Any]]] = {}
        #: Snapshot text taken at a crash, held for the restart.
        self._held: Dict[SiteId, str] = {}

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

        *label* names the timer in traces and classifies it: a label
        starting with a :data:`BACKGROUND_LABELS` prefix is a
        self-rescheduling periodic; any other timer counts against
        :meth:`quiescent` from now until it fires or is cancelled.
        *site* attributes the timer to a site so durable runtimes can
        checkpoint that site's state after the action runs.
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
        """Fail-stop *site*: drop all traffic to and from it.

        Called while the site's state is still intact; a runtime that
        does not persist continuously calls :meth:`_hold_durable` here.
        """
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
    # Durability hooks

    def attach_durability(
        self, site: SiteId, snapshot: Callable[[], Dict[str, Any]]
    ) -> None:
        """Register *site*'s durable-state snapshot provider."""
        self._snapshots[site] = snapshot

    def checkpoint(self, site: SiteId) -> None:
        """Persist *site*'s durable state now (no-op when not durable)."""

    def _hold_durable(self, site: SiteId) -> None:
        """Take *site*'s snapshot now and hold its text for the restart."""
        provider = self._snapshots.get(site)
        if provider is not None:
            self._held[site] = dump_snapshot(provider())

    def load_durable(self, site: SiteId) -> Optional[Dict[str, Any]]:
        """The snapshot *site* restarts from, or None when it has never
        run: here, the one held since its crash (handed out once)."""
        text = self._held.pop(site, None)
        if text is None:
            return None
        return parse_snapshot(text, f"held snapshot of {site}")


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
