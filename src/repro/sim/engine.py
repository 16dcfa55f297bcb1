"""The discrete-event simulation engine.

A single :class:`Simulator` owns the virtual clock and the event list.
Components schedule zero-argument actions at relative delays or absolute
times and receive an :class:`~repro.sim.events.Event` handle they can
cancel (e.g. a participant cancels its wait-phase timeout when the
``complete`` message arrives first).

The engine is intentionally minimal — no processes, no coroutines — and
fully deterministic for a fixed schedule: ties in firing time break by
scheduling order.  The heap holds ``(time, seq, event)`` tuples; ``seq``
is unique, so ordering is the C-level tuple comparison of two floats
and two ints, never a call into Python.

Quiescence — "nothing pending but the background periodics" — is a
counter, not a search: the simulator counts foreground events in at
:meth:`Simulator.schedule_at` and out when they fire or are cancelled,
so asking costs the same at every queue length.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

from repro.core.errors import SimulationError
from repro.sim.events import BACKGROUND_LABELS, Action, Event, SimTime


class Simulator:
    """An event-list discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, lambda: fired.append(sim.now))
    >>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.0, 2.0]
    """

    def __init__(self) -> None:
        self._now: SimTime = 0.0
        self._queue: List[Tuple[SimTime, int, Event]] = []
        self._sequence = 0
        self._processed = 0
        #: Pending, uncancelled events whose label is not a
        #: ``BACKGROUND_LABELS`` periodic: raised in :meth:`schedule_at`,
        #: lowered when the event fires (:meth:`step`) or is cancelled
        #: (``Event.cancel``).  Quiescence is this counter at zero.
        self._foreground = 0
        #: Optional observability bus (attached by the system facade).
        #: Checked once per ``run_until`` window, never per event, so an
        #: unobserved simulation pays nothing on the hot loop.
        self.bus = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> SimTime:
        """The current virtual time, in simulated seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """How many events have fired so far (for progress accounting)."""
        return self._processed

    @property
    def events_pending(self) -> int:
        """How many events are scheduled and not cancelled."""
        return sum(1 for _, _, event in self._queue if not event.cancelled)

    @property
    def foreground_pending(self) -> int:
        """How many pending, uncancelled events are not
        ``BACKGROUND_LABELS`` periodics — zero is quiescence.  A
        counter, not a scan."""
        return self._foreground

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay: SimTime, action: Action, *, label: str = "") -> Event:
        """Schedule *action* to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, action, label=label)

    def schedule_at(self, time: SimTime, action: Action, *, label: str = "") -> Event:
        """Schedule *action* to fire at absolute virtual *time*."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current t={self._now}"
            )
        seq = self._sequence
        self._sequence = seq + 1
        event = Event(time, seq, action, label)
        if not label.startswith(BACKGROUND_LABELS):
            event.counted_by = self
            self._foreground += 1
        heappush(self._queue, (time, seq, event))
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _peek(self) -> Optional[Event]:
        """The next event that will fire (None when none remain)."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heappop(queue)
        return queue[0][2] if queue else None

    def step(self) -> bool:
        """Fire the single next event.  Returns False when none remain."""
        queue = self._queue
        while queue:
            time, _, event = heappop(queue)
            if event.cancelled:
                continue
            if event.counted_by is not None:
                event.counted_by = None
                self._foreground -= 1
            self._now = time
            self._processed += 1
            event.action()
            return True
        return False

    def run(self, *, max_events: Optional[int] = None) -> None:
        """Run until the event list is empty (or *max_events* fire)."""
        fired = 0
        while self.step():
            fired += 1
            if max_events is not None and fired >= max_events:
                return

    def run_until(self, time: SimTime) -> None:
        """Run all events with firing time ≤ *time*, then set the clock there.

        The clock always ends at exactly *time*, so repeated
        ``run_until`` calls step the simulation in fixed observation
        intervals (the Monte-Carlo harness samples the polyvalue count
        this way).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot run backwards to t={time} from t={self._now}"
            )
        window_start = self._now
        fired = 0
        while True:
            head = self._peek()
            if head is None or head.time > time:
                break
            self.step()
            fired += 1
        self._now = max(self._now, time)
        bus = self.bus
        if bus:
            bus.emit(
                "sim.window",
                time=self._now,
                since=window_start,
                events=fired,
            )

    def run_until_quiescent(
        self,
        *,
        max_time: Optional[SimTime] = None,
        max_events: int = 1_000_000,
    ) -> bool:
        """Run until only background (maintenance) events remain pending.

        Returns True when quiescence was reached; False when the next
        event lies beyond *max_time* (the clock is then left at
        *max_time*).  Background events that come due along the way
        still fire — they are real behaviour (and may themselves
        schedule new foreground work, which extends the run); they just
        do not count against quiescence.
        """
        fired = 0
        while self._foreground:
            if max_time is not None and self._peek().time > max_time:
                self.run_until(max_time)
                return False
            self.step()
            fired += 1
            if fired >= max_events:
                raise SimulationError(
                    f"run_until_quiescent exceeded {max_events} events; "
                    "likely livelock"
                )
        return True

    def run_while(
        self, predicate: Callable[[], bool], *, max_events: int = 10_000_000
    ) -> None:
        """Run while *predicate* is true and events remain."""
        fired = 0
        while predicate() and self.step():
            fired += 1
            if fired >= max_events:
                raise SimulationError(
                    f"run_while exceeded {max_events} events; likely livelock"
                )


class PeriodicTask:
    """A self-rescheduling action (e.g. metric sampling, retry timers).

    The task fires every *period* seconds starting ``period`` from
    creation, until :meth:`stop` is called.
    """

    def __init__(self, sim: Simulator, period: SimTime, action: Action, *, label: str = "") -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        self._sim = sim
        self._period = period
        self._action = action
        self._label = label
        self._stopped = False
        self._event: Optional[Event] = None
        self._arm()

    def _arm(self) -> None:
        self._event = self._sim.schedule(self._period, self._fire, label=self._label)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._action()
        if not self._stopped:
            self._arm()

    def stop(self) -> None:
        """Cancel future firings."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
