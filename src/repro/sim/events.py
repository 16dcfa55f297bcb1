"""Event representation for the discrete-event simulation kernel.

The kernel is a classic event-list simulator: events carry a firing
time, a tie-breaking sequence number, and a zero-argument action.  The
paper's own evaluation (section 4.2) is a discrete-event simulation;
this kernel underlies our full-system simulator (sites, messages,
2PC).  Ordering lives in the simulator, not here: its heap holds
``(time, seq, event)`` tuples, and since ``seq`` is unique the heap
orders by ``(time, seq)`` alone and never compares two events.

An event's label also decides whether it counts against quiescence:
labels starting with a :data:`BACKGROUND_LABELS` prefix are the
self-rescheduling periodics; everything else is foreground work the
simulator counts while it is pending.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # engine imports this module
    from repro.sim.engine import Simulator

#: Simulated time is a float number of seconds since simulation start.
SimTime = float

Action = Callable[[], None]

#: Timer-label prefixes that do not count against quiescence: the
#: per-site outcome-maintenance loops and workload arrival streams
#: reschedule themselves forever, so "no timers pending" never happens;
#: "nothing pending but background periodics" is the meaningful notion
#: of an idle system.
BACKGROUND_LABELS = ("outcome-maintenance", "workload-arrival", "arrival")


class Event:
    """A scheduled action: the handle :meth:`Simulator.schedule` returns.

    The simulator's heap holds ``(time, seq, event)`` entries, so events
    at the same instant fire in scheduling order -- which keeps runs
    deterministic for a fixed seed -- and the heap never compares two
    events.  ``cancelled`` is checked at dispatch (lazy deletion, the
    standard heapq idiom) so cancellation is O(1).
    """

    __slots__ = ("time", "seq", "action", "label", "cancelled", "counted_by")

    def __init__(
        self,
        time: SimTime,
        seq: int,
        action: Action,
        label: str = "",
        cancelled: bool = False,
        counted_by: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = cancelled
        #: The simulator still counting this event as pending foreground
        #: work; None for background events and once fired or cancelled.
        self.counted_by = counted_by

    def cancel(self) -> None:
        """Prevent this event from firing (safe if already fired)."""
        self.cancelled = True
        sim = self.counted_by
        if sim is not None:
            self.counted_by = None
            sim._foreground -= 1

    def __repr__(self) -> str:
        state = " (cancelled)" if self.cancelled else ""
        label = f" {self.label!r}" if self.label else ""
        return f"Event(t={self.time:.6g}, seq={self.seq}{label}{state})"
