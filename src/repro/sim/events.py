"""Event representation for the discrete-event simulation kernel.

The kernel is a classic event-list simulator: events carry a firing
time, a tie-breaking sequence number, and a zero-argument action.  The
paper's own evaluation (section 4.2) is a discrete-event simulation;
this kernel underlies both our full-system simulator (sites, messages,
2PC) and nothing else needs to know about heap ordering details.

An event's label also decides whether it counts against quiescence:
labels starting with a :data:`BACKGROUND_LABELS` prefix are the
self-rescheduling periodics; everything else is foreground work the
simulator counts while it is pending.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(order=True)
class Event:
    """A scheduled action.

    Ordering is by ``(time, seq)``: events at the same instant fire in
    scheduling order, which keeps runs deterministic for a fixed seed.
    ``cancelled`` is checked at dispatch (lazy deletion, the standard
    heapq idiom) so cancellation is O(1).
    """

    time: SimTime
    seq: int
    action: Action = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)
    #: The simulator still counting this event as pending foreground
    #: work; None for background events and once fired or cancelled.
    counted_by: Optional["Simulator"] = field(default=None, compare=False)

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
