"""Message envelopes for the simulated network.

The network layer is payload-agnostic: the two-phase-commit protocol
messages (:mod:`repro.txn.protocol`) and any application traffic travel
inside :class:`Envelope` records.  Keeping the envelope separate from
the payload lets the network account for latency, loss and partitions
without knowing anything about the commit protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.sim.events import SimTime

#: Site identifiers are plain strings (e.g. ``"site-0"``).
SiteId = str


@dataclass(frozen=True)
class Envelope:
    """One message in flight between two sites."""

    sender: SiteId
    recipient: SiteId
    payload: Any
    sent_at: SimTime

    def __str__(self) -> str:
        return (
            f"[{self.sender} -> {self.recipient} @ {self.sent_at:.4g}] "
            f"{self.payload}"
        )
