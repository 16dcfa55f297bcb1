"""SimRuntime — the :class:`Runtime` over the discrete-event simulator.

A deliberately thin adapter: every method delegates 1:1 to the
:class:`~repro.sim.engine.Simulator` or the
:class:`~repro.net.network.Network`, consuming exactly the same
sequence numbers in exactly the same order as the pre-refactor code
that called them directly.  That is the bit-for-bit guarantee the
explorer fingerprints, chaos replays, and committed bench numbers rely
on (see ``docs/runtime.md``).

Durability is the base-class default: :meth:`SimRuntime.mark_down`
takes the site's durable snapshot at the instant of the crash and
``load_durable`` hands its text back at recovery, so a simulated
restart runs the same restore code as a restart from a site file.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.net.message import SiteId
from repro.net.network import Network
from repro.runtime.base import Runtime, TimerHandle
from repro.sim.engine import Simulator
from repro.sim.rand import Rng


class SimRuntime(Runtime):
    """Simulated clock and transport; the default runtime everywhere."""

    def __init__(
        self, sim: Simulator, network: Network, rng: Optional[Rng] = None
    ) -> None:
        super().__init__()
        self.sim = sim
        self.network = network
        self._rng = rng if rng is not None else Rng(0)

    @property
    def now(self) -> float:
        return self.sim.now

    def schedule(
        self,
        delay: float,
        action: Callable[[], None],
        *,
        label: str = "",
        site: SiteId = "",
    ) -> TimerHandle:
        # *site* is durability attribution only; the simulator does not
        # need it and must not see a signature change (sequence parity).
        return self.sim.schedule(delay, action, label=label)

    def send(self, sender: SiteId, recipient: SiteId, payload: Any) -> None:
        self.network.send(sender, recipient, payload)

    def register(self, site: SiteId, handler: Callable[[Any], None]) -> None:
        self.network.register(site, handler)

    def rng(self, stream: str) -> Rng:
        return self._rng.fork(stream)

    def mark_down(self, site: SiteId) -> None:
        self._hold_durable(site)
        self.network.crash_site(site)

    def mark_up(self, site: SiteId) -> None:
        self.network.recover_site(site)

    def quiescent(self) -> bool:
        return self.sim.foreground_pending == 0
