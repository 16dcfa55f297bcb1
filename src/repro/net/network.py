"""The simulated point-to-point network.

Sites register a delivery handler; :meth:`Network.send` schedules a
delivery event after a (seeded) random latency — one simulator event
per delivered copy, so a run's event count is deliveries plus timers.
Every send, delivery and drop is reported on the event bus
(``msg.send`` / ``msg.deliver`` / ``msg.drop``), the one way to observe
the transport.  The network models the failure modes the paper's
protocol must survive:

* **site crashes** — messages addressed to (or sent by) a crashed site
  are silently dropped, the fail-stop model of Gray-style 2PC;
* **partitions** — a blocked pair of sites drops traffic in both
  directions ("preventing communication with some other site",
  section 3.1);
* **message loss** — independent per-message loss with a configurable
  probability.

Beyond fail-stop, the network also models *gray failures* — the
slow-but-not-dead behaviour that fixed timeouts handle worst (Gray &
Lamport's realistic-timing critique, and the transient hiccups the
paper's section 6 retry/backoff hybrid targets):

* **site degradation** — :meth:`Network.degrade_site` multiplies the
  latency of every message a site sends or receives (an overloaded or
  thrashing host);
* **link delay spikes** — :meth:`Network.spike_link` multiplies latency
  on one directed link only;
* **one-way partitions** — :meth:`Network.partition_oneway` blocks a
  single direction, the asymmetric-reachability case bidirectional
  partitions can't express;
* **corruption** — checksum-style per-message corruption; a corrupted
  message fails its (modelled) checksum and is dropped with the
  ``drop:corrupt`` stat, indistinguishable from loss to the protocol.

Dropped messages are counted, never raised: the commit protocol's
timeouts are the recovery mechanism, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, FrozenSet, Set, Tuple

from repro.core.errors import NetworkError
from repro.net.message import Envelope, SiteId
from repro.obs.events import EventBus
from repro.sim.engine import Simulator
from repro.sim.rand import Rng

Handler = Callable[[Envelope], None]

#: The label of every delivery event.  Labels feed only
#: ``Event.__repr__`` and the simulator's background-prefix test, so one
#: constant serves every message.
DELIVERY_LABEL = "deliver"


@dataclass
class NetworkStats:
    """Counters describing everything the network has carried."""

    sent: int = 0
    delivered: int = 0
    duplicated: int = 0
    dropped_site_down: int = 0
    dropped_partition: int = 0
    dropped_loss: int = 0
    dropped_corrupt: int = 0

    @property
    def dropped(self) -> int:
        """Total messages that never reached their recipient."""
        return (
            self.dropped_site_down
            + self.dropped_partition
            + self.dropped_loss
            + self.dropped_corrupt
        )


class Network:
    """A latency-and-failure-modelling message fabric.

    Parameters
    ----------
    sim:
        The simulation engine to schedule deliveries on.
    rng:
        Random source for latency jitter and message loss.
    base_latency:
        Minimum one-way delivery time, in simulated seconds.
    jitter:
        Uniform extra latency in ``[0, jitter)``.
    loss_probability:
        Independent probability that any message is lost in transit.
    duplicate_probability:
        Independent probability that a message is delivered twice (the
        second copy after an extra latency draw).  Real networks and
        retry layers duplicate; the protocol must be idempotent.
    corruption_probability:
        Independent probability that a message is corrupted in transit.
        A corrupted message fails its checksum at the receiver and is
        dropped (counted as ``dropped_corrupt``); the payload is never
        delivered mangled — the model is detect-and-discard.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: Rng,
        *,
        base_latency: float = 0.01,
        jitter: float = 0.005,
        loss_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        corruption_probability: float = 0.0,
        bus: "EventBus | None" = None,
    ) -> None:
        if base_latency < 0 or jitter < 0:
            raise NetworkError("latency parameters must be non-negative")
        if not 0.0 <= duplicate_probability <= 1.0:
            raise NetworkError("duplicate_probability must be in [0, 1]")
        if not 0.0 <= corruption_probability <= 1.0:
            raise NetworkError("corruption_probability must be in [0, 1]")
        self._sim = sim
        self._rng = rng
        self._bus = bus
        self._base_latency = base_latency
        self._jitter = jitter
        self._loss_probability = loss_probability
        self._duplicate_probability = duplicate_probability
        self._corruption_probability = corruption_probability
        self._handlers: Dict[SiteId, Handler] = {}
        self._down: Set[SiteId] = set()
        self._partitions: Set[FrozenSet[SiteId]] = set()
        #: Gray-failure state: per-site processing-latency multipliers,
        #: per-directed-link delay multipliers, and blocked directions.
        self._degraded: Dict[SiteId, float] = {}
        self._link_spikes: Dict[Tuple[SiteId, SiteId], float] = {}
        self._oneway: Set[Tuple[SiteId, SiteId]] = set()
        self.stats = NetworkStats()

    @property
    def base_latency(self) -> float:
        """The healthy one-way delivery latency (before jitter and
        gray-failure multipliers) — the unit the frontier campaign's
        latency sanity checks are expressed in."""
        return self._base_latency

    def _notify(self, event: str, envelope: Envelope) -> None:
        """Report *event* on the bus.  Callers check that the bus is
        truthy first, so an unobserved network makes no call at all."""
        dropped = event.startswith("drop")
        payload = envelope.payload
        self._bus.emit(
            "msg.drop" if dropped else f"msg.{event}",
            time=self._sim.now,
            txn=getattr(payload, "txn", None),
            site=envelope.sender,
            transport=event,
            kind=type(payload).__name__,
            sender=envelope.sender,
            recipient=envelope.recipient,
            reason=event[5:] if dropped else "",
            message=payload,
        )

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def register(self, site: SiteId, handler: Handler) -> None:
        """Attach *site*'s message handler (replacing any previous one)."""
        self._handlers[site] = handler

    def sites(self) -> FrozenSet[SiteId]:
        """All registered sites."""
        return frozenset(self._handlers)

    # ------------------------------------------------------------------
    # Failure state
    # ------------------------------------------------------------------

    def crash_site(self, site: SiteId) -> None:
        """Mark *site* down; its traffic drops until :meth:`recover_site`."""
        self._down.add(site)

    def recover_site(self, site: SiteId) -> None:
        """Mark *site* up again."""
        self._down.discard(site)

    def is_up(self, site: SiteId) -> bool:
        """True iff *site* is currently up."""
        return site not in self._down

    def partition(self, a: SiteId, b: SiteId) -> None:
        """Block traffic between *a* and *b* in both directions."""
        self._partitions.add(frozenset((a, b)))

    def heal(self, a: SiteId, b: SiteId) -> None:
        """Restore traffic between *a* and *b*."""
        self._partitions.discard(frozenset((a, b)))

    def partition_groups(self, groups) -> None:
        """Split the cluster: traffic flows within groups, never across.

        *groups* is a sequence of site collections; every pair of sites
        in different groups is blocked (sites in no group keep full
        connectivity).  Classic network-split scenarios in one call:
        ``partition_groups([["site-0"], ["site-1", "site-2"]])``.
        """
        group_lists = [list(group) for group in groups]
        for index, group in enumerate(group_lists):
            for other in group_lists[index + 1 :]:
                for a in group:
                    for b in other:
                        self.partition(a, b)

    def heal_all(self) -> None:
        """Remove every partition, including one-way partitions."""
        self._partitions.clear()
        self._oneway.clear()

    def is_partitioned(self, a: SiteId, b: SiteId) -> bool:
        """True iff traffic between *a* and *b* is blocked (either way)."""
        return frozenset((a, b)) in self._partitions

    # ------------------------------------------------------------------
    # Gray-failure state
    # ------------------------------------------------------------------

    def degrade_site(self, site: SiteId, factor: float) -> None:
        """Multiply the latency of every message *site* sends or receives.

        Models a slow-but-alive host (paging, GC, overload): traffic
        still flows, just late.  ``factor`` must be >= 1; degrading an
        already-degraded site replaces (not stacks) the factor.
        """
        if factor < 1.0:
            raise NetworkError(f"degrade factor must be >= 1, got {factor}")
        self._degraded[site] = factor

    def restore_site(self, site: SiteId) -> None:
        """Remove *site*'s degradation (no-op if not degraded)."""
        self._degraded.pop(site, None)

    def degradation_of(self, site: SiteId) -> float:
        """The current latency multiplier for *site* (1.0 = healthy)."""
        return self._degraded.get(site, 1.0)

    def spike_link(self, sender: SiteId, recipient: SiteId, factor: float) -> None:
        """Multiply latency on the directed link *sender* → *recipient*.

        Directed: the reverse link is unaffected unless spiked too.
        """
        if factor < 1.0:
            raise NetworkError(f"link spike factor must be >= 1, got {factor}")
        self._link_spikes[(sender, recipient)] = factor

    def clear_link(self, sender: SiteId, recipient: SiteId) -> None:
        """Remove the delay spike on *sender* → *recipient* (no-op if none)."""
        self._link_spikes.pop((sender, recipient), None)

    def partition_oneway(self, sender: SiteId, recipient: SiteId) -> None:
        """Block traffic in the single direction *sender* → *recipient*.

        The asymmetric-reachability case a bidirectional partition can't
        express: *recipient* still reaches *sender*, so e.g. queries
        arrive but the answers are lost.
        """
        self._oneway.add((sender, recipient))

    def heal_oneway(self, sender: SiteId, recipient: SiteId) -> None:
        """Restore the direction *sender* → *recipient*."""
        self._oneway.discard((sender, recipient))

    def is_blocked(self, sender: SiteId, recipient: SiteId) -> bool:
        """True iff a message *sender* → *recipient* would be dropped
        by a partition (bidirectional or one-way) right now."""
        return (
            frozenset((sender, recipient)) in self._partitions
            or (sender, recipient) in self._oneway
        )

    def clear_degradations(self) -> None:
        """Remove every site degradation and link spike (not partitions)."""
        self._degraded.clear()
        self._link_spikes.clear()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def send(self, sender: SiteId, recipient: SiteId, payload: Any) -> None:
        """Send *payload* from *sender* to *recipient*.

        The message is dropped (counted, not raised) if the sender is
        down now, if it is sampled as lost, or — checked at delivery
        time — if the recipient is down or the pair is partitioned when
        the message would arrive.
        """
        if recipient not in self._handlers:
            raise NetworkError(f"unknown recipient site {recipient!r}")
        stats = self.stats
        stats.sent += 1
        now = self._sim.now
        envelope = Envelope(sender, recipient, payload, now)
        bus = self._bus
        if bus:
            self._notify("send", envelope)
        if sender in self._down:
            stats.dropped_site_down += 1
            if bus:
                self._notify("drop:site-down", envelope)
            return
        if self._loss_probability > 0 and self._rng.bernoulli(self._loss_probability):
            stats.dropped_loss += 1
            if bus:
                self._notify("drop:loss", envelope)
            return
        if self._corruption_probability > 0 and self._rng.bernoulli(
            self._corruption_probability
        ):
            # The checksum failure is detected at the receiver, but the
            # protocol-visible effect (message never handled) is the
            # same wherever we count it; sampling at send keeps the
            # seeded RNG stream independent of in-flight state.
            stats.dropped_corrupt += 1
            if bus:
                self._notify("drop:corrupt", envelope)
            return
        copies = 1
        if self._duplicate_probability > 0 and self._rng.bernoulli(
            self._duplicate_probability
        ):
            copies = 2
            stats.duplicated += 1
        factor = 1.0
        if self._degraded or self._link_spikes:
            factor = self._gray_factor(sender, recipient)
        # One event per copy; the action is resolved now, so a traced
        # ``_deliver_batch`` seam still sees every delivery.
        deliver = partial(self._deliver_batch, envelope)
        for _ in range(copies):
            latency = self._base_latency
            if self._jitter > 0:
                latency += self._rng.uniform(0.0, self._jitter)
            self._sim.schedule_at(
                now + latency * factor, deliver, label=DELIVERY_LABEL
            )

    def _gray_factor(self, sender: SiteId, recipient: SiteId) -> float:
        """Combined latency multiplier for *sender* → *recipient* now."""
        return (
            self._degraded.get(sender, 1.0)
            * self._degraded.get(recipient, 1.0)
            * self._link_spikes.get((sender, recipient), 1.0)
        )

    # One envelope, one event; the benchmark's traced seam owns the name.
    def _deliver_batch(self, envelope: Envelope) -> None:
        recipient = envelope.recipient
        if recipient in self._down:
            self.stats.dropped_site_down += 1
            if self._bus:
                self._notify("drop:site-down", envelope)
            return
        # No partition of either kind: skip building the keys to test.
        if (self._partitions or self._oneway) and self.is_blocked(
            envelope.sender, recipient
        ):
            self.stats.dropped_partition += 1
            if self._bus:
                self._notify("drop:partition", envelope)
            return
        self.stats.delivered += 1
        if self._bus:
            self._notify("deliver", envelope)
        self._handlers[recipient](envelope)

    def broadcast(self, sender: SiteId, recipients, payload: Any) -> None:
        """Send *payload* to every site in *recipients* (independent sends)."""
        for recipient in recipients:
            self.send(sender, recipient, payload)
