"""Metrics collection for the full-system simulator.

One :class:`MetricsCollector` is shared by every site of a simulated
system.  It accumulates the quantities the paper's evaluation (and our
ablations) report:

* transaction counts by outcome, and the commit-latency histogram;
* polyvalue lifecycle events (installed / propagated / resolved), which
  give the instantaneous ``P(t)`` the analysis of section 4 predicts;
* lock conflicts and item-blocked time (the availability cost that the
  blocking-2PC baseline pays and polyvalues avoid);
* uncertain-vs-certain external outputs (section 3.4);
* the polytransaction fan-out (section 3.2's processing cost) as a
  running total and maximum.

The collector is implemented on the labeled
:class:`~repro.obs.registry.MetricsRegistry`: every headline counter is
backed by a registry instrument (with ``site``/``outcome``/… labels
where the caller provides them), and three fixed-bucket histograms —
commit latency, in-doubt window duration, and polyvalue lifetime — are
populated by the same hooks.  The headline counts are read-only
properties over the registry (``metrics.committed``,
``metrics.lock_conflict_aborts``, …); the hooks are the one write path,
and ``python -m repro report --format prometheus`` exports the full
labeled picture.

The collector counts; it does not remember.  Its state grows with the
items and in-doubt transactions in play, not with transactions run:
per-transaction history is the event bus's, to a subscriber that asks
for it.  The one series kept is ``polyvalue_count``, section 4's
measured ``P(t)``, which grows with polyvalue installs and resolutions.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.metrics.series import TimeSeries
from repro.obs.registry import MetricsRegistry

#: Commit latencies: a LAN-ish protocol decides in tens of ms; the tail
#: extends through retry/timeout territory.
LATENCY_BUCKETS = (
    0.005, 0.01, 0.02, 0.035, 0.05, 0.075, 0.1, 0.25, 0.5, 1.0, 2.5,
)
#: Failure windows: in-doubt durations and polyvalue lifetimes are set
#: by timeouts and repair times — sub-second through minutes.
WINDOW_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0)


class MetricsCollector:
    """Shared counters, histograms and time-series for one system.

    All event hooks accept an optional ``site`` label (the instrumented
    transaction layer passes it; standalone use may omit it, which
    files the sample under the empty-string site).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self._submitted = r.counter(
            "repro_transactions_submitted_total",
            "Transactions submitted, by coordinator site",
            ("site",),
        )
        self._decided = r.counter(
            "repro_transactions_total",
            "Decided transactions, by coordinator site and outcome",
            ("site", "outcome"),
        )
        self._polytxns = r.counter(
            "repro_polytransactions_total",
            "Transactions that executed as polytransactions",
            ("site",),
        )
        self._poly_events = r.counter(
            "repro_polyvalues_total",
            "Polyvalue lifecycle events, by site",
            ("site", "event"),
        )
        self._poly_current = r.gauge(
            "repro_polyvalues_current",
            "Items currently holding polyvalues (the paper's P(t))",
        )
        self._in_doubt = r.counter(
            "repro_in_doubt_windows_total",
            "Wait-phase timeouts that installed polyvalues (measured F)",
            ("site",),
        )
        self._lock_conflicts = r.counter(
            "repro_lock_conflict_aborts_total",
            "Transactions aborted by a lock conflict",
            ("site",),
        )
        self._retransmits = r.counter(
            "repro_notify_retransmissions_total",
            "Outcome notifications resent by the maintenance backoff loop",
            ("site",),
        )
        self._overflows = r.counter(
            "repro_fanout_overflow_aborts_total",
            "Transactions aborted for exceeding max_alternatives",
            ("site",),
        )
        self._overload_blocks = r.counter(
            "repro_overload_blocked_total",
            "Wait-timeouts switched to blocking by the polyvalue budget",
            ("site",),
        )
        self._outputs = r.counter(
            "repro_outputs_total",
            "External outputs, by certainty (section 3.4)",
            ("certainty",),
        )
        self._unilateral = r.counter(
            "repro_unilateral_decisions_total",
            "RELAXED-policy unilateral decisions",
        )
        self._inconsistent = r.counter(
            "repro_inconsistent_decisions_total",
            "Unilateral decisions that disagreed with the coordinator",
        )
        self._blocked_seconds = r.gauge(
            "repro_blocked_item_seconds",
            "Item-seconds spent lock-blocked (BLOCKING baseline cost)",
        )
        self._commit_latency = r.histogram(
            "repro_commit_latency_seconds",
            "Submission-to-commit latency",
            ("site",),
            buckets=LATENCY_BUCKETS,
        )
        self._in_doubt_duration = r.histogram(
            "repro_in_doubt_window_seconds",
            "Polyvalue install to outcome learned, per direct participant",
            ("site",),
            buckets=WINDOW_BUCKETS,
        )
        self._poly_lifetime = r.histogram(
            "repro_polyvalue_lifetime_seconds",
            "Item polyvalued until resolved back to a simple value",
            ("site",),
            buckets=WINDOW_BUCKETS,
        )

        #: How many alternative transactions polytransactions fanned
        #: out to (the §3.2 processing cost): the sum and the largest.
        self.polytransaction_fanout_total = 0
        self.polytransaction_fanout_max = 0
        #: Sampled trajectory of the polyvalue count.
        self.polyvalue_count: TimeSeries = TimeSeries()
        #: (site, item) -> install time, for lifetime histograms.
        self._poly_installed_at: Dict[Tuple[str, str], float] = {}
        #: (site, txn) -> open time, for in-doubt window histograms.
        self._in_doubt_open: Dict[Tuple[str, str], float] = {}

    # ------------------------------------------------------------------
    # Event hooks (called by the txn layer)
    # ------------------------------------------------------------------

    def txn_submitted(self, site: str = "") -> None:
        self._submitted.inc(site=site)

    def txn_committed(self, latency: float, site: str = "") -> None:
        self._decided.inc(site=site, outcome="committed")
        self._commit_latency.observe(latency, site=site)

    def txn_aborted(self, site: str = "") -> None:
        self._decided.inc(site=site, outcome="aborted")

    def txn_was_poly(self, fanout: int = 0, site: str = "") -> None:
        self._polytxns.inc(site=site)
        self.polytransaction_fanout_total += fanout
        if fanout > self.polytransaction_fanout_max:
            self.polytransaction_fanout_max = fanout

    def polyvalue_installed(
        self, time: float, site: str = "", item: Optional[str] = None
    ) -> None:
        self._poly_events.inc(site=site, event="installed")
        self._poly_current.inc()
        if item is not None:
            self._poly_installed_at.setdefault((site, item), time)
        self.polyvalue_count.record(time, self.current_polyvalues)

    def polyvalue_resolved(
        self, time: float, site: str = "", item: Optional[str] = None
    ) -> None:
        self._poly_events.inc(site=site, event="resolved")
        self._poly_current.dec()
        if item is not None:
            installed_at = self._poly_installed_at.pop((site, item), None)
            if installed_at is not None:
                self._poly_lifetime.observe(time - installed_at, site=site)
        self.polyvalue_count.record(time, self.current_polyvalues)

    def in_doubt_opened(self, time: float, site: str = "", txn: str = "") -> None:
        """A wait-phase timeout installed polyvalues at *site*."""
        self._in_doubt.inc(site=site)
        self._in_doubt_open.setdefault((site, txn), time)

    def in_doubt_closed(self, time: float, site: str = "", txn: str = "") -> None:
        """A direct participant finally learned *txn*'s outcome."""
        opened_at = self._in_doubt_open.pop((site, txn), None)
        if opened_at is not None:
            self._in_doubt_duration.observe(time - opened_at, site=site)

    def lock_conflict(self, site: str = "") -> None:
        self._lock_conflicts.inc(site=site)

    def notify_retransmitted(self, site: str = "") -> None:
        """The maintenance loop resent an owed outcome notification."""
        self._retransmits.inc(site=site)

    def fanout_overflow(self, site: str = "") -> None:
        """A polytransaction exceeded max_alternatives and was aborted."""
        self._overflows.inc(site=site)

    def overload_blocked(self, site: str = "") -> None:
        """A wait-timeout fell back to blocking under the polyvalue budget."""
        self._overload_blocks.inc(site=site)

    def unilateral_decision(self) -> None:
        self._unilateral.inc()

    def inconsistent_decision(self) -> None:
        self._inconsistent.inc()

    def add_blocked_item_seconds(self, seconds: float) -> None:
        self._blocked_seconds.inc(seconds)

    def output_produced(self, certain: bool) -> None:
        self._outputs.inc(certainty="certain" if certain else "uncertain")

    # ------------------------------------------------------------------
    # Read-only counts (properties over the registry)
    # ------------------------------------------------------------------

    @property
    def submitted(self) -> int:
        return int(self._submitted.value)

    @property
    def committed(self) -> int:
        return int(self._decided.total(outcome="committed"))

    @property
    def aborted(self) -> int:
        return int(self._decided.total(outcome="aborted"))

    @property
    def polytransactions(self) -> int:
        return int(self._polytxns.value)

    @property
    def polyvalues_installed(self) -> int:
        return int(self._poly_events.total(event="installed"))

    @property
    def polyvalues_resolved(self) -> int:
        return int(self._poly_events.total(event="resolved"))

    @property
    def current_polyvalues(self) -> int:
        return int(self._poly_current.value)

    @property
    def in_doubt_windows(self) -> int:
        return int(self._in_doubt.value)

    @property
    def notify_retransmissions(self) -> int:
        return int(self._retransmits.value)

    @property
    def fanout_overflows(self) -> int:
        return int(self._overflows.value)

    @property
    def overload_blocks(self) -> int:
        return int(self._overload_blocks.value)

    @property
    def lock_conflict_aborts(self) -> int:
        return int(self._lock_conflicts.value)

    @property
    def blocked_item_seconds(self) -> float:
        return self._blocked_seconds.value

    @property
    def certain_outputs(self) -> int:
        return int(self._outputs.total(certainty="certain"))

    @property
    def uncertain_outputs(self) -> int:
        return int(self._outputs.total(certainty="uncertain"))

    @property
    def unilateral_decisions(self) -> int:
        return int(self._unilateral.value)

    @property
    def inconsistent_decisions(self) -> int:
        return int(self._inconsistent.value)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------

    @property
    def commit_rate(self) -> float:
        """Fraction of decided transactions that committed."""
        decided = self.committed + self.aborted
        return self.committed / decided if decided else 0.0

    @property
    def mean_commit_latency(self) -> Optional[float]:
        """Mean submission-to-commit time, or None with no commits."""
        return self._commit_latency.merged().mean

    @property
    def certain_output_fraction(self) -> float:
        """Fraction of external outputs that were simple (certain) values."""
        total = self.certain_outputs + self.uncertain_outputs
        return self.certain_outputs / total if total else 1.0

    def summary(self) -> Dict[str, float]:
        """A flat dict of the headline numbers (for bench tables)."""
        return {
            "submitted": self.submitted,
            "committed": self.committed,
            "aborted": self.aborted,
            "commit_rate": self.commit_rate,
            "polytransactions": self.polytransactions,
            "polyvalues_installed": self.polyvalues_installed,
            "polyvalues_resolved": self.polyvalues_resolved,
            "lock_conflict_aborts": self.lock_conflict_aborts,
            "notify_retransmissions": self.notify_retransmissions,
            "fanout_overflows": self.fanout_overflows,
            "overload_blocks": self.overload_blocks,
            "certain_output_fraction": self.certain_output_fraction,
            "unilateral_decisions": self.unilateral_decisions,
            "inconsistent_decisions": self.inconsistent_decisions,
        }
