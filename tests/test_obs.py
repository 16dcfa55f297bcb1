"""Tests for the observability layer (repro.obs)."""

import json

import pytest

from repro.obs.events import TAXONOMY, EventBus, EventLog, ObsEvent
from repro.obs.export import events_to_jsonl, prometheus_text, render_report
from repro.obs.registry import MetricError, MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.txn.system import DistributedSystem
from repro.txn.tracing import ProtocolTracer
from repro.txn.transaction import Transaction

from tests.conftest import increment, move, run_to_decision


def observed_system(seed=9, **kwargs):
    system = DistributedSystem.build(
        sites=3,
        items={"a": 10, "b": 20, "c": 30},
        seed=seed,
        jitter=0.0,
        **kwargs,
    )
    return system, EventLog(system.bus)


class TestEventBus:
    def test_inactive_bus_is_falsy_and_emits_nothing(self):
        bus = EventBus()
        assert not bus
        assert not bus.active
        assert bus.emit("txn.submitted", time=0.0) is None

    def test_subscribe_makes_bus_truthy(self):
        bus = EventBus()
        bus.subscribe(lambda event: None)
        assert bus
        assert bus.active

    def test_emit_delivers_to_subscribers_in_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(("first", e.name)))
        bus.subscribe(lambda e: seen.append(("second", e.name)))
        bus.emit("txn.committed", time=1.0, txn="T1", latency=0.04)
        assert seen == [("first", "txn.committed"), ("second", "txn.committed")]

    def test_prefix_filter(self):
        bus = EventBus()
        msgs = EventLog(bus, prefix="msg.")
        both = EventLog(bus, prefix=("txn.", "indoubt."))
        bus.emit("msg.send", time=0.0)
        bus.emit("txn.submitted", time=0.0, txn="T1")
        bus.emit("indoubt.open", time=0.0, txn="T1", site="s")
        bus.emit("site.state", time=0.0, txn="T1", site="s")
        assert [e.name for e in msgs] == ["msg.send"]
        assert [e.name for e in both] == ["txn.submitted", "indoubt.open"]

    def test_unsubscribe(self):
        bus = EventBus()
        log = EventLog(bus)
        bus.emit("msg.send", time=0.0)
        log.detach()
        bus.emit("msg.send", time=1.0)
        assert len(log) == 1
        assert not bus

    def test_event_attrs_and_describe(self):
        event = ObsEvent(
            time=0.5, name="lock.conflict", txn="T1", site="s", attrs={"item": "a"}
        )
        text = event.describe()
        assert "lock.conflict" in text
        assert "txn=T1" in text
        assert "item=a" in text


class TestRegistry:
    def test_counter_labels_and_totals(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_total", "help", ("site", "outcome"))
        counter.inc(site="s0", outcome="committed")
        counter.inc(2, site="s1", outcome="committed")
        counter.inc(site="s1", outcome="aborted")
        assert counter.total(outcome="committed") == 3
        assert counter.total(site="s1") == 3
        assert counter.value == 4

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("t_total")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_label_mismatch_rejected(self):
        counter = MetricsRegistry().counter("t_total", "", ("site",))
        with pytest.raises(MetricError):
            counter.inc(wrong="x")

    def test_registration_idempotent_and_conflict_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "", ("site",))
        assert registry.counter("x_total", "", ("site",)) is first
        with pytest.raises(MetricError):
            registry.gauge("x_total")
        with pytest.raises(MetricError):
            registry.counter("x_total", "", ("other",))

    def test_gauge_up_and_down(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.inc()
        gauge.inc()
        gauge.dec()
        assert gauge.value == 1
        gauge.set(7)
        assert gauge.value == 7

    def test_histogram_buckets_and_quantiles(self):
        histogram = MetricsRegistry().histogram(
            "h_seconds", "", (), buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        merged = histogram.merged()
        assert merged.count == 4
        assert merged.sum == pytest.approx(6.05)
        assert merged.cumulative() == [
            (0.1, 1), (1.0, 3), (10.0, 4), (float("inf"), 4),
        ]
        # p50 falls in the (0.1, 1.0] bucket.
        assert 0.1 <= merged.quantile(0.5) <= 1.0

    def test_histogram_boundary_lands_in_its_bucket(self):
        # le is inclusive (Prometheus semantics): observing exactly a
        # bound counts in that bound's bucket.
        histogram = MetricsRegistry().histogram("h", "", (), buckets=(1.0, 2.0))
        histogram.observe(1.0)
        assert histogram.merged().cumulative()[0] == (1.0, 1)


class TestInstrumentedSystem:
    def test_commit_emits_full_lifecycle(self):
        system, log = observed_system()
        handle = system.submit(move("a", "b", 3))
        run_to_decision(system, handle)
        names = {event.name for event in log.for_txn(handle.txn)}
        assert {
            "txn.submitted", "phase.read.start", "phase.stage.start",
            "site.state", "msg.send", "msg.deliver", "txn.committed",
        } <= names

    def test_all_event_names_are_in_the_taxonomy(self):
        system, log = observed_system()
        system.submit(move("a", "b", 3))
        system.run_for(0.035)
        system.crash_site("site-0")
        system.run_for(1.0)
        system.recover_site("site-0")
        system.run_for(5.0)
        assert {event.name for event in log} <= set(TAXONOMY)

    def test_crash_scenario_emits_indoubt_pair(self):
        system, log = observed_system()
        handle = system.submit(move("a", "b", 3))
        system.run_for(0.035)
        system.crash_site("site-0")
        system.run_for(1.0)
        system.recover_site("site-0")
        system.run_for(5.0)
        opens = log.named("indoubt.open")
        closes = log.named("indoubt.close")
        live = [e for e in opens if e.attrs.get("live")]
        assert live and live[0].site == "site-1"
        assert any(
            e.txn == handle.txn and e.site == "site-1" for e in closes
        )
        close = next(e for e in closes if e.site == "site-1")
        open_ = live[0]
        assert close.time > open_.time
        # The histogram saw the same window.
        merged = system.metrics.registry.get(
            "repro_in_doubt_window_seconds"
        ).merged()
        assert merged.count == 1
        assert merged.sum == pytest.approx(close.time - open_.time)

    def test_unobserved_bus_means_no_event_cost(self):
        system = DistributedSystem.build(
            sites=2, items={"a": 1, "b": 2}, seed=3
        )
        assert not system.bus  # nothing subscribed -> every guard is False
        handle = system.submit(move("a", "b", 1))
        run_to_decision(system, handle)  # runs fine without subscribers


class TestDropEventParity:
    """The same drop is visible through the tracer and the raw bus."""

    def test_site_down_drops_in_both_views_with_matching_timestamps(self):
        system, log = observed_system()
        tracer = ProtocolTracer(system)
        system.submit(move("a", "b", 3))
        system.run_for(0.035)
        system.crash_site("site-0")
        system.run_for(2.0)
        trace_drops = tracer.drops()
        bus_drops = log.named("msg.drop")
        assert trace_drops
        assert all(r.event == "drop:site-down" for r in trace_drops)
        assert all(e.attrs["reason"] == "site-down" for e in bus_drops)
        assert [r.time for r in trace_drops] == [e.time for e in bus_drops]
        assert [r.message for r in trace_drops] == [
            e.attrs["message"] for e in bus_drops
        ]

    def test_partition_drops_in_both_views(self):
        system, log = observed_system()
        tracer = ProtocolTracer(system)
        system.network.partition("site-0", "site-1")
        system.submit(move("a", "b", 3))
        system.run_for(1.0)
        partition_times = [
            r.time for r in tracer.drops() if r.event == "drop:partition"
        ]
        assert partition_times
        assert partition_times == [
            e.time
            for e in log.named("msg.drop")
            if e.attrs["reason"] == "partition"
        ]

    def test_tracer_detach_stops_recording(self):
        system, _ = observed_system()
        tracer = ProtocolTracer(system)
        handle = system.submit(move("a", "b", 3))
        run_to_decision(system, handle)
        recorded = len(tracer.records)
        tracer.detach()
        handle = system.submit(move("a", "c", 1))
        run_to_decision(system, handle)
        assert len(tracer.records) == recorded


class TestSpanTracer:
    def crash_scenario(self, seed=9):
        system = DistributedSystem.build(
            sites=3, items={"a": 10, "b": 20, "c": 30}, seed=seed, jitter=0.0
        )
        tracer = SpanTracer(system.bus)
        handle = system.submit(move("a", "b", 3))
        system.run_for(0.035)
        system.crash_site("site-0")
        system.run_for(1.0)
        system.recover_site("site-0")
        system.run_for(5.0)
        return system, tracer, handle

    def test_committed_transaction_has_phase_and_site_children(self):
        system, _ = observed_system()
        tracer = SpanTracer(system.bus)
        handle = system.submit(move("a", "b", 3))
        run_to_decision(system, handle)
        root = tracer.roots[handle.txn]
        assert root.attrs["outcome"] == "committed"
        assert root.duration == pytest.approx(handle.latency)
        names = {span.name for span in root.children}
        assert {"phase:read", "phase:stage"} <= names
        assert any(name.startswith("compute@") for name in names)
        assert any(name.startswith("wait@") for name in names)
        # Every span of a decided commit is closed.
        assert all(span.end is not None for span in root.walk())

    def test_in_doubt_window_span_covers_open_to_resolve(self):
        _, tracer, handle = self.crash_scenario()
        windows = [
            span
            for span in tracer.in_doubt_windows()
            if span.attrs.get("live")
        ]
        assert len(windows) == 1
        window = windows[0]
        assert window.txn == handle.txn
        assert window.site == "site-1"
        assert window.end is not None and window.duration > 0
        assert window.attrs["committed"] is False
        root = tracer.roots[handle.txn]
        # The window outlives the root (presumed abort decided earlier).
        assert window.end > root.end

    def test_wait_span_closed_by_wait_timeout(self):
        _, tracer, handle = self.crash_scenario()
        root = tracer.roots[handle.txn]
        waits = [s for s in root.children if s.name == "wait@site-1"]
        assert len(waits) == 1
        assert waits[0].attrs["ended_by"] == "wait-timeout"

    def test_overflow_abort_annotates_root_span(self):
        from repro.txn.config import ProtocolConfig

        config = ProtocolConfig(max_alternatives=1)
        system = DistributedSystem.build(
            sites=3,
            items={f"item-{index}": 100 for index in range(3)},
            seed=42,
            jitter=0.0,
            config=config,
        )
        tracer = SpanTracer(system.bus)
        # Strand a transfer to make item-1 a polyvalue, then touch it:
        # any partitioning read overflows a budget of 1.
        system.submit(move("item-0", "item-1", 30))
        system.run_for(0.035)
        system.crash_site("site-0")
        system.run_for(1.0)
        handle = system.submit(increment("item-1"), at="site-1")
        run_to_decision(system, handle)
        root = tracer.roots[handle.txn]
        assert root.attrs["outcome"] == "aborted"
        assert root.attrs["overflow"] is True
        assert root.attrs["overflow_limit"] == 1
        assert "fan-out overflow" in root.attrs["reason"]
        # The stranded transfer's root is NOT marked.
        others = [r for t, r in tracer.roots.items() if t != handle.txn]
        assert all("overflow" not in r.attrs for r in others)

    def test_overload_window_span_covers_block_to_resolution(self):
        from repro.txn.config import ProtocolConfig

        config = ProtocolConfig(polyvalue_budget=0)
        system = DistributedSystem.build(
            sites=3,
            items={f"item-{index}": 100 for index in range(6)},
            seed=42,
            jitter=0.0,
            config=config,
        )
        tracer = SpanTracer(system.bus)
        system.submit(move("item-0", "item-1", 10))
        system.submit(move("item-3", "item-4", 10))
        system.run_for(0.035)
        system.crash_site("site-0")
        system.run_for(2.0)
        # Budget 0: both wait-timeouts at site-1 fell back to blocking.
        windows = tracer.overload_windows()
        assert len(windows) == 2
        assert all(w.site == "site-1" for w in windows)
        assert all(w.attrs == {"budget": 0, "polyvalues": 0} for w in windows)
        assert all(w.end is None for w in windows)  # still blocked
        # Recovery lets the outcome-query loop resolve both; the spans
        # close with the participant's final WAIT → IDLE trigger.
        system.recover_site("site-0")
        system.run_for(6.0)
        assert all(w.end is not None for w in windows)
        assert all(w.attrs["ended_by"] in ("complete", "abort") for w in windows)
        # The window outlives its root span (presumed abort decided
        # at the coordinator long before the participant learns it).
        for window in windows:
            root = tracer.roots[window.txn]
            assert root.end is not None
            assert window.end >= root.end

    def test_render_and_to_dicts(self):
        _, tracer, handle = self.crash_scenario()
        text = tracer.render(handle.txn)
        assert f"txn:{handle.txn}" in text
        assert "in-doubt@site-1" in text
        dumped = tracer.to_dicts()
        assert json.dumps(dumped)  # JSON-safe
        assert any(d["txn"] == handle.txn for d in dumped)

    def test_detach(self):
        system, log = observed_system()
        tracer = SpanTracer(system.bus)
        tracer.detach()
        handle = system.submit(move("a", "b", 3))
        run_to_decision(system, handle)
        assert tracer.roots == {}
        assert len(log) > 0  # other subscribers unaffected


class TestCampaignMetrics:
    def drive(self, bus):
        bus.emit("campaign.start", time=0.0, label="chaos", trials=3,
                 jobs=2, chunks=2)
        bus.emit("campaign.trial", time=0.1, label="chaos", index=0, ok=True)
        bus.emit("campaign.trial", time=0.2, label="chaos", index=1, ok=True)
        bus.emit("campaign.trial", time=0.3, label="chaos", index=2,
                 ok=False, error="worker died (exit 9)")
        bus.emit("campaign.chunk", time=0.4, label="chaos", chunk=0, ok=True)
        bus.emit("campaign.chunk", time=0.5, label="chaos", chunk=1, ok=False)

    def test_folds_campaign_events_into_registry(self):
        from repro.obs.export import CampaignMetrics

        bus = EventBus()
        cm = CampaignMetrics(bus)
        self.drive(bus)
        summary = cm.summary()
        assert summary["campaigns"] == 1
        assert summary["campaigns_active"] == 1  # no campaign.done yet
        assert summary["trials"] == 3
        assert summary["trials_ok"] == 2
        assert summary["trials_failed"] == 1
        assert summary["chunks"] == 2
        assert summary["chunks_failed"] == 1
        bus.emit("campaign.done", time=0.6, label="chaos", trials=3,
                 failures=1)
        assert cm.summary()["campaigns_active"] == 0

    def test_flows_through_prometheus_and_report(self):
        from repro.obs.export import CampaignMetrics

        bus = EventBus()
        cm = CampaignMetrics(bus)
        self.drive(bus)
        text = prometheus_text(cm.registry)
        assert "# TYPE repro_campaigns_total counter" in text
        assert 'repro_campaigns_total{label="chaos"} 1' in text
        assert (
            'repro_campaign_trials_total{label="chaos",status="failed"} 1'
            in text
        )
        assert "repro_campaigns_active 1" in text
        report = render_report(cm)
        assert "trials_failed" in report

    def test_live_campaign_feeds_metrics(self):
        from repro.obs.export import CampaignMetrics
        from repro.parallel import run_trials

        bus = EventBus()
        cm = CampaignMetrics(bus)
        outcome = run_trials(
            _square, [1, 2, 3], jobs=1, label="sq", bus=bus
        )
        assert outcome.results == [1, 4, 9]
        summary = cm.summary()
        assert summary["trials"] == 3 and summary["trials_ok"] == 3
        assert summary["campaigns_active"] == 0

    def test_detach_stops_folding(self):
        from repro.obs.export import CampaignMetrics

        bus = EventBus()
        cm = CampaignMetrics(bus)
        cm.detach()
        self.drive(bus)
        assert cm.summary()["trials"] == 0


def _square(value):
    return value * value


class TestExporters:
    def test_events_to_jsonl_round_trips(self):
        system, log = observed_system()
        handle = system.submit(move("a", "b", 3))
        run_to_decision(system, handle)
        text = events_to_jsonl(log.events)
        lines = [json.loads(line) for line in text.splitlines()]
        assert len(lines) == len(log)
        assert lines[0]["name"] == "txn.submitted"
        assert all("time" in line and "name" in line for line in lines)

    def test_prometheus_text_structure(self):
        system, _ = observed_system()
        handle = system.submit(move("a", "b", 3))
        run_to_decision(system, handle)
        text = prometheus_text(system.metrics.registry)
        assert "# TYPE repro_transactions_total counter" in text
        assert (
            'repro_transactions_total{site="site-0",outcome="committed"} 1'
            in text
        )
        assert "# TYPE repro_commit_latency_seconds histogram" in text
        assert 'repro_commit_latency_seconds_bucket{site="site-0",le="+Inf"} 1' in text
        assert 'repro_commit_latency_seconds_count{site="site-0"} 1' in text
        # Bucket counts are cumulative and end at the overall count.
        bucket_lines = [
            line
            for line in text.splitlines()
            if line.startswith("repro_commit_latency_seconds_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in bucket_lines]
        assert counts == sorted(counts)
        assert counts[-1] == 1

    def test_prometheus_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("weird_total", 'say "hi"\nplease', ("tag",)).inc(
            tag='a"b\\c'
        )
        text = prometheus_text(registry)
        assert '# HELP weird_total say "hi"\\nplease' in text
        assert 'weird_total{tag="a\\"b\\\\c"} 1' in text

    def test_render_report_shows_headlines_and_histograms(self):
        system, _ = observed_system()
        handle = system.submit(move("a", "b", 3))
        run_to_decision(system, handle)
        text = render_report(system.metrics)
        assert "submitted" in text
        assert "repro_commit_latency_seconds" in text
        assert "p95" in text


class TestCollectorCompatibility:
    def test_legacy_attribute_api_still_works(self):
        metrics = DistributedSystem.build(
            sites=1, items={"a": 1}, seed=0
        ).metrics
        # The counts are read-only properties; the hooks write them.
        metrics.lock_conflict()
        metrics.unilateral_decision()
        metrics.unilateral_decision()
        metrics.add_blocked_item_seconds(1.5)
        assert metrics.lock_conflict_aborts == 1
        assert metrics.unilateral_decisions == 2
        assert metrics.blocked_item_seconds == pytest.approx(1.5)

    def test_summary_keys_unchanged(self):
        system, _ = observed_system()
        handle = system.submit(move("a", "b", 3))
        run_to_decision(system, handle)
        summary = system.metrics.summary()
        assert summary["submitted"] == 1
        assert summary["committed"] == 1
        assert set(summary) == {
            "submitted", "committed", "aborted", "commit_rate",
            "polytransactions", "polyvalues_installed",
            "polyvalues_resolved", "lock_conflict_aborts",
            "notify_retransmissions", "fanout_overflows",
            "overload_blocks", "certain_output_fraction",
            "unilateral_decisions", "inconsistent_decisions",
        }

    def test_site_labels_reach_the_registry(self):
        system, _ = observed_system()
        handle = system.submit(move("a", "b", 3))
        run_to_decision(system, handle)
        decided = system.metrics.registry.get("repro_transactions_total")
        assert decided.total(site="site-0", outcome="committed") == 1
