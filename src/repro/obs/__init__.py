"""Observability: structured events, spans, labeled metrics, exporters.

The unified observability layer of the reproduction, threaded through
every component of the full-system simulator (see
``docs/observability.md``):

* :mod:`repro.obs.events` — the structured :class:`EventBus` every
  layer emits typed, timestamped lifecycle events onto;
* :mod:`repro.obs.spans` — :class:`SpanTracer`, which stitches those
  events into per-transaction span trees (phases per site, in-doubt
  windows);
* :mod:`repro.obs.registry` — the labeled :class:`MetricsRegistry`
  (counters / gauges / fixed-bucket histograms) that
  :class:`~repro.metrics.collector.MetricsCollector` is built on;
* :mod:`repro.obs.export` — JSON-lines, Prometheus text exposition and
  human report renderings;
* :mod:`repro.obs.store` — the SQLite-backed :class:`CampaignStore`
  every campaign driver records runs/trials/metrics/verdicts into, and
  the :class:`CampaignRecorder` bus subscriber that feeds it;
* :mod:`repro.obs.httpd` — the package's one HTTP server: an asyncio
  responder (:class:`HttpServer`) that answers JSON, text or a
  server-sent-event stream fed from a bus by :class:`SSEBroker`; both
  ``repro serve`` and ``repro serve-dash`` run on it;
* :mod:`repro.obs.live` — the zero-dependency live dashboard
  (``repro serve-dash``) streaming the bus over SSE.

With no subscribers attached the bus is falsy and instrumented call
sites skip event construction entirely, so unobserved simulations pay
only a truthiness check.
"""

from repro.obs.events import TAXONOMY, EventBus, EventLog, ObsEvent
from repro.obs.export import (
    CampaignMetrics,
    event_to_dict,
    events_to_jsonl,
    prometheus_text,
    render_report,
)
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.obs.spans import Span, SpanTracer
from repro.obs.store import (
    SCHEMA_VERSION,
    CampaignRecorder,
    CampaignStore,
    RunRecord,
    StoreError,
    TrialRecord,
    VerdictRecord,
    default_store_path,
)
from repro.obs.httpd import HttpServer, SSEBroker
from repro.obs.live import DashboardServer, LiveState, serve_dash

__all__ = [
    "TAXONOMY",
    "EventBus",
    "EventLog",
    "ObsEvent",
    "CampaignMetrics",
    "event_to_dict",
    "events_to_jsonl",
    "prometheus_text",
    "render_report",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "Span",
    "SpanTracer",
    "SCHEMA_VERSION",
    "CampaignRecorder",
    "CampaignStore",
    "RunRecord",
    "StoreError",
    "TrialRecord",
    "VerdictRecord",
    "default_store_path",
    "DashboardServer",
    "HttpServer",
    "LiveState",
    "SSEBroker",
    "serve_dash",
]
