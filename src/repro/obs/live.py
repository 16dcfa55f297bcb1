"""The live dashboard: the obs event bus over HTTP, zero dependencies.

``python -m repro serve-dash`` stands up a small web dashboard on the
package's one HTTP server (:mod:`repro.obs.httpd`, an asyncio
responder with server-sent events; no external packages) and streams
the :class:`~repro.obs.events.EventBus` of a running scenario or
campaign into it, live:

* ``/`` — a single self-contained HTML page: campaign progress, txn
  commit/abort rates, open in-doubt windows, polyvalue counts and
  trial verdicts, updating over SSE;
* ``/events`` — the raw event stream in ``text/event-stream`` framing:
  a ``dash.hello`` frame with the current state, then one JSON object
  per ``data:`` frame (exactly
  :func:`~repro.obs.export.event_to_dict`'s rendering);
* ``/state.json`` — the :class:`LiveState` aggregate snapshot;
* ``/health`` — liveness probe.

The split follows the web backend/frontend separation of SimCash-style
experiment platforms, shrunk to the stdlib: the *backend* is the bus
(the simulation thread emits; subscribers enqueue), the *frontend* is
whatever consumes ``/events`` — the built-in page, ``curl``, or a real
dashboard.

Threading contract: the server runs on one event loop, the simulated
scenario on one driver thread, whatever the number of clients.  The
driver delivers bus events synchronously: :class:`LiveState` takes a
lock per event, and the broker hands each rendered frame to the loop
with ``call_soon_threadsafe`` into bounded per-client queues, so the
simulation never blocks on a slow browser — a client that falls more
than ``queue_size`` frames behind loses the oldest ones.
"""

from __future__ import annotations

import asyncio
import threading
from collections import Counter, deque
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro.obs.events import EventBus, ObsEvent
from repro.obs.export import event_to_dict
from repro.obs.httpd import HttpError, HttpServer, Reply, json_reply


#: Event names kept in the snapshot's ring of recent events.
_RECENT = frozenset((
    "campaign.trial", "campaign.done", "indoubt.open", "indoubt.close",
    "txn.aborted", "site.crash",
))


class LiveState:
    """A thread-safe rolling aggregate of the event stream.

    Subscribe :meth:`on_event` to any number of buses (each scenario
    iteration of the dashboard driver builds a fresh system with its
    own bus); :meth:`snapshot` renders the totals the dashboard shows:
    transaction commit/abort counts, the set of *currently open*
    in-doubt windows, polyvalue installs/resolves, campaign progress
    per label, and per-trial verdict counts.
    """

    def __init__(self, keep_events: int = 50) -> None:
        self._lock = threading.Lock()
        self.events_seen = 0
        self.last_time = 0.0
        self._counts: Counter[str] = Counter()
        self._open_windows: Dict[Tuple[str, str], float] = {}
        self.campaigns: Dict[str, Dict[str, Any]] = {}
        self._recent: Deque[Dict[str, Any]] = deque(maxlen=keep_events)

    # -- event folding -------------------------------------------------

    def on_event(self, event: ObsEvent) -> None:
        name = event.name
        with self._lock:
            self.events_seen += 1
            self.last_time = event.time
            self._counts[name] += 1
            window = (event.txn or "", event.site or "")
            if name == "indoubt.open":
                self._open_windows[window] = event.time
            elif name == "indoubt.close":
                self._open_windows.pop(window, None)
            elif name.startswith("campaign."):
                self._on_campaign(name, event)
            if name in _RECENT:
                self._recent.append(event_to_dict(event))

    def _on_campaign(self, name: str, event: ObsEvent) -> None:
        attrs = event.attrs
        label = str(attrs.get("label", "campaign"))
        start = name == "campaign.start"
        if start or label not in self.campaigns:
            # A fresh campaign under a reused label restarts its bar.
            self.campaigns[label] = {
                "trials": int(attrs.get("trials", 0)) if start else 0,
                "jobs": int(attrs.get("jobs", 1)) if start else 1,
                "done": 0, "ok": 0, "failed": 0, "chunks": 0,
                "finished": False, "failed_indices": [],
            }
        entry = self.campaigns[label]
        if name == "campaign.trial":
            entry["done"] += 1
            if attrs.get("ok"):
                entry["ok"] += 1
            else:
                entry["failed"] += 1
                entry["failed_indices"].append(int(attrs.get("index", -1)))
                del entry["failed_indices"][:-20]
        elif name == "campaign.chunk":
            entry["chunks"] += 1
        elif name == "campaign.done":
            entry["finished"] = True

    # -- queries -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-safe dict of everything the dashboard renders."""
        with self._lock:
            count = self._counts
            txns = {
                outcome: count[f"txn.{outcome}"]
                for outcome in ("submitted", "committed", "aborted")
            }
            decided = txns["committed"] + txns["aborted"]
            installed = count["polyvalue.install"]
            resolved = count["polyvalue.resolve"]
            return {
                "events_seen": self.events_seen,
                "sim_time": self.last_time,
                "txns": txns,
                "commit_rate": txns["committed"] / decided if decided else None,
                "in_doubt": {
                    "opened": count["indoubt.open"],
                    "closed": count["indoubt.close"],
                    "open": len(self._open_windows),
                    "open_windows": [
                        {"txn": txn, "site": site, "since": since}
                        for (txn, site), since in sorted(
                            self._open_windows.items()
                        )
                    ],
                },
                "polyvalues": {
                    "installed": installed,
                    "resolved": resolved,
                    "current": max(0, installed - resolved),
                },
                "sites": {
                    "crashes": count["site.crash"],
                    "recoveries": count["site.recover"],
                },
                "drops": count["msg.drop"],
                "overload_blocks": count["overload.block"],
                "overflows": count["txn.overflow"],
                "campaigns": {
                    label: dict(entry)
                    for label, entry in self.campaigns.items()
                },
                "recent": list(self._recent),
            }


#: The dashboard page: one self-contained HTML document, no external
#: assets, consuming ``/state.json`` (poll) and ``/events`` (SSE).
DASH_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro — live campaign telemetry</title>
<style>
  body { font-family: ui-monospace, SFMono-Regular, Menlo, monospace;
         margin: 1.5rem; background: #111418; color: #d7dce1; }
  h1 { font-size: 1.1rem; } h2 { font-size: 0.95rem; color: #8ab4f8; }
  .grid { display: grid; grid-template-columns: repeat(auto-fit,
          minmax(240px, 1fr)); gap: 1rem; }
  .card { background: #1a1f26; border: 1px solid #2a313b;
          border-radius: 6px; padding: 0.75rem 1rem; }
  .big { font-size: 1.6rem; } .ok { color: #81c995; }
  .bad { color: #f28b82; } .dim { color: #7d8590; font-size: 0.8rem; }
  table { border-collapse: collapse; width: 100%; font-size: 0.8rem; }
  td, th { text-align: left; padding: 0.15rem 0.5rem 0.15rem 0; }
  #log { max-height: 16rem; overflow-y: auto; font-size: 0.75rem;
         white-space: pre; }
  progress { width: 100%; }
</style>
</head>
<body>
<h1>repro — live campaign telemetry</h1>
<div class="grid">
  <div class="card"><h2>transactions</h2>
    <div class="big"><span id="committed" class="ok">0</span> /
      <span id="aborted" class="bad">0</span></div>
    <div class="dim">committed / aborted · rate
      <span id="commit-rate">–</span> · submitted
      <span id="submitted">0</span></div></div>
  <div class="card"><h2>in-doubt windows</h2>
    <div class="big" id="indoubt-open">0</div>
    <div class="dim">open now · <span id="indoubt-opened">0</span> opened ·
      <span id="indoubt-closed">0</span> closed</div></div>
  <div class="card"><h2>polyvalues</h2>
    <div class="big" id="poly-current">0</div>
    <div class="dim"><span id="poly-installed">0</span> installed ·
      <span id="poly-resolved">0</span> resolved</div></div>
  <div class="card"><h2>faults</h2>
    <div class="dim">crashes <span id="crashes">0</span> ·
      drops <span id="drops">0</span> ·
      overload blocks <span id="overload">0</span> ·
      overflows <span id="overflows">0</span></div></div>
</div>
<h2>campaigns</h2>
<div id="campaigns" class="card">no campaign events yet</div>
<h2>event stream <span class="dim">(<span id="seen">0</span> events,
  sim t=<span id="sim-time">0</span>s)</span></h2>
<div id="log" class="card"></div>
<script>
  const $ = (id) => document.getElementById(id);
  function renderState(s) {
    $("committed").textContent = s.txns.committed;
    $("aborted").textContent = s.txns.aborted;
    $("submitted").textContent = s.txns.submitted;
    $("commit-rate").textContent =
      s.commit_rate === null ? "–" : (100 * s.commit_rate).toFixed(1) + "%";
    $("indoubt-open").textContent = s.in_doubt.open;
    $("indoubt-opened").textContent = s.in_doubt.opened;
    $("indoubt-closed").textContent = s.in_doubt.closed;
    $("poly-current").textContent = s.polyvalues.current;
    $("poly-installed").textContent = s.polyvalues.installed;
    $("poly-resolved").textContent = s.polyvalues.resolved;
    $("crashes").textContent = s.sites.crashes;
    $("drops").textContent = s.drops;
    $("overload").textContent = s.overload_blocks;
    $("overflows").textContent = s.overflows;
    $("seen").textContent = s.events_seen;
    $("sim-time").textContent = s.sim_time.toFixed(2);
    const labels = Object.keys(s.campaigns);
    if (labels.length) {
      $("campaigns").innerHTML = labels.map((label) => {
        const c = s.campaigns[label];
        const pct = c.trials ? Math.round(100 * c.done / c.trials) : 0;
        return `<div><b>${label}</b> — ${c.done}/${c.trials} trials ` +
          `(<span class="ok">${c.ok} ok</span>, ` +
          `<span class="bad">${c.failed} failed</span>, jobs=${c.jobs}` +
          `${c.finished ? ", finished" : ""})` +
          `<progress max="100" value="${pct}"></progress></div>`;
      }).join("");
    }
  }
  async function poll() {
    try {
      renderState(await (await fetch("state.json")).json());
    } catch (e) { /* server going away is fine */ }
    setTimeout(poll, 500);
  }
  poll();
  const log = $("log");
  const source = new EventSource("events");
  source.onmessage = (message) => {
    const atBottom =
      log.scrollHeight - log.scrollTop - log.clientHeight < 40;
    log.textContent += message.data + "\\n";
    const lines = log.textContent.split("\\n");
    if (lines.length > 400)
      log.textContent = lines.slice(-400).join("\\n");
    if (atBottom) log.scrollTop = log.scrollHeight;
  };
</script>
</body>
</html>
"""


class DashboardServer(HttpServer):
    """The dashboard's routes; one server per ``serve-dash`` invocation.

    Owns the :class:`LiveState` aggregate and the :class:`SSEBroker`;
    anything that builds an observed system calls
    ``server.subscribe(system.bus)``.  ``port=0`` binds an ephemeral
    port (tests); :meth:`start` sets the bound one.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8537,
        *,
        verbose: bool = False,
    ) -> None:
        super().__init__(host=host, port=port)
        self.state = LiveState()
        self.verbose = verbose

    def subscribe(self, bus: EventBus) -> None:
        """Fold *bus* into the aggregate and stream it to SSE clients
        (in place of the bus subscribed before)."""
        bus.subscribe(self.state.on_event)
        self.broker.follow(bus)

    async def route(
        self, method: str, path: str, body: Optional[Dict[str, Any]]
    ) -> Reply:
        if method != "GET":
            raise HttpError(405, f"unsupported method {method}")
        if path in ("/", "/index.html"):
            return Reply(200, DASH_PAGE.encode("utf-8"), "text/html; charset=utf-8")
        if path == "/state.json":
            return json_reply(self.state.snapshot())
        if path == "/health":
            return json_reply({"ok": True, "clients": self.broker.clients})
        if path == "/events":
            return self.broker.reply(self.state.snapshot())
        return await super().route(method, path, body)


# ----------------------------------------------------------------------
# The serve-dash driver
# ----------------------------------------------------------------------


def _drive_demo_scenario(
    server: DashboardServer, seed: int, stop: threading.Event
) -> None:
    """Loop the canned coordinator-crash scenario onto the dashboard.

    Each iteration builds a fresh seeded system, attaches the server's
    subscribers to its bus, and walks the demo failure story (traffic,
    crash mid-commit, in-doubt window, recovery, resolution).
    """
    from repro.txn.system import DistributedSystem
    from repro.txn.transaction import Transaction

    iteration = 0
    while not stop.is_set():
        system = DistributedSystem.build(
            sites=3,
            items={"alice": 100, "bob": 100, "carol": 100},
            seed=seed + iteration,
            jitter=0.0,
        )
        server.subscribe(system.bus)

        def bump(ctx):
            ctx.write("carol", ctx.read("carol") + 1)

        def transfer(ctx):
            a = ctx.read("alice")
            ctx.write("alice", a - 25)
            ctx.write("bob", ctx.read("bob") + 25)

        for _ in range(3):
            if stop.is_set():
                return
            system.submit(Transaction(body=bump, items=("carol",)))
            system.run_for(0.2)
            stop.wait(0.15)  # pace the stream for human eyes
        system.submit(Transaction(body=transfer, items=("alice", "bob")))
        system.run_for(0.035)
        system.crash_site("site-0")
        system.run_for(1.0)
        stop.wait(0.5)
        system.recover_site("site-0")
        system.run_for(5.0)
        stop.wait(0.5)
        iteration += 1


def _drive_chaos_campaign(
    server: DashboardServer,
    seed: int,
    trials: int,
    jobs: Optional[int],
    stop: threading.Event,
) -> None:
    """Run chaos campaigns onto the dashboard until stopped."""
    from repro.chaos import run_campaign

    bus = EventBus()
    server.subscribe(bus)
    iteration = 0
    while not stop.is_set():
        run_campaign(
            campaign_seed=seed + iteration,
            trials=trials,
            smoke=True,
            jobs=jobs,
            bus=bus,
        )
        iteration += 1
        stop.wait(1.0)


def serve_dash(
    *,
    host: str = "127.0.0.1",
    port: int = 8537,
    scenario: str = "demo",
    seed: int = 7,
    trials: int = 2,
    jobs: Optional[int] = 1,
    duration: Optional[float] = None,
    verbose: bool = False,
    ready: Optional[threading.Event] = None,
    on_start: Optional[Callable[[DashboardServer], None]] = None,
) -> DashboardServer:
    """Run the dashboard plus a driving scenario until interrupted.

    *scenario* is ``demo`` (the looping coordinator-crash walkthrough)
    or ``chaos`` (looping smoke chaos campaigns with live ``campaign.*``
    progress).  The server runs on an event loop in the calling thread,
    the scenario on one driver thread.  *duration* bounds wall-clock
    seconds (None = until Ctrl-C); *ready*, when given, is set once the
    server is listening (tests); *on_start* is called with the
    listening server (the CLI prints the URL there).  Returns the
    (stopped) server.
    """
    if scenario == "demo":
        drive, args = _drive_demo_scenario, (seed,)
    elif scenario == "chaos":
        drive, args = _drive_chaos_campaign, (seed, trials, jobs)
    else:
        raise ValueError(f"unknown serve-dash scenario {scenario!r}")
    server = DashboardServer(host, port, verbose=verbose)
    stop = threading.Event()
    driver = threading.Thread(
        target=drive, args=(server, *args, stop), name="repro-dash", daemon=True
    )

    async def main() -> None:
        await server.start()
        try:
            if on_start is not None:
                on_start(server)
            driver.start()
            if ready is not None:
                ready.set()
            if duration is None:
                await asyncio.Event().wait()
            else:
                await asyncio.sleep(duration)
        finally:
            stop.set()
            await server.close()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    finally:
        stop.set()
        if driver.is_alive():
            driver.join(timeout=5.0)
    return server
