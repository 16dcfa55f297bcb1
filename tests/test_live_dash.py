"""Tests for the live dashboard (repro.obs.live) and its SSE broker."""

import asyncio
import contextlib
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs.events import EventBus
from repro.obs.httpd import SSEBroker
from repro.obs.live import DASH_PAGE, DashboardServer, LiveState, serve_dash
from repro.txn.system import DistributedSystem

from tests.conftest import (
    move,
    open_event_stream,
    read_frames,
    run_to_decision,
)


class TestLiveState:
    def test_folds_a_real_crash_scenario(self):
        state = LiveState()
        system = DistributedSystem.build(
            sites=3, items={"a": 10, "b": 20, "c": 30}, seed=9, jitter=0.0
        )
        system.bus.subscribe(state.on_event)
        system.submit(move("a", "b", 3))
        system.run_for(0.035)
        system.crash_site("site-0")
        system.run_for(1.0)
        snap = state.snapshot()
        assert snap["txns"]["submitted"] == 1
        assert snap["sites"]["crashes"] == 1
        assert snap["in_doubt"]["open"] == 1
        (window,) = snap["in_doubt"]["open_windows"]
        assert window["site"] == "site-1"
        assert snap["polyvalues"]["current"] >= 1
        # Recovery closes the window and resolves the polyvalues.
        system.recover_site("site-0")
        system.run_for(5.0)
        snap = state.snapshot()
        assert snap["in_doubt"]["open"] == 0
        assert snap["polyvalues"]["current"] == 0
        assert snap["sites"]["recoveries"] == 1
        assert json.dumps(snap)  # JSON-safe end to end

    def test_commit_rate(self):
        state = LiveState()
        bus = EventBus()
        bus.subscribe(state.on_event)
        assert state.snapshot()["commit_rate"] is None
        bus.emit("txn.committed", time=0.1, txn="t1")
        bus.emit("txn.committed", time=0.2, txn="t2")
        bus.emit("txn.aborted", time=0.3, txn="t3")
        assert state.snapshot()["commit_rate"] == pytest.approx(2 / 3)

    def test_campaign_progress_resets_per_start(self):
        state = LiveState()
        bus = EventBus()
        bus.subscribe(state.on_event)
        for round_index in range(2):
            bus.emit("campaign.start", time=0.0, label="chaos", trials=2,
                     jobs=4, chunks=2)
            bus.emit("campaign.trial", time=0.1, label="chaos", index=0,
                     ok=True)
            bus.emit("campaign.trial", time=0.2, label="chaos", index=1,
                     ok=False, error="boom")
            bus.emit("campaign.done", time=0.3, label="chaos", trials=2,
                     failures=1)
        entry = state.snapshot()["campaigns"]["chaos"]
        # The second campaign.start reset the bar — no accumulation.
        assert entry["done"] == 2 and entry["trials"] == 2
        assert entry["ok"] == 1 and entry["failed"] == 1
        assert entry["jobs"] == 4 and entry["finished"] is True
        assert entry["failed_indices"] == [1]

    def test_recent_ring_is_bounded(self):
        state = LiveState(keep_events=5)
        bus = EventBus()
        bus.subscribe(state.on_event)
        for index in range(20):
            bus.emit("campaign.trial", time=float(index), label="x",
                     index=index, ok=True)
        recent = state.snapshot()["recent"]
        assert len(recent) == 5
        assert recent[-1]["index"] == 19


class TestSSEBroker:
    def test_fan_out_and_detach(self):
        async def scenario():
            broker = SSEBroker()
            bus = EventBus()
            broker.follow(bus)
            assert not bus  # nobody is watching: not subscribed
            a, b = broker.attach(), broker.attach()
            assert broker.clients == 2 and bus
            bus.emit("txn.committed", time=0.5, txn="t1")
            for client in (a, b):
                (frame,) = client.frames
                assert json.loads(frame[len("data: "):])["name"] == (
                    "txn.committed"
                )
                assert client.ready.is_set()
            broker.detach(b)
            bus.emit("txn.aborted", time=0.6, txn="t2")
            assert json.loads(a.frames[-1][len("data: "):])["name"] == (
                "txn.aborted"
            )
            assert len(b.frames) == 1
            broker.detach(a)
            assert not bus  # the last client left: unsubscribed again

        asyncio.run(scenario())

    def test_slow_client_sheds_oldest_never_blocks(self):
        async def scenario():
            broker = SSEBroker(queue_size=3)
            bus = EventBus()
            broker.follow(bus)
            client = broker.attach()
            for index in range(10):
                bus.emit("campaign.trial", time=float(index), label="x",
                         index=index, ok=True)
            return [json.loads(frame[len("data: "):]) for frame in client.frames]

        # Bounded at 3, keeping the newest frames.
        assert [frame["index"] for frame in asyncio.run(scenario())] == [7, 8, 9]


def _get(url, timeout=5.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.read()


@contextlib.contextmanager
def serving(server):
    """Run *server* on an event loop of its own thread."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(10.0)
    try:
        yield server
    finally:
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(10.0)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10.0)
        loop.close()


class TestDashboardServer:
    @pytest.fixture()
    def server(self):
        with serving(DashboardServer(port=0)) as server:  # ephemeral port
            yield server

    def test_healthz_page_and_state(self, server):
        status, body = _get(server.url + "health")
        assert status == 200 and json.loads(body)["ok"] is True
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "healthz")
        assert excinfo.value.code == 404
        excinfo.value.close()
        status, body = _get(server.url)
        assert status == 200
        assert b"live campaign telemetry" in body
        assert body.decode("utf-8") == DASH_PAGE
        status, body = _get(server.url + "state.json")
        assert status == 200
        assert json.loads(body)["txns"] == {
            "submitted": 0, "committed": 0, "aborted": 0,
        }
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "nope")
        assert excinfo.value.code == 404
        excinfo.value.close()

    def test_state_follows_a_subscribed_system(self, server):
        system = DistributedSystem.build(
            sites=3, items={"a": 10, "b": 0}, seed=3, jitter=0.0
        )
        server.subscribe(system.bus)
        handle = system.submit(move("a", "b", 4))
        run_to_decision(system, handle)
        _, body = _get(server.url + "state.json")
        snapshot = json.loads(body)
        assert snapshot["txns"]["committed"] == 1
        assert snapshot["events_seen"] > 0

    def test_sse_streams_hello_then_live_frames(self, server):
        bus = EventBus()
        server.subscribe(bus)
        conn, conn_file = open_event_stream(server.host, server.port)
        with conn, conn_file:
            (hello,) = read_frames(conn_file, 1)
            assert hello["name"] == "dash.hello"
            assert "state" in hello
            # Emitted on this thread, handed to the server's loop.
            bus.emit("campaign.trial", time=0.1, label="chaos", index=0,
                     ok=True)
            (frame,) = read_frames(conn_file, 1)
            assert frame["name"] == "campaign.trial"
            assert frame["index"] == 0 and frame["ok"] is True


class TestServeDash:
    def test_chaos_scenario_serves_live_campaign_events(self):
        ready = threading.Event()
        captured = {}

        def on_start(server):
            captured["url"] = server.url

        result = {}

        def run():
            result["server"] = serve_dash(
                port=0, scenario="chaos", seed=11, trials=1, jobs=1,
                duration=6.0, ready=ready, on_start=on_start,
            )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(timeout=10.0)
        url = captured["url"]
        status, _ = _get(url + "health")
        assert status == 200
        deadline = threading.Event()
        for _ in range(40):  # wait for the first campaign to land
            _, body = _get(url + "state.json")
            snapshot = json.loads(body)
            if snapshot["campaigns"].get("chaos", {}).get("done"):
                break
            deadline.wait(0.1)
        assert snapshot["campaigns"]["chaos"]["done"] >= 1
        assert snapshot["campaigns"]["chaos"]["failed"] == 0
        thread.join(timeout=15.0)
        assert not thread.is_alive()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown serve-dash scenario"):
            serve_dash(scenario="nope")

    def test_sse_clients_do_not_add_threads(self):
        ready = threading.Event()
        captured = {}
        thread = threading.Thread(
            target=serve_dash,
            kwargs=dict(
                port=0, scenario="demo", seed=3, duration=3.0, ready=ready,
                on_start=lambda server: captured.update(server=server),
            ),
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=10.0)
        server = captured["server"]
        before = threading.active_count()
        with contextlib.ExitStack() as stack:
            files = []
            for _ in range(8):
                conn, conn_file = open_event_stream(server.host, server.port)
                stack.enter_context(conn)
                files.append(stack.enter_context(conn_file))
            for conn_file in files:
                (hello,) = read_frames(conn_file, 1)
                assert hello["name"] == "dash.hello"
            assert server.broker.clients == 8
            # One loop thread, one driver thread, whatever the clients.
            assert threading.active_count() <= before
            # Every client follows the demo's live stream.
            for conn_file in files:
                assert read_frames(conn_file, 1)[0]["name"] != "dash.hello"
        thread.join(timeout=15.0)
        assert not thread.is_alive()
