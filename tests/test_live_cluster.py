"""LiveCluster: the polyvalue protocol on wall-clock asyncio sockets.

These tests exercise real TCP frames, real ``call_later`` timers, and
real durable checkpoint files — the same state machines the simulator
drives, but nothing simulated.  Timeouts in the configs are shrunken so
the wait-timeout/outcome-query paths fire within test budgets.
"""

from __future__ import annotations

import asyncio
import gc
import json
import sys
import urllib.request

import pytest

from repro.check import CheckContext, check_converged, failed
from repro.core.serialize import decode_state
from repro.live import ClusterThread, LiveCluster, LiveClusterError
from repro.live.client import poll_txn, request, transfer_script
from repro.live.wire import encode_envelope
from repro.net.message import Envelope
from repro.obs.events import EventBus
from repro.runtime import AsyncioRuntime
from repro.txn.config import ProtocolConfig
from repro.txn.protocol import Complete, OutcomeNotify, Ready
from repro.txn.timeouts import TimeoutPolicy
from repro.txn.transaction import TxnStatus
from repro.workloads.generator import RandomUpdateWorkload, WorkloadConfig

from tests.conftest import open_event_stream, read_frames


def fast_config() -> ProtocolConfig:
    return ProtocolConfig(
        wait_timeout=0.2,
        outcome_query_interval=0.25,
        timeout_policy=TimeoutPolicy(),
    )


def run(coro):
    return asyncio.run(coro)


class TestLiveCommit:
    def test_transfer_commits_and_applies(self):
        async def scenario():
            cluster = LiveCluster(sites=3, seed=1)
            await cluster.start()
            try:
                handle = cluster.submit_script(
                    transfer_script("acct-0", "acct-1", 7)
                )
                assert await cluster.wait_decided(handle, timeout=10.0)
                assert handle.status is TxnStatus.COMMITTED
                assert await cluster.wait_converged(timeout=10.0)
                return (
                    cluster.read_item("acct-0"),
                    cluster.read_item("acct-1"),
                    cluster.runtime.stats.as_dict(),
                )
            finally:
                await cluster.stop()

        a, b, stats = run(scenario())
        assert (a, b) == (93, 107)
        assert stats["sent"] > 0
        assert stats["handler_errors"] == 0

    def test_paxos_protocol_runs_live(self):
        async def scenario():
            cluster = LiveCluster(sites=3, seed=3, protocol="paxos")
            await cluster.start()
            try:
                handle = cluster.submit_script(
                    transfer_script("acct-0", "acct-2", 5)
                )
                assert await cluster.wait_decided(handle, timeout=10.0)
                assert handle.status is TxnStatus.COMMITTED
                assert await cluster.wait_converged(timeout=15.0)
                return cluster.read_item("acct-0"), cluster.read_item("acct-2")
            finally:
                await cluster.stop()

        assert run(scenario()) == (95, 105)

    def test_pathsensitive_is_rejected_as_sim_only(self):
        with pytest.raises(LiveClusterError):
            LiveCluster(sites=3, protocol="pathsensitive")

    def test_unknown_item_and_site_rejected(self):
        async def scenario():
            cluster = LiveCluster(sites=2, seed=0)
            await cluster.start()
            try:
                with pytest.raises(LiveClusterError):
                    cluster.submit_script(
                        transfer_script("acct-0", "acct-1", 1), at="site-9"
                    )
                with pytest.raises(LiveClusterError):
                    cluster.crash("site-9")
            finally:
                await cluster.stop()

        run(scenario())


class TestLiveCrashRecovery:
    def test_coordinator_crash_restart_from_durable_files(self, tmp_path):
        async def scenario():
            cluster = LiveCluster(
                sites=3, seed=1, config=fast_config(), data_dir=str(tmp_path)
            )
            await cluster.start()
            try:
                first = cluster.submit_script(
                    transfer_script("acct-0", "acct-1", 7)
                )
                assert await cluster.wait_decided(first, timeout=10.0)
                assert first.status is TxnStatus.COMMITTED

                second = cluster.submit_script(
                    transfer_script("acct-0", "acct-3", 3), at="site-0"
                )
                cluster.crash("site-0")
                assert second.status is TxnStatus.ABORTED
                assert "presumed abort" in second.abort_reason
                assert cluster.down_sites() == ["site-0"]

                await asyncio.sleep(0.3)
                cluster.restart("site-0")
                assert cluster.down_sites() == []
                assert await cluster.wait_converged(timeout=15.0)
                return cluster.database_state()
            finally:
                await cluster.stop()

        state = run(scenario())
        # The committed transfer survives the crash (restored from the
        # checkpoint file); the aborted one leaves no trace.
        assert state["acct-0"] == 93
        assert state["acct-1"] == 107
        assert state["acct-3"] == 100
        files = sorted(p.name for p in tmp_path.glob("site-*.json"))
        assert files == [
            "site-site-0.json", "site-site-1.json", "site-site-2.json",
        ]

    def test_whole_cluster_restart_restores_state_from_disk(self, tmp_path):
        async def first_life():
            cluster = LiveCluster(sites=3, seed=1, data_dir=str(tmp_path))
            await cluster.start()
            try:
                handle = cluster.submit_script(
                    transfer_script("acct-0", "acct-1", 9)
                )
                assert await cluster.wait_decided(handle, timeout=10.0)
                assert await cluster.wait_converged(timeout=10.0)
                return cluster.database_state()
            finally:
                await cluster.stop()

        async def second_life():
            cluster = LiveCluster(sites=3, seed=1, data_dir=str(tmp_path))
            await cluster.start()
            try:
                return cluster.database_state()
            finally:
                await cluster.stop()

        before = run(first_life())
        after = run(second_life())
        assert after == before
        assert after["acct-0"] == 91

    def test_converged_memory_matches_the_site_files(self, tmp_path):
        """Straight after ``wait_decided`` + ``wait_converged`` nothing is
        decided-but-uninstalled: what is in memory is what is on disk."""

        async def scenario():
            cluster = LiveCluster(sites=3, seed=5, data_dir=str(tmp_path))
            await cluster.start()
            try:
                handle = cluster.submit_script(
                    transfer_script("acct-0", "acct-4", 11)
                )
                assert await cluster.wait_decided(handle, timeout=10.0)
                assert await cluster.wait_converged(timeout=10.0)
                on_disk = {}
                for path in tmp_path.glob("site-*.json"):
                    on_disk.update(
                        decode_state(json.loads(path.read_text())["values"])
                    )
                return cluster.database_state(), on_disk
            finally:
                await cluster.stop()

        in_memory, on_disk = run(scenario())
        assert in_memory["acct-0"] == 89 and in_memory["acct-4"] == 111
        assert on_disk == in_memory

    def test_wait_timeout_installs_polyvalue_over_real_sockets(self):
        """The paper's §3.1 mechanism, live: a participant that misses
        Complete times out of the wait phase, installs a polyvalue, and
        the §3.3 outcome machinery resolves it once messages flow."""

        async def scenario():
            cluster = LiveCluster(sites=3, seed=4, config=fast_config())
            await cluster.start()
            try:
                cluster.runtime.set_fault(
                    lambda env: env.recipient == "site-2"
                    and isinstance(env.payload, (Complete, OutcomeNotify))
                )
                handle = cluster.submit_script(
                    transfer_script("acct-0", "acct-2", 6)
                )
                assert await cluster.wait_decided(handle, timeout=10.0)
                assert handle.status is TxnStatus.COMMITTED

                deadline = cluster.runtime.now + 8.0
                while (
                    cluster.total_polyvalues() == 0
                    and cluster.runtime.now < deadline
                ):
                    await asyncio.sleep(0.02)
                polyvalued = cluster.describe_item("acct-2")["polyvalue"]

                cluster.runtime.set_fault(None)
                converged = await cluster.wait_converged(timeout=15.0)
                return polyvalued, converged, cluster.read_item("acct-2")
            finally:
                await cluster.stop()

        polyvalued, converged, value = run(scenario())
        assert polyvalued, "site-2 should have installed a polyvalue"
        assert converged
        assert value == 106


class TestAsyncioQuiescence:
    """``AsyncioRuntime.quiescent()`` — what ``converged()`` stands on."""

    def test_not_quiescent_between_send_and_dispatch(self):
        async def scenario():
            rt = AsyncioRuntime()
            await rt.start()
            await rt.listen("site-0")
            received = []
            rt.register("site-0", received.append)
            try:
                assert rt.quiescent()
                rt.send("site-0", "site-0", Ready(txn="T1", site="site-0"))
                in_flight = rt.quiescent()
                while not received:
                    await asyncio.sleep(0)
                return in_flight, rt.quiescent()
            finally:
                await rt.close()

        assert run(scenario()) == (False, True)

    def test_armed_protocol_timer_counts_until_fired_or_cancelled(self):
        async def scenario():
            rt = AsyncioRuntime()
            await rt.start()
            fired = []
            try:
                rt.schedule(30.0, lambda: None, label="outcome-maintenance:s")
                background_only = rt.quiescent()
                timer = rt.schedule(0.01, lambda: fired.append(1), label="wait-timeout:T1")
                armed = rt.quiescent()
                while not fired:
                    await asyncio.sleep(0.005)
                after_fire = rt.quiescent()
                cancelled = rt.schedule(30.0, lambda: None, label="wait-timeout:T2")
                rearmed = rt.quiescent()
                cancelled.cancel()
                timer.cancel()  # cancelling a fired timer is harmless
                return background_only, armed, after_fire, rearmed, rt.quiescent()
            finally:
                await rt.close()

        assert run(scenario()) == (True, False, True, False, True)


    # -- the loss paths: every frame counted in is counted out ---------

    @staticmethod
    async def _pair():
        """A started runtime with two listening sites; site-1 records."""
        rt = AsyncioRuntime()
        await rt.start()
        received = []
        for site in ("site-0", "site-1"):
            await rt.listen(site)
        rt.register("site-1", received.append)
        return rt, received

    @staticmethod
    async def _settled(rt, timeout=2.0):
        """Bounded wait for quiescence; the verdict, not an exception."""
        deadline = rt.now + timeout
        while not rt.quiescent() and rt.now < deadline:
            await asyncio.sleep(0.005)
        return rt.quiescent()

    READY = Ready(txn="T1", site="site-0")

    def test_sends_that_never_become_frames_are_dropped_uncounted(self):
        async def scenario():
            rt, received = await self._pair()
            try:
                rt.mark_down("site-0")
                rt.send("site-0", "site-1", self.READY)
                rt.send("site-1", "nowhere", self.READY)
                rt.send("site-1", "site-1", object())  # not encodable
                return rt.quiescent(), rt._in_flight, rt.stats.as_dict()
            finally:
                await rt.close()

        quiescent, in_flight, stats = run(scenario())
        assert quiescent and in_flight == 0
        assert (stats["sent"], stats["dropped"]) == (0, 3)

    def test_frame_to_a_closed_server_is_lost_at_connect(self):
        async def scenario():
            rt, received = await self._pair()
            try:
                rt._servers["site-1"].close()
                await rt._servers["site-1"].wait_closed()
                rt.send("site-0", "site-1", self.READY)
                in_flight = rt._in_flight
                settled = await self._settled(rt)
                return in_flight, settled, rt._in_flight, received, rt.stats.as_dict()
            finally:
                await rt.close()

        in_flight, settled, left, received, stats = run(scenario())
        assert in_flight == 1
        assert settled and left == 0 and received == []
        assert (stats["sent"], stats["dropped"], stats["reconnects"]) == (1, 1, 0)

    async def _warm(self, rt, received):
        """Deliver one frame so the site-1 connection is cached."""
        rt.send("site-0", "site-1", self.READY)
        assert await self._settled(rt) and len(received) == 1

    def test_broken_cached_connection_reconnects_once_and_delivers(self):
        async def scenario():
            rt, received = await self._pair()
            try:
                await self._warm(rt, received)
                rt._writers["site-1"].close()
                rt.send("site-0", "site-1", self.READY)
                settled = await self._settled(rt)
                return settled, rt._in_flight, len(received), rt.stats.as_dict()
            finally:
                await rt.close()

        settled, left, delivered, stats = run(scenario())
        assert settled and left == 0 and delivered == 2
        assert (stats["dropped"], stats["reconnects"]) == (0, 1)

    def test_broken_connection_to_a_closed_server_loses_the_frame(self):
        async def scenario():
            rt, received = await self._pair()
            try:
                await self._warm(rt, received)
                rt._servers["site-1"].close()
                await rt._servers["site-1"].wait_closed()
                rt._writers["site-1"].close()
                rt.send("site-0", "site-1", self.READY)
                settled = await self._settled(rt)
                return settled, rt._in_flight, len(received), rt.stats.as_dict()
            finally:
                await rt.close()

        settled, left, delivered, stats = run(scenario())
        assert settled and left == 0 and delivered == 1
        assert (stats["sent"], stats["dropped"], stats["reconnects"]) == (2, 1, 0)

    def test_frame_is_lost_when_the_reconnected_write_fails_too(self, monkeypatch):
        open_connection = asyncio.open_connection

        async def open_broken(host, port):
            reader, writer = await open_connection(host, port)
            writer.close()
            await writer.wait_closed()
            return reader, writer

        async def scenario():
            rt, received = await self._pair()
            try:
                rt.send("site-0", "site-1", self.READY)
                settled = await self._settled(rt)
                return settled, rt._in_flight, received, rt.stats.as_dict()
            finally:
                await rt.close()

        monkeypatch.setattr(asyncio, "open_connection", open_broken)
        settled, left, received, stats = run(scenario())
        assert settled and left == 0 and received == []
        assert (stats["sent"], stats["dropped"], stats["reconnects"]) == (1, 1, 1)

    def test_frame_for_a_site_without_a_handler_is_dropped_at_dispatch(self):
        async def scenario():
            rt, received = await self._pair()
            try:
                del rt._handlers["site-1"]
                rt.send("site-0", "site-1", self.READY)
                in_flight = rt._in_flight
                settled = await self._settled(rt)
                return in_flight, settled, rt._in_flight, received, rt.stats.as_dict()
            finally:
                await rt.close()

        in_flight, settled, left, received, stats = run(scenario())
        assert in_flight == 1
        assert settled and left == 0 and received == []
        assert (stats["sent"], stats["delivered"], stats["dropped"]) == (1, 0, 1)


class TestBatchedTransport:
    """One buffer per peer, one write per loop tick: what the batching
    promises, pinned without wall-clock bounds."""

    _pair = staticmethod(TestAsyncioQuiescence._pair)
    _settled = staticmethod(TestAsyncioQuiescence._settled)

    @staticmethod
    async def _yields_until(ready, tries=1000):
        """Bare loop yields until *ready()*; bounded, so a transport that
        never gets there fails the test instead of hanging it."""
        for _ in range(tries):
            if ready():
                return True
            await asyncio.sleep(0)
        return ready()

    @staticmethod
    def _count_writes(monkeypatch):
        """The bytes of every transport write, in a list, in order."""
        writes = []
        write = asyncio.StreamWriter.write

        def counted(writer, data):
            writes.append(bytes(data))
            return write(writer, data)

        monkeypatch.setattr(asyncio.StreamWriter, "write", counted)
        return writes

    @pytest.mark.parametrize("connected", [False, True], ids=["cold", "warm"])
    def test_sends_from_one_callback_are_one_write(self, monkeypatch, connected):
        writes = self._count_writes(monkeypatch)
        order = [f"T{index}" for index in range(12)]

        async def scenario():
            rt, received = await self._pair()
            try:
                if connected:
                    rt.send("site-0", "site-1", Ready(txn="warm", site="site-0"))
                    assert await self._settled(rt)
                    received.clear()
                written, counted = len(writes), rt.stats.writes
                for txn in order:
                    rt.send("site-0", "site-1", Ready(txn=txn, site="site-0"))
                settled = await self._settled(rt)
                return (
                    settled,
                    len(writes) - written,
                    rt.stats.writes - counted,
                    [envelope.payload.txn for envelope in received],
                )
            finally:
                await rt.close()

        assert run(scenario()) == (True, 1, 1, order)

    @staticmethod
    def _frame(txn):
        blob = encode_envelope(
            Envelope(
                sender="site-0",
                recipient="site-1",
                payload=Ready(txn=txn, site="site-0"),
                sent_at=0.0,
            )
        )
        return len(blob).to_bytes(4, "big") + blob

    def test_reader_dispatches_every_frame_once_however_the_bytes_arrive(self):
        many = [f"M{index}" for index in range(40)]
        whole = b"".join(self._frame(txn) for txn in many)
        split = self._frame("S")
        # The second read completes the header and starts the body.
        parts = [split[:2], split[2:30], split[30:]]

        class Sink:
            def close(self):
                pass

        async def scenario():
            rt, received = await self._pair()
            reader = asyncio.StreamReader()
            chunks = []
            read = reader.read

            async def recorded(limit):
                chunk = await read(limit)
                chunks.append(chunk)
                return chunk

            reader.read = recorded
            rt._in_flight += len(many) + 1  # the frames "on the wire"
            serving = asyncio.ensure_future(rt._serve_connection(reader, Sink()))
            try:
                for data in [whole] + parts:
                    reader.feed_data(data)
                    seen = len(chunks)
                    await self._yields_until(lambda: len(chunks) > seen)
                reader.feed_eof()
                await serving
                return chunks, [envelope.payload.txn for envelope in received], rt
            finally:
                await rt.close()

        chunks, txns, rt = run(scenario())
        assert chunks == [whole] + parts + [b""]
        assert txns == many + ["S"]
        assert rt.quiescent() and rt.stats.delivered == len(many) + 1

    def test_log_record_reaches_the_file_before_its_frame_reaches_a_socket(
        self, tmp_path, monkeypatch
    ):
        log = tmp_path / "site-site-0.log"
        seen = []  # per socket write: the steps the log held at that moment
        write = asyncio.StreamWriter.write

        def logged_steps():
            data = log.read_bytes() if log.exists() else b""
            steps, offset = [], 0
            while offset < len(data):
                length = int.from_bytes(data[offset:offset + 4], "big")
                record = json.loads(data[offset + 8:offset + 8 + length])
                steps.append(record["set"]["step"])
                offset += 8 + length
            return steps

        def recording(writer, data):
            seen.append((logged_steps(), bytes(data)))
            return write(writer, data)

        monkeypatch.setattr(asyncio.StreamWriter, "write", recording)
        class Steps:
            """Durable state whose one write, the step, is marked."""

            # Padded so that a record is smaller than the site file: the
            # change is appended to the log, not compacted into the file.
            state = {"step": 0, "padding": "x" * 200}
            marked = False

            def durable_snapshot(self):
                return dict(self.state)

            def track_changes(self):
                self.marked = False

            def durable_record(self, logged):
                marked, self.marked = self.marked, False
                return {"set": {"step": self.state["step"]}} if marked else {}

        steps = Steps()

        async def scenario():
            rt = AsyncioRuntime(data_dir=str(tmp_path))
            await rt.start()
            received = []
            for site in ("site-0", "site-1"):
                await rt.listen(site)
            rt.register("site-1", received.append)
            rt.attach_durability("site-0", steps)
            rt.checkpoint("site-0")  # the site file: records follow it

            def act(step):
                steps.state["step"], steps.marked = step, True
                rt.send("site-0", "site-1", Ready(txn=f"T{step}", site="site-0"))

            try:
                # Step 1 opens the connection (its task writes the frame);
                # step 2 rides the cached connection (the flush writes it).
                for step in (1, 2):
                    rt.schedule(0.0, lambda: act(step), site="site-0")
                    assert await self._settled(rt) and len(received) == step
                return rt.stats.as_dict()
            finally:
                await rt.close()

        stats = run(scenario())
        assert [(steps, f'"txn":"T{step}"'.encode() in data)
                for step, (steps, data) in zip((1, 2), seen)] == [
            ([1], True),
            ([2], True),  # the quiet point after step 1 folded its record
        ]
        assert stats["writes"] == 2 and stats["compactions"] >= 2

    def test_close_retires_buffered_and_connecting_frames(
        self, monkeypatch, caplog, recwarn
    ):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)

        async def scenario():
            rt, received = await self._pair()
            rt.send("site-0", "site-1", Ready(txn="warm", site="site-0"))
            assert await self._settled(rt)
            # Two frames queue behind site-0's connect task ...
            rt.send("site-1", "site-0", Ready(txn="A", site="site-1"))
            rt.send("site-1", "site-0", Ready(txn="B", site="site-1"))
            assert await self._yields_until(lambda: "site-0" in rt._connecting)
            rt.send("site-1", "site-0", Ready(txn="C", site="site-1"))
            # ... and three wait in site-1's outbox for the armed flush.
            for txn in ("D", "E", "F"):
                rt.send("site-0", "site-1", Ready(txn=txn, site="site-0"))
            await rt.close()
            return rt, len(received), len(asyncio.all_tasks())

        with caplog.at_level("WARNING", logger="asyncio"):
            rt, delivered, tasks = run(scenario())
            gc.collect()
        stats = rt.stats.as_dict()
        assert delivered == 1 and tasks == 1  # only the scenario itself
        assert rt._in_flight == 0 and rt.quiescent() and not rt._tasks
        assert (stats["sent"], stats["delivered"], stats["dropped"]) == (7, 1, 6)
        assert stats["sent"] == stats["delivered"] + stats["dropped"]
        assert not caplog.records and not unraisable and not recwarn.list

    def test_a_stalled_peer_loses_frames_instead_of_buffering_them(self):
        async def scenario():
            rt, received = await self._pair()
            try:
                rt.send("site-0", "site-1", Ready(txn="warm", site="site-0"))
                assert await self._settled(rt)
                transport = rt._writers["site-1"].transport
                high = transport.get_write_buffer_limits()[1]
                # The peer stopped reading: its write buffer is past the
                # transport's high-water mark.
                transport.get_write_buffer_size = lambda: high + 1
                writes = rt.stats.writes
                for txn in ("A", "B", "C"):
                    rt.send("site-0", "site-1", Ready(txn=txn, site="site-0"))
                await asyncio.sleep(0)  # the flush
                stalled = (
                    rt.quiescent(), rt.stats.writes - writes, rt.stats.dropped
                )
                del transport.get_write_buffer_size  # the peer drained
                rt.send("site-0", "site-1", Ready(txn="D", site="site-0"))
                settled = await self._settled(rt)
                return stalled, settled, [e.payload.txn for e in received]
            finally:
                await rt.close()

        stalled, settled, txns = run(scenario())
        assert stalled == (True, 0, 3)
        assert settled and txns == ["warm", "D"]


class TestOneRootServesBothRuntimes:
    """The sim's own judges — the oracle suite and the random-update
    workload generator — run unmodified against a socket cluster."""

    def test_oracle_suite_passes_on_a_live_cluster(self, tmp_path):
        async def scenario():
            cluster = LiveCluster(
                sites=3, seed=6, config=fast_config(), data_dir=str(tmp_path)
            )
            await cluster.start()
            try:
                for source, target, amount in [
                    ("acct-0", "acct-1", 5), ("acct-2", "acct-3", 8),
                    ("acct-4", "acct-5", 2), ("acct-1", "acct-2", 4),
                ]:
                    handle = cluster.submit_script(
                        transfer_script(source, target, amount)
                    )
                    assert await cluster.wait_decided(handle, timeout=10.0)
                in_flight = cluster.submit_script(
                    transfer_script("acct-1", "acct-3", 1), at="site-1"
                )
                cluster.crash("site-1")
                assert in_flight.status is TxnStatus.ABORTED
                cluster.restart("site-1")
                after = cluster.submit_script(
                    transfer_script("acct-1", "acct-0", 3), at="site-1"
                )
                assert await cluster.wait_decided(after, timeout=10.0)
                assert await cluster.wait_converged(timeout=15.0)
                return failed(check_converged(CheckContext(cluster)))
            finally:
                await cluster.stop()

        assert run(scenario()) == []

    def test_random_update_workload_drives_a_live_cluster(self):
        async def scenario():
            cluster = LiveCluster(sites=3, seed=7)
            await cluster.start()
            try:
                workload = RandomUpdateWorkload(
                    cluster,
                    WorkloadConfig(update_rate=100.0, dependency_mean=1.0),
                    seed=7,
                )
                workload.start()
                await asyncio.sleep(1.0)
                workload.stop()
                converged = await cluster.wait_converged(timeout=15.0)
                return converged, cluster.metrics.committed, workload.handles
            finally:
                await cluster.stop()

        converged, commits, handles = run(scenario())
        assert converged
        assert commits > 0
        assert all(h.status is not TxnStatus.PENDING for h in handles)


class TestHttpApi:
    def test_full_http_surface(self):
        with ClusterThread(http=True, sites=3, seed=2,
                           config=fast_config()) as ct:
            base = f"http://127.0.0.1:{ct.port}"

            health = request(base, "/health")
            assert health["ok"] and health["sites"] == 3

            state = request(base, "/state")
            assert set(state["sites"]) == {"site-0", "site-1", "site-2"}

            committed = request(
                base, "/txn", method="POST",
                body={"script": transfer_script("acct-0", "acct-1", 4),
                      "wait": True},
            )
            assert committed["status"] == "committed"
            assert committed["decided"] is True

            item = request(base, "/item/acct-1")
            assert item["value"] == 104 and item["site"] == "site-1"

            # Hold the second transaction in flight until the crash: with
            # the votes to its coordinator dropped it cannot decide (a
            # localhost commit would otherwise beat the next request).
            ct.call(
                ct.cluster.runtime.set_fault,
                lambda env: env.recipient == "site-0"
                and isinstance(env.payload, Ready),
            )
            pending = request(
                base, "/txn", method="POST",
                body={"script": transfer_script("acct-0", "acct-3", 2),
                      "at": "site-0"},
            )
            request(base, "/crash", method="POST", body={"site": "site-0"})
            assert request(base, "/health")["down"] == ["site-0"]
            request(base, "/restart", method="POST", body={"site": "site-0"})
            ct.call(ct.cluster.runtime.set_fault, None)

            outcome = poll_txn(base, pending["txn"], timeout=15.0)
            assert outcome["status"] == "aborted"
            assert "presumed abort" in outcome["reason"]

    def test_http_error_paths(self):
        move = transfer_script("acct-0", "acct-1", 1)
        with ClusterThread(http=True, sites=2, seed=0) as ct:
            base = f"http://127.0.0.1:{ct.port}"
            for path, method, body, code in [
                ("/item/nope", "GET", None, "404"),
                ("/txn/nope", "GET", None, "404"),
                ("/nothing", "GET", None, "404"),
                ("/crash", "POST", {"site": "zz"}, "404"),
                ("/crash", "POST", {}, "400"),
                ("/txn", "POST", {}, "400"),
                ("/txn", "POST", {"script": {"items": []}}, "400"),
                # Arguments are checked before the transaction runs: a
                # rejected request must not have moved anything.
                ("/txn", "POST", {"script": move, "at": 3}, "400"),
                ("/txn", "POST", {"script": move, "wait": "yes"}, "400"),
                ("/txn", "POST", {"script": move, "wait": 1}, "400"),
            ] + [
                ("/txn", "POST",
                 {"script": move, "wait": True, "timeout": timeout}, "400")
                for timeout in ("abc", [1], None, -1, float("nan"),
                                float("inf"), True)
            ]:
                with pytest.raises(Exception) as info:
                    request(base, path, method=method, body=body)
                assert code in str(info.value), (path, body)
                assert request(base, "/item/acct-0")["value"] == 100, body


def transfer_body(amount):
    """A waited-for transfer between acct-0 and acct-1, by direction."""
    source, target = ("acct-0", "acct-1") if amount % 2 else ("acct-1", "acct-0")
    return {"script": transfer_script(source, target, amount), "wait": True}


class TestClusterObservability:
    """``/metrics`` and ``/events`` on ``repro serve``, and their cost."""

    def test_an_unwatched_cluster_builds_no_events(self, monkeypatch):
        emitted = []
        emit = EventBus.emit

        def counting_emit(bus, name, **fields):
            emitted.append(name)
            return emit(bus, name, **fields)

        monkeypatch.setattr(EventBus, "emit", counting_emit)
        with ClusterThread(http=True, sites=3, seed=5) as ct:
            base = f"http://127.0.0.1:{ct.port}"
            committed = 0
            for amount in range(1, 25):
                txn = request(base, "/txn", method="POST",
                              body=transfer_body(amount))
                committed += txn["status"] == "committed"
                assert not ct.call(bool, ct.cluster.bus)
            with urllib.request.urlopen(base + "/metrics", timeout=10) as reply:
                content_type = reply.headers["Content-Type"]
                text = reply.read().decode("utf-8")
        assert committed >= 20
        assert emitted == []
        assert content_type == "text/plain; version=0.0.4"
        reported = sum(
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_transactions_total{")
            and 'outcome="committed"' in line
        )
        assert reported >= committed

    def test_an_events_client_subscribes_the_bus_while_connected(self):
        with ClusterThread(http=True, sites=3, seed=6) as ct:
            base = f"http://127.0.0.1:{ct.port}"

            def watched():
                return ct.call(bool, ct.cluster.bus)

            assert not watched()
            conn, stream = open_event_stream("127.0.0.1", ct.port)
            with conn, stream:
                (hello,) = read_frames(stream, 1)
                assert hello["name"] == "dash.hello"
                assert set(hello["state"]["sites"]) == {
                    "site-0", "site-1", "site-2"
                }
                assert watched()
                txn = request(base, "/txn", method="POST", body=transfer_body(1))
                assert txn["status"] == "committed"
                names = set()
                while "txn.committed" not in names:
                    (frame,) = read_frames(stream, 1)
                    names.add(frame["name"])
                assert frame["txn"] == txn["txn"]
                assert "msg.send" in names or "site.state" in names
            deadline = ct.call(lambda: ct.cluster.runtime.now) + 10.0
            while watched():
                assert ct.call(lambda: ct.cluster.runtime.now) < deadline
                ct.run(asyncio.sleep(0.05))
