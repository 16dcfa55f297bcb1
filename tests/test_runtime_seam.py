"""The Runtime seam: base contract, Periodic, SimRuntime, and the
relocation shims for names that moved out of repro.txn.runtime."""

from __future__ import annotations

import warnings

import pytest

from repro.core.errors import SimulationError
from repro.net.network import Network
from repro.runtime import Periodic, Runtime, SimRuntime, TimerHandle
from repro.sim.engine import Simulator
from repro.sim.rand import Rng


def make_sim_runtime():
    sim = Simulator()
    network = Network(sim, rng=Rng(0), base_latency=0.01, jitter=0.0)
    return sim, network, SimRuntime(sim, network, rng=Rng(0))


class TestRuntimeContract:
    def test_base_runtime_is_abstract(self):
        rt = Runtime()
        with pytest.raises(NotImplementedError):
            rt.now
        with pytest.raises(NotImplementedError):
            rt.schedule(1.0, lambda: None)
        with pytest.raises(NotImplementedError):
            rt.send("a", "b", object())
        with pytest.raises(NotImplementedError):
            rt.register("a", lambda env: None)
        with pytest.raises(NotImplementedError):
            rt.rng("stream")
        with pytest.raises(NotImplementedError):
            rt.mark_down("a")
        with pytest.raises(NotImplementedError):
            rt.mark_up("a")
        with pytest.raises(NotImplementedError):
            rt.quiescent()

    def test_base_durability_hooks_are_noops(self):
        rt = Runtime()
        assert rt.durable is False
        rt.attach_durability("s1", dict)
        rt.checkpoint("s1")
        assert rt.load_durable("s1") is None


class TestSimRuntime:
    def test_clock_and_timers_delegate_to_the_simulator(self):
        sim, _, rt = make_sim_runtime()
        fired = []
        handle = rt.schedule(0.5, lambda: fired.append(rt.now), label="t")
        assert isinstance(handle, TimerHandle)
        sim.run()
        assert fired == [0.5]
        assert rt.now == sim.now

    def test_cancelled_timer_does_not_fire(self):
        sim, _, rt = make_sim_runtime()
        fired = []
        handle = rt.schedule(0.5, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_transport_delegates_to_the_network(self):
        sim, _, rt = make_sim_runtime()
        got = []
        rt.register("s2", got.append)
        rt.send("s1", "s2", "payload")
        sim.run()
        assert len(got) == 1
        assert got[0].payload == "payload"
        assert got[0].sender == "s1"

    def test_mark_down_and_up_drive_the_network_fail_stop(self):
        sim, network, rt = make_sim_runtime()
        got = []
        rt.register("s2", got.append)
        rt.mark_down("s2")
        assert not network.is_up("s2")
        rt.send("s1", "s2", "lost")
        sim.run()
        rt.mark_up("s2")
        rt.send("s1", "s2", "kept")
        sim.run()
        assert [envelope.payload for envelope in got] == ["kept"]

    def test_quiescent_ignores_only_the_background_labels(self):
        sim, _, rt = make_sim_runtime()
        assert rt.quiescent()
        rt.schedule(5.0, lambda: None, label="outcome-maintenance:s1")
        rt.schedule(5.0, lambda: None, label="workload-arrival")
        assert rt.quiescent()
        timer = rt.schedule(1.0, lambda: None, label="wait-timeout:T1")
        assert not rt.quiescent()
        timer.cancel()
        assert rt.quiescent()
        rt.register("s2", lambda envelope: None)
        rt.send("s1", "s2", "payload")
        assert not rt.quiescent()
        sim.run_until(1.0)
        assert rt.quiescent()

    def test_a_duplicated_send_is_two_events_delivered_in_send_order(self):
        sim = Simulator()
        network = Network(sim, rng=Rng(0), duplicate_probability=1.0, jitter=0.0)
        rt = SimRuntime(sim, network, rng=Rng(0))
        got = []
        rt.register("s2", got.append)
        rt.send("s1", "s2", "first")
        rt.send("s1", "s2", "second")
        assert sim.events_pending == sim.foreground_pending == 4
        sim.run()
        assert sim.events_processed == 4
        assert [envelope.payload for envelope in got] == [
            "first", "first", "second", "second",
        ]
        assert rt.quiescent()

    def test_rng_streams_are_forked_and_stable(self):
        _, _, rt = make_sim_runtime()
        _, _, rt2 = make_sim_runtime()
        assert rt.rng("a").uniform(0, 1) == rt2.rng("a").uniform(0, 1)
        assert rt.rng("a").uniform(0, 1) != rt.rng("b").uniform(0, 1)


class TestPeriodic:
    def test_fires_every_period_until_stopped(self):
        sim, _, rt = make_sim_runtime()
        times = []
        task = Periodic(rt, 1.0, lambda: times.append(rt.now))
        sim.run_until(3.5)
        task.stop()
        sim.run()
        assert times == [1.0, 2.0, 3.0]

    def test_action_stopping_itself_prevents_rearm(self):
        sim, _, rt = make_sim_runtime()
        times = []
        task = Periodic(rt, 1.0, lambda: (times.append(rt.now), task.stop()))
        sim.run()
        assert times == [1.0]

    def test_rejects_nonpositive_period(self):
        _, _, rt = make_sim_runtime()
        with pytest.raises(SimulationError):
            Periodic(rt, 0.0, lambda: None)


class TestMovedNameShims:
    """Names relocated to repro.txn.config still import, with a warning."""

    @pytest.mark.parametrize(
        "name",
        [
            "CommitPolicy",
            "CommitProtocol",
            "ProtocolConfig",
            "PROTOCOL_NAMES",
            "config_for_protocol",
        ],
    )
    def test_txn_runtime_shim_warns_and_forwards(self, name):
        import repro.txn.config as config
        import repro.txn.runtime as runtime

        with pytest.warns(DeprecationWarning, match="repro.txn.config"):
            value = getattr(runtime, name)
        assert value is getattr(config, name)

    def test_unknown_attribute_still_raises(self):
        import repro.txn.runtime as runtime

        with pytest.raises(AttributeError):
            runtime.does_not_exist

    def test_canonical_import_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.txn.config import ProtocolConfig  # noqa: F401
