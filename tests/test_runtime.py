"""Unit tests for protocol runtime plumbing (repro.txn.runtime)."""

import pytest

from repro.core.outcome import OutcomeLog, OutcomeTable
from repro.core.polyvalue import Polyvalue, is_polyvalue
from repro.db.catalog import Catalog
from repro.db.locks import LockManager
from repro.db.store import ItemStore
from repro.metrics.collector import MetricsCollector
from repro.net.network import Network
from repro.runtime.sim import SimRuntime
from repro.sim.engine import Simulator
from repro.sim.rand import Rng
from repro.txn.config import CommitPolicy, ProtocolConfig
from repro.txn.runtime import SiteRuntime, SiteState, TransitionLog


def make_runtime(initial=None):
    sim = Simulator()
    network = Network(sim, Rng(0))
    runtime = SiteRuntime(
        site_id="s1",
        rt=SimRuntime(sim, network),
        catalog=Catalog.from_mapping({"a": "s1"}),
        store=ItemStore(initial or {"a": 1}),
        locks=LockManager(),
        outcomes=OutcomeTable(),
        outcome_log=OutcomeLog(),
        config=ProtocolConfig(),
        metrics=MetricsCollector(),
        transitions=TransitionLog(),
    )
    network.register("s1", lambda e: None)
    return runtime


class TestTransitionLog:
    def test_record_and_counts(self):
        log = TransitionLog()
        log.record(1.0, "s1", "T1", SiteState.IDLE, SiteState.COMPUTE, "begin")
        log.record(2.0, "s1", "T1", SiteState.COMPUTE, SiteState.WAIT, "ready")
        counts = log.edge_counts()
        assert counts[("idle", "begin", "compute")] == 1
        assert counts[("compute", "ready", "wait")] == 1

    def test_valid_edges_accepted(self):
        log = TransitionLog()
        for source, trigger, target in [
            (SiteState.IDLE, "begin", SiteState.COMPUTE),
            (SiteState.WAIT, "wait-timeout", SiteState.IDLE),
        ]:
            log.record(0.0, "s1", "T1", source, target, trigger)
        assert log.all_edges_valid()

    def test_invalid_edge_detected(self):
        log = TransitionLog()
        log.record(0.0, "s1", "T1", SiteState.IDLE, SiteState.WAIT, "teleport")
        assert not log.all_edges_valid()

    def test_one_entry_per_edge_however_many_steps(self):
        log = TransitionLog()
        for index in range(1000):
            log.record(
                float(index), f"s{index % 3}", f"T{index}",
                SiteState.IDLE, SiteState.COMPUTE, "begin",
            )
        assert not hasattr(log, "records")
        assert log.edge_counts() == {("idle", "begin", "compute"): 1000}
        assert log.observed_edges() == frozenset(
            [(SiteState.IDLE, "begin", SiteState.COMPUTE)]
        )

    def test_figure1_has_seven_edges(self):
        # Three wait exits, two compute exits plus ready, one idle exit.
        assert len(TransitionLog.FIGURE_1_EDGES) == 7


class TestScheduleGuard:
    def test_timer_dropped_while_site_down(self):
        runtime = make_runtime()
        fired = []
        runtime.schedule(1.0, lambda: fired.append(True))
        runtime.up = False
        runtime.rt.sim.run()
        assert fired == []

    def test_timer_fires_when_up(self):
        runtime = make_runtime()
        fired = []
        runtime.schedule(1.0, lambda: fired.append(True))
        runtime.rt.sim.run()
        assert fired == [True]


class TestApplyWrite:
    def test_simple_write(self):
        runtime = make_runtime()
        runtime.apply_write("a", 5)
        assert runtime.store.read("a") == 5
        assert runtime.metrics.polyvalues_installed == 0

    def test_polyvalue_write_records_dependencies(self):
        runtime = make_runtime()
        pv = Polyvalue.in_doubt("T9@s2", 2, 1)
        runtime.apply_write("a", pv)
        assert runtime.outcomes.dependent_items("T9@s2") == frozenset({"a"})
        assert runtime.metrics.polyvalues_installed == 1
        assert runtime.metrics.current_polyvalues == 1

    def test_simple_over_polyvalue_clears_dependencies(self):
        runtime = make_runtime()
        runtime.apply_write("a", Polyvalue.in_doubt("T9@s2", 2, 1))
        runtime.apply_write("a", 7)
        assert not runtime.outcomes.tracks("T9@s2")
        assert runtime.metrics.polyvalues_resolved == 1
        assert runtime.metrics.current_polyvalues == 0

    def test_poly_over_poly_replaces_dependencies(self):
        runtime = make_runtime()
        runtime.apply_write("a", Polyvalue.in_doubt("T1@s2", 2, 1))
        runtime.apply_write("a", Polyvalue.in_doubt("T2@s2", 3, 1))
        assert not runtime.outcomes.tracks("T1@s2")
        assert runtime.outcomes.tracks("T2@s2")
        assert runtime.metrics.polyvalues_installed == 1  # still one item

    def test_known_outcomes_reduce_eagerly(self):
        runtime = make_runtime()
        runtime.known_outcomes["T9@s2"] = True
        runtime.apply_write("a", Polyvalue.in_doubt("T9@s2", 2, 1))
        assert runtime.store.read("a") == 2
        assert not is_polyvalue(runtime.store.read("a"))
        assert runtime.metrics.polyvalues_installed == 0

    def test_certain_polyvalue_collapses(self):
        runtime = make_runtime()
        runtime.apply_write("a", Polyvalue.in_doubt("T9@s2", 5, 5))
        assert runtime.store.read("a") == 5
        assert runtime.metrics.polyvalues_installed == 0


class TestProtocolConfig:
    def test_defaults(self):
        config = ProtocolConfig()
        assert config.policy is CommitPolicy.POLYVALUE
        assert config.wait_timeout > 0
        assert config.max_alternatives >= 2

    def test_frozen(self):
        config = ProtocolConfig()
        with pytest.raises(Exception):
            config.policy = CommitPolicy.BLOCKING
