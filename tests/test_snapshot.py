"""Tests for whole-system snapshots (repro.txn.snapshot)."""

import json

import pytest

from repro.core.errors import ReproError
from repro.core.polyvalue import is_polyvalue
from repro.txn.config import config_for_protocol
from repro.txn.snapshot import SNAPSHOT_VERSION, export_snapshot, import_snapshot
from repro.txn.system import DistributedSystem
from repro.txn.transaction import TxnStatus

from tests.conftest import increment, move, run_to_decision


def build(seed=13, protocol="polyvalue"):
    return DistributedSystem.build(
        sites=3,
        items={f"item-{index}": 100 for index in range(6)},
        seed=seed,
        jitter=0.0,
        config=config_for_protocol(protocol),
    )


def snapshot_roundtrip(system):
    blob = json.loads(json.dumps(export_snapshot(system)))
    return import_snapshot(blob, seed=99, config=system.config)


class TestCleanSnapshot:
    #: The Paxos subclass below re-runs every test here under Paxos
    #: Commit (a subclass, not a parametrisation, keeps the test ids).
    protocol = "polyvalue"

    def test_roundtrip_preserves_values_and_placement(self):
        system = build(protocol=self.protocol)
        handle = system.submit(move("item-0", "item-1", 25))
        run_to_decision(system, handle)
        restored = snapshot_roundtrip(system)
        assert restored.database_state() == system.database_state()
        for item in system.catalog.all_items():
            assert restored.catalog.site_of(item) == system.catalog.site_of(item)

    def test_restored_system_processes_transactions(self):
        system = build(protocol=self.protocol)
        restored = snapshot_roundtrip(system)
        handle = restored.submit(increment("item-2"))
        run_to_decision(restored, handle)
        assert handle.status is TxnStatus.COMMITTED
        assert restored.read_item("item-2") == 101

    def test_version_check(self):
        with pytest.raises(ReproError):
            import_snapshot({"version": 99})

    def test_missing_section_rejected(self):
        with pytest.raises(ReproError):
            import_snapshot({"version": 1, "placement": {}})

    def test_version_1_blobs_are_rejected_by_name(self):
        with pytest.raises(ReproError, match="unsupported snapshot version 1"):
            import_snapshot(
                {
                    "version": 1,
                    "placement": {},
                    "values": {},
                    "outcome_logs": {},
                    "known_outcomes": {},
                }
            )

    def test_current_version_missing_section_rejected(self):
        with pytest.raises(ReproError, match="missing section 'sites'"):
            import_snapshot({"version": SNAPSHOT_VERSION, "placement": {}})


class TestCleanSnapshotPaxos(TestCleanSnapshot):
    protocol = "paxos"

    def test_mid_registrar_cluster_survives_the_roundtrip(self):
        # Crash the coordinator after the participants' ballot-0 votes
        # reached the acceptors but before the decision: the registrar
        # record and the accepted votes are the only way to finish.
        system = build(protocol="paxos")
        handle = system.submit(move("item-0", "item-1", 30))
        system.run_for(0.035)
        system.crash_site("site-0")
        system.run_for(0.02)
        blob = json.loads(json.dumps(export_snapshot(system)))
        paxos = {site: entry["paxos"] for site, entry in blob["sites"].items()}
        assert paxos["site-0"]["registrar"] == {
            handle.txn: ["site-0", "site-1"]
        }
        assert paxos["site-1"]["accepted"] and paxos["site-2"]["accepted"]
        restored = import_snapshot(blob, seed=99, config=system.config)
        assert restored.settle(max_time=60.0)
        # The votes were chosen, so failover must commit — in the
        # restored world exactly as in the one that kept running.
        system.recover_site("site-0")
        assert system.settle(max_time=system.sim.now + 60.0)
        assert restored.database_state() == system.database_state()
        assert restored.read_item("item-1") == 130
        assert sum(restored.database_state().values()) == 600


class TestMidUncertaintySnapshot:
    def make_uncertain(self, committed):
        """A system with item-1 polyvalued; the in-doubt transaction's
        real outcome is *committed* (durable log) or aborted (no log)."""
        system = build()
        handle = system.submit(move("item-0", "item-1", 30))
        if committed:
            # Let the coordinator decide COMMIT but partition the
            # participant so the complete is lost.
            system.run_for(0.041)
            system.network.partition("site-0", "site-1")
            system.run_for(1.0)
            assert handle.status is TxnStatus.COMMITTED
        else:
            system.run_for(0.035)
            system.crash_site("site-0")
            system.run_for(1.0)
        assert is_polyvalue(system.read_item("item-1"))
        return system, handle

    def test_polyvalues_survive_the_roundtrip(self):
        system, _ = self.make_uncertain(committed=False)
        restored = snapshot_roundtrip(system)
        value = restored.read_item("item-1")
        assert is_polyvalue(value)
        assert set(value.possible_values()) == {130, 100}

    def test_restored_aborted_doubt_resolves_to_old_value(self):
        system, _ = self.make_uncertain(committed=False)
        restored = snapshot_roundtrip(system)
        restored.run_for(10.0)
        assert restored.read_item("item-1") == 100
        assert restored.total_polyvalues() == 0
        assert restored.outcome_bookkeeping_size() == 0

    def test_restored_committed_doubt_resolves_to_new_value(self):
        # The durable commit log travels with the snapshot; without it
        # this would wrongly presume abort.
        system, _ = self.make_uncertain(committed=True)
        restored = snapshot_roundtrip(system)
        restored.run_for(10.0)
        assert restored.read_item("item-1") == 130
        assert restored.read_item("item-0") == 70
        assert restored.total_polyvalues() == 0

    def test_restored_system_can_work_before_resolution(self):
        system, _ = self.make_uncertain(committed=False)
        blob = export_snapshot(system)
        restored = import_snapshot(
            blob,
            seed=5,
            config=None,
        )
        # Crash the coordinator in the restored world too, so the doubt
        # persists while we work against it.
        restored.crash_site("site-0")
        handle = restored.submit(increment("item-1"), at="site-1")
        run_to_decision(restored, handle)
        assert handle.status is TxnStatus.COMMITTED
        assert handle.was_polytransaction
        restored.recover_site("site-0")
        restored.run_for(10.0)
        assert restored.read_item("item-1") == 101

    def test_restored_coordinator_never_reuses_a_transaction_id(self):
        # The in-doubt T1@site-0 is presumed aborted.  If the restored
        # coordinator's sequence restarted at 0, the next transfer would
        # be minted as T1@site-0 too, and its commit would reduce the old
        # polyvalue the wrong way (item-1 -> 130, money created).
        system, in_doubt = self.make_uncertain(committed=False)
        blob = json.loads(json.dumps(export_snapshot(system)))
        restored = import_snapshot(blob, seed=99)
        handle = restored.submit(move("item-0", "item-2", 5), at="site-0")
        restored.run_for(30.0)
        assert handle.status is TxnStatus.COMMITTED
        assert handle.txn != in_doubt.txn
        assert handle.txn not in json.dumps(blob)
        assert restored.total_polyvalues() == 0
        assert sum(restored.database_state().values()) == 600

    def test_snapshot_is_json_serialisable(self):
        system, _ = self.make_uncertain(committed=False)
        text = json.dumps(export_snapshot(system))
        assert "item-1" in text
        assert "__polyvalue__" in text
