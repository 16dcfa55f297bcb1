"""One way back up: every restart goes through ``durable_snapshot()``.

``DatabaseSite.durable_snapshot`` / ``restore_durable`` are the only
definition of durable site state.  These tests pin that the snapshot is
complete (the §3.3 forwarding lists travel), that it is a fixed point of
restore on every schedule the explorer walks, that the simulator cannot
drift back to surviving a crash in memory, and that what comes back from
disk — site file and site log — is validated instead of trusted.
"""

import asyncio
import dataclasses

import pytest

from repro.check import explorer
from repro.check.explorer import random_walk, run_schedule, schedule_config
from repro.check.scenarios import build_scenario
from repro.core.errors import ReproError
from repro.core.polyvalue import is_polyvalue
from repro.live import ClusterThread
from repro.live.client import transfer_script
from repro.runtime import AsyncioRuntime
from repro.runtime.base import DurableStateError, dump_snapshot, parse_snapshot
from repro.txn.site import DatabaseSite
from repro.txn.system import DistributedSystem

from tests.conftest import move
from tests.test_forwarding_chain import build as build_chain_system
from tests.test_forwarding_chain import make_chain


def through_text(snapshot):
    """The snapshot as a restart sees it: encoded to text and back."""
    return parse_snapshot(dump_snapshot(snapshot), "test")


class TestForwardingListsTravel:
    def test_restore_preserves_the_forwarding_lists(self):
        system = build_chain_system()
        in_doubt = make_chain(system)
        for site_id in ("site-1", "site-2"):
            site = system.sites[site_id]
            before = site.runtime.outcomes.forwarded_sites(in_doubt.txn)
            assert before
            twin = build_chain_system().sites[site_id]
            twin.restore_durable(through_text(site.durable_snapshot()))
            after = twin.runtime.outcomes.forwarded_sites(in_doubt.txn)
            assert after == before

    def test_chain_resolves_after_the_forwarder_restarts_from_its_snapshot(self):
        # site-2 only forwarded the polyvalue: it holds no dependent item
        # and no direct doubt, so its forwarding list is the one record
        # that d's home is owed the outcome.
        system = build_chain_system()
        make_chain(system)
        forwarder = system.sites["site-2"]
        forwarder.crash()
        forwarder.restore_durable(through_text(forwarder.durable_snapshot()))
        forwarder.recover()
        system.recover_site("site-0")
        system.run_for(8.0)
        assert not is_polyvalue(system.read_item("d"))
        assert system.read_item("d") == 200
        assert system.converged()


@pytest.mark.parametrize("protocol", ["polyvalue", "paxos"])
@pytest.mark.parametrize("scenario", ["pair", "transfers", "mixed"])
def test_snapshot_is_a_fixed_point_of_restore(monkeypatch, scenario, protocol):
    """snapshot(restore(snapshot(s))) == snapshot(s), into a site that
    shares no memory with *s*, at every quiescent checkpoint."""
    checkpoints = []

    def audited(oracle):
        def check(ctx):
            for site_id, site in ctx.system.sites.items():
                snapshot = site.durable_snapshot()
                twin = twins.sites[site_id]
                twin.restore_durable(through_text(snapshot))
                assert twin.durable_snapshot() == snapshot
            checkpoints.append(ctx.system.now)
            return oracle(ctx)

        return check

    for name in ("check_quiescent", "check_converged"):
        monkeypatch.setattr(explorer, name, audited(getattr(explorer, name)))
    for seed in range(20):
        schedule = dataclasses.replace(
            random_walk(scenario, seed), protocol=protocol
        )
        twins = build_scenario(
            scenario, seed, config=schedule_config(schedule)
        )
        result = run_schedule(schedule)
        # An audit failure surfaces as the explorer's no-crash violation.
        assert not result.violations, (seed, result.violations)
    assert len(checkpoints) > 20  # more than the final one per schedule


def test_sim_recovery_restores_from_the_snapshot_exactly_once(monkeypatch):
    calls = []
    original = DatabaseSite.restore_durable

    def spy(self, snapshot):
        calls.append((self.site_id, snapshot["site"], snapshot["version"]))
        original(self, snapshot)

    monkeypatch.setattr(DatabaseSite, "restore_durable", spy)
    system = build_chain_system()
    system.crash_site("site-1")
    assert calls == []
    system.recover_site("site-1")
    assert calls == [("site-1", "site-1", DatabaseSite.DURABLE_VERSION)]
    # Recovering a site that is up is not a restart.
    system.recover_site("site-1")
    assert len(calls) == 1


class TestSnapshotsAreValidated:
    def test_restore_rejects_another_sites_snapshot(self):
        system = build_chain_system()
        snapshot = system.sites["site-0"].durable_snapshot()
        with pytest.raises(ReproError, match="site-0.*cannot restore.*site-1"):
            system.sites["site-1"].restore_durable(snapshot)

    def test_restore_rejects_a_version_1_snapshot(self):
        system = build_chain_system()
        snapshot = system.sites["site-0"].durable_snapshot()
        snapshot["version"] = 1
        with pytest.raises(ReproError, match="unsupported.*version 1"):
            system.sites["site-0"].restore_durable(snapshot)


@pytest.fixture(scope="module")
def site_file(tmp_path_factory):
    """A real site file: site-0 of a live cluster after one transfer."""
    data_dir = tmp_path_factory.mktemp("cluster")
    with ClusterThread(sites=2, seed=4, data_dir=str(data_dir)) as ct:
        handle = ct.call(
            ct.cluster.submit_script, transfer_script("acct-0", "acct-1", 7)
        )
        assert ct.run(ct.cluster.wait_decided(handle))
        assert ct.run(ct.cluster.wait_converged())
    return data_dir / "site-site-0.json"


class TestSiteFilesAreValidated:
    def load(self, tmp_path, data: bytes, site="site-0"):
        (tmp_path / f"site-{site}.json").write_bytes(data)
        return AsyncioRuntime(data_dir=str(tmp_path)).load_durable(site)

    def test_the_intact_file_loads(self, site_file, tmp_path):
        snapshot = self.load(tmp_path, site_file.read_bytes())
        assert snapshot["site"] == "site-0"
        assert snapshot["values"]["acct-0"] == 93

    def test_a_missing_file_is_a_first_boot(self, tmp_path):
        assert AsyncioRuntime(data_dir=str(tmp_path)).load_durable("s") is None

    def test_every_truncation_is_an_error_naming_the_path(
        self, site_file, tmp_path
    ):
        data = site_file.read_bytes()
        assert len(data) > 128
        offsets = set(range(0, len(data), 64)) | set(
            range(len(data) - 64, len(data))
        )
        for offset in sorted(offsets):
            with pytest.raises(ReproError, match="site-site-0.json"):
                self.load(tmp_path, data[:offset])

    def test_a_flipped_byte_that_breaks_the_json_is_an_error(
        self, site_file, tmp_path
    ):
        data = bytearray(site_file.read_bytes())
        data[data.index(b":")] ^= 0x01  # ':' -> ';'
        with pytest.raises(ReproError, match="site-site-0.json"):
            self.load(tmp_path, bytes(data))

    @pytest.mark.parametrize("garbage", [b"\x00\xff\xfe", b"[1, 2]", b"null"])
    def test_garbage_and_non_objects_are_errors(self, tmp_path, garbage):
        with pytest.raises(ReproError, match="site-site-0.json"):
            self.load(tmp_path, garbage)

    def test_a_damaged_file_stops_the_boot_instead_of_emptying_the_site(
        self, site_file, tmp_path
    ):
        (tmp_path / "site-site-0.json").write_bytes(site_file.read_bytes()[:100])
        with pytest.raises(ReproError, match="site-site-0.json"):
            with ClusterThread(sites=2, seed=4, data_dir=str(tmp_path)):
                pass  # pragma: no cover - start() must raise

    def test_a_wrong_site_file_and_a_version_1_file_stop_the_boot(
        self, site_file, tmp_path
    ):
        snapshot = parse_snapshot(site_file.read_text(), "test")
        for damaged, message in (
            (dict(snapshot, site="site-1"), "cannot restore"),
            (dict(snapshot, version=1), "unsupported.*version 1"),
        ):
            (tmp_path / "site-site-0.json").write_text(dump_snapshot(damaged))
            with pytest.raises(ReproError, match=message):
                with ClusterThread(sites=2, seed=4, data_dir=str(tmp_path)):
                    pass  # pragma: no cover - start() must raise


@dataclasses.dataclass
class SiteLog:
    site_file: bytes
    log: bytes
    #: ``states[i]``: the durable state after the log's first i records.
    states: list
    #: Byte offset of each record in ``log``.
    offsets: list


@pytest.fixture(scope="module")
def site_log(tmp_path_factory):
    """A real site log: site-0 of a simulated bank checkpointed by an
    ``AsyncioRuntime`` every 10 simulated ms while it commits transfers.
    A frame is held in flight, so the runtime is never quiescent and
    never folds the log into the site file."""
    items = {f"acct-{index:03d}": 100 for index in range(400)}
    system = DistributedSystem.build(sites=2, items=items, seed=3, jitter=0.0)
    site = system.sites["site-0"]
    data_dir = tmp_path_factory.mktemp("logged")
    rt = AsyncioRuntime(data_dir=str(data_dir))
    rt.attach_durability("site-0", site.durable_snapshot)
    rt._in_flight = 1
    states = []
    for target in ("acct-001", "acct-003", "acct-005"):
        system.submit(move("acct-000", target, 5))
        for _ in range(8):
            system.run_for(0.01)
            written = rt.stats.checkpoints
            rt.checkpoint("site-0")
            if rt.stats.checkpoints != written:
                states.append(through_text(site.durable_snapshot()))
    asyncio.run(rt.close())
    assert rt.stats.compactions == 1  # the first checkpoint only
    log = (data_dir / "site-site-0.log").read_bytes()
    offsets, start = [], 0
    while start < len(log):
        offsets.append(start)
        start += 8 + int.from_bytes(log[start:start + 4], "big")
    assert len(offsets) == len(states) - 1 >= 4
    return SiteLog(
        (data_dir / "site-site-0.json").read_bytes(), log, states, offsets
    )


class TestSiteLogsAreValidated:
    def load(self, tmp_path, site_file, log):
        (tmp_path / "site-site-0.json").write_bytes(site_file)
        (tmp_path / "site-site-0.log").write_bytes(log)
        return AsyncioRuntime(data_dir=str(tmp_path)).load_durable("site-0")

    def test_site_file_plus_log_is_the_last_state(self, site_log, tmp_path):
        loaded = self.load(tmp_path, site_log.site_file, site_log.log)
        assert loaded == site_log.states[-1]
        assert loaded != site_log.states[-2]

    def test_a_torn_last_record_boots_to_the_record_before(
        self, site_log, tmp_path
    ):
        last = site_log.offsets[-1]
        damaged = [site_log.log[:cut] for cut in range(last, len(site_log.log))]
        flipped = bytearray(site_log.log)
        flipped[-1] ^= 0x01
        damaged.append(bytes(flipped))
        for log in damaged:
            loaded = self.load(tmp_path, site_log.site_file, log)
            assert loaded == site_log.states[-2], len(log)

    def test_a_damaged_earlier_record_refuses_to_boot(self, site_log, tmp_path):
        records = zip(site_log.offsets, site_log.offsets[1:])
        for start, end in records:
            for position in (start + 4, (start + 8 + end) // 2, end - 1):
                damaged = bytearray(site_log.log)
                damaged[position] ^= 0x01  # the CRC, mid-body, last byte
                with pytest.raises(DurableStateError, match="site-site-0.log"):
                    self.load(tmp_path, site_log.site_file, bytes(damaged))

    def test_a_leftover_log_over_a_newer_site_file_changes_nothing(
        self, site_log, tmp_path
    ):
        # A crash between the compaction's rename and the log's removal.
        newest = dump_snapshot(site_log.states[-1]).encode()
        loaded = self.load(tmp_path, newest, site_log.log)
        assert loaded == site_log.states[-1]

    def test_a_stray_temporary_site_file_is_ignored(self, site_log, tmp_path):
        (tmp_path / "site-site-0.json.tmp").write_bytes(b"\x00 half a write")
        loaded = self.load(tmp_path, site_log.site_file, site_log.log)
        assert loaded == site_log.states[-1]

    def test_a_log_without_its_site_file_refuses_to_boot(
        self, site_log, tmp_path
    ):
        (tmp_path / "site-site-0.log").write_bytes(site_log.log)
        with pytest.raises(DurableStateError, match="site-site-0.log"):
            AsyncioRuntime(data_dir=str(tmp_path)).load_durable("site-0")
