"""Durable sites append what changed: the site log against memory.

With a data directory, ``AsyncioRuntime`` keeps each site's durable state
as a compacted site file plus a log of checksummed change records, each
rendered from the writes the site marked.  These tests pin that after
every checkpoint the files of every up site decode — by a reader written
here, independent of the runtime's — to exactly the site's
``durable_snapshot()``; that every record is the change a whole-state
comparison finds, so no durable write goes unmarked; that no log is left
whenever the runtime is quiescent; and that a log under load that never
goes quiet stays within the size of its site file.
"""

from __future__ import annotations

import asyncio
import json
import struct
import zlib

import pytest

from repro.live import LiveCluster
from repro.live.client import transfer_script
from repro.runtime import AsyncioRuntime
from repro.runtime.base import dump_snapshot
from repro.txn.config import ProtocolConfig
from repro.txn.paxos import PaxosDecision
from repro.txn.protocol import Complete, OutcomeNotify
from repro.txn.site import DatabaseSite
from repro.txn.system import DistributedSystem
from repro.txn.timeouts import TimeoutPolicy

_MISSING = object()


def change(old, new):
    """The record that turns snapshot *old* into *new* ({} if equal),
    found by comparing the whole of both: top-level keys whose value
    changed go under ``"set"``, a section that is a dict on both sides
    under ``"patch"`` as ``[sub-keys set, sub-keys deleted]``, removed
    keys under ``"del"``."""
    replaced, patched = {}, {}
    for key, value in new.items():
        before = old.get(key, _MISSING)
        if value == before:
            continue
        if isinstance(value, dict) and isinstance(before, dict):
            patched[key] = [
                {
                    sub: item
                    for sub, item in value.items()
                    if before.get(sub, _MISSING) != item
                },
                [sub for sub in before if sub not in value],
            ]
        else:
            replaced[key] = value
    record = {}
    if replaced:
        record["set"] = replaced
    if patched:
        record["patch"] = patched
    removed = [key for key in old if key not in new]
    if removed:
        record["del"] = removed
    return record


def canonical(record):
    """*record* with its deletion lists sorted: replay does not depend on
    their order."""
    record = dict(record)
    if "patch" in record:
        record["patch"] = {
            key: [changed, sorted(deleted)]
            for key, (changed, deleted) in record["patch"].items()
        }
    if "del" in record:
        record["del"] = sorted(record["del"])
    return record


class DictState:
    """A durable source over a plain dict that marks nothing: each
    record is the whole-state comparison."""

    def __init__(self, state):
        self.state = state

    def durable_snapshot(self):
        return json.loads(json.dumps(self.state))

    def track_changes(self):
        pass

    def durable_record(self, logged):
        return change(logged, self.durable_snapshot())


def on_disk(data_dir, site):
    """Site file + every log record, strictly: a record that fails its
    CRC, or deletes what is not there, fails the test."""
    state = json.loads((data_dir / f"site-{site}.json").read_bytes())
    path = data_dir / f"site-{site}.log"
    log = path.read_bytes() if path.exists() else b""
    offset = 0
    while offset < len(log):
        length, crc = struct.unpack_from(">II", log, offset)
        body = log[offset + 8:offset + 8 + length]
        assert zlib.crc32(body) == crc, (site, offset)
        record = json.loads(body)
        state.update(record.get("set", {}))
        for key, (changed, deleted) in record.get("patch", {}).items():
            state[key].update(changed)
            for sub in deleted:
                del state[key][sub]
        for key in record.get("del", []):
            del state[key]
        offset += 8 + length
    return state


@pytest.mark.parametrize("protocol", ["polyvalue", "blocking", "paxos"])
def test_disk_equals_memory_after_every_checkpoint(
    monkeypatch, tmp_path, protocol
):
    # Failures are collected, not raised: checkpoint runs inside socket
    # and timer callbacks, where an exception would only be logged.
    problems = []
    audits = {"checked": 0, "quiet": 0}
    checkpoint = AsyncioRuntime.checkpoint

    def audited(rt, site):
        checkpoint(rt, site)
        for site_id, source in rt._sources.items():
            if site_id not in rt._down:
                expected = json.loads(dump_snapshot(source.durable_snapshot()))
                if on_disk(tmp_path, site_id) != expected:
                    problems.append(f"{site_id} after checkpoint({site})")
                audits["checked"] += 1
        if rt.quiescent():
            audits["quiet"] += 1
            if list(tmp_path.glob("*.log")):
                problems.append(f"quiescent with a log, at checkpoint({site})")

    monkeypatch.setattr(AsyncioRuntime, "checkpoint", audited)
    accounts = {f"acct-{index:02d}": 100 for index in range(30)}

    async def scenario():
        cluster = LiveCluster(
            sites=3,
            items=accounts,
            protocol=protocol,
            seed=8,
            config=ProtocolConfig(
                wait_timeout=0.2,
                outcome_query_interval=0.25,
                timeout_policy=TimeoutPolicy(),
            ),
            data_dir=str(tmp_path),
        )
        await cluster.start()
        try:
            for round_, site in enumerate(sorted(cluster.sites)):
                handles = [
                    cluster.submit_script(
                        transfer_script(
                            f"acct-{index:02d}", f"acct-{index + 1:02d}", round_ + 1
                        )
                    )
                    for index in range(round_ * 8, round_ * 8 + 8)
                ]
                await asyncio.sleep(0.003)
                cluster.crash(site)
                await asyncio.sleep(0.05)
                cluster.restart(site)
                for handle in handles:
                    assert await cluster.wait_decided(handle, timeout=10.0)
                assert await cluster.wait_converged(timeout=15.0)
            return cluster.database_state(), cluster.runtime.stats
        finally:
            await cluster.stop()

    state, stats = asyncio.run(scenario())
    assert not problems, problems[:5]
    assert sum(state.values()) == sum(accounts.values())
    assert stats.handler_errors == 0
    assert stats.log_bytes > 0 and stats.compactions > 3
    assert audits["checked"] > 100 and audits["quiet"] >= 3
    assert not list(tmp_path.glob("*.log"))


def test_a_log_that_never_goes_quiet_stays_within_its_site_file(tmp_path):
    state = {"version": 1, "values": {}, "sequence": 0}
    rt = AsyncioRuntime(data_dir=str(tmp_path))
    rt.attach_durability("s", DictState(state))
    rt._in_flight = 1  # a frame on the wire: the runtime is never quiescent
    log = tmp_path / "site-s.log"
    largest_record = 0
    for step in range(400):
        state["values"][f"item-{step % 40}"] = step
        if step % 3 == 0:
            state["values"].pop(f"item-{(step + 20) % 40}", None)
        state["sequence"] = step
        appended = rt.stats.log_bytes
        rt.checkpoint("s")
        largest_record = max(largest_record, rt.stats.log_bytes - appended)
        logged = log.stat().st_size if log.exists() else 0
        site_file = (tmp_path / "site-s.json").stat().st_size
        assert logged <= site_file + largest_record, step
        assert on_disk(tmp_path, "s") == state, step
    asyncio.run(rt.close())
    assert rt.stats.compactions > 10
    assert rt.stats.checkpoints - rt.stats.compactions > 100  # records


def test_an_unchanged_snapshot_writes_nothing(tmp_path):
    rt = AsyncioRuntime(data_dir=str(tmp_path))
    rt.attach_durability("s", DictState({"values": {"x": 1}}))
    rt._in_flight = 1
    for _ in range(3):
        rt.checkpoint("s")
    counts = rt.stats.as_dict()
    # The first checkpoint wrote the site file; the others found no change.
    assert (counts["checkpoints"], counts["compactions"], counts["log_bytes"]) == (
        1, 1, 0,
    )
    assert not (tmp_path / "site-s.log").exists()


#: Top-level sections each protocol's scenario below must write.
REACHED = {
    "polyvalue": {
        "values", "outcome_log", "known_outcomes", "direct_doubts",
        "forwarded", "pending_notifies", "staged", "sequence",
    },
    "blocking": {
        "values", "outcome_log", "known_outcomes", "staged", "sequence",
    },
    "relaxed": {
        "values", "outcome_log", "known_outcomes", "staged", "unilateral",
        "sequence",
    },
    "paxos": {
        "values", "outcome_log", "known_outcomes", "staged", "sequence",
        "paxos",
    },
}


@pytest.mark.parametrize("protocol", sorted(REACHED))
def test_every_record_is_the_change_a_whole_state_comparison_finds(
    monkeypatch, tmp_path, protocol
):
    """Marks are complete: each record a site renders from its marks is
    what comparing its whole snapshot with the logged one gives."""
    problems, reached = [], set()
    records = {"count": 0}
    durable_record = DatabaseSite.durable_record

    def compared(site, logged):
        expected = change(logged, site.durable_snapshot())
        record = durable_record(site, logged)
        if canonical(record) != canonical(expected):
            problems.append((site.site_id, record, expected))
        reached.update(record.get("set", {}), record.get("patch", {}))
        records["count"] += bool(record)
        return record

    monkeypatch.setattr(DatabaseSite, "durable_record", compared)
    accounts = {f"acct-{index:02d}": 100 for index in range(30)}

    async def scenario():
        cluster = LiveCluster(
            sites=3,
            items=accounts,
            protocol=protocol,
            seed=8,
            config=ProtocolConfig(
                wait_timeout=0.2,
                outcome_query_interval=0.25,
                timeout_policy=TimeoutPolicy(),
            ),
            data_dir=str(tmp_path),
        )
        await cluster.start()
        try:
            # site-2 misses its decisions, so it leaves the wait phase by
            # its protocol's timeout: a polyvalue (which the second
            # transaction reads and forwards to site-1), blocked locks,
            # a unilateral choice, or leader failover.
            missed = (Complete, OutcomeNotify, PaxosDecision)
            cluster.runtime.set_fault(
                lambda env: env.recipient == "site-2"
                and isinstance(env.payload, missed)
            )
            first = cluster.submit_script(
                transfer_script("acct-00", "acct-02", 1), at="site-0"
            )
            assert await cluster.wait_decided(first, timeout=10.0)
            if protocol == "polyvalue":
                deadline = cluster.runtime.now + 8.0
                while not cluster.total_polyvalues():
                    assert cluster.runtime.now < deadline
                    await asyncio.sleep(0.02)
            else:
                await asyncio.sleep(0.6)
            second = cluster.submit_script(
                transfer_script("acct-02", "acct-01", 1), at="site-0"
            )
            assert await cluster.wait_decided(second, timeout=10.0)
            cluster.runtime.set_fault(None)
            assert await cluster.wait_converged(timeout=15.0)
            for round_, site in enumerate(sorted(cluster.sites)):
                handles = [
                    cluster.submit_script(
                        transfer_script(
                            f"acct-{index:02d}", f"acct-{index + 1:02d}", 1
                        )
                    )
                    for index in range(3 + round_ * 8, 3 + round_ * 8 + 8)
                ]
                await asyncio.sleep(0.003)
                cluster.crash(site)
                await asyncio.sleep(0.05)
                cluster.restart(site)
                for handle in handles:
                    assert await cluster.wait_decided(handle, timeout=10.0)
                assert await cluster.wait_converged(timeout=15.0)
            return cluster.database_state(), cluster.runtime.stats
        finally:
            await cluster.stop()

    state, stats = asyncio.run(scenario())
    assert not problems, problems[:3]
    assert stats.handler_errors == 0
    assert records["count"] > 30
    assert reached == REACHED[protocol], sorted(reached ^ REACHED[protocol])
    if protocol != "relaxed":  # a unilateral abort may lose a transfer
        assert sum(state.values()) == sum(accounts.values())


def test_a_site_with_nothing_marked_renders_nothing(monkeypatch):
    system = DistributedSystem.build(sites=2, items={"x": 1, "y": 2})
    site = system.sites[system.catalog.site_of("x")]
    assert site.runtime.marks is None  # nothing kept until a log asks
    site.track_changes()
    logged = site.durable_snapshot()
    for render in set(DatabaseSite.DURABLE_SECTIONS.values()):
        monkeypatch.setattr(DatabaseSite, render, None)
    assert site.durable_record(logged) == {}
    monkeypatch.undo()
    site.runtime.store.write("x", 5)
    assert site.durable_record(logged) == {"patch": {"values": [{"x": 5}, []]}}
    assert site.durable_record(logged) == {}
