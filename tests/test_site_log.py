"""Durable sites append what changed: the site log against memory.

With a data directory, ``AsyncioRuntime`` keeps each site's durable state
as a compacted site file plus a log of checksummed change records.  These
tests pin that after every checkpoint the files of every up site decode —
by a reader written here, independent of the runtime's — to exactly the
site's ``durable_snapshot()``, that no log is left whenever the runtime is
quiescent, and that a log under load that never goes quiet stays within
the size of its site file.
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
from repro.txn.timeouts import TimeoutPolicy


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
        for site_id, provider in rt._snapshots.items():
            if site_id not in rt._down:
                expected = json.loads(dump_snapshot(provider()))
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
    rt.attach_durability("s", lambda: json.loads(json.dumps(state)))
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
    rt.attach_durability("s", lambda: {"values": {"x": 1}})
    rt._in_flight = 1
    for _ in range(3):
        rt.checkpoint("s")
    counts = rt.stats.as_dict()
    # The first checkpoint wrote the site file; the others found no change.
    assert (counts["checkpoints"], counts["compactions"], counts["log_bytes"]) == (
        1, 1, 0,
    )
    assert not (tmp_path / "site-s.log").exists()
