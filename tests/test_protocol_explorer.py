"""Explorer coverage for the bake-off protocols.

The explorer must walk Paxos Commit and path-sensitive systems exactly
as it walks the default polyvalue system: seeded walks find zero
violations, schedules round-trip through the artifact format with
their protocol field intact, and a replayed schedule reproduces the
original run bit-for-bit.  Blocking 2PC gets a regression schedule:
the system may not be called converged while a blocked participant
still holds its locks.
"""

import dataclasses

import pytest

from repro.check.explorer import (
    Schedule,
    explore,
    load_artifact,
    random_walk,
    run_schedule,
    schedule_config,
)
from repro.net.failures import FailureAction
from repro.parallel.artifacts import write_violation_artifact

PROTOCOLS = ("paxos", "pathsensitive")


class TestScheduleProtocolField:
    def test_round_trips_through_dict(self):
        schedule = Schedule(
            scenario="transfers",
            seed=3,
            actions=(
                FailureAction(at=0.4, kind="crash", targets=("site-1",)),
                FailureAction(at=1.2, kind="recover", targets=("site-1",)),
            ),
            protocol="paxos",
            label="round-trip",
        )
        restored = Schedule.from_dict(schedule.to_dict())
        assert restored == schedule
        assert restored.fingerprint() == schedule.fingerprint()

    def test_protocol_changes_fingerprint(self):
        base = random_walk("pair", 11, steps=4)
        armed = dataclasses.replace(base, protocol="paxos")
        assert armed.fingerprint() != base.fingerprint()

    def test_unset_protocol_keeps_default_config_path(self):
        # Historical fingerprints depend on plain schedules resolving
        # to "no config override" — never to an explicit polyvalue one.
        assert schedule_config(random_walk("pair", 1, steps=3)) is None

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_schedule_config_selects_protocol(self, protocol):
        schedule = dataclasses.replace(
            random_walk("pair", 1, steps=3), protocol=protocol
        )
        config = schedule_config(schedule)
        assert config is not None
        assert config.protocol_kind == protocol


class TestSeededWalks:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_small_budget_walks_are_clean(self, protocol):
        report = explore(
            scenarios=("pair", "transfers"),
            trials=2,
            steps=6,
            include_enumeration=False,
            protocol=protocol,
        )
        assert report.failed_trials == []
        assert report.schedules_run == 4
        assert report.ok, [str(v) for v in report.violations]

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_walks_are_deterministic(self, protocol):
        schedule = dataclasses.replace(
            random_walk("transfers", 21, steps=6), protocol=protocol
        )
        first = run_schedule(schedule)
        second = run_schedule(schedule)
        assert first.ok and second.ok
        assert first.converged and second.converged
        assert first.stats == second.stats
        assert first.events_processed == second.events_processed


class TestArtifactRoundTrip:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_write_load_replay(self, protocol, tmp_path):
        schedule = dataclasses.replace(
            random_walk("transfers", 33, steps=6), protocol=protocol
        )
        path = write_violation_artifact(schedule, [], str(tmp_path))
        restored = load_artifact(path)
        assert restored.protocol == protocol
        assert restored == schedule
        direct = run_schedule(schedule)
        replayed = run_schedule(restored)
        assert replayed.ok == direct.ok
        assert replayed.stats == direct.stats


class TestBlockingConvergence:
    def test_settle_waits_for_the_blocked_participant(self):
        # Found by `repro check --seeds 25 --steps 12 --protocol blocking`
        # (walk pair:23687172725): settle() used to stop at t=4.5, one
        # maintenance pass before site-1's outcome query would have
        # released its locks on item-1.
        hop = ("site-0", "site-1")
        schedule = Schedule(
            scenario="pair",
            seed=23687172725,
            actions=(
                FailureAction(at=0.03, kind="crash", targets=("site-0",)),
                FailureAction(at=0.12, kind="partition", targets=hop),
                FailureAction(at=0.135, kind="heal", targets=hop),
                FailureAction(at=0.259, kind="partition", targets=hop),
                FailureAction(at=0.263, kind="recover", targets=("site-0",)),
                FailureAction(at=1.323, kind="heal", targets=hop),
                FailureAction(at=1.823, kind="partition", targets=hop),
                FailureAction(at=2.823, kind="crash", targets=("site-1",)),
                FailureAction(at=2.853, kind="recover", targets=("site-1",)),
            ),
            protocol="blocking",
        )
        result = run_schedule(schedule)
        assert result.converged
        assert result.ok, [str(v) for v in result.violations]
