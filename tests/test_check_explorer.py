"""Tests for the deterministic schedule explorer (repro.check.explorer)."""

import json

import pytest

from repro.check import (
    Schedule,
    enumerate_small_scope,
    explore,
    load_artifact,
    random_walk,
    replay,
    run_schedule,
)
from repro.check.mutation import _armed, smoke_schedules
from repro.check.scenarios import SCENARIOS, build_scenario
from repro.core.errors import SimulationError
from repro.net.failures import FailureAction


class TestScenarios:
    def test_catalogue(self):
        assert set(SCENARIOS) == {"pair", "transfers", "mixed"}

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SimulationError):
            build_scenario("nope", seed=0)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_traffic_is_deterministic(self, name):
        first = build_scenario(name, seed=3)
        second = build_scenario(name, seed=3)
        first.run_until(6.0)
        second.run_until(6.0)
        assert first.sim.events_processed == second.sim.events_processed
        assert first.database_state() == second.database_state()
        assert [h.status for h in first.handles] == [
            h.status for h in second.handles
        ]


class TestScheduleGeneration:
    def test_walk_is_seed_deterministic(self):
        assert random_walk("pair", 7) == random_walk("pair", 7)

    def test_walks_differ_across_seeds(self):
        walks = {random_walk("pair", seed).actions for seed in range(12)}
        assert len(walks) > 1

    def test_walk_actions_are_ordered_and_sane(self, repro_seed):
        walk = random_walk("transfers", repro_seed, steps=20)
        times = [action.at for action in walk.actions]
        assert times == sorted(times)
        for action in walk.actions:
            assert action.kind in FailureAction.KINDS

    def test_small_scope_covers_every_site(self):
        schedules = enumerate_small_scope()
        for scenario in ("pair", "transfers"):
            crashed = {
                schedule.actions[0].targets[0]
                for schedule in schedules
                if schedule.scenario == scenario
                and schedule.actions[0].kind == "crash"
            }
            expected = {
                f"site-{i}" for i in range(SCENARIOS[scenario].sites)
            }
            assert crashed == expected


class TestRunSchedule:
    def test_empty_schedule_converges_clean(self):
        result = run_schedule(Schedule(scenario="pair", seed=1, actions=()))
        assert result.ok
        assert result.converged
        assert result.final_verdicts

    def test_crash_schedule_converges_clean(self):
        schedule = Schedule(
            scenario="pair",
            seed=0,
            actions=(
                FailureAction(at=0.05, kind="crash", targets=("site-0",)),
                FailureAction(at=1.0, kind="recover", targets=("site-0",)),
            ),
        )
        result = run_schedule(schedule)
        assert result.ok, [str(v) for v in result.violations]
        assert result.quiescent_checkpoints >= 2

    def test_runs_are_reproducible(self):
        schedule = enumerate_small_scope(("pair",))[5]
        first = run_schedule(schedule)
        second = run_schedule(schedule)
        assert first.events_processed == second.events_processed
        assert first.violations == second.violations

    def test_walk_run_with_session_seed(self, repro_seed):
        result = run_schedule(random_walk("mixed", repro_seed, steps=10))
        assert result.ok, [str(v) for v in result.violations]


class TestArtifacts:
    def test_schedule_json_round_trip(self):
        schedule = random_walk("transfers", 9, steps=15)
        clone = Schedule.from_dict(
            json.loads(json.dumps(schedule.to_dict()))
        )
        assert clone == schedule

    def test_violation_writes_artifact_and_replays(self, tmp_path):
        # Arm a known-bad mutant so a violation is guaranteed, then
        # prove the artifact replays to the identical violation set.
        schedule = _armed(smoke_schedules("keep-locks")[0], "keep-locks")
        result = run_schedule(schedule, artifact_dir=str(tmp_path))
        assert not result.ok
        assert result.artifact_path is not None
        loaded = load_artifact(result.artifact_path)
        assert loaded == schedule
        replayed = replay(result.artifact_path)
        assert replayed.violations == result.violations
        assert replayed.events_processed == result.events_processed

    def test_clean_run_writes_no_artifact(self, tmp_path):
        result = run_schedule(
            Schedule(scenario="pair", seed=2, actions=()),
            artifact_dir=str(tmp_path),
        )
        assert result.ok
        assert result.artifact_path is None
        assert list(tmp_path.iterdir()) == []


class TestExplore:
    def test_small_budget_all_green(self):
        report = explore(
            scenarios=("pair",),
            seeds=range(3),
            steps=6,
            include_enumeration=False,
        )
        assert report.schedules_run == 3
        assert report.ok
        assert report.schedules_per_second > 0
        assert any("schedules explored" in line
                   for line in report.summary_lines())
