"""Guard: the hot-path performance layer actually pays for itself.

The perf layer has two tiers — sim/net fast paths (quiescence as a
counter, the polyvalue reduce short-circuit) and the ``python -m repro
bench`` measurement harness.  The condition algebra has no fast-path
layer to guard: a condition is an exact truth table, and
``tests/test_work_per_commit.py`` gates the work per commit instead.
These benchmarks pin the *machine-relative* contracts: the optimised
path must beat the same workload with the optimisation disabled in
this very process.  Absolute ops/s belong in ``BENCH_perf.json``, not
in assertions — they would flake across runners.

Run the heavyweight set with ``pytest benchmarks/ --runslow``.
"""

import time

import pytest

from repro import bench
from repro.core.conditions import Condition
from repro.core.polyvalue import Polyvalue
from repro.txn.system import DistributedSystem

class TestPolyvalueFastPaths:
    def test_reduce_identity_short_circuit_returns_self(self):
        pv = Polyvalue(
            [(100, Condition.of("T1")), (150, Condition.not_of("T1"))]
        )
        assert pv.reduce({"UNRELATED": True}) is pv


class TestQuiescenceCounter:
    FOREGROUND = 20_000
    BACKGROUND = 10_000

    def _loaded_system(self):
        system = DistributedSystem.build(sites=1, items={"a": 0}, seed=0)
        for index in range(self.BACKGROUND):
            system.sim.schedule(10.0 + index, lambda: None, label="arrival")
        for index in range(self.FOREGROUND):
            system.sim.schedule(
                0.5 * (index + 1) / self.FOREGROUND, lambda: None, label="work"
            )
        return system

    def _best_of(self, drain, rounds=3):
        best = float("inf")
        for _ in range(rounds):
            system = self._loaded_system()
            start = time.perf_counter()
            drain(system)
            best = min(best, time.perf_counter() - start)
            assert system.sim.events_processed == self.FOREGROUND
        return best

    def test_draining_to_quiescence_costs_no_more_than_run_until(self):
        # Asking "is anything but background work pending" after every
        # event is a counter read: a long queue of pending background
        # events must not make the quiescence loop slower than the
        # plain time-bounded loop over the same events.
        plain = self._best_of(lambda system: system.run_until(0.5))
        counted = self._best_of(lambda system: system.run_to_quiescence())
        plain = min(plain, self._best_of(lambda system: system.run_until(0.5)))
        assert counted <= plain * 1.5 + 0.002, (
            f"run_to_quiescence {counted * 1000:.1f}ms vs run_until "
            f"{plain * 1000:.1f}ms over the same {self.FOREGROUND} events"
        )


class TestExplorerThroughput:
    def test_explorer_smoke_budget_runs_clean(self):
        report = bench.bench_explorer(seeds=3)
        assert report["ok"]
        assert report["schedules"] > 0
        assert report["schedules_per_s"] > 0

    @pytest.mark.slow
    def test_full_explorer_budget_matches_bench_check(self):
        # Same seed budget as BENCH_check.json / the CI check job.
        report = bench.bench_explorer(seeds=bench.FULL_EXPLORER_SEEDS)
        assert report["ok"]
        assert report["schedules"] >= 100


class TestBenchHarness:
    def test_table2_smoke_duration_is_accepted_by_every_row(self):
        wall = bench.bench_table2(duration=bench.SMOKE_TABLE2_DURATION)
        assert wall > 0

    @pytest.mark.slow
    def test_smoke_payload_schema(self):
        report = bench.run_benchmarks(smoke=True)
        assert report["schema"] == 1
        assert report["mode"] == "smoke"
        assert set(report["results"]) >= {
            "condition_ops_per_s",
            "polyvalue_ops_per_s",
            "explorer_schedules",
            "explorer_schedules_per_s",
            "explorer_ok",
            "table2_wall_s",
            "gray_oracles_ok",
            "parallel_cpus",
            "parallel_campaign_trials",
            "parallel_bitwise_identical",
            "campaign_jobs1_per_s",
        }
        assert set(report["guards"]) >= {
            "adaptive_spurious_reduction",
            "outage_detection_parity",
            "retransmission_reduction",
        }
        assert report["results"]["parallel_bitwise_identical"] is True
        assert report["pre_pr_baseline"] == bench.PRE_PR_BASELINE
        # A payload never regresses against itself.
        assert bench.check_regression(report, report) == []

    def test_check_regression_flags_guard_drops(self):
        report = {
            "results": {"explorer_ok": True},
            "guards": {
                "adaptive_spurious_reduction": 1.0,
                "retransmission_reduction": 6.0,
            },
        }
        baseline = {
            "guards": {
                "adaptive_spurious_reduction": 6.0,
                "retransmission_reduction": 6.0,
            }
        }
        failures = bench.check_regression(report, baseline)
        assert len(failures) == 1
        assert "adaptive_spurious_reduction" in failures[0]

    def test_check_regression_flags_missing_guard_and_oracle_failure(self):
        report = {"results": {"explorer_ok": False}, "guards": {}}
        baseline = {"guards": {"adaptive_spurious_reduction": 6.0}}
        failures = bench.check_regression(report, baseline)
        assert any("missing" in failure for failure in failures)
        assert any("oracle" in failure for failure in failures)

    def test_check_regression_skips_parallel_guards_below_core_count(self):
        # A 1-core machine cannot measure jobs=4 scaling: the committed
        # floor is enforced by multi-core CI, not failed locally.
        baseline = {"guards": {"parallel_speedup_jobs4": 2.0}}
        single_core = {"results": {"parallel_cpus": 1}, "guards": {}}
        assert bench.check_regression(single_core, baseline) == []
        quad_core = {"results": {"parallel_cpus": 4}, "guards": {}}
        failures = bench.check_regression(quad_core, baseline)
        assert any("missing" in failure for failure in failures)
        quad_slow = {
            "results": {"parallel_cpus": 4},
            "guards": {"parallel_speedup_jobs4": 1.0},
        }
        failures = bench.check_regression(quad_slow, baseline)
        assert any("parallel_speedup_jobs4" in f for f in failures)

    def test_check_regression_flags_serial_parallel_divergence(self):
        report = {
            "results": {"parallel_bitwise_identical": False},
            "guards": {},
        }
        failures = bench.check_regression(report, {"guards": {}})
        assert any("diverged" in failure for failure in failures)
