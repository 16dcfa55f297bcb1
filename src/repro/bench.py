"""Performance benchmarks for the hot paths (``python -m repro bench``).

The ROADMAP's north star is a system that runs "as fast as the hardware
allows"; this module gives every PR a measured trajectory to move.  It
times the four hot paths the performance layer optimises:

* **condition ops** — the ``&``/``|``/``~``/``substitute`` algebra of
  :mod:`repro.core.conditions` (truth tables over a tiny support);
* **polyvalue reads** — :func:`~repro.core.polyvalue.combine`,
  :meth:`~repro.core.polyvalue.Polyvalue.reduce` and
  :meth:`~repro.core.polyvalue.Polyvalue.in_doubt`;
* **explorer throughput** — schedules/second of the correctness
  harness's deterministic explorer (indexed event heap);
* **Table-2 wall time** — the end-to-end Monte-Carlo simulation of the
  paper's section 4.2.

Besides raw ops/s — which vary with the machine — the report includes
*guards* that transfer across machines.  The resilience layer adds
three machine-relative ratios (see :func:`bench_resilience` and
``docs/faults.md``):

* ``adaptive_spurious_reduction`` — spurious wait-timeout polyvalue
  installs under the reference gray campaign, fixed / resilient;
* ``outage_detection_parity`` — real-outage detection latency,
  fixed / resilient;
* ``retransmission_reduction`` — owed-notification sends over a
  one-minute outage, flat-interval / exponential-backoff.

The commit-protocol bake-off adds the frontier guards (see
:mod:`repro.frontier` and ``docs/protocols.md``): per-protocol commit
availability floors over the shared fault matrix, the path-sensitive
message-advantage ratio, and the Didona one-round-trip latency sanity
bit.

CI compares the guards against the committed ``BENCH_perf.json`` and
fails on a >25% relative regression; ratios transfer across runner
speeds where absolute ops/s do not.  See ``docs/performance.md``.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional, Sequence

from repro.core.conditions import Condition
from repro.core.polyvalue import Polyvalue, combine
from repro.parallel.artifacts import write_json
from repro.parallel.pool import default_jobs
from repro.parallel.seeds import trial_seed

#: Seconds each microbenchmark loop runs for (after one warmup call).
FULL_MIN_TIME = 0.4
SMOKE_MIN_TIME = 0.05

#: Explorer seed budget in full mode — matches ``BENCH_check.json`` so
#: the schedules/s figures are directly comparable.
FULL_EXPLORER_SEEDS = 25
SMOKE_EXPLORER_SEEDS = 5

#: Simulated seconds per Table-2 row (full mode mirrors the pre-PR
#: baseline measurement recorded in ``BENCH_perf.json``).
FULL_TABLE2_DURATION = 2000.0
#: Shortest duration every Table-2 row accepts (4/R with R = 0.01).
SMOKE_TABLE2_DURATION = 400.0


def _ops_per_second(fn: Callable[[], None], min_time: float) -> float:
    """Iterations/second of *fn*: one warmup call, then a timed loop."""
    fn()
    count = 0
    start = time.perf_counter()
    while time.perf_counter() - start < min_time:
        fn()
        count += 1
    return count / (time.perf_counter() - start)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

_TXNS = tuple(f"T{i}" for i in range(6))


def _condition_ops() -> None:
    """Repeated ``&``, ``|``, ``~`` and substitution over a small space.

    This workload (including its exact fold order) is frozen: the
    ``pre_pr_baseline`` numbers in ``BENCH_perf.json`` were measured
    with it, so changing it would invalidate the trajectory.
    """
    conds = [Condition.of(t) for t in _TXNS]
    c = Condition.true()
    for i, _ in enumerate(_TXNS):
        c = (c & conds[i]) | ~conds[(i + 1) % len(_TXNS)]
    c.substitute({"T0": True, "T1": False})
    c.variables()
    c.is_satisfiable()
    (conds[0] & ~conds[1]) | (conds[2] & conds[3])


def _polyvalue_reads() -> None:
    """Lifted reads against a two-alternative polyvalue (also frozen)."""
    pv = Polyvalue([(100, Condition.of("T1")), (150, Condition.not_of("T1"))])
    for _ in range(10):
        combine(lambda a, b: a + b, pv, 5)
        pv.reduce({"T1": True})
        Polyvalue.in_doubt("T2", 7, 7)
        Polyvalue.in_doubt("T3", 7, 9)


# ----------------------------------------------------------------------
# Benchmark suite
# ----------------------------------------------------------------------


def bench_condition_ops(min_time: float = FULL_MIN_TIME) -> float:
    """Condition-algebra ops/s."""
    return _ops_per_second(_condition_ops, min_time)


def bench_polyvalue_reads(min_time: float = FULL_MIN_TIME) -> float:
    """Polyvalue read-path ops/s."""
    return _ops_per_second(_polyvalue_reads, min_time)


def bench_explorer(
    seeds: int = FULL_EXPLORER_SEEDS,
    first: int = 0,
    jobs: Optional[int] = 1,
) -> Dict[str, Any]:
    """Schedules/second of the deterministic explorer (oracles on)."""
    from repro.check.explorer import explore

    report = explore(
        campaign_seed=first,
        trials=seeds,
        include_enumeration=True,
        jobs=jobs,
    )
    return {
        "schedules": report.schedules_run,
        "schedules_per_s": report.schedules_per_second,
        "ok": report.ok,
    }


# ----------------------------------------------------------------------
# Resilience benchmarks (the gray-failure layer)
# ----------------------------------------------------------------------

#: Simulated seconds of gray-campaign traffic.  Smoke mode does NOT
#: shrink this: simulated seconds are nearly free in wall time, and an
#: identical seeded run makes every resilience guard bit-for-bit
#: reproducible across machines (unlike the timing-based guards).
GRAY_DURATION = 200.0

#: Simulated seconds the retransmission outage lasts (the acceptance
#: scenario: one site down for a minute while owed a notification).
OUTAGE_DURATION = 60.0


def _resilience_transfer(src: str, dst: str):
    from repro.txn.transaction import Transaction

    def body(ctx):
        ctx.write(src, ctx.read(src) - 1)
        ctx.write(dst, ctx.read(dst) + 1)

    return Transaction(body=body, items=(src, dst), label=f"{src}->{dst}")


def _resilience_spread(items3):
    from repro.txn.transaction import Transaction

    a, b, c = items3

    def body(ctx):
        ctx.write(a, ctx.read(a) - 2)
        ctx.write(b, ctx.read(b) + 1)
        ctx.write(c, ctx.read(c) + 1)

    return Transaction(body=body, items=items3, label=f"spread:{a}")


def _resilience_config(resilient: bool, retry=None):
    from repro.txn.config import ProtocolConfig
    from repro.txn.timeouts import TimeoutPolicy

    kwargs = {"retry": retry} if retry is not None else {}
    if resilient:
        # The resilient stack: adaptive RTO + two §6 wait-phase probes
        # (three probes at the adaptive RTO fit the fixed policy's
        # outage-detection budget — measured by the parity guard).
        return ProtocolConfig(
            timeout_policy=TimeoutPolicy(mode="adaptive"),
            wait_query_retries=2,
            **kwargs,
        )
    return ProtocolConfig(**kwargs)


def _gray_campaign_run(resilient: bool, seed: int, duration: float) -> Dict[str, Any]:
    """The reference gray campaign: no crash ever happens, so every
    wait-timeout polyvalue install is spurious.

    Three sites; healthy warmup, then one site degraded x5, one
    directed link spiked x10 and 2% ambient message loss for the rest
    of the run.  Steady disjoint three-site transactions keep lock
    contention out of the measurement.
    """
    from repro.check.oracles import CheckContext, check_converged, failed
    from repro.txn.system import DistributedSystem

    system = DistributedSystem.build(
        sites=3,
        items={f"item-{i}": 100 for i in range(12)},
        seed=seed,
        loss_probability=0.02,
        config=_resilience_config(resilient),
    )
    groups = [
        tuple(f"item-{3 * g + k}" for k in range(3)) for g in range(4)
    ]
    at, index = 0.1, 0
    while at < duration:
        group = groups[index % len(groups)]
        system.sim.schedule_at(
            at,
            lambda g=group: system.submit(_resilience_spread(g)),
            label="arrival",
        )
        at += 0.2
        index += 1
    system.run_until(5.0)  # healthy warmup: estimators sample real RTTs
    system.degrade_site("site-2", 5.0)
    system.network.spike_link("site-0", "site-1", 10.0)
    system.run_until(duration)
    system.restore_site("site-2")
    system.network.clear_link("site-0", "site-1")
    settled = system.settle(max_time=system.now + 120.0)
    oracles = check_converged(CheckContext(system=system))
    return {
        "spurious_installs": system.metrics.in_doubt_windows,
        "committed": system.metrics.committed,
        "aborted": system.metrics.aborted,
        "settled": settled,
        "oracles_checked": len(oracles),
        "oracles_ok": settled and not failed(oracles),
    }


def _outage_detection_run(resilient: bool, seed: int) -> float:
    """Seconds from a real coordinator crash (healthy network, warmed
    estimators) to the participant's first polyvalue install."""
    from repro.txn.system import DistributedSystem

    system = DistributedSystem.build(
        sites=3,
        items={f"item-{i}": 100 for i in range(6)},
        seed=seed,
        config=_resilience_config(resilient),
    )
    for _ in range(10):  # warmup so adaptive mode runs on live estimates
        system.submit(_resilience_transfer("item-0", "item-1"))
        system.run_for(0.4)
    system.submit(_resilience_transfer("item-0", "item-1"))
    system.run_for(0.030)  # mid-protocol: the in-doubt window is open
    before = system.metrics.in_doubt_windows
    crashed_at = system.now
    system.crash_site("site-0")
    while (
        system.metrics.in_doubt_windows == before
        and system.now < crashed_at + 30.0
    ):
        system.run_for(0.005)
    latency = system.now - crashed_at
    system.recover_site("site-0")
    system.settle(max_time=system.now + 60.0)
    return latency


def _retransmission_run(flat: bool, seed: int) -> int:
    """OutcomeNotify retransmissions over a one-minute participant
    outage that begins inside the notification window."""
    from repro.txn.system import DistributedSystem
    from repro.txn.timeouts import RetryPolicy

    retry = (
        RetryPolicy(
            backoff_factor=1.0, jitter=0.0, suppression_threshold=10**9
        )
        if flat
        else RetryPolicy()
    )
    system = DistributedSystem.build(
        sites=3,
        items={f"item-{i}": 100 for i in range(6)},
        seed=seed,
        config=_resilience_config(False, retry=retry),
    )
    system.submit(_resilience_transfer("item-0", "item-1"))
    log = system.sites["site-0"].runtime.outcome_log
    while not log.pending() and system.now < 1.0:
        system.run_for(0.002)
    system.crash_site("site-1")
    system.run_for(OUTAGE_DURATION)
    sends = system.metrics.notify_retransmissions
    system.recover_site("site-1")
    system.settle(max_time=system.now + 60.0)
    return sends


def bench_resilience(*, seed: int = 0) -> Dict[str, Any]:
    """The resilience suite: three measurements, three guard ratios.

    * ``adaptive_spurious_reduction`` — spurious wait-timeout polyvalue
      installs under the reference gray campaign, fixed / resilient
      (acceptance floor: 3x);
    * ``outage_detection_parity`` — real-outage detection latency,
      fixed / resilient (~1: the resilient stack buys its reduction
      without giving up detection speed);
    * ``retransmission_reduction`` — OutcomeNotify sends over a
      one-minute owed-notification outage, flat / backoff.
    """
    baseline = _gray_campaign_run(False, seed, GRAY_DURATION)
    resilient = _gray_campaign_run(True, seed, GRAY_DURATION)
    detection_fixed = _outage_detection_run(False, seed)
    detection_adaptive = _outage_detection_run(True, seed)
    flat_sends = _retransmission_run(True, seed)
    backoff_sends = _retransmission_run(False, seed)
    results = {
        "gray_spurious_installs_fixed": baseline["spurious_installs"],
        "gray_spurious_installs_adaptive": resilient["spurious_installs"],
        "gray_committed_fixed": baseline["committed"],
        "gray_committed_adaptive": resilient["committed"],
        "gray_oracles_checked": baseline["oracles_checked"],
        "gray_oracles_ok": bool(
            baseline["oracles_ok"] and resilient["oracles_ok"]
        ),
        "outage_detection_fixed_s": round(detection_fixed, 3),
        "outage_detection_adaptive_s": round(detection_adaptive, 3),
        "outage_retransmissions_flat": flat_sends,
        "outage_retransmissions_backoff": backoff_sends,
    }
    guards = {
        "adaptive_spurious_reduction": round(
            baseline["spurious_installs"]
            / max(1, resilient["spurious_installs"]),
            2,
        ),
        "outage_detection_parity": round(
            detection_fixed / detection_adaptive, 2
        ),
        "retransmission_reduction": round(
            flat_sends / max(1, backoff_sends), 2
        ),
    }
    return {"results": results, "guards": guards}


def bench_table2(duration: float = FULL_TABLE2_DURATION) -> float:
    """Wall seconds to run every Table-2 row for *duration* sim-seconds."""
    from repro.analysis.model import table2_rows
    from repro.analysis.montecarlo import simulate

    start = time.perf_counter()
    for index, row in enumerate(table2_rows()):
        simulate(row.params, duration=duration, seed=trial_seed(0, index))
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# The commit-protocol frontier (the bake-off)
# ----------------------------------------------------------------------

#: Fail-stop walks per scenario in the frontier matrix.
FRONTIER_TRIALS_FULL = 4
FRONTIER_TRIALS_SMOKE = 3


def bench_frontier(
    *,
    seed: int = 0,
    smoke: bool = False,
    jobs: Optional[int] = 1,
    protocols: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """The four-protocol bake-off (see :mod:`repro.frontier`).

    Contributes per-protocol availability floors, the path-sensitive
    message-advantage guard, and the Didona latency sanity bit to the
    benchmark payload.
    """
    from repro.frontier import FRONTIER_PROTOCOLS, run_frontier

    report = run_frontier(
        campaign_seed=seed,
        trials=FRONTIER_TRIALS_SMOKE if smoke else FRONTIER_TRIALS_FULL,
        smoke=smoke,
        jobs=jobs,
        protocols=tuple(protocols) if protocols else FRONTIER_PROTOCOLS,
    )
    payload = report.to_bench()
    payload["results"]["frontier_failed_trials"] = len(report.failed_trials)
    return payload


# ----------------------------------------------------------------------
# Parallel campaign scaling (the campaign engine)
# ----------------------------------------------------------------------

#: Monte-Carlo trials in the scaling campaign.  Each trial is a full
#: stable-period simulation (~0.1-0.2 wall seconds), so chunk dispatch
#: and fork overhead are noise against the work being sharded.
SCALING_TRIALS_FULL = 24
SCALING_TRIALS_SMOKE = 12

#: Worker counts the scaling bench measures.  Levels above what the
#: machine can actually schedule (``default_jobs()``) are skipped —
#: oversubscribed workers time-slice one core and measure nothing.
SCALING_JOBS_LEVELS = (1, 2, 4)


def bench_parallel_scaling(
    *,
    seed: int = 0,
    trials: int = SCALING_TRIALS_FULL,
    jobs_levels: Sequence[int] = SCALING_JOBS_LEVELS,
) -> Dict[str, Any]:
    """Campaign throughput at each worker count, plus speedup guards.

    Runs the same seeded Monte-Carlo campaign (the Table-2 baseline
    row) through :func:`~repro.analysis.montecarlo.simulate_many` at
    each jobs level.  Besides throughput, it asserts the engine's core
    promise — per-seed results bit-identical at every level — and
    reports it as ``parallel_bitwise_identical``.

    Guards are ``parallel_speedup_jobsN`` = throughput at N workers
    over the serial path.  :func:`check_regression` skips a committed
    ``parallel_speedup_jobsN`` guard when the measuring machine has
    fewer than N usable cores (the committed floors are enforced by
    multi-core CI, not by whatever laptop re-runs the suite).
    """
    from repro.analysis.model import ModelParams
    from repro.analysis.montecarlo import simulate_many

    params = ModelParams(
        updates_per_second=40.0,
        failure_probability=0.02,
        items=25_000,
        recovery_rate=0.02,
        dependency_mean=2.0,
        update_independence=0.5,
    )
    cpus = default_jobs()
    results: Dict[str, Any] = {
        "parallel_campaign_trials": trials,
        "parallel_cpus": cpus,
    }
    guards: Dict[str, Any] = {}
    throughput: Dict[int, float] = {}
    reference = None
    identical = True
    for level in jobs_levels:
        if level > max(1, cpus):
            continue
        start = time.perf_counter()
        batch = simulate_many([params] * trials, seed=seed, jobs=level)
        wall = time.perf_counter() - start
        throughput[level] = trials / wall
        results[f"campaign_jobs{level}_per_s"] = round(trials / wall, 2)
        means = [result.mean_polyvalues for result in batch]
        if reference is None:
            reference = means
        elif means != reference:
            identical = False
    results["parallel_bitwise_identical"] = identical
    serial = throughput.get(1)
    for level, rate in throughput.items():
        if level > 1 and serial:
            guards[f"parallel_speedup_jobs{level}"] = round(rate / serial, 2)
    return {"results": results, "guards": guards}


#: The pre-PR measurements this performance layer is judged against,
#: taken on the development machine immediately before the layer was
#: introduced, with the exact workloads above.
PRE_PR_BASELINE: Dict[str, float] = {
    "condition_ops_per_s": 2627.1,
    "polyvalue_ops_per_s": 381.0,
    "explorer_schedules_per_s": 723.4,
    "table2_wall_s": 0.81,
}


def run_benchmarks(
    *,
    smoke: bool = False,
    explorer_seeds: Optional[int] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
    frontier_protocols: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """Run the full perf suite and return the ``BENCH_perf.json`` payload.

    ``smoke=True`` shrinks every budget (CI-friendly: a few seconds
    total); absolute numbers then undershoot full mode, but the guard
    ratios remain meaningful.  *seed* is the explorer campaign seed
    (mirroring ``repro check --seed``); the microbenchmarks are
    deterministic modulo timing.  *jobs* caps the scaling bench's
    worker levels (``None`` = every level the machine can schedule);
    the other benchmarks stay serial — they time single-core hot paths.
    """
    min_time = SMOKE_MIN_TIME if smoke else FULL_MIN_TIME
    if explorer_seeds is None:
        explorer_seeds = SMOKE_EXPLORER_SEEDS if smoke else FULL_EXPLORER_SEEDS
    duration = SMOKE_TABLE2_DURATION if smoke else FULL_TABLE2_DURATION
    scaling_trials = SCALING_TRIALS_SMOKE if smoke else SCALING_TRIALS_FULL
    jobs_cap = default_jobs() if jobs is None else jobs
    jobs_levels = tuple(
        level for level in SCALING_JOBS_LEVELS if level <= max(1, jobs_cap)
    )

    explorer = bench_explorer(seeds=explorer_seeds, first=seed)
    resilience = bench_resilience(seed=seed)
    frontier = bench_frontier(
        seed=seed, smoke=smoke, jobs=jobs_cap, protocols=frontier_protocols
    )
    scaling = bench_parallel_scaling(
        seed=seed, trials=scaling_trials, jobs_levels=jobs_levels
    )
    results: Dict[str, Any] = {
        "condition_ops_per_s": round(bench_condition_ops(min_time), 1),
        "polyvalue_ops_per_s": round(bench_polyvalue_reads(min_time), 1),
        "explorer_schedules": explorer["schedules"],
        "explorer_schedules_per_s": round(explorer["schedules_per_s"], 1),
        "explorer_ok": explorer["ok"],
        "table2_wall_s": round(bench_table2(duration), 3),
    }
    results.update(resilience["results"])
    results.update(frontier["results"])
    results.update(scaling["results"])
    guards: Dict[str, Any] = dict(resilience["guards"])
    guards.update(frontier["guards"])
    guards.update(scaling["guards"])
    return {
        "schema": 1,
        "mode": "smoke" if smoke else "full",
        "seed": seed,
        "budgets": {
            "microbench_min_time_s": min_time,
            "explorer_seeds": explorer_seeds,
            "table2_duration_s": duration,
            "scaling_trials": scaling_trials,
        },
        "pre_pr_baseline": dict(PRE_PR_BASELINE),
        "results": results,
        "guards": guards,
    }


def check_regression(
    report: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    max_regression: float = 0.25,
) -> list:
    """Compare *report* guards against a committed *baseline* payload.

    Returns a list of human-readable failures (empty = pass).  Only the
    machine-relative guard ratios are gated — absolute ops/s depend on
    the runner and would flake.  A committed ``parallel_speedup_jobsN``
    guard is skipped (not failed) when the machine running the check
    has fewer than N usable cores: the floor is meaningful only where
    N workers can actually run in parallel, and multi-core CI is the
    enforcement point.
    """
    failures = []
    cpus = report.get("results", {}).get("parallel_cpus", default_jobs())
    for name, recorded in baseline.get("guards", {}).items():
        measured = report["guards"].get(name)
        if measured is None:
            if name.startswith("parallel_speedup_jobs"):
                suffix = name[len("parallel_speedup_jobs"):]
                if suffix.isdigit() and cpus < int(suffix):
                    continue
            failures.append(f"guard {name!r} missing from this run")
            continue
        floor = recorded * (1.0 - max_regression)
        if measured < floor:
            failures.append(
                f"guard {name!r} regressed: measured {measured:.2f} < "
                f"{floor:.2f} (committed {recorded:.2f} - {max_regression:.0%})"
            )
    if not report["results"].get("explorer_ok", True):
        failures.append("explorer reported oracle violations during bench")
    if not report["results"].get("gray_oracles_ok", True):
        failures.append(
            "gray campaign reported oracle violations during bench"
        )
    if not report["results"].get("frontier_didona_ok", True):
        failures.append(
            "frontier: a coordinated protocol's mean commit latency fell "
            "below the one-round-trip floor (measurement is broken)"
        )
    if report["results"].get("frontier_settled") is False:
        failures.append("frontier: a protocol failed to settle after repair")
    if report["results"].get("frontier_failed_trials"):
        failures.append(
            f"frontier: {report['results']['frontier_failed_trials']} "
            "trial(s) produced no result"
        )
    if report["results"].get("parallel_bitwise_identical") is False:
        failures.append(
            "parallel campaign results diverged from the serial path"
        )
    return failures


def render_report(report: Dict[str, Any]) -> str:
    """A short human-readable summary of a benchmark payload."""
    results = report["results"]
    guards = report["guards"]
    baseline = report.get("pre_pr_baseline", {})
    lines = [
        f"perf benchmarks ({report['mode']} mode)",
        f"  condition ops/s:    {results['condition_ops_per_s']:>12,.1f}"
        f"  (pre-PR {baseline.get('condition_ops_per_s', 0):,.1f})",
        f"  polyvalue ops/s:    {results['polyvalue_ops_per_s']:>12,.1f}"
        f"  (pre-PR {baseline.get('polyvalue_ops_per_s', 0):,.1f})",
        f"  explorer sched/s:   {results['explorer_schedules_per_s']:>12,.1f}"
        f"  ({results['explorer_schedules']} schedules, "
        f"ok={results['explorer_ok']})",
        f"  table2 wall:        {results['table2_wall_s']:>12.3f}s",
    ]
    if "adaptive_spurious_reduction" in guards:
        lines += [
            f"  spurious installs:  "
            f"{results['gray_spurious_installs_fixed']:>8} fixed / "
            f"{results['gray_spurious_installs_adaptive']} adaptive "
            f"({guards['adaptive_spurious_reduction']:.1f}x reduction, "
            f"oracles ok={results['gray_oracles_ok']})",
            f"  outage detection:   "
            f"{results['outage_detection_fixed_s']:>8.3f}s fixed / "
            f"{results['outage_detection_adaptive_s']:.3f}s adaptive "
            f"(parity {guards['outage_detection_parity']:.2f})",
            f"  retransmissions:    "
            f"{results['outage_retransmissions_flat']:>8} flat / "
            f"{results['outage_retransmissions_backoff']} backoff "
            f"({guards['retransmission_reduction']:.1f}x reduction)",
        ]
    if "frontier_schedules_per_protocol" in results:
        lines.append(
            f"  frontier:           "
            f"{results['frontier_schedules_per_protocol']:>8} schedules x "
            f"4 protocols (didona ok={results['frontier_didona_ok']})"
        )
        for name in ("polyvalue", "blocking", "paxos", "pathsensitive"):
            availability = guards.get(f"frontier_availability_{name}")
            mean_ms = results.get(f"frontier_{name}_mean_latency_ms")
            msgs = results.get(f"frontier_{name}_msgs_per_commit")
            if availability is None:
                continue
            lines.append(
                f"    {name:<14} avail={availability:.3f} "
                f"mean={mean_ms:.2f}ms msg/commit={msgs:.2f}"
            )
        advantage = guards.get("frontier_path_message_advantage")
        if advantage is not None:
            lines.append(
                f"    path message advantage: {advantage:.1f}x fewer "
                "sends per commit than polyvalue"
            )
    if "parallel_cpus" in results:
        levels = ", ".join(
            f"jobs={level} {results[key]:.2f}/s"
            for level in SCALING_JOBS_LEVELS
            if (key := f"campaign_jobs{level}_per_s") in results
        )
        lines.append(
            f"  campaign scaling:   {levels} "
            f"({results['parallel_cpus']} cpus, bitwise "
            f"identical={results['parallel_bitwise_identical']})"
        )
        for level in SCALING_JOBS_LEVELS:
            guard = guards.get(f"parallel_speedup_jobs{level}")
            if guard is not None:
                lines.append(
                    f"  speedup @ jobs={level}:   {guard:>12.2f}x"
                )
    return "\n".join(lines)


def write_report(report: Dict[str, Any], path: str) -> None:
    """Write *report* as stable, diff-friendly JSON."""
    write_json(report, path)
