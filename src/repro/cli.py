"""Command-line interface: ``python -m repro <command>``.

Gives downstream users the paper's quantitative content without writing
code:

* ``table1`` — the Table 1 model predictions;
* ``table2`` — the Table 2 Monte-Carlo comparison (configurable length);
* ``model`` — steady state, decay rate and settling time for arbitrary
  parameters;
* ``simulate`` — one Monte-Carlo run with arbitrary parameters;
* ``sweep`` — vary one parameter, model vs. (optional) simulation;
* ``demo`` — the quickstart failure/polyvalue/recovery walkthrough;
* ``report`` — run the instrumented failure scenario and print its
  metrics (``--format table|prometheus|json``);
* ``trace`` — the same scenario as per-transaction span trees (the
  in-doubt window measured end to end);
* ``events`` — the same scenario's raw event stream as JSON lines;
* ``check`` — the correctness harness: invariant oracles over
  seed-enumerated failure schedules, optional mutation smoke test,
  deterministic replay of violation artifacts;
* ``chaos`` — the resilience campaign: the same oracles over gray
  failures (site degradation, link spikes, one-way partitions) plus
  ambient loss/corruption/duplication, with the adaptive-timeout
  resilience layer in the loop (``docs/faults.md``);
* ``frontier`` — the commit-protocol bake-off: polyvalue, blocking
  2PC, Paxos Commit and path-sensitive commit over one seed-derived
  fault matrix, reporting the availability / latency / message-cost
  frontier (``docs/protocols.md``);
* ``bench`` — the hot-path performance suite behind ``BENCH_perf.json``
  (``docs/performance.md``);
* ``history`` — query the persistent campaign store: list runs, trend
  one metric across runs/PRs with deltas, or dump one run's full
  evidence (trials, metrics, verdicts, histograms);
* ``serve-dash`` — the zero-dependency live dashboard: HTML, JSON and
  SSE streaming the observability bus of a running scenario;
* ``serve`` — a *live* cluster: the same state machines on wall-clock
  asyncio sockets, driven over an HTTP/JSON API (submit transaction
  scripts, read items, query outcomes, crash/restart sites, scrape
  ``/metrics``, follow ``/events``; ``docs/runtime.md``).  Both
  commands run on the package's one asyncio HTTP server
  (``repro.obs.httpd``) and answer ``/health``;
* ``client`` — the scripted driver for ``serve`` (health, transfer,
  crash/restart, and an end-to-end crash-recovery demo).

All randomness is seeded: ``--seed`` is the campaign seed and, for the
multi-trial commands (``check``, ``chaos``, ``bench``), ``--seeds`` is
how many trials to derive from it (one walk seed per trial via
``repro.parallel.seeds.trial_seed``), so every invocation is
reproducible.  The campaign commands (``check``, ``chaos``, ``table2``,
``sweep``, ``bench``) take ``--jobs N`` to shard trials over N worker
processes; results are bit-identical for every N, and ``--jobs 1`` is
the exact serial in-process path.  Each of them also takes ``--store``
(or honours ``REPRO_STORE``) to record the run — seeds, trial rows,
oracle verdicts, metrics, in-doubt histograms — into the SQLite
campaign store that ``repro history`` queries.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence, Tuple

from repro.analysis.model import (
    ModelParams,
    UnstableRegimeError,
    decay_rate,
    steady_state_polyvalues,
    table1_rows,
    table2_rows,
    time_to_settle,
)
from repro.analysis.montecarlo import simulate, simulate_many
from repro.analysis.sweep import SWEEPABLE, format_sweep_table, sweep
from repro.txn.config import LIVE_PROTOCOLS, PROTOCOL_NAMES


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="campaign-engine worker processes (default: "
                        "all cores; 1 = the serial in-process path; "
                        "results are identical for every value)")


def _add_store(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", nargs="?", const="", default=None,
                        metavar="PATH",
                        help="record this run into the campaign store "
                        "(bare --store or $REPRO_STORE uses "
                        ".repro/campaigns.sqlite; query with "
                        "'repro history')")


def _open_recorder(
    args: argparse.Namespace,
    command: str,
    *,
    label: str = "",
    config: Optional[dict] = None,
    campaign_seed: Optional[int] = None,
    jobs: Optional[int] = None,
    with_bus: bool = True,
) -> Tuple[Optional[object], Optional[object]]:
    """(recorder, bus) when campaign recording is on, else (None, None).

    Recording is opt-in: the ``--store`` flag or a ``REPRO_STORE``
    environment variable turns it on; the recorder appends the run row
    immediately and streams ``campaign.*`` trial events from *bus*.
    """
    if args.store is None and not os.environ.get("REPRO_STORE"):
        return None, None
    from repro.obs.events import EventBus
    from repro.obs.store import (
        CampaignRecorder,
        CampaignStore,
        default_store_path,
    )

    store = CampaignStore(default_store_path(args.store or None))
    bus = EventBus() if with_bus else None
    recorder = CampaignRecorder(
        store,
        command=command,
        label=label,
        campaign_seed=campaign_seed,
        jobs=jobs,
        config=config,
        bus=bus,
    )
    return recorder, bus


def _add_model_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--updates", "-u", type=float, default=10,
                        help="U: updates per second (default 10)")
    parser.add_argument("--failure-probability", "-f", type=float,
                        default=0.0001, help="F: per-update failure "
                        "probability (default 1e-4)")
    parser.add_argument("--items", "-i", type=float, default=1_000_000,
                        help="I: database items (default 1e6)")
    parser.add_argument("--recovery-rate", "-r", type=float, default=0.001,
                        help="R: fraction of failures recovered per second "
                        "(default 1e-3)")
    parser.add_argument("--dependency-mean", "-d", type=float, default=1,
                        help="D: mean items a new value depends on "
                        "(default 1)")
    parser.add_argument("--update-independence", "-y", type=float, default=0,
                        help="Y: probability the new value ignores the old "
                        "(default 0)")


def _params_from(args: argparse.Namespace) -> ModelParams:
    return ModelParams(
        updates_per_second=args.updates,
        failure_probability=args.failure_probability,
        items=args.items,
        recovery_rate=args.recovery_rate,
        dependency_mean=args.dependency_mean,
        update_independence=args.update_independence,
    )


def _cmd_table1(args: argparse.Namespace) -> int:
    print("Table 1: predicted steady-state polyvalue count")
    print(f"{'U':>6} {'F':>8} {'I':>10} {'R':>7} {'Y':>3} {'D':>3} "
          f"{'model P':>9} {'paper P':>8}  note")
    for row in table1_rows():
        p = row.params
        paper = f"{row.paper_value:.2f}" if row.paper_value is not None else "-"
        print(f"{p.U:>6g} {p.F:>8g} {p.I:>10g} {p.R:>7g} {p.Y:>3g} "
              f"{p.D:>3g} {row.model_value:>9.2f} {paper:>8}  {row.note}")
    return 0


def _finish_recorder(recorder, ok: bool) -> None:
    """Stamp and close an optional campaign recorder (no-op when off)."""
    if recorder is not None:
        recorder.finish(ok=ok)
        recorder.store.close()


def _add_campaign_metrics(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--campaign-metrics", metavar="PATH", default=None,
                        help="after the run, write the campaign.* progress "
                        "metrics in Prometheus text exposition format to "
                        "PATH ('-' prints the human report table instead)")


def _add_campaign_flags(
    parser: argparse.ArgumentParser,
    *,
    jobs: bool = True,
    store: bool = True,
    metrics: bool = True,
    protocol: bool = False,
    protocol_multiple: bool = False,
    protocol_default: Optional[str] = None,
    protocol_choices: Sequence[str] = PROTOCOL_NAMES,
    protocol_help: str = "commit protocol to run",
) -> None:
    """The flag block every campaign/cluster driver shares.

    One definition of ``--jobs`` / ``--store`` / ``--campaign-metrics``
    / ``--protocol`` so the drivers (table2, sweep, check, chaos,
    bench, frontier, serve-dash, serve) present identical spellings,
    defaults and help text; each driver toggles only which flags apply.
    """
    if jobs:
        _add_jobs(parser)
    if store:
        _add_store(parser)
    if metrics:
        _add_campaign_metrics(parser)
    if protocol:
        if protocol_multiple:
            parser.add_argument("--protocol", action="append",
                                choices=protocol_choices,
                                help=protocol_help)
        else:
            parser.add_argument("--protocol", choices=protocol_choices,
                                default=protocol_default,
                                help=protocol_help)


def _attach_campaign_metrics(args, bus):
    """(metrics, bus) with a CampaignMetrics subscribed when requested.

    Creates the driver bus if campaign recording didn't already, so
    ``--campaign-metrics`` works with or without ``--store``.
    """
    if not getattr(args, "campaign_metrics", None):
        return None, bus
    from repro.obs.events import EventBus
    from repro.obs.export import CampaignMetrics

    if bus is None:
        bus = EventBus()
    return CampaignMetrics(bus), bus


def _flush_campaign_metrics(args, metrics) -> None:
    """Render the accumulated campaign metrics where the user asked."""
    if metrics is None:
        return
    from repro.obs.export import prometheus_text, render_report

    if args.campaign_metrics == "-":
        print(render_report(metrics))
    else:
        with open(args.campaign_metrics, "w", encoding="utf-8") as handle:
            handle.write(prometheus_text(metrics.registry))
        print(f"campaign metrics written to {args.campaign_metrics}")


def _cmd_table2(args: argparse.Namespace) -> int:
    print("Table 2: Monte-Carlo simulation vs model "
          f"(duration={args.duration:g}s, seed={args.seed})")
    print(f"{'U':>4} {'F':>7} {'R':>6} {'I':>7} {'Y':>3} {'D':>3} "
          f"{'sim P':>8} {'model P':>8} {'paper sim':>10} {'paper pred':>11}")
    rows = list(table2_rows())
    recorder, bus = _open_recorder(
        args, "table2", label="table2",
        config={"duration": args.duration, "seed": args.seed},
        campaign_seed=args.seed, jobs=args.jobs,
    )
    cmetrics, bus = _attach_campaign_metrics(args, bus)
    ok = False
    try:
        results = simulate_many(
            [row.params for row in rows],
            duration=args.duration,
            seed=args.seed,
            jobs=args.jobs,
            bus=bus,
        )
        for row, result in zip(rows, results):
            p = row.params
            print(f"{p.U:>4g} {p.F:>7g} {p.R:>6g} {p.I:>7g} {p.Y:>3g} "
                  f"{p.D:>3g} {result.mean_polyvalues:>8.2f} "
                  f"{row.model_value:>8.2f} {row.paper_actual:>10.2f} "
                  f"{row.paper_predicted:>11.2f}")
        if recorder is not None:
            from repro.obs.store import record_table2

            record_table2(recorder.store, recorder.run_id, rows, results)
        ok = True
    finally:
        _finish_recorder(recorder, ok=ok)
        _flush_campaign_metrics(args, cmetrics)
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    params = _params_from(args)
    try:
        steady = steady_state_polyvalues(params)
    except UnstableRegimeError as error:
        print(f"UNSTABLE regime: {error}")
        return 1
    rate = decay_rate(params)
    print(f"steady-state polyvalues  P   = {steady:.4f}")
    print(f"fraction of database     P/I = {steady / params.items:.3e}")
    print(f"decay rate               λ   = {rate:.6g} /s "
          f"(time constant {1 / rate:.4g} s)")
    print(f"settling time (1% of a burst) = "
          f"{time_to_settle(params, steady + 1000):.4g} s")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = _params_from(args)
    result = simulate(params, duration=args.duration, seed=args.seed)
    print(f"duration          {result.duration:g} simulated seconds")
    print(f"transactions      {result.transactions}")
    print(f"failures          {result.failures}")
    print(f"recoveries        {result.recoveries}")
    print(f"polytransactions  {result.polytransactions}")
    print(f"mean polyvalues   {result.mean_polyvalues:.3f}")
    try:
        print(f"model prediction  {result.model_prediction:.3f}")
    except UnstableRegimeError:
        print("model prediction  (unstable regime)")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError:
        print(f"error: --values must be comma-separated numbers, got "
              f"{args.values!r}", file=sys.stderr)
        return 2
    base = _params_from(args)
    recorder, bus = _open_recorder(
        args, "sweep", label=f"sweep:{args.parameter}",
        config={
            "parameter": args.parameter,
            "values": values,
            "simulate": bool(args.simulate),
            "duration": args.duration if args.simulate else None,
            "seed": args.seed,
        },
        campaign_seed=args.seed, jobs=args.jobs,
    )
    cmetrics, bus = _attach_campaign_metrics(args, bus)
    ok = False
    try:
        points = sweep(
            base,
            args.parameter,
            values,
            run_simulation=args.simulate,
            duration=args.duration if args.simulate else None,
            seed=args.seed,
            jobs=args.jobs,
            bus=bus,
        )
        print(format_sweep_table(points))
        if recorder is not None:
            from repro.obs.store import record_sweep

            record_sweep(recorder.store, recorder.run_id, points)
        ok = True
    finally:
        _finish_recorder(recorder, ok=ok)
        _flush_campaign_metrics(args, cmetrics)
    return 0


def _observed_scenario(
    seed: int,
    settle: float = 5.0,
    *,
    spans: bool = False,
    events: bool = False,
):
    """The demo's failure scenario with observability attached.

    A little healthy traffic, then a transfer whose coordinator crashes
    mid-protocol: the participant's wait phase times out, it installs
    polyvalues (the in-doubt window opens), the coordinator recovers,
    and the §3.3 outcome machinery closes the window.  Returns
    ``(system, span_tracer_or_None, event_log_or_None)``.
    """
    from repro.obs.events import EventLog
    from repro.obs.spans import SpanTracer
    from repro.txn.system import DistributedSystem
    from repro.txn.transaction import Transaction

    system = DistributedSystem.build(
        sites=3,
        items={"alice": 100, "bob": 100, "carol": 100},
        seed=seed,
        jitter=0.0,
    )
    span_tracer = SpanTracer(system.bus) if spans else None
    event_log = EventLog(system.bus) if events else None

    def bump(ctx):
        ctx.write("carol", ctx.read("carol") + 1)

    def transfer(ctx):
        a = ctx.read("alice")
        ctx.write("alice", a - 25)
        ctx.write("bob", ctx.read("bob") + 25)

    for _ in range(3):
        system.submit(Transaction(body=bump, items=("carol",)))
        system.run_for(0.2)
    system.submit(Transaction(body=transfer, items=("alice", "bob")))
    system.run_for(0.035)
    system.crash_site("site-0")
    system.run_for(1.0)
    system.recover_site("site-0")
    system.run_for(settle)
    return system, span_tracer, event_log


def _cmd_report(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.export import prometheus_text, render_report

    system, _, _ = _observed_scenario(args.seed, args.duration)
    metrics = system.metrics
    if args.format == "prometheus":
        sys.stdout.write(prometheus_text(metrics.registry))
    elif args.format == "json":
        print(_json.dumps(metrics.summary(), sort_keys=True))
    else:
        print(render_report(metrics))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    _, tracer, _ = _observed_scenario(args.seed, spans=True)
    print(tracer.render(args.txn))
    windows = tracer.in_doubt_windows()
    if windows and args.txn is None:
        print()
        print(f"{len(windows)} in-doubt window(s):")
        for span in windows:
            print("  " + span.describe())
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    from repro.obs.export import events_to_jsonl

    _, _, log = _observed_scenario(args.seed, args.duration, events=True)
    events = log.for_txn(args.txn) if args.txn else log.events
    print(events_to_jsonl(events))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.txn.system import DistributedSystem
    from repro.txn.transaction import Transaction

    system = DistributedSystem.build(
        sites=3,
        items={"alice": 100, "bob": 100, "carol": 100},
        seed=args.seed,
        jitter=0.0,
    )

    def transfer(ctx):
        a = ctx.read("alice")
        ctx.write("alice", a - 25)
        ctx.write("bob", ctx.read("bob") + 25)

    print("initial:", system.database_state())
    system.submit(Transaction(body=transfer, items=("alice", "bob")))
    system.run_for(0.035)
    system.crash_site("site-0")
    system.run_for(1.0)
    print("in-doubt window hit; bob =", system.read_item("bob"))
    system.recover_site("site-0")
    system.run_for(5.0)
    print("after recovery:", system.database_state())
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import explore, replay, run_mutation_smoke
    from repro.check.scenarios import SCENARIOS

    if args.replay:
        result = replay(args.replay, artifact_dir=args.artifact_dir)
        print(f"replayed {args.replay}:")
        print(f"  {result.events_processed} events, "
              f"{result.quiescent_checkpoints} quiescent checkpoints")
        if result.ok:
            print("  all oracles passed (the recorded violation is fixed)")
            return 0
        for violation in result.violations:
            print(f"  {violation}")
        return 1

    exit_code = 0
    scenarios = (
        tuple(args.scenario) if args.scenario else tuple(SCENARIOS)
    )
    recorder, bus = _open_recorder(
        args, "check", label="explore",
        config={
            "scenarios": list(scenarios),
            "seeds": args.seeds,
            "steps": args.steps,
            "enumeration": not args.no_enumeration,
            "seed": args.seed,
        },
        campaign_seed=args.seed, jobs=args.jobs,
    )
    cmetrics, bus = _attach_campaign_metrics(args, bus)
    try:
        if not args.mutation_only:
            report = explore(
                scenarios=scenarios,
                campaign_seed=args.seed,
                trials=args.seeds,
                steps=args.steps,
                include_enumeration=not args.no_enumeration,
                artifact_dir=args.artifact_dir,
                jobs=args.jobs,
                bus=bus,
                protocol=args.protocol,
            )
            for line in report.summary_lines():
                print(line)
            if not report.ok:
                exit_code = 1
            if recorder is not None:
                from repro.obs.store import record_exploration_report

                record_exploration_report(
                    recorder.store, recorder.run_id, report
                )
        if args.mutation or args.mutation_only:
            from repro.check.mutants import PROTOCOL_FAULTS, WAIT_PHASE_FAULTS

            for faults in (WAIT_PHASE_FAULTS, PROTOCOL_FAULTS):
                smoke = run_mutation_smoke(
                    faults=faults, seed=args.seed, artifact_dir=args.artifact_dir
                )
                for line in smoke.summary_lines():
                    print(line)
                if not smoke.ok:
                    exit_code = 1
    finally:
        _finish_recorder(recorder, ok=exit_code == 0)
        _flush_campaign_metrics(args, cmetrics)
    return exit_code


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import ChaosProfile, replay_chaos, run_campaign

    if args.replay:
        result = replay_chaos(args.replay)
        print(f"replayed {args.replay}:")
        print(f"  {result.events_processed} events, "
              f"{result.quiescent_checkpoints} quiescent checkpoints")
        if result.ok:
            print("  all oracles passed (the recorded violation is fixed)")
            return 0
        for violation in result.violations:
            print(f"  {violation}")
        return 1

    profile = ChaosProfile(
        loss_probability=args.loss,
        corruption_probability=args.corruption,
        duplicate_probability=args.duplicates,
        degrade_factor=args.degrade_factor,
        spike_factor=args.spike_factor,
        adaptive=not args.fixed_timeouts,
        polyvalue_budget=args.polyvalue_budget,
        protocol=args.protocol,
    )
    recorder, bus = _open_recorder(
        args, "chaos", label="chaos",
        config={
            "profile": profile.to_dict(),
            "scenarios": list(args.scenario) if args.scenario else None,
            "seeds": args.seeds,
            "steps": args.steps,
            "smoke": bool(args.smoke),
            "seed": args.seed,
        },
        campaign_seed=args.seed, jobs=args.jobs,
    )
    cmetrics, bus = _attach_campaign_metrics(args, bus)
    ok = False
    try:
        report = run_campaign(
            profile=profile,
            scenarios=tuple(args.scenario) if args.scenario else None,
            campaign_seed=args.seed,
            trials=args.seeds,
            steps=args.steps,
            smoke=args.smoke,
            artifact_dir=args.artifact_dir,
            jobs=args.jobs,
            bus=bus,
        )
        for line in report.summary_lines():
            print(line)
        if recorder is not None:
            from repro.obs.store import record_exploration_report

            record_exploration_report(recorder.store, recorder.run_id, report)
        ok = report.ok
    finally:
        _finish_recorder(recorder, ok=ok)
        _flush_campaign_metrics(args, cmetrics)
    return 0 if ok else 1


def _cmd_frontier(args: argparse.Namespace) -> int:
    from repro.frontier import FRONTIER_PROTOCOLS, run_frontier

    protocols = tuple(args.protocol) if args.protocol else FRONTIER_PROTOCOLS
    recorder, bus = _open_recorder(
        args, "frontier", label="smoke" if args.smoke else "full",
        config={
            "protocols": list(protocols),
            "scenarios": list(args.scenario) if args.scenario else None,
            "trials": args.seeds,
            "smoke": bool(args.smoke),
            "seed": args.seed,
        },
        campaign_seed=args.seed, jobs=args.jobs,
    )
    cmetrics, bus = _attach_campaign_metrics(args, bus)
    ok = False
    try:
        report = run_frontier(
            campaign_seed=args.seed,
            trials=args.seeds,
            scenarios=tuple(args.scenario) if args.scenario else None,
            protocols=protocols,
            smoke=args.smoke,
            jobs=args.jobs,
            bus=bus,
        )
        for line in report.summary_lines():
            print(line)
        if args.output:
            from repro.parallel.artifacts import write_json

            write_json(report.to_bench(), args.output)
            print(f"wrote {args.output}")
        ok = report.ok
    finally:
        _finish_recorder(recorder, ok=ok)
        _flush_campaign_metrics(args, cmetrics)
    return 0 if ok else 1


def _looks_like_store(path: str) -> bool:
    """True when a ``--check-against`` target is a campaign store
    (the literal word ``store``, a SQLite file, or a ``.sqlite`` path)
    rather than a committed ``BENCH_perf.json``."""
    if path == "store":
        return True
    try:
        with open(path, "rb") as handle:
            return handle.read(16).startswith(b"SQLite format 3")
    except OSError:
        return path.endswith(".sqlite")


def _bench_baseline(args: argparse.Namespace, recorder):
    """Resolve the ``--check-against`` baseline payload, or None.

    A JSON path loads the committed file (the original contract); a
    store path compares against the newest *finished* bench run in the
    stored history — excluding the run being recorded right now.
    """
    import json as _json

    if not _looks_like_store(args.check_against):
        with open(args.check_against, encoding="utf-8") as handle:
            return _json.load(handle)
    from repro.obs.store import (
        CampaignStore,
        bench_baseline_from_run,
        default_store_path,
    )

    path = (
        default_store_path(args.store or None)
        if args.check_against == "store"
        else args.check_against
    )
    if recorder is not None and recorder.store.path == path:
        baseline_run = recorder.store.latest_run(
            "bench", before=recorder.run_id
        )
        if baseline_run is None:
            return None
        return bench_baseline_from_run(recorder.store, baseline_run)
    with CampaignStore(path) as store:
        baseline_run = store.latest_run("bench")
        if baseline_run is None:
            return None
        return bench_baseline_from_run(store, baseline_run)


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        check_regression,
        render_report as render_bench_report,
        run_benchmarks,
        write_report,
    )

    recorder, _ = _open_recorder(
        args, "bench", label="smoke" if args.smoke else "full",
        config={
            "mode": "smoke" if args.smoke else "full",
            "seed": args.seed,
            "explorer_seeds": args.seeds,
        },
        campaign_seed=args.seed, jobs=args.jobs, with_bus=False,
    )
    exit_code = 0
    try:
        report = run_benchmarks(
            smoke=args.smoke,
            explorer_seeds=args.seeds,
            seed=args.seed,
            jobs=args.jobs,
            frontier_protocols=(
                tuple(args.protocol) if args.protocol else None
            ),
        )
        print(render_bench_report(report))
        if recorder is not None:
            from repro.obs.store import record_bench_report

            record_bench_report(recorder.store, recorder.run_id, report)
        if args.output:
            write_report(report, args.output)
            print(f"wrote {args.output}")
        if args.check_against:
            baseline = _bench_baseline(args, recorder)
            if baseline is None:
                print(
                    f"no bench history to compare against in "
                    f"{args.check_against}",
                    file=sys.stderr,
                )
                exit_code = 1
            else:
                failures = check_regression(
                    report, baseline, max_regression=args.max_regression
                )
                if failures:
                    for failure in failures:
                        print(f"REGRESSION: {failure}", file=sys.stderr)
                    exit_code = 1
                else:
                    against = args.check_against
                    if "run_id" in baseline:
                        against += f" (run {baseline['run_id']})"
                    print(
                        f"no regression vs {against} "
                        f"(tolerance {args.max_regression:.0%})"
                    )
    finally:
        _finish_recorder(recorder, ok=exit_code == 0)
    return exit_code


def _parse_since(text: str) -> float:
    """``--since`` forms: ISO date (2026-08-01), a relative age (7d,
    12h, 30m), or raw POSIX seconds."""
    import time as _time
    from datetime import datetime

    suffixes = {"d": 86400.0, "h": 3600.0, "m": 60.0}
    if text and text[-1] in suffixes and text[:-1]:
        try:
            return _time.time() - float(text[:-1]) * suffixes[text[-1]]
        except ValueError:
            pass
    try:
        return datetime.fromisoformat(text).timestamp()
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--since must be an ISO date, an age like 7d/12h/30m, or "
            f"POSIX seconds; got {text!r}"
        )


def _stamp(posix: Optional[float]) -> str:
    from datetime import datetime

    if posix is None:
        return "-"
    return datetime.fromtimestamp(posix).strftime("%Y-%m-%d %H:%M:%S")


def _history_runs(store, args) -> int:
    import json as _json

    runs = store.runs(
        command=args.command, since=args.since, limit=args.limit
    )
    if args.format == "json":
        print(_json.dumps([run.to_dict() for run in runs], sort_keys=True))
        return 0
    if not runs:
        print("no matching runs")
        return 0
    print(f"{'id':>4} {'command':<8} {'label':<12} "
          f"{'started':<19} {'trials':>6} {'fail':>4} {'ok':>4} "
          f"{'wall':>8} fingerprint")
    for run in runs:
        ok = "-" if run.ok is None else ("yes" if run.ok else "NO")
        wall = "-" if run.wall_seconds is None else f"{run.wall_seconds:.2f}s"
        print(f"{run.id:>4} {run.command:<8} {run.label[:12]:<12} "
              f"{_stamp(run.started_at):<19} {run.trials:>6} "
              f"{run.failures:>4} {ok:>4} {wall:>8} {run.fingerprint}")
    return 0


def _history_metric(store, args) -> int:
    import json as _json

    rows = store.metric_history(
        args.metric, command=args.command, since=args.since,
        limit=args.limit,
    )
    if args.format == "json":
        print(_json.dumps(
            [
                {
                    "run_id": run.id,
                    "command": run.command,
                    "started_at": run.started_at,
                    "value": value,
                }
                for run, value in rows
            ],
            sort_keys=True,
        ))
        return 0
    if not rows:
        known = ", ".join(store.metric_names()) or "(store is empty)"
        print(f"no history for metric {args.metric!r}; known: {known}")
        return 1
    print(f"metric {args.metric}")
    print(f"{'id':>4} {'command':<8} {'started':<19} "
          f"{'value':>14} {'delta':>12}")
    previous = None
    for run, value in rows:
        if previous in (None, 0):
            delta = "-"
        else:
            delta = f"{(value - previous) / abs(previous):+.1%}"
        print(f"{run.id:>4} {run.command:<8} {_stamp(run.started_at):<19} "
              f"{value:>14g} {delta:>12}")
        previous = value
    return 0


def _history_run_detail(store, args) -> int:
    import json as _json

    run = store.run(args.run)
    trials = store.trials(run.id)
    metrics = store.metrics(run.id)
    verdicts = store.verdicts(run.id)
    hists = {
        name: store.histogram(run.id, name)
        for name in store.histogram_names(run.id)
    }
    if args.format == "json":
        print(_json.dumps(
            {
                "run": run.to_dict(),
                "trials": [
                    {
                        "index": t.index,
                        "seed": t.seed,
                        "scenario": t.scenario,
                        "label": t.label,
                        "ok": t.ok,
                        "detail": t.detail,
                    }
                    for t in trials
                ],
                "metrics": metrics,
                "verdicts": [
                    {
                        "trial_index": v.trial_index,
                        "phase": v.phase,
                        "oracle": v.oracle,
                        "ok": v.ok,
                        "details": v.details,
                    }
                    for v in verdicts
                ],
                "histograms": hists,
            },
            sort_keys=True,
        ))
        return 0
    ok = "-" if run.ok is None else ("ok" if run.ok else "FAILED")
    wall = "-" if run.wall_seconds is None else f"{run.wall_seconds:.2f}s"
    print(f"run {run.id}: {run.command} [{run.label}] {ok}")
    print(f"  started  {_stamp(run.started_at)}   finished "
          f"{_stamp(run.finished_at)}   wall {wall}")
    print(f"  seed {run.campaign_seed}  jobs {run.jobs}  "
          f"fingerprint {run.fingerprint}")
    print(f"  trials {run.trials}  failures {run.failures}")
    if metrics:
        print("  metrics:")
        for name in sorted(metrics):
            print(f"    {name:<32} {metrics[name]:g}")
    failing = [v for v in verdicts if not v.ok]
    if verdicts:
        passed = len(verdicts) - len(failing)
        print(f"  verdicts: {passed} ok, {len(failing)} failed")
        for verdict in failing:
            where = (
                "" if verdict.trial_index is None
                else f" trial {verdict.trial_index}"
            )
            print(f"    FAIL {verdict.oracle}{where} "
                  f"[{verdict.phase}]: {verdict.details}")
    for name, pairs in sorted(hists.items()):
        print(f"  histogram {name}:")
        for bound, count in pairs:
            label = "+Inf" if bound == float("inf") else f"{bound:g}"
            print(f"    le {label:<8} {count}")
    failed_trials = [t for t in trials if t.ok is False]
    if failed_trials:
        print(f"  failed trials ({len(failed_trials)}):")
        for trial in failed_trials:
            reason = trial.detail.get("error", "")
            print(f"    #{trial.index} {trial.label or trial.scenario}"
                  f"{': ' + reason if reason else ''}")
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    from repro.obs.store import CampaignStore, default_store_path

    path = default_store_path(args.store or None)
    if not os.path.exists(path):
        print(f"no campaign store at {path} (record one with "
              f"--store on check/chaos/bench/table2/sweep)",
              file=sys.stderr)
        return 1
    with CampaignStore(path) as store:
        if args.run is not None:
            return _history_run_detail(store, args)
        if args.metric:
            return _history_metric(store, args)
        return _history_runs(store, args)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.live.httpapi import run_serve

    run_serve(
        sites=args.sites,
        protocol=args.protocol,
        seed=args.seed,
        host=args.host,
        port=args.port,
        data_dir=args.data_dir,
    )
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.live.client import main as client_main

    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    return client_main(rest)


def _cmd_serve_dash(args: argparse.Namespace) -> int:
    from repro.obs.live import serve_dash

    serve_dash(
        host=args.host,
        port=args.port,
        scenario=args.scenario,
        seed=args.seed,
        trials=args.trials,
        jobs=args.jobs,
        duration=args.duration,
        verbose=args.verbose,
        on_start=lambda server: print(
            f"dashboard on {server.url} "
            f"(scenario={args.scenario}, Ctrl-C to stop)"
        ),
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Montgomery's Polyvalues (SOSP 1979)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    table1 = commands.add_parser("table1", help="print Table 1 (model)")
    table1.set_defaults(handler=_cmd_table1)

    table2 = commands.add_parser("table2", help="run Table 2 (Monte-Carlo)")
    table2.add_argument("--duration", type=float, default=2000.0)
    table2.add_argument("--seed", type=int, default=0)
    _add_campaign_flags(table2)
    table2.set_defaults(handler=_cmd_table2)

    model = commands.add_parser("model", help="evaluate the analytic model")
    _add_model_params(model)
    model.set_defaults(handler=_cmd_model)

    sim = commands.add_parser("simulate", help="one Monte-Carlo run")
    _add_model_params(sim)
    sim.add_argument("--duration", type=float, default=None)
    sim.add_argument("--seed", type=int, default=0)
    sim.set_defaults(handler=_cmd_simulate)

    sweep_cmd = commands.add_parser("sweep", help="sweep one parameter")
    _add_model_params(sweep_cmd)
    sweep_cmd.add_argument("--parameter", "-p", required=True,
                           choices=SWEEPABLE)
    sweep_cmd.add_argument("--values", "-v", required=True,
                           help="comma-separated values")
    sweep_cmd.add_argument("--simulate", action="store_true",
                           help="also run the Monte-Carlo sim per point")
    sweep_cmd.add_argument("--duration", type=float, default=None)
    sweep_cmd.add_argument("--seed", type=int, default=0)
    _add_campaign_flags(sweep_cmd)
    sweep_cmd.set_defaults(handler=_cmd_sweep)

    demo = commands.add_parser("demo", help="failure/polyvalue walkthrough")
    demo.add_argument("--seed", type=int, default=7)
    demo.set_defaults(handler=_cmd_demo)

    report = commands.add_parser(
        "report", help="metrics of the instrumented failure scenario"
    )
    report.add_argument("--seed", type=int, default=7)
    report.add_argument("--duration", type=float, default=5.0,
                        help="settle time after recovery (default 5)")
    report.add_argument("--format", choices=("table", "prometheus", "json"),
                        default="table")
    report.set_defaults(handler=_cmd_report)

    trace = commands.add_parser(
        "trace", help="per-transaction span trees of the scenario"
    )
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--txn", default=None,
                       help="only this transaction's tree")
    trace.set_defaults(handler=_cmd_trace)

    events = commands.add_parser(
        "events", help="the scenario's event stream as JSON lines"
    )
    events.add_argument("--seed", type=int, default=7)
    events.add_argument("--duration", type=float, default=5.0)
    events.add_argument("--txn", default=None,
                        help="only this transaction's events")
    events.set_defaults(handler=_cmd_events)

    check = commands.add_parser(
        "check",
        help="run the correctness harness (oracles + schedule explorer)",
    )
    check.add_argument("--seed", type=int, default=0,
                       help="campaign seed the walk seeds derive from "
                       "(default 0)")
    check.add_argument("--seeds", type=int, default=10,
                       help="number of random-walk trials (default 10)")
    check.add_argument("--steps", type=int, default=12,
                       help="failure actions per random walk (default 12)")
    check.add_argument("--scenario", action="append",
                       help="restrict to this scenario (repeatable)")
    check.add_argument("--no-enumeration", action="store_true",
                       help="skip the systematic small-scope schedules")
    check.add_argument("--mutation", action="store_true",
                       help="also run the mutation smoke test")
    check.add_argument("--mutation-only", action="store_true",
                       help="run only the mutation smoke test")
    check.add_argument("--artifact-dir", default=None,
                       help="write replayable (seed, schedule) artifacts "
                       "for violations here")
    check.add_argument("--replay", default=None, metavar="ARTIFACT",
                       help="re-execute a violation artifact instead of "
                       "exploring")
    _add_campaign_flags(check, protocol=True,
                        protocol_help="explore this commit protocol instead "
                        "of the default polyvalue system")
    check.set_defaults(handler=_cmd_check)

    chaos = commands.add_parser(
        "chaos",
        help="run the resilience campaign (gray failures + lossy network)",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="campaign seed the walk seeds derive from "
                       "(default 0)")
    chaos.add_argument("--seeds", type=int, default=10,
                       help="number of chaos-walk trials (default 10)")
    chaos.add_argument("--steps", type=int, default=14,
                       help="failure actions per chaos walk (default 14)")
    chaos.add_argument("--scenario", action="append",
                       help="restrict to this scenario (repeatable)")
    chaos.add_argument("--smoke", action="store_true",
                       help="shrunken scenario/steps budget for CI")
    chaos.add_argument("--loss", type=float, default=0.02,
                       help="ambient per-message loss probability "
                       "(default 0.02)")
    chaos.add_argument("--corruption", type=float, default=0.01,
                       help="ambient corruption probability (default 0.01)")
    chaos.add_argument("--duplicates", type=float, default=0.02,
                       help="ambient duplication probability (default 0.02)")
    chaos.add_argument("--degrade-factor", type=float, default=5.0,
                       help="site gray-degradation latency multiplier "
                       "(default 5)")
    chaos.add_argument("--spike-factor", type=float, default=10.0,
                       help="directed link-spike latency multiplier "
                       "(default 10)")
    chaos.add_argument("--fixed-timeouts", action="store_true",
                       help="pin the fixed-timeout baseline instead of "
                       "the adaptive policy")
    chaos.add_argument("--polyvalue-budget", type=int, default=None,
                       help="per-site polyvalue budget (overload valve; "
                       "default off)")
    chaos.add_argument("--artifact-dir", default=None,
                       help="write replayable (schedule, profile) "
                       "artifacts for violations here")
    chaos.add_argument("--replay", default=None, metavar="ARTIFACT",
                       help="re-execute a chaos violation artifact "
                       "instead of exploring")
    _add_campaign_flags(chaos, protocol=True, protocol_default="polyvalue",
                        protocol_help="commit protocol the campaign "
                        "stresses (default polyvalue; see "
                        "docs/protocols.md)")
    chaos.set_defaults(handler=_cmd_chaos)

    bench = commands.add_parser(
        "bench",
        help="hot-path performance benchmarks (writes BENCH_perf.json)",
    )
    bench.add_argument("--seed", type=int, default=0,
                       help="campaign seed (default 0)")
    bench.add_argument("--seeds", type=int, default=None,
                       help="explorer trial count (default: 25 full, 5 smoke)")
    bench.add_argument("--smoke", action="store_true",
                       help="shrunken budgets for CI")
    bench.add_argument("--output", default=None, metavar="PATH",
                       help="write the JSON payload here")
    bench.add_argument("--check-against", default=None, metavar="BASELINE",
                       help="fail if a machine-relative guard regressed "
                       "vs this baseline: a committed BENCH_perf.json, "
                       "a campaign-store .sqlite (newest stored bench "
                       "run), or the word 'store' (the default store)")
    bench.add_argument("--max-regression", type=float, default=0.25,
                       help="allowed relative guard regression (default 0.25)")
    _add_campaign_flags(bench, metrics=False, protocol=True,
                        protocol_multiple=True,
                        protocol_help="restrict the frontier bake-off to "
                        "these protocols (repeatable; default: all four "
                        "peers)")
    bench.set_defaults(handler=_cmd_bench)

    frontier = commands.add_parser(
        "frontier",
        help="the commit-protocol bake-off: four protocols, one fault "
        "matrix (availability / latency / message cost)",
    )
    frontier.add_argument("--seed", type=int, default=0,
                          help="campaign seed the fault matrix derives "
                          "from (default 0)")
    frontier.add_argument("--seeds", type=int, default=4,
                          help="fail-stop walks per scenario (default 4)")
    frontier.add_argument("--smoke", action="store_true",
                          help="shrunken scenario/walk budget for CI")
    frontier.add_argument("--scenario", action="append",
                          help="restrict to this scenario (repeatable)")
    frontier.add_argument("--output", default=None, metavar="PATH",
                          help="write the results/guards JSON payload here")
    _add_campaign_flags(frontier, protocol=True, protocol_multiple=True,
                        protocol_help="restrict to this protocol "
                        "(repeatable; default: polyvalue, blocking, "
                        "paxos, pathsensitive)")
    frontier.set_defaults(handler=_cmd_frontier)

    history = commands.add_parser(
        "history",
        help="query the campaign store (runs, trends, run detail)",
    )
    history.add_argument("--store", default=None, metavar="PATH",
                         help="store path (default "
                         ".repro/campaigns.sqlite or $REPRO_STORE)")
    history.add_argument("--command", default=None,
                         choices=("check", "chaos", "bench", "table2",
                                  "sweep", "frontier"),
                         help="only runs of this command")
    history.add_argument("--metric", default=None, metavar="NAME",
                         help="trend one stored metric across runs, "
                         "with consecutive deltas")
    history.add_argument("--since", type=_parse_since, default=None,
                         help="only runs since: ISO date, age (7d, 12h, "
                         "30m) or POSIX seconds")
    history.add_argument("--limit", type=int, default=None, metavar="N",
                         help="keep only the newest N entries")
    history.add_argument("--run", type=int, default=None, metavar="ID",
                         help="full detail of one run (trials, metrics, "
                         "verdicts, histograms)")
    history.add_argument("--format", choices=("table", "json"),
                         default="table")
    history.set_defaults(handler=_cmd_history)

    dash = commands.add_parser(
        "serve-dash",
        help="live dashboard: HTTP + SSE over the event bus",
    )
    dash.add_argument("--host", default="127.0.0.1")
    dash.add_argument("--port", type=int, default=8537,
                      help="TCP port (0 = ephemeral; default 8537)")
    dash.add_argument("--scenario", choices=("demo", "chaos"),
                      default="demo",
                      help="what drives the stream: the looping "
                      "coordinator-crash walkthrough or looping smoke "
                      "chaos campaigns")
    dash.add_argument("--seed", type=int, default=7)
    dash.add_argument("--trials", type=int, default=2,
                      help="trials per chaos campaign iteration")
    _add_campaign_flags(dash, store=False, metrics=False)
    dash.add_argument("--duration", type=float, default=None,
                      help="stop after this many wall seconds "
                      "(default: run until Ctrl-C)")
    dash.add_argument("--verbose", action="store_true",
                      help="log every HTTP request")
    dash.set_defaults(handler=_cmd_serve_dash)

    serve = commands.add_parser(
        "serve",
        help="stand up a live polyvalue cluster (real sockets, real "
        "clocks) behind an HTTP/JSON API",
    )
    serve.add_argument("--sites", type=int, default=3,
                       help="number of database sites (default 3)")
    serve.add_argument("--seed", type=int, default=0,
                       help="RNG seed for the cluster (default 0)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8790,
                       help="HTTP API port (0 = ephemeral; default 8790)")
    serve.add_argument("--data-dir", default=None, metavar="DIR",
                       help="persist per-site durable state here (enables "
                       "restart-from-disk; default: in-memory only)")
    _add_campaign_flags(serve, jobs=False, store=False, metrics=False,
                        protocol=True, protocol_default="polyvalue",
                        protocol_choices=LIVE_PROTOCOLS,
                        protocol_help="commit protocol the cluster runs "
                        "(default polyvalue; pathsensitive is sim-only)")
    serve.set_defaults(handler=_cmd_serve)

    client = commands.add_parser(
        "client",
        help="drive a running 'repro serve' cluster (health, transfer, "
        "crash/restart, demo)",
    )
    client.add_argument("rest", nargs=argparse.REMAINDER,
                        help="client arguments; run 'repro client -- "
                        "--help' for the full list")
    client.set_defaults(handler=_cmd_client)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "client":
        # The client owns its whole argument list (its options would
        # otherwise be swallowed by this parser before REMAINDER kicks
        # in), so hand over before argparse sees them.
        from repro.live.client import main as client_main

        return client_main(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UnstableRegimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a consumer that closed early (e.g. head).
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
