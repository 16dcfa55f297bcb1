"""Guard: the observability layer is pay-for-what-you-use.

The bus threads through every hot path of the full-system simulator
(network transport, state transitions, coordinator decisions), each
call site guarded by a plain truthiness check.  These benchmarks pin
the contract that an *unobserved* system — bus present, no subscribers
— runs within a few percent of a system with the bus stripped out
entirely, and that observation changes nothing but what is observed.

Timing guards use best-of-N wall-clock minima (the low-noise estimator
for "how fast can this go"); the thresholds carry a small absolute
slack so sub-millisecond scheduler jitter cannot flake them.
"""

import time

from repro.analysis.model import ModelParams
from repro.analysis.montecarlo import PolyvalueSimulation
from repro.obs.events import EventBus, EventLog
from repro.txn.system import DistributedSystem
from repro.txn.transaction import Transaction


def _build_system(seed=11):
    items = {f"item-{index}": 100 for index in range(12)}
    return DistributedSystem.build(sites=3, items=items, seed=seed, jitter=0.0)


def _strip_bus(system):
    """Remove the bus entirely — the pre-observability baseline."""
    system.sim.bus = None
    system.network._bus = None
    system.transitions._bus = None
    for site in system.sites.values():
        site.runtime.bus = None


def _drive(system, transactions=60):
    def bump(item):
        def body(ctx):
            ctx.write(item, ctx.read(item) + 1)

        return Transaction(body=body, items=(item,))

    item_names = sorted(system.catalog.all_items())
    for index in range(transactions):
        system.submit(bump(item_names[index % len(item_names)]))
        system.run_for(0.05)
    # Drain through the quiescence counter rather than a fixed-length
    # run: the same hot path the correctness harness uses, and it stops
    # as soon as all protocol work is done.
    system.run_to_quiescence(max_time=system.sim.now + 2.0)


def _best_of(builder, rounds=7):
    best = float("inf")
    for _ in range(rounds):
        system = builder()
        start = time.perf_counter()
        _drive(system)
        best = min(best, time.perf_counter() - start)
    return best


class TestUnobservedOverhead:
    def test_full_system_unobserved_within_5_percent_of_busless(self):
        def stripped():
            system = _build_system()
            _strip_bus(system)
            return system

        # Interleave measurement orders so drift hits both arms alike.
        busless = _best_of(stripped)
        unobserved = _best_of(_build_system)
        busless = min(busless, _best_of(stripped))
        # 5% relative plus 2ms absolute slack for timer granularity.
        assert unobserved <= busless * 1.05 + 0.002, (
            f"unobserved run {unobserved * 1000:.2f}ms vs bus-free "
            f"{busless * 1000:.2f}ms — the no-subscriber guard got expensive"
        )

    def test_montecarlo_unobserved_within_5_percent(self):
        params = ModelParams(
            updates_per_second=10,
            failure_probability=0.01,
            items=10_000,
            recovery_rate=0.01,
            dependency_mean=1,
            update_independence=0,
        )

        def run_one(attach_bus):
            simulation = PolyvalueSimulation(params, seed=5)
            if attach_bus:
                simulation._sim.bus = EventBus()  # attached but unobserved
            start = time.perf_counter()
            simulation.run(1000.0)
            return time.perf_counter() - start

        baseline = min(run_one(False) for _ in range(5))
        unobserved = min(run_one(True) for _ in range(5))
        baseline = min(baseline, min(run_one(False) for _ in range(2)))
        assert unobserved <= baseline * 1.05 + 0.002


def _campaign_worker(seed):
    """One guard trial: drive a small instrumented system to quiescence."""
    system = _build_system(seed=seed)
    _drive(system, transactions=15)
    return system.metrics.committed


class TestCampaignRecordingOverhead:
    """The PR-6 telemetry contract: recording a campaign into the
    SQLite store (a CampaignRecorder subscribed to the driver bus)
    stays within a few percent of the same campaign unrecorded, and a
    bus with no subscribers is still skipped by the pool's truthiness
    guard exactly like the protocol hot paths."""

    TRIALS = 6

    def _campaign(self, bus):
        from repro.parallel import run_trials

        start = time.perf_counter()
        outcome = run_trials(
            _campaign_worker,
            list(range(self.TRIALS)),
            jobs=1,
            label="overhead-guard",
            bus=bus,
        )
        elapsed = time.perf_counter() - start
        assert not outcome.failures
        return elapsed

    def test_recorder_subscribed_within_5_percent(self, tmp_path):
        from repro.obs.store import CampaignRecorder, CampaignStore

        def recorded(round_index):
            store = CampaignStore(str(tmp_path / f"guard-{round_index}.sqlite"))
            bus = EventBus()
            recorder = CampaignRecorder(
                store, command="bench", label="overhead-guard", bus=bus
            )
            try:
                return self._campaign(bus)
            finally:
                recorder.finish(ok=True)
                store.close()

        bare = min(self._campaign(None) for _ in range(3))
        with_recorder = min(recorded(i) for i in range(3))
        bare = min(bare, min(self._campaign(None) for _ in range(2)))
        # 5% relative plus 2ms absolute slack for timer granularity.
        assert with_recorder <= bare * 1.05 + 0.002, (
            f"recorded campaign {with_recorder * 1000:.2f}ms vs bare "
            f"{bare * 1000:.2f}ms — the campaign recorder got expensive"
        )

    def test_no_subscriber_campaign_bus_is_free(self):
        bare = min(self._campaign(None) for _ in range(3))
        empty_bus = min(self._campaign(EventBus()) for _ in range(3))
        bare = min(bare, min(self._campaign(None) for _ in range(2)))
        assert empty_bus <= bare * 1.05 + 0.002, (
            f"unobserved campaign {empty_bus * 1000:.2f}ms vs bus-free "
            f"{bare * 1000:.2f}ms — the no-subscriber guard got expensive"
        )


class TestObservationIsPassive:
    def test_subscribing_changes_nothing_but_observation(self):
        observed = _build_system()
        log = EventLog(observed.bus)
        plain = _build_system()
        _drive(observed)
        _drive(plain)
        assert len(log) > 0
        assert observed.database_state() == plain.database_state()
        assert observed.metrics.summary() == plain.metrics.summary()
        assert observed.sim.events_processed == plain.sim.events_processed
