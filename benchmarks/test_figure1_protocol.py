"""Figure 1 — "The Update Protocol States".

The paper's only figure is the participant state diagram: three states
(idle, compute, wait) and the transitions between them.  This bench
drives the full-system simulator through scenarios that exercise every
edge, prints the diagram with the empirically observed transition
counts, and asserts that (a) every one of the seven edges was observed,
(b) no transition outside the diagram ever occurred and (c) at every
site each transaction's steps leave idle and return to it in order.

The systems' transition logs hold edge counts only; the per-step
sequence that (c) checks comes from the ``site.state`` bus events, to an
:class:`~repro.obs.events.EventLog` attached before anything runs.
"""

from collections import Counter

from repro.obs.events import EventLog
from repro.txn.runtime import SiteState, TransitionLog
from repro.txn.system import DistributedSystem
from repro.txn.transaction import Transaction, TxnStatus

from conftest import print_exhibit

DIAGRAM = r"""
                 begin
      +--------+ ----->  +---------+
      |  IDLE  |         | COMPUTE |
      +--------+ <-----  +---------+
        ^    ^   abort /      |
        |    |   compute-     | ready
        |    |   timeout      v
        |    |            +--------+
        |    +----------- |  WAIT  |
        |  complete/abort +--------+
        +-- wait-timeout (install polyvalues)
"""


def increment(item):
    def body(ctx):
        ctx.write(item, ctx.read(item) + 1)

    return Transaction(body=body, items=(item,))


def move(source, target):
    def body(ctx):
        ctx.write(source, ctx.read(source) - 1)
        ctx.write(target, ctx.read(target) + 1)

    return Transaction(body=body, items=(source, target))


def drive_all_edges():
    """Run scenarios covering every Figure-1 edge.

    Returns each system with the ``site.state`` events it emitted.
    """
    items = {f"item-{index}": 100 for index in range(6)}
    system = DistributedSystem.build(sites=3, items=items, seed=2024)
    steps = EventLog(system.bus, prefix="site.state")

    # Edges: begin, ready, complete — a clean cross-site commit.
    system.submit(move("item-0", "item-1"))
    system.run_for(2.0)

    # Edge: abort (from compute and from wait) — a lock conflict.
    system.submit(increment("item-2"))
    system.submit(increment("item-2"))
    system.run_for(2.0)

    # Edge: compute-timeout — coordinator crashes before staging.
    system.submit(move("item-0", "item-1"))
    system.run_for(0.015)
    system.crash_site("site-0")
    system.run_for(2.0)
    system.recover_site("site-0")
    system.run_for(3.0)

    # Edge: wait-timeout — coordinator crashes in the commit window.
    system.submit(move("item-0", "item-1"))
    system.run_for(0.05)
    system.crash_site("site-0")
    system.run_for(2.0)
    system.recover_site("site-0")
    system.run_for(5.0)

    # Edge: abort received while in wait — partition the participant
    # after it sent ready, under a *longer* wait timeout so the healed
    # partition delivers the abort before the timer fires.
    from repro.txn.config import ProtocolConfig

    patient = DistributedSystem.build(
        sites=3,
        items=dict(items),
        seed=2025,
        config=ProtocolConfig(wait_timeout=3.0),
    )
    patient_steps = EventLog(patient.bus, prefix="site.state")
    patient.submit(move("item-0", "item-1"))
    patient.run_for(0.046)
    patient.network.partition("site-0", "site-1")
    patient.run_for(1.0)  # coordinator timed out -> abort broadcast lost
    patient.network.heal_all()
    patient.run_for(3.0)
    return (system, steps), (patient, patient_steps)


def test_figure1_state_machine(benchmark):
    runs = benchmark.pedantic(drive_all_edges, rounds=1, iterations=1)

    counts = Counter()
    for system, _ in runs:
        counts.update(system.transitions.edge_counts())
    lines = [DIAGRAM, "Observed transitions:"]
    for (source, trigger, target), count in sorted(counts.items()):
        lines.append(f"  {source:>8} --[{trigger:^16}]--> {target:<8} x{count}")
    print_exhibit("Figure 1: the update protocol states", lines)

    # (a) Every edge of the diagram was observed.
    observed = frozenset().union(
        *(system.transitions.observed_edges() for system, _ in runs)
    )
    missing = TransitionLog.FIGURE_1_EDGES - observed
    assert not missing, f"unexercised Figure-1 edges: {missing}"

    # (b) Nothing outside the diagram ever happened.
    assert all(system.transitions.all_edges_valid() for system, _ in runs)

    # (c) Per-transaction sanity at each site: transitions alternate out
    # of and back to idle (idle -> compute [-> wait] -> idle ...).
    # The two systems mint independent txn-id namespaces, so validate
    # each event stream separately.
    for system, steps in runs:
        assert len(steps) == sum(system.transitions.edge_counts().values())
        state = {}
        for step in steps:
            key = (step.site, step.txn)
            assert step.attrs["source"] == state.get(key, SiteState.IDLE.value), (
                key,
                step,
            )
            state[key] = step.attrs["target"]
        stuck = {key: at for key, at in state.items() if at != SiteState.IDLE.value}
        assert not stuck, f"did not return to idle: {stuck}"
