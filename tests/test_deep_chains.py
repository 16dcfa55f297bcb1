"""Deep uncertainty chains: many stacked in-doubt transactions.

The paper's regime is "a few polyvalues at a time", but the data
structures must stay correct (and affordable) well past it.  These
tests stack many in-doubt updates onto one item and check growth
shape, stepwise resolution in arbitrary order, and the printed form.
"""

import pytest

from repro.core.conditions import Condition
from repro.core.polyvalue import Polyvalue, is_polyvalue, reduce_value
from repro.sim.rand import Rng

CHAIN_LENGTH = 15


def build_chain(length=CHAIN_LENGTH):
    """value_n = in_doubt(T_n, n, value_{n-1}), starting from 0."""
    value = 0
    for index in range(1, length + 1):
        value = Polyvalue.in_doubt(f"T{index}", index, value)
    return value


@pytest.mark.slow
class TestChainGrowth:
    def test_pairs_grow_linearly_not_exponentially(self):
        # Each layer adds one new possibility; flattening + merging
        # keeps the pair count at n+1, not 2^n.
        value = build_chain()
        assert len(value) == CHAIN_LENGTH + 1

    def test_possible_values_are_the_layers(self):
        value = build_chain()
        assert set(value.possible_values()) == set(range(CHAIN_LENGTH + 1))

    def test_depends_on_all_transactions(self):
        value = build_chain()
        assert value.depends_on() == frozenset(
            f"T{index}" for index in range(1, CHAIN_LENGTH + 1)
        )

    def test_semantics_last_committed_wins(self):
        # The chain means: the newest committed layer's value holds.
        value = build_chain(6)
        assignment = {f"T{i}": (i in (2, 4)) for i in range(1, 7)}
        # T4 is the newest committed -> value 4.
        assert value.value_under(assignment) == 4

    def test_all_aborted_resolves_to_original(self):
        value = build_chain(6)
        outcomes = {f"T{i}": False for i in range(1, 7)}
        assert value.reduce(outcomes) == 0


class TestStepwiseResolution:
    def test_resolution_in_shuffled_order(self):
        value = build_chain(10)
        rng = Rng(7)
        outcomes = {f"T{i}": rng.bernoulli(0.5) for i in range(1, 11)}
        expected = value.reduce(outcomes)
        # Resolve one transaction at a time in a shuffled order; the
        # final value must be identical.
        stepwise = value
        for txn in rng.shuffled(sorted(outcomes)):
            stepwise = reduce_value(stepwise, {txn: outcomes[txn]})
        assert stepwise == expected

    def test_partial_resolution_shrinks_monotonically(self):
        value = build_chain(8)
        sizes = [len(value)]
        current = value
        for index in range(1, 9):
            current = reduce_value(current, {f"T{index}": False})
            if is_polyvalue(current):
                sizes.append(len(current))
            else:
                sizes.append(1)
        assert sizes == sorted(sizes, reverse=True)
        assert current == 0


class TestMinimisationOnChains:
    def test_minimized_chain_equivalent(self):
        value = build_chain(6)
        squeezed = Polyvalue([(v, Condition(c.products)) for v, c in value.pairs])
        assert squeezed == value
        import itertools

        txns = [f"T{i}" for i in range(1, 7)]
        for combo in itertools.product((False, True), repeat=6):
            assignment = dict(zip(txns, combo))
            assert squeezed.value_under(assignment) == value.value_under(
                assignment
            )

    def test_chain_conditions_already_near_minimal(self):
        # Layer i holds iff T_i committed and every later layer aborted:
        # one product of n - i + 1 literals (n for the original value).
        from repro.core.minimize import literal_count, product_count

        value = build_chain(6)
        counts = {v: (product_count(c), literal_count(c)) for v, c in value.pairs}
        assert counts == {i: (1, 7 - i if i else 6) for i in range(7)}


class TestChainThroughTheSystem:
    def test_five_stacked_windows_resolve_cleanly(self):
        from repro.txn.system import DistributedSystem
        from repro.txn.transaction import Transaction, TxnStatus

        system = DistributedSystem.build(
            sites=3,
            items={"hot": 0, "x": 0, "y": 0},
            seed=3,
            jitter=0.0,
        )
        home = system.catalog.site_of("hot")
        others = [s for s in sorted(system.sites) if s != home]

        def set_to(value):
            def body(ctx):
                ctx.read("hot")
                ctx.write("hot", value)

            return Transaction(body=body, items=("hot",))

        # Alternate coordinators; crash each inside the window, recover
        # it before the next round so it can coordinate again.
        for round_index in range(5):
            coordinator = others[round_index % 2]
            system.submit(set_to(round_index + 1), at=coordinator)
            system.run_for(0.035)
            system.crash_site(coordinator)
            system.run_for(0.6)  # wait-timeout fires; polyvalue stacks
            system.recover_site(coordinator)
            # Recover, but DON'T give the query loop time to resolve —
            # keep stacking.  (Interval is 1.0 s; we stay under it.)
            system.run_for(0.2)
        value = system.read_item("hot")
        if is_polyvalue(value):
            assert len(value.depends_on()) >= 2
        system.run_for(10.0)
        final = system.read_item("hot")
        assert not is_polyvalue(final)
        assert system.total_polyvalues() == 0
        assert system.outcome_bookkeeping_size() == 0