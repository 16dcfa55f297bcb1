"""Unit tests for the polyvalue data structure (repro.core.polyvalue)."""

from collections.abc import Mapping

import pytest

from repro.core.conditions import Condition
from repro.core.errors import (
    IncompleteConditionsError,
    OverlappingConditionsError,
    PolyvalueError,
    UncertainValueError,
)
from repro.core.polyvalue import (
    Polyvalue,
    as_pairs,
    certain,
    combine,
    definitely,
    depends_on,
    is_polyvalue,
    possible_values,
    possibly,
    reduce_value,
    simplify,
)

T1 = Condition.of("T1")
T2 = Condition.of("T2")


def in_doubt(new, old, txn="T1"):
    return Polyvalue([(new, Condition.of(txn)), (old, Condition.not_of(txn))])


class TestConstruction:
    def test_basic_two_pair_polyvalue(self):
        pv = in_doubt(130, 100)
        assert pv.possible_values() == [130, 100] or pv.possible_values() == [100, 130]
        assert len(pv) == 2

    def test_conditions_must_be_complete(self):
        with pytest.raises(IncompleteConditionsError):
            Polyvalue([(1, T1 & T2), (2, ~T1 & ~T2)])

    def test_conditions_must_be_disjoint(self):
        with pytest.raises(OverlappingConditionsError):
            Polyvalue([(1, T1), (2, Condition.true())])

    def test_validation_can_be_disabled(self):
        pv = Polyvalue([(1, T1 & T2), (2, ~T1 & ~T2)], validate=False)
        assert len(pv) == 2

    def test_empty_pairs_rejected(self):
        with pytest.raises(PolyvalueError):
            Polyvalue([])

    def test_all_false_pairs_rejected(self):
        with pytest.raises(PolyvalueError):
            Polyvalue([(1, Condition.false())])

    def test_non_condition_rejected(self):
        with pytest.raises(PolyvalueError):
            Polyvalue([(1, "T1")])

    def test_false_condition_pair_discarded(self):
        pv = Polyvalue([(1, T1), (2, ~T1), (3, Condition.false())])
        assert 3 not in pv.possible_values()

    def test_pairs_sorted_deterministically(self):
        a = Polyvalue([(1, T1), (2, ~T1)])
        b = Polyvalue([(2, ~T1), (1, T1)])
        assert a.pairs == b.pairs


class TestSimplificationRule1Flattening:
    def test_nested_polyvalue_is_flattened(self):
        inner = in_doubt(100, 150, "T1")
        outer = Polyvalue([(inner, T2), (7, ~T2)])
        values = set(outer.possible_values())
        assert values == {100, 150, 7}
        # No value in the flattened polyvalue is itself a polyvalue.
        assert not any(is_polyvalue(v) for v in outer.possible_values())

    def test_flattened_conditions_are_products(self):
        inner = in_doubt(100, 150, "T1")
        outer = Polyvalue([(inner, T2), (7, ~T2)])
        assert outer.value_under({"T1": True, "T2": True}) == 100
        assert outer.value_under({"T1": False, "T2": True}) == 150
        assert outer.value_under({"T1": True, "T2": False}) == 7

    def test_double_nesting_flattens(self):
        level1 = in_doubt(1, 2, "T1")
        level2 = Polyvalue([(level1, T2), (3, ~T2)])
        level3 = Polyvalue([(level2, Condition.of("T3")), (4, Condition.not_of("T3"))])
        assert set(level3.possible_values()) == {1, 2, 3, 4}


class TestSimplificationRule2Merging:
    def test_equal_values_merge(self):
        pv = Polyvalue([(5, T1), (5, ~T1)])
        assert pv.is_certain()
        assert pv.certain_value() == 5

    def test_merge_produces_or_of_conditions(self):
        pv = Polyvalue(
            [(5, T1 & T2), (5, ~T1 & T2), (9, ~T2)]
        )
        assert len(pv) == 2
        assert pv.value_under({"T1": True, "T2": True}) == 5
        assert pv.value_under({"T1": False, "T2": True}) == 5

    def test_bool_and_int_do_not_merge(self):
        pv = Polyvalue([(True, T1), (1, ~T1)])
        assert len(pv) == 2

    def test_zero_and_false_do_not_merge(self):
        pv = Polyvalue([(0, T1), (False, ~T1)])
        assert len(pv) == 2

    def test_in_doubt_same_values_collapses(self):
        result = Polyvalue.in_doubt("T1", 10, 10)
        assert result == 10


class TestDependsOn:
    def test_depends_on_lists_all_mentioned_txns(self):
        inner = in_doubt(100, 150, "T1")
        outer = Polyvalue([(inner, T2), (7, ~T2)])
        assert outer.depends_on() == frozenset({"T1", "T2"})

    def test_module_depends_on_simple_value_is_empty(self):
        assert depends_on(42) == frozenset()

    def test_module_depends_on_polyvalue(self):
        assert depends_on(in_doubt(1, 2)) == frozenset({"T1"})


class TestReduce:
    def test_reduce_to_committed_value(self):
        assert in_doubt(130, 100).reduce({"T1": True}) == 130

    def test_reduce_to_aborted_value(self):
        assert in_doubt(130, 100).reduce({"T1": False}) == 100

    def test_partial_reduce_keeps_polyvalue(self):
        inner = in_doubt(100, 150, "T1")
        outer = Polyvalue([(inner, T2), (7, ~T2)])
        partially = outer.reduce({"T2": True})
        assert is_polyvalue(partially)
        assert set(partially.possible_values()) == {100, 150}

    def test_full_reduce_eliminates_uncertainty(self):
        inner = in_doubt(100, 150, "T1")
        outer = Polyvalue([(inner, T2), (7, ~T2)])
        assert outer.reduce({"T1": False, "T2": True}) == 150

    def test_reduce_with_irrelevant_outcome_is_same(self):
        pv = in_doubt(130, 100)
        assert reduce_value(pv, {"T9": True}) == pv

    def test_reduce_value_on_simple_value(self):
        assert reduce_value(10, {"T1": True}) == 10

    def test_reduce_probes_only_its_own_dependencies(self):
        # A site's outcome map grows with every transaction it ever
        # learned about; reducing one polyvalue must look up its own
        # few dependencies in it, never walk it.
        pv = Polyvalue(
            [(1, T1 & T2), (2, T1 & ~T2), (3, ~T1)]
        )
        assert pv.reduce(_Unwalkable({"T9": True})) is pv
        partly = pv.reduce(_Unwalkable({"T1": True, "T9": False}))
        assert set(partly.possible_values()) == {1, 2}
        assert pv.reduce(_Unwalkable({"T1": False, "T9": False})) == 3
        assert reduce_value(partly, _Unwalkable({"T2": False})) == 2


class _Unwalkable(Mapping):
    """An outcome map that supports lookups but refuses iteration."""

    def __init__(self, known):
        self._known = dict(known)

    def __getitem__(self, txn):
        return self._known[txn]

    def __len__(self):
        return len(self._known)

    def __iter__(self):
        raise AssertionError("the whole outcome map was iterated")


class TestCertainty:
    def test_certain_value_raises_when_uncertain(self):
        with pytest.raises(UncertainValueError):
            in_doubt(1, 2).certain_value()

    def test_collapse_returns_plain_value(self):
        assert Polyvalue([(5, T1), (5, ~T1)]).collapse() == 5

    def test_collapse_keeps_uncertain_polyvalue(self):
        pv = in_doubt(1, 2)
        assert pv.collapse() is pv

    def test_certain_on_simple_value(self):
        assert certain(10) == 10

    def test_certain_on_uncertain_polyvalue_raises(self):
        with pytest.raises(UncertainValueError):
            certain(in_doubt(1, 2))

    def test_value_under_complete_assignment(self):
        assert in_doubt(130, 100).value_under({"T1": True}) == 130


class TestMap:
    def test_map_applies_to_all_values(self):
        doubled = in_doubt(10, 20).map(lambda v: v * 2)
        assert set(doubled.possible_values()) == {20, 40}

    def test_map_collapsing_projection(self):
        # The §3.2 property: an output that does not depend on the exact
        # value is simple.
        assert in_doubt(10, 20).map(lambda v: v > 5) is True


class TestCombine:
    def test_combine_simple_values(self):
        assert combine(lambda a, b: a + b, 1, 2) == 3

    def test_combine_poly_and_simple(self):
        result = combine(lambda a, b: a + b, in_doubt(10, 20), 5)
        assert set(result.possible_values()) == {15, 25}

    def test_combine_collapses_value_independent_result(self):
        assert combine(lambda v: v >= 5, in_doubt(10, 20)) is True

    def test_combine_correlated_operands_prunes_impossible(self):
        # Two items uncertain on the SAME transaction: only the
        # diagonal combinations are possible.
        source = in_doubt(70, 100)  # T1 committed -> 70
        target = in_doubt(130, 100)  # T1 committed -> 130
        total = combine(lambda a, b: a + b, source, target)
        assert total == 200

    def test_combine_independent_operands_full_product(self):
        a = in_doubt(1, 2, "T1")
        b = in_doubt(10, 20, "T2")
        result = combine(lambda x, y: x + y, a, b)
        assert set(result.possible_values()) == {11, 21, 12, 22}

    def test_combine_no_operands(self):
        assert combine(lambda: 7) == 7


class TestModalQueries:
    def test_definitely_true_for_all_possibilities(self):
        assert definitely(lambda v: v >= 100, in_doubt(130, 100))

    def test_definitely_false_when_one_fails(self):
        assert not definitely(lambda v: v > 100, in_doubt(130, 100))

    def test_possibly_true_when_one_holds(self):
        assert possibly(lambda v: v > 100, in_doubt(130, 100))

    def test_possibly_false_when_none_hold(self):
        assert not possibly(lambda v: v > 200, in_doubt(130, 100))

    def test_modal_on_simple_values(self):
        assert definitely(lambda v: v == 5, 5)
        assert not possibly(lambda v: v == 6, 5)


class TestHelpers:
    def test_as_pairs_on_simple_value(self):
        pairs = as_pairs(42)
        assert len(pairs) == 1
        assert pairs[0][0] == 42
        assert pairs[0][1].is_true()

    def test_as_pairs_on_polyvalue(self):
        assert len(as_pairs(in_doubt(1, 2))) == 2

    def test_simplify_collapses_certain_polyvalue(self):
        assert simplify(Polyvalue([(5, T1), (5, ~T1)])) == 5

    def test_simplify_passes_simple_value(self):
        assert simplify("x") == "x"

    def test_is_polyvalue(self):
        assert is_polyvalue(in_doubt(1, 2))
        assert not is_polyvalue(42)

    def test_possible_values_on_simple(self):
        assert possible_values(3) == [3]


class TestDunder:
    def test_equality(self):
        assert in_doubt(1, 2) == in_doubt(1, 2)
        assert in_doubt(1, 2) != in_doubt(1, 3)

    def test_equality_other_type(self):
        assert in_doubt(1, 2) != 42

    def test_hashable(self):
        assert len({in_doubt(1, 2), in_doubt(1, 2)}) == 1

    def test_hash_eq_contract_with_unhashable_values(self):
        # Values may be dicts (unhashable, repr-order-dependent); equal
        # polyvalues must still hash equal.
        first = Polyvalue([({"a": 1, "b": 2}, T1), ({"c": 3}, ~T1)])
        second = Polyvalue([({"b": 2, "a": 1}, T1), ({"c": 3}, ~T1)])
        assert first == second
        assert hash(first) == hash(second)

    def test_iteration_yields_pairs(self):
        values = {value for value, _ in in_doubt(1, 2)}
        assert values == {1, 2}

    def test_str_contains_values_and_conditions(self):
        rendered = str(in_doubt(130, 100))
        assert "130" in rendered and "T1" in rendered


class TestPaperScenarios:
    def test_section_3_1_in_doubt_construction(self):
        # "{<v, T>, <v', ~T>} ... if T is completed, then v is the
        # correct value, otherwise v' is correct."
        pv = Polyvalue.in_doubt("T7", new_value=42, old_value=41)
        assert pv.value_under({"T7": True}) == 42
        assert pv.value_under({"T7": False}) == 41

    def test_in_doubt_over_existing_polyvalue(self):
        # Updating an item that already has a polyvalue with another
        # in-doubt transaction nests, then flattens.
        existing = Polyvalue.in_doubt("T1", 10, 0)
        updated = Polyvalue.in_doubt("T2", 99, existing)
        assert updated.value_under({"T2": True, "T1": True}) == 99
        assert updated.value_under({"T2": False, "T1": True}) == 10
        assert updated.value_under({"T2": False, "T1": False}) == 0

    def test_reservation_rule_from_section_5(self):
        # "a new reservation can be granted so long as the largest value
        # in that polyvalue is less than the number of available seats"
        sold = Polyvalue.in_doubt("T1", 96, 95)
        capacity = 100
        assert definitely(lambda count: count < capacity, sold)
