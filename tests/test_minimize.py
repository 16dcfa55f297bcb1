"""Tests for the printed sum-of-products form (repro.core.minimize).

A condition is a truth table; :attr:`Condition.products` and ``str``
are its cover by prime implicants.  These tests pin that form: it is
equal to the condition, small, stable under reprinting, and cheap for
wide disjunctions.
"""

import itertools
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conditions import Condition, Literal
from repro.core.errors import ConditionError
from repro.core.minimize import literal_count, product_count
from repro.core.parser import parse_condition

T1, T2, T3, T4 = (Condition.of(t) for t in ("T1", "T2", "T3", "T4"))


def reprinted(condition):
    """The condition rebuilt from its printed products."""
    return Condition(condition.products)


def is_prime(product, condition):
    """*product* implies *condition*, and no shorter product does."""
    implies = Condition([product]).implies
    return implies(condition) and not any(
        Condition([product - {literal}]).implies(condition) for literal in product
    )


class TestBasics:
    def test_constants(self):
        assert Condition.true().products == frozenset({frozenset()})
        assert Condition.false().products == frozenset()
        assert str(Condition.true()) == "TRUE"
        assert str(Condition.false()) == "FALSE"

    def test_single_literal_unchanged(self):
        assert T1.products == frozenset({frozenset({Literal("T1")})})
        assert (~T1).products == frozenset({frozenset({Literal("T1", False)})})
        assert (str(T1), str(~T1)) == ("T1", "~T1")

    def test_tautology_over_variables(self):
        assert (T1 | ~T1).products == frozenset({frozenset()})

    def test_redundant_consensus_term_removed(self):
        # (T1&T2) | (~T1&T3) | (T2&T3): the consensus term T2&T3 is
        # redundant — the classic example local rewrites cannot catch.
        bloated = (T1 & T2) | (~T1 & T3) | (T2 & T3)
        assert reprinted(bloated) == bloated
        assert product_count(bloated) == 2
        assert str(bloated) == "(T1 & T2) | (T3 & ~T1)"

    def test_subsumed_longer_product(self):
        bloated = (T1 & T2) | (T1 & ~T2 & T3) | (T1 & T3)
        assert reprinted(bloated) == bloated
        assert product_count(bloated) == 2
        assert literal_count(bloated) == 4

    def test_xor_is_already_minimal(self):
        xor = (T1 & ~T2) | (~T1 & T2)
        assert reprinted(xor) == xor
        assert product_count(xor) == 2

    def test_full_cube_collapse(self):
        # All four combinations of T1,T2 -> TRUE.
        everything = (
            (T1 & T2) | (T1 & ~T2) | (~T1 & T2) | (~T1 & ~T2)
        )
        assert everything.products == frozenset({frozenset()})

    def test_three_variable_reduction(self):
        # Majority function: minimal form has 3 products of 2 literals.
        majority = (T1 & T2) | (T1 & T3) | (T2 & T3) | (T1 & T2 & T3)
        assert reprinted(majority) == majority
        assert product_count(majority) == 3
        assert literal_count(majority) == 6

    def test_variable_limit_enforced(self):
        with pytest.raises(ConditionError):
            Condition.all_of(*(f"T{i}" for i in range(25)))


@pytest.mark.parametrize("width", [16, 20])
def test_wide_disjunction_prints_and_encodes_in_bounded_calls(width):
    # "Any of N in-doubt writers" comes from merging equal results over a
    # hot item.  Its printed form must cost work in the number of
    # primes (N), not in the number of minterms (2**N - 1).
    from repro.core.polyvalue import Polyvalue
    from repro.core.serialize import decode_value, encode_value

    txns = [f"T{i}" for i in range(width)]
    bound = 6_000
    calls = 0

    def count(frame, event, arg):
        # Python and builtin calls alike; stop at once past the bound so
        # a per-minterm algorithm fails fast instead of running for hours.
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1
            if calls > bound:
                raise AssertionError(f"more than {bound} calls")

    sys.setprofile(count)
    try:
        wide = Condition.any_of(*txns)
        value = Polyvalue([(1, wide), (0, ~wide)])
        blob = json.dumps(encode_value(value))
        restored = decode_value(json.loads(blob))
    finally:
        sys.setprofile(None)
    assert restored == value
    assert product_count(wide) == width
    assert str(~wide) == " & ".join(sorted("~" + t for t in txns))


TXNS = ["T1", "T2", "T3", "T4"]
literals = st.builds(
    Literal, txn=st.sampled_from(TXNS), positive=st.booleans()
)
conditions = st.lists(
    st.frozensets(literals, min_size=0, max_size=4), min_size=0, max_size=6
).map(Condition)


def all_assignments():
    for combo in itertools.product((False, True), repeat=len(TXNS)):
        yield dict(zip(TXNS, combo))


@given(conditions)
@settings(max_examples=80)
def test_property_minimize_preserves_semantics(condition):
    printed = reprinted(condition)
    assert printed == condition
    for assignment in all_assignments():
        assert printed.evaluate(assignment) == condition.evaluate(assignment)


@given(conditions)
@settings(max_examples=80)
def test_property_minimize_never_grows(condition):
    # Every printed product is prime (no literal can go), and each one
    # covers an assignment the others miss, so there are at most as many
    # products as satisfying assignments.
    assert all(is_prime(product, condition) for product in condition.products)
    satisfying = sum(condition.evaluate(a) for a in all_assignments())
    assert product_count(condition) <= satisfying
    assert literal_count(condition) <= satisfying * len(condition.variables())


@given(conditions)
@settings(max_examples=40)
def test_property_minimize_is_idempotent(condition):
    once = reprinted(condition)
    twice = reprinted(once)
    assert once.products == twice.products == condition.products
    assert str(twice) == str(condition)
    assert parse_condition(str(condition)) == condition


class TestPolyvalueMinimized:
    def test_minimized_preserves_resolution(self):
        from repro.core.polyvalue import Polyvalue

        inner = Polyvalue.in_doubt("T1", 1, 2)
        middle = Polyvalue.in_doubt("T2", inner, 3)
        outer = Polyvalue.in_doubt("T3", middle, inner)
        squeezed = Polyvalue([(v, reprinted(c)) for v, c in outer.pairs])
        assert squeezed == outer
        for combo in itertools.product((False, True), repeat=3):
            assignment = dict(zip(("T1", "T2", "T3"), combo))
            assert squeezed.value_under(assignment) == outer.value_under(
                assignment
            )

    def test_minimized_never_larger(self):
        from repro.core.polyvalue import Polyvalue

        inner = Polyvalue.in_doubt("T1", 1, 2)
        outer = Polyvalue.in_doubt("T2", inner, 1)
        # Flattening gives 1 the condition (T1 & T2) | ~T2, three
        # literals; its printed form needs two.
        conditions = dict(outer.pairs)
        assert str(conditions[1]) == "T1 | ~T2"
        assert literal_count(conditions[1]) == 2
        for _, condition in outer.pairs:
            assert literal_count(reprinted(condition)) == literal_count(condition)
