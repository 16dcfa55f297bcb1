"""Property-based tests (hypothesis) for the condition algebra.

A condition is a truth table over its support, so these check it
against brute force: whatever a construction or operator does, the
predicate must agree with a naive evaluation of the raw sum of products
under every assignment, and equality, hashing, ``is_true`` and
``variables`` must be exact.
"""

import itertools
import pickle

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.conditions import Condition, Literal
from repro.core.serialize import decode_condition, encode_condition

TXNS = ["T1", "T2", "T3", "T4"]

literals = st.builds(
    Literal,
    txn=st.sampled_from(TXNS),
    positive=st.booleans(),
)

products = st.frozensets(literals, min_size=0, max_size=4)

raw_conditions = st.lists(products, min_size=0, max_size=5)


def build(products_list):
    return Condition(products_list)


def naive_evaluate(products_list, assignment):
    """Evaluate the raw sum-of-products without any simplification."""
    return any(
        all(assignment[lit.txn] == lit.positive for lit in product)
        for product in products_list
    )


def all_assignments():
    for values in itertools.product((False, True), repeat=len(TXNS)):
        yield dict(zip(TXNS, values))


@given(raw_conditions)
def test_construction_preserves_semantics(products_list):
    condition = build(products_list)
    for assignment in all_assignments():
        assert condition.evaluate(assignment) == naive_evaluate(
            products_list, assignment
        )


@given(raw_conditions, raw_conditions)
def test_and_matches_pointwise_conjunction(left, right):
    combined = build(left) & build(right)
    for assignment in all_assignments():
        expected = naive_evaluate(left, assignment) and naive_evaluate(
            right, assignment
        )
        assert combined.evaluate(assignment) == expected


@given(raw_conditions, raw_conditions)
def test_or_matches_pointwise_disjunction(left, right):
    combined = build(left) | build(right)
    for assignment in all_assignments():
        expected = naive_evaluate(left, assignment) or naive_evaluate(
            right, assignment
        )
        assert combined.evaluate(assignment) == expected


@given(raw_conditions)
@settings(max_examples=60)
def test_negation_matches_pointwise_complement(products_list):
    negated = ~build(products_list)
    for assignment in all_assignments():
        assert negated.evaluate(assignment) != naive_evaluate(
            products_list, assignment
        )


@given(raw_conditions)
@settings(max_examples=60)
def test_excluded_middle_with_self(products_list):
    condition = build(products_list)
    union = condition | ~condition
    assert union.is_tautology()
    intersection = condition & ~condition
    assert not intersection.is_satisfiable()


@given(raw_conditions, st.sampled_from(TXNS), st.booleans())
def test_substitution_agrees_with_restricted_evaluation(
    products_list, txn, outcome
):
    condition = build(products_list)
    reduced = condition.substitute({txn: outcome})
    for assignment in all_assignments():
        forced = dict(assignment)
        forced[txn] = outcome
        assert reduced.evaluate(assignment) == condition.evaluate(forced)


@given(raw_conditions)
def test_simplified_form_has_no_contradictory_products(products_list):
    condition = build(products_list)
    for product in condition.products:
        txns_seen = {}
        for literal in product:
            assert txns_seen.setdefault(literal.txn, literal.positive) == (
                literal.positive
            )


@given(raw_conditions)
def test_no_product_subsumes_another(products_list):
    condition = build(products_list)
    product_list = list(condition.products)
    for i, a in enumerate(product_list):
        for j, b in enumerate(product_list):
            if i != j:
                assert not a < b


@given(raw_conditions, raw_conditions)
@settings(max_examples=60)
def test_equivalent_is_symmetric(left, right):
    a, b = build(left), build(right)
    assert a.equivalent(b) == b.equivalent(a)


@given(raw_conditions)
def test_structural_equality_implies_equal_hash(products_list):
    a = build(products_list)
    b = build(list(products_list))
    assert a == b
    assert hash(a) == hash(b)


# ----------------------------------------------------------------------
# Canonical form: one representation per function
# ----------------------------------------------------------------------
#
# Equal functions are equal values with one rendering, and a condition
# rebuilt from its ``(support, mask)`` pair or from its own products
# behaves identically.  The tests keep the names of the interning and
# cache tests whose promises they carry over.


@given(raw_conditions)
@settings(max_examples=60)
def test_interning_yields_identical_objects(products_list):
    a = build(products_list)
    b = build(list(reversed(products_list)))
    assert a == b and hash(a) == hash(b)
    assert str(a) == str(b)
    assert a.products == b.products


def _products_canonical(condition):
    # str(frozenset) is not canonical (iteration order differs between
    # equal frozensets built in different orders), so sort the literals
    # inside each product before sorting the products.
    return sorted(
        "&".join(sorted(map(str, product))) for product in condition.products
    )


def _algebra_snapshot(a, b):
    """Every observable product of the algebra on a pair of conditions."""
    reduced = (a & b).substitute({"T1": True, "T3": False})
    return {
        "and": _products_canonical(a & b),
        "or": _products_canonical(a | b),
        "not": _products_canonical(~a),
        "substitute": _products_canonical(reduced),
        "variables": sorted(a.variables() | b.variables()),
        "satisfiable": (a & b).is_satisfiable(),
        "tautology": (a | ~a).is_tautology(),
        "evaluations": [
            (a & b).evaluate(assignment) for assignment in all_assignments()
        ],
    }


@given(raw_conditions, raw_conditions)
@settings(max_examples=60)
def test_cached_algebra_observationally_identical_to_uncached(left, right):
    a, b = build(left), build(right)
    direct = _algebra_snapshot(a, b)
    # Rebuilt across a process boundary (pickle uses ``__reduce__``)...
    shipped = _algebra_snapshot(*pickle.loads(pickle.dumps((a, b))))
    # ...and rebuilt from the printed sum-of-products form.
    reprinted = _algebra_snapshot(Condition(a.products), Condition(b.products))
    assert direct == shipped == reprinted


@given(raw_conditions, st.booleans())
@settings(max_examples=60)
def test_interning_never_leaks_across_txnid_spaces(products_list, outcome):
    """Conditions over one TxnId space are inert under another space.

    ``substitute`` only probes the outcomes of the condition's own
    support, so outcomes for foreign transaction identifiers must
    neither change the result nor smuggle foreign variables into it.
    """
    condition = build(products_list)
    foreign = {"U1": outcome, "U2": not outcome}
    # Substituting outcomes from a disjoint TxnId space is an identity —
    # literally: the fast path returns the very same object.
    assert condition.substitute(foreign) is condition
    # Mixing foreign outcomes into a relevant substitution changes
    # nothing relative to the restricted substitution.
    mixed = condition.substitute({"T1": outcome, **foreign})
    assert mixed == condition.substitute({"T1": outcome})
    # And no operation ever invents variables from the foreign space.
    assert not (condition.variables() & set(foreign))
    assert not ((~condition).variables() & set(foreign))


@given(raw_conditions)
@settings(max_examples=60)
def test_cache_reconfiguration_preserves_identity_of_live_conditions(
    products_list,
):
    """The retired ``clear_caches`` hook is inert: a condition rebuilt
    after it is equal, hash-equal and printed the same as before."""
    before = build(products_list)
    api.clear_caches()
    after = build(list(products_list))
    assert after == before and hash(after) == hash(before)
    assert str(after) == str(before)


# ----------------------------------------------------------------------
# Exactness against brute force
# ----------------------------------------------------------------------


def _p(*literals):
    """A product from ``"T1"`` / ``"~T1"`` spellings."""
    return frozenset(
        Literal(spelling.lstrip("~"), not spelling.startswith("~"))
        for spelling in literals
    )


#: (T1 & T2) | ~T1 | ~T2 — a tautology that mentions two transactions.
TAUTOLOGY = [_p("T1", "T2"), _p("~T1"), _p("~T2")]


def _table(condition):
    return tuple(condition.evaluate(a) for a in all_assignments())


def _essential(condition):
    """The transactions whose flip changes the value somewhere."""
    return {
        txn
        for txn in TXNS
        for assignment in all_assignments()
        if condition.evaluate(assignment)
        != condition.evaluate({**assignment, txn: not assignment[txn]})
    }


@given(raw_conditions)
@example(TAUTOLOGY)
def test_is_true_is_exact(products_list):
    condition = build(products_list)
    brute = all(naive_evaluate(products_list, a) for a in all_assignments())
    assert condition.is_true() == condition.is_tautology() == brute
    assert condition.is_false() == (not any(_table(condition)))


@given(raw_conditions, raw_conditions)
@example([_p("T1"), _p("~T1", "T2")], [_p("T1"), _p("T2")])
def test_equality_is_equivalence(left, right):
    a, b = build(left), build(right)
    same = _table(a) == _table(b)
    assert (a == b) == a.equivalent(b) == same
    if same:
        assert hash(a) == hash(b)


@given(raw_conditions)
@example(TAUTOLOGY)
def test_variables_are_exactly_the_essential_ones(products_list):
    condition = build(products_list)
    assert condition.variables() == _essential(condition)


@given(raw_conditions)
def test_encoding_round_trips_to_an_equal_condition(products_list):
    condition = build(products_list)
    assert decode_condition(encode_condition(condition)) == condition


def test_tautology_over_two_variables_is_true():
    t1, t2 = Condition.of("T1"), Condition.of("T2")
    tautology = (t1 & t2) | ~t1 | ~t2
    assert tautology.is_true()
    assert tautology.variables() == frozenset()


def test_equivalent_forms_are_equal():
    t1, t2 = Condition.of("T1"), Condition.of("T2")
    assert t1 | (~t1 & t2) == t1 | t2
    assert hash(t1 | (~t1 & t2)) == hash(t1 | t2)


def test_non_minimal_v1_blob_decodes_to_the_minimal_condition():
    # T1 | (~T1 & T2), as an encoder that kept non-minimal sums wrote it.
    blob = {
        "__condition__": 1,
        "products": [
            [{"txn": "T1", "positive": True}],
            [{"txn": "T1", "positive": False}, {"txn": "T2", "positive": True}],
        ],
    }
    decoded = decode_condition(blob)
    assert decoded == Condition.of("T1") | Condition.of("T2")
    assert str(decoded) == "T1 | T2"
