"""Unit tests for the condition algebra (repro.core.conditions)."""

import pytest

from repro.core.conditions import (
    FALSE,
    TRUE,
    Condition,
    Literal,
    conditions_are_complete,
    conditions_are_complete_and_disjoint,
    conditions_are_disjoint,
)
from repro.core.errors import ConditionError


class TestLiteral:
    def test_positive_literal_str(self):
        assert str(Literal("T1", True)) == "T1"

    def test_negative_literal_str(self):
        assert str(Literal("T1", False)) == "~T1"

    def test_negate_flips_polarity(self):
        assert Literal("T1", True).negate() == Literal("T1", False)

    def test_negate_is_involution(self):
        literal = Literal("T9", False)
        assert literal.negate().negate() == literal

    def test_satisfied_by_matching_outcome(self):
        assert Literal("T1", True).satisfied_by({"T1": True})
        assert not Literal("T1", True).satisfied_by({"T1": False})

    def test_negative_literal_satisfied_by_abort(self):
        assert Literal("T1", False).satisfied_by({"T1": False})

    def test_satisfied_by_missing_txn_raises(self):
        with pytest.raises(ConditionError):
            Literal("T1", True).satisfied_by({"T2": True})

    def test_literals_are_hashable_and_ordered(self):
        literals = {Literal("T1"), Literal("T1"), Literal("T2")}
        assert len(literals) == 2
        assert sorted([Literal("T2"), Literal("T1")])[0].txn == "T1"


class TestConstructors:
    def test_true_is_true(self):
        assert TRUE.is_true()
        assert not TRUE.is_false()

    def test_false_is_false(self):
        assert FALSE.is_false()
        assert not FALSE.is_true()

    def test_of_mentions_single_variable(self):
        assert Condition.of("T1").variables() == frozenset({"T1"})

    def test_not_of_is_negative_literal(self):
        condition = Condition.not_of("T1")
        assert condition.evaluate({"T1": False})
        assert not condition.evaluate({"T1": True})

    def test_literal_constructor_polarity(self):
        assert Condition.literal("T1", True) == Condition.of("T1")
        assert Condition.literal("T1", False) == Condition.not_of("T1")

    def test_all_of_requires_every_txn(self):
        condition = Condition.all_of("T1", "T2")
        assert condition.evaluate({"T1": True, "T2": True})
        assert not condition.evaluate({"T1": True, "T2": False})

    def test_any_of_requires_at_least_one(self):
        condition = Condition.any_of("T1", "T2")
        assert condition.evaluate({"T1": False, "T2": True})
        assert not condition.evaluate({"T1": False, "T2": False})

    def test_paper_example_t1_and_t2_or_t3(self):
        # "the condition T1 (T2 T3) would be true if T1 and at least
        # one of T2 and T3 were completed"
        condition = Condition.of("T1") & Condition.any_of("T2", "T3")
        assert condition.evaluate({"T1": True, "T2": False, "T3": True})
        assert condition.evaluate({"T1": True, "T2": True, "T3": False})
        assert not condition.evaluate({"T1": False, "T2": True, "T3": True})
        assert not condition.evaluate({"T1": True, "T2": False, "T3": False})


class TestAlgebra:
    def test_and_with_true_is_identity(self):
        c = Condition.of("T1")
        assert (c & TRUE) == c
        assert (TRUE & c) == c

    def test_and_with_false_is_false(self):
        assert (Condition.of("T1") & FALSE).is_false()

    def test_or_with_false_is_identity(self):
        c = Condition.of("T1")
        assert (c | FALSE) == c

    def test_or_with_true_is_true(self):
        assert (Condition.of("T1") | TRUE).is_true()

    def test_contradiction_is_false(self):
        assert (Condition.of("T1") & Condition.not_of("T1")).is_false()

    def test_excluded_middle_is_true(self):
        assert (Condition.of("T1") | Condition.not_of("T1")).is_true()

    def test_and_is_idempotent(self):
        c = Condition.of("T1") & Condition.not_of("T2")
        assert (c & c) == c

    def test_or_is_idempotent(self):
        c = Condition.of("T1") & Condition.not_of("T2")
        assert (c | c) == c

    def test_absorption_removes_subsumed_product(self):
        t1 = Condition.of("T1")
        t1_and_t2 = t1 & Condition.of("T2")
        assert (t1 | t1_and_t2) == t1

    def test_de_morgan_negation_of_conjunction(self):
        t1, t2 = Condition.of("T1"), Condition.of("T2")
        assert (~(t1 & t2)).equivalent(~t1 | ~t2)

    def test_de_morgan_negation_of_disjunction(self):
        t1, t2 = Condition.of("T1"), Condition.of("T2")
        assert (~(t1 | t2)).equivalent(~t1 & ~t2)

    def test_double_negation(self):
        c = Condition.of("T1") & Condition.not_of("T2")
        assert (~~c).equivalent(c)

    def test_negation_of_true_is_false(self):
        assert (~TRUE).is_false()

    def test_negation_of_false_is_true(self):
        assert (~FALSE).is_true()

    def test_resolution_collapses_complementary_pair(self):
        # p·T + p·~T = p
        t1, t2 = Condition.of("T1"), Condition.of("T2")
        combined = (t2 & t1) | (t2 & ~t1)
        assert combined == t2

    def test_and_with_non_condition_returns_notimplemented(self):
        with pytest.raises(TypeError):
            Condition.of("T1") & 42


class TestSubstitute:
    def test_substitute_commit_makes_positive_true(self):
        assert Condition.of("T1").substitute({"T1": True}).is_true()

    def test_substitute_abort_makes_positive_false(self):
        assert Condition.of("T1").substitute({"T1": False}).is_false()

    def test_substitute_partial_leaves_remaining(self):
        condition = Condition.of("T1") & Condition.of("T2")
        reduced = condition.substitute({"T1": True})
        assert reduced == Condition.of("T2")

    def test_substitute_unrelated_txn_is_noop(self):
        condition = Condition.of("T1")
        assert condition.substitute({"T9": False}) == condition

    def test_substitute_across_products(self):
        t1, t2 = Condition.of("T1"), Condition.of("T2")
        condition = (t1 & t2) | (~t1 & ~t2)
        assert condition.substitute({"T1": True}) == t2
        assert condition.substitute({"T1": False}) == ~t2

    def test_substitute_empty_mapping_is_noop(self):
        condition = Condition.of("T1") | Condition.of("T2")
        assert condition.substitute({}) == condition


class TestSemantics:
    def test_tautology_detection(self):
        t1, t2 = Condition.of("T1"), Condition.of("T2")
        tautology = (t1 & t2) | ~t1 | (t1 & ~t2)
        assert tautology.is_tautology()

    def test_non_tautology(self):
        assert not Condition.of("T1").is_tautology()

    def test_satisfiable_simple(self):
        assert Condition.of("T1").is_satisfiable()
        assert not FALSE.is_satisfiable()

    def test_equivalent_syntactic_variants(self):
        t1, t2 = Condition.of("T1"), Condition.of("T2")
        assert (t1 & t2).equivalent(t2 & t1)
        assert (t1 | t2).equivalent(~(~t1 & ~t2))

    def test_not_equivalent(self):
        assert not Condition.of("T1").equivalent(Condition.of("T2"))

    def test_implies(self):
        t1, t2 = Condition.of("T1"), Condition.of("T2")
        assert (t1 & t2).implies(t1)
        assert not t1.implies(t1 & t2)

    def test_everything_implies_true(self):
        assert Condition.of("T1").implies(TRUE)

    def test_false_implies_everything(self):
        assert FALSE.implies(Condition.of("T1"))

    def test_disjoint_with(self):
        t1 = Condition.of("T1")
        assert t1.disjoint_with(~t1)
        assert not t1.disjoint_with(t1 | Condition.of("T2"))

    def test_evaluate_with_extra_assignments(self):
        condition = Condition.of("T1")
        assert condition.evaluate({"T1": True, "T2": False})


class TestWellFormedness:
    def test_pair_t_and_not_t_is_complete_and_disjoint(self):
        pair = [Condition.of("T1"), Condition.not_of("T1")]
        assert conditions_are_complete(pair)
        assert conditions_are_disjoint(pair)
        assert conditions_are_complete_and_disjoint(pair)

    def test_overlapping_pair_not_disjoint(self):
        overlapping = [Condition.of("T1"), TRUE]
        assert conditions_are_complete(overlapping)
        assert not conditions_are_disjoint(overlapping)

    def test_gappy_pair_not_complete(self):
        t1, t2 = Condition.of("T1"), Condition.of("T2")
        gappy = [t1 & t2, ~t1 & ~t2]
        assert conditions_are_disjoint(gappy)
        assert not conditions_are_complete(gappy)

    def test_three_way_partition(self):
        t1, t2 = Condition.of("T1"), Condition.of("T2")
        partition = [t1 & t2, t1 & ~t2, ~t1]
        assert conditions_are_complete_and_disjoint(partition)

    def test_single_true_condition(self):
        assert conditions_are_complete_and_disjoint([TRUE])

    def test_truth_table_limit_enforced(self):
        # The guard fires when the 25-variable table would be built.
        with pytest.raises(ConditionError):
            Condition.all_of(*(f"T{i}" for i in range(25)))
        wide = Condition.all_of(*(f"T{i}" for i in range(20)))
        with pytest.raises(ConditionError):
            wide & Condition.of("T20")


class TestPresentation:
    def test_true_renders_as_true(self):
        assert str(TRUE) == "TRUE"

    def test_false_renders_as_false(self):
        assert str(FALSE) == "FALSE"

    def test_single_product_renders_with_ampersand(self):
        condition = Condition.of("T1") & Condition.not_of("T2")
        assert str(condition) == "T1 & ~T2"

    def test_str_is_deterministic(self):
        t1, t2, t3 = (Condition.of(t) for t in ("T1", "T2", "T3"))
        a = (t1 & ~t2) | t3
        b = t3 | (t1 & ~t2)
        assert str(a) == str(b)

    def test_repr_contains_str(self):
        condition = Condition.of("T1")
        assert "T1" in repr(condition)


class TestHashing:
    def test_equal_conditions_hash_equal(self):
        t1, t2 = Condition.of("T1"), Condition.of("T2")
        assert hash(t1 & t2) == hash(t2 & t1)

    def test_usable_as_dict_key(self):
        t1 = Condition.of("T1")
        mapping = {t1: "a", ~t1: "b"}
        assert mapping[Condition.of("T1")] == "a"

    def test_equality_with_other_type_is_false(self):
        assert Condition.of("T1") != "T1"
