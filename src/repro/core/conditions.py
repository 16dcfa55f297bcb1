"""Boolean condition algebra over transaction identifiers.

Section 3 of the paper defines a polyvalue as a set of ``<value,
condition>`` pairs where each *condition* is a predicate whose variables
stand for transactions ("transaction identifiers").  The paper requires
the set of conditions within one polyvalue to be *complete* (one
predicate is true under any assignment of outcomes) and *disjoint*
(only one is), and it substitutes known outcomes into them during
recovery (section 3.3).

A :class:`Condition` is a truth table over its *support*: the sorted
tuple of the ``k`` transactions it depends on, plus an integer *mask*
of ``2**k`` bits.  Bit ``i`` of the mask is the condition's value under
the assignment in which ``support[j]`` committed iff bit ``j`` of ``i``
is set.  A transaction the function does not depend on is always
dropped from the support, so the representation is canonical: ``==``
and ``hash`` are exact equivalence, and ``is_true()``, ``is_false()``
and ``variables()`` are exact by construction.

``&``, ``|`` and ``~`` align the two supports and combine the masks
with integer bit operations; :meth:`Condition.substitute` is a
cofactor; completeness and disjointness of a polyvalue's conditions
are a running OR and an overlap test over masks aligned to the union
support.  The paper's sum-of-products form (section 3.1, rule 3) lives
only at the edges: :class:`Condition` is still built from products
(by the parser, the decoder and the tests), and
:attr:`Condition.products` and ``str`` are the cover by prime
implicants that :func:`repro.core.minimize.cover` computes from the
mask.

The paper's section 4 argues that only a few transactions are in doubt
at once, so supports stay tiny; :data:`MAX_TRUTH_TABLE_VARIABLES`
refuses to build a condition over more.

Example
-------
>>> t1, t2 = Condition.of("T1"), Condition.of("T2")
>>> c = t1 & ~t2
>>> c.evaluate({"T1": True, "T2": False})
True
>>> c.substitute({"T1": True})
Condition(~T2)
>>> (t1 | ~t1).is_true()
True
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Sequence,
    Tuple,
)

from repro.core.errors import ConditionError
from repro.core.minimize import cover

#: Transaction identifiers are plain strings (e.g. ``"T17"``).
TxnId = str

#: The largest support a condition may have.  Beyond this the truth
#: table has more than 2**20 rows and the caller is almost certainly
#: misusing the mechanism (the paper's whole point is that very few
#: transactions are in doubt at once).
MAX_TRUTH_TABLE_VARIABLES = 20


@dataclass(frozen=True, order=True)
class Literal:
    """A transaction identifier or its negation.

    ``Literal("T1", True)`` is true iff transaction ``T1`` completed
    (committed); ``Literal("T1", False)`` is true iff it aborted.
    """

    txn: TxnId
    positive: bool = True

    def negate(self) -> "Literal":
        """Return the complementary literal."""
        return Literal(self.txn, not self.positive)

    def satisfied_by(self, assignment: Mapping[TxnId, bool]) -> bool:
        """Evaluate under a complete outcome *assignment*.

        Raises :class:`~repro.core.errors.ConditionError` if the
        assignment does not mention this literal's transaction.
        """
        if self.txn not in assignment:
            raise ConditionError(
                f"assignment does not give an outcome for transaction {self.txn!r}"
            )
        return assignment[self.txn] == self.positive

    def __str__(self) -> str:
        return self.txn if self.positive else "~" + self.txn

    def __repr__(self) -> str:
        return f"Literal({str(self)})"


Product = FrozenSet[Literal]
Support = Tuple[TxnId, ...]


class Condition:
    """An immutable predicate over transaction outcomes: a truth table.

    Construct one from a sum of products — an iterable of products,
    each an iterable of :class:`Literal` — or with :meth:`of`,
    :meth:`not_of`, :meth:`all_of` and friends.  The empty sum is
    *false*; the sum holding the empty product is *true*.

    Conditions support ``&`` (and), ``|`` (or), ``~`` (not), exact
    equality and hashing, so they can be used as dict keys and set
    members.
    """

    __slots__ = ("_support", "_mask", "_products", "_str")

    def __init__(self, products: Iterable[Iterable[Literal]] = ()) -> None:
        products = [tuple(product) for product in products]
        support = tuple(sorted({literal.txn for p in products for literal in p}))
        _check_variable_count(support)
        masks = {txn: _variable(j, len(support)) for j, txn in enumerate(support)}
        table = 0
        for product in products:
            term = _full(len(support))
            for literal in product:
                if literal.positive:
                    term &= masks[literal.txn]
                else:
                    term &= ~masks[literal.txn]
            table |= term
        reduced = _reduced(support, table)
        self._support = reduced._support
        self._mask = reduced._mask
        self._products = self._str = None

    def __reduce__(self):
        return (_new, (self._support, self._mask))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def true() -> "Condition":
        """The condition that always holds."""
        return TRUE

    @staticmethod
    def false() -> "Condition":
        """The condition that never holds."""
        return FALSE

    @staticmethod
    def of(txn: TxnId) -> "Condition":
        """The condition "transaction *txn* completed"."""
        return _new((txn,), 0b10)

    @staticmethod
    def not_of(txn: TxnId) -> "Condition":
        """The condition "transaction *txn* aborted"."""
        return _new((txn,), 0b01)

    @staticmethod
    def literal(txn: TxnId, positive: bool) -> "Condition":
        """The single-literal condition for *txn* with the given polarity."""
        return _new((txn,), 0b10 if positive else 0b01)

    @staticmethod
    def all_of(*txns: TxnId) -> "Condition":
        """The conjunction "every one of *txns* completed"."""
        return Condition([[Literal(t) for t in txns]])

    @staticmethod
    def any_of(*txns: TxnId) -> "Condition":
        """The disjunction "at least one of *txns* completed"."""
        return Condition([[Literal(t)] for t in txns])

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def products(self) -> FrozenSet[Product]:
        """A sum of prime implicants equal to this condition.

        *true* is the set holding the empty product; *false* is empty.
        """
        products = self._products
        if products is None:
            support = self._support
            products = frozenset(
                frozenset(
                    Literal(txn, bool(values >> j & 1))
                    for j, txn in enumerate(support)
                    if care >> j & 1
                )
                for values, care in cover(self._mask, len(support))
            )
            self._products = products
        return products

    def variables(self) -> FrozenSet[TxnId]:
        """The transactions whose outcome this condition depends on."""
        return frozenset(self._support)

    def is_true(self) -> bool:
        """True iff this condition holds under every outcome assignment."""
        return self._mask == 1 and not self._support

    def is_false(self) -> bool:
        """True iff no outcome assignment makes this condition hold."""
        return self._mask == 0

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    def __and__(self, other: "Condition") -> "Condition":
        if not isinstance(other, Condition):
            return NotImplemented
        if not self._support:
            return other if self._mask else self
        if not other._support:
            return self if other._mask else other
        return _apply(self, other, int.__and__)

    def __or__(self, other: "Condition") -> "Condition":
        if not isinstance(other, Condition):
            return NotImplemented
        if not self._support:
            return self if self._mask else other
        if not other._support:
            return other if other._mask else self
        return _apply(self, other, int.__or__)

    def __invert__(self) -> "Condition":
        return _new(self._support, self._mask ^ _full(len(self._support)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Condition):
            return NotImplemented
        return self._mask == other._mask and self._support == other._support

    def __hash__(self) -> int:
        return hash((self._support, self._mask))

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def evaluate(self, assignment: Mapping[TxnId, bool]) -> bool:
        """Evaluate under a (at least covering) outcome assignment.

        *assignment* maps each transaction identifier to ``True``
        (completed) or ``False`` (aborted).  Every variable of the
        condition must be present.
        """
        row = 0
        for j, txn in enumerate(self._support):
            if txn not in assignment:
                raise ConditionError(
                    f"assignment does not give an outcome for transaction {txn!r}"
                )
            if assignment[txn]:
                row |= 1 << j
        return bool(self._mask >> row & 1)

    def substitute(self, outcomes: Mapping[TxnId, bool]) -> "Condition":
        """Replace known transaction outcomes with constants.

        This is the reduction step of failure recovery (section 3.3):
        "the value of the transaction identifier for such a transaction
        can be replaced by true or false in the predicates".  Each known
        transaction of the support is cofactored away; *outcomes* is
        only probed for those, never iterated.
        """
        support = self._support
        known = [j for j, txn in enumerate(support) if txn in outcomes]
        if not known:
            return self
        table, k = self._mask, len(support)
        for j in reversed(known):
            half = 1 << j
            column = _variable(j, k)
            if outcomes[support[j]]:
                table = (table & column) >> half
            else:
                table &= ~column
            table = _drop(table, j, k)
            k -= 1
        rest = tuple(txn for txn in support if txn not in outcomes)
        return _reduced(rest, table)

    def is_satisfiable(self) -> bool:
        """True iff some outcome assignment makes this condition hold."""
        return self._mask != 0

    def is_tautology(self) -> bool:
        """True iff every outcome assignment makes this condition hold."""
        return self.is_true()

    def equivalent(self, other: "Condition") -> bool:
        """Semantic equivalence (agree on every outcome assignment)."""
        return self == other

    def implies(self, other: "Condition") -> bool:
        """True iff every assignment satisfying ``self`` satisfies *other*."""
        _, (mine, theirs) = _aligned((self, other))
        return not mine & ~theirs

    def disjoint_with(self, other: "Condition") -> bool:
        """True iff no assignment satisfies both conditions."""
        _, (mine, theirs) = _aligned((self, other))
        return not mine & theirs

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    def __str__(self) -> str:
        rendered = self._str
        if rendered is None:
            if not self._support:
                rendered = "TRUE" if self._mask else "FALSE"
            elif len(self._support) == 1:
                txn = self._support[0]
                rendered = txn if self._mask == 0b10 else "~" + txn
            else:
                terms = sorted(
                    " & ".join(sorted(map(str, product)))
                    for product in self.products
                )
                rendered = " | ".join(
                    f"({t})" if len(terms) > 1 and " & " in t else t
                    for t in terms
                )
            self._str = rendered
        return rendered

    def __repr__(self) -> str:
        return f"Condition({str(self)})"


# ----------------------------------------------------------------------
# Truth-table internals
# ----------------------------------------------------------------------


def _new(support: Support, mask: int) -> Condition:
    """A condition over an already-reduced *support*, skipping checks."""
    condition = object.__new__(Condition)
    condition._support = support
    condition._mask = mask
    condition._products = condition._str = None
    return condition


def _full(k: int) -> int:
    """The all-ones table over *k* variables."""
    return (1 << (1 << k)) - 1


def _variable(j: int, k: int) -> int:
    """The table of "variable *j* is true" over *k* variables."""
    half = 1 << j
    table = ((1 << half) - 1) << half
    width, size = half << 1, 1 << k
    while width < size:
        table |= table << width
        width <<= 1
    return table


def _drop(table: int, j: int, k: int) -> int:
    """Remove variable *j* from a *k*-variable table whose rows with
    variable *j* true are all zero."""
    width = 1 << j
    if j == k - 1:
        return table
    low = (1 << width) - 1
    out = 0
    for offset in range(0, 1 << (k - 1), width):
        out |= (table >> (offset << 1) & low) << offset
    return out


def _insert(table: int, p: int, k: int) -> int:
    """Add variable *p*, which the function ignores, to a *k*-variable table."""
    width = 1 << p
    if p < k:
        low = (1 << width) - 1
        spread = 0
        for offset in range(0, 1 << k, width):
            spread |= (table >> offset & low) << (offset << 1)
        table = spread
    return table | table << width


def _expand(condition: Condition, support: Support) -> int:
    """*condition*'s table over *support*, a sorted superset of its own."""
    table = condition._mask
    if condition._support != support:
        own = set(condition._support)
        k = len(own)
        for p, txn in enumerate(support):
            if txn not in own:
                table = _insert(table, p, k)
                k += 1
    return table


def _reduced(support: Support, table: int) -> Condition:
    """The condition for *table* over *support*, minus ignored variables."""
    if table == 0:
        return FALSE
    k = len(support)
    if table == _full(k):
        return TRUE
    j = 0
    while j < k:
        column = _variable(j, k)
        low = table & ~column
        if (table & column) >> (1 << j) == low:
            table = _drop(low, j, k)
            support = support[:j] + support[j + 1 :]
            k -= 1
        else:
            j += 1
    return _new(support, table)


def _aligned(conditions: Sequence[Condition]) -> Tuple[Support, List[int]]:
    """The conditions' union support, and their tables over it."""
    support = tuple(sorted(set().union(*(c._support for c in conditions))))
    _check_variable_count(support)
    return support, [_expand(c, support) for c in conditions]


def _apply(a: Condition, b: Condition, op) -> Condition:
    if a._support == b._support:
        return _reduced(a._support, op(a._mask, b._mask))
    support, (mine, theirs) = _aligned((a, b))
    table = op(mine, theirs)
    if len(support) == len(a._support) + len(b._support):
        # Neither operand is constant here, so a conjunction or
        # disjunction over disjoint supports depends on every variable.
        return _new(support, table)
    return _reduced(support, table)


def _check_variable_count(variables: Sequence[TxnId]) -> None:
    if len(variables) > MAX_TRUTH_TABLE_VARIABLES:
        raise ConditionError(
            f"refusing a truth table over {len(variables)} transactions "
            f"(limit {MAX_TRUTH_TABLE_VARIABLES}); this many "
            "simultaneously in-doubt transactions indicates misuse"
        )


def all_assignments(variables: Sequence[TxnId]) -> Iterator[Dict[TxnId, bool]]:
    """Yield every outcome assignment over *variables*.

    The invariant oracles (:mod:`repro.check.oracles`) enumerate these
    to check that a polyvalue resolves to exactly one simple value under
    any combination of in-doubt outcomes; the size guard applies.
    """
    _check_variable_count(list(variables))
    for values in itertools.product((False, True), repeat=len(variables)):
        yield dict(zip(variables, values))


#: Module-level singletons for the two constant conditions.
TRUE: Condition = _new((), 1)
FALSE: Condition = _new((), 0)


def conditions_are_complete(conditions: Sequence[Condition]) -> bool:
    """True iff, under every assignment, at least one condition holds.

    This is half of the paper's well-formedness requirement for the
    conditions of a polyvalue ("the conditions on the pairs in each
    polyvalue must be complete and disjoint").
    """
    support, tables = _aligned(conditions)
    covered = 0
    for table in tables:
        covered |= table
    return covered == _full(len(support))


def conditions_are_disjoint(conditions: Sequence[Condition]) -> bool:
    """True iff, under every assignment, at most one condition holds."""
    _, tables = _aligned(conditions)
    covered = 0
    for table in tables:
        if covered & table:
            return False
        covered |= table
    return True


def conditions_are_complete_and_disjoint(conditions: Sequence[Condition]) -> bool:
    """The paper's full well-formedness check: exactly one condition holds
    under any assignment of outcomes to transaction identifiers."""
    return conditions_are_disjoint(conditions) and conditions_are_complete(
        conditions
    )
