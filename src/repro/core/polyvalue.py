"""The polyvalue data structure (section 3 of the paper).

A *polyvalue* is "a set of pairs ``<v, c>``, where ``v`` is a simple
value, and ``c`` is a condition which is a predicate" over transaction
identifiers.  It is the bookkeeping tool that lets a database item carry
several potential current values while the outcome of one or more
transactions is unknown due to failures.

The conditions of a polyvalue must be *complete* and *disjoint*: one and
only one of them is true under any assignment of outcomes to the
in-doubt transactions.  The constructor enforces this with a few
integer operations over the conditions' truth tables; ``validate=False``
exists only so the harness and tests can build malformed polyvalues.

Construction applies the three simplification rules of section 3.1:

1. *Flattening* — a pair whose value is itself a polyvalue
   ``{<v_i, c_i>}`` expands to the pairs ``<v_i, c_i & c>``, eliminating
   nesting (which occurs when polyvalues are updated with polyvalues).
2. *Merging* — two pairs with equal values combine into one pair whose
   condition is the disjunction of the two conditions.
3. *Sum-of-products reduction* — conditions are exact truth tables
   (:class:`~repro.core.conditions.Condition` keeps them canonical and
   prints them as a sum of prime implicants), and pairs with logically
   false conditions are discarded.

The module also provides the lifted-function helpers that
polytransactions are built from: :func:`combine` applies an ordinary
function across polyvalued operands, and :func:`definitely` /
:func:`possibly` answer modal queries ("would *every* alternative grant
this reservation?") that section 5's applications rely on.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Sequence,
    Tuple,
    Union,
)

from repro.core.conditions import (
    Condition,
    TxnId,
    conditions_are_complete,
    conditions_are_disjoint,
)
from repro.core.errors import (
    IncompleteConditionsError,
    OverlappingConditionsError,
    PolyvalueError,
    UncertainValueError,
)

#: A database item's value is either a simple (plain Python) value or a
#: :class:`Polyvalue`.
Value = Any
Pair = Tuple[Value, Condition]


class Polyvalue:
    """An immutable set of ``<value, condition>`` pairs.

    Parameters
    ----------
    pairs:
        An iterable of ``(value, condition)`` tuples.  Values may
        themselves be polyvalues; they are flattened (rule 1).
    validate:
        When true (the default), check that the conditions are complete
        and disjoint and raise
        :class:`~repro.core.errors.IncompleteConditionsError` /
        :class:`~repro.core.errors.OverlappingConditionsError` otherwise.

    Notes
    -----
    A polyvalue that simplifies to a single pair is still a
    :class:`Polyvalue` (its condition is a tautology by completeness);
    use :meth:`collapse` to obtain the plain value in that case, or the
    module-level :func:`simplify` which collapses automatically.
    """

    __slots__ = ("_pairs", "_depends")

    def __init__(self, pairs: Iterable[Pair], *, validate: bool = True) -> None:
        self._depends: Any = None  # lazily computed by depends_on()
        flattened = _flatten(pairs)
        merged = _merge_equal_values(flattened)
        live = [(v, c) for v, c in merged if not c.is_false()]
        if not live:
            raise PolyvalueError(
                "polyvalue has no satisfiable pair; at least one condition "
                "must be satisfiable"
            )
        if validate:
            conditions = [c for _, c in live]
            if not conditions_are_disjoint(conditions):
                raise OverlappingConditionsError(
                    f"polyvalue conditions overlap: {conditions}"
                )
            if not conditions_are_complete(conditions):
                raise IncompleteConditionsError(
                    f"polyvalue conditions are not complete: {conditions}"
                )
        live.sort(key=lambda pair: str(pair[1]))
        self._pairs: Tuple[Pair, ...] = tuple(live)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def in_doubt(txn: TxnId, new_value: Value, old_value: Value) -> Union["Polyvalue", Value]:
        """Build the polyvalue installed when *txn*'s outcome is unknown.

        Section 3.1: "Each such polyvalue is constructed as
        ``{<v, T>, <v', ~T>}``, where ``v`` is the new value computed by
        the transaction, ``v'`` is the previous value, and ``T`` is a
        transaction identifier for the transaction."

        Either value may itself be a polyvalue; simplification applies.
        If new and old simplify to the same value the result is that
        plain value (no uncertainty is introduced).
        """
        return Polyvalue(
            [
                (new_value, Condition.of(txn)),
                (old_value, Condition.not_of(txn)),
            ]
        ).collapse()

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def pairs(self) -> Tuple[Pair, ...]:
        """The simplified ``(value, condition)`` pairs, in stable order."""
        return self._pairs

    def possible_values(self) -> List[Value]:
        """The distinct values this polyvalue may resolve to."""
        return [value for value, _ in self._pairs]

    def depends_on(self) -> FrozenSet[TxnId]:
        """The transaction identifiers whose outcomes this polyvalue awaits.

        This is the "tag" set that each site's outcome table tracks
        (section 3.3).
        """
        depends = self._depends
        if depends is None:
            ids: set = set()
            for _, condition in self._pairs:
                ids |= condition.variables()
            depends = frozenset(ids)
            self._depends = depends
        return depends

    def is_certain(self) -> bool:
        """True iff only one value remains possible."""
        return len(self._pairs) == 1

    def certain_value(self) -> Value:
        """The single possible value.

        Raises
        ------
        UncertainValueError
            If more than one value is still possible.
        """
        if not self.is_certain():
            raise UncertainValueError(
                f"value is uncertain; possibilities: {self.possible_values()!r}"
            )
        return self._pairs[0][0]

    def collapse(self) -> Union["Polyvalue", Value]:
        """Return the plain value when certain, else ``self``."""
        if self.is_certain():
            return self._pairs[0][0]
        return self

    def well_formedness_problems(self) -> List[str]:
        """Every way this polyvalue violates the section 3 requirements.

        An empty list means the polyvalue is well formed.  This is the
        oracle-facing view used by :mod:`repro.check.oracles`: unlike
        the constructor (which raises on the first problem and can be
        bypassed with ``validate=False``), this method reports *all*
        problems, so a protocol bug that installs a malformed polyvalue
        is described rather than masked:

        * a pair's value is itself a polyvalue (rule 1 not applied);
        * two pairs hold equal values (rule 2 not applied);
        * a pair's condition is unsatisfiable (rule 3 not applied);
        * the condition set is not complete, or not disjoint.
        """
        problems: List[str] = []
        for index, (value, condition) in enumerate(self._pairs):
            if isinstance(value, Polyvalue):
                problems.append(f"pair {index} holds a nested polyvalue")
            if condition.is_false():
                problems.append(f"pair {index} has an unsatisfiable condition")
        for index, (value, _) in enumerate(self._pairs):
            for other_index in range(index + 1, len(self._pairs)):
                if _values_equal(value, self._pairs[other_index][0]):
                    problems.append(
                        f"pairs {index} and {other_index} hold equal "
                        f"values ({value!r}) and should be merged"
                    )
        conditions = [condition for _, condition in self._pairs]
        if not conditions_are_disjoint(conditions):
            problems.append(
                f"conditions overlap (two alternatives can hold at once): "
                f"{[str(c) for c in conditions]}"
            )
        if not conditions_are_complete(conditions):
            problems.append(
                f"conditions are incomplete (some outcome selects no "
                f"value): {[str(c) for c in conditions]}"
            )
        return problems

    def value_under(self, assignment: Mapping[TxnId, bool]) -> Value:
        """The value this polyvalue takes under a complete outcome assignment."""
        for value, condition in self._pairs:
            if condition.evaluate(assignment):
                return value
        raise PolyvalueError(
            f"no condition satisfied by {dict(assignment)!r}; polyvalue "
            "conditions were not complete"
        )

    # ------------------------------------------------------------------
    # Reduction (failure recovery, section 3.3)
    # ------------------------------------------------------------------

    def reduce(self, outcomes: Mapping[TxnId, bool]) -> Union["Polyvalue", Value]:
        """Substitute known transaction *outcomes* and simplify.

        "The value of the transaction identifier for such a transaction
        can be replaced by true or false in the predicates in the
        polyvalues ... when the outcome of every transaction is known, a
        single value pair will be left in each polyvalue, eliminating
        all uncertainty."  Returns a plain value when only one pair
        survives.
        """
        if len(self._pairs) > 1 and not any(
            txn in outcomes for txn in self.depends_on()
        ):
            # None of the known outcomes mention a transaction this
            # polyvalue awaits; substitution would be an identity map.
            # Only the polyvalue's own dependencies are probed: the
            # site's outcome map grows with every transaction ever run.
            return self
        reduced = [
            (value, condition.substitute(outcomes))
            for value, condition in self._pairs
        ]
        live = [(v, c) for v, c in reduced if not c.is_false()]
        if not live:
            raise PolyvalueError(
                f"outcomes {dict(outcomes)!r} falsify every condition of "
                f"{self!r}; the polyvalue was malformed"
            )
        return Polyvalue(live).collapse()

    # ------------------------------------------------------------------
    # Lifted application
    # ------------------------------------------------------------------

    def map(self, fn: Callable[[Value], Value]) -> Union["Polyvalue", Value]:
        """Apply *fn* to every possible value, keeping the conditions.

        If *fn* maps all possibilities to one value the result collapses
        to that plain value — this is how "any transaction whose outputs
        do not depend on the exact correct value of a polyvalued input
        produces simple values" (section 3.2).
        """
        return Polyvalue(
            [(fn(value), condition) for value, condition in self._pairs]
        ).collapse()

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polyvalue):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self) -> int:
        # Hash only the conditions: equal polyvalues have identical
        # (sorted) condition tuples, so the hash/eq contract holds even
        # for values whose repr is unstable (dicts) or that are
        # unhashable.  Collisions between different polyvalues with the
        # same conditions are resolved by __eq__.
        return hash(tuple(condition for _, condition in self._pairs))

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self):
        return iter(self._pairs)

    def __str__(self) -> str:
        rendered = ", ".join(
            f"<{value!r}, {condition}>" for value, condition in self._pairs
        )
        return "{" + rendered + "}"

    def __repr__(self) -> str:
        return f"Polyvalue({str(self)})"


# ----------------------------------------------------------------------
# Module-level helpers over "value or polyvalue"
# ----------------------------------------------------------------------


def is_polyvalue(value: Value) -> bool:
    """True iff *value* is a :class:`Polyvalue` (i.e. is uncertain)."""
    return isinstance(value, Polyvalue)


def as_pairs(value: Value) -> Tuple[Pair, ...]:
    """View any value as ``(value, condition)`` pairs.

    A simple value becomes the single pair ``<value, TRUE>``.
    """
    if isinstance(value, Polyvalue):
        return value.pairs
    return ((value, Condition.true()),)


def simplify(value: Value) -> Value:
    """Normalise: collapse a certain polyvalue to its plain value."""
    if isinstance(value, Polyvalue):
        return value.collapse()
    return value


def depends_on(value: Value) -> FrozenSet[TxnId]:
    """The in-doubt transactions *value* depends on (empty for simple values)."""
    if isinstance(value, Polyvalue):
        return value.depends_on()
    return frozenset()


def reduce_value(value: Value, outcomes: Mapping[TxnId, bool]) -> Value:
    """Apply outcome substitution to *value* if it is a polyvalue."""
    if isinstance(value, Polyvalue):
        return value.reduce(outcomes)
    return value


def combine(fn: Callable[..., Value], *operands: Value) -> Value:
    """Lift an ordinary function over possibly-polyvalued operands.

    Forms the cartesian product of the operands' alternatives, AND-ing
    conditions and pruning logically false combinations (the section 3.2
    efficiency rule), applies *fn* to each surviving combination, and
    simplifies.  Returns a plain value whenever the result does not
    actually depend on the uncertainty.

    >>> from repro.core.conditions import Condition
    >>> balance = Polyvalue([(100, Condition.of("T1")), (150, Condition.not_of("T1"))])
    >>> combine(lambda b: b >= 50, balance)
    True
    """
    if not any(isinstance(operand, Polyvalue) for operand in operands):
        # All operands are simple: no conditions to thread through, the
        # lifted application is just the application.
        return simplify(fn(*operands))
    alternatives: List[Tuple[Condition, Tuple[Value, ...]]] = [
        (Condition.true(), ())
    ]
    for operand in operands:
        expanded: List[Tuple[Condition, Tuple[Value, ...]]] = []
        for condition, values in alternatives:
            for value, value_condition in as_pairs(operand):
                joint = condition & value_condition
                if joint.is_false():
                    continue
                expanded.append((joint, values + (value,)))
        alternatives = expanded
    if not alternatives:
        raise PolyvalueError(
            "no consistent combination of operand alternatives; operands "
            "carry contradictory conditions"
        )
    pairs = [(fn(*values), condition) for condition, values in alternatives]
    return Polyvalue(pairs).collapse()


def possible_values(value: Value) -> List[Value]:
    """All values *value* might resolve to (a one-element list if simple)."""
    if isinstance(value, Polyvalue):
        return value.possible_values()
    return [value]


def definitely(predicate: Callable[[Value], bool], value: Value) -> bool:
    """True iff *predicate* holds for **every** possible value.

    This is the modal query behind section 5's reservation example: "a
    new reservation can be granted so long as the largest value in that
    polyvalue is less than the number of available rooms or seats" — i.e.
    ``definitely(lambda sold: sold < capacity, sold_count)``.
    """
    return all(predicate(v) for v in possible_values(value))


def possibly(predicate: Callable[[Value], bool], value: Value) -> bool:
    """True iff *predicate* holds for **at least one** possible value."""
    return any(predicate(v) for v in possible_values(value))


def certain(value: Value) -> Value:
    """Demand a simple value; raise :class:`UncertainValueError` otherwise.

    This implements the "withhold those outputs until the uncertainty is
    resolved" option of section 3.4 at the API level: callers that need a
    definite answer call :func:`certain` and handle the exception by
    waiting for recovery.
    """
    if isinstance(value, Polyvalue):
        return value.certain_value()
    return value


# ----------------------------------------------------------------------
# Flattening / merging internals (section 3.1 rules 1 and 2)
# ----------------------------------------------------------------------


def _flatten(pairs: Iterable[Pair]) -> List[Pair]:
    """Rule 1: expand pairs whose value is itself a polyvalue."""
    flat: List[Pair] = []
    for value, condition in pairs:
        if not isinstance(condition, Condition):
            raise PolyvalueError(
                f"pair condition must be a Condition, got {condition!r}"
            )
        if isinstance(value, Polyvalue):
            for inner_value, inner_condition in value.pairs:
                flat.append((inner_value, inner_condition & condition))
        else:
            flat.append((value, condition))
    return flat


def _values_equal(a: Value, b: Value) -> bool:
    """Equality that never merges across types like ``True == 1``.

    Values in a database can legitimately mix types; bool/int (and
    0.0/0) coincidences must not cause two semantically different
    alternatives to merge.
    """
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    try:
        return bool(a == b)
    except Exception:
        return a is b


def _merge_equal_values(pairs: Sequence[Pair]) -> List[Pair]:
    """Rule 2: combine pairs with equal values by OR-ing their conditions."""
    merged: List[Pair] = []
    for value, condition in pairs:
        for index, (existing_value, existing_condition) in enumerate(merged):
            if _values_equal(existing_value, value):
                merged[index] = (existing_value, existing_condition | condition)
                break
        else:
            merged.append((value, condition))
    return merged
