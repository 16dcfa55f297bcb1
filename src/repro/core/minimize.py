"""Exact two-level covers of truth tables.

A :class:`~repro.core.conditions.Condition` is a truth table over its
support; the paper's sum-of-products form (section 3.1, rule 3) is only
how it is printed and encoded.  :func:`cover` turns a table into a
sum of products:

1. every prime implicant, found by Shannon expansion on the top
   variable: the primes that ignore it are the primes of the two
   cofactors' conjunction, and the others are each cofactor's remaining
   primes with the variable's literal added (sub-tables met twice are
   expanded once);
2. essential primes, then a greedy cover of the rest, over tables
   rather than minterm sets.

The work follows the number of distinct sub-functions and primes, not
the number of minterms, so a wide disjunction such as "any of twenty
transactions" costs a few dozen integer operations per variable.  The
condition algebra caps supports at
:data:`~repro.core.conditions.MAX_TRUTH_TABLE_VARIABLES`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from repro.core.errors import ConditionError

#: An implicant: (values, mask).  Bit i of *mask* set means variable i
#: is defined in the implicant, with polarity given by bit i of
#: *values*; a clear mask bit is a "don't care" variable.
Implicant = Tuple[int, int]


def _primes(
    table: int, width: int, seen: Dict[Tuple[int, int], FrozenSet[Implicant]]
) -> FrozenSet[Implicant]:
    """Every prime implicant of *table* over *width* variables."""
    found = seen.get((table, width))
    if found is None:
        if not table:
            found = frozenset()
        elif table == (1 << (1 << width)) - 1:
            found = frozenset({(0, 0)})
        else:
            # Bit *top* of an implicant is the top variable, and the
            # table's low *top* rows are those where it is false.
            top = 1 << (width - 1)
            low, high = table & ((1 << top) - 1), table >> top
            both = _primes(low & high, width - 1, seen)
            found = (
                both
                | {(v, m | top) for v, m in _primes(low, width - 1, seen) - both}
                | {(v | top, m | top) for v, m in _primes(high, width - 1, seen) - both}
            )
        seen[(table, width)] = found
    return found


def _table(implicant: Implicant, width: int) -> int:
    """The truth table of *implicant* over *width* variables."""
    values, mask = implicant
    table = 1
    for j in range(width):
        if not mask >> j & 1:
            table |= table << (1 << j)
        elif values >> j & 1:
            table <<= 1 << j
    return table


def _ones(table: int) -> int:
    return bin(table).count("1")


def cover(table: int, width: int) -> List[Implicant]:
    """A small set of prime implicants whose union is *table*.

    *table* is a truth table over *width* variables: bit ``i`` is the
    function's value under the assignment whose variable ``j`` is true
    iff bit ``j`` of ``i`` is set.  An empty table has an empty cover.
    """
    primes = sorted(_primes(table, width, {}))
    tables = {prime: _table(prime, width) for prime in primes}
    once = twice = 0
    for prime_table in tables.values():
        twice |= once & prime_table
        once |= prime_table
    unique = once & ~twice
    # Essential primes: those covering a minterm no other prime covers.
    chosen = [prime for prime in primes if tables[prime] & unique]
    uncovered = table
    for prime in chosen:
        uncovered &= ~tables[prime]
    # Greedy for the rest (deterministic tie-break by sorted order).
    while uncovered:
        best = max(
            primes,
            key=lambda prime: (_ones(tables[prime] & uncovered), -prime[1]),
        )
        if not tables[best] & uncovered:
            raise ConditionError("internal error: cover cannot progress")
        chosen.append(best)
        uncovered &= ~tables[best]
    return chosen


def product_count(condition) -> int:
    """The number of products in the condition's printed form."""
    return len(condition.products)


def literal_count(condition) -> int:
    """The total number of literals across all products."""
    return sum(len(product) for product in condition.products)
