"""Storage and processing cost of the polyvalue mechanism (section 4).

The paper's conclusion rests on a cost argument: "Analysis and
simulation have shown that the extra storage and processing required to
support this mechanism are small, given reasonable failure rates and
repair times."  This module quantifies both halves of that sentence for
a running :class:`~repro.txn.system.DistributedSystem`:

* **storage** — :func:`measure_storage` walks every site's store and
  reports, for each polyvalued item, the number of ``<value,
  condition>`` pairs, the number of condition literals, and the
  serialized size of the polyvalue relative to a plain value; plus the
  size of the section 3.3 bookkeeping (outcome-table entries).
* **processing** — :func:`measure_processing` reads the metrics: what
  fraction of transactions ran as polytransactions, and how many
  alternative executions each one cost (the §3.2 fan-out).
* **prediction** — :func:`predicted_storage_fraction` combines the
  analytic steady state ``P`` with a per-polyvalue size factor to give
  the expected steady-state storage overhead as a fraction of the
  database — the number the paper's conclusion implicitly computes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.model import ModelParams, steady_state_polyvalues
from repro.core.polyvalue import Polyvalue, is_polyvalue
from repro.core.serialize import encode_value


@dataclass(frozen=True)
class PolyvalueSize:
    """The footprint of one polyvalued item."""

    item: str
    pairs: int
    literals: int
    depends_on: int
    encoded_bytes: int
    plain_bytes: int

    @property
    def expansion_factor(self) -> float:
        """Serialized polyvalue size over a plain value's size."""
        return self.encoded_bytes / max(1, self.plain_bytes)


@dataclass
class StorageReport:
    """Aggregate storage cost of the uncertainty currently in a system."""

    total_items: int
    polyvalued_items: int
    sizes: List[PolyvalueSize] = field(default_factory=list)
    outcome_table_entries: int = 0

    @property
    def polyvalue_fraction(self) -> float:
        """Fraction of items currently holding polyvalues (P/I)."""
        return self.polyvalued_items / self.total_items if self.total_items else 0.0

    @property
    def mean_pairs(self) -> Optional[float]:
        """Average pairs per polyvalue (2 when no propagation compounds)."""
        if not self.sizes:
            return None
        return sum(size.pairs for size in self.sizes) / len(self.sizes)

    @property
    def max_pairs(self) -> int:
        """The largest polyvalue in the database."""
        return max((size.pairs for size in self.sizes), default=0)

    @property
    def extra_bytes(self) -> int:
        """Serialized bytes beyond what plain values would need."""
        return sum(
            size.encoded_bytes - size.plain_bytes for size in self.sizes
        )


def _measure_one(item: str, value: Polyvalue) -> PolyvalueSize:
    literals = sum(
        len(product)
        for _, condition in value.pairs
        for product in condition.products
    )
    encoded = len(json.dumps(encode_value(value)))
    # The plain-value baseline: the largest single possibility (what the
    # item would store once resolved).
    plain = max(
        len(json.dumps(encode_value(possibility)))
        for possibility in value.possible_values()
    )
    return PolyvalueSize(
        item=item,
        pairs=len(value),
        literals=literals,
        depends_on=len(value.depends_on()),
        encoded_bytes=encoded,
        plain_bytes=plain,
    )


def measure_storage(system) -> StorageReport:
    """Walk every site of *system* and report the storage footprint."""
    report = StorageReport(total_items=0, polyvalued_items=0)
    for site in system.sites.values():
        store = site.runtime.store
        report.total_items += len(store)
        for item in store.polyvalued_items():
            value = store.read(item)
            if is_polyvalue(value):
                report.polyvalued_items += 1
                report.sizes.append(_measure_one(item, value))
        report.outcome_table_entries += len(site.runtime.outcomes)
    return report


@dataclass(frozen=True)
class ProcessingReport:
    """Aggregate processing cost from a system's metrics."""

    transactions_decided: int
    polytransactions: int
    total_fanout: int
    max_fanout: int

    @property
    def polytransaction_fraction(self) -> float:
        """Fraction of transactions that ran against uncertain inputs."""
        if not self.transactions_decided:
            return 0.0
        return self.polytransactions / self.transactions_decided

    @property
    def mean_fanout(self) -> Optional[float]:
        """Mean alternatives per polytransaction (1 = no extra work)."""
        if not self.polytransactions:
            return None
        return self.total_fanout / self.polytransactions

    @property
    def extra_executions(self) -> int:
        """Alternative executions beyond the one every txn needs anyway."""
        return max(0, self.total_fanout - self.polytransactions)


def measure_processing(system) -> ProcessingReport:
    """Summarise the polytransaction fan-out cost of a run."""
    metrics = system.metrics
    return ProcessingReport(
        transactions_decided=metrics.committed + metrics.aborted,
        polytransactions=metrics.polytransactions,
        total_fanout=metrics.polytransaction_fanout_total,
        max_fanout=metrics.polytransaction_fanout_max,
    )


def predicted_storage_fraction(
    params: ModelParams, *, pairs_per_polyvalue: float = 2.0
) -> float:
    """Expected steady-state storage overhead as a fraction of the DB.

    Each polyvalued item stores ``pairs_per_polyvalue`` values instead
    of one, so the extra storage is ``P * (pairs - 1)`` item-values out
    of ``I``.  For the paper's typical database (Table 1 row 1) this is
    about 10^-6 — the quantitative content of "the extra storage ...
    [is] small".
    """
    steady = steady_state_polyvalues(params)
    return steady * (pairs_per_polyvalue - 1.0) / params.items
