"""Per-site item storage.

Each site of the distributed database stores a disjoint set of items
("each item is stored at one of the sites", section 3).  The store maps
item identifiers to current values, where a value is either a simple
Python value or a :class:`~repro.core.polyvalue.Polyvalue`.

The store knows nothing about transactions or the network; installing
and discarding staged updates is the participant's job
(:mod:`repro.txn.participant`).  It does track polyvalue bookkeeping
counters because "number of items with polyvalues" is the paper's
central metric, and it keeps the JSON encoding of its values, so a
durable snapshot re-encodes only the items written since the last one.
Once a logging runtime asks (:attr:`ItemStore.marks`), it also marks
every item it writes, so a log record renders only those.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Mapping
from typing import Optional, Set

from repro.core.errors import UnknownItemError
from repro.core.polyvalue import Value, is_polyvalue
from repro.core.serialize import encode_value

ItemId = str


class ItemStore:
    """The current values of the items one site is responsible for."""

    def __init__(self, initial: Mapping[ItemId, Value] = ()) -> None:
        self._values: Dict[ItemId, Value] = dict(initial)
        #: ``encode_value`` of every item, in store order; built by the
        #: first :meth:`encoded_values` call.
        self._encoded: Optional[Dict[ItemId, Any]] = None
        #: Items created or written since :meth:`encoded_values` last
        #: encoded them.
        self._stale: Set[ItemId] = set(self._values)
        #: Items created or written since the site's last log record;
        #: None until a logging runtime asks for marks.
        self.marks: Optional[Set[ItemId]] = None
        #: Lifetime counters, consumed by the metrics layer.
        self.polyvalues_installed = 0
        self.polyvalues_resolved = 0

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def read(self, item: ItemId) -> Value:
        """The current value of *item* (simple or polyvalue)."""
        try:
            return self._values[item]
        except KeyError:
            raise UnknownItemError(f"item {item!r} is not stored here") from None

    def contains(self, item: ItemId) -> bool:
        """True iff this store holds *item*."""
        return item in self._values

    def snapshot(self, items) -> Dict[ItemId, Value]:
        """The current values of several items at once."""
        return {item: self.read(item) for item in items}

    def items(self) -> FrozenSet[ItemId]:
        """Every item identifier stored here."""
        return frozenset(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[ItemId]:
        return iter(self._values)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def create(self, item: ItemId, value: Value) -> None:
        """Add a new item (used only during database setup)."""
        if item in self._values:
            raise UnknownItemError(f"item {item!r} already exists")
        self._values[item] = value
        self._stale.add(item)
        if self.marks is not None:
            self.marks.add(item)
        if self._encoded is not None:
            self._encoded[item] = None  # holds the item's place in store order

    def write(self, item: ItemId, value: Value) -> None:
        """Overwrite *item* with *value*, maintaining polyvalue counters."""
        if item not in self._values:
            raise UnknownItemError(f"item {item!r} is not stored here")
        was_poly = is_polyvalue(self._values[item])
        now_poly = is_polyvalue(value)
        if now_poly and not was_poly:
            self.polyvalues_installed += 1
        elif was_poly and not now_poly:
            self.polyvalues_resolved += 1
        self._values[item] = value
        self._stale.add(item)
        if self.marks is not None:
            self.marks.add(item)

    # ------------------------------------------------------------------
    # Polyvalue accounting
    # ------------------------------------------------------------------

    def polyvalued_items(self) -> List[ItemId]:
        """The items currently holding polyvalues, in stable order."""
        return sorted(
            item for item, value in self._values.items() if is_polyvalue(value)
        )

    def polyvalue_count(self) -> int:
        """How many items currently hold polyvalues (the paper's ``P``)."""
        return sum(1 for value in self._values.values() if is_polyvalue(value))

    def all_values(self) -> Dict[ItemId, Value]:
        """A copy of the full item→value mapping (what
        ``Cluster.database_state`` merges, and what tests assert on)."""
        return dict(self._values)

    def encoded_values(self) -> Dict[ItemId, Any]:
        """``encode_state(self.all_values())``, re-encoding only the items
        created or written since the last call.

        Stale items are encoded in sorted order, so a value that is not
        JSON-serialisable raises :class:`SerializationError` naming the
        same item on every run, and keeps raising on every call until the
        item is overwritten.  The result is a fresh dict: a caller that
        keeps it to diff against a later one (the asyncio runtime's site
        log) must not see it change.
        """
        encoded = self._encoded
        if encoded is None:
            encoded = self._encoded = dict.fromkeys(self._values)
        for item in sorted(self._stale):
            encoded[item] = encode_value(self._values[item])
        self._stale.clear()
        return dict(encoded)

    def encoded(self, items: Iterable[ItemId]) -> Dict[ItemId, Any]:
        """The :meth:`encoded_values` entries of *items* alone, encoded
        in the order given."""
        values = self._values
        return {item: encode_value(values[item]) for item in items}
