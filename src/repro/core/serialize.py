"""Serialization of conditions and polyvalues.

A real deployment of the polyvalue mechanism must write polyvalues to
stable storage (they *are* the database state during a failure) and
ship them between sites.  This module provides a stable, versioned,
JSON-compatible encoding:

* conditions encode as their sum-of-products structure;
* polyvalues encode as a list of ``(value, condition)`` pairs;
* plain values pass through untouched, so a whole item store encodes
  with :func:`encode_value` applied per item.

Only JSON-representable simple values (None, bool, int, float, str,
and lists/dicts thereof) round-trip; that covers every value the
simulators and applications use.  Decoding validates structure and
re-runs the usual polyvalue well-formedness checks, so a corrupted
blob cannot produce an inconsistent polyvalue.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Dict, List

from repro.core.conditions import Condition, Literal
from repro.core.errors import PolyvalueError
from repro.core.polyvalue import Polyvalue, Value, is_polyvalue

#: Format tag stored in every encoded polyvalue, for forward evolution.
FORMAT_VERSION = 1

#: The dict key marking an encoded polyvalue.  Chosen to be invalid as
#: a plain string value key in application data by convention.
_POLY_MARKER = "__polyvalue__"
_CONDITION_MARKER = "__condition__"


class SerializationError(PolyvalueError):
    """The blob is not a valid encoding."""


# ----------------------------------------------------------------------
# Conditions
# ----------------------------------------------------------------------


def encode_condition(condition: Condition) -> Dict[str, Any]:
    """Encode a condition as its sum-of-products structure."""
    products: List[List[Dict[str, Any]]] = []
    for product in sorted(
        condition.products, key=lambda p: sorted(str(l) for l in p)
    ):
        products.append(
            [
                {"txn": literal.txn, "positive": literal.positive}
                for literal in sorted(product)
            ]
        )
    return {_CONDITION_MARKER: FORMAT_VERSION, "products": products}


def decode_condition(blob: Mapping[str, Any]) -> Condition:
    """Decode :func:`encode_condition` output (validating structure)."""
    if not isinstance(blob, Mapping) or _CONDITION_MARKER not in blob:
        raise SerializationError(f"not an encoded condition: {blob!r}")
    if blob[_CONDITION_MARKER] != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported condition format version {blob[_CONDITION_MARKER]!r}"
        )
    products_blob = blob.get("products")
    if not isinstance(products_blob, list):
        raise SerializationError("condition blob missing 'products' list")
    products = []
    for product_blob in products_blob:
        if not isinstance(product_blob, list):
            raise SerializationError(f"bad product: {product_blob!r}")
        literals = []
        for literal_blob in product_blob:
            try:
                txn = literal_blob["txn"]
                positive = literal_blob["positive"]
            except (TypeError, KeyError) as error:
                raise SerializationError(
                    f"bad literal: {literal_blob!r}"
                ) from error
            if not isinstance(txn, str) or not isinstance(positive, bool):
                raise SerializationError(f"bad literal: {literal_blob!r}")
            literals.append(Literal(txn, positive))
        products.append(literals)
    return Condition(products)


# ----------------------------------------------------------------------
# Values (simple or polyvalue)
# ----------------------------------------------------------------------

_JSON_SIMPLE = (type(None), bool, int, float, str)


def _check_simple(value: Any) -> None:
    if isinstance(value, _JSON_SIMPLE):
        return
    if isinstance(value, list):
        for element in value:
            _check_simple(element)
        return
    if isinstance(value, dict):
        for key, element in value.items():
            if not isinstance(key, str):
                raise SerializationError(
                    f"dict keys must be strings, got {key!r}"
                )
            if key in (_POLY_MARKER, _CONDITION_MARKER):
                raise SerializationError(
                    f"application data may not use reserved key {key!r}"
                )
            _check_simple(element)
        return
    raise SerializationError(
        f"value of type {type(value).__name__} is not JSON-serializable"
    )


def encode_value(value: Value) -> Any:
    """Encode a simple value or polyvalue for JSON storage/transport."""
    if is_polyvalue(value):
        pairs = []
        for pair_value, condition in value.pairs:
            _check_simple(pair_value)
            pairs.append(
                {"value": pair_value, "condition": encode_condition(condition)}
            )
        return {_POLY_MARKER: FORMAT_VERSION, "pairs": pairs}
    _check_simple(value)
    return value


def decode_value(blob: Any) -> Value:
    """Decode :func:`encode_value` output.

    Polyvalue well-formedness (complete and disjoint conditions) is
    re-validated, so corrupted or hand-crafted blobs fail loudly.
    """
    if isinstance(blob, Mapping) and _POLY_MARKER in blob:
        if blob[_POLY_MARKER] != FORMAT_VERSION:
            raise SerializationError(
                f"unsupported polyvalue format version {blob[_POLY_MARKER]!r}"
            )
        pairs_blob = blob.get("pairs")
        if not isinstance(pairs_blob, list) or not pairs_blob:
            raise SerializationError("polyvalue blob missing 'pairs'")
        pairs = []
        for pair_blob in pairs_blob:
            if not isinstance(pair_blob, Mapping) or "value" not in pair_blob:
                raise SerializationError(f"bad pair: {pair_blob!r}")
            condition = decode_condition(pair_blob.get("condition"))
            pairs.append((pair_blob["value"], condition))
        return Polyvalue(pairs).collapse()
    if isinstance(blob, Mapping) and _CONDITION_MARKER in blob:
        raise SerializationError(
            "found a bare condition where a value was expected"
        )
    return blob


# ----------------------------------------------------------------------
# Whole stores
# ----------------------------------------------------------------------


def encode_state(state: Mapping[str, Value]) -> Dict[str, Any]:
    """Encode a full item→value mapping (e.g. a site's store)."""
    return {item: encode_value(value) for item, value in state.items()}


def decode_state(blob: Mapping[str, Any]) -> Dict[str, Value]:
    """Decode :func:`encode_state` output."""
    if not isinstance(blob, Mapping):
        raise SerializationError(f"state blob must be a mapping, got {blob!r}")
    return {item: decode_value(value) for item, value in blob.items()}
