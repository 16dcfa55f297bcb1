"""Wire codec: protocol messages <-> JSON frames for the live transport.

Every commit-protocol message (two-phase, Paxos Commit, path-sensitive)
is a frozen dataclass of JSON-friendly scalars plus three structured
shapes the codec must preserve through JSON's type flattening:

* tuples (``ReadRequest.items``, Paxos participant/acceptor lists, the
  ``(ballot, vote)`` pairs inside ``Phase1b.accepted``) — JSON arrays
  come back as lists, so tuples are tagged ``{"__tuple__": [...]}``;
* mappings (``ReadReply.values``, ``StageRequest.writes``, …) — tagged
  ``{"__map__": {...}}`` so a mapping is never confused with a tagged
  value;
* polyvalues — delegated to :mod:`repro.core.serialize`, the same
  ``{"__polyvalue__": 1, ...}`` encoding the snapshot layer uses.

The message registry is the sites' own message tables: a type no site
handles cannot be encoded, and an unknown type name on decode is a
:class:`WireError`, not an import-by-name gadget.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import fields
from typing import Any, Dict, Tuple, Type

from repro.core.errors import ReproError
from repro.core.polyvalue import is_polyvalue
from repro.core.serialize import decode_value, encode_value
from repro.net.message import Envelope
from repro.runtime.base import compact_json
from repro.txn.pathsensitive import PathSensitiveSite
from repro.txn.paxos import PaxosSite


class WireError(ReproError):
    """A frame could not be encoded or decoded."""


#: Every message type that may cross the live wire, by class name: the
#: union of the site classes' message tables (the base vocabulary plus
#: the Paxos Commit and path-sensitive additions).  Order is
#: presentation-only; lookups are exact-name.
MESSAGE_TYPES: Dict[str, Type] = {
    cls.__name__: cls
    for cls in {**PaxosSite.HANDLERS, **PathSensitiveSite.HANDLERS}
}

#: Each registered class's field names, in declaration order: what
#: :func:`encode_message` reads instead of reflecting on every message.
_FIELD_NAMES: Dict[Type, Tuple[str, ...]] = {
    cls: tuple(spec.name for spec in fields(cls))
    for cls in MESSAGE_TYPES.values()
}
#: Field types that JSON carries as they are.
_SCALARS = frozenset({type(None), bool, int, float, str})

_TUPLE_TAG = "__tuple__"
_MAP_TAG = "__map__"


def _encode_field(value: Any) -> Any:
    if type(value) in _SCALARS:
        return value
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [_encode_field(item) for item in value]}
    if isinstance(value, Mapping):
        return {
            _MAP_TAG: {
                str(key): _encode_field(item) for key, item in value.items()
            }
        }
    if is_polyvalue(value):
        return encode_value(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise WireError(f"cannot encode field value of type {type(value).__name__}")


def _decode_field(value: Any) -> Any:
    if isinstance(value, dict):
        if _TUPLE_TAG in value:
            return tuple(_decode_field(item) for item in value[_TUPLE_TAG])
        if _MAP_TAG in value:
            return {
                key: _decode_field(item)
                for key, item in value[_MAP_TAG].items()
            }
        return decode_value(value)  # polyvalue (or rejects unknown shapes)
    return value


def encode_message(message: Any) -> Dict[str, Any]:
    """One protocol message as a JSON-safe ``{"type", "fields"}`` dict."""
    cls = type(message)
    names = _FIELD_NAMES.get(cls)
    if names is None:
        raise WireError(f"unregistered message type {cls.__name__!r}")
    return {
        "type": cls.__name__,
        "fields": {name: _encode_field(getattr(message, name)) for name in names},
    }


def decode_message(data: Mapping[str, Any]) -> Any:
    """The inverse of :func:`encode_message`."""
    try:
        cls = MESSAGE_TYPES[data["type"]]
    except KeyError:
        raise WireError(f"unknown message type {data.get('type')!r}") from None
    raw = data.get("fields", {})
    try:
        return cls(**{name: _decode_field(value) for name, value in raw.items()})
    except (TypeError, ReproError) as exc:
        raise WireError(f"bad {data['type']} frame: {exc}") from None


def encode_envelope(envelope: Envelope) -> bytes:
    """One in-flight message as UTF-8 JSON bytes (no length prefix)."""
    return compact_json(
        {
            "sender": envelope.sender,
            "recipient": envelope.recipient,
            "sent_at": envelope.sent_at,
            "payload": encode_message(envelope.payload),
        }
    ).encode("utf-8")


def decode_envelope(data: bytes) -> Envelope:
    """The inverse of :func:`encode_envelope`: every field of the
    envelope travels in the frame, so the decoded envelope equals the
    one encoded."""
    try:
        frame = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"undecodable frame: {exc}") from None
    if not isinstance(frame, dict):
        raise WireError(f"frame is not an object: {type(frame).__name__}")
    try:
        return Envelope(
            sender=str(frame["sender"]),
            recipient=str(frame["recipient"]),
            payload=decode_message(frame["payload"]),
            sent_at=float(frame["sent_at"]),
        )
    except KeyError as exc:
        raise WireError(f"frame missing field {exc}") from None


def roundtrip(message: Any) -> Any:
    """Encode then decode *message* (test helper; must be identity)."""
    return decode_message(json.loads(json.dumps(encode_message(message))))
