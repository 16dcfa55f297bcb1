"""Core of the reproduction: the polyvalue mechanism itself.

This package is deliberately free of any simulation, networking or
storage concerns — it is the pure data-structure and algorithm layer
described in section 3 of the paper:

* :mod:`repro.core.conditions` — predicates over transaction identifiers.
* :mod:`repro.core.polyvalue` — the ``<value, condition>`` pair sets.
* :mod:`repro.core.polytransaction` — alternative-transaction execution.
* :mod:`repro.core.outcome` — per-site outcome tables and the
  coordinator's outcome log.
* :mod:`repro.core.errors` — the library-wide exception hierarchy.

.. deprecated::
    Importing the supported surface (``Condition``, ``Polyvalue``,
    ``combine``, …) from this package emits :class:`DeprecationWarning`;
    import it from :mod:`repro.api` (or the :mod:`repro` top level)
    instead.  The exception hierarchy and the specialist helpers stay
    importable from here without a warning, as do all submodules.
"""

import importlib
import warnings

from repro.core.errors import (
    ConditionError,
    IncompleteConditionsError,
    LockError,
    NetworkError,
    OverlappingConditionsError,
    PolyvalueError,
    ProtocolError,
    ReproError,
    SimulationError,
    SiteDownError,
    TransactionAborted,
    TransactionError,
    TransactionInDoubt,
    UncertainValueError,
    UnknownItemError,
)
from repro.core.minimize import literal_count, product_count
from repro.core.outcome import OutcomeLogEntry
from repro.core.polytransaction import Alternative, TooManyAlternativesError
from repro.core.serialize import (
    SerializationError,
    decode_condition,
    encode_condition,
)

#: Names the :mod:`repro.api` facade replaces, served lazily by
#: :func:`__getattr__` below with a :class:`DeprecationWarning`.
_DEPRECATED = {
    "Condition": ("repro.core.conditions", "Condition"),
    "FALSE": ("repro.core.conditions", "FALSE"),
    "Literal": ("repro.core.conditions", "Literal"),
    "TRUE": ("repro.core.conditions", "TRUE"),
    "TxnId": ("repro.core.conditions", "TxnId"),
    "conditions_are_complete": ("repro.core.conditions", "conditions_are_complete"),
    "conditions_are_complete_and_disjoint": (
        "repro.core.conditions",
        "conditions_are_complete_and_disjoint",
    ),
    "conditions_are_disjoint": ("repro.core.conditions", "conditions_are_disjoint"),
    "parse_condition": ("repro.core.parser", "parse_condition"),
    "OutcomeLog": ("repro.core.outcome", "OutcomeLog"),
    "OutcomeTable": ("repro.core.outcome", "OutcomeTable"),
    "Resolution": ("repro.core.outcome", "Resolution"),
    "PolyContext": ("repro.core.polytransaction", "PolyContext"),
    "PolyTransactionResult": ("repro.core.polytransaction", "PolyTransactionResult"),
    "execute": ("repro.core.polytransaction", "execute"),
    "Polyvalue": ("repro.core.polyvalue", "Polyvalue"),
    "as_pairs": ("repro.core.polyvalue", "as_pairs"),
    "certain": ("repro.core.polyvalue", "certain"),
    "combine": ("repro.core.polyvalue", "combine"),
    "definitely": ("repro.core.polyvalue", "definitely"),
    "depends_on": ("repro.core.polyvalue", "depends_on"),
    "is_polyvalue": ("repro.core.polyvalue", "is_polyvalue"),
    "possible_values": ("repro.core.polyvalue", "possible_values"),
    "possibly": ("repro.core.polyvalue", "possibly"),
    "reduce_value": ("repro.core.polyvalue", "reduce_value"),
    "simplify": ("repro.core.polyvalue", "simplify"),
    "decode_state": ("repro.core.serialize", "decode_state"),
    "decode_value": ("repro.core.serialize", "decode_value"),
    "encode_state": ("repro.core.serialize", "encode_state"),
    "encode_value": ("repro.core.serialize", "encode_value"),
}


def __getattr__(name):
    # PEP 562 shim: resolve deprecated names lazily, and do not cache
    # them on the package, so every deep import keeps warning.
    try:
        module_name, attr = _DEPRECATED[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    warnings.warn(
        f"importing {name!r} from 'repro.core' is deprecated; import it "
        f"from 'repro.api' (stable facade) or {module_name!r}",
        DeprecationWarning,
        stacklevel=2,
    )
    return getattr(importlib.import_module(module_name), attr)


__all__ = [
    "Alternative",
    "Condition",
    "ConditionError",
    "FALSE",
    "IncompleteConditionsError",
    "Literal",
    "LockError",
    "NetworkError",
    "OutcomeLog",
    "OutcomeLogEntry",
    "OutcomeTable",
    "OverlappingConditionsError",
    "PolyContext",
    "PolyTransactionResult",
    "Polyvalue",
    "PolyvalueError",
    "ProtocolError",
    "ReproError",
    "Resolution",
    "SerializationError",
    "SimulationError",
    "SiteDownError",
    "TRUE",
    "TooManyAlternativesError",
    "TransactionAborted",
    "TransactionError",
    "TransactionInDoubt",
    "TxnId",
    "UncertainValueError",
    "UnknownItemError",
    "as_pairs",
    "certain",
    "combine",
    "conditions_are_complete",
    "conditions_are_complete_and_disjoint",
    "conditions_are_disjoint",
    "decode_condition",
    "decode_state",
    "decode_value",
    "definitely",
    "depends_on",
    "encode_condition",
    "encode_state",
    "encode_value",
    "execute",
    "is_polyvalue",
    "literal_count",
    "parse_condition",
    "possible_values",
    "possibly",
    "product_count",
    "reduce_value",
    "simplify",
]
