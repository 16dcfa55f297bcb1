"""repro.live — the wall-clock cluster on top of the Runtime seam.

The same :mod:`repro.txn` state machines the simulator drives, stood up
as a real localhost cluster: length-prefixed JSON protocol frames over
TCP (:mod:`repro.live.wire`), the socket front-end of the shared
:class:`~repro.txn.cluster.Cluster` composition root
(:mod:`repro.live.cluster`), an HTTP/JSON control surface with
``/metrics`` and an ``/events`` stream (:mod:`repro.live.httpapi`, routes
on the package's one HTTP server, :mod:`repro.obs.httpd`) behind
``python -m repro serve``, a
scripted client (:mod:`repro.live.client`) behind
``python -m repro client``, and a declarative JSON transaction DSL
(:mod:`repro.live.txnscript`) since live clients cannot ship Python
lambdas.  See ``docs/runtime.md``.
"""

from repro.live.cluster import ClusterThread, LiveCluster, LiveClusterError
from repro.live.httpapi import HttpApi, run_serve
from repro.live.txnscript import TransactionScriptError, compile_script
from repro.live.wire import (
    WireError,
    decode_envelope,
    decode_message,
    encode_envelope,
    encode_message,
)

__all__ = [
    "ClusterThread",
    "HttpApi",
    "LiveCluster",
    "LiveClusterError",
    "TransactionScriptError",
    "WireError",
    "compile_script",
    "decode_envelope",
    "decode_message",
    "encode_envelope",
    "encode_message",
    "run_serve",
]
