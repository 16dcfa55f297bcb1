"""Wire codec and transaction-script DSL for the live cluster."""

from __future__ import annotations

import json

import pytest

from repro.core.conditions import Condition
from repro.core.polytransaction import execute
from repro.core.polyvalue import Polyvalue, is_polyvalue
from repro.live.txnscript import (
    TransactionScriptError,
    compile_script,
    validate_script,
)
from repro.live.wire import (
    MESSAGE_TYPES,
    WireError,
    decode_envelope,
    encode_envelope,
    encode_message,
    roundtrip,
)
from repro.net.message import Envelope
from repro.txn import protocol
from repro.txn.paxos import PaxosStage, Phase1b, Phase2a
from repro.txn.pathsensitive import LocalApply


class TestWireRoundtrip:
    def test_every_protocol_message_type_is_registered(self):
        assert "StageRequest" in MESSAGE_TYPES
        assert "Phase2b" in MESSAGE_TYPES
        assert len(MESSAGE_TYPES) == 18

    @pytest.mark.parametrize(
        "message",
        [
            protocol.ReadRequest(txn="T1@s", items=("a", "b")),
            protocol.ReadReply(
                txn="T1@s", site="s1", ok=True, values={"a": 3}, reason=""
            ),
            protocol.StageRequest(
                txn="T1@s", coordinator="s0", writes={"a": 4}
            ),
            protocol.Ready(txn="T1@s", site="s1"),
            protocol.Refuse(txn="T1@s", site="s1", reason="lock"),
            protocol.Complete(txn="T1@s"),
            protocol.Abort(txn="T1@s"),
            protocol.OutcomeQuery(txn="T1@s", requester="s2"),
            protocol.OutcomeNotify(txn="T1@s", committed=True, origin="s0"),
            protocol.OutcomeAck(txn="T1@s", site="s2"),
            PaxosStage(
                txn="T1@s",
                coordinator="s0",
                writes={"a": 4},
                participants=("s0", "s1"),
                acceptors=("s0", "s1", "s2"),
                leader="s0",
            ),
            Phase1b(
                txn="T1@s",
                ballot=3,
                acceptor="s2",
                accepted={"s1": (2, "yes")},
            ),
            Phase2a(
                txn="T1@s", instance="s1", ballot=0, vote="yes", leader="s0"
            ),
            LocalApply(txn="T1@s", item="a", delta=2, origin="s0"),
        ],
        ids=lambda m: type(m).__name__,
    )
    def test_message_survives_json(self, message):
        assert roundtrip(message) == message

    def in_doubt(self, new, old, txn="T9@s0"):
        return Polyvalue(
            [(new, Condition.of(txn)), (old, Condition.not_of(txn))]
        )

    def test_polyvalue_payload_survives_json(self):
        poly = self.in_doubt(7, 5)
        reply = protocol.ReadReply(
            txn="T1@s", site="s1", ok=True, values={"a": poly}, reason=""
        )
        back = roundtrip(reply)
        value = back.values["a"]
        assert is_polyvalue(value)
        assert value == poly

    def test_envelope_roundtrip(self):
        envelope = Envelope(
            sender="s0",
            recipient="s1",
            payload=protocol.Complete(txn="T1@s0"),
            sent_at=1.25,
        )
        back = decode_envelope(encode_envelope(envelope))
        assert (back.sender, back.recipient, back.sent_at) == ("s0", "s1", 1.25)
        assert back.payload == envelope.payload
        assert back == envelope

    def test_unregistered_type_rejected_on_encode(self):
        with pytest.raises(WireError):
            encode_message(object())

    def test_unknown_type_rejected_on_decode(self):
        from repro.live.wire import decode_message

        with pytest.raises(WireError):
            decode_message({"type": "EvilType", "fields": {}})

    def test_garbage_frame_rejected(self):
        with pytest.raises(WireError):
            decode_envelope(b"\xff\x00 not json")

    def test_tuples_and_mappings_keep_their_types(self):
        request = protocol.ReadRequest(txn="T1@s", items=("a",))
        back = roundtrip(request)
        assert isinstance(back.items, tuple)
        accepted = roundtrip(
            Phase1b(txn="T", ballot=1, acceptor="s", accepted={"x": (1, "no")})
        ).accepted
        assert isinstance(accepted["x"], tuple)


class TestTransactionScripts:
    def transfer(self):
        return {
            "label": "transfer",
            "items": ["a", "b"],
            "ops": [
                {"write": "a", "expr": ["-", ["read", "a"], 4]},
                {"write": "b", "expr": ["+", ["read", "b"], 4]},
            ],
        }

    def test_compiles_to_a_transaction(self):
        txn = compile_script(self.transfer())
        assert txn.items == ("a", "b")
        assert txn.label == "transfer"
        result = execute(txn.body, {"a": 10, "b": 1})
        assert result.merged_writes({}) == {"a": 6, "b": 5}

    def test_reads_observe_the_snapshot_and_last_write_wins(self):
        script = {
            "items": ["a"],
            "ops": [
                {"write": "a", "expr": ["+", ["read", "a"], 1]},
                {"write": "a", "expr": ["*", ["read", "a"], 10]},
            ],
        }
        result = execute(compile_script(script).body, {"a": 2})
        assert result.merged_writes({}) == {"a": 20}

    def test_min_max_and_const(self):
        script = {
            "items": ["a"],
            "ops": [
                {
                    "write": "a",
                    "expr": ["max", ["read", "a"], ["const", 50], 10],
                }
            ],
        }
        result = execute(compile_script(script).body, {"a": 3})
        assert result.merged_writes({}) == {"a": 50}

    def test_polyvalued_read_forks_the_script(self):
        script = {
            "items": ["a", "b"],
            "ops": [{"write": "b", "expr": ["+", ["read", "a"], 1]}],
        }
        poly = Polyvalue(
            [(10, Condition.of("T9@s0")), (20, Condition.not_of("T9@s0"))]
        )
        result = execute(compile_script(script).body, {"a": poly, "b": 0})
        assert is_polyvalue(result.merged_writes({"b": 0})["b"])

    def test_scripts_serialize_as_json(self):
        script = self.transfer()
        assert json.loads(json.dumps(script)) == script

    @pytest.mark.parametrize(
        "script",
        [
            {"ops": []},
            {"items": [], "ops": []},
            {"items": ["a"], "ops": [{"write": "a"}]},
            {"items": ["a"], "ops": [{"write": "zz", "expr": 1}]},
            {"items": ["a"], "ops": [], "label": 7},
            {"items": [3], "ops": []},
        ],
    )
    def test_malformed_scripts_rejected(self, script):
        with pytest.raises(TransactionScriptError):
            validate_script(script)

    @pytest.mark.parametrize(
        "expr", [[], ["read"], ["read", 3], ["nope", 1], ["+"]]
    )
    def test_malformed_expressions_rejected_at_execution(self, expr):
        script = {"items": ["a"], "ops": [{"write": "a", "expr": expr}]}
        with pytest.raises(TransactionScriptError):
            execute(compile_script(script).body, {"a": 1})
