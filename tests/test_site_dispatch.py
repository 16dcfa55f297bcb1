"""Unit tests for DatabaseSite message dispatch and edge cases
(repro.txn.site)."""

import ast
import importlib
from pathlib import Path

import pytest

import repro.txn
from repro.core.errors import ProtocolError
from repro.net.message import Envelope
from repro.txn import protocol
from repro.txn.config import config_for_protocol
from repro.txn.pathsensitive import LocalApply, LocalApplyAck, PathSensitiveSite
from repro.txn.paxos import (
    PaxosDecision,
    PaxosSite,
    PaxosStage,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
)
from repro.txn.site import DatabaseSite
from repro.txn.system import DistributedSystem
from repro.txn.transaction import TxnStatus

from tests.conftest import increment, move, run_to_decision


def build(seed=7):
    return DistributedSystem.build(
        sites=3,
        items={"a": 10, "b": 20, "c": 30},
        seed=seed,
        jitter=0.0,
    )


def inject(system, sender, recipient, payload):
    """Deliver a raw protocol message directly to a site."""
    site = system.sites[recipient]
    site.on_message(
        Envelope(
            sender=sender,
            recipient=recipient,
            payload=payload,
            sent_at=system.sim.now,
        )
    )


class TestDuplicateAndStray:
    def test_duplicate_read_request_ignored(self):
        system = build()
        handle = system.submit(move("a", "b", 1))
        system.run_for(0.012)  # ReadRequests delivered
        inject(
            system,
            "site-0",
            "site-1",
            protocol.ReadRequest(txn=handle.txn, items=("b",)),
        )
        run_to_decision(system, handle)
        assert handle.status is TxnStatus.COMMITTED
        assert system.read_item("b") == 21

    def test_stray_complete_is_harmless(self):
        system = build()
        inject(system, "site-0", "site-1", protocol.Complete(txn="T99@site-0"))
        system.run_for(1.0)
        assert system.read_item("b") == 20
        # The stray outcome is cached but has no dependents to reduce.
        assert system.sites["site-1"].runtime.known_outcomes["T99@site-0"] is True

    def test_stray_abort_is_harmless(self):
        system = build()
        inject(system, "site-0", "site-1", protocol.Abort(txn="T99@site-0"))
        system.run_for(1.0)
        assert system.read_item("b") == 20

    def test_stray_ready_ignored_by_coordinator(self):
        system = build()
        inject(
            system,
            "site-1",
            "site-0",
            protocol.Ready(txn="T99@site-0", site="site-1"),
        )
        system.run_for(1.0)  # no crash, no effect

    def test_stray_outcome_ack_ignored(self):
        system = build()
        inject(
            system,
            "site-1",
            "site-0",
            protocol.OutcomeAck(txn="T99@site-0", site="site-1"),
        )
        system.run_for(1.0)

    def test_unknown_payload_raises(self):
        system = build()
        with pytest.raises(ProtocolError):
            inject(system, "site-0", "site-1", "not a protocol message")


class TestOutcomeQueries:
    def test_query_for_committed_txn_answered_true(self):
        system = build()
        handle = system.submit(move("a", "b", 1))
        run_to_decision(system, handle)
        inject(
            system,
            "site-2",
            "site-0",
            protocol.OutcomeQuery(txn=handle.txn, requester="site-2"),
        )
        system.run_for(0.5)
        assert system.sites["site-2"].runtime.known_outcomes[handle.txn] is True

    def test_query_for_unknown_txn_presumed_abort(self):
        system = build()
        inject(
            system,
            "site-2",
            "site-0",
            protocol.OutcomeQuery(txn="T424242@site-0", requester="site-2"),
        )
        system.run_for(0.5)
        assert (
            system.sites["site-2"].runtime.known_outcomes["T424242@site-0"]
            is False
        )

    def test_misdirected_query_unanswered(self):
        system = build()
        inject(
            system,
            "site-2",
            "site-1",  # not the coordinator embedded in the txn id
            protocol.OutcomeQuery(txn="T1@site-0", requester="site-2"),
        )
        system.run_for(0.5)
        assert "T1@site-0" not in system.sites["site-2"].runtime.known_outcomes

    def test_query_for_undecided_txn_gets_no_answer_yet(self):
        system = build()
        handle = system.submit(move("a", "b", 1))
        system.run_for(0.005)  # still undecided
        inject(
            system,
            "site-2",
            "site-0",
            protocol.OutcomeQuery(txn=handle.txn, requester="site-2"),
        )
        system.run_for(0.004)
        assert handle.txn not in system.sites["site-2"].runtime.known_outcomes


class TestOutcomeLogGc:
    def test_commit_record_collected_after_all_acks(self):
        system = build()
        handle = system.submit(move("a", "b", 1))
        run_to_decision(system, handle)
        system.run_for(1.0)
        # Both participants acked the complete; the durable record is gone.
        assert not system.sites["site-0"].runtime.outcome_log.knows(handle.txn)

    def test_commit_record_retained_until_lost_participant_acks(self):
        system = build()
        handle = system.submit(move("a", "b", 1))
        system.run_for(0.041)  # decision imminent/made; completes in flight
        system.network.partition("site-0", "site-1")
        system.run_for(1.0)
        if handle.status is TxnStatus.COMMITTED:
            log = system.sites["site-0"].runtime.outcome_log
            assert log.knows(handle.txn)  # site-1 never acked
            system.network.heal_all()
            system.run_for(5.0)
            assert not log.knows(handle.txn)


class TestCrashedSiteIgnoresTraffic:
    def test_messages_to_down_site_have_no_effect(self):
        system = build()
        system.crash_site("site-1")
        # Bypass the network (which would drop it) and call the handler
        # directly: the belt-and-braces guard must still ignore it.
        inject(system, "site-0", "site-1", protocol.Complete(txn="T9@site-0"))
        assert "T9@site-0" not in system.sites["site-1"].runtime.known_outcomes


#: One stray message of every type any site handles, addressed from
#: site-0 to site-1 about transactions nobody is running.
SAMPLES = {
    type(message): message
    for message in (
        protocol.ReadRequest(txn="T9@site-0", items=("b",)),
        protocol.ReadReply(
            txn="T9@site-1", site="site-0", ok=True, values={"a": 1}
        ),
        protocol.StageRequest(
            txn="T9@site-0", coordinator="site-0", writes={"b": 5}
        ),
        protocol.Ready(txn="T9@site-1", site="site-0"),
        protocol.Refuse(txn="T9@site-1", site="site-0", reason="lock"),
        protocol.Complete(txn="T9@site-0"),
        protocol.Abort(txn="T8@site-0"),
        protocol.OutcomeQuery(txn="T7@site-1", requester="site-0"),
        protocol.OutcomeNotify(txn="T6@site-0", committed=True, origin="site-0"),
        protocol.OutcomeAck(txn="T5@site-1", site="site-0"),
        PaxosStage(
            txn="T4@site-0",
            coordinator="site-0",
            writes={"b": 5},
            participants=("site-1",),
            acceptors=("site-0", "site-1", "site-2"),
            leader="site-0",
        ),
        Phase1a(txn="T3@site-0", ballot=3, proposer="site-0"),
        Phase1b(txn="T3@site-1", ballot=4, acceptor="site-0"),
        Phase2a(
            txn="T2@site-0", instance="site-0", ballot=0,
            vote="prepared", leader="site-0",
        ),
        Phase2b(
            txn="T2@site-1", instance="site-0", ballot=0,
            vote="prepared", acceptor="site-0",
        ),
        PaxosDecision(txn="T1@site-0", committed=False),
        LocalApply(txn="T0@site-0", item="b", delta=2, origin="site-0"),
        LocalApplyAck(txn="T0@site-1", item="a", site="site-0"),
    )
}

SITE_CLASSES = {
    "polyvalue": DatabaseSite,
    "paxos": PaxosSite,
    "pathsensitive": PathSensitiveSite,
}


def build_protocol(name):
    system = DistributedSystem.build(
        sites=3,
        items={"a": 10, "b": 20, "c": 30},
        seed=7,
        jitter=0.0,
        config=config_for_protocol(name),
    )
    assert type(system.sites["site-1"]) is SITE_CLASSES[name]
    return system


class TestMessageTable:
    def test_samples_cover_every_table(self):
        for cls in SITE_CLASSES.values():
            assert set(cls.HANDLERS) <= set(SAMPLES)

    @pytest.mark.parametrize("name", sorted(SITE_CLASSES))
    def test_every_message_in_the_table_is_handled(self, name):
        system = build_protocol(name)
        for message_type in SITE_CLASSES[name].HANDLERS:
            inject(system, "site-0", "site-1", SAMPLES[message_type])
        system.run_for(2.0)

    @pytest.mark.parametrize("name", sorted(SITE_CLASSES))
    def test_a_type_outside_the_table_raises(self, name):
        outside = set(SAMPLES) - set(SITE_CLASSES[name].HANDLERS)
        assert outside
        system = build_protocol(name)
        for message_type in sorted(outside, key=lambda cls: cls.__name__):
            with pytest.raises(ProtocolError, match="unhandled message type"):
                inject(system, "site-0", "site-1", SAMPLES[message_type])

    def test_lookup_is_by_exact_type(self):
        # A PaxosStage is a StageRequest, but only a Paxos site stages it.
        assert issubclass(PaxosStage, protocol.StageRequest)
        assert PaxosStage not in DatabaseSite.HANDLERS
        assert PaxosSite.HANDLERS[PaxosStage] == "_on_stage_request"

    def test_handlers_are_found_by_name_on_the_instance(self):
        system = build_protocol("paxos")
        site = system.sites["site-1"]
        seen = []
        site._accept_phase2a = lambda message, sender: seen.append(sender)
        inject(system, "site-0", "site-1", SAMPLES[Phase2a])
        assert seen == ["site-0"]


#: The site modules whose dispatch the message table replaced.
SITE_MODULES = ("site", "paxos", "pathsensitive")


def _resolve(module, node):
    """The object an ``isinstance`` class argument names, or None."""
    if isinstance(node, ast.Name):
        return getattr(module, node.id, None)
    if isinstance(node, ast.Attribute):
        owner = _resolve(module, node.value)
        return getattr(owner, node.attr, None) if owner is not None else None
    return None


class TestOneDispatchBody:
    def test_no_isinstance_on_a_message_class(self):
        offenders = []
        for name in SITE_MODULES:
            module = importlib.import_module(f"repro.txn.{name}")
            tree = ast.parse(Path(module.__file__).read_text())
            for node in ast.walk(tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2
                ):
                    continue
                spec = node.args[1]
                classes = spec.elts if isinstance(spec, ast.Tuple) else [spec]
                for cls_node in classes:
                    cls = _resolve(module, cls_node)
                    if isinstance(cls, type) and issubclass(
                        cls, protocol.ProtocolMessage
                    ):
                        offenders.append(f"{name}.py:{node.lineno}")
        assert offenders == []

    def test_exactly_one_on_message_body(self):
        root = Path(repro.txn.__file__).parent
        bodies = [
            str(path.relative_to(root))
            for path in sorted(root.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "on_message"
        ]
        assert bodies == ["site.py"]
