"""Bounded retransmission in the outcome-maintenance loop.

The acceptance property for the resilience layer: a 60-simulated-second
single-site outage produces a *bounded* (backoff-capped) number of
retransmissions per owed notification — O(log outage), not one per
maintenance tick — and the historical flat cadence is still available
by configuration.

Also covered: the per-pass dedup between ``_pending_notifies`` (section
3.3 relay duties) and the outcome log's unacknowledged participants,
down-peer suppression, and the liveness reset when the peer speaks.
"""

import math

import pytest

from repro.net.message import Envelope
from repro.txn import protocol
from repro.txn.config import ProtocolConfig, config_for_protocol
from repro.txn.pathsensitive import LocalApplyAck
from repro.txn.paxos import Phase1a, Phase1b, Phase2a, Phase2b
from repro.txn.system import DistributedSystem
from repro.txn.timeouts import RetryPolicy

from tests.conftest import move

OUTAGE = 60.0

FLAT = RetryPolicy(backoff_factor=1.0, jitter=0.0, suppression_threshold=10**9)


def build_pair(retry=None, protocol_name=None):
    config = ProtocolConfig() if retry is None else ProtocolConfig(retry=retry)
    if protocol_name is not None:
        config = config_for_protocol(protocol_name, config)
    return DistributedSystem.build(
        sites=2,
        items={"item-0": 100, "item-1": 100},
        seed=5,
        config=config,
    )


def run_outage(system):
    """Commit a transfer, crash the participant in the ack window, run
    the outage, and return the retransmission count."""
    system.submit(move("item-0", "item-1", 10))
    log = system.sites["site-0"].runtime.outcome_log
    # The ack window: the decision is durable and Complete is out, but
    # site-1's OutcomeAck has not come back yet.
    deadline = system.sim.now + 5.0
    while not log.pending() and system.sim.now < deadline:
        system.run_for(0.002)
    assert log.pending(), "never entered the ack window"
    system.crash_site("site-1")
    system.run_for(OUTAGE)
    return system.metrics.notify_retransmissions


class TestBoundedOutageCost:
    def test_backoff_caps_sends_per_owed_notification(self):
        # One owed notification, 60 s outage.  With base 1 s, factor 2,
        # cap 8 s the resend times are ~1,3,7,15,23,31,... — at most
        # ceil(log2(cap)) + outage/cap + 1 sends, far below the ~60 a
        # flat 1 s cadence produces.
        retransmissions = run_outage(build_pair())
        policy = RetryPolicy()
        bound = (
            math.ceil(math.log2(policy.backoff_cap))
            + math.ceil(OUTAGE / policy.backoff_cap)
            + 1
        )
        assert 1 <= retransmissions <= bound
        assert retransmissions <= 13

    def test_flat_policy_sends_every_tick(self):
        retransmissions = run_outage(build_pair(retry=FLAT))
        assert retransmissions >= OUTAGE - 2

    def test_backoff_is_deterministic(self):
        assert run_outage(build_pair()) == run_outage(build_pair())

    def test_recovered_peer_still_converges(self):
        system = build_pair()
        run_outage(system)
        system.recover_site("site-1")
        assert system.settle(max_time=system.sim.now + 30.0)
        assert system.sites["site-0"].runtime.outcome_log.pending() == frozenset()


class TestNotifyDedup:
    def test_one_send_per_pair_per_pass(self):
        # Force the same (txn, site) into BOTH owed sources: the relay
        # table and the outcome log's unacknowledged set.  One pass must
        # send exactly one OutcomeNotify for it.
        system = build_pair()
        site0 = system.sites["site-0"]
        txn = "T99@site-0"
        site0.runtime.outcome_log.decide(txn, True, participants=["site-1"])
        site0._pending_notifies[(txn, "site-1")] = True
        system.crash_site("site-1")  # keep acks from clearing the duty
        sends = []
        system.bus.subscribe(sends.append, prefix="msg.send")
        site0._outcome_maintenance()
        sent = [
            event
            for event in sends
            if isinstance(event.attrs["message"], protocol.OutcomeNotify)
            and event.txn == txn
        ]
        assert len(sent) == 1

    def test_self_entries_are_acknowledged_not_sent(self):
        system = build_pair()
        site0 = system.sites["site-0"]
        txn = "T98@site-0"
        site0.runtime.outcome_log.decide(txn, True, participants=["site-0"])
        assert site0._owed_notifications() == {}
        assert txn not in site0.runtime.outcome_log.pending()


class TestSuppression:
    def test_new_entries_for_suppressed_peer_start_in_window(self):
        system = build_pair()
        site0 = system.sites["site-0"]
        policy = site0.runtime.config.retry
        system.crash_site("site-1")
        site0._peer_strikes["site-1"] = policy.suppression_threshold
        txn = "T97@site-0"
        site0._pending_notifies[(txn, "site-1")] = True
        before = system.metrics.notify_retransmissions
        site0._outcome_maintenance()
        state = site0._retry["site-1"][txn]
        assert state.attempts == 0
        assert state.next_at == pytest.approx(
            system.sim.now + policy.suppression_window
        )
        assert system.metrics.notify_retransmissions == before

    def test_inbound_message_resets_suppression_and_rearms(self):
        system = build_pair()
        site0 = system.sites["site-0"]
        policy = site0.runtime.config.retry
        txn = "T96@site-0"
        site0._pending_notifies[(txn, "site-1")] = True
        site0._peer_strikes["site-1"] = 5
        site0._outcome_maintenance()  # seeds retry state
        state = site0._retry["site-1"][txn]
        state.next_at = system.sim.now + 1000.0
        state.attempts = 7
        site0._note_peer_alive("site-1")
        assert site0._peer_strikes["site-1"] == 0
        assert state.attempts == 0
        base = policy.base(site0.runtime.config.outcome_query_interval)
        assert state.next_at <= system.sim.now + base

    @pytest.mark.parametrize(
        "protocol_name, message",
        [
            ("paxos", Phase1a(txn="T7@site-1", ballot=5, proposer="site-1")),
            ("paxos", Phase1b(txn="T7@site-1", ballot=5, acceptor="site-1")),
            (
                "paxos",
                Phase2a(
                    txn="T7@site-1", instance="site-1", ballot=0,
                    vote="prepared", leader="site-1",
                ),
            ),
            (
                "paxos",
                Phase2b(
                    txn="T7@site-1", instance="site-1", ballot=0,
                    vote="prepared", acceptor="site-1",
                ),
            ),
            (
                "pathsensitive",
                LocalApplyAck(txn="T7@site-1", item="item-0", site="site-1"),
            ),
        ],
        ids=lambda value: value if isinstance(value, str) else type(value).__name__,
    )
    def test_every_inbound_message_type_rearms_the_peer(
        self, protocol_name, message
    ):
        system = build_pair(protocol_name=protocol_name)
        site0 = system.sites["site-0"]
        txn = "T96@site-0"
        site0._pending_notifies[(txn, "site-1")] = True
        site0._outcome_maintenance()  # seeds retry state
        state = site0._retry["site-1"][txn]
        state.next_at = system.sim.now + 1000.0
        state.attempts = 7
        site0._peer_strikes["site-1"] = 5
        site0.on_message(
            Envelope(
                sender="site-1",
                recipient="site-0",
                payload=message,
                sent_at=system.sim.now,
            )
        )
        assert site0._peer_strikes["site-1"] == 0
        assert state.attempts == 0
        base = site0.runtime.config.retry.base(
            site0.runtime.config.outcome_query_interval
        )
        assert state.next_at <= system.sim.now + base

    def test_retry_state_is_volatile_across_crash(self):
        system = build_pair()
        site0 = system.sites["site-0"]
        site0._pending_notifies[("T95@site-0", "site-1")] = True
        site0._retry.clear()
        site0._outcome_maintenance()
        assert site0._retry
        system.crash_site("site-0")
        assert site0._retry == {}
        assert site0._peer_strikes == {}
