"""Unit tests for Paxos Commit (Gray & Lamport) as a bake-off peer.

Covers the configuration-derived acceptor sets (2F+1, clamped to the
site count), the ballot-0 fast path on failure-free runs, the
no-polyvalues invariant, acceptor failover deciding a transaction
whose coordinator crashed, and the durable-state drain that the
convergence oracle audits, and the participant's "no" vote.
"""

from repro.db.locks import LockMode
from repro.obs.events import EventLog
from repro.txn import protocol
from repro.txn.baselines import paxos_commit_system
from repro.txn.paxos import ABORTED, Phase2a
from repro.txn.transaction import TxnStatus

from tests.conftest import increment, move, run_to_decision

ITEMS = {f"item-{index}": 100 for index in range(6)}


def _build(sites=3, fault_tolerance=None, seed=42):
    return paxos_commit_system(
        sites=sites,
        items=dict(ITEMS),
        seed=seed,
        fault_tolerance=fault_tolerance,
    )


class TestAcceptorConfiguration:
    def test_default_is_largest_supported_f(self):
        site = _build(sites=3).sites["site-0"]
        assert site.fault_tolerance() == 1
        assert site.acceptor_set() == ("site-0", "site-1", "site-2")
        assert site.quorum() == 2

    def test_five_sites_tolerate_two_faults(self):
        site = _build(sites=5).sites["site-0"]
        assert site.fault_tolerance() == 2
        assert len(site.acceptor_set()) == 5
        assert site.quorum() == 3

    def test_configured_f_is_clamped_to_site_count(self):
        site = _build(sites=3, fault_tolerance=7).sites["site-0"]
        assert site.fault_tolerance() == 1
        assert len(site.acceptor_set()) == 3

    def test_zero_f_degenerates_to_single_acceptor(self):
        site = _build(sites=3, fault_tolerance=0).sites["site-0"]
        assert site.fault_tolerance() == 0
        assert site.acceptor_set() == ("site-0",)
        assert site.quorum() == 1

    def test_acceptor_set_agrees_across_sites(self):
        system = _build(sites=5)
        sets = {site.acceptor_set() for site in system.sites.values()}
        assert len(sets) == 1


class TestFailureFree:
    def test_multi_site_transfer_commits_on_ballot_zero(self):
        system = _build()
        log = EventLog(system.bus, prefix="paxos.")
        handle = system.submit(move("item-0", "item-1", 25))
        run_to_decision(system, handle)
        assert handle.status is TxnStatus.COMMITTED
        assert system.read_item("item-0") == 75
        assert system.read_item("item-1") == 125
        decides = log.named("paxos.decide")
        assert decides and all(e.attrs["ballot"] == 0 for e in decides)
        assert all(e.attrs["committed"] for e in decides)
        # No failover ever started: paxos.ballot marks Phase1 rounds.
        assert log.named("paxos.ballot") == []

    def test_paxos_never_installs_polyvalues(self):
        system = _build()
        for transaction in (
            move("item-0", "item-1", 10),
            increment("item-2", 5),
            move("item-3", "item-4", 20),
        ):
            handle = system.submit(transaction)
            run_to_decision(system, handle)
            assert handle.status is TxnStatus.COMMITTED
            assert system.total_polyvalues() == 0
        assert system.polyvalued_items() == []

    def test_decision_board_records_every_outcome(self):
        system = _build()
        handle = system.submit(move("item-0", "item-1", 10))
        run_to_decision(system, handle)
        assert system.decision_board.decided(handle.txn) is True
        assert system.decision_board.conflicts == []

    def test_durable_state_drains(self):
        system = _build()
        handle = system.submit(move("item-0", "item-1", 10))
        run_to_decision(system, handle)
        assert system.run_to_quiescence(max_time=system.sim.now + 30.0)
        assert system.total_protocol_residue() == 0


class TestFailover:
    def _crashed_coordinator(self, crash_at=0.050):
        """A transfer on sites 1 and 2 whose non-participant
        coordinator (site-0) crashes inside the wait phase."""
        system = _build()
        log = EventLog(system.bus, prefix="paxos.")
        handle = system.submit(move("item-1", "item-2", 25), at="site-0")
        system.run_for(crash_at)
        system.crash_site("site-0")
        system.run_for(2.0)
        return system, handle, log

    def test_acceptors_decide_while_coordinator_is_down(self):
        system, handle, log = self._crashed_coordinator()
        assert system.down_sites() == ["site-0"]
        assert handle.status is TxnStatus.COMMITTED
        assert system.read_item("item-1") == 75
        assert system.read_item("item-2") == 125
        # The decision came from a failover ballot, not ballot 0.
        assert log.named("paxos.ballot"), "no Phase1 round was started"
        assert any(
            event.attrs["ballot"] > 0 and event.attrs["committed"]
            for event in log.named("paxos.decide")
        )

    def test_no_polyvalues_during_failover(self):
        system, _, _ = self._crashed_coordinator()
        assert system.total_polyvalues() == 0

    def test_recovered_coordinator_converges(self):
        system, handle, _ = self._crashed_coordinator()
        system.recover_site("site-0")
        assert system.settle(max_time=system.sim.now + 120.0)
        assert handle.status is TxnStatus.COMMITTED
        assert system.decision_board.conflicts == []
        assert system.total_protocol_residue() == 0

    def test_tolerates_f_acceptor_crashes(self):
        # F=2 with five sites: crash two non-participant acceptors in
        # the wait phase and the transfer must still commit.
        system = _build(sites=5)
        handle = system.submit(move("item-0", "item-1", 25), at="site-0")
        system.run_for(0.045)
        system.crash_site("site-3")
        system.crash_site("site-4")
        run_to_decision(system, handle)
        assert handle.status is TxnStatus.COMMITTED


class TestNoVote:
    def test_write_lock_conflict_votes_aborted_to_every_acceptor(self):
        system = _build()
        site = system.sites["site-1"]
        # A second reader of item-1: the transaction's read lock is
        # granted, its upgrade to a write lock at staging is not.
        site.runtime.locks.try_acquire("reader", "item-1", LockMode.READ)
        sends = EventLog(system.bus, prefix="msg.send")
        conflicts = EventLog(system.bus, prefix="lock.conflict")
        handle = system.submit(move("item-0", "item-1", 25), at="site-0")
        run_to_decision(system, handle)

        votes = [
            event
            for event in sends
            if event.attrs["sender"] == "site-1"
            and isinstance(event.attrs["message"], Phase2a)
        ]
        assert sorted(event.attrs["recipient"] for event in votes) == sorted(
            site.acceptor_set()
        )
        for event in votes:
            vote = event.attrs["message"]
            assert (vote.instance, vote.ballot, vote.vote) == (
                "site-1",
                0,
                ABORTED,
            )
        assert not any(
            isinstance(event.attrs["message"], protocol.Refuse)
            for event in sends
        )
        assert [
            (event.site, event.attrs["item"], event.attrs["mode"])
            for event in conflicts
        ] == [("site-1", "item-1", "write")]

        assert handle.status is TxnStatus.ABORTED
        assert system.decision_board.decided(handle.txn) is False
        assert system.decision_board.conflicts == []
        site.runtime.locks.release_all("reader")
        assert system.run_to_quiescence(max_time=system.sim.now + 30.0)
        assert system.total_protocol_residue() == 0
        assert system.read_item("item-0") == 100
        assert system.read_item("item-1") == 100
