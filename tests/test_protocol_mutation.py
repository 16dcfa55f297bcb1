"""Mutation smoke for the bake-off protocols.

The protocol fault catalogue injects one subtle bug per protocol —
a Paxos acceptor that acks without persisting its vote, a
path-sensitive pre-analysis that misclassifies one order-sensitive
path, a dropped remote delta — and the oracle catalogue must convict
every one of them while staying silent on the unmutated baseline.
"""

import pytest

from repro.check.mutants import PROTOCOL_FAULTS
from repro.check.mutation import run_mutation_smoke, smoke_schedules


class TestCatalogue:
    def test_every_fault_is_namespaced(self):
        assert set(PROTOCOL_FAULTS) == {
            "paxos:acceptor-no-persist",
            "path:misclassify-one",
            "path:drop-remote-apply",
        }

    @pytest.mark.parametrize("fault", sorted(PROTOCOL_FAULTS))
    def test_smoke_schedules_carry_the_protocol(self, fault):
        schedules = smoke_schedules(fault)
        assert schedules
        expected = "paxos" if fault.startswith("paxos:") else "pathsensitive"
        assert all(s.protocol == expected for s in schedules)

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            smoke_schedules("paxos:no-such-fault")
        with pytest.raises(ValueError):
            run_mutation_smoke(faults=("bogus",))


class TestSmoke:
    @pytest.fixture(scope="class")
    def report(self):
        return run_mutation_smoke(faults=PROTOCOL_FAULTS, seed=0)

    def test_baseline_clean(self, report):
        assert report.baseline_ok, [
            str(v) for v in report.baseline_violations
        ]

    def test_every_fault_caught(self, report):
        missed = [o.fault for o in report.outcomes if not o.caught]
        assert not missed, f"oracles missed: {missed}"
        assert report.ok

    def test_paxos_mutant_convicted_by_decision_oracles(self, report):
        outcome = next(
            o for o in report.outcomes
            if o.fault == "paxos:acceptor-no-persist"
        )
        assert "decision-consistency" in outcome.oracles_triggered

    @pytest.mark.parametrize(
        "fault", ["path:misclassify-one", "path:drop-remote-apply"]
    )
    def test_path_mutants_convicted_by_path_effects(self, report, fault):
        outcome = next(o for o in report.outcomes if o.fault == fault)
        assert "path-effects" in outcome.oracles_triggered
