"""Tests for the mutation smoke test (repro.check.mutation).

The meta-test of the harness: each deliberately-wrong wait-phase
mutant must be caught by at least one oracle, the *expected* oracle
must be among the catchers, and the unmutated protocol must pass the
identical schedules.  The mutants are armed from the harness
(repro.check.mutants); the protocol code carries no fault knob.
"""

import ast
import dataclasses
import pathlib

import pytest

import repro.txn
from repro.check import FAULTS, run_mutation_smoke
from repro.check.mutants import PROTOCOL_FAULTS, WAIT_PHASE_FAULTS
from repro.check.mutation import _armed, smoke_schedules
from repro.check.explorer import Schedule, run_schedule
from repro.txn.config import ProtocolConfig

TXN_SOURCE = pathlib.Path(repro.txn.__file__).parent

#: ``repro check --mutation-only`` on the tree before the mutants left
#: the protocol code: fault -> (oracles triggered, violation count).
#: Identical under PYTHONHASHSEED 0, 1 and 2.
PINNED_REPORT = {
    "unilateral-commit": (["serial-equivalence"], 6),
    "overlapping-conditions": (
        [
            "condition-sets",
            "convergence",
            "no-crash",
            "outcome-tracking",
            "serial-equivalence",
            "single-outcome",
        ],
        47,
    ),
    "keep-locks": (["convergence", "no-blocking"], 13),
    "paxos:acceptor-no-persist": (
        ["decision-consistency", "serial-equivalence"], 9
    ),
    "path:misclassify-one": (["path-effects"], 1),
    "path:drop-remote-apply": (["path-effects"], 1),
}


@pytest.fixture(scope="module")
def report():
    return run_mutation_smoke()


class TestFaultInjection:
    def test_fault_catalogue(self):
        assert set(FAULTS) == {
            "unilateral-commit", "overlapping-conditions", "keep-locks",
            "paxos:acceptor-no-persist", "path:misclassify-one",
            "path:drop-remote-apply",
        }
        assert WAIT_PHASE_FAULTS == (
            "unilateral-commit", "overlapping-conditions", "keep-locks"
        )
        assert set(WAIT_PHASE_FAULTS) | set(PROTOCOL_FAULTS) == set(FAULTS)

    def test_config_rejects_nothing_but_run_does(self):
        with pytest.raises(ValueError):
            run_mutation_smoke(faults=("no-such-fault",))

    def test_fault_off_by_default(self):
        # No fault knob is left on the protocol configuration.
        fields = [f.name for f in dataclasses.fields(ProtocolConfig)]
        assert not [name for name in fields if name.endswith("_fault")]


@pytest.mark.parametrize("fault", ["paxos:no-such", "path:nope", "kep-locks"])
def test_unknown_fault_rejected_before_running(fault):
    schedule = Schedule(scenario="pair", seed=0, actions=(), fault=fault)
    with pytest.raises(ValueError, match="unknown fault"):
        run_schedule(schedule)


def test_protocol_code_reads_no_fault_knob():
    """The protocol package reads no ``*_fault`` attribute (the Paxos
    ``fault_tolerance`` sizing is not a fault knob) and carries no
    intentional-bug branch."""
    offenders = []
    for path in sorted(TXN_SOURCE.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        if "BUG (intentional" in text:
            offenders.append(f"{path.name}: BUG (intentional")
        for node in ast.walk(ast.parse(text)):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.endswith("_fault")
                and node.attr != "paxos_fault_tolerance"
            ):
                offenders.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert not offenders


@pytest.mark.parametrize(
    "fault,expected_oracle",
    [
        ("unilateral-commit", "serial-equivalence"),
        ("overlapping-conditions", "condition-sets"),
        ("keep-locks", "no-blocking"),
    ],
)
def test_each_fault_caught_by_its_oracle(fault, expected_oracle):
    caught_by = set()
    for schedule in smoke_schedules(fault):
        result = run_schedule(_armed(schedule, fault))
        caught_by.update(v.oracle for v in result.violations)
    assert caught_by, f"{fault} produced no violation at all"
    assert expected_oracle in caught_by, (
        f"{fault} caught by {sorted(caught_by)} but not by the "
        f"expected {expected_oracle}"
    )


def test_full_smoke_report(report):
    assert report.baseline_ok, [str(v) for v in report.baseline_violations]
    assert report.ok
    assert {o.fault for o in report.outcomes} == set(FAULTS)
    for outcome in report.outcomes:
        assert outcome.caught
        assert outcome.oracles_triggered
    lines = report.summary_lines()
    assert any("CAUGHT" in line for line in lines)
    assert not any("NOT CAUGHT" in line for line in lines)


@pytest.mark.parametrize("fault", sorted(PINNED_REPORT))
def test_report_is_pinned(report, fault):
    outcome = next(o for o in report.outcomes if o.fault == fault)
    oracles, count = PINNED_REPORT[fault]
    assert (outcome.oracles_triggered, len(outcome.violations)) == (
        oracles, count
    )
    assert outcome.schedules_run == len(smoke_schedules(fault))
    assert sum(outcome.fired) >= 1, f"{fault} never ran its bug"


def test_unarmed_run_fires_nothing():
    result = run_schedule(smoke_schedules("keep-locks")[0])
    assert result.fault_fired == 0
