"""Every commit counts its section 3.4 outputs, whichever path decided it.

A committed transaction's externally visible outputs are counted as
certain (simple values) or uncertain (polyvalues) by the one committed
report in :class:`~repro.txn.runtime.SiteRuntime`.  Each protocol and
commit path below commits one transaction with exactly one output:
the 2PC coordinator's decision, the Paxos consensus decision on the
:class:`~repro.txn.paxos.DecisionBoard`, and path-sensitive commit's
coordinated, local and decomposable routes.
"""

import pytest

from repro.core.polyvalue import Polyvalue
from repro.txn.config import config_for_protocol
from repro.txn.system import DistributedSystem
from repro.txn.transaction import Transaction, TxnStatus

from tests.conftest import run_to_decision

# Round-robin over three sites: item-0 and item-3 live at site-0,
# item-1 at site-1.
ITEMS = {f"item-{index}": 100 for index in range(6)}


def _transfer_with_receipt(source, target):
    """A state-independent transfer: decomposable."""

    def body(ctx):
        ctx.write(source, ctx.read(source) - 10)
        ctx.write(target, ctx.read(target) + 10)
        ctx.output("receipt", "moved 10")

    return Transaction(body=body, items=(source, target), label="receipt")


def _guarded_transfer(source, target):
    """Moves 10 only while *source* can cover it: path-sensitive."""

    def body(ctx):
        balance = ctx.read(source)
        if balance >= 10:
            ctx.write(source, balance - 10)
            ctx.write(target, ctx.read(target) + 10)
        ctx.output("covered", balance >= 10)

    return Transaction(body=body, items=(source, target), label="guarded")


def _build(protocol):
    return DistributedSystem.build(
        sites=3,
        items=dict(ITEMS),
        seed=7,
        config=config_for_protocol(protocol),
    )


CASES = {
    # protocol, transaction, expected path-sensitive route (or None)
    "polyvalue": ("polyvalue", _guarded_transfer("item-0", "item-1"), None),
    "paxos": ("paxos", _guarded_transfer("item-0", "item-1"), None),
    "pathsensitive-coordinated": (
        "pathsensitive",
        _guarded_transfer("item-0", "item-1"),
        "coordinated",
    ),
    "pathsensitive-local": (
        "pathsensitive",
        _guarded_transfer("item-0", "item-3"),
        "local",
    ),
    "pathsensitive-decomposable": (
        "pathsensitive",
        _transfer_with_receipt("item-0", "item-1"),
        "decomposable",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_committed_output_is_counted_once(case):
    protocol, transaction, route = CASES[case]
    system = _build(protocol)
    handle = system.submit(transaction)
    run_to_decision(system, handle)
    assert handle.status is TxnStatus.COMMITTED
    assert len(handle.outputs) == 1
    if route is not None:
        assert system.path_registry.decided(handle.txn).kind == route
    assert system.metrics.certain_outputs == 1
    assert system.metrics.uncertain_outputs == 0


def test_polyvalued_output_is_counted_uncertain():
    system = _build("polyvalue")
    # item-0 is in doubt on a transaction nobody here decided.
    system.sites["site-0"].runtime.apply_write(
        "item-0", Polyvalue.in_doubt("T99@site-2", 150, 100)
    )

    def body(ctx):
        ctx.output("balance", ctx.read("item-0"))

    handle = system.submit(
        Transaction(body=body, items=("item-0",), label="balance")
    )
    run_to_decision(system, handle)
    assert handle.status is TxnStatus.COMMITTED
    assert isinstance(handle.outputs["balance"], Polyvalue)
    assert system.metrics.uncertain_outputs == 1
    assert system.metrics.certain_outputs == 0
