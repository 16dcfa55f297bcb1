"""Golden hop identity: what one simulated message does, pinned to the value.

Every message crosses ``Network.send`` -> ``Simulator.schedule_at`` ->
the event heap -> ``Simulator.step`` -> ``Network._deliver_batch``.  That
path is where the simulator spends most of its time, and where a faster
rewrite could silently change which event fires when, or drop a fault
check whose state happens to be empty most of the time.

Each scenario below runs a small seeded cluster under one commit
protocol and one fault class -- every fault the delivery path checks:
partition, one-way partition, loss, duplication, corruption, site
degradation, a link delay spike, and a crash with recovery -- and pins
every :class:`NetworkStats` counter, the number of events fired, the
commit/abort counts and a digest of the final database.  Half the
scenarios run with zero jitter, so many deliveries tie on time and the
``(time, seq)`` tie-break decides the run.

The pinned values were recorded on the simulator before the hop was
rewritten, under ``PYTHONHASHSEED`` 0 and 1; only scenarios that agree
under both seeds are pinned.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.api import DistributedSystem, Transaction, config_for_protocol
from repro.sim.rand import Rng

SITES = 4
ITEMS = {f"item-{index}": 100 for index in range(8)}
TRANSFERS = 30
#: Submit one transfer every SPACING simulated seconds, so a few are in
#: flight at once and contend for locks.
SPACING = 0.04
#: The fault starts at FAULT_AT -- a crash then strands the transfer
#: site-1 coordinates after its participants voted -- and is repaired at
#: REPAIR_AT, after the wait-phase timeout, so polyvalue and blocking
#: commit part ways; the cluster then settles.
FAULT_AT = 0.07
REPAIR_AT = 1.2


def _transfer(index: int) -> Transaction:
    source = f"item-{index % 8}"
    target = f"item-{(3 * index + 1) % 8}"
    if target == source:
        target = f"item-{(index + 1) % 8}"
    amount = 1 + index % 5

    def body(ctx) -> None:
        ctx.write(source, ctx.read(source) - amount)
        ctx.write(target, ctx.read(target) + amount)

    return Transaction(body=body, items=(source, target), label=f"t{index}")


#: fault name -> (network probabilities, fault injection, repair).
FAULTS = {
    "clean": ({}, None, None),
    "partition": (
        {},
        lambda system: system.network.partition("site-0", "site-1"),
        lambda system: system.network.heal("site-0", "site-1"),
    ),
    "oneway": (
        {},
        lambda system: system.network.partition_oneway("site-1", "site-0"),
        lambda system: system.network.heal_oneway("site-1", "site-0"),
    ),
    "loss": ({"loss_probability": 0.05}, None, None),
    "duplicate": ({"duplicate_probability": 0.1}, None, None),
    "corrupt": ({"corruption_probability": 0.05}, None, None),
    "degrade": (
        {},
        lambda system: system.degrade_site("site-2", 4.0),
        lambda system: system.restore_site("site-2"),
    ),
    "spike": (
        {},
        lambda system: system.network.spike_link("site-0", "site-1", 6.0),
        lambda system: system.network.clear_link("site-0", "site-1"),
    ),
    "crash": (
        {},
        lambda system: system.crash_site("site-1"),
        lambda system: system.recover_site("site-1"),
    ),
}


def run_scenario(protocol: str, fault: str, jitter: float) -> dict:
    """Run one scenario and return everything the golden table pins."""
    probabilities, inject, repair = FAULTS[fault]
    system = DistributedSystem.build(
        sites=SITES,
        items=ITEMS,
        seed=5,
        jitter=jitter,
        config=config_for_protocol(protocol),
        **probabilities,
    )
    handles = []
    for index in range(TRANSFERS):
        if inject is not None and (index - 1) * SPACING < FAULT_AT <= index * SPACING:
            system.run_until(FAULT_AT)
            inject(system)
        system.run_until(index * SPACING)
        handles.append(system.submit(_transfer(index)))
    system.run_until(REPAIR_AT)
    if repair is not None:
        repair(system)
    settled = system.settle(max_time=REPAIR_AT + 30.0)
    state = system.database_state()
    digest = hashlib.sha256(
        "".join(f"{item}={state[item]!r};" for item in sorted(state)).encode()
    ).hexdigest()[:16]
    decisions = hashlib.sha256(
        repr([(h.status.value, h.decided_at) for h in handles]).encode()
    ).hexdigest()[:16]
    stats = system.network.stats
    return {
        "sent": stats.sent,
        "delivered": stats.delivered,
        "duplicated": stats.duplicated,
        "dropped_site_down": stats.dropped_site_down,
        "dropped_partition": stats.dropped_partition,
        "dropped_loss": stats.dropped_loss,
        "dropped_corrupt": stats.dropped_corrupt,
        "events": system.sim.events_processed,
        "committed": sum(h.status.value == "committed" for h in handles),
        "aborted": sum(h.status.value == "aborted" for h in handles),
        "settled": settled,
        "state": digest,
        "decisions": decisions,
    }


#: What :func:`run_scenario` returns, in this order.
FIELDS = (
    "sent", "delivered", "duplicated", "dropped_site_down",
    "dropped_partition", "dropped_loss", "dropped_corrupt",
    "events", "committed", "aborted", "settled", "state", "decisions",
)

#: (protocol, fault, jitter) -> the FIELDS values :func:`run_scenario`
#: returned before the hop was rewritten.
GOLDEN = {
    ("blocking", "clean", 0.0):
        (324, 324, 0, 0, 0, 0, 0, 328, 24, 6, True, "dfa8e981209691bf", "beef06120c0afd13"),
    ("blocking", "clean", 0.002):
        (270, 270, 0, 0, 0, 0, 0, 274, 15, 15, True, "1d024d185fe296de", "91037d40a9131e19"),
    ("blocking", "corrupt", 0.0):
        (246, 233, 0, 0, 0, 0, 13, 252, 6, 24, True, "ff8b0f4fbd0a8458", "7feb50371bc5af4d"),
    ("blocking", "corrupt", 0.002):
        (247, 235, 0, 0, 0, 0, 12, 253, 4, 26, True, "5725d1656629dcbe", "13350459f263a590"),
    ("blocking", "crash", 0.0):
        (215, 199, 0, 16, 0, 0, 0, 227, 13, 17, True, "57bfae6d0498fa30", "97d687c2c050e6bf"),
    ("blocking", "crash", 0.002):
        (179, 167, 0, 12, 0, 0, 0, 194, 8, 22, True, "5fdad0b5013ca35a", "650007c6baa6c831"),
    ("blocking", "degrade", 0.0):
        (280, 280, 0, 0, 0, 0, 0, 288, 12, 18, True, "1896b09497db3b07", "f486fc41e9d33519"),
    ("blocking", "degrade", 0.002):
        (268, 268, 0, 0, 0, 0, 0, 276, 10, 20, True, "7af3c1934c9c729a", "6e6dc113aa88efe0"),
    ("blocking", "duplicate", 0.0):
        (331, 366, 35, 0, 0, 0, 0, 370, 24, 6, True, "dfa8e981209691bf", "beef06120c0afd13"),
    ("blocking", "duplicate", 0.002):
        (273, 302, 29, 0, 0, 0, 0, 306, 15, 15, True, "1d024d185fe296de", "c86f96be4397cc3a"),
    ("blocking", "loss", 0.0):
        (246, 233, 0, 0, 0, 13, 0, 252, 6, 24, True, "ff8b0f4fbd0a8458", "7feb50371bc5af4d"),
    ("blocking", "loss", 0.002):
        (247, 235, 0, 0, 0, 12, 0, 253, 4, 26, True, "5725d1656629dcbe", "13350459f263a590"),
    ("blocking", "oneway", 0.0):
        (262, 241, 0, 0, 21, 0, 0, 281, 14, 16, True, "af6533a9fcaa01bc", "95e4fc9d2a85aef6"),
    ("blocking", "oneway", 0.002):
        (221, 202, 0, 0, 19, 0, 0, 244, 8, 22, True, "5fdad0b5013ca35a", "14cdf0c0478eba8c"),
    ("blocking", "partition", 0.0):
        (252, 225, 0, 0, 27, 0, 0, 271, 13, 17, True, "57bfae6d0498fa30", "c895064999fec00c"),
    ("blocking", "partition", 0.002):
        (214, 191, 0, 0, 23, 0, 0, 237, 8, 22, True, "5fdad0b5013ca35a", "16f9fe2b42b0e3b6"),
    ("blocking", "spike", 0.0):
        (336, 336, 0, 0, 0, 0, 0, 344, 21, 9, True, "50f65ebd94205e71", "b765c53fe7ff0ccf"),
    ("blocking", "spike", 0.002):
        (300, 300, 0, 0, 0, 0, 0, 308, 15, 15, True, "1d024d185fe296de", "a250bde6c2379e43"),
    ("paxos", "clean", 0.0):
        (524, 524, 0, 0, 0, 0, 0, 528, 20, 10, True, "2065d4297bf74800", "8b87c97b9e18a06d"),
    ("paxos", "clean", 0.002):
        (434, 434, 0, 0, 0, 0, 0, 438, 15, 15, True, "1d024d185fe296de", "fe5bdab98df809be"),
    ("paxos", "corrupt", 0.0):
        (526, 500, 0, 0, 0, 0, 26, 528, 8, 22, True, "95f748c421e80f5b", "3c82d842e2e89667"),
    ("paxos", "corrupt", 0.002):
        (381, 365, 0, 0, 0, 0, 16, 389, 6, 24, True, "1eea7f3b0e38a519", "9847b0ef0b25f106"),
    ("paxos", "crash", 0.0):
        (357, 304, 0, 53, 0, 0, 0, 384, 13, 17, True, "57bfae6d0498fa30", "fd01f669b8b616af"),
    ("paxos", "crash", 0.002):
        (269, 233, 0, 36, 0, 0, 0, 296, 8, 22, True, "5fdad0b5013ca35a", "0798aef2224ca0c1"),
    ("paxos", "degrade", 0.0):
        (463, 463, 0, 0, 0, 0, 0, 471, 8, 22, True, "091b6e437e8b0148", "c63cd8fe356782d5"),
    ("paxos", "degrade", 0.002):
        (486, 486, 0, 0, 0, 0, 0, 494, 10, 20, True, "7af3c1934c9c729a", "d8755c07f3b21602"),
    ("paxos", "duplicate", 0.0):
        (541, 595, 54, 0, 0, 0, 0, 599, 20, 10, True, "2065d4297bf74800", "8b87c97b9e18a06d"),
    ("paxos", "duplicate", 0.002):
        (445, 487, 42, 0, 0, 0, 0, 491, 15, 15, True, "1d024d185fe296de", "dee3635f9319ea03"),
    ("paxos", "loss", 0.0):
        (526, 500, 0, 0, 0, 26, 0, 528, 8, 22, True, "95f748c421e80f5b", "3c82d842e2e89667"),
    ("paxos", "loss", 0.002):
        (381, 365, 0, 0, 0, 16, 0, 389, 6, 24, True, "1eea7f3b0e38a519", "9847b0ef0b25f106"),
    ("paxos", "oneway", 0.0):
        (405, 387, 0, 0, 18, 0, 0, 427, 13, 17, True, "57bfae6d0498fa30", "4f089ea0b8218cd0"),
    ("paxos", "oneway", 0.002):
        (319, 298, 0, 0, 21, 0, 0, 346, 8, 22, True, "5fdad0b5013ca35a", "ce5677bfb184dea2"),
    ("paxos", "partition", 0.0):
        (398, 376, 0, 0, 22, 0, 0, 420, 13, 17, True, "57bfae6d0498fa30", "4f089ea0b8218cd0"),
    ("paxos", "partition", 0.002):
        (311, 286, 0, 0, 25, 0, 0, 338, 8, 22, True, "5fdad0b5013ca35a", "4dcf6d23cf10de6e"),
    ("paxos", "spike", 0.0):
        (640, 640, 0, 0, 0, 0, 0, 648, 20, 10, True, "2065d4297bf74800", "d172459bc180443a"),
    ("paxos", "spike", 0.002):
        (550, 550, 0, 0, 0, 0, 0, 558, 15, 15, True, "1d024d185fe296de", "2cf611f26a2c75c2"),
    ("polyvalue", "clean", 0.0):
        (324, 324, 0, 0, 0, 0, 0, 328, 24, 6, True, "dfa8e981209691bf", "beef06120c0afd13"),
    ("polyvalue", "clean", 0.002):
        (270, 270, 0, 0, 0, 0, 0, 274, 15, 15, True, "1d024d185fe296de", "91037d40a9131e19"),
    ("polyvalue", "corrupt", 0.0):
        (262, 249, 0, 0, 0, 0, 13, 267, 6, 24, True, "ff8b0f4fbd0a8458", "f554cccbd5b8ae93"),
    ("polyvalue", "corrupt", 0.002):
        (247, 235, 0, 0, 0, 0, 12, 253, 4, 26, True, "5725d1656629dcbe", "13350459f263a590"),
    ("polyvalue", "crash", 0.0):
        (215, 201, 0, 14, 0, 0, 0, 229, 13, 17, True, "57bfae6d0498fa30", "7f63ac99aa5c8871"),
    ("polyvalue", "crash", 0.002):
        (179, 167, 0, 12, 0, 0, 0, 194, 8, 22, True, "5fdad0b5013ca35a", "650007c6baa6c831"),
    ("polyvalue", "degrade", 0.0):
        (280, 280, 0, 0, 0, 0, 0, 288, 12, 18, True, "1896b09497db3b07", "f486fc41e9d33519"),
    ("polyvalue", "degrade", 0.002):
        (268, 268, 0, 0, 0, 0, 0, 276, 10, 20, True, "7af3c1934c9c729a", "6e6dc113aa88efe0"),
    ("polyvalue", "duplicate", 0.0):
        (331, 366, 35, 0, 0, 0, 0, 370, 24, 6, True, "dfa8e981209691bf", "beef06120c0afd13"),
    ("polyvalue", "duplicate", 0.002):
        (273, 302, 29, 0, 0, 0, 0, 306, 15, 15, True, "1d024d185fe296de", "c86f96be4397cc3a"),
    ("polyvalue", "loss", 0.0):
        (262, 249, 0, 0, 0, 13, 0, 267, 6, 24, True, "ff8b0f4fbd0a8458", "f554cccbd5b8ae93"),
    ("polyvalue", "loss", 0.002):
        (247, 235, 0, 0, 0, 12, 0, 253, 4, 26, True, "5725d1656629dcbe", "13350459f263a590"),
    ("polyvalue", "oneway", 0.0):
        (262, 241, 0, 0, 21, 0, 0, 283, 14, 16, True, "af6533a9fcaa01bc", "02fb792974b26d53"),
    ("polyvalue", "oneway", 0.002):
        (221, 202, 0, 0, 19, 0, 0, 244, 8, 22, True, "5fdad0b5013ca35a", "14cdf0c0478eba8c"),
    ("polyvalue", "partition", 0.0):
        (252, 227, 0, 0, 25, 0, 0, 273, 13, 17, True, "57bfae6d0498fa30", "870be0d293380f1a"),
    ("polyvalue", "partition", 0.002):
        (214, 191, 0, 0, 23, 0, 0, 237, 8, 22, True, "5fdad0b5013ca35a", "16f9fe2b42b0e3b6"),
    ("polyvalue", "spike", 0.0):
        (336, 336, 0, 0, 0, 0, 0, 344, 21, 9, True, "50f65ebd94205e71", "b765c53fe7ff0ccf"),
    ("polyvalue", "spike", 0.002):
        (300, 300, 0, 0, 0, 0, 0, 308, 15, 15, True, "1d024d185fe296de", "a250bde6c2379e43"),
}


@pytest.mark.parametrize(
    "protocol,fault,jitter",
    sorted(GOLDEN),
    ids=[f"{p}-{f}-j{j}" for p, f, j in sorted(GOLDEN)],
)
def test_scenario_matches_the_recorded_run(protocol, fault, jitter):
    expected = dict(zip(FIELDS, GOLDEN[(protocol, fault, jitter)]))
    assert run_scenario(protocol, fault, jitter) == expected


def test_every_fault_and_protocol_is_pinned():
    pinned = {(protocol, fault) for protocol, fault, _ in GOLDEN}
    for protocol in ("polyvalue", "blocking", "paxos"):
        for fault in FAULTS:
            assert (protocol, fault) in pinned, (protocol, fault)


def test_each_fault_fires_in_its_scenario():
    """A scenario whose fault never touched a message pins nothing."""
    counter = {
        "partition": "dropped_partition",
        "oneway": "dropped_partition",
        "loss": "dropped_loss",
        "duplicate": "duplicated",
        "corrupt": "dropped_corrupt",
        "crash": "dropped_site_down",
    }
    for (protocol, fault, jitter), row in GOLDEN.items():
        if fault in counter:
            values = dict(zip(FIELDS, row))
            assert values[counter[fault]] > 0, (protocol, fault, jitter)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
@pytest.mark.parametrize("low,high", [(0.0, 0.005), (0.0, 1.0), (-3.5, 2.25), (10.0, 10.0)])
def test_uniform_is_bit_identical_to_the_standard_library(seed, low, high):
    ours = Rng(seed)
    reference = random.Random(seed)
    for _ in range(10_000):
        assert ours.uniform(low, high) == reference.uniform(low, high)
