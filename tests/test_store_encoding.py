"""A snapshot encodes only what was written.

``ItemStore.encoded_values()`` keeps ``encode_value`` of every item and
re-encodes an item only after it was created or written, and
``DatabaseSite.durable_snapshot()`` takes its ``"values"`` from there.
These tests pin that the result is ``encode_state(all_values())`` to the
key order, that its cost is the items written since the last call, that
a caller may keep a result while the store moves on, that a value JSON
cannot carry fails every snapshot until it is overwritten, and that the
simulator's held crash snapshots are byte-for-byte the text the whole-store
encoding gave.
"""

import dataclasses
import random

import pytest

from repro.check.explorer import random_walk, run_schedule
from repro.core.polyvalue import Polyvalue
from repro.core.serialize import SerializationError, encode_state, encode_value
from repro.db import store as store_module
from repro.db.store import ItemStore
from repro.runtime.base import Runtime, dump_snapshot, parse_snapshot
from repro.txn.system import DistributedSystem

from tests.test_forwarding_chain import build as build_chain_system
from tests.test_forwarding_chain import make_chain


def random_value(rng, current):
    """An int, a nested list/dict, a polyvalue over *current*, or (when
    *current* is a polyvalue) often a simple value overwriting it."""
    kind = rng.randrange(4)
    if isinstance(current, Polyvalue) and kind == 3:
        kind = 0
    if kind == 0:
        return rng.randrange(-50, 1000)
    if kind == 1:
        return [rng.randrange(10), {"n": rng.randrange(10), "tags": ["x", "y"]}]
    if kind == 2:
        return {"balance": rng.randrange(500), "history": [1, [2, {"z": None}]]}
    simple = current if isinstance(current, int) else 0
    return Polyvalue.in_doubt(f"T{rng.randrange(10**6)}@site-9", simple + 1, simple)


def assert_same_encoding(store):
    """encoded_values() is encode_state(all_values()), key order included."""
    encoded = store.encoded_values()
    expected = encode_state(store.all_values())
    assert list(encoded.items()) == list(expected.items())


@pytest.fixture
def encode_calls(monkeypatch):
    calls = []

    def counting(value):
        calls.append(value)
        return encode_value(value)

    monkeypatch.setattr(store_module, "encode_value", counting)
    return calls


@pytest.mark.parametrize("seed", range(5))
def test_encoded_values_equal_encode_state_and_cost_what_was_written(
    seed, encode_calls
):
    rng = random.Random(seed)
    store = ItemStore({f"init-{index}": index for index in range(5)})
    written = set(store)
    created = 0
    for step in range(300):
        if rng.random() < 0.15:
            # Names out of sorted order, so a new item's place matters.
            item = f"new-{rng.randrange(10**6):06d}-{created}"
            created += 1
            store.create(item, random_value(rng, None))
        else:
            item = rng.choice(sorted(store))
            store.write(item, random_value(rng, store.read(item)))
        written.add(item)
        if rng.random() < 0.2:
            encode_calls.clear()
            assert_same_encoding(store)
            assert len(encode_calls) == len(written), step
            written.clear()
    assert created > 10


def test_only_items_written_since_the_last_call_are_encoded(encode_calls):
    store = ItemStore({"a": 1, "b": [2]})
    store.encoded_values()
    encode_calls.clear()
    store.encoded_values()
    store.write("a", 1)  # same value: still a write, still re-encoded once
    store.write("a", 1)
    store.encoded_values()
    assert encode_calls == [1]


def test_each_result_is_a_fresh_dict_the_store_never_changes():
    store = ItemStore({"a": 1, "b": 2})
    first = store.encoded_values()
    second = store.encoded_values()
    assert first == second and first is not second
    store.write("a", 10)
    store.create("c", 3)
    third = store.encoded_values()
    assert first == {"a": 1, "b": 2}
    assert third == {"a": 10, "b": 2, "c": 3}


@pytest.mark.parametrize("bad", [{1: "not a str key"}, {1, 2}, object()])
def test_a_value_json_cannot_carry_fails_every_snapshot_until_overwritten(bad):
    system = DistributedSystem.build(sites=2, items={"x": 1, "y": 2})
    site = system.sites[system.catalog.site_of("x")]
    site.durable_snapshot()
    site.runtime.store.write("x", bad)
    for _ in range(2):
        with pytest.raises(SerializationError):
            site.durable_snapshot()
    site.runtime.store.write("x", 5)
    assert site.durable_snapshot()["values"]["x"] == 5


def test_a_polyvalue_alternative_json_cannot_carry_fails_too():
    store = ItemStore({"a": 1})
    store.encoded_values()
    store.write("a", Polyvalue.in_doubt("T1@site-0", {2}, 1))
    for _ in range(2):
        with pytest.raises(SerializationError):
            store.encoded_values()


@pytest.mark.parametrize("seed", range(3))
def test_snapshots_stay_exact_across_restores_into_fresh_sites(seed, encode_calls):
    """Write into a site, snapshot, restore into a freshly built twin and
    carry on writing there: every snapshot's values are the whole-store
    encoding, and the twin's first snapshot re-encodes what the restore
    wrote and its snapshot equals the one it came from."""
    rng = random.Random(seed)
    items = {f"item-{index:02d}": index for index in range(24)}

    def fresh_site():
        return DistributedSystem.build(sites=2, items=items).sites["site-1"]

    site = fresh_site()
    held = sorted(site.runtime.store)
    restores = 0
    for step in range(200):
        item = rng.choice(held)
        site.runtime.store.write(item, random_value(rng, site.runtime.store.read(item)))
        if step % 7 == 6:
            snapshot = site.durable_snapshot()
            expected = encode_state(site.runtime.store.all_values())
            assert list(snapshot["values"].items()) == list(expected.items())
            if rng.random() < 0.5:
                twin = fresh_site()
                twin.durable_snapshot()
                encode_calls.clear()
                twin.restore_durable(parse_snapshot(dump_snapshot(snapshot), "test"))
                assert twin.durable_snapshot() == snapshot
                assert len(encode_calls) == len(held)
                site = twin
                restores += 1
    assert restores > 5


def _audit_held_snapshots(monkeypatch):
    """Check, at every mark_down, that the held text is the text built
    with the whole-store encoding.  Failures are collected, not raised:
    a schedule runs crashes inside its own error handling."""
    audit = {"holds": 0, "with_polyvalues": 0, "problems": []}
    hold = Runtime._hold_durable

    def audited(rt, site):
        hold(rt, site)
        source = rt._sources.get(site)
        if source is None:
            return
        reference = source.durable_snapshot()
        reference["values"] = encode_state(source.runtime.store.all_values())
        if rt._held[site] != dump_snapshot(reference):
            audit["problems"].append(f"{site} at t={rt.now}")
        audit["holds"] += 1
        if "__polyvalue__" in rt._held[site]:
            audit["with_polyvalues"] += 1

    monkeypatch.setattr(Runtime, "_hold_durable", audited)
    return audit


@pytest.mark.parametrize("protocol", ["polyvalue", "paxos"])
def test_simulated_crash_snapshots_are_byte_identical(monkeypatch, protocol):
    audit = _audit_held_snapshots(monkeypatch)
    for scenario in ("pair", "transfers", "mixed"):
        for seed in range(8):
            schedule = dataclasses.replace(
                random_walk(scenario, seed), protocol=protocol
            )
            assert not run_schedule(schedule).violations, (scenario, seed)
    assert not audit["problems"], audit["problems"][:5]
    assert audit["holds"] > 20


def test_in_doubt_crash_snapshots_are_byte_identical(monkeypatch):
    audit = _audit_held_snapshots(monkeypatch)
    system = build_chain_system()
    make_chain(system)
    for site_id in ("site-1", "site-3", "site-2"):
        system.crash_site(site_id)
        system.run_for(0.5)
        system.recover_site(site_id)
        system.run_for(0.5)
    system.recover_site("site-0")
    system.run_for(8.0)
    assert system.total_polyvalues() == 0
    assert not audit["problems"], audit["problems"]
    assert audit["holds"] == 4 and audit["with_polyvalues"] >= 2
