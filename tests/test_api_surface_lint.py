"""API-surface lint: the txn state machines depend only on the Runtime.

The point of the Runtime seam (docs/runtime.md) is that coordinator,
participant, paxos, and path-sensitive state machines are portable
between the simulator and the live asyncio transport.  That only holds
if nothing under ``repro.txn`` reaches directly for the simulator or
the sim network — every clock read, timer, send, and RNG draw must go
through :class:`repro.runtime.base.Runtime`.

This test walks the AST of every module in ``src/repro/txn`` and fails
on any import of the banned substrate modules.  That includes
``cluster.py``, the one composition root both runtimes share.
``system.py`` is the one exemption: it is the *simulator front-end*,
whose whole job is to assemble Simulator + Network + SimRuntime and hand
them to ``Cluster`` (the socket front-end, ``repro.live.cluster``, lives
outside the package for the same reason).

A second rule extends the seam upward: the workload generators and the
oracles judge either kind of cluster, so they may not reach through one
for its simulator — no ``<x>.sim.<y>`` or ``<x>.network.<y>`` attribute
access in ``src/repro/workloads`` or ``src/repro/check/oracles.py``.

A third rule holds the campaign drivers (explorer, chaos, frontier,
bench) to the part of that seam they have already crossed: they still
reach for the simulated network's fault vocabulary, but the clock is
``cluster.now`` — no ``<x>.sim.now``.

A fourth rule keeps each transaction event reported from one place:
under ``src/repro/txn`` only ``runtime.py`` (``SiteRuntime``'s
``report_*`` methods) may mark a handle decided, bump the submitted /
committed / aborted / lock-conflict counters, or emit ``txn.submitted``,
``txn.committed``, ``txn.aborted`` or ``lock.conflict``.

A fifth rule keeps the polyvalue core free of hidden state: nothing
under ``src/repro/core`` memoizes (no ``functools.lru_cache`` or
``functools.cache``) or keeps weak tables (no ``weakref``).  A condition
is an exact truth table, so there is nothing for a cache to save.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
TXN_DIR = SRC_DIR / "txn"

#: Modules the protocol layer must not touch (prefix match): the sim
#: engine, the sim network, and the sim failure injectors.  The message
#: types (repro.net.message) are transport-neutral data and stay legal.
BANNED_PREFIXES = (
    "repro.sim",
    "repro.net.network",
    "repro.net.failures",
)

#: The simulator front-end — the one module allowed to see the sim.
EXEMPT = {"system.py"}

#: Attributes of a cluster that only the simulator front-end has.
SIM_ONLY_ATTRIBUTES = ("sim", "network")


#: The one module allowed to report transaction events, and what a
#: report consists of.
REPORT_MODULE = "runtime.py"
HANDLE_MARKS = ("mark_committed", "mark_aborted")
REPORT_COUNTERS = (
    "txn_submitted",
    "txn_committed",
    "txn_aborted",
    "lock_conflict",
)
REPORT_EVENTS = (
    "txn.submitted",
    "txn.committed",
    "txn.aborted",
    "lock.conflict",
)


#: Memoization and weak-table machinery the core must not use.
MEMO_NAMES = ("lru_cache", "cache")
MEMO_MODULES = ("functools", "weakref")


def _banned(module_name: str) -> bool:
    return any(
        module_name == prefix or module_name.startswith(prefix + ".")
        for prefix in BANNED_PREFIXES
    )


def _violations(path: pathlib.Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _banned(alias.name):
                    found.append(
                        f"{path.name}:{node.lineno}: import {alias.name}"
                    )
        elif isinstance(node, ast.ImportFrom):
            # Relative imports stay inside repro.txn and cannot name the
            # banned modules; level>0 has module=None for bare "from . ".
            if node.module and node.level == 0 and _banned(node.module):
                found.append(
                    f"{path.name}:{node.lineno}: from {node.module} import ..."
                )
    return found


def _sim_reaches(path: pathlib.Path) -> list:
    """Every ``<x>.sim.<y>`` / ``<x>.network.<y>`` attribute chain."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{path.name}:{node.lineno}: .{node.value.attr}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr in SIM_ONLY_ATTRIBUTES
    ]


def _clock_reaches(path: pathlib.Path) -> list:
    """Every ``<x>.sim.now`` read."""
    return [v for v in _sim_reaches(path) if v.endswith(": .sim.now")]


def _report_bypasses(path: pathlib.Path) -> list:
    """Every handle mark, report counter bump or report event emitted
    outside the ``SiteRuntime`` report methods."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(
            node.func, ast.Attribute
        ):
            continue
        name = node.func.attr
        owner = node.func.value
        owner_name = getattr(owner, "attr", getattr(owner, "id", None))
        where = f"{path.name}:{node.lineno}"
        if name in HANDLE_MARKS:
            found.append(f"{where}: .{name}(")
        elif name in REPORT_COUNTERS and owner_name == "metrics":
            found.append(f"{where}: metrics.{name}(")
        elif (
            name == "emit"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value in REPORT_EVENTS
        ):
            found.append(f"{where}: emit({node.args[0].value!r})")
    return found


def _memo_uses(path: pathlib.Path) -> list:
    """Every import of ``weakref`` and every ``functools`` cache."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Import):
            found += [
                f"{where}: import {alias.name}"
                for alias in node.names
                if alias.name == "weakref"
            ]
        elif isinstance(node, ast.ImportFrom) and node.module in MEMO_MODULES:
            found += [
                f"{where}: from {node.module} import {alias.name}"
                for alias in node.names
                if node.module == "weakref" or alias.name in MEMO_NAMES
            ]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in MEMO_MODULES
            and (node.value.id == "weakref" or node.attr in MEMO_NAMES)
        ):
            found.append(f"{where}: {node.value.id}.{node.attr}")
    return found


def txn_modules():
    return sorted(
        p for p in TXN_DIR.glob("*.py") if p.name not in EXEMPT
    )


def runtime_neutral_modules():
    return sorted((SRC_DIR / "workloads").glob("*.py")) + [
        SRC_DIR / "check" / "oracles.py"
    ]


def campaign_drivers():
    return [
        SRC_DIR / "check" / "explorer.py",
        SRC_DIR / "chaos.py",
        SRC_DIR / "frontier.py",
        SRC_DIR / "bench.py",
    ]


def test_txn_layer_exists():
    assert TXN_DIR.is_dir()
    assert len(txn_modules()) >= 5
    assert TXN_DIR / "cluster.py" in txn_modules()


@pytest.mark.parametrize("path", txn_modules(), ids=lambda p: p.name)
def test_txn_module_does_not_reach_the_simulator(path):
    violations = _violations(path)
    assert not violations, (
        "protocol code must depend on repro.runtime.base.Runtime, not the "
        "sim substrate:\n  " + "\n  ".join(violations)
    )


def test_lint_catches_a_banned_import(tmp_path):
    """The linter itself is live: a planted violation is reported."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from repro.sim.engine import Simulator\n"
        "import repro.net.network\n",
        encoding="utf-8",
    )
    assert len(_violations(bad)) == 2


@pytest.mark.parametrize(
    "path", runtime_neutral_modules(), ids=lambda p: p.name
)
def test_module_does_not_reach_through_a_cluster_for_the_simulator(path):
    violations = _sim_reaches(path)
    assert not violations, (
        "workloads and oracles must talk to Cluster + Runtime only:\n  "
        + "\n  ".join(violations)
    )


def test_lint_catches_a_sim_reach(tmp_path):
    """The reach rule is live too: planted violations are reported."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(system):\n"
        "    system.sim.schedule(1.0, print)\n"
        "    return system.network.stats, system.runtime.now\n",
        encoding="utf-8",
    )
    assert len(_sim_reaches(bad)) == 2


@pytest.mark.parametrize("path", campaign_drivers(), ids=lambda p: p.name)
def test_campaign_driver_reads_the_clock_from_the_cluster(path):
    violations = _clock_reaches(path)
    assert not violations, (
        "read the clock as cluster.now, not through the simulator:\n  "
        + "\n  ".join(violations)
    )


def test_lint_catches_a_clock_reach(tmp_path):
    """The clock rule is live: only the ``.sim.now`` read is reported."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(system):\n"
        "    system.network.heal_all()\n"
        "    return system.sim.now, system.now\n",
        encoding="utf-8",
    )
    assert _clock_reaches(bad) == ["bad.py:3: .sim.now"]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in TXN_DIR.glob("*.py") if p.name != REPORT_MODULE),
    ids=lambda p: p.name,
)
def test_transaction_events_are_reported_by_the_site_runtime(path):
    violations = _report_bypasses(path)
    assert not violations, (
        "report transaction events through SiteRuntime.report_*:\n  "
        + "\n  ".join(violations)
    )


def test_report_module_holds_every_report():
    """The exemption is not dead config: runtime.py does all four."""
    found = " ".join(_report_bypasses(TXN_DIR / REPORT_MODULE))
    for part in HANDLE_MARKS + REPORT_COUNTERS + REPORT_EVENTS:
        assert part in found, part


def test_lint_catches_a_report_bypass(tmp_path):
    """The report rule is live: each planted bypass is reported once."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(rt, handle, bus, metrics):\n"
        "    handle.mark_committed(rt.now, {})\n"
        "    record.handle.mark_aborted(rt.now, 'no')\n"
        "    rt.metrics.txn_committed(0.0, site='s')\n"
        "    metrics.lock_conflict(site='s')\n"
        "    bus.emit('txn.aborted', time=rt.now)\n"
        "    rt.bus.emit('lock.conflict', time=rt.now)\n"
        "    rt.bus.emit('txn.overflow', time=rt.now)\n"
        "    rt.metrics.fanout_overflow(site='s')\n"
        "    rt.report_aborted(handle, 'fine')\n",
        encoding="utf-8",
    )
    assert [line.split(": ", 1)[1] for line in _report_bypasses(bad)] == [
        ".mark_committed(",
        ".mark_aborted(",
        "metrics.txn_committed(",
        "metrics.lock_conflict(",
        "emit('txn.aborted')",
        "emit('lock.conflict')",
    ]


def test_exempt_system_module_is_the_composition_root():
    """system.py must still exist — the exemption is not dead config."""
    assert (TXN_DIR / "system.py").is_file()


@pytest.mark.parametrize(
    "path", sorted((SRC_DIR / "core").glob("*.py")), ids=lambda p: p.name
)
def test_core_module_keeps_no_memo_caches(path):
    violations = _memo_uses(path)
    assert not violations, (
        "the polyvalue core computes exactly and keeps no caches:\n  "
        + "\n  ".join(violations)
    )


def test_lint_catches_a_memo_cache(tmp_path):
    """The memo rule is live: each planted cache is reported once."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import functools\n"
        "import weakref\n"
        "from functools import lru_cache, reduce\n"
        "from weakref import WeakValueDictionary\n"
        "f = functools.cache(len)\n"
        "g = functools.lru_cache(maxsize=8)(len)\n"
        "h = functools.reduce\n",
        encoding="utf-8",
    )
    assert [line.split(": ", 1)[1] for line in _memo_uses(bad)] == [
        "import weakref",
        "from functools import lru_cache",
        "from weakref import WeakValueDictionary",
        "functools.cache",
        "functools.lru_cache",
    ]
