"""Tests for the stable public facade (``repro.api``) and its shims.

The facade is the supported import surface: everything in its
``__all__`` must resolve, the old deep-import paths it replaces must
keep working but warn, and the two retired cache hooks stay inert.
"""

import importlib
import os
import subprocess
import sys
import warnings

import pytest

import repro
import repro.api as api


# ----------------------------------------------------------------------
# Facade surface
# ----------------------------------------------------------------------


def test_all_is_sorted_unique_and_public():
    assert api.__all__ == sorted(api.__all__)
    assert len(api.__all__) == len(set(api.__all__))
    assert not [name for name in api.__all__ if name.startswith("_")]


def test_every_exported_name_resolves():
    missing = [name for name in api.__all__ if not hasattr(api, name)]
    assert missing == []


def test_facade_covers_the_top_level_package():
    """Everything ``repro`` itself exports is also on the facade."""
    missing = [
        name
        for name in repro.__all__
        if name != "__version__" and not hasattr(api, name)
    ]
    assert missing == []


def test_facade_identities_match_the_defining_modules():
    from repro.core.conditions import Condition
    from repro.core.polyvalue import Polyvalue
    from repro.txn.system import DistributedSystem

    assert api.Condition is Condition
    assert api.Polyvalue is Polyvalue
    assert api.DistributedSystem is DistributedSystem


def test_import_loads_no_threaded_http_server():
    """One asyncio HTTP server serves both HTTP surfaces, so importing
    the facade loads neither ``http.server`` nor what it pulls in."""
    probe = (
        "import sys, repro.api; "
        "print(sorted({'http.server', 'socketserver', 'email.parser'}"
        " & set(sys.modules)))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    assert out.strip() == "[]"


def test_facade_quickstart_runs():
    system = api.DistributedSystem.build(sites=3, items={"a": 10}, seed=7)
    handle = system.submit(
        api.Transaction(
            body=lambda ctx: ctx.write("a", ctx.read("a") + 1), items=("a",)
        )
    )
    system.run_for(1.0)
    assert handle.status is api.TxnStatus.COMMITTED


# ----------------------------------------------------------------------
# Deprecated deep-import shims
# ----------------------------------------------------------------------

SHIMMED = [
    ("repro.core", "Condition", "repro.core.conditions"),
    ("repro.core", "Polyvalue", "repro.core.polyvalue"),
    ("repro.core", "combine", "repro.core.polyvalue"),
    ("repro.core", "parse_condition", "repro.core.parser"),
    ("repro.txn", "DistributedSystem", "repro.txn.system"),
    ("repro.txn", "Transaction", "repro.txn.transaction"),
    ("repro.txn", "blocking_system", "repro.txn.baselines"),
]


@pytest.mark.parametrize("package, name, home", SHIMMED)
def test_deprecated_deep_import_warns_but_works(package, name, home):
    shimmed_from = importlib.import_module(package)
    with pytest.warns(DeprecationWarning, match="repro.api"):
        resolved = getattr(shimmed_from, name)
    assert resolved is getattr(importlib.import_module(home), name)
    assert resolved is getattr(api, name)


@pytest.mark.parametrize("package, name, home", SHIMMED)
def test_deprecated_access_warns_every_time(package, name, home):
    """The shim must not cache the name — each access should warn."""
    shimmed_from = importlib.import_module(package)
    for _ in range(2):
        with pytest.warns(DeprecationWarning):
            getattr(shimmed_from, name)


@pytest.mark.parametrize("package", ["repro.core", "repro.txn"])
def test_unknown_attribute_still_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no attribute"):
        module.does_not_exist


def test_supported_non_deprecated_names_do_not_warn():
    """Exception hierarchy and protocol internals stay warning-free."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        from repro.core import ConditionError  # noqa: F401
        from repro.txn import Coordinator, Participant  # noqa: F401


def test_facade_import_itself_is_warning_free():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        for module in ("repro", "repro.api", "repro.bench"):
            importlib.reload(importlib.import_module(module))


# ----------------------------------------------------------------------
# Retired cache hooks on the facade
# ----------------------------------------------------------------------


def test_cache_knobs_round_trip():
    # Conditions are exact truth tables with no memo caches: the two
    # hooks that outlive them report nothing and drop nothing, and the
    # sizing knob and literal interning are gone from the surface.
    assert api.cache_info() == {}
    assert api.clear_caches() is None
    assert not hasattr(api, "configure_caches")
    assert not hasattr(api, "intern_literal")

    a = api.Condition.of("T1") & api.Condition.not_of("T2")
    api.clear_caches()
    b = api.Condition.of("T1") & api.Condition.not_of("T2")
    assert a == b and hash(a) == hash(b)
    assert api.cache_info() == {}


def test_disabling_caches_keeps_algebra_working():
    api.clear_caches()
    c = api.Condition.of("T1") | ~api.Condition.of("T2")
    assert c.substitute({"T1": True}).is_tautology()
    assert c.substitute({"T1": False}) == ~api.Condition.of("T2")
