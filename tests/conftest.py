"""Shared fixtures and helpers for the test suite.

Seed workflow: randomized tests take the session-scoped ``repro_seed``
fixture (default 0, so the default run is fully deterministic).  A
failing run prints the active seed in its header; re-run the exact
randomness with ``pytest --repro-seed=<N>``.

Speed: the handful of slowest tests are marked ``@pytest.mark.slow``
and skipped by default so ``pytest -x -q`` stays fast; CI passes
``--runslow`` to execute the full set.
"""

import json
import socket

import pytest

from repro.txn.config import ProtocolConfig
from repro.txn.system import DistributedSystem
from repro.txn.transaction import Transaction

DEFAULT_REPRO_SEED = 0


def pytest_addoption(parser):
    parser.addoption(
        "--repro-seed",
        type=int,
        default=DEFAULT_REPRO_SEED,
        help="seed for randomized tests (repro_seed fixture); a failing "
        "run prints the seed it used — pass it back to replay exactly",
    )
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="also run tests marked @pytest.mark.slow",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running test, skipped unless --runslow"
    )


def pytest_report_header(config):
    return f"repro-seed: {config.getoption('--repro-seed')}"


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow; use --runslow to include")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(scope="session")
def repro_seed(request):
    """The session's seed for randomized tests (``--repro-seed``)."""
    return request.config.getoption("--repro-seed")


@pytest.fixture
def three_site_system():
    """A 3-site system with six integer items, deterministic seed."""
    items = {f"item-{index}": 100 for index in range(6)}
    return DistributedSystem.build(sites=3, items=items, seed=1234)


def increment(item, amount=1):
    """A single-item increment transaction."""

    def body(ctx):
        ctx.write(item, ctx.read(item) + amount)

    return Transaction(body=body, items=(item,), label=f"inc:{item}")


def move(source, target, amount):
    """A two-item transfer transaction (unconditional)."""

    def body(ctx):
        ctx.write(source, ctx.read(source) - amount)
        ctx.write(target, ctx.read(target) + amount)

    return Transaction(
        body=body, items=(source, target), label=f"move:{source}->{target}"
    )


def run_to_decision(system, handle, limit=5.0):
    """Advance the simulation until *handle* is decided (or limit)."""
    from repro.txn.transaction import TxnStatus

    deadline = system.sim.now + limit
    while handle.status is TxnStatus.PENDING and system.sim.now < deadline:
        system.run_for(0.1)
    return handle


def open_event_stream(host, port):
    """Connect to ``/events``; returns (socket, file) past the headers.

    Close the file as well as the socket: the file keeps the
    connection open until both are closed.
    """
    conn = socket.create_connection((host, port), timeout=10.0)
    conn.sendall(
        b"GET /events HTTP/1.1\r\n"
        b"Host: repro\r\nAccept: text/event-stream\r\n\r\n"
    )
    stream = conn.makefile("rb")
    assert b"200" in stream.readline()
    headers = b""
    while True:
        line = stream.readline()
        headers += line
        if line in (b"\r\n", b"\n", b""):
            break
    assert b"text/event-stream" in headers
    return conn, stream


def read_frames(stream, count):
    """The next *count* SSE ``data:`` frames on *stream*, decoded."""
    found = []
    while len(found) < count:
        line = stream.readline()
        assert line, "stream closed"
        if line.startswith(b"data: "):
            found.append(json.loads(line[len(b"data: "):]))
    return found
