"""AsyncioRuntime — the :class:`Runtime` on wall-clock asyncio sockets.

The live transport (stdlib only):

* **Clock** — ``loop.time()`` rebased to 0 at :meth:`start`, so live
  timestamps read like sim timestamps.
* **Timers** — ``loop.call_later``; the returned ``asyncio.TimerHandle``
  already satisfies the :class:`~repro.runtime.base.TimerHandle`
  protocol.
* **Transport** — one TCP server per site on localhost (ephemeral
  ports by default), messages as 4-byte big-endian length-prefixed
  JSON frames (codec in :mod:`repro.live.wire`).  Outbound connections
  are cached per recipient and re-opened once on failure; beyond that
  a send is simply lost, which is exactly the delivery contract the
  protocols are designed for.
* **Durability** — with a data directory, site S's files are a
  compacted snapshot ``<data_dir>/site-<S>.json`` plus a log
  ``<data_dir>/site-<S>.log``.  After every timer fire and every inbound
  dispatch for S, S's registered snapshot is compared with the one last
  logged and what changed (top-level keys, or the sub-keys of a dict
  section set or deleted, all as absolute values) is appended to the log
  as one record: 4-byte length, CRC32, compact JSON; no change writes
  nothing.  The log is folded into a fresh site file (write-then-rename,
  then the log is removed) when the runtime becomes :meth:`quiescent`
  — so at every quiescent point the site file alone is the state — and
  whenever the log would outgrow the site file.  A restart reads the
  site file and replays the log: a damaged last record is a torn write
  and is dropped, anything else unreadable is a
  :class:`~repro.runtime.base.DurableStateError`, never an empty boot.
  Without a data directory the snapshot is taken at :meth:`mark_down`
  and held in memory until the restart (the base-class default).  Sends
  only enqueue an asyncio task, and tasks cannot run before the
  current callback (its log append included) returns — so durable
  state always reaches the log *before* any message provoked by it
  reaches a socket.  That ordering is what makes the coordinator's "log
  the outcome, then send complete" and the participant's "stage
  durably, then send ready" hold on the live runtime with no changes to
  the protocol code.  Records are flushed to the OS, not fsynced.
* **Fault injection** — :meth:`mark_down`/:meth:`mark_up` emulate a
  crashed process (all inbound and outbound frames dropped), and
  :meth:`set_fault` installs a predicate that selectively drops
  delivered envelopes — the live analogue of the sim network's message
  faults, used by tests to force the wait-timeout polyvalue path over
  real sockets.
* **Quiescence** — :meth:`quiescent` is true when every frame handed to
  :meth:`send` has been dispatched (or lost) and no timer other than the
  background periodics is armed: the wall-clock reading of the
  simulator's "nothing pending but maintenance".
"""

from __future__ import annotations

import asyncio
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional, Set

from repro.core.errors import SimulationError
from repro.net.message import Envelope, SiteId
from repro.runtime.base import (
    BACKGROUND_LABELS,
    DurableStateError,
    Runtime,
    TimerHandle,
    dump_snapshot,
    parse_snapshot,
)
from repro.sim.rand import Rng

#: A log record's header: body length and the body's CRC32, big-endian.
_RECORD_HEADER = struct.Struct(">II")
_MISSING = object()


def _change(old: Dict[str, Any], new: Dict[str, Any]) -> Dict[str, Any]:
    """The log record that turns snapshot *old* into *new* ({} if equal).

    ``"set"`` holds the top-level keys whose value changed and ``"del"``
    the removed ones; a section that is a dict on both sides goes under
    ``"patch"`` as ``[sub-keys set, sub-keys deleted]``.  Every value is
    absolute, so replaying a record twice, or over a newer snapshot,
    leaves the newer state.
    """
    replaced: Dict[str, Any] = {}
    patched: Dict[str, Any] = {}
    for key, value in new.items():
        before = old.get(key, _MISSING)
        if value == before:
            continue
        if isinstance(value, dict) and isinstance(before, dict):
            patched[key] = [
                {
                    sub: item
                    for sub, item in value.items()
                    if before.get(sub, _MISSING) != item
                },
                [sub for sub in before if sub not in value],
            ]
        else:
            replaced[key] = value
    change: Dict[str, Any] = {}
    if replaced:
        change["set"] = replaced
    if patched:
        change["patch"] = patched
    removed = [key for key in old if key not in new]
    if removed:
        change["del"] = removed
    return change


def _apply(snapshot: Dict[str, Any], change: Dict[str, Any]) -> None:
    """Replay one :func:`_change` record onto *snapshot* in place."""
    snapshot.update(change.get("set", {}))
    for key, (changed, deleted) in change.get("patch", {}).items():
        section = snapshot.setdefault(key, {})
        section.update(changed)
        for sub in deleted:
            section.pop(sub, None)
    for key in change.get("del", ()):
        snapshot.pop(key, None)


def _records(data: bytes, path: str) -> Iterator[Dict[str, Any]]:
    """The records of log *data*, in order.

    A record that runs past the end of the data, or fails its CRC, and
    is the last one is a write the crash tore: it is dropped.  A damaged
    record with more bytes after it is corruption, and raises
    :class:`DurableStateError` naming *path*.
    """
    size = len(data)
    offset = 0
    while offset < size:
        end = offset + _RECORD_HEADER.size
        if end <= size:
            length, crc = _RECORD_HEADER.unpack_from(data, offset)
            body = data[end:end + length]
            end += length
            if end <= size and zlib.crc32(body) == crc:
                yield parse_snapshot(body, f"{path} (record at byte {offset})")
                offset = end
                continue
        if end < size:
            raise DurableStateError(
                f"{path}: damaged record at byte {offset} is followed by "
                f"{size - end} more bytes"
            )
        return


@dataclass
class TransportStats:
    """Counters for the live transport (mirrors NetworkStats in spirit).

    ``checkpoints`` counts durable writes: log records plus compactions
    (site files rewritten); ``log_bytes`` is what the records appended.
    """

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    reconnects: int = 0
    checkpoints: int = 0
    compactions: int = 0
    log_bytes: int = 0
    handler_errors: int = 0
    errors: list = field(default_factory=list)

    def as_dict(self) -> Dict[str, int]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "reconnects": self.reconnects,
            "checkpoints": self.checkpoints,
            "compactions": self.compactions,
            "log_bytes": self.log_bytes,
            "handler_errors": self.handler_errors,
        }


class _ProtocolTimer:
    """A non-background timer: counts against
    :meth:`AsyncioRuntime.quiescent` until it fires or is cancelled."""

    __slots__ = ("_runtime", "handle")

    def __init__(self, runtime: "AsyncioRuntime") -> None:
        self._runtime = runtime
        self.handle: Optional[asyncio.TimerHandle] = None
        runtime._armed.add(self)

    def cancel(self) -> None:
        runtime = self._runtime
        runtime._armed.discard(self)
        self.handle.cancel()
        # A crash cancels timers outside any callback; the cluster can go
        # quiet right here.
        if runtime._logs:
            runtime._fold_logs_if_quiescent()


class AsyncioRuntime(Runtime):
    """Wall-clock runtime: asyncio timers + TCP frames + durable files.

    Usage (from inside a running event loop)::

        rt = AsyncioRuntime(data_dir="/tmp/cluster")
        await rt.start()
        await rt.listen("site-0")       # before registering handlers
        rt.register("site-0", handler)
        ...
        await rt.close()
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        data_dir: Optional[str] = None,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.host = host
        self.data_dir = data_dir
        self.durable = data_dir is not None
        self._seed = seed
        # Imported here, not at module level: repro.live imports this
        # module, and the benchmark's tracer replaces wire's functions
        # before a runtime is built.
        from repro.live import wire

        self._encode = wire.encode_envelope
        self._decode = wire.decode_envelope
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._epoch = 0.0
        self._handlers: Dict[SiteId, Callable[[Any], None]] = {}
        self._servers: Dict[SiteId, asyncio.AbstractServer] = {}
        self._ports: Dict[SiteId, int] = {}
        self._writers: Dict[SiteId, asyncio.StreamWriter] = {}
        self._conn_locks: Dict[SiteId, asyncio.Lock] = {}
        self._down: Set[SiteId] = set()
        self._tasks: Set = set()
        #: What :meth:`quiescent` watches: frames sent and not yet
        #: dispatched or lost, and armed protocol timers.
        self._in_flight = 0
        self._armed: Set[_ProtocolTimer] = set()
        self._fault: Optional[Callable[[Envelope], bool]] = None
        #: Per site: the snapshot its files hold (site file + log) and
        #: the size of its site file.
        self._logged: Dict[SiteId, Dict[str, Any]] = {}
        self._snapshot_bytes: Dict[SiteId, int] = {}
        #: Append handles of the logs holding records: empty exactly
        #: when every site file alone holds what was logged.
        self._logs: Dict[SiteId, Any] = {}
        self.stats = TransportStats()
        if self.durable:
            os.makedirs(data_dir, exist_ok=True)

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> None:
        """Bind the runtime to the running event loop and zero the clock."""
        self._loop = asyncio.get_event_loop()
        self._epoch = self._loop.time()

    async def listen(self, site: SiteId) -> int:
        """Open *site*'s TCP server; returns the bound port."""
        if self._loop is None:
            await self.start()
        server = await asyncio.start_server(self._serve_connection, self.host, 0)
        port = server.sockets[0].getsockname()[1]
        self._servers[site] = server
        self._ports[site] = port
        return port

    async def close(self) -> None:
        """Tear down servers, cached connections, and in-flight sends."""
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._tasks.clear()
        for server in self._servers.values():
            server.close()
        for server in self._servers.values():
            try:
                await server.wait_closed()
            except Exception:  # pragma: no cover - teardown best-effort
                pass
        for writer in self._writers.values():
            try:
                writer.close()
            except Exception:  # pragma: no cover - teardown best-effort
                pass
        self._writers.clear()
        self._servers.clear()
        for log in self._logs.values():
            log.close()
        self._logs.clear()

    def port_of(self, site: SiteId) -> Optional[int]:
        """The TCP port *site* listens on (None before :meth:`listen`)."""
        return self._ports.get(site)

    # ------------------------------------------------------------------
    # Runtime interface

    @property
    def now(self) -> float:
        if self._loop is None:
            return 0.0
        return self._loop.time() - self._epoch

    def schedule(
        self,
        delay: float,
        action: Callable[[], None],
        *,
        label: str = "",
        site: SiteId = "",
    ) -> TimerHandle:
        if self._loop is None:
            raise SimulationError("AsyncioRuntime.schedule before start()")
        timer = (
            None
            if label.startswith(BACKGROUND_LABELS)
            else _ProtocolTimer(self)
        )
        handle = self._loop.call_later(
            max(0.0, delay), self._fire_timer, action, site, label, timer
        )
        if timer is None:
            return handle
        timer.handle = handle
        return timer

    def _fire_timer(
        self,
        action: Callable[[], None],
        site: SiteId,
        label: str,
        timer: Optional[_ProtocolTimer],
    ) -> None:
        self._armed.discard(timer)
        try:
            action()
        except Exception as exc:
            self.stats.handler_errors += 1
            self.stats.errors.append(f"timer {label or '?'}: {exc!r}")
            if self._logs:
                self._fold_logs_if_quiescent()
        else:
            self.checkpoint(site)

    def send(self, sender: SiteId, recipient: SiteId, payload: Any) -> None:
        if sender in self._down:
            self.stats.dropped += 1
            return
        if recipient not in self._ports:
            self.stats.dropped += 1
            return
        envelope = Envelope(
            sender=sender, recipient=recipient, payload=payload, sent_at=self.now
        )
        try:
            blob = self._encode(envelope)
        except Exception as exc:
            self.stats.dropped += 1
            self.stats.errors.append(f"encode to {recipient}: {exc!r}")
            return
        frame = len(blob).to_bytes(4, "big") + blob
        self.stats.sent += 1
        self._in_flight += 1
        self._spawn(self._deliver(recipient, frame))

    def register(self, site: SiteId, handler: Callable[[Any], None]) -> None:
        self._handlers[site] = handler

    def rng(self, stream: str) -> Rng:
        return Rng(self._seed).fork(stream)

    # ------------------------------------------------------------------
    # Durability

    def _site_path(self, site: SiteId) -> str:
        return os.path.join(self.data_dir or "", f"site-{site}.json")

    def _log_path(self, site: SiteId) -> str:
        return os.path.join(self.data_dir or "", f"site-{site}.log")

    def checkpoint(self, site: SiteId) -> None:
        if not self.durable:
            return
        provider = self._snapshots.get(site)
        if provider is not None and site not in self._down:
            self._persist(site, provider())
        if self._logs:
            self._fold_logs_if_quiescent()

    def _persist(self, site: SiteId, snapshot: Dict[str, Any]) -> None:
        """Append what changed since *site*'s last logged snapshot.

        With nothing logged to compare against (the first checkpoint,
        the first after a restart), or when the record would make the
        log larger than the site file, write a fresh site file instead.
        """
        logged = self._logged.get(site)
        if logged is None:
            self._compact(site, snapshot)
            return
        change = _change(logged, snapshot)
        if not change:
            return
        body = dump_snapshot(change).encode()
        record = _RECORD_HEADER.pack(len(body), zlib.crc32(body)) + body
        log = self._logs.get(site)
        logged_bytes = 0 if log is None else log.tell()
        if logged_bytes + len(record) > self._snapshot_bytes[site]:
            self._compact(site, snapshot)
            return
        if log is None:
            log = self._logs[site] = open(self._log_path(site), "ab")
        log.write(record)
        log.flush()
        self._logged[site] = snapshot
        self.stats.checkpoints += 1
        self.stats.log_bytes += len(record)

    def _compact(self, site: SiteId, snapshot: Dict[str, Any]) -> None:
        """Make *snapshot* the site file (write-then-rename), then remove
        the log it supersedes.  A crash between the two leaves a log
        whose records the site file already holds; replaying them over
        it changes nothing, because records carry absolute values."""
        path = self._site_path(site)
        text = dump_snapshot(snapshot)
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(path + ".tmp", path)
        log = self._logs.pop(site, None)
        if log is not None:
            log.close()
        try:
            os.remove(self._log_path(site))
        except FileNotFoundError:
            pass
        self._logged[site] = snapshot
        # One byte per character: json.dumps escapes everything non-ASCII.
        self._snapshot_bytes[site] = len(text)
        self.stats.checkpoints += 1
        self.stats.compactions += 1

    def _fold_logs_if_quiescent(self) -> None:
        """Once nothing is in flight, every site file alone holds the
        state: fold each log that has records into its site file."""
        if self.quiescent():
            for site in list(self._logs):
                self._compact(site, self._logged[site])

    def load_durable(self, site: SiteId) -> Optional[Dict[str, Any]]:
        if not self.durable:
            return super().load_durable(site)
        # The site restarts from its files; its first checkpoint then
        # writes a fresh site file, which also drops a torn log tail.
        self._logged.pop(site, None)
        log = self._logs.pop(site, None)
        if log is not None:
            log.close()
        path, log_path = self._site_path(site), self._log_path(site)
        try:
            with open(log_path, "rb") as fh:
                records = fh.read()
        except FileNotFoundError:
            records = b""
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            if records:
                raise DurableStateError(f"{log_path}: no site file {path}")
            return None
        snapshot = parse_snapshot(data, path)
        for change in _records(records, log_path):
            _apply(snapshot, change)
        return snapshot

    # ------------------------------------------------------------------
    # Fault injection (the live analogue of the sim network's faults)

    def mark_down(self, site: SiteId) -> None:
        """Emulate a crashed process: drop all frames to/from *site*."""
        self._down.add(site)
        if not self.durable:
            self._hold_durable(site)

    def mark_up(self, site: SiteId) -> None:
        self._down.discard(site)

    def quiescent(self) -> bool:
        return self._in_flight == 0 and not self._armed

    def set_fault(self, fault: Optional[Callable[[Envelope], bool]]) -> None:
        """Drop every delivered envelope for which *fault* returns True."""
        self._fault = fault

    # ------------------------------------------------------------------
    # Transport internals

    def _spawn(self, coro) -> None:
        task = self._loop.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._reap)

    def _reap(self, task) -> None:
        self._tasks.discard(task)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:  # pragma: no cover - defensive
            self.stats.errors.append(f"task: {exc!r}")

    async def _deliver(self, recipient: SiteId, frame: bytes) -> None:
        lock = self._conn_locks.setdefault(recipient, asyncio.Lock())
        async with lock:
            writer = self._writers.get(recipient)
            for attempt in (0, 1):
                if writer is None:
                    try:
                        _, writer = await asyncio.open_connection(
                            self.host, self._ports[recipient]
                        )
                    except OSError:
                        self._lose_frame()
                        return
                    if attempt:
                        self.stats.reconnects += 1
                    self._writers[recipient] = writer
                try:
                    writer.write(frame)
                    await writer.drain()
                    return
                except (ConnectionError, OSError):
                    self._writers.pop(recipient, None)
                    try:
                        writer.close()
                    except Exception:  # pragma: no cover - teardown
                        pass
                    writer = None
            self._lose_frame()

    def _lose_frame(self) -> None:
        """A sent frame that will never reach :meth:`_dispatch`."""
        self._in_flight -= 1
        self._drop()

    def _drop(self) -> None:
        """Count a frame retired unhandled: the cluster may just have
        gone quiet."""
        self.stats.dropped += 1
        if self._logs:
            self._fold_logs_if_quiescent()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            # Track the connection task so close() cancels it instead of
            # leaving it for noisy event-loop teardown.
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        try:
            while True:
                header = await reader.readexactly(4)
                length = int.from_bytes(header, "big")
                body = await reader.readexactly(length)
                self._dispatch(body)
        except asyncio.CancelledError:
            pass  # runtime is closing; end the connection quietly
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
            except Exception:  # pragma: no cover - teardown
                pass

    def _dispatch(self, body: bytes) -> None:
        self._in_flight -= 1
        try:
            envelope = self._decode(body)
        except Exception as exc:
            self.stats.errors.append(f"decode: {exc!r}")
            self._drop()
            return
        if envelope.recipient in self._down:
            self._drop()
            return
        if self._fault is not None and self._fault(envelope):
            self._drop()
            return
        handler = self._handlers.get(envelope.recipient)
        if handler is None:
            self._drop()
            return
        self.stats.delivered += 1
        try:
            handler(envelope)
        except Exception as exc:
            self.stats.handler_errors += 1
            self.stats.errors.append(
                f"handler {envelope.recipient}: {exc!r}"
            )
            if self._logs:
                self._fold_logs_if_quiescent()
        else:
            self.checkpoint(envelope.recipient)
