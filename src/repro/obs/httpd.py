"""The package's one HTTP server: an asyncio HTTP/1.1 responder.

Both HTTP surfaces run on it: the cluster control API behind
``repro serve`` (:class:`repro.live.httpapi.HttpApi`) and the live
dashboard behind ``repro serve-dash``
(:class:`repro.obs.live.DashboardServer`).  Each is a subclass of
:class:`HttpServer` that implements :meth:`HttpServer.route`; a route
answers a :class:`Reply` — JSON, text or HTML — or the opening of a
server-sent-event stream that an :class:`SSEBroker` then feeds.

Every request is one task on the event loop the server was started on:
no thread per connection, and a route reads state that lives on the
same loop (the live cluster) without locks.  Every response closes its
connection.  Malformed requests are 400, unknown routes 404; error
bodies are ``{"error": "..."}``.

Threading contract of the broker: its bus may emit on the loop's own
thread (the live cluster) or on another one (the dashboard's simulated
driver).  The broker renders each event on the emitting thread and
hands the frame to the loop — directly, or through
``call_soon_threadsafe`` — into one bounded queue per client.  A full
queue sheds its oldest frame, so the emitter never blocks on a slow
client.  The broker is subscribed to its bus only while a client is
connected, so a bus nobody watches stays falsy and builds no events.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
from collections import deque
from http import HTTPStatus
from typing import Any, Deque, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.core.errors import ReproError
from repro.obs.events import EventBus, ObsEvent
from repro.obs.export import event_to_dict

#: Frames a lagging SSE client may buffer before old frames are shed.
DEFAULT_QUEUE_SIZE = 1000

#: Seconds between SSE keep-alive comments when no events flow.
HEARTBEAT_SECONDS = 1.0

_MAX_HEADER_BYTES = 16384
_MAX_BODY_BYTES = 1 << 20


def _dumps(payload: Any) -> str:
    return json.dumps(payload, default=repr, sort_keys=True)


class HttpError(Exception):
    """Abort a request: answer *status* with ``{"error": message}``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class Reply(NamedTuple):
    """One response.  With *events* the connection stays open after
    *body* (the stream's first frame), fed by that broker."""

    status: int
    body: bytes
    content_type: str = "application/json"
    events: Optional["SSEBroker"] = None


def json_reply(payload: Any, status: int = 200) -> Reply:
    return Reply(status, _dumps(payload).encode("utf-8"))


class _Client:
    """One SSE connection: a bounded frame queue and its wake-up."""

    __slots__ = ("frames", "ready")

    def __init__(self, size: int) -> None:
        self.frames: Deque[str] = deque(maxlen=size)  # full: drops oldest
        self.ready = asyncio.Event()


class SSEBroker:
    """Fans the events of one bus out to the connected SSE clients.

    :meth:`follow` names the bus; the broker subscribes to it when the
    first client attaches and unsubscribes when the last one detaches.
    """

    def __init__(self, queue_size: int = DEFAULT_QUEUE_SIZE) -> None:
        self._queue_size = queue_size
        self._clients: List[_Client] = []
        self._bus: Optional[EventBus] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[int] = None
        # Guards the subscription: follow() may run on another thread.
        self._lock = threading.Lock()

    @property
    def clients(self) -> int:
        return len(self._clients)

    def follow(self, bus: EventBus) -> None:
        """Stream *bus* from now on, in place of any bus before it."""
        with self._lock:
            if self._clients and self._bus is not None:
                self._bus.unsubscribe(self.on_event)
            self._bus = bus
            if self._clients:
                bus.subscribe(self.on_event)

    def attach(self) -> _Client:
        """A new client queue; called on the loop that serves it."""
        client = _Client(self._queue_size)
        with self._lock:
            self._loop = asyncio.get_running_loop()
            self._loop_thread = threading.get_ident()
            if not self._clients and self._bus is not None:
                self._bus.subscribe(self.on_event)
            self._clients.append(client)
        return client

    def detach(self, client: _Client) -> None:
        with self._lock:
            self._clients.remove(client)
            if not self._clients and self._bus is not None:
                self._bus.unsubscribe(self.on_event)

    def on_event(self, event: ObsEvent) -> None:
        """The bus subscriber: render on the emitting thread, queue on
        the loop."""
        frame = f"data: {_dumps(event_to_dict(event))}\n\n"
        if threading.get_ident() == self._loop_thread:
            self._publish(frame)
            return
        try:
            self._loop.call_soon_threadsafe(self._publish, frame)
        except RuntimeError:
            pass  # the loop has closed: nobody is listening any more

    def _publish(self, frame: str) -> None:
        for client in self._clients:
            client.frames.append(frame)
            client.ready.set()

    def reply(self, state: Any) -> Reply:
        """Open a stream whose first frame is ``dash.hello`` with *state*."""
        hello = _dumps({"name": "dash.hello", "state": state})
        first = f"retry: 2000\ndata: {hello}\n\n".encode("utf-8")
        return Reply(200, first, "text/event-stream", self)


class HttpServer:
    """Listen on *host*:*port* (0 = ephemeral) and answer :meth:`route`."""

    #: Log one line per request to stderr.
    verbose = False

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        #: Feeds this server's ``/events`` stream; see :meth:`SSEBroker.follow`.
        self.broker = SSEBroker()
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: Set["asyncio.Task[None]"] = set()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/"

    async def start(self) -> int:
        """Bind and listen; returns the actual port."""
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port,
            limit=_MAX_HEADER_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def close(self) -> None:
        """Stop listening and end every open connection, streams too."""
        if self._server is None:
            return
        self._server.close()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        await self._server.wait_closed()
        self._server = None

    async def route(
        self, method: str, path: str, body: Optional[Dict[str, Any]]
    ) -> Reply:
        """Answer one request; *path* has no query and no trailing /."""
        raise HttpError(404, f"no such resource {path!r}")

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._tasks.add(task)
        request = "-"
        try:
            try:
                method, path, body = await _read_request(reader)
                request = f"{method} {path}"
                path = path.split("?", 1)[0].rstrip("/") or "/"
                reply = await self.route(method, path, body)
            except HttpError as fail:
                reply = json_reply({"error": fail.message}, fail.status)
            except ReproError as exc:
                reply = json_reply({"error": str(exc)}, 400)
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                reply = json_reply(
                    {"error": f"{type(exc).__name__}: {exc}"}, 500
                )
            if self.verbose:
                print(f"{request} {reply.status}", file=sys.stderr)
            length = (
                "" if reply.events else f"Content-Length: {len(reply.body)}\r\n"
            )
            head = (
                f"HTTP/1.1 {reply.status} {HTTPStatus(reply.status).phrase}\r\n"
                f"Content-Type: {reply.content_type}\r\n{length}"
                "Cache-Control: no-store\r\nConnection: close\r\n\r\n"
            ).encode("ascii") + reply.body
            if reply.events is None:
                writer.write(head)
                await writer.drain()
            else:
                await _stream(reply.events, head, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # the client went away; nothing left to answer
        except asyncio.CancelledError:
            pass  # close() ends the connection; the task ends quietly
        finally:
            self._tasks.discard(task)
            writer.close()


async def _stream(
    broker: SSEBroker,
    head: bytes,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Feed one SSE client until it hangs up or the server closes."""
    client = broker.attach()
    try:
        writer.write(head)
        while not reader.at_eof():
            await writer.drain()
            try:
                await asyncio.wait_for(client.ready.wait(), HEARTBEAT_SECONDS)
            except asyncio.TimeoutError:
                writer.write(b": keepalive\n\n")
                continue
            client.ready.clear()
            frames = "".join(client.frames)
            client.frames.clear()
            writer.write(frames.encode("utf-8"))
    finally:
        broker.detach(client)


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Optional[Dict[str, Any]]]:
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError:
        raise HttpError(413, "headers too large") from None
    request_line, *headers = head.decode("latin-1").split("\r\n")
    parts = request_line.split()
    if len(parts) < 2:
        raise HttpError(400, "malformed request line")
    length = "0"
    for header in headers:
        name, _, value = header.partition(":")
        if name.strip().lower() == "content-length":
            length = value.strip()
    if not length.isdigit():
        raise HttpError(400, "bad Content-Length")
    if int(length) > _MAX_BODY_BYTES:
        raise HttpError(413, "body too large")
    body: Optional[Dict[str, Any]] = None
    if int(length):
        raw = await reader.readexactly(int(length))
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"body is not JSON: {exc}") from None
        if not isinstance(body, dict):
            raise HttpError(400, "body must be a JSON object")
    return parts[0].upper(), parts[1], body
