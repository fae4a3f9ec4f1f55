"""Clients of the optimization service: in-process and TCP.

:class:`ServingClient` drives an in-process
:class:`~repro.serving.server.OptimizationServer` (the normal embedding:
one process, many concurrent asyncio clients sharing one cache).
:class:`TCPServingClient` speaks the same JSON-lines protocol over a
socket to a server started with
:func:`~repro.serving.server.start_tcp_server`.

Both expose the same surface: ``optimize(...)`` returns the terminal
:class:`~repro.serving.protocol.OptimizeResponse` (honoring the server's
back-pressure by retrying after the hinted delay, up to
``max_retries``), with an optional ``on_event`` callback observing the
streaming per-operator progress.

The TCP client is additionally hardened against a misbehaving peer:
``timeout_s`` bounds connect, write-drain and the silence between
events (a hung server raises :class:`ServingTimeoutError` instead of
blocking forever), and an optional
:class:`~repro.reliability.RetryPolicy` drives automatic reconnect — a
dropped/hung connection is reopened on the policy's backoff schedule
and the request resent (idempotent server-side: re-solves hit the
shared cache).  Reconnects increment the ``health.tcp.reconnects``
counter.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..api.types import next_request_id
from ..obs.metrics import REGISTRY
from ..obs.trace import current_context, span
from ..reliability import RetryPolicy

from ..core.tensor_spec import ConvSpec
from .protocol import (
    MAX_LINE_BYTES,
    CompletedEvent,
    ExpiredEvent,
    FailedEvent,
    OptimizeRequest,
    OptimizeResponse,
    RejectedEvent,
    ServingEvent,
    decode_message,
    encode_message,
    event_from_dict,
)
from .server import (
    DeadlineExpiredError,
    EventBuffer,
    OptimizationServer,
    RequestFailedError,
    ServerOverloadedError,
)

EventCallback = Callable[[ServingEvent], None]
NetworkArg = Union[str, Sequence[ConvSpec]]


class ServingTimeoutError(Exception):
    """The TCP peer went silent past the client's ``timeout_s``."""


def _as_request(
    network: NetworkArg,
    *,
    strategy: Optional[str],
    strategy_options: Optional[Mapping[str, Any]],
    batch: int,
    priority: int,
    deadline_s: Optional[float],
    trace_id: Optional[str] = None,
    parent_span: Optional[str] = None,
) -> OptimizeRequest:
    if not isinstance(network, str):
        network = tuple(network)
    return OptimizeRequest(
        network=network,
        strategy=strategy,
        strategy_options=dict(strategy_options or {}),
        batch=batch,
        priority=priority,
        deadline_s=deadline_s,
        trace_id=trace_id,
        parent_span=parent_span,
    )


def _network_label(network: NetworkArg) -> str:
    return network if isinstance(network, str) else f"<{len(network)} ops>"


class ServingClient:
    """In-process client of one :class:`OptimizationServer`."""

    def __init__(self, server: OptimizationServer, *, max_retries: int = 5):
        self.server = server
        self.max_retries = max_retries
        self.rejections = 0

    async def optimize(
        self,
        network: NetworkArg,
        *,
        strategy: Optional[str] = None,
        strategy_options: Optional[Mapping[str, Any]] = None,
        batch: int = 1,
        priority: int = 10,
        deadline_s: Optional[float] = None,
        on_event: Optional[EventCallback] = None,
    ) -> OptimizeResponse:
        """Submit one request and await its response.

        Overload rejections are retried after the server's
        ``retry_after_s`` hint, up to ``max_retries`` times; the final
        rejection propagates as :class:`ServerOverloadedError`.

        When tracing is enabled the whole call is one
        ``serving.client.request`` span; the server's ``serving.request``
        span joins it through the ambient context (same process), so a
        request's client-side wall and its server-side decomposition
        land in one trace.
        """
        with span(
            "serving.client.request",
            transport="inproc",
            network=_network_label(network),
        ):
            ctx = current_context()
            request = _as_request(
                network,
                strategy=strategy,
                strategy_options=strategy_options,
                batch=batch,
                priority=priority,
                deadline_s=deadline_s,
                trace_id=ctx[0] if ctx else None,
                parent_span=ctx[1] if ctx else None,
            )
            attempts = 0
            while True:
                try:
                    handle = self.server.submit(request)
                except ServerOverloadedError as error:
                    self.rejections += 1
                    attempts += 1
                    if attempts > self.max_retries:
                        raise
                    await asyncio.sleep(error.retry_after_s)
                    continue
                if on_event is None:
                    return await handle.result()
                async for event in handle.events():
                    on_event(event)
                return await handle.result()

    async def optimize_many(
        self,
        networks: Sequence[NetworkArg],
        *,
        strategy: Optional[str] = None,
        strategy_options: Optional[Mapping[str, Any]] = None,
        priority: int = 10,
        deadline_s: Optional[float] = None,
    ) -> List[OptimizeResponse]:
        """Optimize several networks concurrently (one request each)."""
        return list(
            await asyncio.gather(
                *(
                    self.optimize(
                        network,
                        strategy=strategy,
                        strategy_options=strategy_options,
                        priority=priority,
                        deadline_s=deadline_s,
                    )
                    for network in networks
                )
            )
        )


class TCPServingClient:
    """JSON-lines TCP client of :func:`start_tcp_server`.

    One connection can carry many concurrent requests; events are routed
    back to their request by ``request_id``.

    ``timeout_s`` (default 30 s, ``None`` disables) bounds the connect,
    each write-drain, and the maximum silence between events of an
    in-flight request; past it :class:`ServingTimeoutError` is raised.
    ``reconnect`` (a :class:`~repro.reliability.RetryPolicy`) makes a
    client built via :meth:`connect` transparently reopen a dropped or
    hung connection and resend the interrupted request on the policy's
    backoff schedule; without it connection errors propagate as before.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        max_retries: int = 5,
        timeout_s: Optional[float] = 30.0,
        reconnect: Optional[RetryPolicy] = None,
    ):
        self._reader = reader
        self._writer = writer
        self.max_retries = max_retries
        self.timeout_s = timeout_s
        self.reconnect = reconnect
        self.rejections = 0
        self.reconnects = 0
        #: request id -> the frames read for it so far.
        self._streams: Dict[str, EventBuffer] = {}
        self._reader_task: Optional["asyncio.Task[None]"] = None
        # Populated by connect(); reconnect only works with an address.
        self._host: Optional[str] = None
        self._port: Optional[int] = None

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 8763,
        *,
        max_retries: int = 5,
        timeout_s: Optional[float] = 30.0,
        reconnect: Optional[RetryPolicy] = None,
    ) -> "TCPServingClient":
        """Open a connection to a serving endpoint (bounded by ``timeout_s``)."""
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port, limit=MAX_LINE_BYTES), timeout_s
        )
        client = cls(
            reader, writer,
            max_retries=max_retries, timeout_s=timeout_s, reconnect=reconnect,
        )
        client._host, client._port = host, port
        client._reader_task = asyncio.ensure_future(client._read_loop())
        return client

    async def close(self) -> None:
        """Close the connection (pending requests fail with EOF errors)."""
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def __aenter__(self) -> "TCPServingClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        """Demultiplex incoming event lines to per-request buffers."""
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    payload = decode_message(line)
                except (ValueError, KeyError):
                    continue
                if payload.get("type") == "stats":
                    # Stats replies are raw dicts, not serving events —
                    # route them to their waiter before event decoding
                    # (which rejects unknown frame types).
                    stream = self._streams.get(payload.get("request_id"))
                    if stream is not None:
                        stream.put(payload)
                    continue
                try:
                    event = event_from_dict(payload)
                except (ValueError, KeyError):
                    continue
                stream = self._streams.get(event.request_id)
                if stream is not None:
                    stream.put(event)
        finally:
            eof = ConnectionResetError("connection closed by server")
            for stream in self._streams.values():
                stream.put(eof)

    async def _reconnect(self) -> None:
        """Tear down the dead connection and open a fresh one."""
        assert self._host is not None and self._port is not None
        if self._reader_task is not None:
            self._reader_task.cancel()
            await asyncio.gather(self._reader_task, return_exceptions=True)
            self._reader_task = None
        try:
            self._writer.close()
        except Exception:
            pass  # the transport may already be gone
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self._host, self._port, limit=MAX_LINE_BYTES),
            self.timeout_s,
        )
        self._reader, self._writer = reader, writer
        self._reader_task = asyncio.ensure_future(self._read_loop())
        self.reconnects += 1
        REGISTRY.counter("health.tcp.reconnects").inc()

    async def _roundtrip_reconnecting(
        self, request: OptimizeRequest, on_event: Optional[EventCallback]
    ) -> Tuple[Optional[OptimizeResponse], Optional[ServingEvent]]:
        """One request, transparently resent across reconnects.

        Connection loss and peer silence are retried on the ``reconnect``
        policy's backoff schedule (when one was given and the client
        knows its address); resending is safe because the server treats
        each line independently and re-solves hit the shared cache.
        """
        attempt = 0
        while True:
            try:
                return await self._roundtrip(request, on_event)
            except (
                ConnectionResetError,
                BrokenPipeError,
                ServingTimeoutError,
                OSError,
            ):
                policy = self.reconnect
                attempt += 1
                if (
                    policy is None
                    or self._host is None
                    or attempt >= policy.max_attempts
                ):
                    raise
                await asyncio.sleep(policy.delay_for(attempt))
                try:
                    await self._reconnect()
                except (OSError, asyncio.TimeoutError):
                    # Peer still down: burn this attempt and let the next
                    # loop iteration surface the failure (or retry again).
                    continue

    async def _roundtrip(
        self, request: OptimizeRequest, on_event: Optional[EventCallback]
    ) -> Tuple[Optional[OptimizeResponse], Optional[ServingEvent]]:
        """Send one request; return (response, terminal rejection/None).

        One ``asyncio.timeout`` window covers the whole exchange.  It is
        set ``timeout_s`` ahead when the request is written, which bounds
        the write-drain and the silence before the first event, and
        pushed ``timeout_s`` ahead again after every batch of events,
        which bounds the silence before the next.  Events already read
        are taken without waiting.
        """
        stream = EventBuffer()
        self._streams[request.request_id] = stream
        loop = asyncio.get_running_loop()
        timeout_s = self.timeout_s
        draining = True
        try:
            async with asyncio.timeout(None) as window:
                self._writer.write(encode_message(request.to_dict()))
                if timeout_s is not None:
                    window.reschedule(loop.time() + timeout_s)
                await self._writer.drain()
                draining = False
                while True:
                    if not stream.items:
                        await stream.wait()
                    for event in stream.take():
                        if isinstance(event, BaseException):
                            raise event
                        if on_event is not None:
                            on_event(event)
                        if isinstance(event, CompletedEvent):
                            return event.response, None
                        if isinstance(event, RejectedEvent):
                            return None, event
                        if isinstance(event, ExpiredEvent):
                            raise DeadlineExpiredError(
                                f"request {request.request_id} expired after "
                                f"{event.waited_s * 1e3:.1f} ms"
                            )
                        if isinstance(event, FailedEvent):
                            raise RequestFailedError(event.error)
                    if timeout_s is not None:
                        window.reschedule(loop.time() + timeout_s)
        except TimeoutError:
            if not window.expired():
                raise
            if draining:
                raise ServingTimeoutError(
                    f"write stalled past {timeout_s:.1f}s"
                ) from None
            raise ServingTimeoutError(
                f"no event from server within {timeout_s:.1f}s "
                f"for request {request.request_id}"
            ) from None
        finally:
            self._streams.pop(request.request_id, None)

    async def optimize(
        self,
        network: NetworkArg,
        *,
        strategy: Optional[str] = None,
        strategy_options: Optional[Mapping[str, Any]] = None,
        batch: int = 1,
        priority: int = 10,
        deadline_s: Optional[float] = None,
        on_event: Optional[EventCallback] = None,
    ) -> OptimizeResponse:
        """Submit one request over TCP and await its terminal response.

        When tracing is enabled the whole call is one
        ``serving.client.request`` span whose ``(trace_id, span_id)``
        rides the wire in the request payload — the server's
        ``serving.request`` span (and its queue/coalesce/solve/respond
        children) parents to it, so one trace id covers the request from
        the client socket through the solve pool and back.
        """
        with span(
            "serving.client.request",
            transport="tcp",
            network=_network_label(network),
        ):
            ctx = current_context()
            attempts = 0
            while True:
                request = _as_request(
                    network,
                    strategy=strategy,
                    strategy_options=strategy_options,
                    batch=batch,
                    priority=priority,
                    deadline_s=deadline_s,
                    trace_id=ctx[0] if ctx else None,
                    parent_span=ctx[1] if ctx else None,
                )
                response, rejection = await self._roundtrip_reconnecting(
                    request, on_event
                )
                if response is not None:
                    return response
                assert rejection is not None
                self.rejections += 1
                attempts += 1
                if attempts > self.max_retries:
                    raise ServerOverloadedError(rejection.retry_after_s)
                await asyncio.sleep(rejection.retry_after_s)

    async def stats(
        self, *, prometheus: bool = False
    ) -> Union[Dict[str, Any], str]:
        """Fetch the server's stats over the wire (the ``stats`` verb).

        Returns the server's :meth:`OptimizationServer.stats_snapshot`
        dict, or — with ``prometheus=True`` — the process-wide metrics
        snapshot rendered as Prometheus text exposition (a ``str``).
        """
        request_id = next_request_id("stats")
        fmt = "prometheus" if prometheus else "json"
        stream = EventBuffer()
        self._streams[request_id] = stream
        try:
            self._writer.write(
                encode_message(
                    {"verb": "stats", "request_id": request_id, "format": fmt}
                )
            )
            try:
                await asyncio.wait_for(self._writer.drain(), self.timeout_s)
            except asyncio.TimeoutError:
                raise ServingTimeoutError(
                    f"write stalled past {self.timeout_s:.1f}s"
                ) from None
            try:
                async with asyncio.timeout(self.timeout_s):
                    await stream.wait()
            except TimeoutError:
                raise ServingTimeoutError(
                    f"no stats reply within {self.timeout_s:.1f}s"
                ) from None
            reply = stream.items[0]
            if isinstance(reply, BaseException):
                raise reply
            if isinstance(reply, FailedEvent):
                raise RequestFailedError(reply.error)
            return reply["prometheus"] if prometheus else reply["stats"]
        finally:
            self._streams.pop(request_id, None)
