"""Async serving front-end for the network optimization engine.

The paper's Table 2 argument — analytical modeling makes design-space
exploration cheap enough to run *on demand* — only pays off in practice
if many clients can ask for optimizations concurrently against one
shared store of results.  This package is that front-end:

* :class:`OptimizationServer` — an asyncio service over
  :class:`~repro.engine.network.NetworkOptimizer`'s building blocks:
  bounded priority queue with deadlines and reject-with-retry-after
  back-pressure, per-request streaming progress events, and
  single-flight coalescing of identical in-flight operator solves
  through the two-tier result cache's one in-flight table.
* :class:`ServingClient` / :class:`TCPServingClient` — in-process and
  JSON-lines-over-TCP clients with overload retry; the TCP client adds
  connect/read/write timeouts (``timeout_s``) and
  :class:`~repro.reliability.RetryPolicy`-driven reconnect.
* :mod:`repro.serving.protocol` — the plain-data events and responses
  flowing through both transports (the request type is the API-wide
  :class:`repro.api.types.OptimizeRequest`, re-exported here).
* ``python -m repro serve|demo`` — a TCP endpoint (with graceful drain
  on shutdown via ``--drain-timeout``) and a concurrent-client demo.

The usual embedding is :meth:`repro.api.Session.optimize_async`, which
lazily runs one :class:`OptimizationServer` over the session's
machine/strategy/cache.  The server supports graceful shutdown
(``stop(drain=True, drain_timeout=...)``: stop admissions, finish
accepted requests) and cancellation of abandoned requests
(:meth:`OptimizationServer.cancel`, wired to TCP client disconnects so
a dropped connection stops holding a queue slot).

Quick in-process use::

    import asyncio
    from repro import coffee_lake_i7_9700k
    from repro.engine import ResultCache
    from repro.serving import OptimizationServer, OptimizeRequest, ServingClient

    async def main():
        server = OptimizationServer(
            coffee_lake_i7_9700k(),
            "mopt",
            strategy_options={"threads": 8, "measure": False},
            cache=ResultCache("~/.cache/repro-results"),
        )
        async with server:
            client = ServingClient(server)
            responses = await client.optimize_many(
                ["resnet18"] * 8    # eight concurrent requests, one solve set
            )
            print(responses[0].total_gflops, server.duplicate_solves())  # ... 0

    asyncio.run(main())
"""

from .client import ServingClient, ServingTimeoutError, TCPServingClient
from .protocol import (
    AcceptedEvent,
    CompletedEvent,
    ExpiredEvent,
    FailedEvent,
    OperatorEvent,
    OperatorFigure,
    OptimizeRequest,
    OptimizeResponse,
    RejectedEvent,
    ServingEvent,
    collect_operator_events,
    decode_message,
    encode_message,
    event_from_dict,
    event_to_dict,
)
from .queue import BoundedRequestQueue, QueueFullError
from .server import (
    DeadlineExpiredError,
    OptimizationServer,
    RequestFailedError,
    RequestHandle,
    ServerConfig,
    ServerOverloadedError,
    ServerStats,
    start_tcp_server,
)

__all__ = [
    "AcceptedEvent",
    "BoundedRequestQueue",
    "CompletedEvent",
    "DeadlineExpiredError",
    "ExpiredEvent",
    "FailedEvent",
    "OperatorEvent",
    "OperatorFigure",
    "OptimizationServer",
    "OptimizeRequest",
    "OptimizeResponse",
    "QueueFullError",
    "RejectedEvent",
    "RequestFailedError",
    "RequestHandle",
    "ServerConfig",
    "ServerOverloadedError",
    "ServerStats",
    "ServingClient",
    "ServingEvent",
    "ServingTimeoutError",
    "TCPServingClient",
    "collect_operator_events",
    "decode_message",
    "encode_message",
    "event_from_dict",
    "event_to_dict",
    "start_tcp_server",
]
