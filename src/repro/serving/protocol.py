"""Wire protocol of the optimization service: events and responses.

Everything here is plain data with explicit ``to_dict``/``from_dict``
converters and a JSON-lines framing (:func:`encode_message` /
:func:`decode_message`), so the same messages flow unchanged through the
in-process API, the TCP transport and the tests.  The request type is
the API-wide :class:`repro.api.types.OptimizeRequest` (re-exported here
for compatibility) and :class:`OptimizeResponse` is a thin wire
projection of the engine's :class:`~repro.engine.network.NetworkResult`
— the serving layer encodes the shared types rather than defining a
parallel hierarchy.

The streaming shape of one request's lifetime is::

    -> OptimizeRequest
    <- AcceptedEvent          (admitted; the queue depth admission found)
    <- OperatorEvent * N      (one per layer, as each operator completes)
    <- CompletedEvent         (terminal: aggregates + per-layer figures)

or a terminal :class:`RejectedEvent` (back-pressure, with a
``retry_after_s`` hint), :class:`ExpiredEvent` (deadline passed before
completion) or :class:`FailedEvent` (strategy error).  A request whose
operators are all cached is answered at admission, ahead of queued
work: its whole stream is ready when ``submit`` returns, and it is
never rejected or expired.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Union

from ..api.types import OptimizeRequest, next_request_id
from ..engine.network import NetworkResult

__all__ = [
    "MAX_LINE_BYTES",
    "AcceptedEvent",
    "CompletedEvent",
    "ExpiredEvent",
    "FailedEvent",
    "OperatorEvent",
    "OperatorFigure",
    "OptimizeRequest",
    "OptimizeResponse",
    "RejectedEvent",
    "ServingEvent",
    "collect_operator_events",
    "decode_message",
    "encode_message",
    "event_from_dict",
    "event_to_dict",
    "next_request_id",
]


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AcceptedEvent:
    """The request was admitted.

    ``queue_depth`` is the queue depth admission found: with the
    request itself when it was queued, without it when it was answered
    from the cache tiers at admission.
    """

    request_id: str
    queue_depth: int

    type: str = field(default="accepted", init=False)
    terminal: bool = field(default=False, init=False)


@dataclass(frozen=True)
class RejectedEvent:
    """Back-pressure: the queue is full; retry after the given delay."""

    request_id: str
    reason: str
    retry_after_s: float

    type: str = field(default="rejected", init=False)
    terminal: bool = field(default=True, init=False)


@dataclass(frozen=True)
class ExpiredEvent:
    """The request's deadline passed before it completed."""

    request_id: str
    deadline_s: float
    waited_s: float

    type: str = field(default="expired", init=False)
    terminal: bool = field(default=True, init=False)


@dataclass(frozen=True)
class OperatorEvent:
    """Streaming progress: one operator of the request finished.

    ``cached`` means the result came from the shared cache without any
    solve; ``coalesced`` means this request shared another in-flight
    request's solve of the identical operator (single-flight).
    """

    request_id: str
    operator: str
    index: int
    total: int
    gflops: float
    time_seconds: float
    cached: bool
    coalesced: bool

    type: str = field(default="operator", init=False)
    terminal: bool = field(default=False, init=False)


@dataclass(frozen=True)
class CompletedEvent:
    """Terminal success: aggregates of the whole network."""

    request_id: str
    response: "OptimizeResponse"

    type: str = field(default="completed", init=False)
    terminal: bool = field(default=True, init=False)


@dataclass(frozen=True)
class FailedEvent:
    """Terminal failure inside the solve itself."""

    request_id: str
    error: str

    type: str = field(default="failed", init=False)
    terminal: bool = field(default=True, init=False)


ServingEvent = Union[
    AcceptedEvent, RejectedEvent, ExpiredEvent, OperatorEvent, CompletedEvent,
    FailedEvent,
]


# ----------------------------------------------------------------------
# Response
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OperatorFigure:
    """Per-layer slice of a response (JSON-able subset of the outcome)."""

    name: str
    gflops: float
    time_seconds: float
    cached: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "gflops": float(self.gflops),
            "time_seconds": float(self.time_seconds),
            "cached": bool(self.cached),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "OperatorFigure":
        return cls(
            name=payload["name"],
            gflops=float(payload["gflops"]),
            time_seconds=float(payload["time_seconds"]),
            cached=bool(payload["cached"]),
        )


@dataclass(frozen=True)
class OptimizeResponse:
    """Aggregated outcome of one request, with service-time breakdown.

    ``queued_s`` is the time spent waiting for a worker, ``service_s``
    the time spent solving (or waiting on coalesced solves), and their
    sum is the end-to-end latency the client observed server-side.

    ``degraded`` marks a response answered by the server's *fallback*
    strategy because the primary exceeded its per-request solve budget
    (``ServerConfig.solve_timeout_s``): the figures are real, just from
    a cheaper search, and ``strategy`` names the fallback that produced
    them.  Absent on the wire it decodes as ``False``, so pre-existing
    peers interoperate unchanged.
    """

    request_id: str
    network: str
    strategy: str
    machine: str
    num_operators: int
    distinct_operators: int
    cache_hits: int
    coalesced: int
    total_time_seconds: float
    total_gflops: float
    queued_s: float
    service_s: float
    operators: Tuple[OperatorFigure, ...]
    degraded: bool = False

    @property
    def latency_s(self) -> float:
        """End-to-end server-side latency of the request."""
        return self.queued_s + self.service_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "request_id": self.request_id,
            "network": self.network,
            "strategy": self.strategy,
            "machine": self.machine,
            "num_operators": self.num_operators,
            "distinct_operators": self.distinct_operators,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "total_time_seconds": float(self.total_time_seconds),
            "total_gflops": float(self.total_gflops),
            "queued_s": float(self.queued_s),
            "service_s": float(self.service_s),
            "operators": [figure.to_dict() for figure in self.operators],
            "degraded": bool(self.degraded),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "OptimizeResponse":
        return cls(
            request_id=payload["request_id"],
            network=payload["network"],
            strategy=payload["strategy"],
            machine=payload["machine"],
            num_operators=int(payload["num_operators"]),
            distinct_operators=int(payload["distinct_operators"]),
            cache_hits=int(payload["cache_hits"]),
            coalesced=int(payload["coalesced"]),
            total_time_seconds=float(payload["total_time_seconds"]),
            total_gflops=float(payload["total_gflops"]),
            queued_s=float(payload["queued_s"]),
            service_s=float(payload["service_s"]),
            operators=tuple(
                OperatorFigure.from_dict(entry) for entry in payload["operators"]
            ),
            degraded=bool(payload.get("degraded", False)),
        )

    @classmethod
    def from_network_result(
        cls,
        result: NetworkResult,
        *,
        request_id: str,
        coalesced: int,
        queued_s: float,
        service_s: float,
        degraded: bool = False,
    ) -> "OptimizeResponse":
        """Project an engine-level result into the wire response."""
        return cls(
            request_id=request_id,
            network=result.network,
            strategy=result.strategy,
            machine=result.machine_name,
            num_operators=result.num_operators,
            distinct_operators=result.distinct_operators,
            cache_hits=result.cache_hits,
            coalesced=coalesced,
            total_time_seconds=result.total_time_seconds,
            total_gflops=result.total_gflops,
            queued_s=queued_s,
            service_s=service_s,
            operators=tuple(
                OperatorFigure(
                    name=o.spec.name,
                    gflops=o.gflops,
                    time_seconds=o.time_seconds,
                    cached=o.cached,
                )
                for o in result.operators
            ),
            degraded=degraded,
        )


# ----------------------------------------------------------------------
# JSON-lines framing
# ----------------------------------------------------------------------
def event_to_dict(event: ServingEvent) -> Dict[str, Any]:
    """Plain-dict form of any serving event (tagged with ``type``)."""
    if isinstance(event, AcceptedEvent):
        return {
            "type": event.type,
            "request_id": event.request_id,
            "queue_depth": event.queue_depth,
        }
    if isinstance(event, RejectedEvent):
        return {
            "type": event.type,
            "request_id": event.request_id,
            "reason": event.reason,
            "retry_after_s": float(event.retry_after_s),
        }
    if isinstance(event, ExpiredEvent):
        return {
            "type": event.type,
            "request_id": event.request_id,
            "deadline_s": float(event.deadline_s),
            "waited_s": float(event.waited_s),
        }
    if isinstance(event, OperatorEvent):
        return {
            "type": event.type,
            "request_id": event.request_id,
            "operator": event.operator,
            "index": event.index,
            "total": event.total,
            "gflops": float(event.gflops),
            "time_seconds": float(event.time_seconds),
            "cached": event.cached,
            "coalesced": event.coalesced,
        }
    if isinstance(event, CompletedEvent):
        return {
            "type": event.type,
            "request_id": event.request_id,
            "response": event.response.to_dict(),
        }
    if isinstance(event, FailedEvent):
        return {
            "type": event.type,
            "request_id": event.request_id,
            "error": event.error,
        }
    raise TypeError(f"not a serving event: {event!r}")


def event_from_dict(payload: Mapping[str, Any]) -> ServingEvent:
    """Rebuild a serving event from its tagged-dict form."""
    kind = payload.get("type")
    if kind == "accepted":
        return AcceptedEvent(
            request_id=payload["request_id"],
            queue_depth=int(payload["queue_depth"]),
        )
    if kind == "rejected":
        return RejectedEvent(
            request_id=payload["request_id"],
            reason=payload["reason"],
            retry_after_s=float(payload["retry_after_s"]),
        )
    if kind == "expired":
        return ExpiredEvent(
            request_id=payload["request_id"],
            deadline_s=float(payload["deadline_s"]),
            waited_s=float(payload["waited_s"]),
        )
    if kind == "operator":
        return OperatorEvent(
            request_id=payload["request_id"],
            operator=payload["operator"],
            index=int(payload["index"]),
            total=int(payload["total"]),
            gflops=float(payload["gflops"]),
            time_seconds=float(payload["time_seconds"]),
            cached=bool(payload["cached"]),
            coalesced=bool(payload["coalesced"]),
        )
    if kind == "completed":
        return CompletedEvent(
            request_id=payload["request_id"],
            response=OptimizeResponse.from_dict(payload["response"]),
        )
    if kind == "failed":
        return FailedEvent(
            request_id=payload["request_id"], error=payload["error"]
        )
    raise ValueError(f"unknown event type {kind!r}")


#: Longest JSON line either end of the TCP transport reads (the
#: ``limit`` of its ``asyncio`` streams): room for a request or a
#: response of tens of thousands of layers.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: ``json.dumps(payload, sort_keys=True)`` builds this encoder anew on
#: every call; one shared instance encodes the same bytes.
_ENCODER = json.JSONEncoder(sort_keys=True)


def encode_message(payload: Mapping[str, Any]) -> bytes:
    """One JSON-lines frame (UTF-8, newline terminated)."""
    return (_ENCODER.encode(payload) + "\n").encode("utf-8")


def decode_message(line: bytes) -> Dict[str, Any]:
    """Inverse of :func:`encode_message`."""
    return json.loads(line.decode("utf-8"))


def collect_operator_events(events: Sequence[ServingEvent]) -> List[OperatorEvent]:
    """The per-operator progress slice of an event stream, in order."""
    return [event for event in events if isinstance(event, OperatorEvent)]
