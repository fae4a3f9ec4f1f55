"""The unified request/result family of the public API.

One set of plain-data types is shared by every optimization path:

* :class:`OptimizeRequest` — what a caller asks for (a network or
  operator list, strategy override, priority, deadline).  The sync
  :class:`~repro.api.session.Session` paths, the async serving engine
  and the TCP wire protocol all consume this one type; the serving
  protocol's JSON-lines framing is a thin encoding of it
  (``to_dict``/``from_dict``), not a parallel hierarchy.
* :class:`OpResult` — one operator's outcome (defined in
  :mod:`repro.engine.network`, re-exported here): the return type of
  ``Session.optimize(op)`` and the per-layer slice of every
  :class:`NetworkResult`.
* :class:`NetworkResult` — the aggregated outcome of optimizing every
  operator of one network (also the payload the serving protocol's
  ``OptimizeResponse`` is projected from).
* :class:`StrategyResult` — the strategy-level figure inside every
  :class:`OpResult` (what the persistent cache stores).

Historically :class:`OptimizeRequest` lived in
:mod:`repro.serving.protocol`; it is defined here now and re-exported
there, so all pre-existing imports keep working.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..core.tensor_spec import ConvSpec
from ..engine.network import NetworkResult, OpResult
from ..engine.serialization import spec_from_dict, spec_to_dict
from ..engine.strategy import StrategyResult

_REQUEST_COUNTER = itertools.count(1)


def next_request_id(prefix: str = "req") -> str:
    """Process-unique request id (monotonic; no clock or randomness)."""
    return f"{prefix}-{next(_REQUEST_COUNTER)}"


#: Distinct wire operators whose specs are kept (see :func:`_wire_spec`).
SPEC_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=SPEC_MEMO_SIZE)
def _memo_spec(items: Tuple[Tuple[str, type, Any], ...]) -> ConvSpec:
    return spec_from_dict({name: value for name, _, value in items})


def _wire_spec(entry: Mapping[str, Any]) -> ConvSpec:
    """The :class:`ConvSpec` of one wire operator.

    Warm serving requests name the same operators again and again, and
    each build re-runs the spec's validation, so successful builds are
    memoised, keyed by the payload's items with each value's type (``1``,
    ``1.0`` and ``True`` compare equal, but only ``1`` is a valid
    extent).  A payload that is not a mapping of hashable values takes
    the plain path; one that fails validation raises as before and is not
    kept.
    """
    try:
        items = tuple((name, type(value), value) for name, value in entry.items())
        hash(items)
    except (AttributeError, TypeError):
        return spec_from_dict(entry)
    return _memo_spec(items)


@dataclass(frozen=True)
class OptimizeRequest:
    """One client's ask: optimize a network under a priority and deadline.

    ``network`` is a Table 1 name or an explicit operator list.  Lower
    ``priority`` values are served first (0 = most urgent); ties are
    FIFO.  ``deadline_s`` is a relative budget from submission: a request
    still queued (or mid-flight) when it runs out fails with an
    ``ExpiredEvent`` instead of occupying solve capacity.
    ``strategy``/``strategy_options`` override the server's defaults.
    The priority/deadline fields only apply on the async serving path;
    the synchronous Session paths execute immediately and ignore them.

    ``trace_id``/``parent_span`` carry distributed-tracing context over
    the wire: a traced client stamps its active span here so the
    server's ``serving.request`` span joins the client's trace instead
    of starting a fresh one.  ``client_id`` attributes queue/latency
    telemetry to a tenant; the TCP transport defaults it to the peer
    address when the client leaves it unset.  All three are optional
    and omitted from the wire encoding when unset, so old clients and
    servers interoperate unchanged.
    """

    network: Union[str, Tuple[ConvSpec, ...]]
    request_id: str = field(default_factory=next_request_id)
    strategy: Optional[str] = None
    strategy_options: Mapping[str, Any] = field(default_factory=dict)
    batch: int = 1
    priority: int = 10
    deadline_s: Optional[float] = None
    trace_id: Optional[str] = None
    parent_span: Optional[str] = None
    client_id: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        if isinstance(self.network, str):
            network: Any = self.network
        else:
            network = [spec_to_dict(spec) for spec in self.network]
        payload: Dict[str, Any] = {
            "request_id": self.request_id,
            "network": network,
            "strategy": self.strategy,
            "strategy_options": dict(self.strategy_options),
            "batch": self.batch,
            "priority": self.priority,
            "deadline_s": self.deadline_s,
        }
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        if self.parent_span is not None:
            payload["parent_span"] = self.parent_span
        if self.client_id is not None:
            payload["client_id"] = self.client_id
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "OptimizeRequest":
        network = payload["network"]
        if not isinstance(network, str):
            network = tuple(_wire_spec(entry) for entry in network)
        deadline_s = payload.get("deadline_s")
        return cls(
            network=network,
            request_id=payload.get("request_id") or next_request_id(),
            strategy=payload.get("strategy"),
            strategy_options=dict(payload.get("strategy_options") or {}),
            batch=int(payload.get("batch", 1)),
            priority=int(payload.get("priority", 10)),
            deadline_s=None if deadline_s is None else float(deadline_s),
            trace_id=payload.get("trace_id"),
            parent_span=payload.get("parent_span"),
            client_id=payload.get("client_id"),
        )


__all__ = [
    "NetworkResult",
    "OpResult",
    "OptimizeRequest",
    "StrategyResult",
    "next_request_id",
]
