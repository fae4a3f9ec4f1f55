"""Structured tracing: nestable spans, ring buffer, JSON-lines export.

A *span* is one timed region — ``with span("solve.refine", round=2):``
— carrying a name, attributes, and a ``trace_id``/``span_id``/
``parent_id`` triple that stitches nested spans into a tree.  Finished
spans are appended to a bounded in-memory ring (oldest dropped first)
and exported as JSON-lines via :func:`export_jsonl` /
``Session(trace=...)`` / ``--trace FILE``.

Design constraints this module is built around:

* **Near-zero cost when disabled.**  Tracing is off by default; a
  disabled span still measures its own wall time (two ``perf_counter``
  calls) so callers can use ``sp.elapsed`` as the single source of
  truth for ``wall_seconds`` fields — the timing a user sees and the
  timing a trace records can never disagree — but it allocates no ids
  and touches no shared state.
* **Thread- and task-safe nesting.**  The current span is a
  :mod:`contextvars` variable, so concurrent threads and interleaved
  asyncio tasks each see their own ancestry.
* **Explicit cross-worker propagation.**  Thread pools and process
  pools do not inherit a submitting task's context, so callers
  ship :func:`current_context` with the work item: thread workers wrap
  execution in :func:`activate`; process workers (which cannot reach
  the parent's ring) wrap it in :func:`remote_capture` and return the
  captured records for the parent to :func:`ingest`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "TraceContext",
    "activate",
    "current_context",
    "disable",
    "drain",
    "enable",
    "export_jsonl",
    "ingest",
    "is_enabled",
    "load_jsonl",
    "new_span_id",
    "record_span",
    "remote_capture",
    "snapshot_spans",
    "span",
]

#: ``(trace_id, span_id)`` of the active span — picklable, shippable.
TraceContext = Tuple[str, str]

DEFAULT_RING_SIZE = 65536

_ENABLED = False
_RING_LOCK = threading.Lock()
_RING: deque = deque(maxlen=DEFAULT_RING_SIZE)
_DROPPED = 0

#: Ancestry of the running code path (thread/task-local).
_CURRENT: ContextVar[Optional[TraceContext]] = ContextVar(
    "repro_trace_current", default=None
)
#: Side sink for :func:`remote_capture` — records spans even when the
#: process-wide flag is off (pool workers of an untraced caller).
_SINK: ContextVar[Optional[List[Dict[str, Any]]]] = ContextVar(
    "repro_trace_sink", default=None
)


def _new_id() -> str:
    # os.urandom reads the kernel CSPRNG: fork-safe like uuid4 (children
    # cannot replay the parent's stream) at a fifth of the cost — span
    # ids are minted on the serving hot path, several per request.
    return os.urandom(8).hex()


# getpid() is a syscall; span records are minted several times per
# serving request, so cache it and refresh in fork children, whose
# records must carry their own pid.
_PID = os.getpid()


def _refresh_pid() -> None:
    global _PID
    _PID = os.getpid()


if hasattr(os, "register_at_fork"):  # pragma: no branch
    os.register_at_fork(after_in_child=_refresh_pid)


# ----------------------------------------------------------------------
# enable / disable / buffer access
# ----------------------------------------------------------------------
def enable(ring_size: int = DEFAULT_RING_SIZE) -> None:
    """Turn tracing on process-wide (ring re-sized only if it changes)."""
    global _ENABLED, _RING, _DROPPED
    with _RING_LOCK:
        if _RING.maxlen != ring_size:
            _RING = deque(_RING, maxlen=ring_size)
        _DROPPED = 0
    _ENABLED = True


def disable() -> None:
    """Turn tracing off; the ring keeps whatever it already holds."""
    global _ENABLED
    _ENABLED = False


def is_enabled() -> bool:
    return _ENABLED


def snapshot_spans() -> List[Dict[str, Any]]:
    """Copy of every buffered span record, oldest first."""
    with _RING_LOCK:
        return list(_RING)


def drain() -> List[Dict[str, Any]]:
    """Remove and return every buffered span record, oldest first."""
    with _RING_LOCK:
        records = list(_RING)
        _RING.clear()
        return records


def dropped_spans() -> int:
    """Spans evicted from the ring since :func:`enable` (bounded ring)."""
    return _DROPPED


def _record(rec: Dict[str, Any]) -> None:
    global _DROPPED
    with _RING_LOCK:
        if len(_RING) == _RING.maxlen:
            _DROPPED += 1
        _RING.append(rec)


def ingest(records: List[Dict[str, Any]]) -> None:
    """Append records captured elsewhere (a pool worker) to the ring."""
    for rec in records:
        _record(rec)


# ----------------------------------------------------------------------
# the span context manager
# ----------------------------------------------------------------------
class Span:
    """One timed region.  After ``__exit__``, ``elapsed`` holds the wall
    seconds the region took — valid whether or not tracing recorded it."""

    __slots__ = (
        "name", "attrs", "elapsed", "trace_id", "span_id",
        "_t0", "_wall0", "_token", "_recording", "_parent_id",
    )

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.elapsed = 0.0
        self.trace_id: Optional[str] = None
        self.span_id: Optional[str] = None
        self._token = None
        self._recording = False
        self._parent_id: Optional[str] = None

    def __enter__(self) -> "Span":
        self._recording = _ENABLED or _SINK.get() is not None
        if self._recording:
            parent = _CURRENT.get()
            if parent is None:
                self.trace_id = _new_id()
                self._parent_id = None
            else:
                self.trace_id, self._parent_id = parent
            self.span_id = _new_id()
            self._token = _CURRENT.set((self.trace_id, self.span_id))
            self._wall0 = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed = time.perf_counter() - self._t0
        if not self._recording:
            return
        _CURRENT.reset(self._token)
        rec: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self._parent_id,
            "start_s": self._wall0,
            "duration_s": self.elapsed,
            "pid": _PID,
        }
        if self.attrs:
            rec["attrs"] = self.attrs
        if exc_type is not None:
            rec["error"] = exc_type.__name__
        sink = _SINK.get()
        if sink is not None:
            sink.append(rec)
        elif _ENABLED:
            _record(rec)


def span(name: str, **attrs: Any) -> Span:
    """A nestable timed region: ``with span("solve.refine", round=2):``.

    Always measures (``sp.elapsed`` after exit); records into the ring
    only while tracing is enabled (or inside :func:`remote_capture`).
    """
    return Span(name, attrs)


def new_span_id() -> str:
    """A fresh span/trace id for callers pre-allocating span identity.

    The serving path allocates the ``serving.request`` span id at
    admission so queue-time children can parent to it before the span
    record itself is written (see :func:`record_span`).
    """
    return _new_id()


def record_span(
    name: str,
    duration_s: float,
    *,
    trace_id: Optional[str] = None,
    span_id: Optional[str] = None,
    parent_id: Optional[str] = None,
    end_s: Optional[float] = None,
    **attrs: Any,
) -> Optional[Dict[str, Any]]:
    """Record an already-finished span measured outside a ``with`` block.

    Some regions cannot be a live context manager: a request's queue
    wait starts in ``submit()`` and ends when a worker claims it in a
    different task, and the full request wall is only known at the
    terminal event.  This synthesizes the finished record directly
    (``start_s`` back-dated by ``duration_s`` from ``end_s``/now) and
    appends it to the same ring/sink a :func:`span` exit would.

    Returns the record, or ``None`` when tracing is off (the call is
    then two attribute reads — safe on hot paths).
    """
    sink = _SINK.get()
    if not _ENABLED and sink is None:
        return None
    end = time.time() if end_s is None else end_s
    rec: Dict[str, Any] = {
        "name": name,
        "trace_id": trace_id or _new_id(),
        "span_id": span_id or _new_id(),
        "parent_id": parent_id,
        "start_s": end - duration_s,
        "duration_s": float(duration_s),
        "pid": _PID,
    }
    if attrs:
        rec["attrs"] = attrs
    if sink is not None:
        sink.append(rec)
    else:
        _record(rec)
    return rec


# ----------------------------------------------------------------------
# cross-thread / cross-process propagation
# ----------------------------------------------------------------------
def current_context() -> Optional[TraceContext]:
    """The active ``(trace_id, span_id)``, or None when untraced.

    Ship this with work items submitted to thread/process pools, then
    :func:`activate` (threads) or :func:`remote_capture` (processes) it
    on the other side so worker spans join the submitter's trace.
    """
    if not (_ENABLED or _SINK.get() is not None):
        return None
    return _CURRENT.get()


@contextmanager
def activate(ctx: Optional[TraceContext]) -> Iterator[None]:
    """Adopt a shipped context as the current ancestry (thread pools)."""
    if ctx is None:
        yield
        return
    token = _CURRENT.set(ctx)
    try:
        yield
    finally:
        _CURRENT.reset(token)


@contextmanager
def remote_capture(
    ctx: Optional[TraceContext],
) -> Iterator[Optional[List[Dict[str, Any]]]]:
    """Capture spans in a process-pool worker under a shipped context.

    The worker cannot append to the parent's ring, so spans are
    collected into the yielded list; the caller returns it with the
    task result and the parent calls :func:`ingest`.  With ``ctx is
    None`` (parent untraced) this is a no-op yielding ``None``.
    """
    if ctx is None:
        yield None
        return
    records: List[Dict[str, Any]] = []
    sink_token = _SINK.set(records)
    cur_token = _CURRENT.set(ctx)
    try:
        yield records
    finally:
        _CURRENT.reset(cur_token)
        _SINK.reset(sink_token)


# ----------------------------------------------------------------------
# JSON-lines export / import
# ----------------------------------------------------------------------
def export_jsonl(path: Union[str, Path]) -> int:
    """Write every buffered span as one JSON object per line.

    Returns the number of spans written.  The write is atomic
    (temp + rename) so a reader never sees a torn file.
    """
    records = snapshot_spans()
    path = Path(path).expanduser()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return len(records)


def load_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read a trace file back; malformed lines are skipped, not fatal."""
    records: List[Dict[str, Any]] = []
    with Path(path).expanduser().open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(rec, dict) and "name" in rec:
                records.append(rec)
    return records
