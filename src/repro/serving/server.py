"""Async serving front-end over the network-level optimization engine.

:class:`OptimizationServer` turns :class:`~repro.engine.network`'s
one-shot API into a long-lived service that many concurrent clients can
share:

* :meth:`OptimizationServer.submit` looks a request up in both cache
  tiers on the event loop, and a request whose operators are all
  cached, in memory or on disk, is answered right there, at admission:
  ahead of queued work, without a queue slot or a worker, and never
  rejected or expired.  The trade-off: the loop does a page-cache read
  under the disk store's lock, which a concurrent put holds for its
  append and flush;
* a request with a miss enters a
  :class:`~repro.serving.queue.BoundedRequestQueue` (per-request
  priorities and deadlines, reject-with-retry-after when the backlog is
  full), carrying its lookup;
* a fixed set of asyncio workers claims queued requests, looks up again
  only the keys that missed, and solves each network's *distinct*
  missing operators through the result cache's one single-flight table
  (:meth:`~repro.engine.cache.ResultCache.flight`) — identical
  operators requested by concurrent clients are solved exactly once, no
  matter how the requests interleave, and a request that joins
  another's solve awaits it on the event loop without holding a pool
  thread;
* actual solves run on a bounded thread pool so the event loop stays
  responsive while scipy works;
* every request streams progress events (one per completed operator)
  and ends with a terminal completed/rejected/expired/failed event.

The server also exposes a **solve-count probe**
(:attr:`OptimizationServer.solve_counts`): how many times each cache key
was actually computed.  Tests and the demo use it to verify the
"every duplicate operator solved exactly once" property end to end.
:meth:`OptimizationServer.stats_snapshot` widens the probe into one
JSON-ready payload that also covers the process-global compile cache
(shape-family plan reuse) and the intra-operator solve pool.

A thin TCP transport (:func:`start_tcp_server`) frames the same protocol
as JSON lines over a socket for out-of-process clients.

**Failure handling.**  A long-lived replica must degrade, not die:

* ``ServerConfig.solve_timeout_s`` bounds each request's *primary*
  solve; past the budget the request is re-answered by the configured
  cheaper ``fallback_strategy`` and the response is marked
  ``degraded=True`` (the primary's pool solves keep running in the
  background and still warm the shared cache for the next request);
* a **watchdog** task sweeps in-flight requests every
  ``watchdog_interval_s`` and force-expires any still live past its
  deadline — hung requests (a wedged worker, a stuck solve thread) get
  a terminal :class:`~repro.serving.protocol.ExpiredEvent` instead of
  holding a slot forever (counter ``serving.watchdog_failures``);
* every degradation/recovery increments a ``health.*`` counter of the
  metrics registry, surfaced under the ``"reliability"`` key of
  :meth:`OptimizationServer.stats_snapshot`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, AsyncIterator, Dict, List, Mapping, Optional, Set, Tuple, Union

from ..core import solve_pool  # noqa: F401 — registers its stat collector
from ..core.batched import table_cache_stats  # noqa: F401 — collector import
from ..core.cost_model import DEFAULT_COMPILE_CACHE  # noqa: F401 — collector import
from ..core.tensor_spec import ConvSpec
from ..engine.cache import ResultCache, resolve_cache
from ..engine.network import build_network_result, resolve_network
from ..engine.serialization import spec_shape_key
from ..engine.strategy import SearchStrategy, StrategyResult, get_strategy
from ..machine.spec import MachineSpec
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.export import render_prometheus
from ..obs.trace import activate, current_context, record_span, span
from ..reliability.faults import fault_point
from .protocol import (
    AcceptedEvent,
    CompletedEvent,
    ExpiredEvent,
    FailedEvent,
    OperatorEvent,
    OptimizeRequest,
    OptimizeResponse,
    RejectedEvent,
    ServingEvent,
    event_to_dict,
    encode_message,
)
from .queue import BoundedRequestQueue, QueueFullError


class ServerOverloadedError(Exception):
    """Admission failed: the request queue is full.  Retry later."""

    def __init__(self, retry_after_s: float):
        super().__init__(f"server overloaded; retry after {retry_after_s:.2f}s")
        self.retry_after_s = retry_after_s


class DeadlineExpiredError(Exception):
    """The request's deadline passed before its result was ready."""


class RequestFailedError(Exception):
    """The strategy raised while solving the request."""


@dataclass(frozen=True)
class ServerConfig:
    """Tunable knobs of one :class:`OptimizationServer`.

    ``max_queue_depth`` bounds the admission queue (back-pressure beyond
    it); ``workers`` is how many requests are serviced concurrently;
    ``solve_threads`` bounds the thread pool actually running solver
    code (the hard cap on CPU oversubscription no matter how many
    requests are in flight); ``retry_after_s`` seeds the back-off hint
    given to rejected clients.

    ``solve_timeout_s`` is the per-request budget of the *primary*
    strategy: when it is exceeded and ``fallback_strategy`` names a
    (cheaper) registered strategy, the request is re-answered by the
    fallback and the response marked ``degraded`` instead of expiring.
    ``watchdog_interval_s`` is how often the watchdog sweeps in-flight
    requests for ones hung past their deadline.
    """

    max_queue_depth: int = 64
    workers: int = 4
    solve_threads: int = 4
    retry_after_s: float = 0.25
    default_deadline_s: Optional[float] = None
    solve_timeout_s: Optional[float] = None
    fallback_strategy: Optional[str] = None
    watchdog_interval_s: float = 0.1


@dataclass
class ServerStats:
    """Aggregate counters over the server's lifetime.

    All ``operators_*`` figures count *layers* (the unit responses use),
    not distinct shapes: a coalesced shape shared by three layers of one
    request adds three to ``operators_coalesced``.  ``solves`` counts
    actual strategy invocations (distinct shapes computed).
    """

    accepted: int = 0
    rejected: int = 0
    expired: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    operators_served: int = 0
    operators_cached: int = 0
    operators_coalesced: int = 0
    solves: int = 0
    #: Completed via the fallback strategy (primary blew its budget).
    degraded: int = 0
    #: In-flight requests the watchdog force-expired at their deadline.
    watchdog_failed: int = 0


class EventBuffer:
    """One request's events in arrival order, for one reader.

    A plain list the producer appends to and the reader empties at once
    with :meth:`take`; a waiter future exists only while the reader
    waits on an empty buffer (:meth:`wait`).  The server buffers a
    handle's events in one, the TCP client each request's frames.
    """

    __slots__ = ("items", "_waiter")

    def __init__(self) -> None:
        self.items: List[Any] = []
        self._waiter: Optional["asyncio.Future[None]"] = None

    def put(self, item: Any) -> None:
        self.items.append(item)
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def take(self) -> List[Any]:
        """Every buffered item, leaving the buffer empty."""
        items, self.items = self.items, []
        return items

    async def wait(self) -> None:
        """Return once at least one item is buffered."""
        if not self.items:
            self._waiter = asyncio.get_running_loop().create_future()
            try:
                await self._waiter
            finally:
                self._waiter = None


class RequestHandle:
    """One submitted request: its event stream and awaitable result.

    The network, strategy, per-shape layers and cache keys are resolved
    once at admission (they also serve as submit-time validation) and
    stashed here, with the admission lookup, so a worker does not redo
    the work.
    """

    def __init__(
        self,
        request: OptimizeRequest,
        loop: asyncio.AbstractEventLoop,
        *,
        network_name: str,
        specs: List[ConvSpec],
        strategy: SearchStrategy,
    ):
        self.request = request
        self.network_name = network_name
        self.specs = specs
        self.strategy = strategy
        self.submitted_at = time.perf_counter()
        #: Telemetry identity, filled in by ``submit()``: the trace this
        #: request belongs to (from the wire, the submitter's ambient
        #: span, or fresh), the pre-allocated ``serving.request`` span id
        #: children parent to, and the tenant the latency is attributed to.
        self.trace_id: Optional[str] = None
        self.parent_span_id: Optional[str] = None
        self.request_span_id: Optional[str] = None
        self.client_id: Optional[str] = None
        # ``time.monotonic()`` moment this request must be terminal by,
        # stamped when a worker claims it; the watchdog enforces it.
        self.expires_at: Optional[float] = None
        #: Filled in by ``submit()``: the layers of each distinct shape,
        #: each shape's cache key and the admission lookup of those keys
        #: over both tiers (``None`` where it missed).
        self.layers: Dict[str, List[Tuple[int, ConvSpec]]] = {}
        self.keys: Dict[str, str] = {}
        self.hits: Dict[str, Optional[StrategyResult]] = {}
        self._events = EventBuffer()
        self._finished = False
        self._future: "asyncio.Future[OptimizeResponse]" = loop.create_future()
        # Resolved by OptimizationServer.cancel() and the watchdog: a
        # mid-flight worker races it against its solve and releases the
        # slot when it resolves.  A plain future, so the race needs no
        # waiter task of its own.
        self._cancelled: "asyncio.Future[None]" = loop.create_future()

    @property
    def cancelled(self) -> bool:
        """Whether the request was cancelled (client abandoned it)."""
        return self._cancelled.done()

    def _signal_cancel(self) -> None:
        if not self._cancelled.done():
            self._cancelled.set_result(None)

    @property
    def request_id(self) -> str:
        return self.request.request_id

    def _trace_context(self) -> Optional[obs_trace.TraceContext]:
        """The ancestry a traced request's children record under, else ``None``."""
        if self.trace_id is None or self.request_span_id is None:
            return None
        return self.trace_id, self.request_span_id

    def _record_phase(self, name: str, duration_s: float, **attrs: Any) -> None:
        """Record a finished phase of a traced request under its
        ``serving.request`` span."""
        if self.trace_id is not None:
            record_span(
                name,
                duration_s,
                trace_id=self.trace_id,
                parent_id=self.request_span_id,
                request_id=self.request_id,
                **attrs,
            )

    def _emit(self, event: ServingEvent) -> None:
        # Nothing follows the terminal event, so it ends every reader's
        # last batch: an operator that lands after cancellation or expiry
        # is dropped.
        if self._finished:
            return
        self._finished = event.terminal
        self._events.put(event)

    def _resolve(self, response: OptimizeResponse) -> None:
        if not self._future.done():
            self._future.set_result(response)

    def _fail(self, error: BaseException) -> None:
        if not self._future.done():
            self._future.set_exception(error)
            # Consumers that only read the event stream (the TCP
            # transport, rejected submissions) never await the future;
            # retrieve the exception once so asyncio does not log it at
            # GC time.  `await result()` still raises.
            self._future.exception()

    async def result(self) -> OptimizeResponse:
        """Await the terminal response (raises on expiry/failure)."""
        return await self._future

    async def events(self) -> AsyncIterator[ServingEvent]:
        """Stream this request's events until (and including) the terminal one."""
        async for batch in self.event_batches():
            for event in batch:
                yield event

    async def event_batches(self) -> AsyncIterator[List[ServingEvent]]:
        """Stream this request's events, every event already buffered at once.

        Each batch holds at least one event; the last batch ends with the
        terminal event.  A transport writes a batch with one write.  A
        request ``submit`` answered from the cache tiers is already
        terminal, so its whole stream is the first batch.
        """
        buffer = self._events
        while True:
            if not buffer.items:
                await buffer.wait()
            batch = buffer.take()
            yield batch
            if batch[-1].terminal:
                return


def _layers_by_shape(specs: List[ConvSpec]) -> Dict[str, List[Tuple[int, ConvSpec]]]:
    """``(index, spec)`` of every layer, grouped by shape key.

    Each shape's result is emitted once per layer that shares it; the
    first layer of each group is the shape's distinct operator.
    """
    layers: Dict[str, List[Tuple[int, ConvSpec]]] = {}
    for index, spec in enumerate(specs):
        layers.setdefault(spec_shape_key(spec), []).append((index, spec))
    return layers


def _emit_layers(
    handle: RequestHandle,
    layers: List[Tuple[int, ConvSpec]],
    result: StrategyResult,
    cached: bool,
    coalesced: bool,
) -> None:
    """One :class:`OperatorEvent` per layer of one solved shape."""
    total = len(handle.specs)
    for index, spec in layers:
        handle._emit(
            OperatorEvent(
                request_id=handle.request_id,
                operator=spec.name,
                index=index,
                total=total,
                gflops=result.gflops,
                time_seconds=result.time_seconds,
                cached=cached,
                coalesced=coalesced,
            )
        )


class OptimizationServer:
    """Queued, cache-coalescing async service over one machine description.

    Typical in-process use::

        server = OptimizationServer(machine, cache=ResultCache(path))
        async with server:
            handle = server.submit(OptimizeRequest("resnet18"))
            async for event in handle.events():
                ...                       # streaming per-operator progress
            response = await handle.result()

    ``cache`` takes anything :func:`~repro.engine.cache.resolve_cache`
    accepts: a :class:`ResultCache`, a directory path (a persistent
    cache over the chunked result store rooted there), or a disk store
    instance — which is how replicas of a fleet mount one merged warm
    fabric.  ``None`` keeps the historical default of a
    fresh in-memory cache.
    """

    def __init__(
        self,
        machine: MachineSpec,
        strategy: Union[str, SearchStrategy] = "mopt",
        *,
        strategy_options: Optional[Mapping[str, Any]] = None,
        cache: Union[None, str, Path, ResultCache, Any] = None,
        config: Optional[ServerConfig] = None,
    ):
        self.machine = machine
        self.config = config or ServerConfig()
        self.default_strategy_options: Dict[str, Any] = dict(strategy_options or {})
        if isinstance(strategy, str):
            self.default_strategy_name = strategy
            # Fail fast on unknown names/options, like NetworkOptimizer does.
            self.default_strategy: SearchStrategy = get_strategy(
                strategy, **self.default_strategy_options
            )
        else:
            # A ready instance (the repro.api.Session by-object path).
            if self.default_strategy_options:
                raise ValueError(
                    "strategy_options only apply to by-name strategies; "
                    "configure the instance instead"
                )
            self.default_strategy = strategy
            self.default_strategy_name = strategy.name
        # Resolve the degraded-path fallback eagerly: a typo'd name must
        # fail at construction, not mid-incident.
        self._fallback_strategy: Optional[SearchStrategy] = (
            get_strategy(self.config.fallback_strategy)
            if self.config.fallback_strategy is not None
            else None
        )
        # A cache resolved here from a path is closed by stop().
        self._owns_cache = isinstance(cache, (str, Path))
        resolved_cache = resolve_cache(cache)
        # resolve_cache(None) hands back a fresh in-memory cache, the
        # server's historical default; caching cannot be disabled here
        # (single-flight coalescing is built on it), so False is not
        # accepted by the signature.
        assert resolved_cache is not None
        self.cache = resolved_cache
        self.stats = ServerStats()
        #: Cache key -> number of times the strategy actually solved it.
        #: With single-flight coalescing this stays at 1 per key no
        #: matter how many concurrent requests contain the operator.
        self.solve_counts: Dict[str, int] = {}
        # Solve counters are bumped from pool threads; a bare += on the
        # stats dataclass is a lost-update race across distinct keys.
        self._solve_lock = threading.Lock()
        self._queue: Optional[BoundedRequestQueue] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._workers: List["asyncio.Task[None]"] = []
        self._watchdog: Optional["asyncio.Task[None]"] = None
        # Keyed by handle identity, NOT by request_id: ids are chosen by
        # clients (unique per client process, not across processes), so
        # two TCP clients can legitimately both send "req-1".
        self._handles: Dict[int, RequestHandle] = {}
        self._running = False
        self._draining = False
        # (shape key, strategy) -> cache key.  Strategies are frozen
        # dataclasses comparing by value, so value-equal per-request
        # strategies share entries; computing a cache key hashes the full
        # machine description and is too slow for the warm hot path.
        self._key_memo: Dict[Tuple[str, Any], str] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spin up the queue, the solve pool and the worker tasks."""
        if self._running:
            return
        self._draining = False  # a restarted server accepts again
        self._queue = BoundedRequestQueue(
            self.config.max_queue_depth,
            retry_after_s=self.config.retry_after_s,
            on_expired=self._expire_queued,
        )
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.solve_threads,
            thread_name_prefix="repro-serving",
        )
        self._workers = [
            asyncio.ensure_future(self._worker_loop())
            for _ in range(self.config.workers)
        ]
        self._watchdog = asyncio.ensure_future(self._watchdog_loop())
        self._running = True
        # Export the request-lifecycle counters through the unified
        # registry so the Prometheus rendering (stats verb, `repro
        # stats --prometheus`) carries them.  Last started server wins
        # the name — one server per process is the serving deployment
        # shape; embedded test servers merely overwrite each other.
        obs_metrics.REGISTRY.register_collector("serving", self._lifecycle_stats)

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Gracefully wind down: stop admissions, finish accepted requests.

        New submissions are refused from the moment this is called;
        everything already admitted (queued or mid-flight) is allowed to
        run to its terminal event, for up to ``timeout`` seconds
        (``None`` waits indefinitely).  Returns ``True`` when every
        accepted request reached a terminal state — the caller can then
        :meth:`stop` without failing anyone — and ``False`` on timeout,
        in which case :meth:`stop` fails the stragglers as before.
        """
        if not self._running:
            return True
        self._draining = True
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._handles:
            if deadline is not None and time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.01)
        return True

    async def stop(
        self, *, drain: bool = False, drain_timeout: Optional[float] = None
    ) -> None:
        """Stop workers, fail queued requests, shut the pool down and close
        a cache the server resolved from a path.

        With ``drain=True`` the server first refuses new admissions and
        waits (up to ``drain_timeout`` seconds) for accepted requests to
        finish; only requests still unfinished after the drain window
        are failed.
        """
        if not self._running:
            return
        if drain:
            await self.drain(drain_timeout)
        self._running = False
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self._watchdog is not None:
            self._watchdog.cancel()
            await asyncio.gather(self._watchdog, return_exceptions=True)
            self._watchdog = None
        if self._queue is not None:
            self._queue.drain()
        # Fail every non-terminal request — queued or mid-flight when the
        # workers were cancelled — so no client awaits a result forever.
        for handle in list(self._handles.values()):
            error = RequestFailedError("server stopped")
            handle._fail(error)
            handle._emit(
                FailedEvent(request_id=handle.request_id, error=str(error))
            )
        self._handles.clear()
        if self._pool is not None:
            pool, self._pool = self._pool, None
            # Join the pool off-loop: cancel_futures only stops *queued*
            # solves, so waiting for running ones must not freeze every
            # other coroutine (they can take seconds to minutes).
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: pool.shutdown(wait=True, cancel_futures=True)
            )
        if self._owns_cache:
            self.cache.close()

    async def __aenter__(self) -> "OptimizationServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet claimed by a worker."""
        return 0 if self._queue is None else self._queue.depth

    @property
    def active_requests(self) -> Tuple[str, ...]:
        """Ids of requests admitted but not yet terminal (queued or solving)."""
        return tuple(h.request_id for h in self._handles.values())

    def duplicate_solves(self) -> int:
        """How many solves were redundant (same key computed again)."""
        return sum(count - 1 for count in self.solve_counts.values() if count > 1)

    def _lifecycle_stats(self) -> Dict[str, Any]:
        """Numeric lifecycle counters (the ``"serving"`` collector body)."""
        payload = dataclasses.asdict(self.stats)
        payload["queue_depth"] = self.queue_depth
        payload["active_requests"] = len(self._handles)
        payload["duplicate_solves"] = self.duplicate_solves()
        return payload

    def stats_snapshot(self) -> Dict[str, Any]:
        """One JSON-ready dict of every observable server counter.

        Besides the request/solve lifecycle counters this folds in the
        process-global compile cache (shape-family plan sharing) and the
        intra-operator solve pool, so an operator probing a long-lived
        server can see plan-reuse hit rates and pool fan-out without
        reaching into module globals.  Since the telemetry PR it also
        carries the per-request-class latency histograms
        (``latency_s``), terminal counts by class
        (``requests_by_class``) and per-client request attribution
        (``clients``) — the payload the ``stats`` TCP verb returns and
        ``repro top`` renders.
        """
        payload = self._lifecycle_stats()
        registry = obs_metrics.REGISTRY
        payload["latency_s"] = registry.histograms_with_prefix(
            "serving.latency_s."
        )
        payload["requests_by_class"] = registry.counters_with_prefix(
            "serving.requests."
        )
        payload["clients"] = registry.counters_with_prefix(
            "serving.client_requests."
        )
        # The subsystem blocks are a view over the unified metrics
        # registry (their collectors registered at import); the payload
        # shape is unchanged from the pre-registry probes.
        snap = obs_metrics.snapshot()
        payload["compile_cache"] = snap["compile_cache"]
        payload["batched_table_cache"] = snap["batched_table_cache"]
        payload["solve_pool"] = snap["solve_pool"]
        payload["reliability"] = {
            **snap["reliability"],
            "cache": self.cache.reliability_stats(),
        }
        return payload

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(
        self, request: OptimizeRequest, *, client_id: Optional[str] = None
    ) -> RequestHandle:
        """Admit ``request``: answer it from the cache tiers, or queue it.

        Must be called from the server's event loop.  One lookup over
        both cache tiers covers the request's distinct operators.  When
        every one hits, the request is answered here, ahead of queued
        work: the returned handle already carries its whole stream
        (:class:`AcceptedEvent`, whose ``queue_depth`` is the depth
        admission found, one :class:`OperatorEvent` per layer and
        :class:`CompletedEvent`) and its resolved result.  Such a request
        takes no queue slot and is never rejected or expired.  A request
        with a miss is queued with its lookup, or rejected with
        :class:`ServerOverloadedError` when the queue is full; its
        handle carries the :class:`AcceptedEvent`, and progress and
        terminal events follow as a worker services it.

        ``client_id`` is a transport-supplied fallback tenant label
        (the TCP handler passes the peer address); the request's own
        ``client_id`` wins when set.
        """
        if not self._running or self._queue is None:
            raise RuntimeError("server is not running (use `async with server:`)")
        if self._draining:
            raise RuntimeError("server is draining; not accepting new requests")
        # Resolve eagerly: bad networks/strategies fail at submission and
        # the worker reuses the resolution instead of redoing it.
        network_name, specs = resolve_network(request.network, batch=request.batch)
        strategy = self._strategy_for(request)
        loop = asyncio.get_running_loop()
        handle = RequestHandle(
            request, loop,
            network_name=network_name, specs=specs, strategy=strategy,
        )
        handle.client_id = request.client_id or client_id
        if obs_trace.is_enabled():
            # Join the caller's trace: wire fields first (a traced
            # remote client), the submitter's ambient span second (the
            # in-process client), a fresh trace last.  The
            # ``serving.request`` span id is allocated NOW so children
            # recorded before the terminal event parent to it.
            if request.trace_id:
                handle.trace_id = request.trace_id
                handle.parent_span_id = request.parent_span
            else:
                ambient = current_context()
                if ambient is not None:
                    handle.trace_id, handle.parent_span_id = ambient
                else:
                    handle.trace_id = obs_trace.new_span_id()
            handle.request_span_id = obs_trace.new_span_id()
        handle.layers = layers = _layers_by_shape(specs)
        handle.keys = keys = {
            shape_key: self._cache_key(shape_key, group[0][1], strategy)
            for shape_key, group in layers.items()
        }
        lookup_start = time.perf_counter()
        with activate(handle._trace_context()):
            handle.hits = hits = self.cache.get_many(
                list(keys.values()), record_misses=False
            )
        if None not in hits.values():
            queued_s = lookup_start - handle.submitted_at
            self._accept(handle, self._queue.depth)
            handle._record_phase(
                "serving.queue_wait", queued_s,
                client=handle.client_id or "local",
            )
            try:
                self._answer_from_cache(handle, queued_s, lookup_start)
            except Exception as error:  # pragma: no cover - defensive
                self._finish_failed(handle, error)
            return handle
        deadline = (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.default_deadline_s
        )
        try:
            depth = self._queue.put_nowait(
                handle, priority=request.priority, deadline_s=deadline
            )
        except QueueFullError as error:
            self.stats.rejected += 1
            self._observe_terminal(handle, "rejected")
            handle._emit(
                RejectedEvent(
                    request_id=request.request_id,
                    reason="queue full",
                    retry_after_s=error.retry_after_s,
                )
            )
            overloaded = ServerOverloadedError(error.retry_after_s)
            handle._fail(overloaded)
            raise overloaded from None
        self._accept(handle, depth)
        # Enqueue-time saturation gauges: depth is what admission just
        # saw; backlog counts everything admitted but not yet terminal.
        registry = obs_metrics.REGISTRY
        registry.gauge("serving.queue_depth").set(depth)
        registry.gauge("serving.backlog").set(len(self._handles))
        return handle

    def _accept(self, handle: RequestHandle, depth: int) -> None:
        """Count ``handle`` admitted and emit its :class:`AcceptedEvent`."""
        self.stats.accepted += 1
        self._handles[id(handle)] = handle
        handle._emit(AcceptedEvent(request_id=handle.request_id, queue_depth=depth))

    def _observe_terminal(
        self, handle: RequestHandle, request_class: str, end: Optional[float] = None
    ) -> None:
        """Record one request reaching a terminal state at ``end`` (now).

        Feeds the per-class latency histogram, the per-class and
        per-client counters, refreshes the saturation gauges, and — when
        the request is traced — synthesizes its ``serving.request`` span
        covering the full submit-to-terminal wall (a live ``with`` block
        cannot: a queued request's region starts in ``submit()``'s task
        and ends in a worker's).
        """
        latency_s = (time.perf_counter() if end is None else end) - handle.submitted_at
        registry = obs_metrics.REGISTRY
        registry.histogram(f"serving.latency_s.{request_class}").observe(latency_s)
        registry.counter(f"serving.requests.{request_class}").inc()
        if handle.client_id:
            registry.counter(
                f"serving.client_requests.{handle.client_id}"
            ).inc()
        registry.gauge("serving.queue_depth").set(self.queue_depth)
        registry.gauge("serving.backlog").set(len(self._handles))
        if handle.trace_id is not None:
            record_span(
                "serving.request",
                latency_s,
                trace_id=handle.trace_id,
                span_id=handle.request_span_id,
                parent_id=handle.parent_span_id,
                request_id=handle.request_id,
                network=handle.network_name,
                request_class=request_class,
                client=handle.client_id or "local",
            )

    def cancel(
        self, handle: RequestHandle, reason: str = "cancelled by client"
    ) -> bool:
        """Cancel an admitted request (client gone); ``True`` if it was live.

        A still-queued request is removed from the queue immediately —
        an abandoned request must not hold an admission slot.  A request
        already claimed by a worker has its wait cancelled, releasing
        the worker; solves already running on the thread pool finish in
        the background and still populate the shared cache (they may be
        feeding coalesced siblings from other clients).
        """
        if self._handles.pop(id(handle), None) is None:
            return False  # already terminal (or never admitted)
        self.stats.cancelled += 1
        self._observe_terminal(handle, "cancelled")
        if self._queue is not None:
            self._queue.remove(handle)
        error = RequestFailedError(f"request {handle.request_id} {reason}")
        handle._emit(
            FailedEvent(request_id=handle.request_id, error=str(error))
        )
        handle._fail(error)
        handle._signal_cancel()  # frees a worker mid-flight
        return True

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    async def _worker_loop(self) -> None:
        assert self._queue is not None
        while True:
            handle, expires_at = await self._queue.get()
            handle.expires_at = expires_at  # watchdog enforcement point
            try:
                await self._process(handle, expires_at)
            except asyncio.CancelledError:
                raise
            except BaseException as error:  # pragma: no cover - defensive
                self._finish_failed(handle, error)

    async def _watchdog_loop(self) -> None:
        """Fail in-flight requests hung past their deadline.

        The normal deadline path races the solve against the remaining
        budget inside :meth:`_process`; the watchdog is the backstop for
        requests whose worker never reaches (or never returns from) that
        race — a wedged coroutine, a stuck solve thread.  It is the only
        component that can terminate such a request, because it runs
        outside the per-request control flow.
        """
        while True:
            await asyncio.sleep(self.config.watchdog_interval_s)
            fault_point("serving.watchdog_tick")
            now = time.monotonic()
            for handle in list(self._handles.values()):
                if handle.expires_at is not None and now > handle.expires_at:
                    self._watchdog_expire(handle)

    def _watchdog_expire(self, handle: RequestHandle) -> None:
        if self._handles.pop(id(handle), None) is None:
            return  # reached a terminal state while we were sweeping
        self.stats.watchdog_failed += 1
        obs_metrics.REGISTRY.counter("health.serving.watchdog_failures").inc()
        self._expire(
            handle,
            "request {request_id} hung in flight; watchdog expired it after "
            "{waited_ms:.1f} ms",
        )
        # Release the worker if it is still racing solve vs. cancel; the
        # handle is already out of _handles so the worker stays quiet.
        handle._signal_cancel()

    def _expire_queued(self, handle: RequestHandle, overstay: float) -> None:
        """Queue callback: a request's deadline passed while it waited."""
        self._handles.pop(id(handle), None)
        self._expire(
            handle,
            "request {request_id} expired after waiting {waited_ms:.1f} ms "
            "(deadline {deadline_ms:.1f} ms)",
        )

    def _expire(self, handle: RequestHandle, message: str) -> None:
        """End ``handle`` at its deadline: count it, emit its
        :class:`ExpiredEvent` and fail it with :class:`DeadlineExpiredError`.

        ``message`` is the error's text, a format string over
        ``request_id``, ``waited_ms`` and ``deadline_ms``.
        """
        self.stats.expired += 1
        self._observe_terminal(handle, "expired")
        waited = time.perf_counter() - handle.submitted_at
        deadline = handle.request.deadline_s or self.config.default_deadline_s or 0.0
        handle._emit(
            ExpiredEvent(
                request_id=handle.request_id,
                deadline_s=deadline,
                waited_s=waited,
            )
        )
        handle._fail(
            DeadlineExpiredError(
                message.format(
                    request_id=handle.request_id,
                    waited_ms=waited * 1e3,
                    deadline_ms=deadline * 1e3,
                )
            )
        )

    async def _process(
        self, handle: RequestHandle, expires_at: Optional[float]
    ) -> None:
        # The `serving.request` span covers submit -> terminal, so it is
        # synthesized by ``_observe_terminal`` with exact duration; here
        # the worker records the queue wait it just ended and adopts the
        # pre-allocated span as ancestry so every child joins the trace.
        claimed = time.perf_counter()
        queued_s = claimed - handle.submitted_at
        handle._record_phase(
            "serving.queue_wait", queued_s,
            client=handle.client_id or "local",
        )
        with activate(handle._trace_context()):
            await self._process_request(handle, expires_at, queued_s, claimed)

    async def _process_request(
        self,
        handle: RequestHandle,
        expires_at: Optional[float],
        queued_s: float,
        service_start: float,
    ) -> None:
        if handle.cancelled:
            # Cancelled between queue claim and processing: cancel()
            # already emitted the terminal event and failed the future.
            return
        strategy = handle.strategy
        coalesced_ops = 0
        degraded = False
        try:
            remaining = None
            if expires_at is not None:
                remaining = expires_at - time.monotonic()
                if remaining <= 0:
                    raise asyncio.TimeoutError
            # The coalesce phase looks up again, on the loop, only the
            # keys admission missed: another request may have solved them
            # while this one waited.  A request that now hits everywhere
            # finishes right here: no solve task, no wait.
            hits = handle.hits
            hits.update(
                self.cache.get_many(
                    [key for key, hit in hits.items() if hit is None],
                    record_misses=False,
                )
            )
            if None not in hits.values():
                self._answer_from_cache(handle, queued_s, service_start)
                return
            # The primary solve runs under the tighter of the deadline
            # and the per-request solve budget; overrunning the budget
            # degrades to the fallback strategy instead of expiring.
            budget = self.config.solve_timeout_s
            budget_bound = (
                budget is not None
                and self._fallback_strategy is not None
                and strategy.name != self._fallback_strategy.name
                and (remaining is None or budget < remaining)
            )
            timeout = budget if budget_bound else remaining
            solve = asyncio.ensure_future(
                self._solve_misses(
                    handle, strategy, handle.keys, hits, service_start
                )
            )
            cancelled = handle._cancelled
            try:
                done, _ = await asyncio.wait(
                    {solve, cancelled},
                    timeout=timeout,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if solve not in done and cancelled not in done and budget_bound:
                    # The primary blew its solve budget: abandon the
                    # wait (its pool solves keep running and still warm
                    # the shared cache) and answer with the cheaper
                    # fallback within whatever deadline budget remains.
                    solve.cancel()
                    await asyncio.gather(solve, return_exceptions=True)
                    degraded = True
                    self.stats.degraded += 1
                    obs_metrics.REGISTRY.counter(
                        "health.serving.degraded"
                    ).inc()
                    assert self._fallback_strategy is not None
                    strategy = self._fallback_strategy
                    fallback_keys = {
                        shape_key: self._cache_key(shape_key, group[0][1], strategy)
                        for shape_key, group in handle.layers.items()
                    }
                    if expires_at is not None:
                        remaining = expires_at - time.monotonic()
                        if remaining <= 0:
                            raise asyncio.TimeoutError
                    coalesce_start = time.perf_counter()
                    solve = asyncio.ensure_future(
                        self._solve_misses(
                            handle, strategy, fallback_keys,
                            self.cache.get_many(
                                list(fallback_keys.values()), record_misses=False
                            ),
                            coalesce_start,
                        )
                    )
                    done, _ = await asyncio.wait(
                        {solve, cancelled},
                        timeout=remaining,
                        return_when=asyncio.FIRST_COMPLETED,
                    )
                if solve not in done:
                    # Deadline or client cancellation won the race: stop
                    # waiting and release this worker.  Underlying pool
                    # solves keep running (they may feed coalesced
                    # siblings) and still land in the shared cache.
                    solve.cancel()
                    await asyncio.gather(solve, return_exceptions=True)
                    if cancelled in done:
                        return  # cancel()/watchdog already finished it
                    raise asyncio.TimeoutError
                solved, cached_keys, coalesced_ops = solve.result()
            except asyncio.CancelledError:
                # Worker cancelled (server stopping): don't orphan the
                # solve task, as wait_for used to guarantee.
                solve.cancel()
                raise
        except asyncio.TimeoutError:
            if self._handles.pop(id(handle), None) is None:
                return  # the watchdog (or cancel) beat us to the expiry
            self._expire(
                handle,
                "request {request_id} expired mid-flight after {waited_ms:.1f} ms",
            )
            return
        except asyncio.CancelledError:
            raise
        except BaseException as error:
            self._finish_failed(handle, error)
            return
        self._complete(
            handle, strategy, solved, cached_keys, coalesced_ops, degraded,
            queued_s=queued_s, service_start=service_start,
        )

    def _answer_from_cache(
        self, handle: RequestHandle, queued_s: float, coalesce_start: float
    ) -> None:
        """Answer ``handle``, every operator of which ``handle.hits`` holds.

        The coalesce phase that began at ``coalesce_start`` ends once the
        hits are emitted, and the respond phase begins at that moment.
        """
        solved, cached_keys, _ = self._sweep_hits(handle, handle.keys, handle.hits)
        respond_start = time.perf_counter()
        handle._record_phase(
            "serving.coalesce", respond_start - coalesce_start,
            distinct=len(handle.keys),
        )
        self._complete(
            handle, handle.strategy, solved, cached_keys,
            queued_s=queued_s, service_start=coalesce_start,
            respond_start=respond_start,
        )

    def _complete(
        self,
        handle: RequestHandle,
        strategy: SearchStrategy,
        solved: Mapping[str, StrategyResult],
        cached_keys: set,
        coalesced_ops: int = 0,
        degraded: bool = False,
        *,
        queued_s: float,
        service_start: float,
        respond_start: Optional[float] = None,
    ) -> None:
        """Answer ``handle``: its response, Completed event and figures.

        The one completion of a request, whether ``submit()`` answered it
        from the cache tiers or a worker finished it.  The
        ``serving.respond`` span runs from ``respond_start`` (now) to
        the terminal moment, so it meets the coalesce span before it and
        the request span's end.
        """
        if respond_start is None:
            respond_start = time.perf_counter()
        if self._handles.pop(id(handle), None) is None:
            return  # watchdog-expired or cancelled while we finished
        specs = handle.specs
        network_result = build_network_result(
            network=handle.network_name,
            machine_name=self.machine.name,
            strategy=strategy.name,
            specs=specs,
            solved=solved,
            cached_keys=cached_keys,
            wall_seconds=time.perf_counter() - service_start,
        )
        response = OptimizeResponse.from_network_result(
            network_result,
            request_id=handle.request_id,
            coalesced=coalesced_ops,
            queued_s=queued_s,
            service_s=time.perf_counter() - service_start,
            degraded=degraded,
        )
        self.stats.completed += 1
        self.stats.operators_served += len(specs)
        handle._resolve(response)
        handle._emit(CompletedEvent(request_id=handle.request_id, response=response))
        # Request-class taxonomy: the degraded path wins (it answered),
        # coalescing beats plain cold (some solves were shared), a fully
        # cache-answered request is warm, everything else is cold.
        if degraded:
            request_class = "degraded"
        elif coalesced_ops > 0:
            request_class = "coalesced"
        elif len(cached_keys) == len(handle.layers):
            request_class = "warm"
        else:
            request_class = "cold"
        end = time.perf_counter()
        handle._record_phase("serving.respond", end - respond_start)
        self._observe_terminal(handle, request_class, end)

    def _finish_failed(self, handle: RequestHandle, error: BaseException) -> None:
        if id(handle) not in self._handles:
            return  # already terminal (watchdog expiry or cancellation)
        self.stats.failed += 1
        self._observe_terminal(handle, "failed")
        failure = RequestFailedError(
            f"request {handle.request_id} failed: {error}"
        )
        failure.__cause__ = error
        handle._emit(
            FailedEvent(request_id=handle.request_id, error=str(error))
        )
        handle._fail(failure)
        self._handles.pop(id(handle), None)

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def _sweep_hits(
        self,
        handle: RequestHandle,
        keys: Mapping[str, str],
        hits: Mapping[str, Optional[StrategyResult]],
    ) -> Tuple[Dict[str, StrategyResult], set, List[str]]:
        """Emit the hits of a lookup, and return what is left.

        Walks the distinct shapes in order, emitting one cached
        :class:`OperatorEvent` per layer of every shape whose key
        (``keys``, shape key -> cache key) ``hits`` answers.  Returns
        ``(shape_key -> result, cached shape keys, missed shape keys)``.
        """
        solved: Dict[str, StrategyResult] = {}
        cached_keys: set = set()
        misses: List[str] = []
        for shape_key, layers in handle.layers.items():
            hit = hits.get(keys[shape_key])
            if hit is not None:
                self.stats.operators_cached += len(layers)
                solved[shape_key] = hit
                cached_keys.add(shape_key)
                _emit_layers(handle, layers, hit, True, False)
            else:
                misses.append(shape_key)
        return solved, cached_keys, misses

    async def _solve_misses(
        self,
        handle: RequestHandle,
        strategy: SearchStrategy,
        keys: Mapping[str, str],
        hits: Mapping[str, Optional[StrategyResult]],
        coalesce_start: float,
    ) -> Tuple[Dict[str, StrategyResult], set, int]:
        """Finish a request the cache tiers did not answer completely.

        ``hits`` is the lookup of every distinct key (``keys``, shape key
        -> cache key) over both tiers, ``None`` where it missed; the
        coalesce phase that began at ``coalesce_start`` ends once its
        hits are emitted.  Every shape it missed joins or leads its
        key's cache flight (a leader checks the disk tier again, then
        solves on the shared thread pool), streaming per-layer progress
        events.  Returns ``(shape_key -> result, cached shape keys,
        coalesced operator count)``.
        """
        assert self._pool is not None
        solved, cached_keys, misses = self._sweep_hits(handle, keys, hits)
        handle._record_phase(
            "serving.coalesce", time.perf_counter() - coalesce_start,
            distinct=len(keys),
        )
        coalesced_ops = 0
        if not misses:
            return solved, cached_keys, coalesced_ops
        layers = handle.layers

        with span(
            "serving.solve", request_id=handle.request_id, misses=len(misses)
        ):
            # One cache flight per missing shape, registered right here on
            # the loop: a leader's solve runs on the pool (carrying this
            # span's trace context), a follower awaits the leader's future
            # without holding a pool thread.
            flights = {}
            for shape_key in misses:
                cache_key = keys[shape_key]
                solve = partial(self._solve, strategy, cache_key, layers[shape_key][0][1])
                flight, coalesced = self.cache.flight(cache_key, solve, self._pool)
                if coalesced:
                    self.stats.operators_coalesced += len(layers[shape_key])
                flights[shape_key] = flight, coalesced

            async def landed(shape_key: str) -> Tuple[str, StrategyResult, bool]:
                flight, coalesced = flights[shape_key]
                result = await asyncio.shield(asyncio.wrap_future(flight))
                return shape_key, result, coalesced

            tasks = [asyncio.ensure_future(landed(shape_key)) for shape_key in misses]
            try:
                for finished in asyncio.as_completed(tasks):
                    shape_key, result, coalesced = await finished
                    solved[shape_key] = result
                    if coalesced:
                        coalesced_ops += len(layers[shape_key])
                    _emit_layers(handle, layers[shape_key], result, False, coalesced)
            except BaseException:
                for task in tasks:
                    task.cancel()
                raise
        return solved, cached_keys, coalesced_ops

    def _solve(
        self, strategy: SearchStrategy, cache_key: str, spec: ConvSpec
    ) -> StrategyResult:
        """One strategy solve of a flight's leader, counted per key."""
        with self._solve_lock:
            self.solve_counts[cache_key] = self.solve_counts.get(cache_key, 0) + 1
            self.stats.solves += 1
        # Chaos hook: stall/raise one strategy's solves (keyed by strategy
        # name so a fallback solve can stay healthy).
        fault_point("serving.solve", key=strategy.name)
        return strategy.search(spec, self.machine)

    # ------------------------------------------------------------------
    def _cache_key(
        self, shape_key: str, spec: ConvSpec, strategy: SearchStrategy
    ) -> str:
        """Memoized :meth:`ResultCache.key_for` (unchanged key values)."""
        try:
            memo_key: Optional[Tuple[str, Any]] = (shape_key, strategy)
            cached = self._key_memo.get(memo_key)
        except TypeError:  # unhashable custom strategy: compute every time
            memo_key = None
            cached = None
        if cached is not None:
            return cached
        key = self.cache.key_for(spec, self.machine, strategy)
        if memo_key is not None:
            if len(self._key_memo) > 4096:
                self._key_memo.clear()
            self._key_memo[memo_key] = key
        return key

    def _strategy_for(self, request: OptimizeRequest) -> SearchStrategy:
        """The strategy instance answering ``request`` (default or override)."""
        if request.strategy is None and not request.strategy_options:
            return self.default_strategy
        name = request.strategy or self.default_strategy_name
        options = dict(request.strategy_options)
        if not options and name == self.default_strategy_name:
            options = self.default_strategy_options
        return get_strategy(name, **options)


# ----------------------------------------------------------------------
# TCP transport: the same protocol as JSON lines over a socket
# ----------------------------------------------------------------------
def _frames(events: List[ServingEvent]) -> bytes:
    """``events`` as one JSON line each, for one write."""
    return b"".join(encode_message(event_to_dict(event)) for event in events)


def _submit_line(
    server: OptimizationServer, payload: Any, peer_id: Optional[str]
) -> Tuple[Optional[RequestHandle], List[ServingEvent]]:
    """Submit one decoded request line: ``(handle, events to write now)``.

    The events are everything the request has so far: a request
    ``submit`` answered from the cache tiers is already terminal.  The
    handle is ``None`` when the line was answered without one: a line
    that is no request, a full queue, or a request ``submit`` refused.
    """
    if not isinstance(payload, dict):
        error = f"bad request: not a JSON object: {type(payload).__name__}"
        return None, [FailedEvent(request_id="?", error=error)]
    try:
        request = OptimizeRequest.from_dict(payload)
    except (KeyError, ValueError, TypeError) as error:
        request_id = str(payload.get("request_id", "?"))
        return None, [FailedEvent(request_id=request_id, error=f"bad request: {error}")]
    try:
        handle = server.submit(request, client_id=peer_id)
    except ServerOverloadedError as error:
        rejected = RejectedEvent(
            request_id=request.request_id,
            reason="queue full",
            retry_after_s=error.retry_after_s,
        )
        return None, [rejected]
    except (ValueError, KeyError, TypeError, RuntimeError) as error:
        # Unknown network/strategy (KeyError), empty network (ValueError),
        # bad strategy options / field types (TypeError) or a server that
        # stopped while the connection stayed open (RuntimeError): the
        # client must still get a terminal event, never a silent hang.
        return None, [FailedEvent(request_id=request.request_id, error=str(error))]
    return handle, handle._events.take()


async def _stream_events(
    server: OptimizationServer, handle: RequestHandle, writer: asyncio.StreamWriter
) -> None:
    """Write a waiting request's events as they come, each batch in one write.

    A client that disconnects mid-stream has abandoned its request: when
    the stream ends on a connection error, or the connection handler
    cancels it, the still-live request is cancelled through
    :meth:`OptimizationServer.cancel`, so it stops holding a queue slot
    or a worker.  Solves already running on the pool finish in the
    background and still fill the shared cache.
    """
    try:
        async for batch in handle.event_batches():
            writer.write(_frames(batch))
            await writer.drain()
    except OSError:
        pass  # the connection is gone
    finally:
        server.cancel(handle, reason="abandoned: client disconnected")


def _stats_reply(server: OptimizationServer, payload: Mapping[str, Any]) -> bytes:
    """The one frame answering a ``stats`` verb line.

    ``{"verb": "stats", "request_id": ..., "format": "json"|"prometheus"}``
    gets back ``{"type": "stats", "request_id": ..., "format": ...}``
    carrying either the raw :meth:`OptimizationServer.stats_snapshot`
    (json) or the process-wide metrics snapshot rendered as Prometheus
    text exposition.  Errors come back as a ``FailedEvent`` frame so a
    confused client is never left hanging.
    """
    request_id = str(payload.get("request_id", "stats"))
    fmt = str(payload.get("format", "json"))
    reply: Dict[str, Any] = {"type": "stats", "request_id": request_id, "format": fmt}
    try:
        if fmt == "prometheus":
            reply["prometheus"] = render_prometheus(obs_metrics.snapshot())
        elif fmt == "json":
            reply["stats"] = server.stats_snapshot()
        else:
            raise ValueError(f"unknown stats format: {fmt!r}")
    except Exception as error:
        return _frames([FailedEvent(request_id=request_id, error=str(error))])
    return encode_message(reply)


async def _handle_connection(
    server: OptimizationServer,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """One client connection: JSON-lines requests in, event streams out.

    Each line is submitted as it is read.  What the request has so far
    goes out at once in one write and one drain, each event its own JSON
    line: a request answered from the cache tiers leaves whole (Accepted,
    Operators, Completed) in the pass that read it, and only a request
    that waits for a worker gets a task streaming the rest.
    """
    # Attribute telemetry to the TCP peer unless the client named itself.
    peer = writer.get_extra_info("peername")
    peer_id = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) and len(peer) >= 2 else None
    streams: Set["asyncio.Task[None]"] = set()
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line.decode("utf-8"))
            except ValueError:
                continue
            if isinstance(payload, dict) and payload.get("verb") == "stats":
                writer.write(_stats_reply(server, payload))
            else:
                handle, events = _submit_line(server, payload, peer_id)
                writer.write(_frames(events))
                if handle is not None and not events[-1].terminal:
                    stream = asyncio.ensure_future(_stream_events(server, handle, writer))
                    streams.add(stream)
                    stream.add_done_callback(streams.discard)
            await writer.drain()
        # EOF: the client closed its connection.  A stream still open was
        # abandoned mid-way — the `finally` below cancels it, which
        # cancels its request so that no abandoned request holds a slot.
    except OSError:
        pass  # the connection is gone
    finally:
        pending = list(streams)
        for stream in pending:
            stream.cancel()
        if pending:
            # Let the cancelled streams cancel their requests before
            # closing up.
            await asyncio.gather(*pending, return_exceptions=True)
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        except asyncio.CancelledError:
            # The listener was closed while this handler was draining
            # its writer; the task is ending either way — stay quiet.
            pass


async def start_tcp_server(
    server: OptimizationServer, host: str = "127.0.0.1", port: int = 8763
) -> asyncio.AbstractServer:
    """Expose ``server`` over TCP (JSON-lines framing of the protocol).

    The optimization server must already be started.  Returns the
    asyncio server; close it with ``tcp.close(); await
    tcp.wait_closed()``.  ``port=0`` binds an ephemeral port (tests).
    """
    return await asyncio.start_server(
        lambda reader, writer: _handle_connection(server, reader, writer),
        host,
        port,
    )
