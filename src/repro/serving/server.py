"""Async serving front-end over the network-level optimization engine.

:class:`OptimizationServer` turns :class:`~repro.engine.network`'s
one-shot API into a long-lived service that many concurrent clients can
share:

* requests enter a :class:`~repro.serving.queue.BoundedRequestQueue`
  (per-request priorities and deadlines, reject-with-retry-after when
  the backlog is full);
* a fixed set of asyncio workers claims requests and solves each
  network's *distinct* operators through the result cache's one
  single-flight table (:meth:`~repro.engine.cache.ResultCache.flight`)
  — identical operators requested by concurrent clients are solved
  exactly once, no matter how the requests interleave, and a request
  that joins another's solve awaits it on the event loop without
  holding a pool thread;
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
from typing import Any, AsyncIterator, Dict, List, Mapping, Optional, Tuple, Union

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


class RequestHandle:
    """One submitted request: its event stream and awaitable result.

    The network and strategy are resolved once at admission (they also
    serve as submit-time validation) and stashed here so the worker does
    not redo the work.
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
        self._events: "asyncio.Queue[ServingEvent]" = asyncio.Queue()
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

    def _emit(self, event: ServingEvent) -> None:
        self._events.put_nowait(event)

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
        while True:
            event = await self._events.get()
            yield event
            if event.terminal:
                return

    async def event_batches(self) -> AsyncIterator[List[ServingEvent]]:
        """Stream this request's events, every event already queued at once.

        Each batch holds at least one event; the last batch ends with the
        terminal event.  A transport writes a batch with one write.
        """
        queue = self._events
        while True:
            batch = [await queue.get()]
            while not batch[-1].terminal and not queue.empty():
                batch.append(queue.get_nowait())
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
        """Admit ``request`` or raise :class:`ServerOverloadedError`.

        Must be called from the server's event loop.  The returned
        handle immediately carries an :class:`AcceptedEvent`; progress
        and terminal events follow as the request is serviced.

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
        self.stats.accepted += 1
        self._handles[id(handle)] = handle
        # Enqueue-time saturation gauges: depth is what admission just
        # saw; backlog counts everything admitted but not yet terminal.
        registry = obs_metrics.REGISTRY
        registry.gauge("serving.queue_depth").set(depth)
        registry.gauge("serving.backlog").set(len(self._handles))
        handle._emit(
            AcceptedEvent(request_id=request.request_id, queue_depth=depth)
        )
        return handle

    def _observe_terminal(self, handle: RequestHandle, request_class: str) -> float:
        """Record one request reaching a terminal state.

        Feeds the per-class latency histogram, the per-class and
        per-client counters, refreshes the saturation gauges, and — when
        the request is traced — synthesizes its ``serving.request`` span
        covering the full submit-to-terminal wall (a live ``with`` block
        cannot: the region starts in ``submit()``'s task and ends in a
        worker's).  Returns the request's wall seconds.
        """
        latency_s = time.perf_counter() - handle.submitted_at
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
        return latency_s

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
        queued_s = time.perf_counter() - handle.submitted_at
        ctx: Optional[obs_trace.TraceContext] = None
        if handle.trace_id is not None and handle.request_span_id is not None:
            ctx = (handle.trace_id, handle.request_span_id)
            record_span(
                "serving.queue_wait",
                queued_s,
                trace_id=handle.trace_id,
                parent_id=handle.request_span_id,
                request_id=handle.request_id,
                client=handle.client_id or "local",
            )
        with activate(ctx):
            await self._process_request(handle, expires_at, queued_s)

    async def _process_request(
        self, handle: RequestHandle, expires_at: Optional[float], queued_s: float
    ) -> None:
        request = handle.request
        service_start = time.perf_counter()
        strategy = handle.strategy
        network_name, specs = handle.network_name, handle.specs
        layers = _layers_by_shape(specs)
        distinct = {shape_key: group[0][1] for shape_key, group in layers.items()}
        keys = {
            shape_key: self._cache_key(shape_key, spec, strategy)
            for shape_key, spec in distinct.items()
        }
        coalesced_ops = 0
        if handle.cancelled:
            # Cancelled between queue claim and processing: cancel()
            # already emitted the terminal event and failed the future.
            return
        degraded = False
        try:
            remaining = None
            if expires_at is not None:
                remaining = expires_at - time.monotonic()
                if remaining <= 0:
                    raise asyncio.TimeoutError
            # The coalesce phase opens with a pass over the memory tier
            # (no IO).  A request it answers completely finishes right
            # here: no solve task, no wait.
            coalesce_start = time.perf_counter()
            cache_hits = self.cache.get_many(list(keys.values()), memory_only=True)
            if all(hit is not None for hit in cache_hits.values()):
                solved, cached_keys, _ = self._sweep_hits(
                    handle, distinct, keys, cache_hits, layers, coalesce_start
                )
            else:
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
                        handle, strategy, distinct, keys, cache_hits, layers,
                        coalesce_start,
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
                            shape_key: self._cache_key(shape_key, spec, strategy)
                            for shape_key, spec in distinct.items()
                        }
                        if expires_at is not None:
                            remaining = expires_at - time.monotonic()
                            if remaining <= 0:
                                raise asyncio.TimeoutError
                        coalesce_start = time.perf_counter()
                        solve = asyncio.ensure_future(
                            self._solve_misses(
                                handle, strategy, distinct, fallback_keys,
                                self.cache.get_many(
                                    list(fallback_keys.values()), memory_only=True
                                ),
                                layers, coalesce_start,
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

        if self._handles.pop(id(handle), None) is None:
            return  # watchdog-expired or cancelled while we finished
        # Explicitly timed like the coalesce phase: warm-request hot
        # path, no child spans under it.
        respond_start = time.perf_counter()
        network_result = build_network_result(
            network=network_name,
            machine_name=self.machine.name,
            strategy=strategy.name,
            specs=specs,
            solved=solved,
            cached_keys=cached_keys,
            wall_seconds=time.perf_counter() - service_start,
        )
        response = OptimizeResponse.from_network_result(
            network_result,
            request_id=request.request_id,
            coalesced=coalesced_ops,
            queued_s=queued_s,
            service_s=time.perf_counter() - service_start,
            degraded=degraded,
        )
        self.stats.completed += 1
        self.stats.operators_served += len(specs)
        handle._resolve(response)
        handle._emit(
            CompletedEvent(request_id=request.request_id, response=response)
        )
        record_span(
            "serving.respond",
            time.perf_counter() - respond_start,
            trace_id=handle.trace_id,
            parent_id=handle.request_span_id,
            request_id=handle.request_id,
        )
        # Request-class taxonomy: the degraded path wins (it answered),
        # coalescing beats plain cold (some solves were shared), a fully
        # cache-answered request is warm, everything else is cold.
        if degraded:
            request_class = "degraded"
        elif coalesced_ops > 0:
            request_class = "coalesced"
        elif len(cached_keys) == len(distinct):
            request_class = "warm"
        else:
            request_class = "cold"
        self._observe_terminal(handle, request_class)

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
        distinct: Mapping[str, ConvSpec],
        keys: Mapping[str, str],
        cache_hits: Mapping[str, Optional[StrategyResult]],
        layers: Mapping[str, List[Tuple[int, ConvSpec]]],
        coalesce_start: float,
    ) -> Tuple[Dict[str, StrategyResult], set, List[str]]:
        """Close the coalesce phase: emit the hits, return what is left.

        Walks the distinct shapes in order, emitting one cached
        :class:`OperatorEvent` per layer of every shape ``cache_hits``
        answers, and records the ``serving.coalesce`` span from
        ``coalesce_start`` (through the cheaper ``record_span``: the
        region opens no child spans that would need the ancestry).
        Returns ``(shape_key -> result, cached shape keys, missed shape
        keys)``.
        """
        solved: Dict[str, StrategyResult] = {}
        cached_keys: set = set()
        misses: List[str] = []
        for shape_key in distinct:
            hit = cache_hits.get(keys[shape_key])
            if hit is not None:
                self.stats.operators_cached += len(layers[shape_key])
                solved[shape_key] = hit
                cached_keys.add(shape_key)
                _emit_layers(handle, layers[shape_key], hit, True, False)
            else:
                misses.append(shape_key)
        record_span(
            "serving.coalesce",
            time.perf_counter() - coalesce_start,
            trace_id=handle.trace_id,
            parent_id=handle.request_span_id,
            request_id=handle.request_id,
            distinct=len(distinct),
        )
        return solved, cached_keys, misses

    async def _solve_misses(
        self,
        handle: RequestHandle,
        strategy: SearchStrategy,
        distinct: Mapping[str, ConvSpec],
        keys: Mapping[str, str],
        cache_hits: Dict[str, Optional[StrategyResult]],
        layers: Mapping[str, List[Tuple[int, ConvSpec]]],
        coalesce_start: float,
    ) -> Tuple[Dict[str, StrategyResult], set, int]:
        """Finish a request the memory tier did not answer completely.

        ``cache_hits`` is the memory-tier pass of every distinct key
        (``None`` where it missed).  The misses go to the disk tier in one
        thread-pool trip, then every shape still missing joins or leads
        its key's cache flight (a leader solves on the shared thread
        pool), streaming per-layer progress events.  Returns
        ``(shape_key -> result, cached shape keys, coalesced operator
        count)``.
        """
        loop = asyncio.get_running_loop()
        assert self._pool is not None
        disk_keys = [key for key, hit in cache_hits.items() if hit is None]
        if disk_keys and self.cache.disk is not None:
            # Pool threads do not inherit this task's contextvars: ship the
            # request's ancestry so spans the store opens join its trace.
            lookup_ctx = current_context()

            def disk_lookup() -> Dict[str, Optional[StrategyResult]]:
                with activate(lookup_ctx):
                    return self.cache.get_many(disk_keys, record_misses=False)

            cache_hits.update(await loop.run_in_executor(self._pool, disk_lookup))
        solved, cached_keys, misses = self._sweep_hits(
            handle, distinct, keys, cache_hits, layers, coalesce_start
        )
        coalesced_ops = 0
        if not misses:
            return solved, cached_keys, coalesced_ops

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
                solve = partial(self._solve, strategy, cache_key, distinct[shape_key])
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
async def _serve_request(
    server: OptimizationServer,
    writer: asyncio.StreamWriter,
    write_lock: asyncio.Lock,
    payload: Mapping[str, Any],
) -> None:
    """Service one decoded request line, streaming its events back.

    A client that disconnects mid-stream has abandoned its request: the
    connection error (or the connection handler cancelling this task) is
    converted into :meth:`OptimizationServer.cancel`, so the request
    stops holding a queue slot or a worker.  Solves already running on
    the pool finish in the background and still fill the shared cache.
    """
    submitted: List[RequestHandle] = []
    try:
        await _serve_request_inner(server, writer, write_lock, payload, submitted)
    except (ConnectionResetError, BrokenPipeError, OSError):
        for handle in submitted:
            server.cancel(handle, reason="abandoned: client disconnected")
    except asyncio.CancelledError:
        for handle in submitted:
            server.cancel(handle, reason="abandoned: client disconnected")
        raise


async def _serve_request_inner(
    server: OptimizationServer,
    writer: asyncio.StreamWriter,
    write_lock: asyncio.Lock,
    payload: Mapping[str, Any],
    submitted: List[RequestHandle],
) -> None:
    async def send(event: ServingEvent) -> None:
        async with write_lock:
            writer.write(encode_message(event_to_dict(event)))
            await writer.drain()

    try:
        request = OptimizeRequest.from_dict(payload)
    except (KeyError, ValueError, TypeError) as error:
        async with write_lock:
            writer.write(
                encode_message(
                    event_to_dict(
                        FailedEvent(
                            request_id=str(payload.get("request_id", "?")),
                            error=f"bad request: {error}",
                        )
                    )
                )
            )
            await writer.drain()
        return
    # Attribute telemetry to the TCP peer unless the client named itself.
    peer = writer.get_extra_info("peername")
    peer_id = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) and len(peer) >= 2 else None
    try:
        handle = server.submit(request, client_id=peer_id)
        submitted.append(handle)
    except ServerOverloadedError as error:
        await send(
            RejectedEvent(
                request_id=request.request_id,
                reason="queue full",
                retry_after_s=error.retry_after_s,
            )
        )
        return
    except (ValueError, KeyError, TypeError, RuntimeError) as error:
        # Unknown network/strategy (KeyError), empty network (ValueError),
        # bad strategy options / field types (TypeError) or a server that
        # stopped while the connection stayed open (RuntimeError): the
        # client must still get a terminal event, never a silent hang.
        await send(
            FailedEvent(request_id=request.request_id, error=str(error))
        )
        return
    # Every event already queued goes out in one write and one drain;
    # each stays its own JSON line.
    async for batch in handle.event_batches():
        async with write_lock:
            writer.write(
                b"".join(encode_message(event_to_dict(event)) for event in batch)
            )
            await writer.drain()


async def _serve_stats(
    server: OptimizationServer,
    writer: asyncio.StreamWriter,
    write_lock: asyncio.Lock,
    payload: Mapping[str, Any],
) -> None:
    """Answer one ``stats`` verb line with a single reply frame.

    ``{"verb": "stats", "request_id": ..., "format": "json"|"prometheus"}``
    gets back ``{"type": "stats", "request_id": ..., "format": ...}``
    carrying either the raw :meth:`OptimizationServer.stats_snapshot`
    (json) or the process-wide metrics snapshot rendered as Prometheus
    text exposition.  Errors come back as a ``FailedEvent`` frame so a
    confused client is never left hanging.
    """
    request_id = str(payload.get("request_id", "stats"))
    fmt = str(payload.get("format", "json"))
    try:
        reply: Dict[str, Any] = {
            "type": "stats",
            "request_id": request_id,
            "format": fmt,
        }
        if fmt == "prometheus":
            reply["prometheus"] = render_prometheus(obs_metrics.snapshot())
        elif fmt == "json":
            reply["stats"] = server.stats_snapshot()
        else:
            raise ValueError(f"unknown stats format: {fmt!r}")
    except Exception as error:  # pragma: no cover - defensive
        async with write_lock:
            writer.write(
                encode_message(
                    event_to_dict(
                        FailedEvent(request_id=request_id, error=str(error))
                    )
                )
            )
            await writer.drain()
        return
    async with write_lock:
        writer.write(encode_message(reply))
        await writer.drain()


async def _handle_connection(
    server: OptimizationServer,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """One client connection: JSON-lines requests in, event streams out."""
    write_lock = asyncio.Lock()
    pending: List["asyncio.Task[None]"] = []
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
            if payload.get("verb") == "stats":
                pending.append(
                    asyncio.ensure_future(
                        _serve_stats(server, writer, write_lock, payload)
                    )
                )
                pending = [task for task in pending if not task.done()]
                continue
            pending.append(
                asyncio.ensure_future(
                    _serve_request(server, writer, write_lock, payload)
                )
            )
            pending = [task for task in pending if not task.done()]
        # EOF: the client closed its connection.  Anything still pending
        # was abandoned mid-stream — the `finally` below cancels those
        # serve tasks, which propagates into server-side request
        # cancellation so no abandoned request holds a queue slot.
    except (ConnectionResetError, BrokenPipeError):
        pass
    finally:
        for task in pending:
            task.cancel()
        if pending:
            # Let the cancelled tasks run their cancellation handlers
            # (server-side request cancellation) before closing up.
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
