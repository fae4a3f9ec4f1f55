"""Two-tier persistent result cache for search-strategy outcomes.

Design-space exploration is cheap per operator but networks repeat
shapes, experiments repeat networks and services repeat experiments; the
cache makes re-solving an already-seen ``(spec, machine, strategy,
settings)`` combination an O(1) lookup instead of a solver run.

* Tier 1 is an in-memory LRU (bounded ``OrderedDict``) — hit cost is a
  dict lookup.
* Tier 2 is the on-disk
  :class:`~repro.engine.chunk_store.ChunkedResultStore` rooted at a
  directory: CRC-framed records appended to bounded chunk files.
  Corrupt and torn records are **quarantined** (dropped from the index
  and counted) instead of being silently re-read forever, and
  persistent write failures — disk full, read-only filesystem —
  **degrade the store to memory-only mode** with a single warning
  instead of raising ``OSError`` into the middle of a solve.  Both
  events are counted on the store (``quarantined``, ``write_errors``,
  ``degraded``) and in the metrics registry's health counters
  (``health.cache.quarantined``, ``health.cache.write_errors``,
  ``health.cache.degraded``).

One single-flight table sits in front of both tiers: each missing key
being computed has one in-flight ``concurrent.futures.Future``
(:meth:`ResultCache.flight`).  Threads block on it
(:meth:`~repro.engine.network.NetworkOptimizer.solve_distinct`) and the
serving event loop awaits it, so concurrent callers of either kind
share one computation per key.  The leader's :meth:`ResultCache._lead`
is the one place that checks the disk tier for a missing key, computes
it and stores the result.

Keys are content hashes (:func:`repro.engine.serialization.stable_hash`)
of everything that determines the result: the operator *shape* (name
excluded, so identically-shaped layers share an entry), the full machine
description, the strategy's name + :meth:`cache_token` and the scipy
version (the solver's kernel).
"""

from __future__ import annotations

import contextvars
import threading
from collections import OrderedDict
from concurrent.futures import Executor, Future
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union

import scipy

from ..core.tensor_spec import ConvSpec
from ..machine.spec import MachineSpec
from .chunk_store import CACHE_FORMAT_VERSION, ChunkedResultStore
from .serialization import machine_to_dict, spec_to_dict, stable_hash
from .strategy import SearchStrategy, StrategyResult

#: Version stamp of the *search and cost-model numerics*, included in every
#: cache key.  Bump whenever a change makes previously cached results stale
#: even though the request payload is unchanged (e.g. cost-model math,
#: solver defaults, virtual-measurement noise).  Version history:
#:
#: 1 — PR 1 (network engine, crc32-stable virtual measurements).
#: 2 — PR 2 (vectorized analytical core: batched solver path is the
#:     default, reseeded-generator measurement noise).
#: 3 — PR 5 (``MachineSpec.peak_gflops`` clamps the core argument to the
#:     machine's core count: results computed with ``threads > cores``
#:     changed).
#: 4 — PR 6 (loss-free screening rework: the mopt round loop is an
#:     epigraph selection solve plus a linear-coordinate ``polish_all``
#:     refine solve from three deterministic starts; per-class tiles and
#:     predicted times moved, and screened ≡ exact by construction).
STRATEGY_VERSION = 4


def result_cache_key(
    spec: ConvSpec, machine: MachineSpec, strategy: SearchStrategy
) -> str:
    """Stable content hash identifying one strategy run.

    The operator name is deliberately excluded: two layers with the same
    shape on the same machine under the same strategy are the same
    problem (callers relabel the cached result's ``spec_name``).  The
    scipy version names the SLSQP kernel the solver runs, so a store
    written under another scipy misses instead of mixing kernels.
    """
    payload = {
        "version": CACHE_FORMAT_VERSION,
        "strategy_version": STRATEGY_VERSION,
        "scipy": scipy.__version__,
        "spec": spec_to_dict(spec, include_name=False),
        "machine": machine_to_dict(machine),
        "strategy": {"name": strategy.name, "options": dict(strategy.cache_token())},
    }
    return stable_hash(payload)


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`ResultCache` instance.

    ``coalesced`` counts :meth:`ResultCache.flight` calls (threads and
    event-loop tasks alike) that joined another caller's in-flight
    computation of the same key instead of computing it themselves
    (single-flight coalescing); ``computes`` counts the computations
    that actually ran.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    coalesced: int = 0
    computes: int = 0

    @property
    def hits(self) -> int:
        """Total hits across both tiers."""
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses


class ResultCache:
    """In-memory LRU in front of an optional on-disk store.

    ``path=None`` gives a purely in-memory cache; passing a directory
    path enables persistence across processes and sessions through a
    :class:`~repro.engine.chunk_store.ChunkedResultStore` rooted there.
    Any already-constructed store object with ``get``/``put`` is used
    as the disk tier as-is (one store instance behind several serving
    replicas, or a wrapper around one).  All values are
    :class:`~repro.engine.strategy.StrategyResult` instances and are
    round-tripped through their ``to_dict``/``from_dict`` serialization
    on the disk tier, so a disk hit is bit-identical to a fresh store.
    ``max_disk_entries`` caps the disk tier, which evicts whole chunks,
    oldest first (``None`` leaves it unbounded).

    The cache is thread-safe: the memory tier and the stats counters are
    guarded by one lock, the disk tier serializes its own appends, and
    :meth:`flight` adds single-flight semantics on top.  :meth:`close`
    closes a disk store the cache opened from a path.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path, Any]] = None,
        *,
        memory_entries: Optional[int] = None,
        max_disk_entries: Optional[int] = None,
    ):
        # An explicitly passed bound is a caller contract and is pinned;
        # the implicit default (512) may be grown by sweep-style callers
        # via reserve_memory_entries.
        self._memory_entries_pinned = memory_entries is not None
        if memory_entries is None:
            memory_entries = 512
        if memory_entries < 1:
            raise ValueError("memory_entries must be >= 1")
        self.memory_entries = memory_entries
        self._memory: "OrderedDict[str, StrategyResult]" = OrderedDict()
        # A store opened here from a path is this cache's to close.
        self._owns_disk = isinstance(path, (str, Path))
        if path is None:
            self.disk = None
        elif self._owns_disk:
            self.disk = ChunkedResultStore(path, max_entries=max_disk_entries)
        elif hasattr(path, "get") and hasattr(path, "put"):
            self.disk = path
        else:
            raise TypeError(
                "path must be None, a directory path or a disk store "
                f"instance, got {type(path).__name__}"
            )
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._inflight: Dict[str, "Future[StrategyResult]"] = {}

    def close(self) -> None:
        """Close the disk store this cache opened from a path (its append
        handle; a later put reopens it).  A store object passed in stays
        its caller's to close.  Safe to call more than once."""
        if self._owns_disk:
            self.disk.close()

    def reserve_memory_entries(self, entries: int) -> None:
        """Grow (never shrink) the memory tier's LRU bound.

        Sweep-style callers touch (machines x operators) keys — far more
        than the default bound — and call this on shared caches so warm
        re-runs stay in the memory tier.  A cache whose bound was set
        explicitly at construction is pinned: the caller sized it on
        purpose, and this call leaves it untouched.
        """
        with self._lock:
            if not self._memory_entries_pinned and entries > self.memory_entries:
                self.memory_entries = entries

    @classmethod
    def empty_reliability_stats(cls) -> Dict[str, Any]:
        """The zero-state of :meth:`reliability_stats` — the one shape.

        Cache-less callers (a ``cache=False`` session's stats probe)
        report this instead of fabricating their own dict, so the
        empty-state payload can never drift from the real one.
        """
        return {"quarantined": 0, "write_errors": 0, "degraded": False}

    def reliability_stats(self) -> Dict[str, Any]:
        """Degradation counters of the disk tier (zeros when memory-only).

        ``quarantined`` — corrupt entries moved aside; ``write_errors``
        — failed disk writes; ``degraded`` — whether persistent write
        failures switched the store to memory-only mode.  A
        :class:`~repro.engine.chunk_store.ChunkedResultStore` adds its
        layout counters (``chunks``, ``compactions``, ...) on top of
        this common shape.
        """
        if self.disk is None:
            return self.empty_reliability_stats()
        return self.disk.reliability_stats()

    # ------------------------------------------------------------------
    def key_for(
        self, spec: ConvSpec, machine: MachineSpec, strategy: SearchStrategy
    ) -> str:
        """Content-hash key of one strategy run (see :func:`result_cache_key`)."""
        return result_cache_key(spec, machine, strategy)

    def get(self, key: str) -> Optional[StrategyResult]:
        """Look ``key`` up in memory first, then on disk; ``None`` on miss."""
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
                return cached
        if self.disk is not None:
            payload = self.disk.get(key)
            if payload is not None:
                result = StrategyResult.from_dict(payload)
                with self._lock:
                    self._remember(key, result)
                    self.stats.disk_hits += 1
                return result
        with self._lock:
            self.stats.misses += 1
        return None

    def get_many(
        self, keys: Sequence[str], *, record_misses: bool = True
    ) -> Dict[str, Optional[StrategyResult]]:
        """Batched lookup: one result (or ``None``) per key, in one pass.

        The memory tier is scanned under a single lock acquisition; only
        the keys that miss it go to the disk tier.  The serving front-end
        runs it on its event loop for every distinct operator of a
        request at once, so a request answered from either tier takes no
        thread-pool hop.  ``record_misses=False`` keeps the lookup from
        counting misses, for callers that will immediately route the
        missing keys into :meth:`flight` (which counts the miss itself —
        without this, every cold serving operator would be
        double-counted).
        """
        found: Dict[str, Optional[StrategyResult]] = {}
        disk_keys: list = []
        with self._lock:
            for key in keys:
                cached = self._memory.get(key)
                if cached is not None:
                    self._memory.move_to_end(key)
                    self.stats.memory_hits += 1
                    found[key] = cached
                else:
                    disk_keys.append(key)
        for key in disk_keys:
            if self.disk is not None:
                payload = self.disk.get(key)
                if payload is not None:
                    result = StrategyResult.from_dict(payload)
                    with self._lock:
                        self._remember(key, result)
                        self.stats.disk_hits += 1
                    found[key] = result
                    continue
            if record_misses:
                with self._lock:
                    self.stats.misses += 1
            found[key] = None
        return found

    def put(self, key: str, result: StrategyResult) -> None:
        """Store ``result`` in both tiers."""
        with self._lock:
            self._remember(key, result)
            self.stats.stores += 1
        if self.disk is not None:
            self.disk.put(key, result.to_dict())

    def flight(
        self,
        key: str,
        compute: Callable[[], StrategyResult],
        executor: Optional[Executor] = None,
    ) -> Tuple["Future[StrategyResult]", bool]:
        """The one computation of ``key``: ``(future, coalesced)``.

        A memory hit returns a finished future.  Otherwise the caller
        either joins the key's in-flight computation (``coalesced`` is
        true, counted in ``stats.coalesced``) or registers a new one and
        leads it: a disk lookup, then ``compute()`` and :meth:`put` on a
        miss (``stats.computes``).  The leader's work runs inline when
        ``executor`` is ``None``, else as one job on ``executor`` in a
        copy of the caller's context, so its trace ancestry follows it.

        The future ends with the result or the leader's error, and the
        key is released before it does, so a call after an error
        retries.  An inline leader's error is also raised from this
        call, and so is an executor's refusal of the job.  A leader job
        the executor cancels before it runs
        (``shutdown(cancel_futures=True)``) fails the flight with a
        ``RuntimeError``.  Followers hold no thread of their own: a thread blocks in
        ``future.result()``, an event loop awaits
        ``asyncio.shield(asyncio.wrap_future(future))``.  The future is
        running from registration on, so no waiter can cancel it.
        """
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
                hit: "Future[StrategyResult]" = Future()
                hit.set_result(cached)
                return hit, False
            future = self._inflight.get(key)
            if future is not None:
                self.stats.coalesced += 1
                return future, True
            future = Future()
            future.set_running_or_notify_cancel()
            self._inflight[key] = future
        if executor is None:
            self._lead(key, future, compute)
            return future, False
        try:
            job = executor.submit(
                contextvars.copy_context().run, self._lead, key, future, compute
            )
        except BaseException as error:  # a shut-down executor
            self._land(key, future, error=error)
            raise
        else:

            def fail_if_cancelled(job: "Future[None]") -> None:
                if job.cancelled():
                    error = RuntimeError(
                        f"the computation of cache key {key} was cancelled "
                        "before it ran"
                    )
                    self._land(key, future, error=error)

            job.add_done_callback(fail_if_cancelled)
        return future, False

    def _lead(
        self,
        key: str,
        future: "Future[StrategyResult]",
        compute: Callable[[], StrategyResult],
    ) -> None:
        """The leader's work: check the disk tier, else compute and store."""
        try:
            result: Optional[StrategyResult] = None
            if self.disk is not None:
                payload = self.disk.get(key)
                if payload is not None:
                    result = StrategyResult.from_dict(payload)
                    with self._lock:
                        self._remember(key, result)
                        self.stats.disk_hits += 1
            if result is None:
                with self._lock:
                    self.stats.misses += 1
                    self.stats.computes += 1
                result = compute()
                self.put(key, result)
        except BaseException as error:
            self._land(key, future, error=error)
            raise
        self._land(key, future, result)

    def _land(
        self,
        key: str,
        future: "Future[StrategyResult]",
        result: Optional[StrategyResult] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Release ``key``, then settle its flight."""
        with self._lock:
            self._inflight.pop(key, None)
        if error is None:
            future.set_result(result)
        else:
            future.set_exception(error)

    def _remember(self, key: str, result: StrategyResult) -> None:
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._memory:
                return True
        return self.disk is not None and key in self.disk

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def clear(self, *, disk: bool = False) -> None:
        """Drop the memory tier (and optionally the disk tier)."""
        with self._lock:
            self._memory.clear()
        if disk and self.disk is not None:
            self.disk.clear()


def resolve_cache(
    cache: Union[None, bool, str, Path, ResultCache, Any],
    *,
    memory_entries: Optional[int] = None,
) -> Optional[ResultCache]:
    """Resolve the cache argument every front door accepts.

    ``None`` — a fresh in-memory :class:`ResultCache`; ``False`` —
    caching off; a directory path — a persistent cache over the
    :class:`~repro.engine.chunk_store.ChunkedResultStore` rooted there;
    a disk store instance — wrapped so serving replicas can share one
    warm store; a :class:`ResultCache` — shared as-is.
    ``memory_entries`` sizes the memory tier of caches created here; for
    a shared instance it is a *reservation*
    (:meth:`ResultCache.reserve_memory_entries`) that grows
    implicitly-sized caches and leaves explicitly-sized ones alone.
    """
    if cache is None:
        return ResultCache(memory_entries=memory_entries)
    if cache is False:
        return None
    if isinstance(cache, ResultCache):
        if memory_entries is not None:
            cache.reserve_memory_entries(memory_entries)
        return cache
    if isinstance(cache, (str, Path)) or (
        hasattr(cache, "get") and hasattr(cache, "put")
    ):
        return ResultCache(cache, memory_entries=memory_entries)
    raise TypeError(
        "cache must be None (fresh in-memory), False (disabled), a directory "
        "path, a disk store instance or a ResultCache, "
        f"got {type(cache).__name__}"
    )
