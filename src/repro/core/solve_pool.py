"""The one process pool: where ``executor="process"`` searches run.

Each search an ``executor="process"`` call of
:class:`~repro.engine.network.NetworkOptimizer` leads runs as
``strategy.search(spec, machine)`` on one lazily built, long-lived
:class:`~concurrent.futures.ProcessPoolExecutor` (:func:`search`).  The
pool grows to the widest call's ``max_workers`` and lives until
:func:`shutdown_pool` or interpreter exit; the flight table, the disk
check and the store stay in the calling process.  Workers start from a
``forkserver``, never by forking the caller: leader threads run while a
pool is (re)built, and a fork copies the locks they hold.  So a worker
imports what its first task needs and builds its own compile cache.

The task ships the strategy *instance* rather than a registry name: a
fresh worker only has the built-in registrations, so a strategy
registered at runtime in the caller would be unresolvable there, while
pickling the instance only needs its class to be importable.  Worker
spans are captured under the caller's trace context
(:func:`~repro.obs.trace.remote_capture`) and ingested on return, so one
trace id spans the process boundary.

The pool is **fault-tolerant**: a worker killed mid-search (OOM killer,
``kill -9``, a crashing extension) breaks the whole executor.  A search
that sees its pool break (or shut down under it) runs again on a rebuilt
pool; if that one breaks under it too, the search runs inline, through
the same task code the workers run, so a recovered answer is bitwise the
undisturbed one.  The ``pool_rebuilds`` / ``serial_fallbacks`` counters
(mirrored into the registry's ``health.pool_rebuilds`` /
``health.serial_fallbacks``) record every recovery, and the
``solve_pool.kill_worker`` fault point lets tests kill a worker on a
chosen dispatch deterministically.  Nothing here loads
``multiprocessing`` before the first pool is built.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import BrokenExecutor, CancelledError
from typing import TYPE_CHECKING, Dict, Optional

from ..obs import trace as obs_trace
from ..obs.metrics import REGISTRY
from ..reliability.faults import fault_fires

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from ..engine.strategy import SearchStrategy, StrategyResult
    from ..machine.spec import MachineSpec
    from .tensor_spec import ConvSpec

#: How the pool's workers start.
START_METHOD = "forkserver"

_STATS = {
    "pool_batches": 0,
    "pool_solves": 0,
    "pool_rebuilds": 0,
    "serial_fallbacks": 0,
}


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def pool_stats() -> Dict[str, int]:
    """Counters of pool activity in this process (for the stats probe).

    ``pool_batches`` counts the calls whose searches ran on the pool,
    ``pool_solves`` the searches the pool answered.
    """
    return dict(_STATS)


REGISTRY.register_collector("solve_pool", pool_stats)


_EXECUTOR: Optional[ProcessPoolExecutor] = None
_EXECUTOR_SIZE = 0
# Leader threads of every call share the one pool.
_EXECUTOR_LOCK = threading.Lock()


def _count(name: str) -> None:
    with _EXECUTOR_LOCK:
        _STATS[name] += 1


def count_batch() -> None:
    """Record one call whose searches ran on the pool."""
    _count("pool_batches")


def _get_executor(workers: int) -> ProcessPoolExecutor:
    global _EXECUTOR, _EXECUTOR_SIZE
    with _EXECUTOR_LOCK:
        if _EXECUTOR is None or _EXECUTOR_SIZE < workers:
            # Only ``executor="process"`` gets here: a serial solve never
            # loads multiprocessing.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            if _EXECUTOR is not None:
                _EXECUTOR.shutdown(wait=False)
            _EXECUTOR = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context(START_METHOD)
            )
            _EXECUTOR_SIZE = workers
        return _EXECUTOR


def shutdown_pool() -> None:
    """Tear the pool down (tests / long-lived servers reclaiming workers)."""
    global _EXECUTOR, _EXECUTOR_SIZE
    with _EXECUTOR_LOCK:
        if _EXECUTOR is not None:
            _EXECUTOR.shutdown(wait=True)
        _EXECUTOR = None
        _EXECUTOR_SIZE = 0


# Drop the pool before interpreter teardown.  `concurrent.futures.process`
# is imported only when the first pool is built, after this module, so
# teardown clears its globals first; a pool still held here would then
# be collected with its weakref callback failing on them.
atexit.register(shutdown_pool)


def _discard_broken_executor(executor: ProcessPoolExecutor) -> bool:
    """Drop a broken executor without waiting on its dead workers.

    Only ``executor`` itself is dropped: when several threads saw the
    same pool break, a replacement one of them already built survives.
    Returns whether this call dropped the current pool.
    """
    global _EXECUTOR, _EXECUTOR_SIZE
    executor.shutdown(wait=False, cancel_futures=True)
    with _EXECUTOR_LOCK:
        if _EXECUTOR is not executor:
            return False
        _EXECUTOR = None
        _EXECUTOR_SIZE = 0
        return True


def _search_task(strategy, spec, machine, trace_ctx, crash=False):
    """One search, in a worker: ``(result, spans)``.

    When the caller was tracing it ships its ``(trace_id, span_id)`` as
    ``trace_ctx``; the spans of the search are captured under that
    ancestry and returned for the caller to ingest.  ``crash`` (the
    ``solve_pool.kill_worker`` fault) makes the worker die the way an
    OOM-killed one does, before it searches.
    """
    if crash:  # pragma: no cover - runs in the worker
        os._exit(86)
    with obs_trace.remote_capture(trace_ctx) as captured:
        result = strategy.search(spec, machine)
    return result, (captured or [])


def _run_on(executor: ProcessPoolExecutor, *task):
    """``_search_task(*task)`` on ``executor``; ``None`` if the pool broke.

    A pool that is broken or shut down refuses the submit with a
    ``RuntimeError`` (``BrokenExecutor`` is one), and a worker start
    racing the break can fail with ``OSError``.  A pool that broke
    while the task was being submitted may also drop it unanswered:
    CPython 3.11 fails a broken pool's pending work without the submit
    lock, so the task is not waited on once the pool reads broken.
    """
    try:
        future = executor.submit(_search_task, *task)
    except (RuntimeError, OSError):
        return None
    if executor._broken:
        return None
    try:
        return future.result()
    except (BrokenExecutor, CancelledError):
        return None


def search(
    strategy: SearchStrategy, spec: ConvSpec, machine: MachineSpec, workers: int
) -> StrategyResult:
    """``strategy.search(spec, machine)`` on the pool, grown to ``workers``.

    A pool that breaks (a worker died) or was shut down under this
    search is dropped and the search runs again on a rebuilt pool; a
    second break runs it inline.  Only the thread that drops the
    current pool counts its rebuild.  The search's own error is raised.
    """
    trace_ctx = obs_trace.current_context()
    for attempt in range(2):
        executor = _get_executor(workers)
        crash = fault_fires("solve_pool.kill_worker")
        outcome = _run_on(executor, strategy, spec, machine, trace_ctx, crash)
        if outcome is not None:
            _count("pool_solves")
            result, spans = outcome
            obs_trace.ingest(spans)
            return result
        if _discard_broken_executor(executor) and attempt == 0:
            _count("pool_rebuilds")
            REGISTRY.counter("health.pool_rebuilds").inc()
    # The rebuilt pool broke too: run the search here, through the task
    # code the workers run (bitwise-identical results).
    _count("serial_fallbacks")
    REGISTRY.counter("health.serial_fallbacks").inc()
    result, spans = _search_task(strategy, spec, machine, trace_ctx)
    obs_trace.ingest(spans)
    return result
