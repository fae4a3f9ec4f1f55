"""Process-pool fan-out for the per-class solves of a single operator.

The eight (post-collapse, usually two to eight) permutation-class solves of
one operator are independent, so they can run in separate processes.  This
module owns that pool and the policy that keeps it composable with the
operator-level fan-out in :mod:`repro.engine.network`:

* ``resolve_workers`` returns 1 unless intra-operator parallelism was
  requested explicitly (``OptimizerSettings.class_workers > 1``) *and* the
  current process is not itself a pool worker.  Operator-level worker
  processes call :func:`mark_worker` (directly or via the pool initializer),
  so the two fan-out layers never multiply into ``workers**2`` processes —
  one budget covers both.
* Tasks ship ``(machine, settings, spec, class_name)`` — all plain picklable
  dataclasses — and rebuild the optimizer in the worker.  Under the default
  fork start method the workers inherit the parent's warm
  :data:`~repro.core.cost_model.DEFAULT_COMPILE_CACHE` at fork time (the
  shared-table warm handoff), so class compilation is never repeated.

Results are returned in submission order and each task runs the exact same
serial code path (``class_workers`` is forced to 1 inside the task), so the
fan-out is bitwise-identical to the serial solve order.

The pool is also **fault-tolerant**: a worker killed mid-solve (OOM
killer, operator ``kill -9``, a crashing extension) breaks the whole
:class:`~concurrent.futures.ProcessPoolExecutor`, which used to abort
the entire optimize run.  :func:`run_class_solves` now catches the
broken pool, rebuilds the executor once and re-dispatches only the lost
class solves; if the rebuilt pool breaks too, the remaining solves run
serially in-process — the same code path the workers execute, so the
recovered results are bitwise-identical to an undisturbed run.  The
``pool_rebuilds`` / ``serial_fallbacks`` counters (mirrored into the
registry's ``health.pool_rebuilds`` / ``health.serial_fallbacks``)
record every recovery, and the ``solve_pool.kill_worker`` fault point
lets tests kill a worker on a chosen dispatch deterministically.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import BrokenExecutor, CancelledError
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..obs import trace as obs_trace
from ..obs.metrics import REGISTRY
from ..reliability.faults import fault_fires

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

_IN_WORKER = False

_STATS = {
    "pool_batches": 0,
    "pool_solves": 0,
    "pool_rebuilds": 0,
    "serial_fallbacks": 0,
}


def mark_worker() -> None:
    """Flag this process as a pool worker: it must never spawn nested pools."""
    global _IN_WORKER
    _IN_WORKER = True


def inside_worker() -> bool:
    """True when the current process is a solve/search pool worker."""
    return _IN_WORKER


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_workers(requested: Optional[int], n_tasks: int) -> int:
    """Process count for ``n_tasks`` independent class solves.

    Serial (1) unless parallelism was requested explicitly; an explicit
    request wins over core count (the caller may know better), but never
    exceeds the task count, and is always suppressed inside a pool worker.
    """
    if requested is None or requested <= 1:
        return 1
    if n_tasks <= 1 or inside_worker():
        return 1
    return min(requested, n_tasks)


def pool_stats() -> Dict[str, int]:
    """Counters of pool activity in this process (for the stats probe)."""
    return dict(_STATS)


REGISTRY.register_collector("solve_pool", pool_stats)


_EXECUTOR: Optional[ProcessPoolExecutor] = None
_EXECUTOR_SIZE = 0
# Operator-level threads (a network sweep) share the one pool.
_EXECUTOR_LOCK = threading.Lock()


def _get_executor(workers: int) -> ProcessPoolExecutor:
    global _EXECUTOR, _EXECUTOR_SIZE
    with _EXECUTOR_LOCK:
        if _EXECUTOR is None or _EXECUTOR_SIZE < workers:
            # Only ``class_workers > 1`` gets here: a serial solve never
            # loads multiprocessing.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            if _EXECUTOR is not None:
                _EXECUTOR.shutdown(wait=False)
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - platforms without fork
                context = multiprocessing.get_context()
            _EXECUTOR = ProcessPoolExecutor(
                max_workers=workers, mp_context=context, initializer=mark_worker
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


def _discard_broken_executor(executor: ProcessPoolExecutor) -> None:
    """Drop a broken executor without waiting on its dead workers.

    Only ``executor`` itself is dropped: when several threads saw the
    same pool break, a replacement one of them already built survives.
    """
    global _EXECUTOR, _EXECUTOR_SIZE
    executor.shutdown(wait=False, cancel_futures=True)
    with _EXECUTOR_LOCK:
        if _EXECUTOR is executor:
            _EXECUTOR = None
            _EXECUTOR_SIZE = 0


def _crash_worker_task() -> None:  # pragma: no cover - runs in the worker
    """Fault-injection payload: die the way an OOM-killed worker does."""
    os._exit(86)


def _solve_task(machine, settings, spec, class_name: str, trace_ctx=None):
    """Worker-side solve of one permutation class (serial inside the worker).

    Returns ``(tiles, spans)``: when the submitting side was tracing it
    ships its ``(trace_id, span_id)`` as ``trace_ctx``, the worker
    captures its select/refine spans under that ancestry (the worker
    cannot reach the parent's ring buffer), and the parent ingests them
    — so one trace id spans the fork boundary.
    """
    from .microkernel import design_microkernel
    from .optimizer import MOptOptimizer
    from .pruning import get_class

    optimizer = MOptOptimizer(machine, replace(settings, class_workers=1))
    cls = get_class(class_name)
    with obs_trace.remote_capture(trace_ctx) as captured:
        with obs_trace.span("solve.class", class_name=class_name):
            microkernel = design_microkernel(machine, spec)
            tiles = optimizer._solve_class_tiles(spec, cls, microkernel)
    return tiles, (captured or [])


def run_class_solves(
    machine,
    settings,
    spec,
    class_names: Sequence[str],
    workers: int,
) -> List[Dict[str, Dict[str, float]]]:
    """Solve the named classes across the pool; results in submission order.

    A broken pool (a worker died) is rebuilt once and only the lost
    solves are re-dispatched; a second break degrades the remainder to
    serial in-process execution.  A pool that another thread shut down
    under this batch (it saw the pool break, or grew it) is handled the
    same way.  Every path runs the identical solve code, so recovery
    never changes results.
    """
    results: List[Optional[Dict[str, Dict[str, float]]]] = [None] * len(class_names)
    pending = list(range(len(class_names)))
    rebuilt = False
    trace_ctx = obs_trace.current_context()
    while pending:
        broken = False
        lost: List[int] = []
        executor = _get_executor(workers)
        try:
            if fault_fires("solve_pool.kill_worker"):
                # Deterministic chaos: one worker dies the hard way
                # before this batch's real tasks reach it.
                executor.submit(_crash_worker_task)
            futures = {
                index: executor.submit(
                    _solve_task, machine, settings, spec,
                    class_names[index], trace_ctx,
                )
                for index in pending
            }
        except (BrokenExecutor, RuntimeError):  # RuntimeError: shut down
            broken, lost = True, list(pending)
        else:
            for index, future in futures.items():
                try:
                    results[index], spans = future.result()
                    obs_trace.ingest(spans)
                except (BrokenExecutor, CancelledError):
                    broken = True
                    lost.append(index)
        if not broken:
            break
        pending = lost
        _discard_broken_executor(executor)
        if not rebuilt:
            rebuilt = True
            _STATS["pool_rebuilds"] += 1
            REGISTRY.counter("health.pool_rebuilds").inc()
            continue
        # The rebuilt pool broke too: finish serially in-process (the
        # exact code path the workers run — bitwise-identical results).
        _STATS["serial_fallbacks"] += 1
        REGISTRY.counter("health.serial_fallbacks").inc()
        for index in pending:
            results[index], spans = _solve_task(
                machine, settings, spec, class_names[index], trace_ctx
            )
            obs_trace.ingest(spans)
        break
    _STATS["pool_batches"] += 1
    _STATS["pool_solves"] += len(class_names)
    return results  # type: ignore[return-value]
