"""The :class:`Session` façade: one front door for every optimization path.

A session binds the three things every optimization needs — a machine, a
search strategy and a result cache — and exposes every execution mode
over them:

* :meth:`Session.optimize` — synchronous; a single operator returns an
  :class:`~repro.api.types.OpResult`, a network (name or operator list)
  returns a :class:`~repro.api.types.NetworkResult`;
* :meth:`Session.optimize_many` — a batch of operators/networks solved
  together: all items' distinct shapes are deduplicated *across the
  whole batch* and fanned out once;
* :meth:`Session.optimize_async` — delegates to the async serving
  engine (:mod:`repro.serving`): bounded queueing, single-flight
  coalescing with other in-flight requests, streaming per-operator
  progress events;
* :meth:`Session.warm_cache` — pre-solve workloads into the session's
  cache (the cache-warming entry the ROADMAP asked for), with a
  ``dry_run`` mode that only reports what is missing.

Machines, strategies and caches are accepted **by object or by name**:
machine names resolve through
:data:`repro.machine.presets.machine_registry`, strategy names through
:data:`repro.engine.strategy.strategy_registry`, and a string/path cache
becomes a persistent :class:`~repro.engine.cache.ResultCache` rooted
there.

    from repro.api import Session

    session = Session(machine="i7-9700k", strategy="mopt",
                      strategy_options={"threads": 8, "measure": False},
                      cache="~/.cache/repro-results")
    print(session.optimize("resnet18").summary())      # whole network
    print(session.optimize("resnet18/R9").gflops)      # one layer
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.tensor_spec import ConvSpec
from ..engine.cache import ResultCache, resolve_cache
from ..engine.network import (
    NetworkOptimizer,
    NetworkResult,
    OpResult,
    build_network_result,
    dedup_specs,
    op_result,
)
from ..engine.serialization import spec_shape_key
from ..engine.strategy import SearchStrategy, get_strategy
from ..machine.presets import get_machine
from ..machine.spec import MachineSpec
from ..obs import trace as obs_trace
from ..obs.trace import span
from ..workloads.benchmarks import network_names
from .spec import parse

#: Anything `Session.optimize` accepts: one operator, a workload
#: reference string, or an explicit operator list.
Workload = Union[str, ConvSpec, Sequence[ConvSpec]]


@dataclass(frozen=True)
class WarmCacheReport:
    """Outcome of one :meth:`Session.warm_cache` pass."""

    networks: Tuple[str, ...]
    distinct_operators: int
    already_cached: int
    solved: int
    dry_run: bool
    wall_seconds: float

    @property
    def missing(self) -> int:
        """Shapes not in the cache when the pass started."""
        return self.distinct_operators - self.already_cached

    def summary(self) -> str:
        """One-line human-readable description."""
        action = "would solve" if self.dry_run else "solved"
        return (
            f"warm {list(self.networks)}: {self.distinct_operators} distinct "
            f"operators, {self.already_cached} already cached, "
            f"{action} {self.solved if not self.dry_run else self.missing}, "
            f"wall {self.wall_seconds:.2f} s"
        )


def _resolve_machine(machine: Union[str, MachineSpec]) -> MachineSpec:
    if isinstance(machine, str):
        return get_machine(machine)
    if isinstance(machine, MachineSpec):
        return machine
    raise TypeError(
        f"machine must be a preset name or MachineSpec, got {type(machine).__name__}"
    )


#: Session cache resolution: the shared engine helper at its defaults.
_resolve_cache = resolve_cache


class Session:
    """One configured entry point for every optimization path.

    Parameters
    ----------
    machine:
        Preset name (``"i7-9700k"``, ``"i9-10980xe"``, ``"tiny"``, or
        anything registered via
        :func:`repro.machine.presets.register_machine`) or a
        :class:`~repro.machine.spec.MachineSpec`.
    strategy:
        Registry name (``"mopt"``, ``"onednn"``, ...) configured through
        ``strategy_options``, or a ready
        :class:`~repro.engine.strategy.SearchStrategy` instance.
    strategy_options:
        Keyword options forwarded to the registry factory (by-name
        strategies only).
    cache:
        ``None`` (default) — a fresh in-memory
        :class:`~repro.engine.cache.ResultCache` private to the session;
        a directory path — a persistent cache over the
        :class:`~repro.engine.chunk_store.ChunkedResultStore` rooted
        there; a :class:`ResultCache` or disk store instance — shared
        as-is;
        ``False`` — caching off.
    executor / max_workers:
        Where the synchronous paths search: ``"serial"`` (default)
        inline, ``"process"`` on ``max_workers`` worker processes (see
        :class:`~repro.engine.network.NetworkOptimizer`).
    server_config:
        Optional :class:`~repro.serving.server.ServerConfig` for the
        async path's embedded server.
    trace:
        ``None`` (default) — tracing off; ``True`` — enable the
        process-wide structured tracer (:mod:`repro.obs.trace`) and
        buffer spans in memory; a path — enable tracing *and* remember
        where :meth:`export_trace` should write the JSON-lines trace.
    """

    def __init__(
        self,
        machine: Union[str, MachineSpec] = "i7-9700k",
        strategy: Union[str, SearchStrategy] = "mopt",
        *,
        strategy_options: Optional[Mapping[str, Any]] = None,
        cache: Union[None, bool, str, Path, ResultCache] = None,
        executor: str = "serial",
        max_workers: Optional[int] = None,
        server_config: Optional[Any] = None,
        trace: Union[None, bool, str, Path] = None,
    ):
        self.machine = _resolve_machine(machine)
        self.cache = _resolve_cache(cache)
        self.trace_path: Optional[Path] = None
        if trace:
            obs_trace.enable()
            if not isinstance(trace, bool):
                self.trace_path = Path(trace).expanduser()
        if isinstance(strategy, str):
            self.strategy: SearchStrategy = get_strategy(
                strategy, **dict(strategy_options or {})
            )
        else:
            if strategy_options:
                raise ValueError(
                    "strategy_options only apply to by-name strategies; "
                    "configure the instance instead"
                )
            self.strategy = strategy
        self.strategy_name = self.strategy.name
        self._optimizer = NetworkOptimizer(
            self.machine,
            self.strategy,
            cache=self.cache,
            executor=executor,
            max_workers=max_workers,
        )
        self._server_config = server_config
        self._server: Optional[Any] = None
        self._client: Optional[Any] = None
        self._server_loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------
    # resolution helpers
    # ------------------------------------------------------------------
    def resolve(
        self, workload: Workload, *, batch: int = 1
    ) -> Union[ConvSpec, List[ConvSpec]]:
        """Resolve one workload argument to a spec or list of specs.

        Strings go through :func:`repro.api.spec.parse` (network names,
        ``"net/layer"`` references, bare operator names); specs and spec
        sequences pass through unchanged.
        """
        if isinstance(workload, ConvSpec):
            return workload
        if isinstance(workload, str):
            return parse(workload, batch=batch)
        specs = list(workload)
        for spec in specs:
            if not isinstance(spec, ConvSpec):
                raise TypeError(
                    f"expected ConvSpec operators, got {type(spec).__name__}"
                )
        return specs

    def characterize(self, workload: Workload, *, batch: int = 1) -> Dict[str, Any]:
        """Strategy self-characterization on one operator (Table 2 rows).

        Delegates to the strategy's optional ``characterize(spec,
        machine)`` hook; raises :class:`TypeError` for strategies that
        do not implement it.
        """
        spec = self.resolve(workload, batch=batch)
        if not isinstance(spec, ConvSpec):
            raise TypeError("characterize takes a single operator")
        hook = getattr(self.strategy, "characterize", None)
        if hook is None:
            raise TypeError(
                f"strategy {self.strategy_name!r} has no characterize() hook"
            )
        return hook(spec, self.machine)

    def describe(self) -> str:
        """One-line description of the session's configuration."""
        tiers = "off"
        if self.cache is not None:
            tiers = "memory" if self.cache.disk is None else (
                f"memory+disk ({self.cache.disk.root})"
            )
        return (
            f"Session(machine={self.machine.name!r}, "
            f"strategy={self.strategy_name!r}, cache={tiers})"
        )

    # ------------------------------------------------------------------
    # synchronous paths
    # ------------------------------------------------------------------
    def optimize(
        self, workload: Workload, *, batch: int = 1
    ) -> Union[OpResult, NetworkResult]:
        """Optimize one operator or one whole network, synchronously.

        A single operator (a :class:`ConvSpec`, ``"R9"`` or
        ``"resnet18/R9"``) returns an :class:`OpResult`; a network name
        or operator list returns a :class:`NetworkResult`.
        """
        return self.optimize_many([workload], batch=batch)[0]

    def optimize_many(
        self, workloads: Sequence[Workload], *, batch: int = 1
    ) -> List[Union[OpResult, NetworkResult]]:
        """Optimize a batch of workloads with one deduplicated fan-out.

        All items are resolved first, their distinct operator shapes are
        collected *across the whole batch* (a ResNet-18 request and an
        ``"R9"`` request share one solve), and each distinct shape leads
        or joins its cache flight once
        (:meth:`~repro.engine.network.NetworkOptimizer.solve_distinct`).
        Results come back in input order, each with the type
        :meth:`optimize` would have returned for it.
        """
        with span("session.optimize_many", items=len(workloads)) as sp:
            resolved = [
                self.resolve(workload, batch=batch) for workload in workloads
            ]
            all_specs: List[ConvSpec] = []
            for item in resolved:
                if isinstance(item, ConvSpec):
                    all_specs.append(item)
                else:
                    all_specs.extend(item)
            solved, cached_keys = self._optimizer.solve_distinct(
                dedup_specs(all_specs)
            )
        # The fan-out is shared, so each network result carries the wall
        # time of the whole batch (there is no meaningful per-item cost);
        # the span's clock is that wall, so trace and result agree.
        wall_seconds = sp.elapsed

        results: List[Union[OpResult, NetworkResult]] = []
        for original, item in zip(workloads, resolved):
            if isinstance(item, ConvSpec):
                results.append(op_result(item, solved, cached_keys))
            else:
                name = original.strip() if isinstance(original, str) else "custom"
                results.append(
                    build_network_result(
                        network=name,
                        machine_name=self.machine.name,
                        strategy=self.strategy_name,
                        specs=item,
                        solved=solved,
                        cached_keys={
                            key
                            for key in (spec_shape_key(spec) for spec in item)
                            if key in cached_keys
                        },
                        wall_seconds=wall_seconds,
                    )
                )
        return results

    def warm_cache(
        self,
        networks: Optional[Sequence[str]] = None,
        *,
        batch: int = 1,
        dry_run: bool = False,
    ) -> WarmCacheReport:
        """Pre-solve workloads into the session's cache.

        ``networks`` defaults to every Table 1 network.  With
        ``dry_run=True`` nothing is solved: the report says how many
        distinct shapes the pass would compute.  Requires a cache
        (``cache=False`` sessions cannot be warmed).
        """
        if self.cache is None:
            raise ValueError("warm_cache requires a session with a cache")
        names = tuple(networks) if networks is not None else network_names()
        with span(
            "session.warm_cache", networks=",".join(names), dry_run=dry_run
        ) as sp:
            specs: List[ConvSpec] = []
            for name in names:
                resolved = self.resolve(name, batch=batch)
                specs.extend(
                    [resolved] if isinstance(resolved, ConvSpec) else resolved
                )
            distinct = dedup_specs(specs)
            if dry_run:
                keys = [
                    self.cache.key_for(spec, self.machine, self.strategy)
                    for spec in distinct.values()
                ]
                hits = self.cache.get_many(keys, record_misses=False)
                already_cached = sum(
                    1 for key in keys if hits.get(key) is not None
                )
                solved = 0
            else:
                _, cached_keys = self._optimizer.solve_distinct(distinct)
                already_cached = len(cached_keys)
                solved = len(distinct) - already_cached
        return WarmCacheReport(
            networks=names,
            distinct_operators=len(distinct),
            already_cached=already_cached,
            solved=solved,
            dry_run=dry_run,
            wall_seconds=sp.elapsed,
        )

    # ------------------------------------------------------------------
    # design-space exploration
    # ------------------------------------------------------------------
    def explore(
        self,
        space: Any,
        workloads: Union[Workload, Sequence[Workload]] = ("resnet18",),
        *,
        batch: int = 1,
        chunk_size: int = 16,
        progress: Optional[Union[str, Path]] = None,
        progress_durability: str = "fsync",
        on_progress: Optional[Callable[[int, int], None]] = None,
        max_failures: Optional[int] = None,
        retry: Any = None,
        shard: Optional[str] = None,
    ):
        """Sweep a machine design space with the session's strategy/cache.

        ``space`` is a :class:`repro.dse.DesignSpace`, or a single
        :class:`repro.dse.Axis` / sequence of axes — in the latter case
        the session's machine becomes the base preset the candidates
        derive from.  Every candidate machine is evaluated on every
        workload through the same engine path :meth:`optimize_many`
        uses, sharing this session's result cache (whose keys already
        content-hash the machine), and the sweep is resumable via
        ``progress``.  A raising candidate is isolated as a
        ``status="failed"`` record instead of killing the sweep
        (``max_failures`` sets an abort threshold; ``retry`` — a
        :class:`repro.reliability.RetryPolicy` — retries transient
        failures first).  ``shard="i/n"`` evaluates one deterministic
        partition of the candidates (one shard per host, merged back
        with ``python -m repro dse merge``); ``progress_durability``
        picks the progress store's flush policy.  Returns a
        :class:`repro.dse.explorer.ExplorationResult` — see
        :mod:`repro.dse` for frontier/sensitivity/report helpers.
        """
        from ..dse.explorer import explore as dse_explore
        from ..dse.space import Axis, DesignSpace

        if isinstance(space, Axis):
            space = DesignSpace(self.machine, [space])
        elif not isinstance(space, DesignSpace):
            space = DesignSpace(self.machine, list(space))
        return dse_explore(
            space,
            workloads,
            strategy=self.strategy,
            cache=self.cache if self.cache is not None else False,
            batch=batch,
            chunk_size=chunk_size,
            progress=progress,
            progress_durability=progress_durability,
            on_progress=on_progress,
            max_failures=max_failures,
            retry=retry,
            shard=shard,
        )

    # ------------------------------------------------------------------
    def performance_stats(self) -> Dict[str, Any]:
        """Counters of the process-wide solver infrastructure.

        Mirrors the serving engine's stats probe for embedded sessions:
        the shape-family compile cache (one bounded table shared by every
        optimizer, network sweep and DSE exploration in the process), the
        batched cost-table memo, and the intra-operator solve pool.  All
        three are reuse/fan-out mechanisms — they never change results —
        so these counters are observability, not configuration.

        The ``"solver"`` entry counts SLSQP activity in this process:
        ``slsqp_runs``, the ``gradient_requests`` of the driver's runs,
        the finite-difference ``probe_rows`` that answered them, the runs
        and kernel iterations per exit status (``runs_<status>``,
        ``iterations_<status>``: ``converged``, ``iteration_limit``,
        ``other``) and the ``evaluator_compiles`` of generated code; ``blas_threads_pinned``
        says whether scipy's OpenBLAS was pinned to one thread (``None``
        before the first solve).  Solves in the forked solve-pool
        workers are not counted here.

        The ``"reliability"`` entry folds in the process-wide health
        counters of :mod:`repro.reliability` (the registry's ``health.*``
        counters: ``pool_rebuilds``,
        ``serial_fallbacks``, ``cache.quarantined``, ...) plus this
        session's disk-cache state (``cache``: quarantined entries,
        write errors, memory-only degradation) — every degradation or
        recovery the infrastructure performed while serving results.
        """
        # Importing the subsystems registers their stat collectors with
        # the unified registry; the payload below is then a pure view
        # over one `metrics.snapshot()`.
        from ..core import batched, cost_model, solve_pool, solver  # noqa: F401
        from ..obs import metrics

        if self.cache is not None:
            cache_reliability = self.cache.reliability_stats()
        else:
            cache_reliability = ResultCache.empty_reliability_stats()
        snap = metrics.snapshot()
        return {
            "compile_cache": snap["compile_cache"],
            "batched_table_cache": snap["batched_table_cache"],
            "solve_pool": snap["solve_pool"],
            "solver": snap["solver"],
            "reliability": {
                **snap["reliability"],
                "cache": cache_reliability,
            },
        }

    def export_trace(
        self, path: Union[None, str, Path] = None
    ) -> Optional[Path]:
        """Write the buffered trace as JSON-lines; returns the path.

        ``path`` defaults to the one given at construction
        (``Session(trace="trace.jsonl")``).  Returns ``None`` (writing
        nothing) when no path is known — a ``trace=True`` session that
        only wanted in-memory spans.
        """
        target = Path(path).expanduser() if path is not None else self.trace_path
        if target is None:
            return None
        obs_trace.export_jsonl(target)
        return target

    # ------------------------------------------------------------------
    # async path (serving engine)
    # ------------------------------------------------------------------
    async def optimize_async(
        self,
        workload: Workload,
        *,
        batch: int = 1,
        priority: int = 10,
        deadline_s: Optional[float] = None,
        on_event: Optional[Callable[[Any], None]] = None,
    ):
        """Optimize through the embedded async serving engine.

        The first call lazily starts an
        :class:`~repro.serving.server.OptimizationServer` over the
        session's machine/strategy/cache on the running event loop;
        concurrent calls share its queue, worker pool and single-flight
        coalescing.  ``on_event`` observes the streaming per-operator
        progress events; the return value is the wire-level
        :class:`~repro.serving.protocol.OptimizeResponse`.
        """
        client = await self._ensure_client()
        resolved = self.resolve(workload, batch=batch)
        if isinstance(resolved, ConvSpec):
            network: Union[str, Tuple[ConvSpec, ...]] = (resolved,)
        elif isinstance(workload, str) and isinstance(resolved, list):
            network = workload.strip()  # plain network name: ship by name
        else:
            network = tuple(resolved)
        return await client.optimize(
            network,
            batch=batch,
            priority=priority,
            deadline_s=deadline_s,
            on_event=on_event,
        )

    async def _ensure_client(self):
        from ..serving.client import ServingClient
        from ..serving.server import OptimizationServer

        loop = asyncio.get_running_loop()
        if self._server is None or self._server_loop is not loop:
            # A server left over from an earlier (now finished) event
            # loop cannot be awaited anymore — tear it down best-effort.
            self._discard_server()
            server = OptimizationServer(
                self.machine,
                self.strategy,
                cache=self.cache if self.cache is not None else ResultCache(),
                config=self._server_config,
            )
            await server.start()
            self._server = server
            self._client = ServingClient(server)
            self._server_loop = loop
        return self._client

    def _discard_server(self) -> None:
        """Drop a server whose event loop is gone (thread pool included)."""
        server, self._server = self._server, None
        self._client = None
        self._server_loop = None
        if server is None:
            return
        pool = getattr(server, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        server._running = False

    @property
    def server(self) -> Optional[Any]:
        """The embedded serving engine, if :meth:`optimize_async` started one."""
        return self._server

    async def aclose(self) -> None:
        """Stop the embedded serving engine (no-op if never started)."""
        if self._server is None:
            return
        if self._server_loop is asyncio.get_running_loop():
            server, self._server = self._server, None
            self._client = None
            self._server_loop = None
            await server.stop()
        else:
            # Closing from a different loop than the server ran on (the
            # original asyncio.run has returned): nothing awaitable left.
            self._discard_server()

    async def __aenter__(self) -> "Session":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()


def optimize(
    workload: Workload,
    *,
    machine: Union[str, MachineSpec] = "i7-9700k",
    strategy: Union[str, SearchStrategy] = "mopt",
    strategy_options: Optional[Mapping[str, Any]] = None,
    cache: Union[None, bool, str, Path, ResultCache] = None,
    batch: int = 1,
    executor: str = "serial",
    max_workers: Optional[int] = None,
) -> Union[OpResult, NetworkResult]:
    """One-shot convenience: build a :class:`Session` and optimize once."""
    session = Session(
        machine,
        strategy,
        strategy_options=strategy_options,
        cache=cache,
        executor=executor,
        max_workers=max_workers,
    )
    return session.optimize(workload, batch=batch)
