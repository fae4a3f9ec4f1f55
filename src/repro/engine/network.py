"""Network-level optimization: dedup, parallel fan-out and aggregation.

The paper's headline claim is that analytical modeling makes
design-space exploration cheap enough to optimize *whole networks* in
seconds.  :class:`NetworkOptimizer` is the repo's realization of that
claim as an API: give it a network (a Table 1 name such as
``"resnet18"`` or any list of :class:`~repro.core.tensor_spec.ConvSpec`)
and a strategy name, and it

1. **deduplicates** identically-shaped operators (content hash of the
   shape, name excluded) so each distinct problem is solved once,
2. leads or joins one :meth:`~repro.engine.cache.ResultCache.flight`
   per distinct shape: a memory hit is done at once, a follower waits
   for another caller's computation of the same key, and a leader
   checks the disk tier, else searches and stores,
3. runs the leaders inline (``serial``, the default) or, with
   ``process``, on threads of the call that each hand their search to
   the long-lived worker pool of :mod:`repro.core.solve_pool`,
4. aggregates per-layer results into network totals: predicted
   execution time, network GFLOPS and per-layer figures from which
   geomean speedups between strategies are computed.
"""

from __future__ import annotations

from concurrent.futures import wait
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..obs.trace import span
from ..core import solve_pool
from ..core.tensor_spec import ConvSpec
from ..machine.spec import MachineSpec
from ..workloads.benchmarks import network_benchmarks
from .cache import ResultCache
from .serialization import spec_shape_key
from .strategy import SearchStrategy, StrategyResult, get_strategy

#: Accepted ``executor`` modes of :class:`NetworkOptimizer`.
EXECUTOR_MODES = ("serial", "process")


def resolve_network(
    network: Union[str, Sequence[ConvSpec]], *, batch: int = 1
) -> Tuple[str, List[ConvSpec]]:
    """Resolve a network argument into ``(name, operator list)``.

    ``network`` is either a Table 1 network name (resolved through
    :func:`repro.workloads.benchmarks.network_benchmarks`) or an explicit
    operator list (named ``"custom"``).  Raises on empty networks so
    callers fail before queueing/solving anything.
    """
    if isinstance(network, str):
        specs = network_benchmarks(network, batch=batch)
        name = network
    else:
        specs = list(network)
        name = "custom"
    if not specs:
        raise ValueError("network has no operators")
    return name, specs


def dedup_specs(specs: Sequence[ConvSpec]) -> "Dict[str, ConvSpec]":
    """Map shape key -> first operator with that shape (insertion order)."""
    distinct: "Dict[str, ConvSpec]" = {}
    for spec in specs:
        distinct.setdefault(spec_shape_key(spec), spec)
    return distinct


def build_network_result(
    *,
    network: str,
    machine_name: str,
    strategy: str,
    specs: Sequence[ConvSpec],
    solved: Mapping[str, StrategyResult],
    cached_keys: "set",
    wall_seconds: float,
) -> NetworkResult:
    """Assemble per-layer outcomes and aggregates from solved shapes.

    ``solved`` maps shape keys to strategy results; cached or deduped
    results are relabeled to each layer's name.  This is shared by the
    synchronous :class:`NetworkOptimizer` and the async serving
    front-end, which produce results through different execution paths
    but must aggregate identically.
    """
    outcomes = tuple(op_result(spec, solved, cached_keys) for spec in specs)
    return NetworkResult(
        network=network,
        machine_name=machine_name,
        strategy=strategy,
        operators=outcomes,
        distinct_operators=len({o.shape_key for o in outcomes}),
        cache_hits=len(cached_keys),
        wall_seconds=wall_seconds,
    )


def op_result(
    spec: ConvSpec, solved: Mapping[str, StrategyResult], cached_keys: "set"
) -> OpResult:
    """One operator's :class:`OpResult` from the solved shapes.

    The shape's result is relabeled to ``spec``'s name; ``cached`` says
    whether the shape key is in ``cached_keys``.
    """
    shape_key = spec_shape_key(spec)
    result = solved[shape_key]
    if result.spec_name != spec.name:
        result = result.with_spec_name(spec.name)
    return OpResult(
        spec=spec, result=result, cached=shape_key in cached_keys, shape_key=shape_key
    )


@dataclass(frozen=True)
class OpResult:
    """One operator's result: the unified per-op type of the public API.

    This is both a layer's slice of a :class:`NetworkResult` and the
    return type of single-operator optimization through
    :class:`repro.api.Session` — one result family for core, engine and
    serving (the serving protocol's ``OperatorFigure`` is its wire
    projection).
    """

    spec: ConvSpec
    result: StrategyResult
    cached: bool
    shape_key: str

    @property
    def name(self) -> str:
        """The operator's (layer) name."""
        return self.spec.name

    @property
    def strategy(self) -> str:
        """Name of the strategy that produced the result."""
        return self.result.strategy

    @property
    def gflops(self) -> float:
        """The layer's headline GFLOP/s figure."""
        return self.result.gflops

    @property
    def time_seconds(self) -> float:
        """The layer's predicted/measured execution time."""
        return self.result.time_seconds

    @property
    def search_seconds(self) -> float:
        """Cost of finding the configuration (0-ish for cache hits)."""
        return self.result.search_seconds

    @property
    def best_config(self):
        """The chosen multi-level tiling configuration (may be ``None``)."""
        return self.result.best_config

    def summary(self) -> str:
        """One-line human-readable description."""
        origin = "cache" if self.cached else f"search {self.search_seconds:.2f} s"
        return (
            f"{self.spec.name} via {self.strategy!r}: "
            f"{self.gflops:.1f} GFLOP/s "
            f"({self.time_seconds * 1e3:.3f} ms, {origin})"
        )


@dataclass(frozen=True)
class NetworkResult:
    """Aggregated outcome of optimizing every operator of one network."""

    network: str
    machine_name: str
    strategy: str
    operators: Tuple[OpResult, ...]
    distinct_operators: int
    cache_hits: int
    wall_seconds: float

    @property
    def num_operators(self) -> int:
        """Number of layers (before deduplication)."""
        return len(self.operators)

    @property
    def total_flops(self) -> float:
        """Total floating-point work of the network."""
        return float(sum(o.spec.flops for o in self.operators))

    @property
    def total_time_seconds(self) -> float:
        """Network execution time: sum of per-layer times."""
        return float(sum(o.time_seconds for o in self.operators))

    @property
    def total_gflops(self) -> float:
        """Whole-network throughput implied by the per-layer times."""
        return self.total_flops / max(self.total_time_seconds, 1e-30) / 1e9

    @property
    def total_search_seconds(self) -> float:
        """Total search cost actually paid.

        Cache hits cost nothing, and a shape solved once but shared by
        several layers is counted once — this is the cost of the run,
        not the cost a dedup-less optimizer would have paid.
        """
        seen: set = set()
        total = 0.0
        for o in self.operators:
            if o.cached or o.shape_key in seen:
                continue
            seen.add(o.shape_key)
            total += o.result.search_seconds
        return total

    def gflops_by_layer(self) -> Dict[str, float]:
        """Layer name -> GFLOP/s."""
        return {o.spec.name: o.gflops for o in self.operators}

    def outcome(self, layer: str) -> OpResult:
        """Look one layer up by name."""
        for o in self.operators:
            if o.spec.name == layer:
                return o
        raise KeyError(f"no layer {layer!r} in network {self.network!r}")

    def geomean_speedup_vs(self, other: "NetworkResult") -> float:
        """Geometric-mean per-layer speedup of this result over ``other``.

        Layers are matched by name; both results must cover the same
        layers (the usual case: same network, different strategies).
        """
        from ..analysis.stats import geometric_mean

        mine = self.gflops_by_layer()
        theirs = other.gflops_by_layer()
        if set(mine) != set(theirs):
            raise ValueError(
                f"layer sets differ: {sorted(mine)} vs {sorted(theirs)}"
            )
        return geometric_mean([mine[name] / theirs[name] for name in mine])

    def summary(self) -> str:
        """Short human-readable aggregate description."""
        return (
            f"{self.network} via {self.strategy!r} on {self.machine_name}: "
            f"{self.num_operators} layers ({self.distinct_operators} distinct, "
            f"{self.cache_hits} cache hits), predicted "
            f"{self.total_time_seconds * 1e3:.3f} ms "
            f"({self.total_gflops:.1f} GFLOPS), "
            f"search {self.total_search_seconds:.2f} s, "
            f"wall {self.wall_seconds:.2f} s"
        )


class NetworkOptimizer:
    """Optimize every conv2d operator of a network through one strategy.

    Parameters
    ----------
    machine:
        Target machine description.
    strategy:
        Registry name of the search strategy (``"mopt"``, ``"onednn"``,
        ``"autotvm"``, ``"random"``, ``"grid"`` or anything registered
        later), configured through ``strategy_options``.
    strategy_options:
        Keyword options forwarded to the registry factory.
    cache:
        Optional :class:`~repro.engine.cache.ResultCache`; hits skip the
        search entirely and warm whole-network re-runs become O(lookups).
        Without one, each call coalesces through a throwaway cache.
    executor:
        Where a call's searches run: ``"serial"`` (default) inline in
        the calling thread, ``"process"`` on the long-lived worker pool
        of :mod:`repro.core.solve_pool`.  Both give bit-identical
        answers (strategies are deterministic).  Searches are CPU-bound
        Python that hold the GIL, so threads would not overlap them: on
        a 2-CPU host, cold mobilenet mopt (``measure=False``,
        ``max_workers=2``) took 3.2-3.6 s serial and 2.1-2.6 s on
        processes as a fresh process's first call, the pool's start
        (a forkserver and two workers importing the solver) included,
        then 1.4-1.8 s on the started pool; a thread pool took
        3.6-4.8 s.  Pool workers import the main module, so a script
        that uses ``"process"`` needs the ``if __name__ == "__main__":``
        guard.
    max_workers:
        How many searches a ``"process"`` call runs at once, and the
        size the pool grows to (default: number of distinct operators,
        capped at 8 and at the CPUs usable by this process).
    """

    def __init__(
        self,
        machine: MachineSpec,
        strategy: Union[str, SearchStrategy] = "mopt",
        *,
        strategy_options: Optional[Mapping[str, Any]] = None,
        cache: Optional[ResultCache] = None,
        executor: str = "serial",
        max_workers: Optional[int] = None,
    ):
        if executor not in EXECUTOR_MODES:
            raise ValueError(
                f"executor must be one of {EXECUTOR_MODES}, got {executor!r}"
            )
        self.machine = machine
        self.strategy_options: Dict[str, Any] = dict(strategy_options or {})
        if isinstance(strategy, str):
            self.strategy_name = strategy
            # Instantiate eagerly so unknown names / bad options fail fast
            # and the cache token is fixed for the optimizer's lifetime.
            self.strategy: SearchStrategy = get_strategy(
                strategy, **self.strategy_options
            )
        else:
            # A ready strategy instance (the repro.api by-object path);
            # options belong to whoever built it.
            if self.strategy_options:
                raise ValueError(
                    "strategy_options only apply to by-name strategies; "
                    "configure the instance instead"
                )
            self.strategy = strategy
            self.strategy_name = strategy.name
        self.cache = cache
        self.executor = executor
        self.max_workers = max_workers

    # ------------------------------------------------------------------
    def optimize(
        self,
        network: Union[str, Sequence[ConvSpec]],
        *,
        batch: int = 1,
    ) -> NetworkResult:
        """Optimize all operators of ``network`` and aggregate the results.

        ``network`` is either a Table 1 network name (resolved through
        :func:`repro.workloads.benchmarks.network_benchmarks`) or an
        explicit operator list.
        """
        with span("network.optimize") as net_span:
            network_name, specs = resolve_network(network, batch=batch)

            # --- 1. deduplicate identical shapes (first occurrence wins).
            distinct = dedup_specs(specs)

            # --- 2. one cache flight per shape; the leaders search.
            solved, cached_keys = self.solve_distinct(distinct)

        # --- 3. per-layer outcomes (cached/deduped results relabeled).
        # Built outside the span so `wall_seconds` is the span's own final
        # clock — the reported wall and the trace record cannot disagree.
        return build_network_result(
            network=network_name,
            machine_name=self.machine.name,
            strategy=self.strategy_name,
            specs=specs,
            solved=solved,
            cached_keys=cached_keys,
            wall_seconds=net_span.elapsed,
        )

    # ------------------------------------------------------------------
    def solve_distinct(
        self, distinct: Mapping[str, ConvSpec]
    ) -> Tuple[Dict[str, StrategyResult], set]:
        """Solve distinct shapes (``shape key -> spec``) through the cache.

        Each shape leads or joins its cache key's
        :meth:`~repro.engine.cache.ResultCache.flight`, so concurrent
        callers of one key share one search whichever path they came by.
        ``serial`` leaders run inline; ``process`` leaders run on a
        thread pool of this call, each handing its search to the
        long-lived worker pool (:func:`repro.core.solve_pool.search`).
        An optimizer without a cache uses a throwaway in-memory one per
        call.  A leader's error is
        raised here (pooled, once every flight has landed); its key is
        released and nothing is stored for it.  Returns ``(solved,
        cached_keys)``: the result of every shape key, and the keys this
        call neither searched nor joined as a follower (memory and disk
        hits).
        """
        cache = self.cache if self.cache is not None else ResultCache()
        # An explicit ``max_workers`` is a caller contract; the default
        # width is the usable cores (capped at 8).
        workers = self.max_workers or min(
            max(1, len(distinct)), 8, solve_pool.available_cpus()
        )
        pooled = self.executor == "process"
        searched: set = set()
        joined: set = set()

        def search(shape_key: str, spec: ConvSpec) -> StrategyResult:
            searched.add(shape_key)
            if not pooled:
                return self.strategy.search(spec, self.machine)
            return solve_pool.search(self.strategy, spec, self.machine, workers)

        with ExitStack() as stack:
            leaders = None
            if pooled:
                # Only this mode loads the thread pool, and solve_pool
                # builds its process pool on the first search.
                from concurrent.futures import ThreadPoolExecutor

                leaders = stack.enter_context(ThreadPoolExecutor(workers))
            flights = {}
            for shape_key, spec in distinct.items():
                key = cache.key_for(spec, self.machine, self.strategy)
                flight, coalesced = cache.flight(
                    key, partial(search, shape_key, spec), leaders
                )
                if coalesced:
                    joined.add(shape_key)
                flights[shape_key] = flight
            wait(flights.values())
        if pooled and searched:
            solve_pool.count_batch()
        solved = {shape_key: flight.result() for shape_key, flight in flights.items()}
        return solved, set(distinct) - searched - joined


def optimize_network(
    network: Union[str, Sequence[ConvSpec]],
    machine: MachineSpec,
    *,
    strategy: str = "mopt",
    strategy_options: Optional[Mapping[str, Any]] = None,
    cache: Optional[ResultCache] = None,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    batch: int = 1,
) -> NetworkResult:
    """One-shot convenience wrapper around :class:`NetworkOptimizer`."""
    optimizer = NetworkOptimizer(
        machine,
        strategy,
        strategy_options=strategy_options,
        cache=cache,
        executor=executor,
        max_workers=max_workers,
    )
    return optimizer.optimize(network, batch=batch)


def compare_network_strategies(
    network: Union[str, Sequence[ConvSpec]],
    machine: MachineSpec,
    strategies: Mapping[str, Mapping[str, Any]],
    *,
    cache: Optional[ResultCache] = None,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    batch: int = 1,
) -> Dict[str, NetworkResult]:
    """Run several strategies over one network and return results by name.

    ``strategies`` maps registry names to their option dicts, e.g.
    ``{"mopt": {"threads": 8}, "onednn": {"threads": 8}}``.  All runs
    share the same cache, so repeated invocations are warm.
    """
    return {
        name: optimize_network(
            network,
            machine,
            strategy=name,
            strategy_options=options,
            cache=cache,
            executor=executor,
            max_workers=max_workers,
            batch=batch,
        )
        for name, options in strategies.items()
    }
