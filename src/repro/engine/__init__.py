"""Network-level optimization engine: strategies, caching, fan-out.

(The public front door over this engine is :class:`repro.api.Session`;
this package remains the building-block layer it is assembled from.)

This package turns the repo's one-operator-at-a-time optimizers into a
network-level engine with three pieces:

* **Strategies** (:mod:`repro.engine.strategy`) — every comparison
  system (MOpt, the oneDNN-like library, the AutoTVM-like tuner, the
  random/grid samplers) behind one :class:`SearchStrategy` contract,
  ``search(spec, machine) -> StrategyResult``, reachable by name through
  :data:`strategy_registry`.
* **Caching** (:mod:`repro.engine.cache`) — a two-tier
  :class:`ResultCache` (in-memory LRU + on-disk
  :class:`ChunkedResultStore`, :mod:`repro.engine.chunk_store`) keyed
  by a stable content hash of the operator shape, the machine and the
  strategy configuration.  Warm re-runs of a whole network cost lookups,
  not solver time.
* **Network optimization** (:mod:`repro.engine.network`) —
  :class:`NetworkOptimizer` deduplicates identically-shaped layers,
  leads or joins one cache flight per distinct shape (leaders search
  inline or in worker processes), and aggregates network
  totals (predicted time, GFLOPS) plus per-layer figures for geomean
  speedup comparisons.

Usage
-----

Optimize all of ResNet-18 analytically, with a persistent cache so the
second run is served from disk::

    from repro import coffee_lake_i7_9700k
    from repro.engine import NetworkOptimizer, ResultCache

    cache = ResultCache("~/.cache/repro-results")   # or None for in-memory
    optimizer = NetworkOptimizer(
        coffee_lake_i7_9700k(),
        "mopt",
        strategy_options={"threads": 8, "measure": False},
        cache=cache,
    )
    result = optimizer.optimize("resnet18")
    print(result.summary())
    print(result.total_gflops, result.total_time_seconds)

Compare systems through the registry and report geomean speedups::

    from repro.engine import compare_network_strategies

    results = compare_network_strategies(
        "mobilenet",
        coffee_lake_i7_9700k(),
        {"mopt": {"threads": 8}, "onednn": {"threads": 8}},
        cache=cache,
    )
    print(results["mopt"].geomean_speedup_vs(results["onednn"]))

Register a custom strategy and use it like the built-ins::

    from repro.engine import register_strategy

    register_strategy("my-search", MySearchStrategy)
    NetworkOptimizer(machine, "my-search", strategy_options={...})

Strategies must be deterministic in their options plus ``(spec,
machine)`` — that is what makes results safe to cache persistently and
to recompute inside pool workers.
"""

from .cache import (
    CACHE_FORMAT_VERSION,
    STRATEGY_VERSION,
    CacheStats,
    ResultCache,
    resolve_cache,
    result_cache_key,
)
from .chunk_store import (
    CHUNK_FORMAT_VERSION,
    ChunkedResultStore,
    merge_result_stores,
)
from .network import (
    EXECUTOR_MODES,
    NetworkOptimizer,
    NetworkResult,
    OpResult,
    build_network_result,
    compare_network_strategies,
    dedup_specs,
    optimize_network,
    resolve_network,
)
from .serialization import (
    canonical_json,
    config_from_dict,
    config_to_dict,
    machine_to_dict,
    settings_from_dict,
    settings_to_dict,
    spec_from_dict,
    spec_shape_key,
    spec_to_dict,
    stable_hash,
)
from .strategy import (
    AutoTVMStrategy,
    GridSearchStrategy,
    MOptStrategy,
    OneDnnStrategy,
    RandomSearchStrategy,
    SearchStrategy,
    StrategyRegistry,
    StrategyResult,
    UnknownStrategyError,
    available_strategies,
    get_strategy,
    register_strategy,
    strategy_registry,
)

__all__ = [
    "AutoTVMStrategy",
    "CACHE_FORMAT_VERSION",
    "CHUNK_FORMAT_VERSION",
    "CacheStats",
    "ChunkedResultStore",
    "EXECUTOR_MODES",
    "GridSearchStrategy",
    "MOptStrategy",
    "NetworkOptimizer",
    "NetworkResult",
    "OneDnnStrategy",
    "OpResult",
    "RandomSearchStrategy",
    "ResultCache",
    "STRATEGY_VERSION",
    "SearchStrategy",
    "StrategyRegistry",
    "StrategyResult",
    "UnknownStrategyError",
    "available_strategies",
    "build_network_result",
    "canonical_json",
    "compare_network_strategies",
    "config_from_dict",
    "config_to_dict",
    "dedup_specs",
    "get_strategy",
    "resolve_network",
    "machine_to_dict",
    "merge_result_stores",
    "optimize_network",
    "register_strategy",
    "resolve_cache",
    "result_cache_key",
    "settings_from_dict",
    "settings_to_dict",
    "spec_from_dict",
    "spec_shape_key",
    "spec_to_dict",
    "stable_hash",
]
