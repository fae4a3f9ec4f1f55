"""Reproduction of "Analytical Characterization and Design Space Exploration
for Optimization of CNNs" (Li et al., ASPLOS 2021).

The package implements the MOpt system described in the paper and the
substrates needed to evaluate it without the paper's hardware/software
stack:

* :mod:`repro.api` — **the public front door**: the :class:`Session`
  façade over every optimization path, the workload builders
  (``conv``/``matmul``/``network``/``parse``) and the unified
  request/result types.  The matching CLI is ``python -m repro``.
* :mod:`repro.core` — the analytical data-movement model, the eight-class
  permutation pruning, multi-level tile-size optimization (Algorithm 1),
  the parallel cost model and the microkernel design.
* :mod:`repro.machine` — machine descriptions (i7-9700K, i9-10980XE), the
  by-name preset registry and bandwidth modeling.
* :mod:`repro.sim` — a memory-hierarchy simulator, tiled executor and
  performance model standing in for the paper's hardware measurements.
* :mod:`repro.codegen` — a loop-nest IR and code emission for the tiled
  convolutions.
* :mod:`repro.baselines` — oneDNN-like and AutoTVM-like comparators plus
  random/grid/exhaustive search.
* :mod:`repro.engine` — the network-level optimization engine: the
  :class:`SearchStrategy` registry unifying all comparison systems, the
  two-tier persistent :class:`ResultCache` and the parallel
  :class:`NetworkOptimizer`.
* :mod:`repro.serving` — the async serving engine behind
  ``Session.optimize_async``: a queued, back-pressured
  :class:`OptimizationServer` with single-flight coalescing, graceful
  drain, streaming progress and in-process/TCP clients.
* :mod:`repro.dse` — hardware design-space exploration: declarative
  machine sweeps (:class:`DesignSpace` + axes), a resumable sweep
  executor over the engine path, Pareto frontiers and sensitivity
  reports.  The front doors are :meth:`Session.explore` and
  ``python -m repro dse``.
* :mod:`repro.workloads` — the Table 1 conv2d operators and configuration
  sampling.
* :mod:`repro.analysis` and :mod:`repro.experiments` — statistics and the
  drivers that regenerate every table and figure of the evaluation.

Quickstart — one operator::

    from repro.api import Session, conv

    session = Session(machine="i7-9700k")
    result = session.optimize(conv(256, 256, 14, 3, name="R9"))
    print(result.summary())          # GFLOP/s, time, search cost
    print(result.best_config.describe())

Whole network, with a persistent cache (the second run is warm)::

    from repro.api import Session

    session = Session(
        machine="i7-9700k", strategy="mopt",
        strategy_options={"threads": 8, "measure": False},
        cache="/tmp/repro-cache",
    )
    print(session.optimize("resnet18").summary())
    print(session.optimize("resnet18/R9").gflops)   # one layer, now cached

Async serving with coalescing and streaming progress::

    import asyncio

    async def main():
        async with Session(machine="i7-9700k") as session:
            response = await session.optimize_async(
                "resnet18", on_event=print
            )
            print(response.total_gflops)

    asyncio.run(main())

The same flows from a shell: ``python -m repro optimize resnet18
--machine i7-9700k``, ``python -m repro serve``, ``python -m repro warm``
(see ``python -m repro --help``).
"""

from .api import (
    Session,
    WarmCacheReport,
    conv,
    matmul,
    network,
    operator,
    parse,
)
from .api.types import OptimizeRequest
from .core import (
    ConvSpec,
    MOptOptimizer,
    MultiLevelConfig,
    OptimizationResult,
    OptimizerSettings,
    TilingConfig,
    data_volume,
    design_microkernel,
    fast_settings,
    multilevel_cost,
    optimize_conv,
    pruned_permutation_classes,
)
from .dse import (
    Axis,
    DesignSpace,
    ExplorationResult,
    axis_grid,
    axis_log2,
    axis_values,
    explore,
    pareto_frontier,
)
from .engine import (
    NetworkOptimizer,
    NetworkResult,
    OpResult,
    ResultCache,
    SearchStrategy,
    StrategyResult,
    available_strategies,
    get_strategy,
    register_strategy,
    result_cache_key,
    spec_shape_key,
    strategy_registry,
)
from .machine import (
    MachineSpec,
    available_machines,
    cascade_lake_i9_10980xe,
    coffee_lake_i7_9700k,
    get_machine,
    machine_registry,
    register_machine,
    tiny_test_machine,
)
from .serving import (
    OptimizationServer,
    OptimizeResponse,
    ServerConfig,
    ServingClient,
)
from .workloads import all_benchmarks, benchmark_by_name, network_benchmarks

__version__ = "1.8.0"

__all__ = [
    "Axis",
    "ConvSpec",
    "DesignSpace",
    "ExplorationResult",
    "MachineSpec",
    "MOptOptimizer",
    "MultiLevelConfig",
    "NetworkOptimizer",
    "NetworkResult",
    "OpResult",
    "OptimizationResult",
    "OptimizationServer",
    "OptimizeRequest",
    "OptimizeResponse",
    "OptimizerSettings",
    "ResultCache",
    "SearchStrategy",
    "ServerConfig",
    "ServingClient",
    "Session",
    "StrategyResult",
    "TilingConfig",
    "WarmCacheReport",
    "all_benchmarks",
    "available_machines",
    "available_strategies",
    "axis_grid",
    "axis_log2",
    "axis_values",
    "benchmark_by_name",
    "cascade_lake_i9_10980xe",
    "coffee_lake_i7_9700k",
    "conv",
    "data_volume",
    "design_microkernel",
    "explore",
    "fast_settings",
    "get_machine",
    "get_strategy",
    "machine_registry",
    "matmul",
    "multilevel_cost",
    "network",
    "network_benchmarks",
    "operator",
    "optimize_conv",
    "pareto_frontier",
    "parse",
    "pruned_permutation_classes",
    "register_machine",
    "register_strategy",
    "result_cache_key",
    "spec_shape_key",
    "strategy_registry",
    "tiny_test_machine",
]
