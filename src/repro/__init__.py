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

from importlib import import_module

__version__ = "1.8.0"

#: Every public name -> the module that defines it.  A name's module is
#: imported on the name's first use (PEP 562), so ``import repro`` loads
#: only the package itself, and a cold solve never pays for the serving,
#: DSE, baseline or simulator subsystems.
_EXPORTS = {
    "Axis": ".dse",
    "ConvSpec": ".core",
    "DesignSpace": ".dse",
    "ExplorationResult": ".dse",
    "MachineSpec": ".machine",
    "MOptOptimizer": ".core",
    "MultiLevelConfig": ".core",
    "NetworkOptimizer": ".engine",
    "NetworkResult": ".engine",
    "OpResult": ".engine",
    "OptimizationResult": ".core",
    "OptimizationServer": ".serving",
    "OptimizeRequest": ".api.types",
    "OptimizeResponse": ".serving",
    "OptimizerSettings": ".core",
    "ResultCache": ".engine",
    "SearchStrategy": ".engine",
    "ServerConfig": ".serving",
    "ServingClient": ".serving",
    "Session": ".api",
    "StrategyResult": ".engine",
    "TilingConfig": ".core",
    "WarmCacheReport": ".api",
    "all_benchmarks": ".workloads",
    "available_machines": ".machine",
    "available_strategies": ".engine",
    "axis_grid": ".dse",
    "axis_log2": ".dse",
    "axis_values": ".dse",
    "benchmark_by_name": ".workloads",
    "cascade_lake_i9_10980xe": ".machine",
    "coffee_lake_i7_9700k": ".machine",
    "conv": ".api",
    "data_volume": ".core",
    "design_microkernel": ".core",
    "explore": ".dse",
    "fast_settings": ".core",
    "get_machine": ".machine",
    "get_strategy": ".engine",
    "machine_registry": ".machine",
    "matmul": ".api",
    "multilevel_cost": ".core",
    "network": ".api",
    "network_benchmarks": ".workloads",
    "operator": ".api",
    "optimize_conv": ".core",
    "pareto_frontier": ".dse",
    "parse": ".api",
    "pruned_permutation_classes": ".core",
    "register_machine": ".machine",
    "register_strategy": ".engine",
    "result_cache_key": ".engine",
    "spec_shape_key": ".engine",
    "strategy_registry": ".engine",
    "tiny_test_machine": ".machine",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
