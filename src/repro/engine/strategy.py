"""The :class:`SearchStrategy` contract, the comparison-system adapters
and the by-name strategy registry.

Every system of the paper's evaluation — MOpt's analytical search, the
oneDNN-like library dispatch, the AutoTVM-like empirical tuner and the
random/grid sampling baselines — answers the same question: *given one
conv2d operator and one machine, which configuration do you pick and how
fast is it?*  Historically each experiment wired the answer up by hand,
one bespoke code path per system.  This module gives them a single
contract:

    strategy = get_strategy("autotvm", threads=8, trials=200)
    result = strategy.search(spec, machine)     # -> StrategyResult

:class:`StrategyResult` is deliberately plain (floats, a tiling
configuration, a JSON-able ``extras`` mapping) so results round-trip
through the persistent cache of :mod:`repro.engine.cache` and across
process-pool workers unchanged.

The comparison systems' modules (:mod:`repro.baselines`, the simulator's
:mod:`repro.sim.perfmodel`) are imported by the ``search`` and
``characterize`` methods that run them, so registering every system
costs an analytical ``mopt`` search nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from ..obs.trace import span
from ..core.config import MultiLevelConfig
from ..core.microkernel import design_microkernel
from ..core.optimizer import MOptOptimizer, OptimizerSettings, fast_settings
from ..core.pruning import pruning_statistics
from ..core.tensor_spec import LOOP_INDICES, ConvSpec
from ..machine.spec import MachineSpec
from .serialization import (
    maybe_config_from_dict,
    maybe_config_to_dict,
    settings_to_dict,
)


@dataclass(frozen=True)
class StrategyResult:
    """Uniform outcome of one strategy on one (operator, machine) pair.

    ``gflops`` is the strategy's headline performance figure (measured on
    the shared virtual machine for the empirical systems, or the modeled
    figure when a strategy runs in prediction-only mode); ``time_seconds``
    is the matching execution time, ``search_seconds`` the cost of finding
    the configuration, and ``extras`` strategy-specific JSON-able detail
    (e.g. MOpt-1 vs. MOpt-5 figures, tuner trial counts).
    """

    strategy: str
    spec_name: str
    gflops: float
    time_seconds: float
    search_seconds: float
    best_config: Optional[MultiLevelConfig] = None
    extras: Mapping[str, Any] = field(default_factory=dict)

    def with_spec_name(self, name: str) -> "StrategyResult":
        """Relabeled copy (used when a cached shape serves several layers)."""
        return replace(self, spec_name=name)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form, inverse of :meth:`from_dict`."""
        return {
            "strategy": self.strategy,
            "spec_name": self.spec_name,
            "gflops": float(self.gflops),
            "time_seconds": float(self.time_seconds),
            "search_seconds": float(self.search_seconds),
            "best_config": maybe_config_to_dict(self.best_config),
            "extras": dict(self.extras),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StrategyResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            strategy=payload["strategy"],
            spec_name=payload["spec_name"],
            gflops=float(payload["gflops"]),
            time_seconds=float(payload["time_seconds"]),
            search_seconds=float(payload["search_seconds"]),
            best_config=maybe_config_from_dict(payload.get("best_config")),
            extras=dict(payload.get("extras", {})),
        )


@runtime_checkable
class SearchStrategy(Protocol):
    """Common contract of every comparison system.

    Implementations must be deterministic functions of their constructor
    options plus ``(spec, machine)`` — that is what makes results safe to
    cache persistently and to recompute in pool workers — and must expose
    their full configuration through :meth:`cache_token`.
    """

    name: str

    def search(self, spec: ConvSpec, machine: MachineSpec) -> StrategyResult:
        """Pick a configuration for ``spec`` on ``machine`` and rate it."""
        ...

    def cache_token(self) -> Mapping[str, Any]:
        """JSON-able description of every option that affects the result."""
        ...


def _time_from_gflops(spec: ConvSpec, gflops: float) -> float:
    """Execution time implied by a GFLOP/s figure for this operator."""
    return spec.flops / (max(gflops, 1e-12) * 1e9)


# ----------------------------------------------------------------------
# MOpt
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MOptStrategy:
    """Adapter around :class:`~repro.core.optimizer.MOptOptimizer`.

    With ``measure=True`` (the evaluation's configuration) the top-k
    modeled candidates are measured on the virtual machine with seeds
    ``seed + seed_stride * index`` — exactly the Figure 7/8 protocol — and
    ``extras`` carries both the MOpt-1 (best-modeled) and MOpt-5 (best of
    top five by measurement) figures.  With ``measure=False`` the purely
    analytical prediction is reported, which is what network-level
    optimization wants: no measurement in the loop at all.
    """

    name: str = field(default="mopt", init=False)
    settings: Optional[OptimizerSettings] = None
    threads: Optional[int] = None
    measure: bool = True
    seed: int = 0
    seed_stride: int = 17
    top_k: int = 5

    def _resolved_settings(self) -> OptimizerSettings:
        if self.settings is not None:
            return self.settings
        return fast_settings(parallel=True, threads=self.threads)

    def _resolved_threads(self, machine: MachineSpec) -> int:
        settings = self._resolved_settings()
        return self.threads or settings.threads or machine.cores

    def search(self, spec: ConvSpec, machine: MachineSpec) -> StrategyResult:
        settings = self._resolved_settings()
        optimizer = MOptOptimizer(machine, settings)
        result = optimizer.optimize(spec)
        best = result.best
        extras: Dict[str, Any] = {
            "class_name": best.class_name,
            "bottleneck_level": best.bottleneck_level,
            "predicted_gflops": result.predicted_gflops,
            "predicted_time_seconds": best.predicted_time_seconds,
        }
        if self.measure:
            from ..sim.perfmodel import virtual_measurement

            threads = self._resolved_threads(machine)
            measurements = [
                virtual_measurement(
                    spec,
                    candidate.config,
                    machine,
                    threads=threads,
                    seed=self.seed + self.seed_stride * index,
                )
                for index, candidate in enumerate(result.top(self.top_k))
            ]
            candidate_gflops = [float(m.gflops) for m in measurements]
            mopt1 = candidate_gflops[0]
            mopt5 = max(candidate_gflops)
            extras.update(
                {
                    "candidate_gflops": candidate_gflops,
                    "mopt1_gflops": mopt1,
                    "mopt5_gflops": mopt5,
                }
            )
            gflops = mopt5
        else:
            gflops = result.predicted_gflops
        return StrategyResult(
            strategy=self.name,
            spec_name=spec.name,
            gflops=gflops,
            time_seconds=_time_from_gflops(spec, gflops),
            search_seconds=result.search_seconds,
            best_config=best.config,
            extras=extras,
        )

    def cache_token(self) -> Mapping[str, Any]:
        return {
            "settings": settings_to_dict(self._resolved_settings()),
            "threads": self.threads,
            "measure": self.measure,
            "seed": self.seed,
            "seed_stride": self.seed_stride,
            "top_k": self.top_k,
        }

    def characterize(self, spec: ConvSpec, machine: MachineSpec) -> Dict[str, Any]:
        """Table 2 row: derived strengths/limitations of the MOpt system."""
        stats = pruning_statistics()
        microkernel = design_microkernel(machine, spec)
        return {
            "system": "MOpt (this work)",
            "auto_tuning": False,
            "microkernel": (
                f"generated, not highly optimized "
                f"(efficiency ~{microkernel.efficiency:.2f} of peak)"
            ),
            "design_space": (
                "comprehensive: all tile-loop permutations and tile sizes via analytical "
                f"modeling ({stats['total_permutations']} permutations pruned to "
                f"{stats['num_classes']} solved cases per level)"
            ),
            "explored_configurations": stats["total_permutations"],
        }


# ----------------------------------------------------------------------
# oneDNN-like library
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OneDnnStrategy:
    """Adapter around the oneDNN-like library baseline (heuristic dispatch)."""

    name: str = field(default="onednn", init=False)
    threads: int = 1
    seed: int = 0

    def search(self, spec: ConvSpec, machine: MachineSpec) -> StrategyResult:
        from ..baselines.onednn_like import run_onednn_like

        with span(
            "strategy.search", strategy=self.name, operator=spec.name
        ) as sp:
            outcome = run_onednn_like(
                spec, machine, threads=self.threads, seed=self.seed
            )
        gflops = outcome.gflops
        return StrategyResult(
            strategy=self.name,
            spec_name=spec.name,
            gflops=gflops,
            time_seconds=_time_from_gflops(spec, gflops),
            search_seconds=sp.elapsed,
            best_config=outcome.schedule.config,
            extras={
                "schedule": outcome.schedule.name,
                "layout_transform_seconds": outcome.layout_transform_seconds,
            },
        )

    def cache_token(self) -> Mapping[str, Any]:
        return {"threads": self.threads, "seed": self.seed}

    def characterize(self, spec: ConvSpec, machine: MachineSpec) -> Dict[str, Any]:
        """Table 2 row: derived strengths/limitations of the library."""
        from ..baselines.onednn_like import ONEDNN_KERNEL_EFFICIENCY, schedule_library

        schedules = schedule_library(spec, machine)
        return {
            "system": "oneDNN (library baseline)",
            "auto_tuning": False,
            "microkernel": (
                f"highly optimized (efficiency ~{ONEDNN_KERNEL_EFFICIENCY:.2f} of peak)"
            ),
            "design_space": (
                f"minimal: {len(schedules)} pre-determined schedules, heuristic dispatch"
            ),
            "explored_configurations": len(schedules),
        }


# ----------------------------------------------------------------------
# AutoTVM-like tuner
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AutoTVMStrategy:
    """Adapter around the AutoTVM-like ML-guided empirical tuner."""

    name: str = field(default="autotvm", init=False)
    threads: int = 1
    trials: int = 200
    seed: int = 0

    def search(self, spec: ConvSpec, machine: MachineSpec) -> StrategyResult:
        from ..baselines.autotvm_like import XGBLikeTuner

        tuner = XGBLikeTuner(spec, machine, threads=self.threads, seed=self.seed)
        tuning = tuner.tune(self.trials)
        gflops = tuning.best_gflops
        return StrategyResult(
            strategy=self.name,
            spec_name=spec.name,
            gflops=gflops,
            time_seconds=_time_from_gflops(spec, gflops),
            search_seconds=tuning.search_seconds,
            best_config=tuning.best_config,
            extras={
                "num_trials": tuning.num_trials,
                "space_size": tuning.space_size,
            },
        )

    def cache_token(self) -> Mapping[str, Any]:
        return {"threads": self.threads, "trials": self.trials, "seed": self.seed}

    def characterize(self, spec: ConvSpec, machine: MachineSpec) -> Dict[str, Any]:
        """Table 2 row: derived strengths/limitations of the auto-tuner."""
        from ..baselines.autotvm_like import ConvTemplate

        template = ConvTemplate(spec)
        return {
            "system": "TVM / AutoTVM (auto-tuner baseline)",
            "auto_tuning": True,
            "microkernel": "n/a (LLVM-vectorized code, no fixed microkernel)",
            "design_space": (
                f"limited: fixed loop-order template, {template.space_size()} knob "
                "settings, auto-tuned by actual execution"
            ),
            "explored_configurations": template.space_size(),
        }


# ----------------------------------------------------------------------
# Sampling baselines
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RandomSearchStrategy:
    """Adapter around uniform random sampling of the tiling space."""

    name: str = field(default="random", init=False)
    threads: int = 1
    trials: int = 100
    seed: int = 0

    def search(self, spec: ConvSpec, machine: MachineSpec) -> StrategyResult:
        from ..baselines.random_search import random_search

        outcome = random_search(
            spec, machine, threads=self.threads, trials=self.trials, seed=self.seed
        )
        return StrategyResult(
            strategy=self.name,
            spec_name=spec.name,
            gflops=outcome.best_gflops,
            time_seconds=_time_from_gflops(spec, outcome.best_gflops),
            search_seconds=outcome.search_seconds,
            best_config=outcome.best_config,
            extras={"evaluated": outcome.evaluated},
        )

    def cache_token(self) -> Mapping[str, Any]:
        return {"threads": self.threads, "trials": self.trials, "seed": self.seed}

    def characterize(self, spec: ConvSpec, machine: MachineSpec) -> Dict[str, Any]:
        """Characterization of the sampling ablation (not part of Table 2)."""
        return {
            "system": "random search (ablation)",
            "auto_tuning": True,
            "microkernel": "n/a (no fixed microkernel)",
            "design_space": f"uniform sampling, {self.trials} measured candidates",
            "explored_configurations": self.trials,
        }


@dataclass(frozen=True)
class GridSearchStrategy:
    """Adapter around the deterministic coordinate-grid sampling baseline."""

    name: str = field(default="grid", init=False)
    threads: int = 1
    per_index: int = 4
    seed: int = 0
    permutation: Tuple[str, ...] = LOOP_INDICES

    def search(self, spec: ConvSpec, machine: MachineSpec) -> StrategyResult:
        from ..baselines.random_search import grid_search

        outcome = grid_search(
            spec,
            machine,
            self.permutation,
            threads=self.threads,
            per_index=self.per_index,
            seed=self.seed,
        )
        return StrategyResult(
            strategy=self.name,
            spec_name=spec.name,
            gflops=outcome.best_gflops,
            time_seconds=_time_from_gflops(spec, outcome.best_gflops),
            search_seconds=outcome.search_seconds,
            best_config=outcome.best_config,
            extras={"evaluated": outcome.evaluated},
        )

    def cache_token(self) -> Mapping[str, Any]:
        return {
            "threads": self.threads,
            "per_index": self.per_index,
            "seed": self.seed,
            "permutation": list(self.permutation),
        }

    def characterize(self, spec: ConvSpec, machine: MachineSpec) -> Dict[str, Any]:
        """Characterization of the grid ablation (not part of Table 2)."""
        return {
            "system": "grid search (ablation)",
            "auto_tuning": True,
            "microkernel": "n/a (no fixed microkernel)",
            "design_space": f"coordinate grid, {self.per_index} points per index",
            "explored_configurations": self.per_index ** len(LOOP_INDICES),
        }


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class UnknownStrategyError(KeyError):
    """Raised when a strategy name is not present in the registry."""


class StrategyRegistry:
    """By-name registry of :class:`SearchStrategy` factories.

    A factory is any callable that accepts the strategy's options as
    keyword arguments and returns a strategy instance.  Experiments (and
    pool workers) refer to strategies purely by ``(name, options)``,
    which is what makes fan-out and caching strategy-agnostic.
    """

    def __init__(self) -> None:
        self._factories: Dict[str, Callable[..., SearchStrategy]] = {}

    def register(
        self, name: str, factory: Callable[..., SearchStrategy]
    ) -> Callable[..., SearchStrategy]:
        """Register ``factory`` under ``name`` (returns the factory)."""
        if not name:
            raise ValueError("strategy name must be non-empty")
        self._factories[name] = factory
        return factory

    def create(self, name: str, **options: Any) -> SearchStrategy:
        """Instantiate the strategy registered under ``name``."""
        try:
            factory = self._factories[name]
        except KeyError:
            raise UnknownStrategyError(
                f"unknown strategy {name!r}; available: {self.names()}"
            ) from None
        return factory(**options)

    def names(self) -> Tuple[str, ...]:
        """Registered strategy names, sorted."""
        return tuple(sorted(self._factories))

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def __iter__(self):
        return iter(self.names())


#: The process-wide registry holding the paper's four comparison systems
#: plus the sampling ablations.
strategy_registry = StrategyRegistry()
strategy_registry.register("mopt", MOptStrategy)
strategy_registry.register("onednn", OneDnnStrategy)
strategy_registry.register("autotvm", AutoTVMStrategy)
strategy_registry.register("random", RandomSearchStrategy)
strategy_registry.register("grid", GridSearchStrategy)


def get_strategy(name: str, **options: Any) -> SearchStrategy:
    """Instantiate a registered strategy by name (module-level convenience)."""
    return strategy_registry.create(name, **options)


def available_strategies() -> Tuple[str, ...]:
    """Names currently registered (module-level convenience)."""
    return strategy_registry.names()


def register_strategy(name: str, factory: Callable[..., SearchStrategy]) -> None:
    """Register a new strategy factory in the shared registry."""
    strategy_registry.register(name, factory)
