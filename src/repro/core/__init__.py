"""Core analytical model and optimizer — the paper's primary contribution.

The public surface of :mod:`repro.core` covers:

* problem description (:class:`ConvSpec`) and tiling configurations
  (:class:`TilingConfig`, :class:`MultiLevelConfig`),
* the single-level analytical data-movement model (:func:`data_volume`),
* the pruned permutation classes (:func:`pruned_permutation_classes`),
* multi-level bandwidth-scaled costing (:func:`multilevel_cost`),
* the microkernel design (:func:`design_microkernel`),
* and the MOpt optimizer itself (:class:`MOptOptimizer`).
"""

from .batched import BatchedCostTable, batched_footprints, table_for
from .config import LEVEL_NAMES, MultiLevelConfig, TilingConfig, single_level
from .cost_model import (
    CompiledPermutationCost,
    CostBreakdown,
    TensorCost,
    compiled_cost_for,
    data_volume,
    per_tensor_volumes,
    tensor_data_volume,
    total_data_volume,
    volume_general,
)
from .capacity import check_config, fits_all_levels, level_capacities, utilization_report
from .loadbalance import floor_tiles, integerize_config, round_to_divisors
from .microkernel import MicrokernelDesign, design_microkernel, register_tile_sizes
from .multilevel import MultiLevelCost, level_data_volume, multilevel_cost
from .optimizer import (
    CandidateSolution,
    MOptOptimizer,
    OptimizationResult,
    OptimizerSettings,
    fast_settings,
    optimize_conv,
)
from .packing import pack_kernel, packing_traffic_elements, unpack_kernel
from .parallel import ParallelPlan, choose_parallel_plan, parallel_multilevel_cost
from .pruning import (
    PermutationClass,
    classify,
    pruned_permutation_classes,
    pruned_representatives,
)
from .solver import (
    SolverOptions,
    minimize_constrained,
    minimize_from_starts,
    solve_best_single_level,
    solve_single_level,
)
from .tensor_spec import (
    LOOP_INDICES,
    PARALLEL_INDICES,
    REDUCTION_INDICES,
    TENSOR_INDICES,
    TENSOR_NAMES,
    ConvSpec,
    InvalidSpecError,
    TensorAccess,
    total_footprint,
)

__all__ = [
    "BatchedCostTable",
    "CandidateSolution",
    "CompiledPermutationCost",
    "ConvSpec",
    "CostBreakdown",
    "InvalidSpecError",
    "LEVEL_NAMES",
    "LOOP_INDICES",
    "MOptOptimizer",
    "MicrokernelDesign",
    "MultiLevelConfig",
    "MultiLevelCost",
    "OptimizationResult",
    "OptimizerSettings",
    "PARALLEL_INDICES",
    "ParallelPlan",
    "PermutationClass",
    "REDUCTION_INDICES",
    "SolverOptions",
    "TENSOR_INDICES",
    "TENSOR_NAMES",
    "TensorAccess",
    "TensorCost",
    "TilingConfig",
    "batched_footprints",
    "check_config",
    "choose_parallel_plan",
    "classify",
    "compiled_cost_for",
    "data_volume",
    "design_microkernel",
    "fast_settings",
    "fits_all_levels",
    "floor_tiles",
    "integerize_config",
    "level_capacities",
    "level_data_volume",
    "minimize_constrained",
    "minimize_from_starts",
    "multilevel_cost",
    "optimize_conv",
    "pack_kernel",
    "packing_traffic_elements",
    "parallel_multilevel_cost",
    "per_tensor_volumes",
    "pruned_permutation_classes",
    "pruned_representatives",
    "register_tile_sizes",
    "round_to_divisors",
    "single_level",
    "solve_best_single_level",
    "solve_single_level",
    "table_for",
    "tensor_data_volume",
    "total_data_volume",
    "total_footprint",
    "unpack_kernel",
    "utilization_report",
    "volume_general",
]
