"""Hardware design-space exploration over the analytical cost model.

The repo's other subsystems answer "what is the best mapping for this
machine?"; this one answers "what machine should I build or buy for
this workload?".  Because every evaluation is analytical, a sweep over
hundreds of hypothetical machines costs what one autotuning run would:

    from repro.dse import DesignSpace, axis_log2, axis_values, explore

    KiB, MiB = 1024, 1024 * 1024
    space = DesignSpace(
        base="i7-9700k",
        axes=[
            axis_log2("caches.L2.capacity_bytes", 64 * KiB, 1 * MiB),
            axis_values("cores", [4, 8]),
        ],
    )
    result = explore(space, ["resnet18", "mobilenet"],
                     progress="sweep.jsonl")       # resumable
    for machine in result.frontier():              # time vs. SRAM cost
        print(machine.summary())
    print(result.sensitivity())                    # "L2 past X buys <2%"

The pieces:

* :mod:`repro.dse.space` — the declarative parameter-space grammar:
  :class:`DesignSpace`, :class:`Axis` (:func:`axis_values`,
  :func:`axis_grid`, :func:`axis_log2`), validity pruning.
* :mod:`repro.dse.explorer` — the sweep executor: every candidate x
  workload through the shared engine/Session path, one candidate after
  another, resumable JSON-lines progress.
* :mod:`repro.dse.merge` — distributed sweeps: merge per-shard
  progress stores (``explore(shard="i/n")`` per host) back into one
  result set deduped by machine digest.
* :mod:`repro.dse.frontier` — Pareto frontiers and per-axis
  sensitivity summaries.
* :mod:`repro.dse.report` — JSON/CSV/markdown emission.

The matching front doors are :meth:`repro.api.Session.explore` and
``python -m repro dse``.
"""

from .explorer import (
    CandidateOutcome,
    ExplorationResult,
    ProgressMismatchError,
    SweepProgress,
    TooManyFailuresError,
    WorkloadOutcome,
    explore,
    parse_shard,
    shard_candidates,
)
from .merge import (
    MergeReport,
    merge_progress_stores,
    read_progress_store,
)
from .frontier import (
    axis_sensitivity,
    dominates,
    pareto_frontier,
    sensitivity_summary,
)
from .report import (
    to_csv,
    to_json_dict,
    to_markdown,
    write_csv,
    write_json,
    write_markdown,
)
from .space import (
    Axis,
    Candidate,
    DesignSpace,
    DesignSpaceError,
    EmptyDesignSpaceError,
    ExpandedSpace,
    apply_axis,
    axis_grid,
    axis_log2,
    axis_values,
)

__all__ = [
    "Axis",
    "Candidate",
    "CandidateOutcome",
    "DesignSpace",
    "DesignSpaceError",
    "EmptyDesignSpaceError",
    "ExpandedSpace",
    "ExplorationResult",
    "MergeReport",
    "ProgressMismatchError",
    "SweepProgress",
    "TooManyFailuresError",
    "WorkloadOutcome",
    "apply_axis",
    "axis_grid",
    "axis_log2",
    "axis_sensitivity",
    "axis_values",
    "dominates",
    "explore",
    "merge_progress_stores",
    "parse_shard",
    "pareto_frontier",
    "read_progress_store",
    "shard_candidates",
    "sensitivity_summary",
    "to_csv",
    "to_json_dict",
    "to_markdown",
    "write_csv",
    "write_json",
    "write_markdown",
]
