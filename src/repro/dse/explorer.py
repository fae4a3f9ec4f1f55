"""Sweep executor: run a candidate-machine x workload matrix through the engine.

:func:`explore` evaluates every candidate machine of a
:class:`~repro.dse.space.DesignSpace` on every requested workload, going
through the exact same path every other front end uses — a
:class:`repro.api.Session` per candidate over one *shared*
:class:`~repro.engine.cache.ResultCache` and one shared strategy
instance — so operator dedup, the two-tier cache (whose keys already
content-hash the machine) and the vectorized batched core are all
reused.  Candidates are evaluated one after another in the calling
thread, each with a serial ``Session``: a search is CPU-bound Python
that holds the GIL, so threads would not overlap candidates (on a
2-CPU host a thread pool spent more CPU per sweep than one thread).
Each candidate's ``dse.candidate`` span is a child of the sweep's
``dse.sweep`` span.

Sweeps are **resumable**: pass ``progress=<path>`` and every completed
candidate is appended to a JSON-lines progress store as soon as it is
evaluated.  A sweep interrupted at machine 400/1000 restarts warm — the
400 recorded outcomes are loaded instead of recomputed, and anything
the interrupted machine had already solved is still in the result
cache.  The store's header binds it to the (space, strategy, workloads,
batch) combination, so accidentally resuming a different sweep fails
loudly instead of mixing results.

Sweeps are also **failure-isolated**: a candidate whose evaluation
raises (a degenerate machine the solver chokes on, a transient error)
is recorded as a ``status="failed"`` :class:`CandidateOutcome` — error
string and retry count included — and the sweep continues; analyses
(:meth:`ExplorationResult.best`, Pareto frontier, sensitivity) skip
failed candidates automatically.  Failed records persist in the
progress store, so a resumed sweep keeps them instead of re-raising.
``max_failures`` turns systemic breakage into a loud
:class:`TooManyFailuresError` abort, and an optional
:class:`~repro.reliability.RetryPolicy` retries transient candidate
failures before recording them.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, replace
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
from ..engine import cache as engine_cache
from ..engine.cache import ResultCache, resolve_cache
from ..engine.serialization import machine_key, spec_shape_key, stable_hash
from ..engine.strategy import SearchStrategy, get_strategy
from ..machine.spec import MachineSpec
from ..obs import trace as obs_trace
from ..obs.heartbeat import HeartbeatWriter, heartbeat_path_for
from ..obs.metrics import REGISTRY
from ..reliability import RetryPolicy
from ..reliability.faults import fault_point
from .space import Candidate, DesignSpace, ExpandedSpace

#: Format marker of the progress store; bump on incompatible changes.
PROGRESS_FORMAT_VERSION = 1

#: One sweep workload: a network name, a layer reference, one operator
#: or an explicit operator list (everything ``Session.optimize`` takes).
SweepWorkload = Union[str, ConvSpec, Sequence[ConvSpec]]


@dataclass(frozen=True)
class WorkloadOutcome:
    """One workload's predicted figures on one candidate machine."""

    label: str
    time_seconds: float
    gflops: float
    num_operators: int
    cache_hits: int

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form, inverse of :meth:`from_dict`."""
        return {
            "label": self.label,
            "time_seconds": float(self.time_seconds),
            "gflops": float(self.gflops),
            "num_operators": int(self.num_operators),
            "cache_hits": int(self.cache_hits),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "WorkloadOutcome":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            label=payload["label"],
            time_seconds=float(payload["time_seconds"]),
            gflops=float(payload["gflops"]),
            num_operators=int(payload["num_operators"]),
            cache_hits=int(payload["cache_hits"]),
        )


@dataclass(frozen=True)
class CandidateOutcome:
    """One candidate machine's full sweep record.

    Carries the predicted-performance side (per-workload and summed
    times) *and* the hardware-cost side (total SRAM bytes, compute
    lanes, peak GFLOP/s) so Pareto analyses need nothing but a list of
    these.

    A candidate whose evaluation raised is recorded with
    ``status="failed"``: ``error`` holds the exception, ``retries`` how
    many retry attempts were burned, ``workloads`` is empty and
    ``total_time_seconds`` is ``inf`` (so naive min() never picks it).
    ``status`` defaults keep pre-existing progress stores loadable.
    """

    machine_name: str
    machine_digest: str
    parameters: Tuple[Tuple[str, Any], ...]
    workloads: Tuple[WorkloadOutcome, ...]
    total_time_seconds: float
    total_sram_bytes: int
    compute_lanes: int
    peak_gflops: float
    cores: int
    cache_hits: int
    wall_seconds: float
    status: str = "ok"
    error: Optional[str] = None
    retries: int = 0

    @property
    def failed(self) -> bool:
        """Whether this candidate's evaluation raised instead of finishing."""
        return self.status != "ok"

    def parameter(self, path: str) -> Any:
        """The value this candidate takes on one swept axis."""
        for key, value in self.parameters:
            if key == path:
                return value
        raise KeyError(f"candidate {self.machine_name!r} has no axis {path!r}")

    def parameters_dict(self) -> Dict[str, Any]:
        """Axis path -> value, in axis order."""
        return dict(self.parameters)

    def workload(self, label: str) -> WorkloadOutcome:
        """Look one workload's figures up by label."""
        for outcome in self.workloads:
            if outcome.label == label:
                return outcome
        raise KeyError(f"candidate {self.machine_name!r} has no workload {label!r}")

    def summary(self) -> str:
        """One-line human-readable description."""
        if self.failed:
            return (
                f"{self.machine_name}: FAILED after {self.retries} "
                f"retries ({self.error})"
            )
        return (
            f"{self.machine_name}: {self.total_time_seconds * 1e3:.3f} ms "
            f"predicted, {self.total_sram_bytes // 1024} KiB SRAM, "
            f"{self.compute_lanes} lanes"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form, inverse of :meth:`from_dict`."""
        return {
            "machine_name": self.machine_name,
            "machine_digest": self.machine_digest,
            "parameters": [[path, value] for path, value in self.parameters],
            "workloads": [w.to_dict() for w in self.workloads],
            "total_time_seconds": float(self.total_time_seconds),
            "total_sram_bytes": int(self.total_sram_bytes),
            "compute_lanes": int(self.compute_lanes),
            "peak_gflops": float(self.peak_gflops),
            "cores": int(self.cores),
            "cache_hits": int(self.cache_hits),
            "wall_seconds": float(self.wall_seconds),
            "status": self.status,
            "error": self.error,
            "retries": int(self.retries),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CandidateOutcome":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            machine_name=payload["machine_name"],
            machine_digest=payload["machine_digest"],
            parameters=tuple(
                (path, value) for path, value in payload["parameters"]
            ),
            workloads=tuple(
                WorkloadOutcome.from_dict(w) for w in payload["workloads"]
            ),
            total_time_seconds=float(payload["total_time_seconds"]),
            total_sram_bytes=int(payload["total_sram_bytes"]),
            compute_lanes=int(payload["compute_lanes"]),
            peak_gflops=float(payload["peak_gflops"]),
            cores=int(payload["cores"]),
            cache_hits=int(payload["cache_hits"]),
            wall_seconds=float(payload["wall_seconds"]),
            status=str(payload.get("status", "ok")),
            error=payload.get("error"),
            retries=int(payload.get("retries", 0)),
        )


class ProgressMismatchError(ValueError):
    """Raised when a progress store belongs to a different sweep."""


class TooManyFailuresError(RuntimeError):
    """The sweep crossed its ``max_failures`` threshold and was aborted.

    Everything evaluated before the abort (including the failed
    records) is already in the progress store, so a resume after fixing
    the systemic problem restarts warm.
    """

    def __init__(self, failures: int, max_failures: int, last_error: str):
        super().__init__(
            f"design-space sweep aborted: {failures} candidate failures "
            f"exceed max_failures={max_failures} (last: {last_error})"
        )
        self.failures = failures
        self.max_failures = max_failures


def parse_shard(shard: str) -> Tuple[int, int]:
    """Parse an ``"i/n"`` shard selector into ``(index, count)``.

    ``index`` is 1-based (matching the CLI's ``--shard 1/2`` spelling);
    anything malformed or out of range raises ``ValueError``.
    """
    text = str(shard).strip()
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(
            f"shard must look like 'i/n' (e.g. '1/4'), got {shard!r}"
        ) from None
    if count < 1 or not 1 <= index <= count:
        raise ValueError(
            f"shard index must satisfy 1 <= i <= n, got {shard!r}"
        )
    return index, count


def shard_candidates(items: Sequence[Any], index: int, count: int) -> List[Any]:
    """Deterministic ``i/n`` partition of an expanded candidate list.

    Candidate ``pos`` (expansion order, which is deterministic for a
    given space) belongs to shard ``pos % count + 1`` — round-robin, so
    shards stay balanced even when expensive candidates cluster at one
    end of an axis.  The ``n`` partitions are disjoint and cover the
    list exactly.
    """
    return [item for pos, item in enumerate(items) if pos % count == index - 1]


class SweepProgress:
    """Append-only JSON-lines store of completed candidate outcomes.

    The first line is a header identifying the sweep (space name,
    strategy + options digest, workload signature, batch — and the
    shard, when the sweep is one shard of a partitioned run); every
    further line is one :class:`CandidateOutcome`.  One append handle
    is kept open for the sweep's lifetime (the old open-per-candidate
    behavior paid a file open *and* an fsync per candidate), and
    ``durability`` picks the flush policy per append: ``"fsync"``
    (default, unchanged — an interrupted sweep loses at most the
    candidate being written) or ``"flush"`` (OS-buffered; a power loss
    may drop the last few records, which resume simply re-evaluates).
    A truncated trailing line is tolerated on load.
    """

    def __init__(self, path: Union[str, Path], *, durability: str = "fsync"):
        if durability not in ("fsync", "flush"):
            raise ValueError(
                f"durability must be 'fsync' or 'flush', got {durability!r}"
            )
        self.path = Path(path).expanduser()
        self.durability = durability
        self._lock = threading.Lock()
        self._handle = None

    def load(self, header: Mapping[str, Any]) -> Dict[str, CandidateOutcome]:
        """Load completed outcomes keyed by machine digest.

        Creates the store (with ``header``) when the file does not exist.
        Raises :class:`ProgressMismatchError` when the stored header does
        not match ``header`` — the store belongs to a different sweep
        (or a different shard of this sweep).
        """
        if not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("w", encoding="utf-8") as handle:
                handle.write(json.dumps(dict(header), sort_keys=True) + "\n")
            return {}
        outcomes: Dict[str, CandidateOutcome] = {}
        # Stream line-by-line: a long-running sweep's store can hold
        # thousands of records and never needs to be in memory at once.
        with self.path.open("r", encoding="utf-8") as handle:
            first = handle.readline()
            if not first:
                pass  # empty file: re-headered below
            else:
                try:
                    stored = json.loads(first)
                except json.JSONDecodeError:
                    raise ProgressMismatchError(
                        f"progress store {self.path} has an unreadable header; "
                        f"delete it to start the sweep fresh"
                    ) from None
                if stored != dict(header):
                    differing = sorted(
                        key
                        for key in set(stored) | set(dict(header))
                        if stored.get(key) != dict(header).get(key)
                    )
                    raise ProgressMismatchError(
                        f"progress store {self.path} belongs to a different "
                        f"sweep (differing fields: {differing}); pass a fresh "
                        f"--progress path or delete the file"
                    )
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        payload = json.loads(line)
                        outcome = CandidateOutcome.from_dict(payload)
                    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                        # A crash mid-append leaves at most one torn
                        # trailing line; treat anything unreadable as
                        # not-done.
                        continue
                    outcomes[outcome.machine_digest] = outcome
                return outcomes
        with self.path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(dict(header), sort_keys=True) + "\n")
        return {}

    def append(self, outcome: CandidateOutcome) -> None:
        """Record one completed candidate (thread-safe, one shared handle)."""
        line = json.dumps(outcome.to_dict(), sort_keys=True)
        with self._lock:
            if self._handle is None:
                self._handle = self.path.open("a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()
            if self.durability == "fsync":
                os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the append handle (reopened lazily by the next append)."""
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None

    def __enter__(self) -> "SweepProgress":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


@dataclass(frozen=True)
class ExplorationResult:
    """Outcome of one design-space sweep, in candidate (axis) order."""

    space: DesignSpace
    workload_labels: Tuple[str, ...]
    strategy: str
    batch: int
    outcomes: Tuple[CandidateOutcome, ...]
    grid_size: int
    invalid_machines: int
    constraint_rejected: int
    resumed: int
    evaluated: int
    wall_seconds: float
    #: ``"i/n"`` when this result covers one shard of a partitioned
    #: sweep (``outcomes`` then holds only that shard's candidates).
    shard: Optional[str] = None

    @property
    def num_candidates(self) -> int:
        """Number of valid candidate machines evaluated or resumed."""
        return len(self.outcomes)

    @property
    def machines_per_second(self) -> float:
        """Sweep throughput over candidates actually evaluated this run."""
        return self.evaluated / max(self.wall_seconds, 1e-9)

    @property
    def failures(self) -> int:
        """How many candidates failed (recorded, isolated, skipped)."""
        return sum(1 for o in self.outcomes if o.failed)

    def failed_outcomes(self) -> List[CandidateOutcome]:
        """The failed candidates' records (error strings, retry counts)."""
        return [o for o in self.outcomes if o.failed]

    def succeeded(self) -> List[CandidateOutcome]:
        """Only the candidates that evaluated cleanly, in axis order."""
        return [o for o in self.outcomes if not o.failed]

    def best(self) -> CandidateOutcome:
        """The fastest *successful* candidate (minimum predicted time)."""
        succeeded = self.succeeded()
        if not succeeded:
            raise ValueError(
                f"all {len(self.outcomes)} candidates failed; no best"
            )
        return min(succeeded, key=lambda o: o.total_time_seconds)

    def frontier(
        self,
        objectives: Sequence[str] = ("total_time_seconds", "total_sram_bytes"),
    ) -> List[CandidateOutcome]:
        """Pareto-optimal candidates under the given minimized objectives.

        Memoized per objectives tuple on this result: summary, JSON,
        CSV and markdown emission all ask for the same frontier, and
        the O(n^2) scan runs once per sweep instead of once per
        artifact.
        """
        key = tuple(objectives)
        memo = getattr(self, "_frontier_memo", None)
        if memo is None:
            memo = {}
            object.__setattr__(self, "_frontier_memo", memo)
        if key not in memo:
            from .frontier import pareto_frontier

            memo[key] = pareto_frontier(self.succeeded(), objectives=key)
        return list(memo[key])

    def sensitivity(self, threshold: float = 0.02) -> List[str]:
        """Per-axis diminishing-returns summaries (see :mod:`repro.dse.frontier`)."""
        from .frontier import sensitivity_summary

        return sensitivity_summary(
            self.succeeded(), [axis.path for axis in self.space.axes],
            threshold=threshold,
        )

    def summary(self) -> str:
        """Short human-readable aggregate description."""
        failed = self.failures
        failed_note = f", {failed} failed" if failed else ""
        shard_note = f" [shard {self.shard}]" if self.shard else ""
        if failed == len(self.outcomes):
            return (
                f"{self.space.space_name} x {list(self.workload_labels)} via "
                f"{self.strategy!r}{shard_note}: all {self.num_candidates} "
                f"candidates failed, wall {self.wall_seconds:.2f} s"
            )
        best = self.best()
        return (
            f"{self.space.space_name} x {list(self.workload_labels)} via "
            f"{self.strategy!r}{shard_note}: {self.num_candidates} candidates "
            f"({self.resumed} resumed, {self.evaluated} evaluated"
            f"{failed_note}), best {best.machine_name} at "
            f"{best.total_time_seconds * 1e3:.3f} ms, "
            f"wall {self.wall_seconds:.2f} s "
            f"({self.machines_per_second:.1f} machines/s)"
        )


def _workload_label(workload: SweepWorkload) -> str:
    if isinstance(workload, str):
        return workload.strip()
    if isinstance(workload, ConvSpec):
        return workload.name
    return f"custom[{len(list(workload))}]"


def _dedupe_labels(labels: Sequence[str]) -> List[str]:
    """Make labels unique (``custom[4]``, ``custom[4]#2``, ...).

    Two distinct spec lists of equal length (or one network requested
    twice) would otherwise collide: ``CandidateOutcome.workload`` and
    the per-workload CSV columns key results by label.
    """
    used = set()
    out: List[str] = []
    for label in labels:
        candidate, suffix = label, 1
        while candidate in used:
            suffix += 1
            candidate = f"{label}#{suffix}"
        used.add(candidate)
        out.append(candidate)
    return out


def _workload_signature(
    resolved: Sequence[Union[ConvSpec, List[ConvSpec]]]
) -> str:
    """Content hash of the resolved workload list (order-sensitive)."""
    payload = [
        [spec_shape_key(item)]
        if isinstance(item, ConvSpec)
        else [spec_shape_key(spec) for spec in item]
        for item in resolved
    ]
    return stable_hash(payload)


#: Memory-tier size of sweep caches: a sweep touches (machines x
#: operators) keys, far more than the engine default of 512.  Shared
#: caches (e.g. a Session's, via ``Session.explore``) are grown to this
#: bound, never shrunk.
_SWEEP_MEMORY_ENTRIES = 8192


def _evaluate_candidate(
    candidate: Candidate,
    workloads: Sequence[SweepWorkload],
    labels: Sequence[str],
    strategy: SearchStrategy,
    cache: Optional[ResultCache],
    batch: int,
) -> CandidateOutcome:
    """Run one candidate through the Session path and summarize it."""
    from ..api.session import Session

    start = time.perf_counter()
    # Chaos hook: raise for a chosen candidate (keyed by machine name)
    # to exercise the failure-isolation path deterministically.
    fault_point("dse.evaluate", key=candidate.machine.name)
    session = Session(
        machine=candidate.machine,
        strategy=strategy,
        cache=cache if cache is not None else False,
        executor="serial",
    )
    results = session.optimize_many(list(workloads), batch=batch)
    workload_outcomes: List[WorkloadOutcome] = []
    cache_hits = 0
    for label, result in zip(labels, results):
        if hasattr(result, "operators"):  # NetworkResult
            hits = result.cache_hits
            workload_outcomes.append(
                WorkloadOutcome(
                    label=label,
                    time_seconds=result.total_time_seconds,
                    gflops=result.total_gflops,
                    num_operators=result.num_operators,
                    cache_hits=hits,
                )
            )
        else:  # OpResult
            hits = 1 if result.cached else 0
            workload_outcomes.append(
                WorkloadOutcome(
                    label=label,
                    time_seconds=result.time_seconds,
                    gflops=result.gflops,
                    num_operators=1,
                    cache_hits=hits,
                )
            )
        cache_hits += hits
    machine = candidate.machine
    return CandidateOutcome(
        machine_name=machine.name,
        machine_digest=machine_key(machine),
        parameters=candidate.parameters,
        workloads=tuple(workload_outcomes),
        total_time_seconds=sum(w.time_seconds for w in workload_outcomes),
        total_sram_bytes=machine.total_sram_bytes,
        compute_lanes=machine.compute_lanes,
        peak_gflops=machine.peak_gflops(),
        cores=machine.cores,
        cache_hits=cache_hits,
        wall_seconds=time.perf_counter() - start,
    )


def _failed_outcome(
    candidate: Candidate, error: BaseException, retries: int, wall: float
) -> CandidateOutcome:
    """A recordable ``status="failed"`` stand-in for a raising candidate."""
    machine = candidate.machine
    return CandidateOutcome(
        machine_name=machine.name,
        machine_digest=machine_key(machine),
        parameters=candidate.parameters,
        workloads=(),
        total_time_seconds=float("inf"),
        total_sram_bytes=machine.total_sram_bytes,
        compute_lanes=machine.compute_lanes,
        peak_gflops=machine.peak_gflops(),
        cores=machine.cores,
        cache_hits=0,
        wall_seconds=wall,
        status="failed",
        error=f"{type(error).__name__}: {error}",
        retries=retries,
    )


def _evaluate_isolated(
    candidate: Candidate,
    workloads: Sequence[SweepWorkload],
    labels: Sequence[str],
    strategy: SearchStrategy,
    cache: Optional[ResultCache],
    batch: int,
    retry: Optional[RetryPolicy],
) -> CandidateOutcome:
    """One candidate's evaluation with failures contained to its record.

    Transient exceptions are retried on ``retry``'s backoff schedule
    (when given); whatever still raises becomes a ``status="failed"``
    outcome instead of poisoning the whole sweep.
    """
    start = time.perf_counter()
    retries = 0

    def attempt() -> CandidateOutcome:
        return _evaluate_candidate(
            candidate, workloads, labels, strategy, cache, batch
        )

    try:
        if retry is None:
            return attempt()

        def count_retry(attempt_no: int, error: BaseException) -> None:
            nonlocal retries
            retries += 1

        outcome = retry.run(
            attempt, on_retry=count_retry, counter="dse.candidate_retries"
        )
        # "Succeeded after N retries" is part of the record too.
        return replace(outcome, retries=retries) if retries else outcome
    except Exception as error:  # noqa: BLE001 - isolation is the point
        REGISTRY.counter("health.dse.candidate_failures").inc()
        return _failed_outcome(
            candidate, error, retries, time.perf_counter() - start
        )


def explore(
    space: DesignSpace,
    workloads: Union[SweepWorkload, Sequence[SweepWorkload]] = ("resnet18",),
    *,
    strategy: Union[str, SearchStrategy] = "mopt",
    strategy_options: Optional[Mapping[str, Any]] = None,
    cache: Union[None, bool, str, Path, ResultCache] = None,
    batch: int = 1,
    chunk_size: int = 16,
    progress: Optional[Union[str, Path]] = None,
    progress_durability: str = "fsync",
    on_progress: Optional[Callable[[int, int], None]] = None,
    max_failures: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    shard: Optional[str] = None,
) -> ExplorationResult:
    """Evaluate every candidate machine of ``space`` on ``workloads``.

    Parameters
    ----------
    space:
        The declarative design space (base preset + swept axes).
    workloads:
        Anything :meth:`repro.api.Session.optimize` accepts: network
        names, ``"net/layer"`` references, specs or spec lists.
    strategy / strategy_options:
        Search strategy shared by all candidates.  Defaults to the
        paper's analytical ``"mopt"`` search — the raw-speed rework
        (shape-family compile sharing, loss-free screening, refine-solve
        restructure) made exact mopt cheap enough to be the sweep
        default; pass ``"onednn"`` for the heuristic dispatch when a
        sweep only needs a coarse ranking.
    cache:
        Shared result cache: ``None`` (default) one fresh in-memory
        cache for the sweep, a path for persistence across runs, a
        :class:`ResultCache` to share with other components, ``False``
        to disable.
    batch:
        Workload batch size.
    chunk_size:
        The ``on_progress``/progress-print cadence (every N completed
        candidates).  Candidates run one after another in the calling
        thread; solves are serial within a candidate.
    progress:
        Optional path of a JSON-lines progress store making the sweep
        resumable across interruptions and processes.
    progress_durability:
        ``"fsync"`` (default) syncs the progress store per candidate;
        ``"flush"`` leaves flushing to the OS — cheaper for huge sweeps
        of cheap candidates, at worst re-evaluating the last few records
        after a power loss.
    on_progress:
        Optional ``(done, total)`` callback fired after every chunk.
    max_failures:
        Abort the sweep with :class:`TooManyFailuresError` once more
        than this many candidates (including resumed failed records)
        have failed.  ``None`` (default) never aborts — every failure
        is isolated to its own ``status="failed"`` record.
    retry:
        Optional :class:`~repro.reliability.RetryPolicy` retrying each
        failing candidate before recording it as failed.
    shard:
        Optional ``"i/n"`` selector evaluating only the ``i``-th of
        ``n`` deterministic partitions of the expanded candidate list
        (see :func:`shard_candidates`) — the distributed-sweep story:
        run one shard per host, each with its own ``progress`` store,
        then combine with :func:`repro.dse.merge_progress_stores` (or
        ``python -m repro dse merge``).  The shard is recorded in the
        progress-store header, so resuming shard 2/4's store as shard
        3/4 (or unsharded) fails loudly.
    """
    start = time.perf_counter()
    if isinstance(strategy, str):
        strategy = get_strategy(strategy, **dict(strategy_options or {}))
    elif strategy_options:
        raise ValueError(
            "strategy_options only apply to by-name strategies; "
            "configure the instance instead"
        )
    shared_cache = resolve_cache(cache, memory_entries=_SWEEP_MEMORY_ENTRIES)
    expanded: ExpandedSpace = space.expand()
    if isinstance(workloads, (str, ConvSpec)):
        # A bare workload (the Session.optimize calling convention) —
        # not a sequence to iterate character-by-character.
        workloads = [workloads]
    else:
        # Materialize spec-list elements so one-shot iterables are not
        # exhausted by labeling and every candidate sees the same specs.
        workloads = [
            w if isinstance(w, (str, ConvSpec)) else list(w)
            for w in workloads
        ]
    if not workloads or any(
        not w for w in workloads if isinstance(w, list)
    ):
        raise ValueError("explore needs at least one non-empty workload")
    labels = _dedupe_labels([_workload_label(w) for w in workloads])

    # Resolve once (up front) for the progress-store identity; candidate
    # sessions re-resolve by name, which is cheap and keeps labels intact.
    from ..api.spec import parse

    resolved = [
        parse(w, batch=batch) if isinstance(w, str) else w for w in workloads
    ]
    candidates = list(expanded.candidates)
    shard_label: Optional[str] = None
    if shard is not None:
        index, count = parse_shard(shard)
        shard_label = f"{index}/{count}"
        if count > 1:
            candidates = shard_candidates(candidates, index, count)
    completed: Dict[str, CandidateOutcome] = {}
    store: Optional[SweepProgress] = None
    if progress is not None:
        store = SweepProgress(progress, durability=progress_durability)
        header = {
            "kind": "header",
            "version": PROGRESS_FORMAT_VERSION,
            # Outcomes are served from the store without consulting the
            # versioned result cache, so numerics changes must
            # invalidate the store the same way they invalidate keys.
            "strategy_version": engine_cache.STRATEGY_VERSION,
            "space": space.space_name,
            "base": space.base_machine.name,
            "strategy": strategy.name,
            "strategy_token": stable_hash(dict(strategy.cache_token())),
            "workloads": _workload_signature(resolved),
            "workload_labels": labels,
            "batch": batch,
        }
        if shard_label is not None:
            # Only sharded sweeps carry the key: unsharded headers stay
            # byte-identical to pre-shard stores (old stores resume),
            # and a merged store (shard key stripped) resumes under the
            # full sweep directly.
            header["shard"] = shard_label
        completed = store.load(header)

    digests = [machine_key(c.machine) for c in candidates]
    pending = [
        (digest, candidate)
        for digest, candidate in zip(digests, candidates)
        if digest not in completed
    ]
    resumed = len(candidates) - len(pending)
    done = resumed
    total = len(candidates)
    failures = sum(1 for o in completed.values() if o.failed)
    # Live sweep status: one atomic heartbeat sidecar next to the
    # progress store (per shard in a sharded run), rendered back by
    # `python -m repro dse status DIR`.
    heartbeat: Optional[HeartbeatWriter] = None
    if progress is not None:
        heartbeat = HeartbeatWriter(
            heartbeat_path_for(progress),
            label=space.space_name,
            shard=shard_label,
            total=total,
        )
        heartbeat.set_resumed(resumed)
        heartbeat.update(done, failures, force=True)
    sweep_span = obs_trace.span(
        "dse.sweep", space=space.space_name, shard=shard_label or ""
    )
    sweep_span.__enter__()
    finished = False
    try:
        if pending:
            chunk_size = max(1, chunk_size)
            # One after another on purpose: searches hold the GIL (see
            # the module docstring).
            for digest, candidate in pending:
                with obs_trace.span(
                    "dse.candidate", machine=candidate.machine.name
                ):
                    outcome = _evaluate_isolated(
                        candidate, workloads, labels, strategy,
                        shared_cache, batch, retry,
                    )
                completed[digest] = outcome
                if store is not None:
                    store.append(outcome)
                if outcome.failed:
                    failures += 1
                    if max_failures is not None and failures > max_failures:
                        raise TooManyFailuresError(
                            failures, max_failures, outcome.error or "?"
                        )
                done += 1
                if heartbeat is not None:
                    heartbeat.update(done, failures)
                if on_progress is not None and (
                    done % chunk_size == 0 or done == total
                ):
                    on_progress(done, total)
        elif on_progress is not None:
            on_progress(done, total)
        finished = True
    finally:
        sweep_span.__exit__(None, None, None)
        if heartbeat is not None:
            heartbeat.finish(
                done,
                failures,
                status="done" if finished and done == total else "aborted",
            )
        if store is not None:
            store.close()

    outcomes = tuple(completed[digest] for digest in digests)
    return ExplorationResult(
        space=space,
        workload_labels=tuple(labels),
        strategy=strategy.name,
        batch=batch,
        outcomes=outcomes,
        grid_size=expanded.grid_size,
        invalid_machines=expanded.invalid_machines,
        constraint_rejected=expanded.constraint_rejected,
        resumed=resumed,
        evaluated=len(pending),
        wall_seconds=time.perf_counter() - start,
        shard=shard_label,
    )
