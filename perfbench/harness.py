"""Shared pieces of the benchmark: spans, statistics, answer checks, output.

Everything here runs inside the benchmark's own processes.  The program
under test is only reached through its public API (``repro.api``,
``repro.serving``, ``repro.dse``, ``repro.engine``); timing around those
calls is recorded by :class:`Tracer`, never by code inside ``src/``.

Clocks: every timestamp is ``time.perf_counter()``, which on Linux reads
``CLOCK_MONOTONIC`` — one clock for every process on the host, so spans
recorded in the server process line up with the generator's.  The gated
costs are CPU seconds at the reference speed instead (see
:class:`SpeedProbe`): on a shared host the wall clock follows the host's
other guests.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

#: Latency limit a served request must meet to count towards goodput and
#: towards the highest sustainable rate.  On the shared 2-core reference
#: box the p99 of an idle server already swings between 5 and 40 ms from
#: run to run, so a tighter limit measures the host, not the queue.
LATENCY_LIMIT_MS = 50.0

#: The machine preset every workload solves for.
MACHINE = "i7-9700k"

#: Layers of the program, outermost first.
LAYERS = ("bench", "serving", "dse", "api", "engine", "core")

#: CPU seconds of one :func:`reference_work` on the reference box when
#: the benchmark was defined (see :func:`speed_factor`).
REFERENCE_CPU_S = 0.002

#: Tile count ``execution_problem`` walks at most (see
#: :func:`executable_config`).
MAX_EXECUTED_TILES = 1024

_span_ids = itertools.count(1)


def state_dir() -> Path:
    """Scratch directory of the benchmark inside the checkout it runs in."""
    path = Path.cwd() / ".perfbench"
    path.mkdir(exist_ok=True)
    return path


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``.

    ``attempted``/``failed`` count the workload's operations (solves,
    requests, candidates); a failed, rejected, expired, degraded or
    incorrect operation counts as failed, and ``errors`` says why.
    ``answers`` maps each answer's key to its record, for the
    determinism check.
    """

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    report: Dict[str, Any] = field(default_factory=dict)
    answers: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ----------------------------------------------------------------------
# CPU time, CPU speed and memory
# ----------------------------------------------------------------------
def process_cpu_s(pid: Optional[int] = None) -> float:
    """CPU seconds used so far by this process, or by process ``pid``.

    This process's time comes from ``time.process_time()`` (every thread,
    nanosecond resolution); another process's from the user and system
    time in ``/proc/<pid>/stat`` (every thread, clock-tick resolution).
    """
    if pid is None:
        return time.process_time()
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


#: The CPUs the benchmark may use, read before ``run.py`` pins itself:
#: the benchmark process (and load generator) runs on the first, a
#: serving process on the last.
CPUS = sorted(os.sched_getaffinity(0))
BENCH_CPU, SERVER_CPU = CPUS[0], CPUS[-1]


def reference_work() -> None:
    """A fixed few milliseconds of CPU work that use nothing of the program.

    It mixes what the program spends its time on: interpreted loops over
    dicts, and small NumPy calls.
    """
    import numpy as np

    table: Dict[int, int] = {}
    for i in range(3000):
        key = (i * 7919) % 997
        table[key] = table.get(key, 0) + i
    tile = np.linspace(0.0, 1.0, 64).reshape(8, 8)
    for _ in range(60):
        tile = np.tanh(tile @ tile.T) + 0.5 * tile.mean(axis=0)


class SpeedProbe:
    """A ``probe.py`` process pinned to one CPU, timing :func:`reference_work` on it.

    The host's CPUs change speed by up to 2x within seconds, each on its
    own (a shared host moves its clock and shares cores and caches with
    other guests), and the wall clock also counts the time the host gives
    the CPU to other guests.  CPU time leaves out the latter (the kernel
    books it as steal); the probe, time-sliced with the measured process
    on the same CPU, samples the former.  See :func:`speed_factor`.
    """

    def __init__(self, cpu: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("probe.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        os.sched_setaffinity(self.proc.pid, {cpu})
        self.samples: List[Tuple[float, float]] = []

    def stop(self) -> List[Tuple[float, float]]:
        """End the probe (idempotent); its (start, CPU seconds) samples."""
        if self.proc.returncode is None:
            try:
                out, _ = self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                out, _ = self.proc.communicate()
            self.samples = [tuple(s) for s in json.loads(out or "[]")]
        return self.samples


def speed_factor(samples: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """Reference CPU time over probed CPU time for ``[start, end]``.

    :data:`REFERENCE_CPU_S` over the mean CPU time of the probe samples
    taken in the interval (or of the 5 nearest, for a short one).  CPU
    seconds spent on the probed CPU in the interval, times this factor,
    are the CPU seconds the same work takes on the reference box.
    """
    inside = [cpu for at, cpu in samples if start <= at <= end]
    if len(inside) < 5:
        middle = (start + end) / 2
        inside = [cpu for _, cpu in sorted(samples, key=lambda s: abs(s[0] - middle))[:5]]
    return REFERENCE_CPU_S / statistics.fmean(inside)


@dataclass
class Start:
    """How a run began, handed to the workload by ``run.py``.

    ``import_s`` is the CPU time of importing the workload (and with it
    the program), ``began`` the ``perf_counter`` time the import began,
    and ``probe`` the :class:`SpeedProbe` on :data:`BENCH_CPU`, which
    the workload stops after its window.
    """

    import_s: float
    began: float
    probe: SpeedProbe


def own_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder of the benchmark's own layer boundaries.

    A span records its name, layer, start, end, parent span and request
    id.  A span opened inside the program's own traced code also records
    ``xparent``, the program span around it (see :func:`resolve_parents`).

    A span opened with ``lane=True`` opens a lane: the workload's own
    span, one served request, one DSE candidate on the explorer's pool.
    Lanes run concurrently; inside one, spans nest.  Disabled tracers hand out a no-op context, so untraced runs pay
    one attribute check per call site.
    """

    def __init__(self, enabled: bool, *, pid_tag: str = "bench"):
        self.enabled = enabled
        self.pid_tag = pid_tag
        self.spans: List[Dict[str, Any]] = []
        self._current: ContextVar[Optional[int]] = ContextVar(
            f"perfbench_span_{id(self)}", default=None
        )

    @contextmanager
    def span(
        self,
        name: str,
        layer: str,
        rid: Optional[str] = None,
        xparent: Optional[str] = None,
        lane: bool = False,
    ) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span_id = next(_span_ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._current.reset(token)
            self._add(f"{self.pid_tag}-{span_id}", parent, name, layer, start,
                      time.perf_counter(), rid, xparent, lane)

    def record_program_span(self, rec: Mapping[str, Any], layer: str, clock_offset: float) -> None:
        """Add one of the program's own span records as a lane.

        ``clock_offset`` is ``time.time() - time.perf_counter()``: program
        records start on the wall clock.  The span keeps the program's
        span id, so spans recorded inside it can find it.
        """
        if self.enabled:
            start = rec["start_s"] - clock_offset
            self._add(f"program-{rec['span_id']}", None, rec["name"], layer, start,
                      start + rec["duration_s"], rec["trace_id"], None, True)

    def _add(self, span_id: str, parent: Optional[int], name: str, layer: str,
             start: float, end: float, rid: Optional[str], xparent: Optional[str],
             lane: bool) -> None:
        self.spans.append(
            {
                "name": name,
                "layer": layer,
                "id": span_id,
                "parent": None if parent is None else f"{self.pid_tag}-{parent}",
                "xparent": xparent,
                "lane": lane,
                "rid": rid,
                "start": start,
                "end": end,
            }
        )

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec, sort_keys=True) + "\n")


def resolve_parents(
    spans: Sequence[Dict[str, Any]], program_parents: Mapping[str, Optional[str]]
) -> Dict[str, Optional[str]]:
    """The parent span id of every span, ``None`` for a root.

    A span's parent is the benchmark span open around it in the same
    thread.  A span opened with none — on a pool thread, or in the
    server process — joins its lane through the program's trace context
    it recorded: the nearest ancestor of its ``xparent`` (walked up
    ``program_parents``, program span id -> parent id) that the trace
    holds, such as a DSE candidate; else the generator's span of the
    request with the same trace id.
    """
    ids = {s["id"] for s in spans}
    requests = {s["rid"]: s["id"] for s in spans if s["name"] == "serving.request"}
    parents: Dict[str, Optional[str]] = {}
    for rec in spans:
        parent = rec["parent"]
        if parent is None:
            hop = rec["xparent"]
            while hop is not None and f"program-{hop}" not in ids:
                hop = program_parents.get(hop)
            if hop is not None:
                parent = f"program-{hop}"
            elif requests.get(rec["rid"], rec["id"]) != rec["id"]:
                parent = requests[rec["rid"]]
        parents[rec["id"]] = parent
    return parents


def self_times(
    spans: Sequence[Dict[str, Any]], parents: Mapping[str, Optional[str]]
) -> Dict[str, float]:
    """Each span's duration minus the time its children cover inside it."""
    children: Dict[str, List[Dict[str, Any]]] = {}
    for rec in spans:
        if parents[rec["id"]] is not None:
            children.setdefault(parents[rec["id"]], []).append(rec)
    result = {}
    for rec in spans:
        covered, cursor = 0.0, rec["start"]
        for child in sorted(children.get(rec["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(child["start"], cursor), min(child["end"], rec["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[rec["id"]] = rec["end"] - rec["start"] - covered
    return result


def lane_problems(
    spans: Sequence[Dict[str, Any]],
    parents: Mapping[str, Optional[str]],
    selfs: Mapping[str, float],
    tolerance: float = 0.01,
) -> List[str]:
    """Lanes whose self times do not sum to the lane's wall.

    Summed over a lane, the self times equal the wall of the span that
    opens it only when every span lies inside its parent and siblings do
    not overlap.  A span recorded twice, or outside its parent's
    interval (a clock or attribution error), adds time the lane's wall
    does not hold; a root that opens no lane is a span whose parent was
    lost.
    """
    by_id = {rec["id"]: rec for rec in spans}
    lane_of: Dict[str, str] = {}

    def lane(span_id: str) -> str:
        path = []
        while span_id not in lane_of and parents[span_id] is not None:
            path.append(span_id)
            span_id = parents[span_id]
        root = lane_of.get(span_id, span_id)
        for hop in path + [span_id]:
            lane_of[hop] = root
        return root

    sums: Dict[str, float] = {}
    for rec in spans:
        root = lane(rec["id"])
        sums[root] = sums.get(root, 0.0) + selfs[rec["id"]]
    problems = []
    for root, total in sums.items():
        rec = by_id[root]
        wall = rec["end"] - rec["start"]
        if not rec["lane"]:
            problems.append(f"span {rec['name']} ({rec['id']}) has no parent in the trace")
        elif abs(total - wall) > tolerance * wall:
            problems.append(
                f"self times of lane {rec['name']} ({rec['id']}) sum to "
                f"{total:.6f} s, its wall is {wall:.6f} s"
            )
    return problems


PHASES = ("compile", "select", "refine", "integerize", "parallel_plan")


def span_layer_metrics(
    spans: Sequence[Dict[str, Any]],
    program_spans: Sequence[Dict[str, Any]],
    start: float,
    end: float,
) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer figures every workload derives from its spans alike.

    ``spans`` are the benchmark's spans (its own and the server's) and
    count only inside the measured window ``[start, end]``;
    ``program_spans`` are the program's own span records of that window
    (its ``solve.*`` phases).  Returns the figures and the problems
    :func:`lane_problems` finds in the whole trace.
    """
    inside = [s for s in spans if s["start"] >= start and s["end"] <= end]

    def durations(name: str) -> List[float]:
        return [s["end"] - s["start"] for s in inside if s["name"] == name]

    searches = durations("core.search")
    store_gets = durations("engine.store_get")
    store_puts = durations("engine.store_put")
    parents = resolve_parents(
        spans, {rec["span_id"]: rec["parent_id"] for rec in program_spans}
    )
    selfs = self_times(spans, parents)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for rec in inside:
        layer_self[rec["layer"]] += selfs[rec["id"]]
    lane_walls = sum(
        s["end"] - s["start"]
        for s in spans
        if parents[s["id"]] is None and s["lane"]
    )
    metrics = {
        "api.optimize_s": sum(durations("api.optimize")),
        "api.self_s": layer_self["api"],
        "core.search_s.p50": median(searches),
        "core.search_s.sum": sum(searches),
        "core.searches": len(searches),
        "engine.cache_get_s.p50": median(durations("engine.cache_get")),
        "engine.store_get_s.p50": median(store_gets),
        "engine.store_gets": len(store_gets),
        "engine.store_put_s.p50": median(store_puts),
        "engine.store_puts": len(store_puts),
        "trace.self_sum_ratio": sum(selfs.values()) / lane_walls if lane_walls > 0 else 0.0,
    }
    for layer, seconds in layer_self.items():
        metrics[f"trace.self_s.{layer}"] = seconds
    for phase in PHASES:
        metrics[f"core.phase.{phase}_s"] = sum(
            rec["duration_s"] for rec in program_spans if rec["name"] == f"solve.{phase}"
        )
    return metrics, lane_problems(spans, parents, selfs)


def tracing_cost_s(bench_spans: int, program_spans: int) -> float:
    """Time the recorded spans cost, from timing the same spans in a loop.

    Each traced run records ``bench_spans`` benchmark spans and
    ``program_spans`` of the program's own (``repro.obs.trace``); both
    kinds are timed here, into throwaway sinks, and scaled to the counts.
    """
    from repro.obs import trace as obs_trace

    rounds = 2000
    tracer = Tracer(True)
    start = time.perf_counter()
    for _ in range(rounds):
        with tracer.span("probe", "bench"):
            pass
    bench_cost = (time.perf_counter() - start) / rounds
    with obs_trace.remote_capture(("probe", "probe")):
        start = time.perf_counter()
        for _ in range(rounds):
            with obs_trace.span("probe"):
                pass
        program_cost = (time.perf_counter() - start) / rounds
    return bench_spans * bench_cost + program_spans * program_cost


# ----------------------------------------------------------------------
# answers: digests and correctness checks
# ----------------------------------------------------------------------
def answer_record(result: Any) -> Dict[str, Any]:
    """The parts of a ``StrategyResult`` that make up its answer."""
    from repro.engine.serialization import maybe_config_to_dict

    return {
        "config": maybe_config_to_dict(result.best_config),
        "gflops": float(result.gflops),
        "time_seconds": float(result.time_seconds),
    }


def digest(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def code_digest(root: Path) -> str:
    """Content hash of the program's source tree (``src/``)."""
    sha = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        sha.update(str(path.relative_to(root)).encode("utf-8"))
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def check_determinism(workload: str, seed: int, answers: Mapping[str, Any]) -> List[str]:
    """Compare per-answer digests with earlier runs of the same code.

    Digests are kept per (code, workload, seed, answer key) in the
    checkout's ``.perfbench/answers.json``; an answer whose digest
    differs from an earlier run's is a determinism failure.  Returns the
    failing keys and records the new digests.
    """
    path = state_dir() / "answers.json"
    try:
        known = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        known = {}
    scope = f"{code_digest(Path.cwd())}:{workload}:{seed}"
    recorded = known.setdefault(scope, {})
    mismatched = []
    for key, answer in answers.items():
        value = digest(answer)
        if recorded.setdefault(key, value) != value:
            mismatched.append(key)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return mismatched


def executable_config(spec: Any, config: Any) -> Any:
    """The deepest suffix of ``config``'s cache levels with few enough tiles.

    ``tiled_conv2d`` walks every innermost tile in Python, so executing
    a full-size operator down to its L1 tiles takes minutes.  The check
    walks the tile nest from the outermost level down to the deepest
    level whose tile count stays within :data:`MAX_EXECUTED_TILES` (the outermost
    level alone when none does); the levels below it are covered by the
    capacity check.
    """
    from repro.core.config import MultiLevelConfig
    from repro.sim.tilesim import count_tiles

    pairs = [(lvl, cfg) for lvl, cfg in zip(config.levels, config.configs) if lvl != "Reg"]
    for start in range(len(pairs)):
        sub = MultiLevelConfig(
            tuple(lvl for lvl, _ in pairs[start:]),
            tuple(cfg for _, cfg in pairs[start:]),
        )
        if count_tiles(spec, sub) <= MAX_EXECUTED_TILES or start == len(pairs) - 1:
            return sub
    return config


def check_answer(spec: Any, config: Any, machine: Any) -> Optional[str]:
    """``None`` when a returned config is valid, else what is wrong with it.

    Valid means: every level's tile footprint fits the machine's
    capacity, and executing the convolution in the config's tile order
    reproduces the reference (see :func:`execution_problem`).
    """
    from repro.core.capacity import fits_all_levels

    if config is None:
        return "no config returned"
    if not fits_all_levels(spec, config, machine):
        return "tile footprint exceeds a cache level"
    return execution_problem(spec, config)


def execution_problem(spec: Any, config: Any) -> Optional[str]:
    """Run ``sim.executor.tiled_conv2d`` under ``config`` against the reference."""
    import numpy as np

    from repro.sim.executor import max_abs_error, random_tensors, reference_conv2d, tiled_conv2d

    inputs, kernel = random_tensors(spec, seed=7)
    expected = reference_conv2d(spec, inputs, kernel)
    got = tiled_conv2d(spec, executable_config(spec, config), inputs, kernel)
    scale = float(np.max(np.abs(expected))) or 1.0
    error = max_abs_error(got, expected)
    if not error <= 1e-5 * scale:
        return f"tiled execution differs from the reference by {error:.3g}"
    return None


def oracle_gflops(spec: Any, config: Any, machine: Any) -> float:
    """GFLOP/s of a config on the virtual machine (``virtual_measurement``)."""
    from repro.sim.perfmodel import virtual_measurement

    return float(virtual_measurement(spec, config, machine, threads=machine.cores).gflops)
