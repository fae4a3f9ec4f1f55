"""Single-level analytical data-movement cost model (Sections 2–3 of the paper).

Given a tile-loop permutation and (possibly real-valued) tile sizes, these
functions compute the modeled volume of data moved between an idealized
fully-associative LRU cache and the next (slower) level of the memory
hierarchy for the full execution of the tiled CNN loop nest.

The model follows the paper exactly:

* Only cold and capacity misses are modeled (no conflict misses).
* Tile sizes are assumed large enough that the combined footprint of two
  adjacent tiles exceeds the cache capacity, so once a tensor's data slice
  changes between consecutive tiles, no reuse of older slices is possible at
  outer tile loops.
* For each tensor ``A``, let ``R_A`` be the innermost position (1-based from
  the innermost tile loop) whose iterator is *present* in ``A``'s subscripts.

  - **Case 1** (``Out``, ``Ker`` always, and ``In`` when the iterator at
    ``R_In`` is ``n`` or ``c``): every change of the iterator at ``R_A``
    brings an entirely new slice, so the data volume is the tile footprint
    multiplied by ``prod_{pos(j) >= R_A} N_j / T_j``.  ``Out`` carries an
    extra factor 2 because each element is both read and written.
  - **Case 2** (``In`` when the iterator at ``R_In`` is ``w``, ``s``, ``h``
    or ``r``): successive tiles of the innermost-present loop overlap
    partially along one input spatial dimension; per execution of that loop
    the new data is the non-overlapping extent, plus the full footprint once
    for the first iteration.  The whole term is multiplied by
    ``prod_{pos(j) > R_In} N_j / T_j``.

Every function exists in two flavours: a *general* one taking an arbitrary
mapping of "problem" extents (used by the multi-level model, where the
problem of level ``l`` is the tile of level ``l+1``) and a convenience
wrapper taking a :class:`~repro.core.tensor_spec.ConvSpec`.

The implementation generalizes the paper's stride-1 formulas to arbitrary
stride and dilation.
"""

from __future__ import annotations

import math
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..obs.metrics import REGISTRY as _METRICS_REGISTRY
from .config import TilingConfig
from .tensor_spec import (
    LOOP_INDICES,
    TENSOR_INDICES,
    TENSOR_NAMES,
    ConvSpec,
    InvalidSpecError,
    TensorAccess,
    total_footprint,
)

#: Write-allocate / write-back factor for the output tensor: every element of
#: ``Out`` is moved in both directions (memory -> cache and cache -> memory).
OUT_TRAFFIC_FACTOR = 2.0

#: Iterators that cause partial inter-tile reuse of ``In`` when they sit at
#: the innermost-present position (the four bullets of Section 3.2).
PARTIAL_REUSE_ITERATORS = ("w", "s", "h", "r")


@dataclass(frozen=True)
class TensorCost:
    """Cost-model breakdown for one tensor under one configuration."""

    tensor: str
    #: Innermost 1-based position of a present iterator (``R_A`` in the paper).
    reuse_position: int
    #: Iterator found at that position.
    reuse_iterator: str
    #: Modeled data volume in elements moved for this tensor.
    volume: float
    #: Whether the partial-overlap (case 2) expression was used.
    partial_reuse: bool


@dataclass(frozen=True)
class CostBreakdown:
    """Full single-level cost-model result for one configuration."""

    config: TilingConfig
    per_tensor: Dict[str, TensorCost]
    #: Combined tile footprint in elements (Eq. 4 left-hand side).
    footprint: float
    #: Cache capacity in elements the footprint was checked against (if any).
    capacity: Optional[float]

    @property
    def total_volume(self) -> float:
        """Total modeled data movement in elements across the three tensors."""
        return sum(tc.volume for tc in self.per_tensor.values())

    @property
    def fits_capacity(self) -> bool:
        """True when no capacity was supplied or the footprint fits within it."""
        if self.capacity is None:
            return True
        return self.footprint <= self.capacity + 1e-9

    def volume_bytes(self, dtype_bytes: int = 4) -> float:
        """Total modeled data movement in bytes."""
        return self.total_volume * dtype_bytes


# ----------------------------------------------------------------------
# Permutation helpers
# ----------------------------------------------------------------------
def reuse_position(config: TilingConfig, tensor: str) -> Tuple[int, str]:
    """Innermost position of a present iterator for ``tensor`` (``R_A``).

    Returns the 1-based position (1 = innermost tile loop) together with the
    iterator found there.
    """
    present = set(TENSOR_INDICES[tensor])
    for position in range(1, len(config.permutation) + 1):
        iterator = config.permutation[len(config.permutation) - position]
        if iterator in present:
            return position, iterator
    raise InvalidSpecError(f"tensor {tensor!r} has no present iterator")  # pragma: no cover


def _ratio_product(
    problem: Mapping[str, float], tiles: Mapping[str, float], indices: Iterable[str]
) -> float:
    """Product of ``N_j / T_j`` over the given loop indices."""
    product = 1.0
    for index in indices:
        product *= problem[index] / tiles[index]
    return product


def _input_extents(
    tiles: Mapping[str, float], stride: int, dilation: int
) -> Tuple[float, float]:
    """Input-window extents touched by one tile along height and width."""
    ext_h = (tiles["h"] - 1) * stride + (tiles["r"] - 1) * dilation + 1
    ext_w = (tiles["w"] - 1) * stride + (tiles["s"] - 1) * dilation + 1
    return ext_h, ext_w


def tensor_footprint(
    tensor: str, tiles: Mapping[str, float], *, stride: int = 1, dilation: int = 1
) -> float:
    """Data-slice volume (elements) accessed by one tile, for one tensor."""
    t = tiles
    if tensor == "Out":
        return t["n"] * t["k"] * t["h"] * t["w"]
    if tensor == "Ker":
        return t["k"] * t["c"] * t["r"] * t["s"]
    if tensor == "In":
        ext_h, ext_w = _input_extents(t, stride, dilation)
        return t["n"] * t["c"] * ext_h * ext_w
    raise InvalidSpecError(f"unknown tensor {tensor!r}")


def combined_footprint(
    tiles: Mapping[str, float], *, stride: int = 1, dilation: int = 1
) -> float:
    """Combined tile footprint across all three tensors (Eq. 4 left side)."""
    return sum(
        tensor_footprint(tensor, tiles, stride=stride, dilation=dilation)
        for tensor in TENSOR_NAMES
    )


def _in_partial_term(
    problem: Mapping[str, float],
    tiles: Mapping[str, float],
    iterator: str,
    stride: int,
    dilation: int,
) -> float:
    """Partial-overlap data volume of ``In`` for one execution of the loop at ``R_In``.

    Implements the four bullets of Section 3.2, generalized to stride and
    dilation: stepping the ``h`` (or ``w``) tile loop shifts the accessed
    input window by ``T_h * stride`` and stepping the ``r`` (or ``s``) loop
    shifts it by ``T_r * dilation``; the new data per step is the smaller of
    that shift and the full window extent.
    """
    t = tiles
    ext_h, ext_w = _input_extents(t, stride, dilation)
    steps = max(problem[iterator] / t[iterator] - 1.0, 0.0)
    if iterator == "w":
        return t["n"] * t["c"] * ext_h * min(ext_w, t["w"] * stride) * steps
    if iterator == "s":
        return t["n"] * t["c"] * ext_h * min(ext_w, t["s"] * dilation) * steps
    if iterator == "h":
        return t["n"] * t["c"] * min(ext_h, t["h"] * stride) * ext_w * steps
    if iterator == "r":
        return t["n"] * t["c"] * min(ext_h, t["r"] * dilation) * ext_w * steps
    raise InvalidSpecError(f"iterator {iterator!r} is not a partial-reuse iterator for In")


# ----------------------------------------------------------------------
# General (mapping-based) cost functions
# ----------------------------------------------------------------------
def tensor_volume_general(
    problem: Mapping[str, float],
    config: TilingConfig,
    tensor: str,
    *,
    stride: int = 1,
    dilation: int = 1,
) -> TensorCost:
    """Modeled single-level data movement of one tensor for arbitrary extents.

    ``problem`` maps each loop index to the extent of the region being tiled;
    for whole-problem (single-level) analysis these are the ``N_j`` of the
    conv operator, while for level ``l`` of a multi-level tiling they are the
    level ``l+1`` tile sizes.
    """
    if tensor not in TENSOR_NAMES:
        raise InvalidSpecError(f"unknown tensor {tensor!r}")
    tiles = config.tiles
    position, iterator = reuse_position(config, tensor)
    footprint = tensor_footprint(tensor, tiles, stride=stride, dilation=dilation)

    if tensor == "In" and iterator in PARTIAL_REUSE_ITERATORS:
        outer = config.indices_above(position)
        outer_product = _ratio_product(problem, tiles, outer)
        partial = _in_partial_term(problem, tiles, iterator, stride, dilation)
        volume = outer_product * (partial + footprint)
        return TensorCost(tensor, position, iterator, volume, True)

    at_or_above = config.indices_at_or_above(position)
    product = _ratio_product(problem, tiles, at_or_above)
    factor = OUT_TRAFFIC_FACTOR if tensor == "Out" else 1.0
    volume = factor * product * footprint
    return TensorCost(tensor, position, iterator, volume, False)


def volume_general(
    problem: Mapping[str, float],
    config: TilingConfig,
    *,
    stride: int = 1,
    dilation: int = 1,
    line_size: int = 1,
) -> float:
    """Total modeled single-level data movement for arbitrary problem extents."""
    total = 0.0
    for tensor in TENSOR_NAMES:
        cost = tensor_volume_general(
            problem, config, tensor, stride=stride, dilation=dilation
        )
        volume = cost.volume
        if line_size > 1:
            volume = _line_scaled_volume(config, tensor, volume, line_size)
        total += volume
    return total


# ----------------------------------------------------------------------
# ConvSpec-based wrappers
# ----------------------------------------------------------------------
def tensor_data_volume(spec: ConvSpec, config: TilingConfig, tensor: str) -> TensorCost:
    """Modeled single-level data-movement volume for one tensor of a conv spec."""
    problem = {i: float(e) for i, e in spec.loop_extents.items()}
    return tensor_volume_general(
        problem, config, tensor, stride=spec.stride, dilation=spec.dilation
    )


def data_volume(
    spec: ConvSpec,
    config: TilingConfig,
    *,
    capacity: Optional[float] = None,
    line_size: int = 1,
) -> CostBreakdown:
    """Total modeled single-level data movement for one tiling configuration.

    Parameters
    ----------
    spec:
        The conv2d problem.
    config:
        Tile-loop permutation and tile sizes.
    capacity:
        Optional cache capacity in elements; recorded in the result so
        callers can check :attr:`CostBreakdown.fits_capacity`.
    line_size:
        Optional cache-line size in elements.  The paper's Section 12
        discusses modeling spatial locality by counting lines
        (``ceil(T_k / L)``) along the fastest-varying dimension; with the
        default ``line_size=1`` the element-granularity model of Sections
        3–4 is used.
    """
    per_tensor: Dict[str, TensorCost] = {}
    for tensor in TENSOR_NAMES:
        cost = tensor_data_volume(spec, config, tensor)
        if line_size > 1:
            cost = TensorCost(
                cost.tensor,
                cost.reuse_position,
                cost.reuse_iterator,
                _line_scaled_volume(config, tensor, cost.volume, line_size),
                cost.partial_reuse,
            )
        per_tensor[tensor] = cost
    footprint = total_footprint(spec, config.tiles)
    return CostBreakdown(config, per_tensor, footprint, capacity)


def _line_scaled_volume(
    config: TilingConfig, tensor: str, element_volume: float, line_size: int
) -> float:
    """Scale an element-granularity volume to cache-line granularity.

    Following the Section 12 extension, the tile extent along the
    fastest-varying data dimension of each tensor (``w`` for ``Out``/``In``
    in NCHW layout, ``s`` for ``Ker`` in KCRS layout) is rounded up to whole
    lines; the volume is scaled by the resulting ratio.
    """
    fastest = {"Out": "w", "In": "w", "Ker": "s"}[tensor]
    tile = config.tiles[fastest]
    scaled = math.ceil(tile / line_size) * line_size / tile
    return element_volume * scaled


def total_data_volume(
    spec: ConvSpec, config: TilingConfig, *, line_size: int = 1
) -> float:
    """Convenience wrapper returning only the total modeled volume in elements."""
    problem = {i: float(e) for i, e in spec.loop_extents.items()}
    return volume_general(
        problem,
        config,
        stride=spec.stride,
        dilation=spec.dilation,
        line_size=line_size,
    )


def per_tensor_volumes(spec: ConvSpec, config: TilingConfig) -> Dict[str, float]:
    """Per-tensor modeled volumes as a plain dictionary."""
    breakdown = data_volume(spec, config)
    return {name: cost.volume for name, cost in breakdown.per_tensor.items()}


def combined_footprint_nd(tiles, *, stride: int = 1, dilation: int = 1):
    """Combined tile footprints for arrays of tile vectors ``(..., 7)``.

    The trailing axis is in :data:`~repro.core.tensor_spec.LOOP_INDICES`
    order.  This is the single array implementation of the Eq. 4 left-hand
    side of the batched cost tables (summation order Out + Ker + In,
    matching :meth:`CompiledPermutationCost.footprint_floats` bitwise).
    """
    import numpy as np

    t = np.asarray(tiles, dtype=float)
    ext_h = (t[..., 5] - 1) * stride + (t[..., 3] - 1) * dilation + 1
    ext_w = (t[..., 6] - 1) * stride + (t[..., 4] - 1) * dilation + 1
    return (
        t[..., 0] * t[..., 1] * t[..., 5] * t[..., 6]
        + t[..., 1] * t[..., 2] * t[..., 3] * t[..., 4]
        + t[..., 0] * t[..., 2] * ext_h * ext_w
    )


def matmul_reference_volume(
    n_i: float, n_j: float, n_k: float, t_i: float, t_j: float
) -> float:
    """Data-movement volume of single-level tiled matrix multiplication (Eq. 3).

    Provided for documentation and testing: the CNN cost model degenerates to
    this well-known expression ``N_i N_j N_k (1/T_i + 1/T_j + 2/N_k)`` for the
    ⟨it, jt, kt⟩ tiling of ``C[i,j] += A[i,k] * B[k,j]`` discussed in
    Section 2.2.
    """
    return n_i * n_j * n_k * (1.0 / t_i + 1.0 / t_j + 2.0 / n_k)


# ----------------------------------------------------------------------
# Generated evaluators
# ----------------------------------------------------------------------
_GENERATED_LOCK = threading.Lock()
_GENERATED = {"evaluator_compiles": 0}


def compile_generated(source: str, name: str):
    """Compile generated Python source and return the function ``name`` it defines.

    The per-point evaluators of the solver are straight-line code
    generated from the structure of a plan or a round problem only; the
    numbers they use are passed to the defined (factory) function and
    bound as closure constants, so the same source serves every operator,
    machine and class of that structure.  The text stays readable on the
    returned function's ``source`` attribute.
    """
    namespace: Dict[str, object] = {}
    exec(compile(source, f"<generated {name}>", "exec"), namespace)
    function = namespace[name]
    function.source = source
    with _GENERATED_LOCK:
        _GENERATED["evaluator_compiles"] += 1
    return function


def evaluator_compiles() -> int:
    """Generated evaluator sources compiled in this process."""
    with _GENERATED_LOCK:
        return _GENERATED["evaluator_compiles"]


def _plan_source(plans, unit_stride: bool, unit_dilation: bool) -> str:
    """Source of ``make(stride, dilation)``, which returns
    ``(volume_floats, footprint_floats, lanes)``.

    The model is first written as straight single-assignment lines
    ``target = template`` over the unpacked ``p_<i>`` (problem extents)
    and ``t_<i>`` (tiles).  The generated volume function performs exactly
    the IEEE-754 operations of :func:`volume_general`, in the same order
    (the two agree bitwise; the footprint function sums Out + Ker + In,
    unlike :func:`combined_footprint`): the running product of ratios
    ``1.0 * r_a * r_b`` is emitted as ``r_a * r_b`` (``1.0 * x`` is
    exact), a case-1 factor of 1.0 is dropped the same way, and a unit
    stride or dilation is not multiplied (``x * 1`` is exact).  ``min`` /
    ``max`` become the conditional expressions CPython evaluates for them
    (the first argument wins ties).  Every left-associated product is one
    line per prefix (``m3 = m2 * r_s``), and products sharing a prefix
    share its lines; a line read only once is written into its reader.

    ``lanes(problem, tiles, outer, outer_live, probes, live)`` answers the
    finite-difference probes that move one level's time in one call.  It
    returns ``(volume, volumes, footprints, extents)``: the volume at
    ``(problem, tiles)`` and, for each ``j`` with ``live[j]`` true, the
    volume and the footprint with tile ``j`` replaced by ``probes[j]``
    (entry ``j`` of ``volumes`` and ``footprints``), and for each ``j``
    with ``outer_live[j]`` true the volume with extent ``j`` replaced by
    ``outer[j]`` (``extents``; the other entries are ``None``).  It
    computes the lines that do not read a replaced input once and per lane
    recomputes only those that do, from the longest clean prefix of each
    product on, so each lane is bitwise the plain function at its probe
    point.
    """
    names = dict(enumerate(LOOP_INDICES))
    lines: List[Tuple[str, str, Tuple[str, ...]]] = []
    prefixes: Dict[Tuple[str, ...], str] = {}

    def line(target: str, template: str, *reads: str) -> str:
        lines.append((target, template, reads))
        return target

    def product(factors: List[str], target: Optional[str] = None) -> Optional[str]:
        if not factors:
            return None
        name = factors[0]
        for end in range(2, len(factors) + 1):
            key = tuple(factors[:end])
            if key not in prefixes:
                last = end == len(factors) and target is not None
                prefixes[key] = line(
                    target if last else f"m{len(prefixes)}", "{} * {}", name, key[-1]
                )
            name = prefixes[key]
        return name

    def times(template: str, factor: str, unit: bool) -> str:
        return template if unit else f"{template} * {factor}"

    for extent, (outer, inner) in (("ext_h", ("h", "r")), ("ext_w", ("w", "s"))):
        stride = times("({} - 1)", "stride", unit_stride)
        dilation = times("({} - 1)", "dilation", unit_dilation)
        line(extent, f"{stride} + {dilation} + 1", f"t_{outer}", f"t_{inner}")
    ratios = sorted(
        {position for _, idx, _, _ in plans for position in idx}
        | {iterator for _, _, partial, iterator in plans if partial}
    )
    for position in ratios:
        index = names[position]
        line(f"r_{index}", "{} / {}", f"p_{index}", f"t_{index}")
    footprints = {
        "Out": product(["t_n", "t_k", "t_h", "t_w"], "fp_out"),
        "Ker": product(["t_k", "t_c", "t_r", "t_s"], "fp_ker"),
        "In": product(["t_n", "t_c", "ext_h", "ext_w"], "fp_in"),
    }
    terms = []
    for tensor, idx, partial, iterator in plans:
        ratio = product([f"r_{names[position]}" for position in idx])
        footprint = footprints[tensor]
        term = f"v_{tensor.lower()}"
        if partial:
            index = names[iterator]
            line("over", "{} - 1.0", f"r_{index}")
            line("steps", "0.0 if 0.0 > {} else {}", "over", "over")
            move = f"t_{index}"
            if index in ("w", "h") and not unit_stride:
                move = line("move", "{} * stride", move)
            elif index in ("s", "r") and not unit_dilation:
                move = line("move", "{} * dilation", move)
            extent = "ext_w" if index in ("w", "s") else "ext_h"
            line("shift", "{} if {} < {} else {}", move, move, extent, extent)
            if extent == "ext_w":
                extra = product(["t_n", "t_c", "ext_h", "shift", "steps"])
            else:
                extra = product(["t_n", "t_c", "shift", "ext_w", "steps"])
            fill = line("fill", "{} + {}", extra, footprint)
            if ratio:
                line(term, "{} * {}", ratio, fill)
            else:
                term = fill
        elif tensor == "Out":
            factor = repr(OUT_TRAFFIC_FACTOR)
            if ratio:
                line(term, factor + " * {} * {}", ratio, footprint)
            else:
                line(term, factor + " * {}", footprint)
        elif ratio:
            line(term, "{} * {}", ratio, footprint)
        else:
            term = footprint
        terms.append(term)
    line("volume", "0.0 + " + " + ".join("{}" for _ in terms), *terms)
    line("footprint", "{} + {} + {}", footprints["Out"], footprints["Ker"], footprints["In"])

    # The inputs (``t_<i>``, ``p_<i>``) each target reads, directly or not.
    inputs: Dict[str, frozenset] = {}
    for target, _, reads in lines:
        inputs[target] = frozenset().union(*(inputs.get(read, (read,)) for read in reads))

    def needed(*outputs: str) -> List[Tuple[str, str, Tuple[str, ...]]]:
        wanted = set(outputs)
        for target, _, reads in reversed(lines):
            if target in wanted:
                wanted.update(reads)
        return [entry for entry in lines if entry[0] in wanted]

    def emit(entries, renamed: Dict[str, str], indent: str, keep=frozenset()) -> List[str]:
        """Assignments of ``entries`` under ``renamed``.  A target read
        once among them (and not in ``keep``) is written into its reader
        instead, parenthesized unless it extends a product from the left."""
        uses = Counter(read for _, _, reads in entries for read in reads)
        inlined: Dict[str, Tuple[str, str]] = {}
        source = []
        for target, template, reads in entries:
            args = [inlined.pop(read, None) or renamed.get(read, read) for read in reads]
            for slot, arg in enumerate(args):
                if type(arg) is tuple:
                    text, form = arg
                    left = slot == 0 and form == "{} * {}" and template.startswith("{} * ")
                    args[slot] = text if left else f"({text})"
            expression = template.format(*args)
            if uses[target] == 1 and target not in keep:
                inlined[target] = (expression, template)
            else:
                source.append(f"{indent}{renamed.get(target, target)} = {expression}")
        return source

    def header(name: str, args: Sequence[Tuple[str, str]]) -> List[str]:
        source = [f"    def {name}({', '.join(arg for _, arg in args)}):"]
        for prefix, arg in args:
            unpacked = ", ".join(prefix + index for index in LOOP_INDICES)
            source.append(f"        {unpacked} = {arg}")
        return source

    def plain(name: str, args: Sequence[Tuple[str, str]], output: str) -> List[str]:
        body = emit(needed(output), {}, "        ")
        body[-1] = body[-1].replace(f"{output} =", "return", 1)
        return header(name, args) + body + [""]

    # lanes: per probed input (tiles ``t_``, extents ``p_``), its probes,
    # live flags and the lists its lanes fill.
    groups = (
        ("t_", "q_", "u_", {"volume": "volumes", "footprint": "footprints"}),
        ("p_", "qp_", "up_", {"volume": "extents"}),
    )
    blocks = []
    keep = set()  # base values a lane reads
    for prefix, probe, live, outputs in groups:
        entries = needed(*outputs)
        inner = entries[: -len(outputs)]  # the outputs come last
        for position, index in enumerate(LOOP_INDICES):
            probed = prefix + index
            moved = [entry for entry in inner if probed in inputs[entry[0]]]
            moved += entries[len(inner) :]
            renamed = {target: f"{target}_" for target, _, _ in moved}
            renamed[probed] = probe + index
            renamed.update(
                (output, f"{listed}[{position}]") for output, listed in outputs.items()
            )
            for _, _, reads in moved:
                keep.update(read for read in reads if read not in renamed)
            blocks.append((live + index, moved, renamed))

    source = ["def make(stride, dilation):"]
    source += plain("volume_floats", (("p_", "problem"), ("t_", "tiles")), "volume")
    source += plain("footprint_floats", (("t_", "tiles"),), "footprint")
    source += header(
        "lanes",
        (
            ("p_", "problem"),
            ("t_", "tiles"),
            ("qp_", "outer"),
            ("up_", "outer_live"),
            ("q_", "probes"),
            ("u_", "live"),
        ),
    )
    source += emit(needed("volume"), {}, "        ", keep)
    source.append("        volumes, footprints, extents = [None] * 7, [None] * 7, [None] * 7")
    for flag, moved, renamed in blocks:
        source.append(f"        if {flag}:")
        source += emit(moved, renamed, "            ")
    source += [
        "        return volume, volumes, footprints, extents",
        "",
        "    return volume_floats, footprint_floats, lanes",
        "",
    ]
    return "\n".join(source)


# ----------------------------------------------------------------------
# Compiled cost model (fast repeated evaluation inside the solver)
# ----------------------------------------------------------------------
class CompiledPermutationCost:
    """Pre-analyzed cost model for one fixed permutation.

    The optimizer evaluates the cost expression thousands of times while
    solving for tile sizes; building :class:`~repro.core.config.TilingConfig`
    objects on every call would dominate the runtime.  This class performs
    the permutation analysis (reuse positions, case selection) once and then
    evaluates the volume and the combined footprint per point on plain
    float sequences ordered like :data:`LOOP_INDICES`
    (``volume_floats(problem, tiles)``/``footprint_floats(tiles)``, the
    MOpt round problems, their sparse jacobians and the single-level
    problems), and answers a level point's finite-difference probes in
    one ``lanes`` call.  They are generated straight-line Python (see
    :func:`_plan_source`; the text is on ``volume_floats.source``) with
    the reuse positions, the partial-reuse case and unit strides resolved
    at generation time; the generic :func:`volume_general` /
    :func:`combined_footprint` remain the independent reference it is
    tested against.

    The three functions are generated and compiled on first use of any
    of them: :meth:`plan_signature` and :meth:`volume_interval_bound`
    read only the analysis, so a class whose solve collapses into
    another's never builds its code.  Two threads racing on the first
    use may both build it; the code is pure, so either copy serves.
    """

    _POS = {index: position for position, index in enumerate(LOOP_INDICES)}
    _EVALUATORS = ("volume_floats", "footprint_floats", "lanes")

    def __init__(self, permutation: Sequence[str], *, stride: int = 1, dilation: int = 1):
        config = TilingConfig(permutation, {i: 2.0 for i in LOOP_INDICES})
        self.permutation = config.permutation
        self.stride = stride
        self.dilation = dilation
        # Per tensor: the positions of the reuse factors, whether its reuse
        # is partial, and the reuse iterator's position.
        self._float_plans = []
        for tensor in TENSOR_NAMES:
            position, iterator = reuse_position(config, tensor)
            partial = tensor == "In" and iterator in PARTIAL_REUSE_ITERATORS
            if partial:
                indices = config.indices_above(position)
            else:
                indices = config.indices_at_or_above(position)
            self._float_plans.append(
                (
                    tensor,
                    tuple(self._POS[i] for i in indices),
                    partial,
                    self._POS[iterator],
                )
            )
        # Positions used repeatedly by the evaluators.
        self._p = {i: self._POS[i] for i in LOOP_INDICES}
        self._iterator_name = {self._POS[i]: i for i in LOOP_INDICES}

    def __getattr__(self, name: str):
        # Reached only while the evaluators are not yet instance attributes.
        if name not in self._EVALUATORS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        make = compile_generated(
            _plan_source(self._float_plans, self.stride == 1, self.dilation == 1), "make"
        )
        for attribute, function in zip(self._EVALUATORS, make(self.stride, self.dilation)):
            function.source = make.source
            setattr(self, attribute, function)
        return getattr(self, name)

    # -- interval bounds (basin lower bounds for the min-max solve) --------
    def volume_interval_bound(
        self, problem_lo, problem_hi, tiles_lo, tiles_hi, *, upper: bool = False
    ) -> float:
        """Sound bound on :meth:`volume_floats` over a box of inputs.

        All four arguments are sequences in :data:`LOOP_INDICES` order
        bounding the problem extents and tile sizes coordinatewise.  The
        bound assumes the nesting invariant ``problem >= tiles`` holds at
        every feasible point (so every ``N_j / T_j`` ratio is at least 1),
        which lets the lower bound clamp each ratio factor at 1 instead of
        the vacuous ``p_lo / t_hi``.  Correlations between the footprint
        factors and the ratio denominators are ignored — the bound is
        conservative, never tight beyond degenerate (point) intervals.

        The optimizer uses the lower bound as the certified floor of a
        permutation class's bandwidth-scaled time (no feasible tiling of
        the class can beat it), and the upper bound to box the bottleneck
        variable of the min-max solve.
        """
        p = self._p
        stride, dilation = self.stride, self.dilation
        if upper:
            t_fp = tiles_hi  # footprints grow with the tiles
            t_ratio = tiles_lo  # ratios grow as the tile shrinks
            p_ratio = problem_hi
        else:
            t_fp = tiles_lo
            t_ratio = tiles_hi
            p_ratio = problem_lo
        f_n, f_k, f_c = t_fp[p["n"]], t_fp[p["k"]], t_fp[p["c"]]
        f_r, f_s, f_h, f_w = t_fp[p["r"]], t_fp[p["s"]], t_fp[p["h"]], t_fp[p["w"]]
        ext_h = (f_h - 1) * stride + (f_r - 1) * dilation + 1
        ext_w = (f_w - 1) * stride + (f_s - 1) * dilation + 1
        footprints = {
            "Out": f_n * f_k * f_h * f_w,
            "Ker": f_k * f_c * f_r * f_s,
            "In": f_n * f_c * ext_h * ext_w,
        }
        total = 0.0
        for tensor, idx, partial, iterator in self._float_plans:
            product = 1.0
            for position in idx:
                ratio = p_ratio[position] / t_ratio[position]
                if not upper and ratio < 1.0:
                    ratio = 1.0  # nesting guarantees N_j >= T_j
                product *= ratio
            footprint = footprints[tensor]
            if partial:
                extra = 0.0
                if upper:
                    steps = max(p_ratio[iterator] / t_ratio[iterator] - 1.0, 0.0)
                    name = self._iterator_name[iterator]
                    if name == "w":
                        extra = f_n * f_c * ext_h * min(ext_w, f_w * stride) * steps
                    elif name == "s":
                        extra = f_n * f_c * ext_h * min(ext_w, f_s * dilation) * steps
                    elif name == "h":
                        extra = f_n * f_c * min(ext_h, f_h * stride) * ext_w * steps
                    else:
                        extra = f_n * f_c * min(ext_h, f_r * dilation) * ext_w * steps
                total += product * (extra + footprint)
            else:
                factor = OUT_TRAFFIC_FACTOR if tensor == "Out" else 1.0
                total += factor * product * footprint
        return total

    # -- effective-plan signature (pinned-extent class collapse) -----------
    def plan_signature(self, pinned: frozenset) -> Tuple:
        """Signature of the cost expression modulo pinned (extent-1) loops.

        ``pinned`` holds the positions (LOOP_INDICES order) of loops whose
        problem extent is 1.  Such loops have tile bounds ``(1, 1)`` at
        every level, so at every point the solver can visit their ratio
        factors are exactly ``1.0`` and their partial-reuse step counts
        exactly ``0.0`` — multiplying by 1.0 and adding 0.0 are exact in
        IEEE-754, so two permutations whose plans agree after dropping
        pinned members evaluate bitwise-identically everywhere.  A partial
        plan whose reuse iterator is pinned degenerates to the case-1
        expression at the same position.  The signature captures exactly
        that equivalence: ordered non-pinned members per tensor plus the
        effective case/iterator, so equal signatures certify bitwise-equal
        solves (see ``MOptOptimizer``'s class dedup).
        """
        signature = []
        for tensor, idx, partial, iterator in self._float_plans:
            effective = tuple(position for position in idx if position not in pinned)
            live_partial = partial and iterator not in pinned
            signature.append(
                (tensor, effective, live_partial, iterator if live_partial else -1)
            )
        return (self.stride, self.dilation, tuple(signature))


class CompileCache:
    """Bounded, thread-safe LRU memo for :class:`CompiledPermutationCost`.

    The compiled plans depend only on the *shape family* of an operator —
    the permutation plus its stride/dilation — never on the loop extents,
    so one table serves every operator of a network and every machine of a
    design-space sweep.  Earlier revisions used an unbounded
    ``functools.lru_cache``; a long-lived serving process that sees many
    stride/dilation combinations now evicts least-recently-used plans at
    ``maxsize`` instead of growing without limit, and the hit/miss/eviction
    counters feed the serving stats probe.

    Beside the plans it keeps the generated round-problem code of the
    optimizer (:meth:`generated`), keyed by round structure only, under
    the same lock and bound; :meth:`clear` drops both, so a cleared cache
    is cold for code generation too.  The counters count plans only.
    """

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError("CompileCache maxsize must be positive")
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[Tuple, CompiledPermutationCost]" = OrderedDict()
        self._code: "OrderedDict[Tuple, Callable]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(
        self, permutation: Sequence[str], *, stride: int = 1, dilation: int = 1
    ) -> CompiledPermutationCost:
        """The compiled plans for one (permutation, stride, dilation) family."""
        key = (tuple(permutation), int(stride), int(dilation))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._hits += 1
                self._entries.move_to_end(key)
                return entry
            self._misses += 1
        # Compile outside the lock: the analysis is pure, so a rare
        # duplicate compile under contention is only wasted work.
        compiled = CompiledPermutationCost(key[0], stride=key[1], dilation=key[2])
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                return existing
            self._entries[key] = compiled
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1
        return compiled

    def generated(self, key: Tuple, build: Callable[[], Callable]) -> Callable:
        """The generated code for one structure ``key``, built on first use.

        ``build`` must depend on ``key`` alone (never on the numbers of a
        request); like :meth:`get` it runs outside the lock.
        """
        with self._lock:
            code = self._code.get(key)
            if code is not None:
                self._code.move_to_end(key)
                return code
        code = build()
        with self._lock:
            code = self._code.setdefault(key, code)
            while len(self._code) > self.maxsize:
                self._code.popitem(last=False)
        return code

    def stats(self) -> Dict[str, int]:
        """Hit/miss/size counters (serving stats probe payload)."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "size": len(self._entries),
                "maxsize": self.maxsize,
            }

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._code.clear()
            self._hits = self._misses = self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: Process-global compile cache shared by default between every optimizer,
#: network sweep and DSE exploration in the process.
DEFAULT_COMPILE_CACHE = CompileCache()

# The shared cache's counters are one facet of the unified metrics
# snapshot (same dict `Session.performance_stats()` reports).
_METRICS_REGISTRY.register_collector(
    "compile_cache", lambda: DEFAULT_COMPILE_CACHE.stats()
)


def compiled_cost_for(
    permutation: Tuple[str, ...],
    stride: int = 1,
    dilation: int = 1,
    *,
    cache: Optional[CompileCache] = None,
) -> CompiledPermutationCost:
    """Memoized :class:`CompiledPermutationCost` for one permutation.

    The permutation analysis is pure and the instances are effectively
    immutable; network sweeps ask for the same eight representatives for
    every operator, so sharing the compiled plans avoids rebuilding them
    once per (operator, class) pair.  Served from ``cache`` when given,
    else from the process-global :data:`DEFAULT_COMPILE_CACHE`.
    """
    return (cache if cache is not None else DEFAULT_COMPILE_CACHE).get(
        permutation, stride=stride, dilation=dilation
    )
