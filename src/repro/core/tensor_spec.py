"""Problem and tensor index algebra for the CNN (conv2d) loop nest.

The paper models the convolution

    Out[n, k, h, w] += In[n, c, h + r, w + s] * Ker[k, c, r, s]

as a seven-dimensional loop nest over the indices ``n, k, c, r, s, h, w``
(Listing 2 of the paper).  Everything in :mod:`repro.core` is phrased in
terms of these seven loop indices and the three tensors ``Out``, ``In`` and
``Ker``.  This module defines:

* :data:`LOOP_INDICES` — the canonical index names and ordering,
* :class:`ConvSpec` — the problem sizes of one conv2d operator (one row of
  Table 1 in the paper), including stride and dilation,
* :class:`TensorAccess` — which loop indices appear in each tensor's
  subscript and how to compute tile footprints (the data-slice volumes of
  Section 3.1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Mapping, Sequence, Tuple

#: Canonical ordering of the seven loop indices of the conv2d loop nest.
#: ``n``: batch, ``k``: output channel, ``c``: input channel, ``r``/``s``:
#: kernel height/width, ``h``/``w``: output height/width.
LOOP_INDICES: Tuple[str, ...] = ("n", "k", "c", "r", "s", "h", "w")

#: Names of the three tensors taking part in the convolution.
TENSOR_NAMES: Tuple[str, ...] = ("Out", "In", "Ker")

#: Loop indices appearing in each tensor's subscript expressions.
#: ``In`` is indexed by ``[n, c, h + r, w + s]`` so all of n, c, h, w, r, s
#: are *present* for it; ``k`` is its only absent index.
TENSOR_INDICES: Dict[str, Tuple[str, ...]] = {
    "Out": ("n", "k", "h", "w"),
    "In": ("n", "c", "h", "w", "r", "s"),
    "Ker": ("k", "c", "r", "s"),
}

#: Reduction (contraction) indices: they do not appear in the output tensor.
REDUCTION_INDICES: Tuple[str, ...] = ("c", "r", "s")

#: Non-reduction indices (candidates for parallelization, Section 7).
PARALLEL_INDICES: Tuple[str, ...] = ("n", "k", "h", "w")


class InvalidSpecError(ValueError):
    """Raised when a :class:`ConvSpec` or tile-size vector is malformed."""


def _require_positive(name: str, value: int) -> None:
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise InvalidSpecError(f"{name} must be an integer, got {value!r}")
    if value <= 0:
        raise InvalidSpecError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class ConvSpec:
    """Shape of a single conv2d operator (one row of Table 1).

    The attributes mirror the paper's notation: ``N_n`` is the batch size,
    ``N_k`` the number of output channels, ``N_c`` the number of input
    channels, ``N_r``/``N_s`` the kernel height/width, and ``N_h``/``N_w``
    the *output* spatial extents.  The input image size used to build the
    operator is recorded separately so that the stride-2 operators of
    Table 1 are represented faithfully.

    Parameters
    ----------
    name:
        Human-readable layer name, e.g. ``"Y0"`` or ``"R4"``.
    batch, out_channels, in_channels:
        ``N_n``, ``N_k``, ``N_c``.
    in_height, in_width:
        Input image spatial extents (``H``/``W`` columns of Table 1).
    kernel_h, kernel_w:
        ``N_r``/``N_s``.
    stride, dilation:
        Convolution stride and dilation (Table 1 uses stride 1 or 2 and
        dilation 1).
    padding:
        Symmetric spatial padding applied to the input.
    dtype_bytes:
        Size in bytes of one tensor element (4 for fp32).
    """

    name: str
    batch: int
    out_channels: int
    in_channels: int
    in_height: int
    in_width: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    dilation: int = 1
    padding: int = 0
    dtype_bytes: int = 4

    def __post_init__(self) -> None:
        _require_positive("batch", self.batch)
        _require_positive("out_channels", self.out_channels)
        _require_positive("in_channels", self.in_channels)
        _require_positive("in_height", self.in_height)
        _require_positive("in_width", self.in_width)
        _require_positive("kernel_h", self.kernel_h)
        _require_positive("kernel_w", self.kernel_w)
        _require_positive("stride", self.stride)
        _require_positive("dilation", self.dilation)
        if self.padding < 0:
            raise InvalidSpecError(f"padding must be >= 0, got {self.padding}")
        _require_positive("dtype_bytes", self.dtype_bytes)
        if self.out_height <= 0 or self.out_width <= 0:
            raise InvalidSpecError(
                f"operator {self.name!r} has non-positive output extent "
                f"({self.out_height} x {self.out_width}); check kernel/stride/padding"
            )

    # ------------------------------------------------------------------
    # Derived extents
    # ------------------------------------------------------------------
    @property
    def effective_kernel_h(self) -> int:
        """Kernel extent along the input height, accounting for dilation."""
        return (self.kernel_h - 1) * self.dilation + 1

    @property
    def effective_kernel_w(self) -> int:
        """Kernel extent along the input width, accounting for dilation."""
        return (self.kernel_w - 1) * self.dilation + 1

    @property
    def out_height(self) -> int:
        """Output height ``N_h``."""
        return (self.in_height + 2 * self.padding - self.effective_kernel_h) // self.stride + 1

    @property
    def out_width(self) -> int:
        """Output width ``N_w``."""
        return (self.in_width + 2 * self.padding - self.effective_kernel_w) // self.stride + 1

    @property
    def loop_extents(self) -> Dict[str, int]:
        """Extent ``N_j`` of each of the seven loop indices."""
        return {
            "n": self.batch,
            "k": self.out_channels,
            "c": self.in_channels,
            "r": self.kernel_h,
            "s": self.kernel_w,
            "h": self.out_height,
            "w": self.out_width,
        }

    def extent(self, index: str) -> int:
        """Extent of a single loop index (raises ``KeyError`` for bad names)."""
        return self.loop_extents[index]

    # ------------------------------------------------------------------
    # Work and tensor sizes
    # ------------------------------------------------------------------
    @property
    def macs(self) -> int:
        """Number of multiply-accumulate operations of the operator."""
        e = self.loop_extents
        return e["n"] * e["k"] * e["c"] * e["r"] * e["s"] * e["h"] * e["w"]

    @property
    def flops(self) -> int:
        """Floating point operations (2 per MAC: multiply and add)."""
        return 2 * self.macs

    @property
    def out_elements(self) -> int:
        """Number of elements of the output tensor ``Out[n, k, h, w]``."""
        return self.batch * self.out_channels * self.out_height * self.out_width

    @property
    def in_elements(self) -> int:
        """Number of elements of the (padded) input tensor."""
        padded_h = self.in_height + 2 * self.padding
        padded_w = self.in_width + 2 * self.padding
        return self.batch * self.in_channels * padded_h * padded_w

    @property
    def ker_elements(self) -> int:
        """Number of elements of the kernel tensor ``Ker[k, c, r, s]``."""
        return self.out_channels * self.in_channels * self.kernel_h * self.kernel_w

    @property
    def total_elements(self) -> int:
        """Total number of tensor elements touched by the operator."""
        return self.out_elements + self.in_elements + self.ker_elements

    @property
    def total_bytes(self) -> int:
        """Total byte size of the three tensors."""
        return self.total_elements * self.dtype_bytes

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------
    def scaled(self, factor: float, name_suffix: str = "-scaled") -> "ConvSpec":
        """Return a spatially scaled-down copy of the operator.

        Used by the simulator-driven experiments to keep slice-level
        simulation tractable while preserving channel structure and the
        kernel.  Spatial extents are scaled by ``factor`` and clamped so the
        output stays valid.
        """
        if factor <= 0:
            raise InvalidSpecError(f"scale factor must be positive, got {factor}")
        min_extent = self.effective_kernel_h + self.stride
        new_h = max(min_extent, int(round(self.in_height * factor)))
        new_w = max(min_extent, int(round(self.in_width * factor)))
        return replace(self, name=self.name + name_suffix, in_height=new_h, in_width=new_w)

    def with_batch(self, batch: int) -> "ConvSpec":
        """Return a copy with a different batch size."""
        return replace(self, batch=batch)

    def describe(self) -> str:
        """One-line description in the style of Table 1."""
        stride_mark = "*" if self.stride > 1 else ""
        return (
            f"{self.name}{stride_mark}: K={self.out_channels} C={self.in_channels} "
            f"H/W={self.in_height} R/S={self.kernel_h} stride={self.stride} "
            f"(N_h={self.out_height}, N_w={self.out_width}, {self.flops / 1e9:.2f} GFLOP)"
        )


# ----------------------------------------------------------------------
# Tensor access functions / tile footprints
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TensorAccess:
    """Access function of one tensor of the convolution.

    Provides the *present*/*absent* index classification of Section 4 and
    the tile-footprint volumes of Section 3.1, generalized to arbitrary
    stride and dilation.
    """

    tensor: str
    spec: ConvSpec

    def __post_init__(self) -> None:
        if self.tensor not in TENSOR_NAMES:
            raise InvalidSpecError(f"unknown tensor {self.tensor!r}")

    @property
    def present_indices(self) -> Tuple[str, ...]:
        """Loop indices appearing in this tensor's subscripts."""
        return TENSOR_INDICES[self.tensor]

    @property
    def absent_indices(self) -> Tuple[str, ...]:
        """Loop indices *not* appearing in this tensor's subscripts."""
        return tuple(i for i in LOOP_INDICES if i not in self.present_indices)

    def is_present(self, index: str) -> bool:
        """True if ``index`` is used in this tensor's subscripts."""
        if index not in LOOP_INDICES:
            raise InvalidSpecError(f"unknown loop index {index!r}")
        return index in self.present_indices

    # -- footprints -----------------------------------------------------
    def input_extent_h(self, tile_h: float, tile_r: float) -> float:
        """Input-height extent touched by a (tile_h, tile_r) tile of (h, r)."""
        return (tile_h - 1) * self.spec.stride + (tile_r - 1) * self.spec.dilation + 1

    def input_extent_w(self, tile_w: float, tile_s: float) -> float:
        """Input-width extent touched by a (tile_w, tile_s) tile of (w, s)."""
        return (tile_w - 1) * self.spec.stride + (tile_s - 1) * self.spec.dilation + 1

    def footprint(self, tiles: Mapping[str, float]) -> float:
        """Data-slice volume (in elements) accessed by one tile.

        ``tiles`` maps each loop index to its tile size; entries for absent
        indices are ignored.  For ``In`` the spatial extents follow the
        paper's ``(T_h + T_r - 1)(T_w + T_s - 1)`` expression (generalized to
        stride/dilation).
        """
        t = dict(tiles)
        if self.tensor == "Out":
            return t["n"] * t["k"] * t["h"] * t["w"]
        if self.tensor == "Ker":
            return t["k"] * t["c"] * t["r"] * t["s"]
        # In
        ext_h = self.input_extent_h(t["h"], t["r"])
        ext_w = self.input_extent_w(t["w"], t["s"])
        return t["n"] * t["c"] * ext_h * ext_w

    def full_footprint(self) -> float:
        """Footprint of the whole tensor (tiles equal to the problem sizes)."""
        return self.footprint({i: float(e) for i, e in self.spec.loop_extents.items()})


def tensor_accesses(spec: ConvSpec) -> Dict[str, TensorAccess]:
    """Build the three :class:`TensorAccess` objects for a problem."""
    return {name: TensorAccess(name, spec) for name in TENSOR_NAMES}


def total_footprint(spec: ConvSpec, tiles: Mapping[str, float]) -> float:
    """Combined data footprint (elements) of one tile across all tensors.

    This is the left-hand side of the capacity constraint, Eq. (4) of the
    paper.
    """
    return sum(TensorAccess(name, spec).footprint(tiles) for name in TENSOR_NAMES)


def validate_tiles(spec: ConvSpec, tiles: Mapping[str, float], *, integral: bool = False) -> None:
    """Validate a tile-size assignment against a problem.

    Every loop index must be present, every tile size must lie in
    ``[1, N_j]``, and — when ``integral`` is true — be a whole number.
    Raises :class:`InvalidSpecError` on violation.
    """
    extents = spec.loop_extents
    missing = [i for i in LOOP_INDICES if i not in tiles]
    if missing:
        raise InvalidSpecError(f"tile sizes missing for indices {missing}")
    for index in LOOP_INDICES:
        size = tiles[index]
        if not math.isfinite(size):
            raise InvalidSpecError(f"tile size for {index!r} is not finite: {size}")
        if size < 1:
            raise InvalidSpecError(f"tile size for {index!r} must be >= 1, got {size}")
        if size > extents[index] + 1e-9:
            raise InvalidSpecError(
                f"tile size for {index!r} exceeds extent {extents[index]}: {size}"
            )
        if integral and abs(size - round(size)) > 1e-9:
            raise InvalidSpecError(f"tile size for {index!r} must be integral, got {size}")


def clamp_tiles(spec: ConvSpec, tiles: Mapping[str, float]) -> Dict[str, float]:
    """Clamp every tile size into the valid ``[1, N_j]`` range."""
    extents = spec.loop_extents
    return {i: float(min(max(1.0, tiles[i]), extents[i])) for i in LOOP_INDICES}


def num_tiles(spec: ConvSpec, tiles: Mapping[str, float]) -> float:
    """Number of tiles executed for one level of tiling, ``prod_j N_j / T_j``."""
    extents = spec.loop_extents
    count = 1.0
    for index in LOOP_INDICES:
        count *= extents[index] / tiles[index]
    return count


def divisor_tiles(extent: int, *, max_values: int | None = None) -> Tuple[int, ...]:
    """All tile sizes that evenly divide ``extent`` (ascending).

    Used by samplers and exhaustive baselines, which restrict themselves to
    perfect tilings (the paper's cost model presentation assumes perfect
    multiples; code generation handles partial tiles).
    """
    _require_positive("extent", extent)
    divisors = _divisors(extent)
    if max_values is not None and len(divisors) > max_values:
        # Keep a spread including 1 and the full extent.
        idx = [round(i * (len(divisors) - 1) / (max_values - 1)) for i in range(max_values)]
        divisors = tuple(divisors[i] for i in sorted(set(idx)))
    return divisors


@functools.lru_cache(maxsize=1024)
def _divisors(extent: int) -> Tuple[int, ...]:
    """Every divisor of a positive ``extent``, ascending (memoized: the
    integerization asks for the same few extents thousands of times)."""
    return tuple(d for d in range(1, extent + 1) if extent % d == 0)
