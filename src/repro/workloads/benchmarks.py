"""Benchmark conv2d operators of Table 1 (Yolo-9000, ResNet-18, MobileNet).

The paper evaluates on all conv2d operators used by TVM's comparative
evaluation: twelve from ResNet-18, nine (depth-wise counted as regular
conv2d shapes) from MobileNet, and eleven from Yolo-9000.  Table 1 lists,
for each operator, the output channel count ``K``, input channel count
``C``, the input spatial extent ``H/W`` (square images), the kernel size
``R/S`` (square kernels), batch size 1, and stride 1 or 2 (layers marked
with ``*``).

This module reproduces that table as :class:`~repro.core.tensor_spec.ConvSpec`
instances and offers lookup helpers used by every experiment.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.tensor_spec import ConvSpec

# (name, K, C, H/W, R/S, stride)
_YOLO9000_ROWS: Tuple[Tuple[str, int, int, int, int, int], ...] = (
    ("Y0", 32, 3, 544, 3, 1),
    ("Y2", 64, 32, 272, 3, 1),
    ("Y4", 128, 64, 136, 3, 1),
    ("Y5", 64, 128, 136, 1, 1),
    ("Y8", 256, 128, 68, 3, 1),
    ("Y9", 128, 256, 68, 1, 1),
    ("Y12", 512, 256, 34, 3, 1),
    ("Y13", 256, 512, 34, 1, 1),
    ("Y18", 1024, 512, 17, 3, 1),
    ("Y19", 512, 1024, 17, 1, 1),
    ("Y23", 28269, 1024, 17, 1, 1),
)

_RESNET18_ROWS: Tuple[Tuple[str, int, int, int, int, int], ...] = (
    ("R1", 64, 3, 224, 7, 2),
    ("R2", 64, 64, 56, 3, 1),
    ("R3", 64, 64, 56, 1, 1),
    ("R4", 128, 64, 56, 3, 2),
    ("R5", 128, 64, 56, 1, 2),
    ("R6", 128, 128, 28, 3, 1),
    ("R7", 256, 128, 28, 3, 2),
    ("R8", 256, 128, 28, 3, 1),
    ("R9", 256, 256, 14, 3, 1),
    ("R10", 512, 256, 14, 3, 2),
    ("R11", 512, 256, 14, 1, 2),
    ("R12", 512, 512, 7, 3, 1),
)

_MOBILENET_ROWS: Tuple[Tuple[str, int, int, int, int, int], ...] = (
    ("M1", 32, 32, 112, 3, 1),
    ("M2", 64, 64, 112, 3, 2),
    ("M3", 128, 128, 56, 3, 1),
    ("M4", 128, 128, 56, 3, 2),
    ("M5", 256, 256, 28, 3, 1),
    ("M6", 256, 256, 28, 3, 2),
    ("M7", 512, 512, 14, 3, 1),
    ("M8", 512, 512, 14, 3, 2),
    ("M9", 1024, 1024, 7, 3, 1),
)

#: Network name → table rows, in the order the paper lists them.
_NETWORK_ROWS: Dict[str, Tuple[Tuple[str, int, int, int, int, int], ...]] = {
    "yolo9000": _YOLO9000_ROWS,
    "resnet18": _RESNET18_ROWS,
    "mobilenet": _MOBILENET_ROWS,
}


def _row_to_spec(row: Tuple[str, int, int, int, int, int], batch: int) -> ConvSpec:
    name, k, c, hw, rs, stride = row
    # "Same" padding for 3x3/7x7 stride-1 convolutions, half-kernel padding for
    # strided ones — the standard configuration of these networks, which keeps
    # the output extent at H/W (stride 1) or H/W / stride.
    padding = (rs - 1) // 2
    return ConvSpec(
        name=name,
        batch=batch,
        out_channels=k,
        in_channels=c,
        in_height=hw,
        in_width=hw,
        kernel_h=rs,
        kernel_w=rs,
        stride=stride,
        dilation=1,
        padding=padding,
    )


def network_names() -> Tuple[str, ...]:
    """Names of the three benchmark networks."""
    return tuple(_NETWORK_ROWS)


@lru_cache(maxsize=64, typed=True)
def _network_specs(key: str, batch: int) -> Tuple[ConvSpec, ...]:
    # Specs are frozen, so one validated build serves every request of a
    # (network, batch); typed, so batch=True or 1.0 is still rejected.
    return tuple(_row_to_spec(row, batch) for row in _NETWORK_ROWS[key])


def network_benchmarks(network: str, *, batch: int = 1) -> List[ConvSpec]:
    """All conv2d operators of one network, in the paper's Table 1 order.

    Returns a new list on every call (callers may mutate it) of specs
    built once per ``(network, batch)``.
    """
    key = network.lower()
    if key not in _NETWORK_ROWS:
        raise KeyError(f"unknown network {network!r}; available: {network_names()}")
    return list(_network_specs(key, batch))


def all_benchmarks(*, batch: int = 1) -> List[ConvSpec]:
    """All 32 conv2d operators of Table 1, Yolo then ResNet then MobileNet."""
    specs: List[ConvSpec] = []
    for network in network_names():
        specs.extend(network_benchmarks(network, batch=batch))
    return specs


def benchmark_by_name(name: str, *, batch: int = 1) -> ConvSpec:
    """Look up one operator by its Table 1 name (e.g. ``"Y5"``, ``"R9"``, ``"M2"``)."""
    for spec in all_benchmarks(batch=batch):
        if spec.name == name:
            return spec
    raise KeyError(f"unknown benchmark operator {name!r}")


def table1_rows() -> List[Dict[str, object]]:
    """Rows of Table 1 as dictionaries (used by the ``table1`` experiment)."""
    rows: List[Dict[str, object]] = []
    for network, raw_rows in _NETWORK_ROWS.items():
        for name, k, c, hw, rs, stride in raw_rows:
            spec = _row_to_spec((name, k, c, hw, rs, stride), batch=1)
            rows.append(
                {
                    "network": network,
                    "layer": name,
                    "K": k,
                    "C": c,
                    "H/W": hw,
                    "R/S": rs,
                    "stride": stride,
                    "N_h": spec.out_height,
                    "N_w": spec.out_width,
                    "GFLOP": spec.flops / 1e9,
                }
            )
    return rows


def figure6_operators(*, batch: int = 1) -> Dict[str, ConvSpec]:
    """The three operators highlighted in Figure 6: Resnet9, Mobnet2, Yolo5."""
    return {
        "Resnet9": benchmark_by_name("R9", batch=batch),
        "Mobnet2": benchmark_by_name("M2", batch=batch),
        "Yolo5": benchmark_by_name("Y5", batch=batch),
    }


def scaled_benchmarks(
    specs: Iterable[ConvSpec],
    *,
    max_macs: float = 2.0e8,
    max_channels: Optional[int] = None,
) -> List[ConvSpec]:
    """Scale operators down so each stays below ``max_macs`` MACs.

    The slice-level simulator used in place of hardware counters is written
    in Python; full-size early Yolo layers (hundreds of millions of MACs)
    would make the validation experiments needlessly slow.  Channel counts
    are optionally capped at ``max_channels`` first (the late, channel-heavy
    layers), then the spatial extents are scaled; kernel size, stride and
    the relative channel structure — which drive the tiling trade-offs — are
    preserved.  Operators already below the threshold are returned unchanged
    (with their original name).
    """
    from dataclasses import replace

    scaled: List[ConvSpec] = []
    for spec in specs:
        candidate = spec
        if max_channels is not None and (
            candidate.out_channels > max_channels or candidate.in_channels > max_channels
        ):
            candidate = replace(
                candidate,
                out_channels=min(candidate.out_channels, max_channels),
                in_channels=min(candidate.in_channels, max_channels),
            )
        if candidate.macs > max_macs:
            factor = (max_macs / candidate.macs) ** 0.5
            candidate = candidate.scaled(factor, name_suffix="")
        scaled.append(candidate)
    return scaled


def uniformly_scaled(spec: ConvSpec, *, max_macs: float) -> ConvSpec:
    """Shrink an operator by one common factor on channels *and* spatial extents.

    Unlike :func:`scaled_benchmarks`, which preserves channel counts exactly,
    this scales ``K``, ``C``, ``H`` and ``W`` by the same factor so that the
    *character* of each layer (channel-heavy late layers vs. spatially-large
    early layers) is preserved while the total work drops below ``max_macs``.
    The model-validation experiments use it so that every operator remains a
    distinct problem after scaling.
    """
    from dataclasses import replace

    if spec.macs <= max_macs:
        return spec
    # MACs scale roughly with K * C * H * W, i.e. with factor^4.
    factor = (max_macs / spec.macs) ** 0.25
    min_spatial = spec.effective_kernel_h + spec.stride
    candidate = replace(
        spec,
        out_channels=max(8, int(round(spec.out_channels * factor))),
        in_channels=max(4, int(round(spec.in_channels * factor))),
        in_height=max(min_spatial, int(round(spec.in_height * factor))),
        in_width=max(min_spatial, int(round(spec.in_width * factor))),
    )
    if candidate.macs > max_macs:
        # Spatial extents hit their minimum (channel-heavy 7x7 layers); take
        # the remaining reduction out of the channel dimensions.
        channel_factor = (max_macs / candidate.macs) ** 0.5
        candidate = replace(
            candidate,
            out_channels=max(8, int(round(candidate.out_channels * channel_factor))),
            in_channels=max(4, int(round(candidate.in_channels * channel_factor))),
        )
    return candidate
