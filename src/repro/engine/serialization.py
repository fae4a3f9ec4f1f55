"""Stable serialization and content hashing for engine cache keys.

The persistent result cache must key results by *what was asked for*:
the operator shape, the machine description, the strategy and its
settings.  Python's built-in ``hash`` is salted per process and
``repr`` is not guaranteed stable across versions, so this module
provides explicit ``*_to_dict`` / ``*_from_dict`` converters for the
frozen dataclasses involved and a canonical-JSON SHA-256
(:func:`stable_hash`) over the resulting plain structures.

Two conventions matter for correctness:

* :func:`spec_to_dict` can exclude the operator *name*
  (``include_name=False``).  Two layers of a network with identical
  shapes (and identical stride/dilation/padding/dtype) are the same
  optimization problem; hashing without the name is what lets the
  network optimizer and the cache deduplicate them.
* All floats are serialized through ``repr`` -> ``float`` round-trips
  implied by JSON, which is exact for IEEE-754 doubles, so keys are
  bit-stable across runs.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from typing import Any, Dict, Mapping, Optional

from ..core.config import MultiLevelConfig, TilingConfig
from ..core.optimizer import OptimizerSettings
from ..core.solver import SolverOptions
from ..core.tensor_spec import LOOP_INDICES, ConvSpec
from ..machine.spec import MachineSpec


def canonical_json(payload: Any) -> str:
    """Deterministic JSON rendering (sorted keys, no whitespace drift)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def stable_hash(payload: Any) -> str:
    """SHA-256 hex digest of the canonical JSON rendering of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# ConvSpec
# ----------------------------------------------------------------------
_SPEC_FIELDS = tuple(f.name for f in dataclasses.fields(ConvSpec))


def spec_to_dict(spec: ConvSpec, *, include_name: bool = True) -> Dict[str, Any]:
    """Plain-dict form of a :class:`ConvSpec` (JSON-able, order-stable).

    Equal to ``dataclasses.asdict(spec)``, which deep-copies every field
    the slow way; the fields are all ``int``/``str``, so reading them in
    declaration order builds the same dict.
    """
    payload = {name: getattr(spec, name) for name in _SPEC_FIELDS}
    if not include_name:
        del payload["name"]
    return payload


def spec_from_dict(payload: Mapping[str, Any]) -> ConvSpec:
    """Rebuild a :class:`ConvSpec` from :func:`spec_to_dict` output."""
    return ConvSpec(**dict(payload))


@functools.lru_cache(maxsize=4096)
def spec_shape_key(spec: ConvSpec) -> str:
    """Content hash of an operator's *shape* (name excluded).

    Layers with equal shape keys are interchangeable optimization
    problems; the network optimizer solves each distinct key once.
    Memoized per spec (:class:`ConvSpec` is frozen and hashes by value):
    the serving hot path recomputes shape keys for every layer of every
    request, and repeated requests for the same networks hit the memo.
    """
    return stable_hash(spec_to_dict(spec, include_name=False))


# ----------------------------------------------------------------------
# MachineSpec
# ----------------------------------------------------------------------
def machine_to_dict(machine: MachineSpec) -> Dict[str, Any]:
    """Plain-dict form of a :class:`MachineSpec`, including caches and ISA."""
    return dataclasses.asdict(machine)


def machine_key(machine: MachineSpec) -> str:
    """Content hash of a full machine description."""
    return stable_hash(machine_to_dict(machine))


# ----------------------------------------------------------------------
# OptimizerSettings
# ----------------------------------------------------------------------
def solver_options_to_dict(options: SolverOptions) -> Dict[str, Any]:
    """Plain-dict form of :class:`SolverOptions`."""
    return dataclasses.asdict(options)


def settings_to_dict(settings: OptimizerSettings) -> Dict[str, Any]:
    """Plain-dict form of :class:`OptimizerSettings` (solver included).

    ``class_workers`` is deliberately excluded: it only controls *where*
    the per-class solves run (process-pool fan-out), never *what* they
    compute — results are bitwise-identical at any worker count, so it
    must not perturb cache keys or recorded experiment settings.
    """
    payload = dataclasses.asdict(settings)
    payload.pop("class_workers", None)
    payload["levels"] = list(settings.levels)
    if settings.permutation_class_names is not None:
        payload["permutation_class_names"] = list(settings.permutation_class_names)
    return payload


def settings_from_dict(payload: Mapping[str, Any]) -> OptimizerSettings:
    """Rebuild :class:`OptimizerSettings` from :func:`settings_to_dict` output.

    Tolerates payloads recorded before (or after) execution-only fields
    like ``class_workers`` existed, or that still carry retired
    solve-path switches: unknown keys are dropped rather than crashing,
    and missing fields fall back to dataclass defaults.
    """
    data = dict(payload)
    data["levels"] = tuple(data["levels"])
    if data.get("permutation_class_names") is not None:
        data["permutation_class_names"] = tuple(data["permutation_class_names"])
    data["solver"] = SolverOptions(**data["solver"])
    known = {f.name for f in dataclasses.fields(OptimizerSettings)}
    return OptimizerSettings(**{k: v for k, v in data.items() if k in known})


# ----------------------------------------------------------------------
# Tiling configurations
# ----------------------------------------------------------------------
def config_to_dict(config: MultiLevelConfig) -> Dict[str, Any]:
    """Plain-dict form of a :class:`MultiLevelConfig`."""
    return {
        "levels": list(config.levels),
        "configs": [
            {
                "permutation": list(tiling.permutation),
                "tiles": {i: tiling.tiles[i] for i in LOOP_INDICES},
            }
            for tiling in config.configs
        ],
    }


def config_from_dict(payload: Mapping[str, Any]) -> MultiLevelConfig:
    """Rebuild a :class:`MultiLevelConfig` from :func:`config_to_dict` output."""
    return MultiLevelConfig(
        tuple(payload["levels"]),
        tuple(
            TilingConfig(tuple(entry["permutation"]), dict(entry["tiles"]))
            for entry in payload["configs"]
        ),
    )


def maybe_config_to_dict(config: Optional[MultiLevelConfig]) -> Optional[Dict[str, Any]]:
    """``config_to_dict`` that passes ``None`` through."""
    return None if config is None else config_to_dict(config)


def maybe_config_from_dict(
    payload: Optional[Mapping[str, Any]]
) -> Optional[MultiLevelConfig]:
    """``config_from_dict`` that passes ``None`` through."""
    return None if payload is None else config_from_dict(payload)
