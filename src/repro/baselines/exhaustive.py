"""Exhaustive permutation search — the ground truth the pruning is checked against.

Section 4's central claim is that the eight pruned permutation classes
contain a configuration as good as the best over all 5040 permutations.
This module provides the brute-force side of that comparison:

* :func:`best_over_all_permutations` optimizes tile sizes (with the same
  nonlinear solver MOpt uses) for *every* permutation, or for a caller-
  supplied subset, and returns the overall best modeled data volume,
* :func:`best_over_pruned_classes` does the same for only the eight
  representatives,
* :func:`verify_pruning` compares the two, optionally on a reduced
  permutation sample so the check stays fast enough for routine testing
  (the full 5040-permutation sweep is exposed for the dedicated benchmark).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.pruning import all_permutations, pruned_representatives
from ..core.solver import SolverOptions, solve_single_level
from ..core.tensor_spec import ConvSpec, LOOP_INDICES


@dataclass(frozen=True)
class PermutationSolution:
    """Best modeled data volume found for one permutation."""

    permutation: Tuple[str, ...]
    volume: float
    tiles: Tuple[float, ...]


@dataclass(frozen=True)
class PruningVerification:
    """Comparison of pruned-set optimum against (a sample of) the full space."""

    spec_name: str
    pruned_best: PermutationSolution
    exhaustive_best: PermutationSolution
    permutations_checked: int
    elapsed_seconds: float

    @property
    def pruning_is_sound(self) -> bool:
        """True when no checked permutation beats the pruned set (within 0.5%)."""
        return self.pruned_best.volume <= self.exhaustive_best.volume * 1.005


def _solve(
    spec: ConvSpec,
    permutation: Sequence[str],
    capacity_elements: float,
    options: Optional[SolverOptions],
) -> PermutationSolution:
    config, volume = solve_single_level(
        spec, permutation, capacity_elements, options=options
    )
    tiles = tuple(config.tiles[i] for i in LOOP_INDICES)
    return PermutationSolution(tuple(permutation), volume, tiles)


def best_over_pruned_classes(
    spec: ConvSpec,
    capacity_elements: float,
    *,
    options: Optional[SolverOptions] = None,
) -> PermutationSolution:
    """Best single-level solution across the eight pruned representatives."""
    best, _ = best_over_all_permutations(
        spec,
        capacity_elements,
        permutations=pruned_representatives(),
        options=options,
    )
    return best


def best_over_all_permutations(
    spec: ConvSpec,
    capacity_elements: float,
    *,
    permutations: Optional[Iterable[Sequence[str]]] = None,
    options: Optional[SolverOptions] = None,
) -> Tuple[PermutationSolution, int]:
    """Best single-level solution across an arbitrary set of permutations.

    ``permutations`` defaults to all 5040; pass a subset (e.g. a random
    sample) to bound the runtime.  Returns the best solution and the number
    of permutations examined.
    """
    candidates = (
        list(all_permutations()) if permutations is None else [tuple(p) for p in permutations]
    )
    solutions = [_solve(spec, p, capacity_elements, options) for p in candidates]
    # The first minimum wins ties, as in permutation order.
    return min(solutions, key=lambda solution: solution.volume), len(solutions)


def sample_permutations(count: int, *, seed: int = 0) -> List[Tuple[str, ...]]:
    """A deterministic random sample of distinct permutations."""
    rng = np.random.default_rng(seed)
    everything = list(all_permutations())
    indices = rng.choice(len(everything), size=min(count, len(everything)), replace=False)
    return [everything[int(i)] for i in indices]


def verify_pruning(
    spec: ConvSpec,
    capacity_elements: float,
    *,
    sample_size: Optional[int] = 120,
    seed: int = 0,
    options: Optional[SolverOptions] = None,
) -> PruningVerification:
    """Check that the pruned classes dominate a (sampled or full) permutation set.

    With ``sample_size=None`` every one of the 5040 permutations is
    optimized — this is the configuration used by the dedicated pruning
    benchmark; the default random sample keeps the check fast for tests.
    """
    start = time.perf_counter()
    solver_options = options or SolverOptions(multistarts=1, maxiter=60)
    pruned = best_over_pruned_classes(spec, capacity_elements, options=solver_options)
    if sample_size is None:
        permutations: Optional[List[Tuple[str, ...]]] = None
    else:
        permutations = sample_permutations(sample_size, seed=seed)
        # Always include the pruned representatives' strongest competitors:
        # permutations with n or c innermost (the cases Section 4 argues are
        # dominated).
        permutations.extend(
            [
                ("k", "r", "s", "h", "w", "c", "n"),
                ("k", "r", "s", "h", "w", "n", "c"),
                ("r", "s", "h", "w", "k", "n", "c"),
            ]
        )
    exhaustive, count = best_over_all_permutations(
        spec, capacity_elements, permutations=permutations, options=solver_options
    )
    return PruningVerification(
        spec_name=spec.name,
        pruned_best=pruned,
        exhaustive_best=exhaustive,
        permutations_checked=count,
        elapsed_seconds=time.perf_counter() - start,
    )
