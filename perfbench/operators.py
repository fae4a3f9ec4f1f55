"""Seeded operator draws from the 32 Table 1 operators.

Solve time and answer quality differ several-fold between operators, so
a plain random draw of a dozen makes run-to-run figures depend more on
the seed than on the code.  The draws are therefore stratified: the 32
operators are split into 12 fixed strata of operators with similar cold
solve time and similar answer GFLOP/s (as measured, with one BLAS
thread, when the benchmark was defined), and a seed picks one operator
per stratum.  Operators that resemble no other form a stratum of their
own and are in every draw.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.core.tensor_spec import ConvSpec
from repro.workloads.benchmarks import benchmark_by_name

#: Strata in the order a closed loop visits them: slow and fast, good
#: and poor answers alternate, so every prefix is a balanced mix.
STRATA: Sequence[Sequence[str]] = (
    ("M4", "M5", "R4", "R8", "Y2", "Y8"),
    ("Y23",),
    ("M6", "Y12", "Y4"),
    ("R11",),
    ("M8", "R12", "Y0", "Y18"),
    ("R1", "R2", "Y13", "Y9"),
    ("M1", "M7", "R7", "R9"),
    ("R3", "R5"),
    ("M2", "M3", "R6"),
    ("Y5",),
    ("M9", "R10"),
    ("Y19",),
)


def rng_for(workload: str, seed: int) -> random.Random:
    """The workload's input generator for ``seed``."""
    return random.Random(f"{workload}:{seed}")


def stratified_draw(rng: random.Random, strata: Sequence[int] = tuple(range(len(STRATA)))) -> List[str]:
    """One operator name from each of the given strata, in stratum order."""
    return [rng.choice(STRATA[index]) for index in strata]


def specs(names: Sequence[str], *, batch: int = 1) -> List[ConvSpec]:
    return [benchmark_by_name(name, batch=batch) for name in names]

