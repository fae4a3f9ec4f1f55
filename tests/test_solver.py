"""Tests for the constrained nonlinear solver (repro.core.solver)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.core.solver as solver_module

from repro.core.capacity import max_feasible_uniform_tile
from repro.core.cost_model import combined_footprint, total_data_volume
from repro.core.config import TilingConfig
from repro.core.pruning import pruned_representatives
from repro.core.solver import (
    ConstrainedProblem,
    SolverOptions,
    minimize_constrained,
    pin_blas_threads,
    solve_best_single_level,
    solve_single_level,
    solver_stats,
)
from repro.core.tensor_spec import LOOP_INDICES

FAST = SolverOptions(multistarts=1, maxiter=60)


class TestGenericSolver:
    def test_unconstrained_quadratic(self):
        problem = ConstrainedProblem(
            objective=lambda x: float((x[0] - 3.0) ** 2 + (x[1] + 1.0) ** 2),
            inequalities=(),
            bounds=((-10.0, 10.0), (-10.0, 10.0)),
        )
        result = minimize_constrained(problem, FAST)
        assert result.feasible
        assert result.x[0] == pytest.approx(3.0, abs=1e-3)
        assert result.x[1] == pytest.approx(-1.0, abs=1e-3)

    def test_constraint_respected(self):
        # Minimize x + y subject to x*y >= 4, 1 <= x,y <= 10.
        problem = ConstrainedProblem(
            objective=lambda x: float(x[0] + x[1]),
            inequalities=(lambda x: float(x[0] * x[1] - 4.0),),
            bounds=((1.0, 10.0), (1.0, 10.0)),
        )
        result = minimize_constrained(problem, FAST)
        assert result.feasible
        assert result.x[0] * result.x[1] >= 4.0 - 1e-4
        assert result.value == pytest.approx(4.0, abs=1e-2)

    def test_vector_valued_constraints(self):
        problem = ConstrainedProblem(
            objective=lambda x: float(x[0] ** 2 + x[1] ** 2),
            inequalities=(lambda x: np.array([x[0] - 1.0, x[1] - 2.0]),),
            bounds=((0.0, 5.0), (0.0, 5.0)),
        )
        result = minimize_constrained(problem, FAST)
        assert result.feasible
        assert result.x[0] >= 1.0 - 1e-5 and result.x[1] >= 2.0 - 1e-5

    def test_bounds_clipping(self):
        problem = ConstrainedProblem(
            objective=lambda x: float(-x[0]),
            inequalities=(),
            bounds=((0.0, 2.0),),
        )
        result = minimize_constrained(problem, FAST)
        assert result.x[0] <= 2.0 + 1e-9
        assert result.value == pytest.approx(-2.0, abs=1e-6)

    def test_infeasible_problem_reports_infeasible(self):
        problem = ConstrainedProblem(
            objective=lambda x: float(x[0]),
            inequalities=(lambda x: float(x[0] - 100.0),),  # needs x >= 100
            bounds=((0.0, 1.0),),
        )
        result = minimize_constrained(problem, SolverOptions(multistarts=1, fallback_samples=30))
        assert not result.feasible

    def test_result_as_tiles(self):
        problem = ConstrainedProblem(
            objective=lambda x: float(np.sum(x)),
            inequalities=(),
            bounds=tuple((1.0, 4.0) for _ in LOOP_INDICES),
        )
        result = minimize_constrained(problem, FAST)
        tiles = result.as_tiles()
        assert set(tiles) == set(LOOP_INDICES)


class TestSingleLevelTileSolve:
    def test_solution_respects_capacity_and_bounds(self, small_spec):
        capacity = 1024.0
        config, volume = solve_single_level(
            small_spec, pruned_representatives()[0], capacity, options=FAST
        )
        footprint = combined_footprint(config.tiles)
        assert footprint <= capacity * 1.01
        for index in LOOP_INDICES:
            assert 1.0 - 1e-9 <= config.tiles[index] <= small_spec.loop_extents[index] + 1e-9
        assert volume == pytest.approx(total_data_volume(small_spec, config), rel=1e-6)

    def test_bigger_cache_never_hurts(self, small_spec):
        permutation = pruned_representatives()[0]
        _, small_cache = solve_single_level(small_spec, permutation, 512.0, options=FAST)
        _, large_cache = solve_single_level(small_spec, permutation, 8192.0, options=FAST)
        assert large_cache <= small_cache * 1.02

    def test_solver_beats_naive_unit_tiles(self, small_spec):
        permutation = pruned_representatives()[0]
        capacity = 2048.0
        _, solved = solve_single_level(small_spec, permutation, capacity, options=FAST)
        naive = total_data_volume(
            small_spec, TilingConfig(permutation, {i: 1.0 for i in LOOP_INDICES})
        )
        assert solved < naive

    def test_best_over_permutations(self, small_spec):
        config, volume = solve_best_single_level(
            small_spec, pruned_representatives()[:3], 2048.0, options=FAST
        )
        assert volume > 0
        assert config.permutation in pruned_representatives()[:3]


class TestStartingPoint:
    def test_max_feasible_uniform_tile_fits(self, small_spec):
        capacity = 900.0
        tiles = max_feasible_uniform_tile(small_spec, capacity)
        assert combined_footprint(tiles) <= capacity
        for index in LOOP_INDICES:
            assert tiles[index] >= 1.0

    def test_huge_capacity_returns_full_problem(self, small_spec):
        tiles = max_feasible_uniform_tile(small_spec, 1e12)
        for index in LOOP_INDICES:
            assert tiles[index] == small_spec.loop_extents[index]


# ----------------------------------------------------------------------
# scipy's OpenBLAS runs on one thread
# ----------------------------------------------------------------------
_SOLVE_R11 = """
import json
from repro.core.optimizer import MOptOptimizer, fast_settings
from repro.core.solver import solver_stats
from repro.machine.presets import coffee_lake_i7_9700k
from repro.workloads.benchmarks import benchmark_by_name
result = MOptOptimizer(coffee_lake_i7_9700k(), fast_settings(parallel=True)).optimize(
    benchmark_by_name("R11")
)
print(json.dumps({
    "answers": [
        [c.class_name, float(c.predicted_time_seconds).hex(),
         [[float(v).hex() for v in c.config.tiles(level).values()]
          for level in c.config.levels]]
        for c in result.candidates
    ],
    "pinned": solver_stats()["blas_threads_pinned"],
}))
"""


def _solve_r11(threads):
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", _SOLVE_R11],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


class TestBlasThreadPin:
    def test_unset_thread_count_gives_the_one_thread_answers(self):
        """With ``OPENBLAS_NUM_THREADS`` unset (so OpenBLAS would use every
        core) a solve pins scipy's BLAS to one thread and reproduces the
        ``OPENBLAS_NUM_THREADS=1`` answers bitwise."""
        unset = _solve_r11(None)
        one = _solve_r11("1")
        assert unset["pinned"] is True
        assert unset["answers"] == one["answers"]

    def test_missing_symbol_reports_false_without_raising(self, monkeypatch):
        monkeypatch.setitem(solver_module._BLAS_PIN, "pinned", None)
        monkeypatch.setattr(solver_module, "_scipy_openblas", lambda: object())
        assert pin_blas_threads() is False
        assert solver_stats()["blas_threads_pinned"] is False
        monkeypatch.setitem(solver_module._BLAS_PIN, "pinned", None)
        monkeypatch.setattr(solver_module, "_scipy_openblas", lambda: None)
        assert pin_blas_threads() is False

    def test_pin_is_decided_once(self, monkeypatch):
        pinned = pin_blas_threads()
        monkeypatch.setattr(solver_module, "_scipy_openblas", lambda: None)
        assert pin_blas_threads() is pinned
