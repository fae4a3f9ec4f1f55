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


_IMPORT_ALL = """
import json, sys
import repro, repro.api, repro.serving, repro.dse, repro.cli
loaded = sorted(m for m in ("sympy", "scipy.stats", "scipy.optimize") if m in sys.modules)
import scipy.optimize
from repro.core.solver import _slsqp_kernel
print(json.dumps({
    "loaded": loaded,
    "one_kernel": scipy.optimize._slsqp_py.slsqp is _slsqp_kernel,
}))
"""

#: What a cold ``mopt`` solve never runs, so never imports: asyncio, the
#: process pools and every subsystem beside the solve path.
_COLD_UNUSED = (
    "asyncio",
    "concurrent.futures.process",
    "multiprocessing",
    "repro.analysis",
    "repro.baselines",
    "repro.dse",
    "repro.experiments",
    "repro.obs.export",
    "repro.obs.heartbeat",
    "repro.obs.summary",
    "repro.obs.top",
    "repro.serving",
    "repro.sim",
)

_COLD_SOLVES = """
from repro.api import Session
from repro.core.cost_model import DEFAULT_COMPILE_CACHE
from repro.workloads.benchmarks import benchmark_by_name

def session():
    return Session("i7-9700k", "mopt", strategy_options={"measure": False})

for _ in range(3):
    DEFAULT_COMPILE_CACHE.clear()
    session().performance_stats()
for name in ("R3", "Y13"):
    DEFAULT_COMPILE_CACHE.clear()
    assert session().optimize(benchmark_by_name(name)).gflops > 0
"""

_LOADED = """
print(json.dumps(sorted(
    name for name in sys.modules
    if any(name == p or name.startswith(p + ".") for p in PREFIXES)
)))
"""


def _run_fresh(script: str):
    """Run ``script`` in a fresh interpreter; its last stdout line as JSON."""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _loaded_after(code: str, prefixes=_COLD_UNUSED):
    """Modules under ``prefixes`` that a fresh process has loaded after ``code``."""
    return _run_fresh(f"import json, sys\nPREFIXES = {tuple(prefixes)!r}\n{code}\n{_LOADED}")


def _import_all():
    return _run_fresh(_IMPORT_ALL)


class TestImportBudget:
    def test_import_loads_none_of_the_unused_libraries(self):
        """Importing the package and its entry points loads neither sympy
        nor scipy.stats nor the scipy.optimize package."""
        assert _import_all()["loaded"] == []

    def test_scipy_optimize_reuses_the_loaded_kernel(self):
        """A fresh process loads the kernel by file; a later
        ``import scipy.optimize`` runs on that same module object."""
        assert _import_all()["one_kernel"] is True

    def test_front_doors_load_only_the_solve_path(self):
        assert _loaded_after("import repro, repro.api, repro.cli") == []

    def test_serving_loads_no_search_subsystem(self):
        prefixes = ("repro.baselines", "repro.dse", "repro.sim")
        assert _loaded_after("import repro.serving", prefixes) == []

    def test_every_public_name_resolves_and_is_listed(self):
        names = _run_fresh(
            "import json, repro\n"
            "missing = [n for n in repro.__all__ if getattr(repro, n, None) is None]\n"
            "print(json.dumps([missing, sorted(set(repro.__all__) - set(dir(repro))),"
            " len(repro.__all__)]))"
        )
        assert names == [[], [], 55]

    def test_cold_solves_load_nothing_deferred(self):
        """Set-ups and cold solves as the cold-net benchmark runs them: the
        deferred modules load neither at import nor later on the path."""
        assert _loaded_after(_COLD_SOLVES) == []


class TestKernelLoad:
    def test_missing_extension_names_version_and_directory(self, monkeypatch, tmp_path):
        import scipy

        monkeypatch.delitem(sys.modules, solver_module._KERNEL_MODULE)
        with pytest.raises(ImportError) as raised:
            solver_module._load_slsqp_kernel(tmp_path)
        assert scipy.__version__ in str(raised.value)
        assert str(tmp_path) in str(raised.value)
        assert solver_module._KERNEL_MODULE not in sys.modules

    def test_module_without_callable_kernel_raises(self, monkeypatch, tmp_path):
        import types

        module = types.ModuleType(solver_module._KERNEL_MODULE)
        module.slsqp = None
        monkeypatch.setitem(sys.modules, solver_module._KERNEL_MODULE, module)
        with pytest.raises(ImportError, match="_slsqplib.slsqp"):
            solver_module._load_slsqp_kernel(tmp_path)

    def test_loaded_module_is_reused(self, tmp_path):
        assert solver_module._load_slsqp_kernel(tmp_path) is solver_module._slsqp_kernel
