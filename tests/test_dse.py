"""Tests for the design-space exploration subsystem (repro.dse).

Covers the declarative space grammar (axes, paths, pruning), the sweep
executor (engine-path reuse, shared cache, resumable progress), the
Pareto frontier (including a hypothesis property test: the frontier is
non-dominated by construction), sensitivity summaries, report emission
and the ``python -m repro dse`` CLI (``--smoke`` included).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.cli import main as cli_main
from repro.dse import (
    DesignSpace,
    DesignSpaceError,
    EmptyDesignSpaceError,
    CandidateOutcome,
    ProgressMismatchError,
    WorkloadOutcome,
    apply_axis,
    axis_grid,
    axis_log2,
    axis_sensitivity,
    axis_values,
    dominates,
    explore,
    pareto_frontier,
    sensitivity_summary,
    to_csv,
    to_json_dict,
    to_markdown,
    write_csv,
    write_json,
    write_markdown,
)
from repro.engine.cache import ResultCache
from repro.machine.presets import get_machine, tiny_test_machine
from repro.machine.spec import MachineSpecError

KiB = 1024
MiB = 1024 * KiB

#: A one-layer workload that keeps every sweep in this file fast.
WORKLOAD = "resnet18/R12"


def _tiny_space(**kwargs):
    return DesignSpace(
        "tiny",
        [
            axis_values("caches.L2.capacity_bytes", [32 * KiB, 64 * KiB]),
            axis_values("cores", [2, 4]),
        ],
        **kwargs,
    )


def _explore(space=None, workloads=(WORKLOAD,), **kwargs):
    kwargs.setdefault("strategy", "onednn")
    kwargs.setdefault("strategy_options", {"threads": 2})
    return explore(space or _tiny_space(), workloads, **kwargs)


# ----------------------------------------------------------------------
# Axes and paths
# ----------------------------------------------------------------------
class TestAxes:
    def test_axis_values(self):
        axis = axis_values("cores", [2, 4, 8])
        assert axis.values == (2, 4, 8)

    def test_axis_log2(self):
        axis = axis_log2("caches.L2.capacity_bytes", 32 * KiB, 256 * KiB)
        assert axis.values == (32 * KiB, 64 * KiB, 128 * KiB, 256 * KiB)

    def test_axis_grid_integral(self):
        axis = axis_grid("cores", 2, 8, 2)
        assert axis.values == (2, 4, 6, 8)
        assert all(isinstance(v, int) for v in axis.values)

    def test_axis_grid_float(self):
        axis = axis_grid("frequency_ghz", 2.0, 3.0, 0.5)
        assert axis.values == (2.0, 2.5, 3.0)

    def test_unknown_path_rejected(self):
        with pytest.raises(DesignSpaceError, match="valid forms"):
            axis_values("caches.L2.capacity", [1])
        with pytest.raises(DesignSpaceError):
            axis_values("sockets", [1])
        with pytest.raises(DesignSpaceError):
            axis_values("isa.width", [32])

    def test_axis_log2_fractional_start(self):
        # Must terminate and keep the requested values (no int truncation).
        axis = axis_log2("frequency_ghz", 0.5, 4)
        assert axis.values == (0.5, 1, 2, 4)
        assert axis_log2("frequency_ghz", 1.5, 6).values == (1.5, 3.0, 6.0)

    def test_non_numeric_bounds_rejected(self):
        with pytest.raises(DesignSpaceError, match="must be numeric"):
            axis_log2("cores", "a", "b")
        with pytest.raises(DesignSpaceError, match="must be numeric"):
            axis_grid("cores", 1, "b", 1)

    def test_degenerate_axes_rejected(self):
        with pytest.raises(DesignSpaceError, match="no values"):
            axis_values("cores", [])
        with pytest.raises(DesignSpaceError, match="duplicate"):
            axis_values("cores", [4, 4])
        with pytest.raises(DesignSpaceError, match="step"):
            axis_grid("cores", 2, 8, 0)
        with pytest.raises(DesignSpaceError, match="below start"):
            axis_log2("cores", 8, 4)

    def test_label_renders_bytes(self):
        axis = axis_values("caches.L2.capacity_bytes", [512 * KiB])
        assert axis.label(512 * KiB) == "L2.cap=512KiB"


class TestApplyAxis:
    def test_scalar_cache_and_isa_paths(self, i7_machine):
        assert apply_axis(i7_machine, "cores", 4).cores == 4
        derived = apply_axis(i7_machine, "caches.L2.capacity_bytes", 512 * KiB)
        assert derived.cache("L2").capacity_bytes == 512 * KiB
        assert derived.cache("L1") == i7_machine.cache("L1")
        assert apply_axis(i7_machine, "isa.vector_bytes", 64).isa.vector_bytes == 64

    def test_unknown_cache_level(self, i7_machine):
        with pytest.raises(DesignSpaceError, match="no cache level"):
            apply_axis(i7_machine, "caches.L4.capacity_bytes", 1 * MiB)

    def test_invalid_value_raises_machine_error(self, i7_machine):
        # L2 below L1 violates the hierarchy invariant.
        with pytest.raises(MachineSpecError):
            apply_axis(i7_machine, "caches.L2.capacity_bytes", 16 * KiB)


# ----------------------------------------------------------------------
# DesignSpace expansion
# ----------------------------------------------------------------------
class TestDesignSpace:
    def test_grid_size_and_expand(self):
        space = _tiny_space()
        assert space.grid_size == 4
        expanded = space.expand()
        assert len(expanded) == 4
        assert expanded.invalid_machines == 0

    def test_invalid_candidates_pruned(self):
        # tiny has L1=4KiB; an L2 value below that is invalid and pruned.
        space = DesignSpace(
            "tiny",
            [axis_values("caches.L2.capacity_bytes", [2 * KiB, 32 * KiB])],
        )
        expanded = space.expand()
        assert expanded.grid_size == 2
        assert len(expanded) == 1
        assert expanded.invalid_machines == 1
        assert "pruned 1 invalid" in expanded.summary()

    def test_constraints_prune(self):
        space = DesignSpace(
            "tiny",
            [axis_values("cores", [2, 4, 8])],
            constraints=[lambda m: m.cores <= 4],
        )
        expanded = space.expand()
        assert [c.parameter("cores") for c in expanded] == [2, 4]
        assert expanded.constraint_rejected == 1

    def test_empty_space_raises_helpfully(self):
        space = DesignSpace(
            "tiny",
            [axis_values("cores", [2, 4])],
            constraints=[lambda m: False],
        )
        with pytest.raises(EmptyDesignSpaceError) as excinfo:
            space.expand()
        message = str(excinfo.value)
        assert "all 2 grid points were pruned" in message
        assert "2 rejected by constraints" in message

    def test_duplicate_axis_paths_rejected(self):
        with pytest.raises(DesignSpaceError, match="duplicate axis paths"):
            DesignSpace(
                "tiny",
                [axis_values("cores", [2]), axis_values("cores", [4])],
            )

    def test_no_axes_rejected(self):
        with pytest.raises(DesignSpaceError, match="at least one axis"):
            DesignSpace("tiny", [])

    def test_candidate_names_deterministic_and_distinct(self):
        first = [c.name for c in _tiny_space().expand()]
        second = [c.name for c in _tiny_space().expand()]
        assert first == second
        assert len(set(first)) == len(first)
        assert first[0].startswith("tiny-test[")

    def test_base_by_object(self):
        space = DesignSpace(tiny_test_machine(), [axis_values("cores", [2])])
        assert space.base_machine.name == "tiny-test"
        assert space.space_name == "tiny-test-space"

    def test_describe(self):
        text = _tiny_space(name="probe").describe()
        assert "probe" in text and "grid size: 4" in text


# ----------------------------------------------------------------------
# Sweep executor
# ----------------------------------------------------------------------
class TestExplore:
    def test_basic_sweep(self):
        result = _explore()
        assert result.num_candidates == 4
        assert result.evaluated == 4 and result.resumed == 0
        assert result.workload_labels == (WORKLOAD,)
        names = [o.machine_name for o in result.outcomes]
        assert names == [c.name for c in _tiny_space().expand()]
        for outcome in result.outcomes:
            assert outcome.total_time_seconds > 0
            assert outcome.total_sram_bytes > 0
            assert outcome.workload(WORKLOAD).num_operators == 1
        assert result.machines_per_second > 0

    def test_network_workload_counts_layers(self):
        space = DesignSpace("tiny", [axis_values("cores", [2, 4])])
        result = _explore(space, workloads=("mobilenet",))
        assert result.outcomes[0].workload("mobilenet").num_operators == 9

    def test_shared_cache_reused_across_candidates_and_runs(self):
        cache = ResultCache(memory_entries=1024)
        space = DesignSpace("tiny", [axis_values("cores", [2, 4])])
        # Distinct machines never share keys (the machine is hashed into
        # the key), so the cold sweep has no hits...
        cold = _explore(space, cache=cache)
        assert all(o.cache_hits == 0 for o in cold.outcomes)
        computes = cache.stats.computes + cache.stats.stores
        # ...but a second sweep over the same cache is all hits.
        warm = _explore(space, cache=cache)
        assert all(o.cache_hits > 0 for o in warm.outcomes)
        assert cache.stats.computes + cache.stats.stores == computes

    def test_progress_resume_full(self, tmp_path):
        progress = tmp_path / "sweep.jsonl"
        first = _explore(progress=progress)
        assert first.evaluated == 4
        second = _explore(progress=progress)
        assert second.resumed == 4 and second.evaluated == 0
        assert [o.to_dict() for o in second.outcomes] == [
            o.to_dict() for o in first.outcomes
        ]

    def test_progress_resume_partial(self, tmp_path):
        progress = tmp_path / "sweep.jsonl"
        # Interrupt-at-machine-N simulation: sweep a sub-space first.
        sub = DesignSpace(
            "tiny",
            [
                axis_values("caches.L2.capacity_bytes", [32 * KiB]),
                axis_values("cores", [2, 4]),
            ],
        )
        _explore(sub, progress=progress)
        result = _explore(progress=progress)
        assert result.resumed == 2 and result.evaluated == 2
        assert result.num_candidates == 4

    def test_progress_mismatch_rejected(self, tmp_path):
        progress = tmp_path / "sweep.jsonl"
        _explore(progress=progress)
        with pytest.raises(ProgressMismatchError, match="different sweep"):
            _explore(workloads=("mobilenet/M9",), progress=progress)
        with pytest.raises(ProgressMismatchError):
            _explore(strategy="random", strategy_options={"trials": 4},
                     progress=progress)

    def test_torn_progress_line_tolerated(self, tmp_path):
        progress = tmp_path / "sweep.jsonl"
        sub = DesignSpace(
            "tiny",
            [
                axis_values("caches.L2.capacity_bytes", [32 * KiB]),
                axis_values("cores", [2]),
            ],
        )
        _explore(sub, progress=progress)
        with progress.open("a", encoding="utf-8") as handle:
            handle.write('{"machine_name": "torn')  # crash mid-append
        result = _explore(progress=progress)
        assert result.resumed == 1 and result.evaluated == 3

    def test_bare_string_workload_accepted(self):
        # The Session.optimize calling convention: one workload, not a
        # sequence to iterate character-by-character.
        space = DesignSpace("tiny", [axis_values("cores", [2])])
        bare = _explore(space, workloads=WORKLOAD)
        listed = _explore(space, workloads=(WORKLOAD,))
        assert bare.workload_labels == (WORKLOAD,)
        assert (
            bare.outcomes[0].total_time_seconds
            == listed.outcomes[0].total_time_seconds
        )

    def test_core_sweep_with_fixed_threads_is_monotone(self):
        # A fixed threads=8 strategy option must not credit a 4-core
        # candidate with 8 cores' compute: fewer cores is never faster.
        space = DesignSpace("i7-9700k", [axis_values("cores", [2, 4, 8])])
        result = _explore(
            space,
            workloads=("resnet18/R1",),
            strategy_options={"threads": 8},
        )
        times = [o.total_time_seconds for o in result.outcomes]
        assert times[0] > times[1] > times[2]

    def test_spec_list_workloads_get_distinct_labels(self):
        from repro.api.spec import parse

        specs = parse("resnet18")
        space = DesignSpace("tiny", [axis_values("cores", [2])])
        result = _explore(space, workloads=(specs[11:], specs[2:3]))
        assert result.workload_labels == ("custom[1]", "custom[1]#2")
        outcome = result.outcomes[0]
        assert outcome.workload("custom[1]").num_operators == 1
        assert (
            outcome.workload("custom[1]").time_seconds
            != outcome.workload("custom[1]#2").time_seconds
        )

    def test_wrongly_typed_axis_value_is_a_space_error(self):
        space = DesignSpace("tiny", [axis_values("cores", ["eight"])])
        with pytest.raises(DesignSpaceError, match="not valid for this"):
            space.expand()

    def test_shared_cache_memory_tier_grows_for_sweeps(self):
        # An implicitly-sized cache (the Session default) grows to the
        # sweep bound so warm re-runs stay in the memory tier...
        cache = ResultCache()
        _explore(cache=cache)
        assert cache.memory_entries >= 4096
        # ...but an explicitly-sized one is a caller contract: pinned.
        pinned = ResultCache(memory_entries=16)
        _explore(cache=pinned)
        assert pinned.memory_entries == 16
        big = ResultCache(memory_entries=100_000)
        _explore(cache=big)
        assert big.memory_entries == 100_000

    def test_progress_store_bound_to_strategy_version(self, tmp_path, monkeypatch):
        # Resumed outcomes bypass the versioned result cache, so a
        # numerics bump must invalidate the store too.
        import repro.engine.cache as engine_cache

        progress = tmp_path / "sweep.jsonl"
        _explore(progress=progress)
        monkeypatch.setattr(
            engine_cache, "STRATEGY_VERSION", engine_cache.STRATEGY_VERSION + 1
        )
        with pytest.raises(ProgressMismatchError, match="strategy_version"):
            _explore(progress=progress)

    def test_failures_isolated_per_candidate(self, monkeypatch):
        # A raising candidate becomes a recorded ``failed`` outcome;
        # the rest of the sweep still runs (and analyses skip it).
        import repro.dse.explorer as explorer_mod

        calls = []

        def failing(candidate, *args, **kwargs):
            calls.append(candidate.name)
            raise RuntimeError("boom")

        monkeypatch.setattr(explorer_mod, "_evaluate_candidate", failing)
        space = DesignSpace("tiny", [axis_values("cores", [2, 4, 8])])
        result = _explore(space)
        assert len(calls) == 3
        assert result.failures == 3
        assert all(o.failed and "boom" in o.error for o in result.outcomes)
        assert result.frontier() == []
        with pytest.raises(ValueError, match="all 3 candidates failed"):
            result.best()

    def test_max_failures_cancels_queued_candidates(self, monkeypatch):
        # Past the abort threshold the sweep stops: the first failure
        # aborts it before the next candidate runs.
        import repro.dse.explorer as explorer_mod
        from repro.dse import TooManyFailuresError

        calls = []

        def failing(candidate, *args, **kwargs):
            calls.append(candidate.name)
            raise RuntimeError("boom")

        monkeypatch.setattr(explorer_mod, "_evaluate_candidate", failing)
        space = DesignSpace("tiny", [axis_values("cores", [2, 4, 8])])
        with pytest.raises(TooManyFailuresError, match="boom"):
            _explore(space, max_failures=0)
        assert len(calls) == 1

    def test_one_shot_iterable_workload_not_exhausted(self):
        from repro.api.spec import parse

        specs = parse("resnet18")[:2]
        space = DesignSpace("tiny", [axis_values("cores", [2, 4])])
        result = _explore(space, workloads=[iter(specs)])
        assert result.workload_labels == ("custom[2]",)
        for outcome in result.outcomes:
            assert outcome.workload("custom[2]").num_operators == 2
            assert outcome.total_time_seconds > 0

    def test_rejects_empty_workloads_and_conflicting_options(self):
        with pytest.raises(ValueError, match="at least one"):
            _explore(workloads=())
        with pytest.raises(ValueError, match="non-empty"):
            _explore(workloads=[[]])
        from repro.engine.strategy import get_strategy

        with pytest.raises(ValueError, match="by-name"):
            explore(
                _tiny_space(),
                [WORKLOAD],
                strategy=get_strategy("onednn", threads=2),
                strategy_options={"threads": 4},
            )


class TestSessionExplore:
    def test_axes_use_session_machine_and_cache(self):
        session = Session("tiny", "onednn", strategy_options={"threads": 2})
        result = session.explore(
            [axis_values("cores", [2, 4])], [WORKLOAD]
        )
        assert result.space.base_machine.name == "tiny-test"
        assert result.num_candidates == 2
        # The session's cache is the sweep's cache: a second explore is warm.
        warm = session.explore([axis_values("cores", [2, 4])], [WORKLOAD])
        assert all(o.cache_hits > 0 for o in warm.outcomes)

    def test_design_space_passthrough(self):
        session = Session("i7-9700k", "onednn", strategy_options={"threads": 2})
        result = session.explore(_tiny_space(), [WORKLOAD])
        assert result.space.base_machine.name == "tiny-test"


# ----------------------------------------------------------------------
# Frontier and sensitivity
# ----------------------------------------------------------------------
def _outcome(name, time_s, sram, lanes=8, parameters=()):
    return CandidateOutcome(
        machine_name=name,
        machine_digest=name,
        parameters=tuple(parameters),
        workloads=(WorkloadOutcome("w", time_s, 1.0, 1, 0),),
        total_time_seconds=time_s,
        total_sram_bytes=sram,
        compute_lanes=lanes,
        peak_gflops=1.0,
        cores=4,
        cache_hits=0,
        wall_seconds=0.0,
    )


class TestFrontier:
    def test_known_frontier(self):
        outcomes = [
            _outcome("fast-big", 1.0, 100),
            _outcome("slow-small", 2.0, 10),
            _outcome("dominated", 2.0, 100),
            _outcome("worst", 3.0, 200),
        ]
        frontier = pareto_frontier(outcomes)
        assert [o.machine_name for o in frontier] == ["fast-big", "slow-small"]

    def test_duplicate_vectors_kept_once(self):
        outcomes = [_outcome("a", 1.0, 10), _outcome("b", 1.0, 10)]
        frontier = pareto_frontier(outcomes)
        assert [o.machine_name for o in frontier] == ["a"]

    def test_dominates(self):
        a, b = _outcome("a", 1.0, 10), _outcome("b", 2.0, 10)
        objectives = ("total_time_seconds", "total_sram_bytes")
        assert dominates(a, b, objectives)
        assert not dominates(b, a, objectives)
        assert not dominates(a, a, objectives)

    def test_unknown_objective(self):
        with pytest.raises(KeyError, match="unknown objective"):
            pareto_frontier(
                [_outcome("a", 1.0, 10)],
                objectives=("total_time_seconds", "price_usd"),
            )

    def test_single_objective_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            pareto_frontier(
                [_outcome("a", 1.0, 10)], objectives=("total_time_seconds",)
            )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=20),
                st.integers(min_value=1, max_value=20),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_frontier_non_dominated_by_construction(self, points):
        """The acceptance property: no frontier member is dominated, and
        everything off the frontier is dominated by (or ties) a member."""
        outcomes = [
            _outcome(f"m{i}", float(t), s) for i, (t, s) in enumerate(points)
        ]
        objectives = ("total_time_seconds", "total_sram_bytes")
        frontier = pareto_frontier(outcomes, objectives=objectives)
        assert frontier
        vectors = {
            (o.total_time_seconds, o.total_sram_bytes) for o in frontier
        }
        for member in frontier:
            assert not any(
                dominates(other, member, objectives) for other in outcomes
            )
        for outcome in outcomes:
            vector = (outcome.total_time_seconds, outcome.total_sram_bytes)
            assert vector in vectors or any(
                dominates(member, outcome, objectives) for member in frontier
            )

    def test_axis_sensitivity_marginalizes(self):
        outcomes = [
            _outcome("a", 4.0, 1, parameters=[("cores", 2)]),
            _outcome("b", 3.0, 1, parameters=[("cores", 2)]),
            _outcome("c", 2.0, 1, parameters=[("cores", 4)]),
        ]
        assert axis_sensitivity(outcomes, "cores") == [(2, 3.0), (4, 2.0)]

    def test_sensitivity_summary_saturation(self):
        outcomes = [
            _outcome("a", 10.0, 1, parameters=[("cores", 1)]),
            _outcome("b", 5.0, 1, parameters=[("cores", 2)]),
            _outcome("c", 4.99, 1, parameters=[("cores", 4)]),
        ]
        lines = sensitivity_summary(outcomes, ["cores"], threshold=0.02)
        assert lines == ["cores past 2 buys <2% predicted time"]

    def test_sensitivity_summary_unsaturated(self):
        outcomes = [
            _outcome("a", 10.0, 1, parameters=[("cores", 1)]),
            _outcome("b", 5.0, 1, parameters=[("cores", 2)]),
        ]
        (line,) = sensitivity_summary(outcomes, ["cores"], threshold=0.02)
        assert "does not saturate" in line


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
class TestReports:
    @pytest.fixture(scope="class")
    def result(self):
        return _explore()

    def test_json_dict(self, result):
        payload = to_json_dict(result)
        assert payload["num_candidates"] == 4
        assert len(payload["candidates"]) == 4
        frontier_names = {o["machine_name"] for o in payload["frontier"]}
        flagged = {
            c["machine_name"]
            for c in payload["candidates"]
            if c["on_frontier"]
        }
        assert frontier_names == flagged
        json.dumps(payload)  # JSON-able end to end

    def test_csv(self, result):
        text = to_csv(result)
        lines = text.strip().splitlines()
        assert len(lines) == 1 + 4
        header = lines[0].split(",")
        assert "caches.L2.capacity_bytes" in header
        assert "on_frontier" in header
        assert f"time_s[{WORKLOAD}]" in header

    def test_markdown(self, result):
        text = to_markdown(result)
        assert "## Pareto frontier" in text
        assert "## Sensitivity" in text
        assert result.best().machine_name in text

    def test_writers(self, result, tmp_path):
        paths = [
            write_json(result, tmp_path / "r.json"),
            write_csv(result, tmp_path / "r.csv"),
            write_markdown(result, tmp_path / "r.md"),
        ]
        for path in paths:
            assert path.exists() and path.stat().st_size > 0
        json.loads((tmp_path / "r.json").read_text())

    def test_candidate_outcome_round_trip(self, result):
        for outcome in result.outcomes:
            assert CandidateOutcome.from_dict(outcome.to_dict()) == outcome


# ----------------------------------------------------------------------
# Experiment (quick configuration)
# ----------------------------------------------------------------------
class TestExperiment:
    def test_quick_run_cold_then_warm(self, tmp_path):
        from repro.experiments.dse_cache_hierarchy import (
            run_dse_cache_hierarchy,
        )

        outcome = run_dse_cache_hierarchy(
            out_dir=tmp_path, quick=True, strategy_options={"threads": 2}
        )
        assert outcome.result.num_candidates == 12
        assert outcome.restart_speedup > 1.0
        for path in outcome.report_paths:
            assert path.exists()
        assert "Pareto frontier" in outcome.text


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_dse_smoke(self, capsys):
        assert cli_main(["dse", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "dse-smoke" in out

    def test_dse_explicit_axes_json(self, capsys, tmp_path):
        code = cli_main(
            [
                "dse",
                "--machine", "tiny",
                "--networks", WORKLOAD,
                "--axis", "cores=2,4",
                "--axis", "caches.L2.capacity_bytes=32KiB,64KiB",
                "--threads", "2",
                "--out", str(tmp_path / "dse.json"),
                "--csv", str(tmp_path / "dse.csv"),
                "--md", str(tmp_path / "dse.md"),
                "--json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{") : out.rindex("}") + 1])
        assert payload["num_candidates"] == 4
        assert payload["axes"][0] == {"path": "cores", "values": [2, 4]}
        for name in ("dse.json", "dse.csv", "dse.md"):
            assert (tmp_path / name).exists()

    def test_dse_log2_axis_and_progress(self, capsys, tmp_path):
        args = [
            "dse",
            "--machine", "tiny",
            "--networks", WORKLOAD,
            "--log2", "caches.L2.capacity_bytes=32KiB:64KiB",
            "--threads", "2",
            "--progress", str(tmp_path / "sweep.jsonl"),
            "--json",
        ]
        assert cli_main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["evaluated"] == 2
        assert cli_main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["resumed"] == 2 and second["evaluated"] == 0

    def test_dse_requires_axes(self, capsys):
        assert cli_main(["dse", "--machine", "tiny"]) == 2
        assert "at least one axis" in capsys.readouterr().err

    def test_dse_bad_axis_spec(self, capsys):
        assert cli_main(["dse", "--machine", "tiny", "--axis", "cores"]) == 2
        assert "--axis" in capsys.readouterr().err

    def test_dse_wrongly_typed_axis_value(self, capsys):
        code = cli_main(
            ["dse", "--machine", "tiny", "--axis", "cores=4,eight"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'eight'" in err

    def test_dse_non_numeric_range_bounds(self, capsys):
        assert cli_main(["dse", "--machine", "tiny", "--grid", "cores=a:b:c"]) == 2
        assert "must be numeric" in capsys.readouterr().err
        assert cli_main(["dse", "--machine", "tiny", "--log2", "cores=a:b"]) == 2
        assert "must be numeric" in capsys.readouterr().err

    def test_dse_progress_mismatch_friendly(self, capsys, tmp_path):
        progress = str(tmp_path / "sweep.jsonl")
        base = ["dse", "--machine", "tiny", "--threads", "2",
                "--axis", "cores=2", "--progress", progress]
        assert cli_main(base + ["--networks", WORKLOAD]) == 0
        capsys.readouterr()
        assert cli_main(base + ["--networks", "mobilenet/M9"]) == 2
        assert "different sweep" in capsys.readouterr().err

    def test_warm_all_machines(self, capsys):
        code = cli_main(
            [
                "warm", "--dry-run",
                "--machine", "all",
                "--networks", "resnet18",
                "--strategy", "onednn",
                "--json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{") : out.rindex("}") + 1])
        from repro.machine.presets import available_machines

        assert set(payload["machines"]) == set(available_machines())

    def test_warm_machine_list(self, capsys):
        code = cli_main(
            [
                "warm", "--dry-run",
                "--machine", "tiny", "i7-9700k",
                "--networks", "resnet18",
                "--strategy", "onednn",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[tiny]" in out and "[i7-9700k]" in out
