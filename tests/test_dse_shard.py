"""Tests for distributed (sharded) sweeps and their reassembly.

Covers the deterministic ``i/n`` candidate partition (including a
hypothesis property test: every partition covers each candidate exactly
once), the sharded ``explore``/progress-store binding, merge of shard
stores deduplicated by machine digest with deterministic precedence,
the reworked ``SweepProgress`` (single append handle, durability knob,
streamed load) and the ``python -m repro dse merge`` CLI.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.dse import (
    CandidateOutcome,
    DesignSpace,
    ProgressMismatchError,
    SweepProgress,
    axis_values,
    explore,
    merge_progress_stores,
    parse_shard,
    read_progress_store,
    shard_candidates,
)

KiB = 1024

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


def _outcome(digest: str, *, time_seconds: float = 1.0, failed: bool = False):
    return CandidateOutcome(
        machine_name=f"machine-{digest}",
        machine_digest=digest,
        parameters=(("cores", 4),),
        workloads=(),
        total_time_seconds=float("inf") if failed else time_seconds,
        total_sram_bytes=1024,
        compute_lanes=4,
        peak_gflops=10.0,
        cores=4,
        cache_hits=0,
        wall_seconds=0.1,
        status="failed" if failed else "ok",
        error="boom" if failed else None,
    )


_HEADER = {"kind": "header", "version": 1, "space": "s", "batch": 1}


def _write_store(path, outcomes, header=None):
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(header or dict(_HEADER), sort_keys=True) + "\n")
        for outcome in outcomes:
            handle.write(json.dumps(outcome.to_dict(), sort_keys=True) + "\n")


class TestShardPartition:
    @settings(max_examples=60, deadline=None)
    @given(
        total=st.integers(min_value=0, max_value=50),
        count=st.integers(min_value=1, max_value=12),
    )
    def test_any_partition_covers_each_candidate_exactly_once(
        self, total, count
    ):
        items = list(range(total))
        shards = [
            shard_candidates(items, index, count)
            for index in range(1, count + 1)
        ]
        rejoined = [item for shard in shards for item in shard]
        # Disjoint and complete: every candidate lands in exactly one shard.
        assert sorted(rejoined) == items
        assert len(rejoined) == len(items)
        # Round-robin balance: shard sizes differ by at most one.
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_partition_is_deterministic(self):
        items = ["a", "b", "c", "d", "e"]
        assert shard_candidates(items, 1, 2) == ["a", "c", "e"]
        assert shard_candidates(items, 2, 2) == ["b", "d"]

    def test_parse_shard(self):
        assert parse_shard("1/4") == (1, 4)
        assert parse_shard(" 3/3 ") == (3, 3)
        for bad in ("0/4", "5/4", "a/b", "3", "1/0", "-1/2"):
            with pytest.raises(ValueError):
                parse_shard(bad)


class TestShardedExplore:
    def test_shards_cover_the_space_and_merge_matches_unsharded(self, tmp_path):
        space = _tiny_space()
        full = explore(space, WORKLOAD)
        parts = [
            explore(
                space,
                WORKLOAD,
                shard=f"{index}/2",
                progress=tmp_path / f"shard{index}.jsonl",
            )
            for index in (1, 2)
        ]
        assert [p.shard for p in parts] == ["1/2", "2/2"]
        assert sum(p.num_candidates for p in parts) == full.num_candidates
        report = merge_progress_stores(
            tmp_path / "merged.jsonl",
            [tmp_path / "shard1.jsonl", tmp_path / "shard2.jsonl"],
        )
        assert report.merged == full.num_candidates
        assert report.duplicates == 0 and report.failed == 0
        # Result-identical to the unsharded sweep: same digests, same
        # predicted figures.
        _, merged_outcomes = read_progress_store(tmp_path / "merged.jsonl")
        by_digest = {o.machine_digest: o for o in merged_outcomes}
        assert set(by_digest) == {o.machine_digest for o in full.outcomes}
        for outcome in full.outcomes:
            twin = by_digest[outcome.machine_digest]
            assert twin.total_time_seconds == outcome.total_time_seconds
            assert twin.status == outcome.status

    def test_merged_store_resumes_the_unsharded_sweep(self, tmp_path):
        space = _tiny_space()
        for index in (1, 2):
            explore(
                space,
                WORKLOAD,
                shard=f"{index}/2",
                progress=tmp_path / f"shard{index}.jsonl",
            )
        merge_progress_stores(
            tmp_path / "merged.jsonl",
            [tmp_path / "shard1.jsonl", tmp_path / "shard2.jsonl"],
        )
        resumed = explore(space, WORKLOAD, progress=tmp_path / "merged.jsonl")
        assert resumed.resumed == resumed.num_candidates
        assert resumed.evaluated == 0

    def test_shard_header_binds_the_store(self, tmp_path):
        space = _tiny_space()
        explore(
            space, WORKLOAD, shard="1/2", progress=tmp_path / "p.jsonl"
        )
        # The same store cannot be resumed as a different shard (or the
        # full sweep): candidates would silently go missing.
        with pytest.raises(ProgressMismatchError, match="shard"):
            explore(space, WORKLOAD, shard="2/2", progress=tmp_path / "p.jsonl")
        with pytest.raises(ProgressMismatchError, match="shard"):
            explore(space, WORKLOAD, progress=tmp_path / "p.jsonl")

    def test_shard_resume_is_warm(self, tmp_path):
        space = _tiny_space()
        first = explore(
            space, WORKLOAD, shard="1/2", progress=tmp_path / "p.jsonl"
        )
        again = explore(
            space, WORKLOAD, shard="1/2", progress=tmp_path / "p.jsonl"
        )
        assert again.resumed == first.num_candidates
        assert again.evaluated == 0

    def test_malformed_shard_rejected(self):
        with pytest.raises(ValueError):
            explore(_tiny_space(), WORKLOAD, shard="3/2")


class TestMergePrecedence:
    def test_duplicates_dedupe_by_digest_first_source_wins(self, tmp_path):
        _write_store(
            tmp_path / "a.jsonl",
            [_outcome("x", time_seconds=1.0), _outcome("a-only")],
        )
        _write_store(
            tmp_path / "b.jsonl",
            [_outcome("x", time_seconds=2.0), _outcome("b-only")],
        )
        report = merge_progress_stores(
            tmp_path / "m.jsonl", [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        )
        assert report.merged == 3 and report.duplicates == 1
        _, outcomes = read_progress_store(tmp_path / "m.jsonl")
        by_digest = {o.machine_digest: o for o in outcomes}
        assert by_digest["x"].total_time_seconds == 1.0  # first source won
        # Reversing the source order flips the winner — precedence is
        # deterministic in the listing, not in file mtimes or hashes.
        report = merge_progress_stores(
            tmp_path / "m2.jsonl", [tmp_path / "b.jsonl", tmp_path / "a.jsonl"]
        )
        _, outcomes = read_progress_store(tmp_path / "m2.jsonl")
        by_digest = {o.machine_digest: o for o in outcomes}
        assert by_digest["x"].total_time_seconds == 2.0

    def test_succeeded_record_beats_failed_regardless_of_order(self, tmp_path):
        _write_store(tmp_path / "a.jsonl", [_outcome("x", failed=True)])
        _write_store(tmp_path / "b.jsonl", [_outcome("x", time_seconds=3.0)])
        report = merge_progress_stores(
            tmp_path / "m.jsonl", [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        )
        assert report.merged == 1
        assert report.upgraded == 1 and report.failed == 0
        _, outcomes = read_progress_store(tmp_path / "m.jsonl")
        assert outcomes[0].status == "ok"
        assert outcomes[0].total_time_seconds == 3.0
        # And the ok record is not downgraded by a later failed one.
        report = merge_progress_stores(
            tmp_path / "m2.jsonl", [tmp_path / "b.jsonl", tmp_path / "a.jsonl"]
        )
        _, outcomes = read_progress_store(tmp_path / "m2.jsonl")
        assert outcomes[0].status == "ok"
        assert report.duplicates == 1 and report.upgraded == 0

    def test_mixed_sweeps_fail_loudly(self, tmp_path):
        _write_store(tmp_path / "a.jsonl", [_outcome("x")])
        _write_store(
            tmp_path / "b.jsonl",
            [_outcome("y")],
            header=dict(_HEADER, space="other"),
        )
        with pytest.raises(ProgressMismatchError, match="space"):
            merge_progress_stores(
                tmp_path / "m.jsonl",
                [tmp_path / "a.jsonl", tmp_path / "b.jsonl"],
            )
        report = merge_progress_stores(
            tmp_path / "m.jsonl",
            [tmp_path / "a.jsonl", tmp_path / "b.jsonl"],
            require_same_sweep=False,
        )
        assert report.merged == 2

    def test_shard_key_is_stripped_from_merged_header(self, tmp_path):
        _write_store(
            tmp_path / "a.jsonl",
            [_outcome("x")],
            header=dict(_HEADER, shard="1/2"),
        )
        _write_store(
            tmp_path / "b.jsonl",
            [_outcome("y")],
            header=dict(_HEADER, shard="2/2"),
        )
        merge_progress_stores(
            tmp_path / "m.jsonl", [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        )
        header, _ = read_progress_store(tmp_path / "m.jsonl")
        assert "shard" not in header
        assert header["space"] == "s"

    def test_empty_sources_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            merge_progress_stores(tmp_path / "m.jsonl", [])


class TestSweepProgressRework:
    def test_append_keeps_one_handle(self, tmp_path, monkeypatch):
        store = SweepProgress(tmp_path / "p.jsonl", durability="flush")
        store.load(dict(_HEADER))
        store.append(_outcome("a"))
        opens = []
        original = SweepProgress.append

        def counting_open(self, *args, **kwargs):
            opens.append(args)
            return original_open(self, *args, **kwargs)

        from pathlib import Path

        original_open = Path.open
        monkeypatch.setattr(Path, "open", counting_open)
        for index in range(5):
            store.append(_outcome(f"d{index}"))
        assert opens == []  # the handle from the first append is reused
        store.close()
        assert len(store.load(dict(_HEADER))) == 6

    def test_durability_knob_controls_fsync(self, tmp_path, monkeypatch):
        fsyncs = []
        monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fd))
        flush_store = SweepProgress(tmp_path / "flush.jsonl", durability="flush")
        flush_store.load(dict(_HEADER))
        flush_store.append(_outcome("a"))
        flush_store.close()
        assert fsyncs == []
        fsync_store = SweepProgress(tmp_path / "sync.jsonl")  # default
        fsync_store.load(dict(_HEADER))
        fsync_store.append(_outcome("a"))
        fsync_store.append(_outcome("b"))
        fsync_store.close()
        assert len(fsyncs) == 2  # one fsync per candidate, as before

    def test_invalid_durability_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="durability"):
            SweepProgress(tmp_path / "p.jsonl", durability="eventually")

    def test_load_tolerates_torn_trailing_line(self, tmp_path):
        store = SweepProgress(tmp_path / "p.jsonl")
        store.load(dict(_HEADER))
        store.append(_outcome("a"))
        store.close()
        with (tmp_path / "p.jsonl").open("a", encoding="utf-8") as handle:
            handle.write('{"machine_digest": "torn')  # crash mid-append
        outcomes = store.load(dict(_HEADER))
        assert set(outcomes) == {"a"}

    def test_context_manager_closes_handle(self, tmp_path):
        with SweepProgress(tmp_path / "p.jsonl", durability="flush") as store:
            store.load(dict(_HEADER))
            store.append(_outcome("a"))
            assert store._handle is not None
        assert store._handle is None


class TestMergeCli:
    def test_dse_merge_cli_round_trip(self, tmp_path, capsys):
        for index in (1, 2):
            code = cli_main(
                [
                    "dse",
                    "--smoke",
                    "--shard",
                    f"{index}/2",
                    "--progress",
                    str(tmp_path / f"s{index}.jsonl"),
                    "--json",
                ]
            )
            assert code == 0
        capsys.readouterr()
        code = cli_main(
            [
                "dse",
                "merge",
                str(tmp_path / "s1.jsonl"),
                str(tmp_path / "s2.jsonl"),
                "--out",
                str(tmp_path / "merged.jsonl"),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["merged"] == 4
        assert payload["sources"] == 2
        # The merged store equals the unsharded smoke sweep.
        code = cli_main(
            [
                "dse",
                "--smoke",
                "--progress",
                str(tmp_path / "merged.jsonl"),
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["resumed"] == 4 and report["evaluated"] == 0

    def test_merge_cli_also_merges_caches(self, tmp_path, capsys):
        for index in (1, 2):
            assert (
                cli_main(
                    [
                        "dse",
                        "--smoke",
                        "--shard",
                        f"{index}/2",
                        "--progress",
                        str(tmp_path / f"s{index}.jsonl"),
                        "--cache-dir",
                        str(tmp_path / f"cache{index}"),
                        "--json",
                    ]
                )
                == 0
            )
        capsys.readouterr()
        code = cli_main(
            [
                "dse",
                "merge",
                str(tmp_path / "s1.jsonl"),
                str(tmp_path / "s2.jsonl"),
                "--out",
                str(tmp_path / "merged.jsonl"),
                "--cache",
                str(tmp_path / "cache1"),
                "--cache",
                str(tmp_path / "cache2"),
                "--cache-out",
                str(tmp_path / "cache-merged"),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"]["sources"] == 2
        assert payload["cache"]["merged"] >= 1
        from repro.engine import ChunkedResultStore

        assert list((tmp_path / "cache-merged").glob("chunk-*.bin"))
        merged = ChunkedResultStore(tmp_path / "cache-merged")
        assert len(merged) == payload["cache"]["merged"]

    def test_merge_cli_requires_cache_out(self, tmp_path, capsys):
        _write_store(tmp_path / "a.jsonl", [_outcome("x")])
        code = cli_main(
            [
                "dse",
                "merge",
                str(tmp_path / "a.jsonl"),
                "--out",
                str(tmp_path / "m.jsonl"),
                "--cache",
                str(tmp_path / "cache"),
            ]
        )
        assert code == 2
        assert "--cache-out" in capsys.readouterr().err

    def test_merge_cli_rejects_mixed_sweeps(self, tmp_path, capsys):
        _write_store(tmp_path / "a.jsonl", [_outcome("x")])
        _write_store(
            tmp_path / "b.jsonl",
            [_outcome("y")],
            header=dict(_HEADER, space="other"),
        )
        code = cli_main(
            [
                "dse",
                "merge",
                str(tmp_path / "a.jsonl"),
                str(tmp_path / "b.jsonl"),
                "--out",
                str(tmp_path / "m.jsonl"),
            ]
        )
        assert code == 2
        assert "different sweep" in capsys.readouterr().err
