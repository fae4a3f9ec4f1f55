"""Tests for the chunked, compacting result store (repro.engine.chunk_store).

Covers the record/chunk round trip (sealing, sidecar indexes, reopen),
two instances appending to one root, the O(chunks) inode claim with no
per-put directory scan, torn-record recovery (quarantine + recount,
intact records after a torn one kept — chaos-marked), chunk-granular eviction and dead-record compaction, how
a cache argument resolves to the store (``ResultCache`` /
``resolve_cache`` over a path or a shared instance), the reliability
counters, and merging stores — including importing a cache of the old
one-file-per-entry layout.
"""

import errno
import json
import warnings
from pathlib import Path

import pytest

from repro.engine.cache import ResultCache, resolve_cache
from repro.engine.chunk_store import (
    CACHE_FORMAT_VERSION,
    MANIFEST_NAME,
    ChunkedResultStore,
    merge_result_stores,
)
from repro.engine.strategy import StrategyResult
from repro.reliability import (
    FaultInjector,
    activate,
    health_get,
    health_reset,
)


@pytest.fixture(autouse=True)
def _fresh_health_counters():
    health_reset()
    yield
    health_reset()


def _payload(name: str) -> dict:
    return {"strategy": "constant", "spec_name": name, "value": len(name)}


def _result(name: str) -> StrategyResult:
    return StrategyResult(
        strategy="constant",
        spec_name=name,
        gflops=1.0,
        time_seconds=1.0,
        search_seconds=0.0,
    )


class TestRoundTrip:
    def test_put_get_contains_len(self, tmp_path):
        store = ChunkedResultStore(tmp_path)
        assert store.get("missing") is None
        store.put("a", _payload("a"))
        store.put("b", _payload("b"))
        assert store.get("a") == _payload("a")
        assert store.get("b") == _payload("b")
        assert "a" in store and "missing" not in store
        assert len(store) == 2
        assert sorted(store.keys()) == ["a", "b"]

    def test_reopen_restores_every_entry(self, tmp_path):
        store = ChunkedResultStore(tmp_path, max_chunk_entries=4)
        for index in range(11):
            store.put(f"key{index}", _payload(f"v{index}"))
        store.flush()
        store.close()
        fresh = ChunkedResultStore(tmp_path, max_chunk_entries=4)
        assert len(fresh) == 11
        for index in range(11):
            assert fresh.get(f"key{index}") == _payload(f"v{index}")
        # Sealed chunks came back through their sidecar indexes.
        assert fresh.chunk_count >= 2
        assert (tmp_path / MANIFEST_NAME).exists()

    def test_overwrite_serves_latest_and_tracks_dead(self, tmp_path):
        store = ChunkedResultStore(tmp_path)
        store.put("k", _payload("old"))
        store.put("k", _payload("new"))
        assert store.get("k") == _payload("new")
        assert len(store) == 1
        stats = store.reliability_stats()
        assert stats["live_entries"] == 1
        assert stats["dead_entries"] == 1

    def test_writes_survive_reopen_after_overwrites(self, tmp_path):
        store = ChunkedResultStore(tmp_path, max_chunk_entries=3)
        for index in range(9):
            store.put(f"key{index % 4}", _payload(f"round{index}"))
        store.close()
        fresh = ChunkedResultStore(tmp_path, max_chunk_entries=3)
        assert len(fresh) == 4
        assert fresh.get("key0") == _payload("round8")
        assert fresh.get("key3") == _payload("round7")

    def test_items_streams_live_entries(self, tmp_path):
        store = ChunkedResultStore(tmp_path, max_chunk_entries=3)
        for index in range(7):
            store.put(f"key{index}", _payload(f"v{index}"))
        store.put("key0", _payload("fresh"))
        entries = dict(store.items())
        assert len(entries) == 7
        assert entries["key0"] == _payload("fresh")
        assert entries["key6"] == _payload("v6")

    def test_clear_removes_layout(self, tmp_path):
        store = ChunkedResultStore(tmp_path, max_chunk_entries=2)
        for index in range(5):
            store.put(f"key{index}", _payload(f"v{index}"))
        store.clear()
        assert len(store) == 0
        assert store.get("key0") is None
        assert list(tmp_path.glob("chunk-*")) == []
        # The cleared store keeps working.
        store.put("again", _payload("again"))
        assert store.get("again") == _payload("again")


class TestSharedRoot:
    """Two store instances open on one root."""

    def test_interleaved_puts_never_serve_another_keys_payload(self, tmp_path):
        expected = {"key1": {"v": 1}, "key2": {"v": 2}, "key3": {"v": 3}}
        first = ChunkedResultStore(tmp_path)
        first.put("key1", expected["key1"])
        second = ChunkedResultStore(tmp_path)
        second.put("key2", expected["key2"])
        # Same record length as key2's, which ``second`` appended behind
        # ``first``'s back: the offset must come from where it landed.
        first.put("key3", expected["key3"])
        for store in (first, second):
            for key, payload in expected.items():
                assert store.get(key) in (None, payload), (key, store.get(key))
        assert first.get("key3") == expected["key3"]
        third = ChunkedResultStore(tmp_path)
        assert {key: third.get(key) for key in expected} == expected

    def test_record_stored_under_another_key_is_a_miss(self, tmp_path):
        stale = ChunkedResultStore(tmp_path)
        stale.put("key1", {"v": 1})
        stale.put("key2", {"v": 2})
        ChunkedResultStore(tmp_path).clear()
        # The root is rewritten with the same record lengths, key order
        # swapped: ``stale``'s offsets now frame the other key's record.
        rewriter = ChunkedResultStore(tmp_path)
        rewriter.put("key2", {"v": 2})
        rewriter.put("key1", {"v": 1})
        assert stale.get("key1") is None
        assert stale.get("key2") is None
        assert stale.quarantined == 2
        assert "key1" not in stale  # dropped: no re-read loop
        assert rewriter.get("key1") == {"v": 1}


class TestLayoutAndHotPath:
    def test_inodes_scale_with_chunks_not_entries(self, tmp_path):
        store = ChunkedResultStore(tmp_path, max_chunk_entries=100)
        for index in range(2000):
            store.put(f"key{index:05d}", {"v": index})
        # 2000 entries in ~20 chunks: chunk + sidecar files + manifest,
        # nowhere near one inode per entry.
        assert store.inode_count() <= 2 * store.chunk_count + 1
        assert store.inode_count() <= 0.03 * 2000

    @pytest.mark.slow
    def test_100k_entries_use_at_most_one_percent_of_inodes(self, tmp_path):
        store = ChunkedResultStore(tmp_path)  # default 1024-entry chunks
        for index in range(100_000):
            store.put(f"key{index:07d}", {"v": index})
        assert len(store) == 100_000
        assert store.inode_count() <= 0.01 * 100_000
        assert store.get("key0099999") == {"v": 99_999}

    def test_put_never_scans_the_directory(self, tmp_path, monkeypatch):
        store = ChunkedResultStore(
            tmp_path, max_entries=50, max_chunk_entries=10
        )

        def _no_glob(self, pattern):
            raise AssertionError(f"put scanned the directory: glob({pattern!r})")

        monkeypatch.setattr(Path, "glob", _no_glob)
        for index in range(120):  # includes sealing + eviction at cap
            store.put(f"key{index}", {"v": index})
        assert len(store) <= 50

    def test_len_is_constant_time_bookkeeping(self, tmp_path, monkeypatch):
        store = ChunkedResultStore(tmp_path)
        for index in range(10):
            store.put(f"key{index}", {"v": index})
        monkeypatch.setattr(
            Path, "glob", lambda self, pattern: pytest.fail("len globbed")
        )
        assert len(store) == 10


@pytest.mark.chaos
class TestTornTail:
    def test_torn_trailing_chunk_is_quarantined_and_recounted(self, tmp_path):
        store = ChunkedResultStore(tmp_path, max_chunk_entries=100)
        for index in range(10):
            store.put(f"key{index}", _payload(f"v{index}"))
        store.flush()
        store.close()
        chunk = next(tmp_path.glob("chunk-*.bin"))
        with chunk.open("r+b") as handle:
            handle.truncate(chunk.stat().st_size - 3)  # writer died mid-append
        fresh = ChunkedResultStore(tmp_path, max_chunk_entries=100)
        assert len(fresh) == 9  # the torn record is gone, the rest intact
        assert fresh.quarantined == 1
        assert health_get("cache.quarantined") == 1
        assert fresh.get("key9") is None
        for index in range(9):
            assert fresh.get(f"key{index}") == _payload(f"v{index}")
        # Appends continue from the truncated (clean) record boundary.
        fresh.put("after", _payload("after"))
        fresh.close()
        again = ChunkedResultStore(tmp_path, max_chunk_entries=100)
        assert again.get("after") == _payload("after")
        assert len(again) == 10

    def test_injected_corrupt_entry_becomes_clean_miss(self, tmp_path):
        store = ChunkedResultStore(tmp_path)
        injector = FaultInjector().arm("cache.corrupt_entry", times=1)
        with activate(injector):
            store.put("k", _payload("k"))
        assert injector.fired("cache.corrupt_entry") == 1
        # The torn record fails its CRC on read and is quarantined.
        assert store.get("k") is None
        assert store.quarantined == 1
        assert store.get("k") is None  # stays a miss, no re-parse loop

    def test_torn_record_keeps_the_intact_records_after_it(self, tmp_path):
        """A writer that keeps appending after a torn record: a reopen
        quarantines that one record and serves every record after it."""
        store = ChunkedResultStore(tmp_path)
        injector = FaultInjector().arm("cache.corrupt_entry", times=1)
        with activate(injector):
            for key in ("k1", "k2", "k3"):
                store.put(key, _payload(key))
        assert injector.fired("cache.corrupt_entry") == 1
        assert store.get("k2") == _payload("k2")
        assert store.get("k3") == _payload("k3")
        store.close()
        fresh = ChunkedResultStore(tmp_path)
        assert len(fresh) == 2
        assert fresh.quarantined == 1
        assert fresh.get("k1") is None
        assert fresh.get("k2") == _payload("k2")
        assert fresh.get("k3") == _payload("k3")
        # Nothing was truncated: appends go on after the last record.
        fresh.put("k4", _payload("k4"))
        fresh.close()
        again = ChunkedResultStore(tmp_path)
        assert again.quarantined == 1
        assert [again.get(key) for key in ("k2", "k3", "k4")] == [
            _payload(key) for key in ("k2", "k3", "k4")
        ]

    def test_corrupt_sidecar_falls_back_to_scan(self, tmp_path):
        store = ChunkedResultStore(tmp_path, max_chunk_entries=3)
        for index in range(7):
            store.put(f"key{index}", _payload(f"v{index}"))
        store.close()
        idx = next(tmp_path.glob("chunk-*.idx"))
        idx.write_text("not json", encoding="utf-8")
        fresh = ChunkedResultStore(tmp_path, max_chunk_entries=3)
        assert len(fresh) == 7
        for index in range(7):
            assert fresh.get(f"key{index}") == _payload(f"v{index}")


class TestEvictionAndCompaction:
    def test_cap_evicts_oldest_chunks_in_batches(self, tmp_path):
        store = ChunkedResultStore(tmp_path, max_entries=20)
        for index in range(100):
            store.put(f"key{index:03d}", {"v": index})
        assert len(store) <= 20
        assert store.evictions >= 80
        assert store.get("key099") == {"v": 99}  # newest survives
        assert store.get("key000") is None  # oldest evicted

    def test_eviction_removes_chunk_files(self, tmp_path):
        store = ChunkedResultStore(tmp_path, max_entries=8)
        for index in range(64):
            store.put(f"key{index}", {"v": index})
        assert store.inode_count() <= 2 * store.chunk_count + 1

    def test_compaction_reclaims_mostly_dead_chunks(self, tmp_path):
        store = ChunkedResultStore(tmp_path, max_chunk_entries=8)
        for index in range(8):
            store.put(f"key{index}", _payload(f"old{index}"))
        assert store.chunk_count >= 1
        for index in range(8):  # overwrite: the sealed chunk goes dead
            store.put(f"key{index}", _payload(f"new{index}"))
        assert store.compactions >= 1
        assert health_get("cache.compactions") >= 1
        for index in range(8):
            assert store.get(f"key{index}") == _payload(f"new{index}")
        store.close()
        fresh = ChunkedResultStore(tmp_path, max_chunk_entries=8)
        assert len(fresh) == 8
        assert fresh.get("key5") == _payload("new5")

    def test_explicit_compact_rewrites_dead_space(self, tmp_path):
        store = ChunkedResultStore(tmp_path, max_chunk_entries=4)
        for index in range(8):
            store.put(f"key{index}", _payload(f"v{index}"))
        store.put("key0", _payload("fresh"))
        assert store.compact() >= 1
        assert store.reliability_stats()["dead_entries"] == 0
        assert store.get("key0") == _payload("fresh")
        assert store.get("key7") == _payload("v7")


class TestReliabilityParity:
    """The degrade and quarantine counters ResultCache reports."""

    def test_write_failures_degrade_to_memory_only(self, tmp_path):
        store = ChunkedResultStore(tmp_path)
        injector = FaultInjector().arm(
            "cache.put_oserror",
            error=lambda: OSError(errno.ENOSPC, "no space left on device"),
        )
        with activate(injector):
            with pytest.warns(RuntimeWarning, match="degraded"):
                store.put("a", _payload("a"))
        assert store.degraded is True
        assert health_get("cache.write_errors") == 1
        assert health_get("cache.degraded") == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the warning fires exactly once
            store.put("b", _payload("b"))  # silently memory-only now
        assert len(store) == 0

    def test_transient_failures_do_not_degrade(self, tmp_path):
        store = ChunkedResultStore(tmp_path)
        injector = FaultInjector().arm(
            "cache.put_oserror", error=lambda: OSError(errno.EIO, "io"), times=2
        )
        with activate(injector):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                store.put("a", _payload("a"))  # fails, swallowed
                store.put("b", _payload("b"))  # fails, swallowed
                store.put("c", _payload("c"))  # succeeds, resets the streak
        assert store.write_errors == 2
        assert store.degraded is False
        assert store.get("c") == _payload("c")

    def test_result_cache_folds_chunked_counters_in(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", _result("k"))
        stats = cache.reliability_stats()
        assert stats["degraded"] is False
        assert stats["quarantined"] == 0
        assert stats["chunks"] >= 1
        assert stats["live_entries"] == 1

    def test_disk_store_reports_the_same_shape(self, tmp_path):
        # A memory-only cache reports the common keys alone; the store's
        # layout counters come on top of them.
        stats = ChunkedResultStore(tmp_path).reliability_stats()
        common = ResultCache.empty_reliability_stats()
        assert {key: stats[key] for key in common} == common


class TestBackendResolution:
    """How a cache argument resolves to its disk store."""

    def test_replicas_share_one_store_instance(self, tmp_path):
        fabric = ChunkedResultStore(tmp_path)
        replica_a = resolve_cache(fabric)
        replica_b = resolve_cache(fabric)
        assert replica_a.disk is fabric and replica_b.disk is fabric
        replica_a.put("k", _result("k"))
        # Replica B's memory tier is cold; the hit comes from the fabric.
        assert replica_b.get("k") == _result("k")

    def test_round_trip_through_result_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert isinstance(cache.disk, ChunkedResultStore)
        cache.put("k", _result("k"))
        fresh = ResultCache(tmp_path)
        assert fresh.get("k") == _result("k")


class TestMergeStores:
    def test_merge_concatenates_and_dedupes_first_wins(self, tmp_path):
        first = ChunkedResultStore(tmp_path / "a")
        first.put("shared", _payload("from-first"))
        first.put("a-only", _payload("a"))
        first.close()
        # The second source is a cache of the old layout: one
        # ``<key>.json`` file per entry.
        legacy = tmp_path / "b"
        legacy.mkdir()
        for key, name in (("shared", "from-second"), ("b-only", "b")):
            entry = {
                "version": CACHE_FORMAT_VERSION,
                "key": key,
                "result": _payload(name),
            }
            (legacy / f"{key}.json").write_text(json.dumps(entry), encoding="utf-8")
        # Corrupt and other-version entries are skipped, not imported.
        (legacy / "torn.json").write_text('{"torn', encoding="utf-8")
        (legacy / "old.json").write_text(
            json.dumps({"version": -1, "key": "old", "result": _payload("old")}),
            encoding="utf-8",
        )
        report = merge_result_stores(tmp_path / "merged", [tmp_path / "a", legacy])
        assert report == {"merged": 3, "skipped": 1, "sources": 2}
        merged = ChunkedResultStore(tmp_path / "merged")
        assert len(merged) == 3
        assert merged.get("shared") == _payload("from-first")
        assert merged.get("a-only") == _payload("a")
        assert merged.get("b-only") == _payload("b")
        assert list((tmp_path / "merged").glob("*.json")) == []

    def test_merged_store_serves_a_result_cache(self, tmp_path):
        source = ResultCache(tmp_path / "src")
        source.put("k", _result("k"))
        source.disk.flush()
        merge_result_stores(tmp_path / "merged", [tmp_path / "src"])
        warm = ResultCache(tmp_path / "merged")
        assert warm.get("k") == _result("k")


class TestValidation:
    def test_invalid_arguments_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ChunkedResultStore(tmp_path, max_entries=0)
        with pytest.raises(ValueError):
            ChunkedResultStore(tmp_path, max_chunk_entries=0)
        with pytest.raises(ValueError):
            ChunkedResultStore(tmp_path, durability="eventually")

    def test_manifest_is_not_an_entry_file(self, tmp_path):
        store = ChunkedResultStore(tmp_path, max_chunk_entries=2)
        for index in range(4):
            store.put(f"key{index}", _payload(f"v{index}"))
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["version"] >= 1
        assert not (tmp_path / MANIFEST_NAME).name.endswith(".json")
