"""Concurrency stress tests for ResultCache / ChunkedResultStore.

The serving front-end made the cache a shared, contended structure:
many threads (the solve pool) and event-loop tasks (coalesced requests)
hit one :class:`~repro.engine.cache.ResultCache` at once.  These tests
pin the contracts that concurrency relies on:

* **single-flight** — concurrent ``get_or_compute`` calls and
  ``flight`` waiters on the same key run the computation exactly once,
  across plain threads, thread pools and event-loop tasks awaiting the
  flight's future, and a leader job cancelled before it runs releases
  its key;
* **LRU correctness under contention** — the memory tier never exceeds
  its bound, never corrupts its bookkeeping, and hit/miss counters stay
  consistent while threads hammer overlapping keys;
* **no torn on-disk entries** — concurrent writers (same and different
  keys) plus readers never observe a partially-written entry: every
  read is a miss or a complete, valid payload, and a reopen finds
  every record intact.
"""

import asyncio
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.engine import ResultCache, StrategyResult
from repro.engine.chunk_store import ChunkedResultStore


def _result(name: str, gflops: float = 1.0) -> StrategyResult:
    return StrategyResult(
        strategy="constant",
        spec_name=name,
        gflops=gflops,
        time_seconds=1.0 / gflops,
        search_seconds=0.0,
    )


class _SolveCounter:
    """Thread-safe per-key computation counter with a configurable delay."""

    def __init__(self, delay_s: float = 0.0):
        self.delay_s = delay_s
        self.counts: dict = {}
        self._lock = threading.Lock()

    def compute_for(self, key: str):
        def compute() -> StrategyResult:
            with self._lock:
                self.counts[key] = self.counts.get(key, 0) + 1
            if self.delay_s:
                time.sleep(self.delay_s)
            return _result(key)

        return compute

    def total(self) -> int:
        return sum(self.counts.values())


# ----------------------------------------------------------------------
# Single-flight get_or_compute
# ----------------------------------------------------------------------
class TestSingleFlightThreads:
    def test_many_threads_one_key_single_compute(self):
        cache = ResultCache()
        counter = _SolveCounter(delay_s=0.02)
        results = []

        def worker():
            results.append(cache.get_or_compute("k", counter.compute_for("k")))

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.counts == {"k": 1}
        assert len(results) == 16
        assert all(r.spec_name == "k" for r in results)
        # 15 callers either coalesced onto the leader's in-flight
        # computation or (if they arrived after it finished) hit memory.
        assert cache.stats.coalesced + cache.stats.memory_hits == 15
        assert cache.stats.computes == 1

    def test_overlapping_keys_each_computed_once(self):
        cache = ResultCache()
        counter = _SolveCounter(delay_s=0.005)
        keys = [f"key{i}" for i in range(8)]

        def worker(index: int):
            # Each worker walks all keys starting at a different offset,
            # so every key is contended by every thread.
            for step in range(len(keys)):
                key = keys[(index + step) % len(keys)]
                result = cache.get_or_compute(key, counter.compute_for(key))
                assert result.spec_name == key

        with ThreadPoolExecutor(max_workers=16) as pool:
            futures = [pool.submit(worker, index) for index in range(16)]
            for future in futures:
                future.result()
        assert counter.counts == {key: 1 for key in keys}

    def test_leader_error_propagates_and_releases_key(self):
        cache = ResultCache()
        attempts = []
        barrier = threading.Barrier(4)

        def failing():
            attempts.append(1)
            time.sleep(0.01)
            raise RuntimeError("injected")

        errors = []

        def worker():
            barrier.wait()
            try:
                cache.get_or_compute("k", failing)
            except RuntimeError as error:
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every thread saw the failure (leaders of successive flights
        # re-attempt; waiters inherit their leader's error)...
        assert len(errors) == 4
        # ... and the key is released: a later compute succeeds.
        result = cache.get_or_compute("k", lambda: _result("k"))
        assert result.spec_name == "k"

    def test_computed_value_lands_in_both_tiers(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        counter = _SolveCounter()
        cache.get_or_compute("k", counter.compute_for("k"))
        assert counter.counts == {"k": 1}
        # Fresh instance over the same directory: disk hit, no compute.
        reopened = ResultCache(tmp_path / "store")
        result = reopened.get_or_compute(
            "k", pytest.fail  # must not be called
        )
        assert result.spec_name == "k"
        assert reopened.stats.disk_hits == 1
        cache.close()
        reopened.close()
        reopened.close()  # idempotent

    def test_event_loop_tasks_share_thread_computations(self):
        """Event-loop tasks delegating to a pool coalesce with plain
        threads hitting the same cache — the serving stack's exact
        layering."""
        cache = ResultCache()
        counter = _SolveCounter(delay_s=0.02)

        async def scenario():
            loop = asyncio.get_running_loop()
            with ThreadPoolExecutor(max_workers=8) as pool:
                tasks = [
                    loop.run_in_executor(
                        pool,
                        cache.get_or_compute,
                        "shared",
                        counter.compute_for("shared"),
                    )
                    for _ in range(8)
                ]
                return await asyncio.gather(*tasks)

        results = asyncio.run(scenario())
        assert counter.counts == {"shared": 1}
        assert len({r.spec_name for r in results}) == 1


class TestOneFlightTable:
    """Threads and event-loop tasks share one in-flight table: every
    caller of ``flight`` or ``get_or_compute`` on a key joins one
    computation, led on an executor or inline."""

    @staticmethod
    async def _await(flight):
        return await asyncio.shield(asyncio.wrap_future(flight))

    @staticmethod
    def _threads(count, target):
        threads = [threading.Thread(target=target) for _ in range(count)]
        for thread in threads:
            thread.start()
        return threads

    @staticmethod
    def _join(threads):
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()

    def test_mixed_followers_share_one_computation(self):
        cache = ResultCache()
        counter = _SolveCounter()
        gate = threading.Event()
        compute = counter.compute_for("k")
        thread_results = []

        def gated():
            assert gate.wait(10)
            return compute()

        async def scenario():
            with ThreadPoolExecutor(max_workers=2) as pool:
                flight, coalesced = cache.flight("k", gated, pool)
                assert not coalesced
                threads = self._threads(
                    4,
                    lambda: thread_results.append(cache.get_or_compute("k", compute)),
                )
                joined = [cache.flight("k", compute, pool) for _ in range(4)]
                assert all(coalesced for _, coalesced in joined)
                waiters = [self._await(f) for f, _ in joined] + [self._await(flight)]
                while cache.stats.coalesced < 8:
                    await asyncio.sleep(0.001)
                gate.set()
                loop_results = await asyncio.gather(*waiters)
            self._join(threads)
            return loop_results

        loop_results = asyncio.run(scenario())
        assert counter.counts == {"k": 1}
        assert cache.stats.computes == 1 and cache.stats.coalesced == 8
        assert {r.spec_name for r in loop_results + thread_results} == {"k"}
        assert len(thread_results) == 4

    def test_distinct_keys_run_independently(self):
        """Key ``a``'s computation waits for key ``b``'s to have run: a
        flight that serialized distinct keys would deadlock."""
        cache = ResultCache()
        b_ran, release_a = threading.Event(), threading.Event()

        def compute_a():
            assert b_ran.wait(10) and release_a.wait(10)
            return _result("a")

        def compute_b():
            b_ran.set()
            return _result("b")

        async def scenario():
            with ThreadPoolExecutor(max_workers=2) as pool:
                a, _ = cache.flight("a", compute_a, pool)
                b, _ = cache.flight("b", compute_b, pool)
                again, coalesced = cache.flight("a", compute_a, pool)
                assert coalesced and again is a
                release_a.set()
                return await asyncio.gather(self._await(a), self._await(b))

        results = asyncio.run(scenario())
        assert [r.spec_name for r in results] == ["a", "b"]
        assert cache.stats.computes == 2

    def test_error_reaches_every_waiter_and_releases_key(self):
        cache = ResultCache()
        gate = threading.Event()
        thread_errors = []

        def failing():
            assert gate.wait(10)
            raise RuntimeError("shared failure")

        def follow():
            try:
                cache.get_or_compute("k", failing)
            except RuntimeError as error:
                thread_errors.append(error)

        async def scenario():
            with ThreadPoolExecutor(max_workers=1) as pool:
                flight, _ = cache.flight("k", failing, pool)
                followers = [self._await(cache.flight("k", failing, pool)[0])]
                threads = self._threads(2, follow)
                while cache.stats.coalesced < 3:
                    await asyncio.sleep(0.001)
                gate.set()
                outcomes = await asyncio.gather(
                    self._await(flight), *followers, return_exceptions=True
                )
            self._join(threads)
            return outcomes

        outcomes = asyncio.run(scenario())
        assert [str(o) for o in outcomes] == ["shared failure"] * 2
        assert [str(e) for e in thread_errors] == ["shared failure"] * 2
        # Released: the next caller leads a fresh computation.
        flight, coalesced = cache.flight("k", lambda: _result("k"))
        assert not coalesced and flight.result().spec_name == "k"

    def test_cancelled_follower_does_not_cancel_the_computation(self):
        cache = ResultCache()
        counter = _SolveCounter()
        gate = threading.Event()
        compute = counter.compute_for("k")

        def gated():
            assert gate.wait(10)
            return compute()

        async def scenario():
            with ThreadPoolExecutor(max_workers=1) as pool:
                flight, _ = cache.flight("k", gated, pool)
                quitter = asyncio.ensure_future(
                    self._await(cache.flight("k", compute, pool)[0])
                )
                stayer = asyncio.ensure_future(
                    self._await(cache.flight("k", compute, pool)[0])
                )
                await asyncio.sleep(0.01)
                quitter.cancel()
                await asyncio.gather(quitter, return_exceptions=True)
                gate.set()
                return flight, quitter, await stayer

        flight, quitter, result = asyncio.run(scenario())
        assert quitter.cancelled() and not flight.cancelled()
        assert result.spec_name == "k" and flight.result() is result
        assert counter.counts == {"k": 1}
        assert cache.get("k") is result

    def test_cancelled_leader_job_fails_its_flight_and_releases_key(self):
        """``shutdown(cancel_futures=True)`` cancels a leader job that has
        not started: its waiters get an error instead of waiting forever,
        and the next caller computes the key."""
        cache = ResultCache()
        counter = _SolveCounter()
        busy, release = threading.Event(), threading.Event()
        pool = ThreadPoolExecutor(max_workers=1)

        def blocker():
            busy.set()
            assert release.wait(10)

        blocking = pool.submit(blocker)
        assert busy.wait(10)
        flight, coalesced = cache.flight("k", counter.compute_for("k"), pool)
        assert not coalesced
        follower, coalesced = cache.flight("k", counter.compute_for("k"))
        assert coalesced and follower is flight
        pool.shutdown(wait=False, cancel_futures=True)
        with pytest.raises(RuntimeError, match="cancelled before it ran"):
            flight.result(timeout=10)
        release.set()
        blocking.result(timeout=10)
        assert counter.counts == {}
        result = cache.get_or_compute("k", counter.compute_for("k"))
        assert result.spec_name == "k" and counter.counts == {"k": 1}

    def test_stress_threads_and_loop_tasks_compute_each_key_once(self):
        """16 threads and 16 event-loop tasks on 8 keys, with a short
        switch interval: every key is computed once, and every call is
        counted exactly once as a compute, a coalesce or a memory hit."""
        cache = ResultCache()
        counter = _SolveCounter(delay_s=0.001)
        keys = [f"key{i}" for i in range(8)]
        calls = 32 * len(keys)

        def walk(index):
            for step in range(len(keys)):
                key = keys[(index + step) % len(keys)]
                assert cache.get_or_compute(key, counter.compute_for(key)).spec_name == key

        async def scenario(pool):
            async def walk_async(index):
                for step in range(len(keys)):
                    key = keys[(index + step) % len(keys)]
                    flight, _ = cache.flight(key, counter.compute_for(key), pool)
                    assert (await self._await(flight)).spec_name == key

            await asyncio.gather(*(walk_async(index) for index in range(16)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threads = [
                    threading.Thread(target=walk, args=(index,)) for index in range(16)
                ]
                for thread in threads:
                    thread.start()
                asyncio.run(scenario(pool))
                self._join(threads)
        finally:
            sys.setswitchinterval(interval)
        assert counter.counts == {key: 1 for key in keys}
        stats = cache.stats
        assert stats.computes == len(keys)
        assert stats.computes + stats.coalesced + stats.memory_hits == calls


# ----------------------------------------------------------------------
# Memory LRU under contention
# ----------------------------------------------------------------------
class TestMemoryLRUContention:
    def test_bound_respected_and_counters_consistent(self):
        cache = ResultCache(memory_entries=4)
        keys = [f"key{i}" for i in range(16)]
        stop = threading.Event()
        failures = []

        def hammer(seed: int):
            try:
                index = seed
                while not stop.is_set():
                    key = keys[index % len(keys)]
                    if index % 3 == 0:
                        cache.put(key, _result(key))
                    else:
                        hit = cache.get(key)
                        if hit is not None and hit.spec_name != key:
                            failures.append((key, hit.spec_name))
                    index += 7
            except BaseException as error:  # noqa: BLE001
                failures.append(error)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        time.sleep(0.2)
        stop.set()
        for thread in threads:
            thread.join()
        assert not failures
        assert len(cache) <= 4
        stats = cache.stats
        assert stats.lookups == stats.hits + stats.misses
        assert stats.hits > 0 and stats.misses > 0

    def test_get_many_against_concurrent_evictions(self):
        cache = ResultCache(memory_entries=2)
        keys = [f"key{i}" for i in range(6)]
        stop = threading.Event()

        def churn():
            index = 0
            while not stop.is_set():
                key = keys[index % len(keys)]
                cache.put(key, _result(key))
                index += 1

        churner = threading.Thread(target=churn)
        churner.start()
        try:
            for _ in range(200):
                found = cache.get_many(keys)
                for key, hit in found.items():
                    assert hit is None or hit.spec_name == key
        finally:
            stop.set()
            churner.join()
        assert len(cache) <= 2


# ----------------------------------------------------------------------
# Disk store: atomicity and eviction under contention
# ----------------------------------------------------------------------
class TestDiskStoreContention:
    def test_no_torn_json_under_concurrent_writers_and_readers(self, tmp_path):
        # Small chunks, so sealing and compaction run under the load too.
        store = ChunkedResultStore(tmp_path, max_chunk_entries=16)
        keys = [f"key{i}" for i in range(4)]
        stop = threading.Event()
        failures = []

        def writer(seed: int):
            index = seed
            while not stop.is_set():
                key = keys[index % len(keys)]
                store.put(key, _result(key, gflops=1.0 + index % 5).to_dict())
                index += 1

        def reader():
            while not stop.is_set():
                for key in keys:
                    payload = store.get(key)
                    # Either a miss or a complete entry: never a torn one.
                    if payload is not None and payload.get("spec_name") != key:
                        failures.append((key, payload))

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        stop.set()
        for thread in threads:
            thread.join()
        assert not failures
        # A reopen scans or indexes every record: all intact, each
        # entry under its own key, and no torn tail to quarantine.
        store.close()
        reopened = ChunkedResultStore(tmp_path, max_chunk_entries=16)
        assert reopened.quarantined == 0
        entries = dict(reopened.items())
        assert sorted(entries) == keys
        for key, payload in entries.items():
            assert payload["spec_name"] == key
        # No leftover temp files from the sidecar/manifest atomic writes.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_lru_eviction_under_concurrent_puts(self, tmp_path):
        cap = 8
        store = ChunkedResultStore(tmp_path, max_entries=cap)

        def writer(base: int):
            for index in range(25):
                key = f"key{base * 100 + index}"
                store.put(key, _result(key).to_dict())

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Eviction drops whole oldest chunks under the store's lock: the
        # cap holds, and a fresh store over the directory sees only what
        # survived, plus one more put landing at (or under) the cap.
        assert len(store) <= cap
        store.close()
        resynced = ChunkedResultStore(tmp_path, max_entries=cap)
        assert len(resynced) <= cap
        resynced.put("final", _result("final").to_dict())
        assert len(resynced) <= cap
        assert resynced.get("final") is not None  # most recent survives
        # Whatever survived is intact (eviction never tears entries).
        assert resynced.quarantined == 0
        for key, payload in resynced.items():
            assert payload["spec_name"] == key
        resynced.close()

    def test_result_cache_roundtrip_under_mixed_load(self, tmp_path):
        """Threads + event-loop tasks over one persistent cache: every
        get_or_compute observes a value equal to what was stored."""
        cache = ResultCache(tmp_path / "mixed", max_disk_entries=64)
        counter = _SolveCounter(delay_s=0.002)
        keys = [f"key{i}" for i in range(12)]

        async def scenario():
            loop = asyncio.get_running_loop()
            with ThreadPoolExecutor(max_workers=8) as pool:
                tasks = [
                    loop.run_in_executor(
                        pool,
                        cache.get_or_compute,
                        keys[i % len(keys)],
                        counter.compute_for(keys[i % len(keys)]),
                    )
                    for i in range(48)
                ]
                return await asyncio.gather(*tasks)

        results = asyncio.run(scenario())
        assert len(results) == 48
        for i, result in enumerate(results):
            assert result.spec_name == keys[i % len(keys)]
        # Single-flight held: each key computed exactly once.
        assert counter.counts == {key: 1 for key in keys}
        assert cache.stats.computes == len(keys)
        cache.close()


class TestStoreHandles:
    #: The tests above that open a disk store from a path.
    DISK_TESTS = (
        "test_computed_value_lands_in_both_tiers",
        "test_lru_eviction_under_concurrent_puts",
        "test_result_cache_roundtrip_under_mixed_load",
    )

    def test_disk_tests_leave_no_unclosed_chunk_file(self):
        """The disk-store tests close what they open: run in development
        mode with every ``ResourceWarning`` (and the unraisable exception
        an unclosed file raises at collection) an error, they pass."""
        env = dict(os.environ)
        src = Path(__file__).resolve().parent.parent / "src"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        done = subprocess.run(
            [
                sys.executable, "-X", "dev", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "-W", "error::ResourceWarning",
                "-W", "error::pytest.PytestUnraisableExceptionWarning",
                __file__, "-k", " or ".join(self.DISK_TESTS),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        assert f"{len(self.DISK_TESTS)} passed" in done.stdout

    def test_close_leaves_a_passed_store_open(self, tmp_path):
        """A store object passed in stays its caller's: closing the cache
        leaves its handle, and closing a path-opened cache twice is fine."""
        store = ChunkedResultStore(tmp_path / "shared")
        cache = ResultCache(store)
        cache.get_or_compute("k", lambda: _result("k"))
        cache.close()
        assert store._handle is not None
        store.close()
        owned = ResultCache(tmp_path / "owned")
        owned.get_or_compute("k", lambda: _result("k"))
        owned.close()
        owned.close()
        assert owned.disk._handle is None
