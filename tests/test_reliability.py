"""Chaos suite: deterministic fault injection through every recovery path.

Every scenario here arms a named fault point (:mod:`repro.reliability.
faults`) and asserts two things: the system *survives* the failure
(results still come back, bitwise-identical wherever the recovery path
re-runs the same solve code), and the degradation is *observable* (the
matching ``health.*`` counter of the metrics registry fired).  Covered:

* :class:`~repro.reliability.RetryPolicy` — deterministic jitter
  schedule, deadline abandonment, retry counters;
* :class:`~repro.reliability.FaultInjector` — arming knobs
  (times/after/key/probability) and activation scoping;
* the intra-operator solve pool — a killed worker rebuilds the pool
  once, a second break degrades to serial, both bitwise-identical;
* the disk result cache — corrupt entries quarantined to ``.corrupt``
  with LRU recount, write failures (disk full / read-only) degrade the
  store to memory-only with a single warning instead of crashing;
* the serving front-end — budget overruns answered by the fallback
  strategy (``degraded`` responses), the watchdog force-expiring hung
  in-flight requests, TCP client read timeouts and policy-driven
  reconnect;
* design-space sweeps — a poisoned candidate is recorded as ``failed``
  and the sweep (and its warm resume) continues past it;
* the end-to-end acceptance scenario: one killed pool worker plus one
  corrupted cache entry during a cold ResNet-18 optimize, with results
  bitwise-identical to an undisturbed run.

All asyncio scenarios drive their own loop via ``asyncio.run`` (no
pytest-asyncio in the environment), mirroring ``test_serving.py``.
"""

import asyncio
import errno
import json
import threading
import time
import warnings
from dataclasses import dataclass, field

import pytest

from repro.api import Session
from repro.core import solve_pool
from repro.core.optimizer import MOptOptimizer, OptimizerSettings
from repro.core.solver import SolverOptions
from repro.core.tensor_spec import ConvSpec
from repro.dse import DesignSpace, axis_values, explore
from repro.engine import StrategyResult, strategy_registry
from repro.engine.cache import ResultCache
from repro.engine.chunk_store import CACHE_FORMAT_VERSION, ChunkedResultStore
from repro.machine.presets import tiny_test_machine
from repro.obs.metrics import REGISTRY
from repro.reliability import (
    FaultInjector,
    RetryPolicy,
    activate,
    active_injector,
    fault_fires,
    fault_point,
)
from repro.serving import (
    DeadlineExpiredError,
    OptimizationServer,
    OptimizeRequest,
    OptimizeResponse,
    ServerConfig,
    ServingClient,
    ServingTimeoutError,
    TCPServingClient,
    start_tcp_server,
)

pytestmark = pytest.mark.chaos

KiB = 1024

QUICK = SolverOptions(multistarts=0, maxiter=40, fallback_samples=50)

SPEC = ConvSpec("conv", 1, 16, 8, 10, 10, 3, 3, padding=1)


def _settings(**overrides) -> OptimizerSettings:
    defaults = dict(
        levels=("L1", "L2"),
        fix_register_tile=False,
        solver=QUICK,
        top_k=8,
        permutation_class_names=None,
    )
    defaults.update(overrides)
    return OptimizerSettings(**defaults)


def _candidate_table(result):
    return {
        c.class_name: (c.config, c.predicted_time_seconds)
        for c in result.candidates
    }


@pytest.fixture(autouse=True)
def _fresh_health():
    """Zeroed health counters per test so deltas are exact."""
    REGISTRY.remove("health.")
    yield
    REGISTRY.remove("health.")


@pytest.fixture
def machine():
    return tiny_test_machine()


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_schedule_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=0.1, multiplier=2.0,
            max_delay_s=0.5, jitter=0.1, seed=7,
        )
        first = list(policy.delays())
        assert first == list(policy.delays())  # same seed, same schedule
        assert len(first) == 4
        for attempt, delay in enumerate(first, start=1):
            raw = min(0.1 * 2.0 ** (attempt - 1), 0.5)
            assert raw * 0.9 <= delay <= raw * 1.1
        reseeded = RetryPolicy(
            max_attempts=5, base_delay_s=0.1, multiplier=2.0,
            max_delay_s=0.5, jitter=0.1, seed=8,
        )
        assert list(reseeded.delays()) != first

    def test_zero_jitter_is_exact_exponential(self):
        policy = RetryPolicy(
            max_attempts=4, base_delay_s=0.05, multiplier=2.0,
            max_delay_s=0.15, jitter=0.0,
        )
        assert list(policy.delays()) == [0.05, 0.1, 0.15]

    def test_run_retries_then_succeeds_and_counts(self):
        calls, sleeps, observed = [], [], []
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.01, jitter=0.0)

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        outcome = policy.run(
            flaky,
            retry_on=(OSError,),
            on_retry=lambda attempt, error: observed.append(attempt),
            sleep=sleeps.append,
            counter="test.retries",
        )
        assert outcome == "ok"
        assert len(calls) == 3
        assert observed == [1, 2]
        assert sleeps == [0.01, 0.02]
        assert REGISTRY.counter_value("health.test.retries") == 2

    def test_run_exhausts_attempts_and_reraises(self):
        calls = []
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)

        def doomed():
            calls.append(1)
            raise ValueError("always")

        with pytest.raises(ValueError, match="always"):
            policy.run(doomed, sleep=lambda _: None)
        assert len(calls) == 3

    def test_deadline_abandons_instead_of_sleeping_past_it(self):
        now = [0.0]
        slept = []
        policy = RetryPolicy(
            max_attempts=10, base_delay_s=1.0, multiplier=1.0,
            jitter=0.0, deadline_s=2.5,
        )

        def fake_sleep(delay):
            slept.append(delay)
            now[0] += delay

        with pytest.raises(OSError):
            policy.run(
                lambda: (_ for _ in ()).throw(OSError("down")),
                sleep=fake_sleep,
                clock=lambda: now[0],
            )
        # Two 1 s retries fit in the 2.5 s deadline; the third would
        # start at t=3.0 and is abandoned.
        assert slept == [1.0, 1.0]

    def test_unlisted_exception_propagates_immediately(self):
        calls = []

        def wrong_kind():
            calls.append(1)
            raise TypeError("not transient")

        with pytest.raises(TypeError):
            RetryPolicy(max_attempts=5).run(wrong_kind, retry_on=(OSError,))
        assert len(calls) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy().delay_for(0)


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------
class TestFaultInjector:
    POINT = "test.point"

    def test_times_and_after_window(self):
        injector = FaultInjector().arm(
            self.POINT, error=RuntimeError("boom"), times=2, after=1
        )
        outcomes = []
        with activate(injector):
            for _ in range(4):
                try:
                    fault_point(self.POINT)
                    outcomes.append("ok")
                except RuntimeError:
                    outcomes.append("boom")
        assert outcomes == ["ok", "boom", "boom", "ok"]
        assert injector.fired(self.POINT) == 2
        assert injector.fired_counts() == {self.POINT: 2}

    def test_key_filter_only_matches_one_call_site(self):
        injector = FaultInjector().arm(
            self.POINT, error=KeyError("poisoned"), key="b", times=None
        )
        with activate(injector):
            fault_point(self.POINT, key="a")  # no-op
            with pytest.raises(KeyError):
                fault_point(self.POINT, key="b")
        assert injector.fired(self.POINT) == 1

    def test_probability_subset_is_deterministic(self):
        def pattern(seed):
            injector = FaultInjector().arm(
                self.POINT, times=None, probability=0.5, seed=seed
            )
            with activate(injector):
                return [fault_fires(self.POINT) for _ in range(50)]

        first = pattern(seed=3)
        assert first == pattern(seed=3)
        assert 0 < sum(first) < 50
        assert pattern(seed=4) != first

    def test_error_factory_builds_fresh_instances(self):
        injector = FaultInjector().arm(
            self.POINT, error=lambda: OSError(errno.ENOSPC, "full"), times=2
        )
        seen = []
        with activate(injector):
            for _ in range(2):
                with pytest.raises(OSError) as excinfo:
                    fault_point(self.POINT)
                seen.append(excinfo.value)
        assert seen[0] is not seen[1]
        assert all(error.errno == errno.ENOSPC for error in seen)

    def test_action_runs_and_double_arming_rejected(self):
        ran = []
        injector = FaultInjector().arm(self.POINT, action=lambda: ran.append(1))
        with activate(injector):
            fault_point(self.POINT)
        assert ran == [1]
        with pytest.raises(ValueError, match="at most one"):
            FaultInjector().arm(
                self.POINT, error=RuntimeError(), action=lambda: None
            )
        with pytest.raises(ValueError):
            FaultInjector().arm(self.POINT, times=0)

    def test_inactive_injector_is_a_noop(self):
        FaultInjector().arm(self.POINT, error=RuntimeError("boom"))
        # Armed but never activated: production call sites see nothing.
        fault_point(self.POINT)
        assert not fault_fires(self.POINT)
        assert active_injector() is None

    def test_activation_nests_and_restores(self):
        outer = FaultInjector()
        inner = FaultInjector()
        with activate(outer):
            assert active_injector() is outer
            with activate(inner):
                assert active_injector() is inner
            assert active_injector() is outer
        assert active_injector() is None

    def test_disarm(self):
        injector = FaultInjector().arm(self.POINT, error=RuntimeError("boom"))
        injector.disarm(self.POINT)
        injector.disarm("never.armed")  # idempotent
        with activate(injector):
            fault_point(self.POINT)  # nothing armed, nothing raised


# ----------------------------------------------------------------------
# Solve pool: killed workers
# ----------------------------------------------------------------------
class TestSolvePoolRecovery:
    def test_killed_worker_rebuilds_pool_bitwise_identical(self, machine):
        undisturbed = MOptOptimizer(
            machine, _settings(class_workers=2)
        ).optimize(SPEC)
        before = solve_pool.pool_stats()
        injector = FaultInjector().arm("solve_pool.kill_worker", times=1)
        with activate(injector):
            disturbed = MOptOptimizer(
                machine, _settings(class_workers=2)
            ).optimize(SPEC)
        after = solve_pool.pool_stats()
        assert injector.fired("solve_pool.kill_worker") == 1
        assert after["pool_rebuilds"] == before["pool_rebuilds"] + 1
        assert after["serial_fallbacks"] == before["serial_fallbacks"]
        assert REGISTRY.counter_value("health.pool_rebuilds") == 1
        assert _candidate_table(disturbed) == _candidate_table(undisturbed)
        assert disturbed.best.predicted_time_seconds == (
            undisturbed.best.predicted_time_seconds
        )

    def test_second_break_degrades_to_serial_bitwise_identical(self, machine):
        undisturbed = MOptOptimizer(
            machine, _settings(class_workers=2)
        ).optimize(SPEC)
        before = solve_pool.pool_stats()
        injector = FaultInjector().arm("solve_pool.kill_worker", times=2)
        with activate(injector):
            disturbed = MOptOptimizer(
                machine, _settings(class_workers=2)
            ).optimize(SPEC)
        after = solve_pool.pool_stats()
        assert injector.fired("solve_pool.kill_worker") == 2
        assert after["pool_rebuilds"] == before["pool_rebuilds"] + 1
        assert after["serial_fallbacks"] == before["serial_fallbacks"] + 1
        assert REGISTRY.counter_value("health.serial_fallbacks") == 1
        assert _candidate_table(disturbed) == _candidate_table(undisturbed)


# ----------------------------------------------------------------------
# Disk cache: corruption and write failures
# ----------------------------------------------------------------------
def _payload(tag: str) -> dict:
    return {"strategy": "constant", "spec_name": tag, "gflops": 1.0}


class TestCacheQuarantine:
    def test_corrupt_json_quarantined_with_lru_recount(self, tmp_path):
        store = ChunkedResultStore(tmp_path, max_entries=3)
        for key in ("a", "b", "c"):
            store.put(key, _payload(key))
        assert len(store) == 3
        # A torn write lands on disk behind the store's back: "b"'s
        # record is garbled in place.
        marker = b'"spec_name": "b"'
        (chunk,) = [
            path
            for path in tmp_path.glob("chunk-*.bin")
            if marker in path.read_bytes()
        ]
        data = chunk.read_bytes()
        start = data.index(marker)
        chunk.write_bytes(data[:start] + b"{torn" + data[start + 5 :])
        assert store.get("b") is None
        assert store.quarantined == 1
        assert REGISTRY.counter_value("health.cache.quarantined") == 1
        # The quarantined entry no longer counts against the cap: a new
        # put fits under it without evicting a healthy entry.
        assert len(store) == 2
        store.put("d", _payload("d"))
        assert store.evictions == 0
        assert len(store) == 3
        assert store.get("a") is not None and store.get("d") is not None

    def test_format_version_mismatch_quarantined(self, tmp_path):
        store = ChunkedResultStore(tmp_path)
        store.put("old", _payload("old"))
        # An entry of another format version, written behind the
        # store's back with the same length as the one it replaces.
        chunk = next(tmp_path.glob("chunk-*.bin"))
        data = chunk.read_bytes()
        stamp = b'"version": %d' % CACHE_FORMAT_VERSION
        assert data.count(stamp) == 1
        chunk.write_bytes(data.replace(stamp, b'"version": 9'))
        assert store.get("old") is None
        assert store.quarantined == 1
        assert "old" not in store

    def test_injected_torn_write_quarantined_on_next_read(self, tmp_path):
        result = StrategyResult(
            strategy="constant", spec_name="op", gflops=1.0,
            time_seconds=1.0, search_seconds=0.0,
        )
        cache = ResultCache(tmp_path / "store")
        injector = FaultInjector().arm("cache.corrupt_entry", times=1)
        with activate(injector):
            cache.put("k", result)
        assert injector.fired("cache.corrupt_entry") == 1
        # Same process still holds the memory-tier copy...
        assert cache.get("k") == result
        # ...but a fresh process (new cache over the same dir) finds the
        # torn entry, quarantines it and reports a clean miss.
        fresh = ResultCache(tmp_path / "store")
        assert fresh.get("k") is None
        assert fresh.reliability_stats()["quarantined"] == 1
        assert REGISTRY.counter_value("health.cache.quarantined") == 1

    def test_readonly_disk_degrades_to_memory_only_not_crash(self, tmp_path):
        """Satellite regression: a read-only cache dir must still serve.

        (Running as root makes chmod-based permission tests vacuous, so
        the EROFS comes from the injector.)
        """
        result = StrategyResult(
            strategy="constant", spec_name="op", gflops=1.0,
            time_seconds=1.0, search_seconds=0.0,
        )
        cache = ResultCache(tmp_path / "store")
        injector = FaultInjector().arm(
            "cache.put_oserror",
            error=lambda: OSError(errno.EROFS, "read-only file system"),
            times=None,
        )
        with activate(injector):
            with pytest.warns(RuntimeWarning, match="memory-only"):
                cache.put("k1", result)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the warning fires once
                cache.put("k2", result)
        stats = cache.reliability_stats()
        assert stats["degraded"] is True
        assert stats["write_errors"] == 1  # degraded puts stop touching disk
        assert REGISTRY.counter_value("health.cache.write_errors") == 1
        assert REGISTRY.counter_value("health.cache.degraded") == 1
        # Results still come back — from the memory tier.
        assert cache.get("k1") == result and cache.get("k2") == result
        assert list((tmp_path / "store").glob("chunk-*.bin")) == []

    def test_transient_write_failures_do_not_degrade(self, tmp_path):
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

    def test_disk_full_degrades_immediately(self, tmp_path):
        store = ChunkedResultStore(tmp_path)
        injector = FaultInjector().arm(
            "cache.put_oserror",
            error=lambda: OSError(errno.ENOSPC, "no space left on device"),
        )
        with activate(injector):
            with pytest.warns(RuntimeWarning, match="degraded"):
                store.put("a", _payload("a"))
        assert store.degraded is True
        store.put("b", _payload("b"))  # silently memory-only now
        assert len(store) == 0


# ----------------------------------------------------------------------
# Serving: degraded fallback, watchdog, TCP timeouts and reconnect
# ----------------------------------------------------------------------
_RELEASE = threading.Event()


@dataclass(frozen=True)
class _SlowProbe:
    """Stalls each solve until released (or ``delay_s`` passes)."""

    name: str = field(default="slow-probe", init=False)
    delay_s: float = 0.5
    gflops: float = 2.0

    def search(self, spec, machine):
        _RELEASE.wait(self.delay_s)
        return StrategyResult(
            strategy=self.name,
            spec_name=spec.name,
            gflops=self.gflops,
            time_seconds=spec.flops / (self.gflops * 1e9),
            search_seconds=self.delay_s,
        )

    def cache_token(self):
        return {"delay_s": self.delay_s, "gflops": self.gflops}


@dataclass(frozen=True)
class _FastProbe:
    """Instant fallback answering with visibly different numbers."""

    name: str = field(default="fast-probe", init=False)
    gflops: float = 1.0

    def search(self, spec, machine):
        return StrategyResult(
            strategy=self.name,
            spec_name=spec.name,
            gflops=self.gflops,
            time_seconds=spec.flops / (self.gflops * 1e9),
            search_seconds=0.0,
        )

    def cache_token(self):
        return {"gflops": self.gflops}


@pytest.fixture
def _probes():
    strategy_registry.register("slow-probe", _SlowProbe)
    strategy_registry.register("fast-probe", _FastProbe)
    _RELEASE.clear()
    yield
    _RELEASE.set()
    strategy_registry._factories.pop("slow-probe", None)
    strategy_registry._factories.pop("fast-probe", None)
    _RELEASE.clear()


@pytest.mark.serving
@pytest.mark.usefixtures("_probes")
class TestServingChaos:
    def test_budget_overrun_degrades_to_fallback_strategy(self, machine):
        async def scenario():
            config = ServerConfig(
                workers=1, solve_timeout_s=0.05, fallback_strategy="fast-probe"
            )
            async with OptimizationServer(
                machine, "slow-probe", config=config
            ) as server:
                client = ServingClient(server)
                response = await client.optimize([SPEC])
                _RELEASE.set()  # let the abandoned primary finish fast
                return server, response

        server, response = run(scenario())
        assert response.degraded is True
        assert response.strategy == "fast-probe"
        assert response.operators[0].gflops == 1.0  # the fallback's answer
        assert server.stats.degraded == 1
        assert server.stats.completed == 1 and server.stats.expired == 0
        assert REGISTRY.counter_value("health.serving.degraded") == 1
        snapshot = server.stats_snapshot()
        assert snapshot["reliability"]["serving.degraded"] == 1
        assert "cache" in snapshot["reliability"]

    def test_degraded_flag_survives_wire_roundtrip(self):
        response = OptimizeResponse(
            request_id="r1", network="custom", strategy="fast-probe",
            machine="tiny", num_operators=1, distinct_operators=1,
            cache_hits=0, coalesced=0, total_time_seconds=0.1,
            total_gflops=1.0, queued_s=0.0, service_s=0.1,
            operators=(), degraded=True,
        )
        assert OptimizeResponse.from_dict(response.to_dict()).degraded is True
        # Pre-PR payloads without the field default to a healthy response.
        legacy = dict(response.to_dict())
        del legacy["degraded"]
        assert OptimizeResponse.from_dict(legacy).degraded is False

    def test_watchdog_expires_hung_inflight_request(self, machine):
        async def scenario():
            config = ServerConfig(workers=1, watchdog_interval_s=0.02)
            async with OptimizationServer(
                machine, "slow-probe", config=config
            ) as server:
                handle = server.submit(OptimizeRequest((SPEC,)))
                await asyncio.sleep(0.05)  # claimed; solve is stalled
                # Simulate a hung request: its deadline passes while the
                # worker is stuck inside the solve race.
                handle.expires_at = time.monotonic() - 0.001
                with pytest.raises(DeadlineExpiredError, match="watchdog"):
                    await asyncio.wait_for(handle.result(), timeout=2.0)
                _RELEASE.set()
                return server

        server = run(scenario())
        assert server.stats.watchdog_failed == 1
        assert server.stats.expired == 1
        assert REGISTRY.counter_value("health.serving.watchdog_failures") == 1

    def test_tcp_client_read_timeout_raises_not_hangs(self, machine):
        async def scenario():
            async with OptimizationServer(machine, "slow-probe") as server:
                tcp = await start_tcp_server(server, "127.0.0.1", 0)
                port = tcp.sockets[0].getsockname()[1]
                try:
                    async with await TCPServingClient.connect(
                        "127.0.0.1", port, timeout_s=0.15
                    ) as client:
                        with pytest.raises(ServingTimeoutError, match="no event"):
                            await client.optimize([SPEC])
                finally:
                    _RELEASE.set()
                    tcp.close()
                    await tcp.wait_closed()

        run(scenario())

    def test_tcp_client_reconnects_and_resends_on_policy(self, machine):
        async def scenario():
            async with OptimizationServer(machine, "slow-probe") as server:
                tcp = await start_tcp_server(server, "127.0.0.1", 0)
                port = tcp.sockets[0].getsockname()[1]
                try:
                    policy = RetryPolicy(
                        max_attempts=5, base_delay_s=0.01, jitter=0.0
                    )
                    async with await TCPServingClient.connect(
                        "127.0.0.1", port, timeout_s=0.3, reconnect=policy
                    ) as client:
                        release = asyncio.get_running_loop().call_later(
                            0.5, _RELEASE.set
                        )
                        try:
                            response = await client.optimize([SPEC])
                        finally:
                            release.cancel()
                            _RELEASE.set()
                        return client.reconnects, response
                finally:
                    tcp.close()
                    await tcp.wait_closed()

        reconnects, response = run(scenario())
        # The first attempt stalls past timeout_s; the policy reopens
        # the connection and the resent request succeeds (idempotent:
        # the re-solve coalesces onto the shared cache/single-flight).
        assert reconnects >= 1
        assert REGISTRY.counter_value("health.tcp.reconnects") == reconnects
        assert response.num_operators == 1
        assert response.strategy == "slow-probe"

    def test_tcp_client_timeout_defaults(self, machine):
        async def scenario():
            async with OptimizationServer(machine, "fast-probe") as server:
                tcp = await start_tcp_server(server, "127.0.0.1", 0)
                port = tcp.sockets[0].getsockname()[1]
                try:
                    async with await TCPServingClient.connect(
                        "127.0.0.1", port
                    ) as client:
                        return (
                            client.timeout_s,
                            client.reconnect,
                            await client.optimize([SPEC]),
                        )
                finally:
                    tcp.close()
                    await tcp.wait_closed()

        timeout_s, reconnect, response = run(scenario())
        assert timeout_s == 30.0  # sensible default, not None
        assert reconnect is None  # reconnect is strictly opt-in
        assert response.num_operators == 1


# ----------------------------------------------------------------------
# DSE: poisoned candidates
# ----------------------------------------------------------------------
def _tiny_space():
    return DesignSpace(
        "tiny",
        [
            axis_values("caches.L2.capacity_bytes", [32 * KiB, 64 * KiB]),
            axis_values("cores", [2, 4]),
        ],
    )


def _explore(**kwargs):
    kwargs.setdefault("strategy", "onednn")
    kwargs.setdefault("strategy_options", {"threads": 2})
    return explore(_tiny_space(), ("resnet18/R12",), **kwargs)


class TestSweepChaos:
    def test_poisoned_candidate_isolated_and_resume_stays_warm(self, tmp_path):
        progress = tmp_path / "sweep.jsonl"
        injector = FaultInjector().arm(
            "dse.evaluate", error=RuntimeError("poisoned candidate"), times=1
        )
        with activate(injector):
            result = _explore(progress=progress)
        assert injector.fired("dse.evaluate") == 1
        assert result.num_candidates == 4
        assert result.failures == 1
        assert REGISTRY.counter_value("health.dse.candidate_failures") == 1
        [failed] = result.failed_outcomes()
        assert failed.status == "failed"
        assert "RuntimeError: poisoned candidate" in failed.error
        assert failed not in result.frontier()
        assert result.best().status == "ok"
        # Warm resume: the failed record was persisted too — nothing
        # re-evaluates, and the failure is still visible.
        resumed = _explore(progress=progress)
        assert resumed.resumed == 4 and resumed.evaluated == 0
        assert resumed.failures == 1
        assert {o.machine_digest for o in resumed.outcomes} == {
            o.machine_digest for o in result.outcomes
        }

    def test_retry_policy_recovers_flaky_candidate(self):
        injector = FaultInjector().arm(
            "dse.evaluate", error=OSError("flaky evaluator"), times=2
        )
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)
        with activate(injector):
            result = _explore(retry=policy)
        assert result.failures == 0
        assert sum(o.retries for o in result.outcomes) == 2
        assert REGISTRY.counter_value("health.dse.candidate_retries") == 2

    def test_session_explore_passes_reliability_knobs(self):
        from repro.dse import TooManyFailuresError

        session = Session(tiny_test_machine(), "onednn",
                          strategy_options={"threads": 2})
        injector = FaultInjector().arm(
            "dse.evaluate", error=RuntimeError("boom"), times=None
        )
        with activate(injector):
            with pytest.raises(TooManyFailuresError):
                session.explore(
                    _tiny_space(), ("resnet18/R12",), max_failures=0
                )


# ----------------------------------------------------------------------
# Acceptance: kill a worker AND corrupt an entry during one optimize
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestAcceptanceScenario:
    def test_faulted_resnet18_bitwise_identical_with_counters(
        self, machine, tmp_path
    ):
        options = {
            "settings": _settings(class_workers=2),
            "measure": False,
        }
        baseline = Session(
            machine, "mopt", strategy_options=options,
            cache=tmp_path / "clean",
        ).optimize("resnet18")

        session = Session(
            machine, "mopt", strategy_options=options,
            cache=tmp_path / "faulted",
        )
        injector = (
            FaultInjector()
            .arm("solve_pool.kill_worker", times=1)
            .arm("cache.corrupt_entry", times=1)
        )
        with activate(injector):
            # Cold run: one pool worker dies mid-batch (rebuild path)
            # and the first result written to disk is torn.
            cold = session.optimize("resnet18")
            # Drop the memory tier so the warm pass reads the disk store
            # and trips over the torn entry (quarantine + re-solve).
            session.cache.clear()
            warm = session.optimize("resnet18")
        assert injector.fired("solve_pool.kill_worker") == 1
        assert injector.fired("cache.corrupt_entry") == 1

        def table(result):
            return [
                (op.name, op.gflops, op.time_seconds) for op in result.operators
            ]

        assert table(cold) == table(baseline)
        assert table(warm) == table(baseline)
        assert cold.total_time_seconds == baseline.total_time_seconds

        stats = session.performance_stats()
        assert stats["reliability"]["pool_rebuilds"] >= 1
        assert stats["reliability"]["cache"]["quarantined"] >= 1
        assert stats["reliability"]["cache"]["degraded"] is False
        # The quarantined shape was re-solved, the other 11 came warm
        # off the disk tier.
        assert warm.cache_hits == warm.num_operators - 1
        assert stats["reliability"]["cache"]["quarantined"] == 1


# ----------------------------------------------------------------------
# Health counters surface everywhere they should
# ----------------------------------------------------------------------
class TestHealthSurfacing:
    def test_session_performance_stats_reliability_block(self, machine):
        session = Session(machine, "onednn", strategy_options={"threads": 2})
        stats = session.performance_stats()
        assert stats["reliability"]["cache"] == {
            "quarantined": 0, "write_errors": 0, "degraded": False,
        }

    def test_counters_fold_into_snapshot(self):
        REGISTRY.counter("health.pool_rebuilds").inc()
        REGISTRY.counter("health.cache.quarantined").inc(3)
        counters = REGISTRY.collect("reliability")
        assert counters["pool_rebuilds"] == 1
        assert counters["cache.quarantined"] == 3
