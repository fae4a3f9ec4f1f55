"""Tests for the async serving front-end (repro.serving).

Covers the wire protocol (round-trips), the bounded priority queue, and
the server end to end: request / response round-trip, coalescing of
identical in-flight requests (verified by the solve-count probe; a
follower holds no pool thread), the back-pressure rejection path,
deadline expiry (queued and mid-flight), the warm-cache latency bound,
the TCP transport, and the acceptance demo — 8+ concurrent clients
requesting overlapping Table 1 networks with every duplicate operator
solved exactly once and warm requests under 50 ms end to end.

All asyncio tests drive their own event loop through ``asyncio.run``
(the environment has no pytest-asyncio), and use a controllable stub
strategy so timing-sensitive behavior (coalescing windows, queue
saturation) is deterministic and fast.
"""

import asyncio
import dataclasses
import gc
import json
import threading
import time
from dataclasses import dataclass, field

import pytest

from repro.engine import (
    NetworkOptimizer,
    ResultCache,
    StrategyResult,
    strategy_registry,
)
from repro.experiments.serving_demo import run_serving_demo
from repro.machine.presets import tiny_test_machine
from repro.serving import (
    AcceptedEvent,
    BoundedRequestQueue,
    CompletedEvent,
    DeadlineExpiredError,
    OperatorEvent,
    OptimizationServer,
    OptimizeRequest,
    OptimizeResponse,
    QueueFullError,
    RequestFailedError,
    ServerConfig,
    ServerOverloadedError,
    ServingClient,
    TCPServingClient,
    collect_operator_events,
    decode_message,
    encode_message,
    event_from_dict,
    event_to_dict,
    start_tcp_server,
)
from repro.serving.protocol import FailedEvent, RejectedEvent

pytestmark = pytest.mark.serving


# ----------------------------------------------------------------------
# Instrumented stub strategy
# ----------------------------------------------------------------------
_SOLVE_LOCK = threading.Lock()
_SOLVE_LOG: list = []


@dataclass(frozen=True)
class ProbeStrategy:
    """Deterministic fixed-output strategy with a controllable delay.

    Every actual ``search`` invocation is appended to a global log, so
    tests can assert exactly how many solves happened (and for what)
    regardless of which thread ran them.
    """

    name: str = field(default="probe", init=False)
    delay_s: float = 0.0
    gflops: float = 2.0
    fail_on: str = ""

    def search(self, spec, machine):
        with _SOLVE_LOCK:
            _SOLVE_LOG.append(spec.name)
        if self.fail_on and spec.name == self.fail_on:
            raise RuntimeError(f"injected failure for {spec.name}")
        if self.delay_s:
            time.sleep(self.delay_s)
        return StrategyResult(
            strategy=self.name,
            spec_name=spec.name,
            gflops=self.gflops,
            time_seconds=spec.flops / (self.gflops * 1e9),
            search_seconds=self.delay_s,
        )

    def cache_token(self):
        return {
            "delay_s": self.delay_s,
            "gflops": self.gflops,
            "fail_on": self.fail_on,
        }


@pytest.fixture(autouse=True)
def _probe_registry():
    strategy_registry.register("probe", ProbeStrategy)
    with _SOLVE_LOCK:
        _SOLVE_LOG.clear()
    yield
    strategy_registry._factories.pop("probe", None)


@pytest.fixture
def machine():
    return tiny_test_machine()


def run(coro):
    return asyncio.run(coro)


def _server(machine, *, cache=None, config=None, **strategy_options):
    return OptimizationServer(
        machine,
        "probe",
        strategy_options=strategy_options,
        cache=cache,
        config=config,
    )


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_request_roundtrip_by_name(self):
        request = OptimizeRequest(
            "resnet18", strategy="mopt", strategy_options={"threads": 4},
            priority=3, deadline_s=1.5,
        )
        rebuilt = OptimizeRequest.from_dict(
            decode_message(encode_message(request.to_dict()))
        )
        assert rebuilt == request

    def test_request_roundtrip_with_specs(self, small_spec, pointwise_spec):
        request = OptimizeRequest((small_spec, pointwise_spec))
        rebuilt = OptimizeRequest.from_dict(request.to_dict())
        assert rebuilt.network == (small_spec, pointwise_spec)

    def test_event_roundtrips(self):
        response = OptimizeResponse(
            request_id="r1", network="resnet18", strategy="probe",
            machine="tiny", num_operators=2, distinct_operators=2,
            cache_hits=1, coalesced=0, total_time_seconds=0.5,
            total_gflops=3.0, queued_s=0.01, service_s=0.2,
            operators=(),
        )
        events = [
            AcceptedEvent(request_id="r1", queue_depth=2),
            RejectedEvent(request_id="r1", reason="queue full", retry_after_s=0.5),
            OperatorEvent(
                request_id="r1", operator="R2", index=1, total=12,
                gflops=2.0, time_seconds=0.1, cached=False, coalesced=True,
            ),
            CompletedEvent(request_id="r1", response=response),
            FailedEvent(request_id="r1", error="boom"),
        ]
        for event in events:
            payload = event_to_dict(event)
            # The frame bytes are those of json.dumps with sorted keys.
            assert encode_message(payload) == (
                json.dumps(payload, sort_keys=True) + "\n"
            ).encode("utf-8")
            rebuilt = event_from_dict(decode_message(encode_message(payload)))
            assert rebuilt == event

    def test_terminal_flags(self):
        assert not AcceptedEvent(request_id="x", queue_depth=1).terminal
        assert RejectedEvent(request_id="x", reason="", retry_after_s=1.0).terminal
        assert FailedEvent(request_id="x", error="e").terminal

    def test_unknown_event_type_rejected(self):
        with pytest.raises(ValueError, match="unknown event type"):
            event_from_dict({"type": "nonsense"})

    def test_request_ids_unique(self):
        ids = {OptimizeRequest("resnet18").request_id for _ in range(50)}
        assert len(ids) == 50


# ----------------------------------------------------------------------
# Queue
# ----------------------------------------------------------------------
class TestBoundedRequestQueue:
    def test_priority_order_fifo_within_priority(self):
        async def scenario():
            queue = BoundedRequestQueue(8)
            queue.put_nowait("low-a", priority=10)
            queue.put_nowait("high", priority=1)
            queue.put_nowait("low-b", priority=10)
            order = [(await queue.get())[0] for _ in range(3)]
            return order

        assert run(scenario()) == ["high", "low-a", "low-b"]

    def test_bounded_rejection_with_retry_hint(self):
        async def scenario():
            queue = BoundedRequestQueue(2, retry_after_s=0.1)
            queue.put_nowait("a")
            queue.put_nowait("b")
            with pytest.raises(QueueFullError) as excinfo:
                queue.put_nowait("c")
            return queue, excinfo.value

        queue, error = run(scenario())
        assert error.retry_after_s > 0
        assert queue.rejected == 1 and queue.accepted == 2

    def test_expired_entries_never_reach_a_worker(self):
        async def scenario():
            queue = BoundedRequestQueue(8)
            expired = []
            queue.put_nowait("dead", deadline_s=-1.0)  # already expired
            queue.put_nowait("alive")
            item, _ = await queue.get(on_expired=lambda item, over: expired.append(item))
            return item, expired, queue.expired

        item, expired, count = run(scenario())
        assert item == "alive"
        assert expired == ["dead"] and count == 1

    def test_get_waits_for_put(self):
        async def scenario():
            queue = BoundedRequestQueue(4)

            async def feeder():
                await asyncio.sleep(0.01)
                queue.put_nowait("late")

            feeding = asyncio.ensure_future(feeder())
            item, _ = await queue.get()
            await feeding
            return item

        assert run(scenario()) == "late"

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            BoundedRequestQueue(0)

    def test_full_queue_of_expired_entries_admits_live_traffic(self):
        async def scenario():
            expired = []
            queue = BoundedRequestQueue(
                2, on_expired=lambda item, over: expired.append(item)
            )
            queue.put_nowait("dead-a", deadline_s=-1.0)
            queue.put_nowait("dead-b", deadline_s=-1.0)
            # The queue looks full, but both slots are held by dead
            # requests: admission must purge them instead of rejecting.
            queue.put_nowait("alive")
            item, _ = await queue.get()
            return item, expired, queue

        item, expired, queue = run(scenario())
        assert item == "alive"
        assert sorted(expired) == ["dead-a", "dead-b"]
        assert queue.rejected == 0 and queue.expired == 2


# ----------------------------------------------------------------------
# Server end to end
# ----------------------------------------------------------------------
class TestServerRoundTrip:
    def test_response_matches_sync_engine(self, machine):
        async def scenario():
            async with _server(machine) as server:
                client = ServingClient(server)
                return await client.optimize("mobilenet")

        response = run(scenario())
        reference = NetworkOptimizer(machine, "probe").optimize("mobilenet")
        assert response.network == "mobilenet"
        assert response.num_operators == reference.num_operators
        assert response.distinct_operators == reference.distinct_operators
        assert response.total_gflops == pytest.approx(reference.total_gflops)
        assert response.total_time_seconds == pytest.approx(
            reference.total_time_seconds
        )

    def test_streams_one_operator_event_per_layer(self, machine):
        async def scenario():
            events = []
            async with _server(machine) as server:
                client = ServingClient(server)
                await client.optimize("resnet18", on_event=events.append)
            return events

        events = run(scenario())
        assert isinstance(events[0], AcceptedEvent)
        assert isinstance(events[-1], CompletedEvent)
        operators = collect_operator_events(events)
        assert len(operators) == 12  # one per ResNet-18 layer
        assert {e.operator for e in operators} == {f"R{i}" for i in range(1, 13)}
        assert all(e.total == 12 for e in operators)

    def test_explicit_spec_list_round_trip(self, machine, small_spec):
        async def scenario():
            async with _server(machine) as server:
                client = ServingClient(server)
                return await client.optimize([small_spec])

        response = run(scenario())
        assert response.network == "custom"
        assert response.operators[0].name == "small"

    def test_bad_network_fails_at_submission(self, machine):
        async def scenario():
            async with _server(machine) as server:
                with pytest.raises(KeyError):
                    server.submit(OptimizeRequest("no-such-network"))

        run(scenario())

    def test_strategy_failure_reaches_client(self, machine):
        async def scenario():
            async with _server(machine, fail_on="R1") as server:
                client = ServingClient(server)
                with pytest.raises(RequestFailedError, match="injected failure"):
                    await client.optimize("resnet18")

        run(scenario())

    def test_submit_requires_running_server(self, machine):
        server = _server(machine)
        with pytest.raises(RuntimeError, match="not running"):
            server.submit(OptimizeRequest("resnet18"))


class TestCoalescing:
    def test_identical_inflight_requests_share_one_solve(self, machine):
        async def scenario():
            async with _server(machine, delay_s=0.02) as server:
                client = ServingClient(server)
                responses = await client.optimize_many(["mobilenet"] * 6)
                return server, responses

        server, responses = run(scenario())
        # MobileNet has 9 distinct shapes: exactly 9 solves total for
        # 6 concurrent requests, and the probe log agrees.
        assert server.stats.solves == 9
        assert len(_SOLVE_LOG) == 9
        assert server.duplicate_solves() == 0
        assert all(r.num_operators == 9 for r in responses)
        # Followers observed coalesced operators.
        assert sum(r.coalesced for r in responses) > 0

    def test_overlapping_networks_share_operator_solves(self, machine):
        async def scenario():
            async with _server(machine, delay_s=0.02) as server:
                client = ServingClient(server)
                # resnet18 twice + its first four layers as a custom
                # network: the subset's shapes are all shared.
                from repro.workloads.benchmarks import network_benchmarks

                head = network_benchmarks("resnet18")[:4]
                await asyncio.gather(
                    client.optimize("resnet18"),
                    client.optimize("resnet18"),
                    client.optimize(head),
                )
                return server

        server = run(scenario())
        assert server.stats.solves == 12  # distinct resnet18 shapes only
        assert server.duplicate_solves() == 0

    def test_follower_holds_no_pool_thread(
        self, machine, small_spec, pointwise_spec, tmp_path
    ):
        """One solve thread; a slow miss and its coalesced duplicate are in
        flight.  The follower queued nothing on the pool, and a third
        request whose operator is on disk completes while the leader's
        solve still holds the only thread: its disk lookup runs on the
        event loop, not behind the solve."""
        started, gate = threading.Event(), threading.Event()

        @dataclass(frozen=True)
        class GatedStrategy(ProbeStrategy):
            def search(self, spec, machine):
                started.set()
                assert gate.wait(10), "the gate never opened"
                return super().search(spec, machine)

        strategy = GatedStrategy()
        cache = ResultCache(tmp_path)
        stored = StrategyResult(
            strategy="probe", spec_name=pointwise_spec.name, gflops=3.0,
            time_seconds=1.0, search_seconds=0.0,
        )
        key = cache.key_for(pointwise_spec, machine, strategy)
        cache.disk.put(key, stored.to_dict())

        async def until(condition):
            for _ in range(2000):
                if condition():
                    return
                await asyncio.sleep(0.005)
            raise AssertionError("timed out")

        async def scenario():
            config = ServerConfig(workers=4, solve_threads=1)
            server = OptimizationServer(machine, strategy, cache=cache, config=config)
            async with server:
                slow = server.submit(OptimizeRequest((small_spec,)))
                duplicate = server.submit(OptimizeRequest((small_spec,)))
                await until(lambda: server.stats.operators_coalesced == 1)
                await until(started.is_set)
                # The leader's solve holds the one pool thread, and the
                # follower queued no job behind it.
                assert server._pool._work_queue.empty()
                on_disk = server.submit(OptimizeRequest((pointwise_spec,)))
                try:
                    answered = await asyncio.wait_for(on_disk.result(), 5)
                finally:
                    gate.set()
                responses = await asyncio.wait_for(
                    asyncio.gather(slow.result(), duplicate.result()), 10
                )
                return server, (*responses, answered)

        try:
            server, (slow, duplicate, on_disk) = run(scenario())
        finally:
            cache.disk.close()
        assert sorted([slow.coalesced, duplicate.coalesced]) == [0, 1]
        assert on_disk.cache_hits == 1
        assert server.stats.solves == 1
        assert server.duplicate_solves() == 0

    def test_sequential_requests_hit_cache_not_singleflight(self, machine):
        async def scenario():
            async with _server(machine) as server:
                client = ServingClient(server)
                first = await client.optimize("mobilenet")
                second = await client.optimize("mobilenet")
                return server, first, second

        server, first, second = run(scenario())
        assert server.stats.solves == 9
        assert second.cache_hits == second.distinct_operators == 9
        assert first.total_gflops == pytest.approx(second.total_gflops)


class TestBackPressure:
    def test_overloaded_submission_rejected_with_retry_hint(
        self, machine, small_spec, pointwise_spec, strided_spec
    ):
        async def scenario():
            config = ServerConfig(
                max_queue_depth=1, workers=1, solve_threads=1, retry_after_s=0.05
            )
            async with _server(machine, delay_s=0.2, config=config) as server:
                client = ServingClient(server, max_retries=0)
                # Occupy the worker, then fill the queue.
                first = asyncio.ensure_future(client.optimize([small_spec]))
                await asyncio.sleep(0.05)  # worker claimed `first`
                server.submit(OptimizeRequest((pointwise_spec,)))  # fills depth 1
                with pytest.raises(ServerOverloadedError) as excinfo:
                    await client.optimize([strided_spec])
                error = excinfo.value
                assert error.retry_after_s > 0
                await first
                return server, error

        server, error = run(scenario())
        assert server.stats.rejected >= 1

    def test_client_retry_eventually_succeeds(self, machine, small_spec):
        async def scenario():
            config = ServerConfig(
                max_queue_depth=1, workers=1, solve_threads=1, retry_after_s=0.02
            )
            async with _server(machine, delay_s=0.05, config=config) as server:
                client = ServingClient(server, max_retries=50)
                responses = await asyncio.gather(
                    *(client.optimize([small_spec]) for _ in range(4))
                )
                return server, client, responses

        server, client, responses = run(scenario())
        assert len(responses) == 4
        assert all(r.num_operators == 1 for r in responses)
        # With depth 1 and four concurrent clients, someone was pushed back.
        assert client.rejections > 0

    def test_cached_request_is_answered_while_the_queue_is_full(
        self, machine, small_spec, pointwise_spec, strided_spec, tmp_path
    ):
        """While a gated solve holds the only worker and a second cold
        request fills the queue, a request whose operators are all cached
        is answered at admission, in-process and over TCP, and is not
        rejected: from the memory tier, and from the store under a fresh
        cache's empty memory tier."""
        gate = threading.Event()
        solving = threading.Event()

        @dataclass(frozen=True)
        class GatedStrategy(ProbeStrategy):
            def search(self, spec, machine):
                solving.set()
                assert gate.wait(10), "the gate never opened"
                return super().search(spec, machine)

        config = ServerConfig(max_queue_depth=1, workers=1, solve_threads=1)
        warm = (small_spec,)

        async def scenario(cache, warm_up, cold):
            async with OptimizationServer(
                machine, GatedStrategy(), cache=cache, config=config
            ) as server:
                if warm_up:
                    gate.set()
                    await server.submit(OptimizeRequest(warm)).result()
                gate.clear()
                solving.clear()
                tcp = await start_tcp_server(server, "127.0.0.1", 0)
                port = tcp.sockets[0].getsockname()[1]
                streams = [[], []]
                try:
                    blocker = server.submit(OptimizeRequest(cold[:1]))
                    async with asyncio.timeout(5.0):
                        while not solving.is_set():
                            await asyncio.sleep(0.005)
                    queued = server.submit(OptimizeRequest(cold[1:]))
                    assert server.queue_depth == 1
                    await ServingClient(server, max_retries=0).optimize(
                        warm, on_event=streams[0].append
                    )
                    async with await TCPServingClient.connect(
                        "127.0.0.1", port, max_retries=0
                    ) as client:
                        await client.optimize(warm, on_event=streams[1].append)
                    rejected = server.stats.rejected
                finally:
                    gate.set()
                    tcp.close()
                    await tcp.wait_closed()
                await blocker.result()
                await queued.result()
                return streams, rejected

        # The first cache solves `warm` and fills its store, then answers
        # it from memory; a fresh cache over that store starts with an
        # empty memory tier, so the store answers.  Each input gates its
        # own cold operators: the first input's are in the store by then.
        inputs = [
            (True, (pointwise_spec, strided_spec)),
            (False, tuple(_variants(pointwise_spec, 2))),
        ]
        for warm_up, cold in inputs:
            cache = ResultCache(tmp_path)
            try:
                streams, rejected = run(scenario(cache, warm_up, cold))
            finally:
                cache.close()
            assert rejected == 0
            for events in streams:
                assert [type(event) for event in events] == [
                    AcceptedEvent, OperatorEvent, CompletedEvent
                ]
                assert events[0].queue_depth == 1
                assert events[1].cached is True
            if not warm_up:
                assert cache.stats.disk_hits == 1


class TestDeadlines:
    def test_queued_request_expires(self, machine, small_spec, pointwise_spec):
        async def scenario():
            config = ServerConfig(max_queue_depth=8, workers=1, solve_threads=1)
            async with _server(machine, delay_s=0.2, config=config) as server:
                client = ServingClient(server)
                blocker = asyncio.ensure_future(client.optimize([small_spec]))
                await asyncio.sleep(0.05)  # worker busy with `blocker`
                with pytest.raises(DeadlineExpiredError):
                    await client.optimize([pointwise_spec], deadline_s=0.01)
                await blocker
                return server

        server = run(scenario())
        assert server.stats.expired >= 1

    def test_midflight_deadline_expires(self, machine, small_spec, pointwise_spec):
        async def scenario():
            async with _server(machine, delay_s=0.3) as server:
                client = ServingClient(server)
                with pytest.raises(DeadlineExpiredError):
                    # Claimed immediately, but the solves outlive the budget.
                    await client.optimize(
                        [small_spec, pointwise_spec], deadline_s=0.05
                    )
                return server

        server = run(scenario())
        assert server.stats.expired >= 1

    def test_expired_event_is_terminal_on_stream(
        self, machine, small_spec, pointwise_spec
    ):
        async def scenario():
            config = ServerConfig(max_queue_depth=8, workers=1, solve_threads=1)
            async with _server(machine, delay_s=0.2, config=config) as server:
                client = ServingClient(server)
                blocker = asyncio.ensure_future(client.optimize([small_spec]))
                await asyncio.sleep(0.05)
                handle = server.submit(
                    OptimizeRequest((pointwise_spec,), deadline_s=0.01)
                )
                events = [event async for event in handle.events()]
                with pytest.raises(DeadlineExpiredError):
                    await handle.result()
                await blocker
                return events

        events = run(scenario())
        assert events[-1].type == "expired"
        assert events[-1].terminal


class TestWarmLatency:
    def test_warm_request_under_50ms(self, machine, tmp_path):
        async def scenario():
            cache = ResultCache(tmp_path / "serving-cache")
            async with _server(machine, cache=cache) as server:
                client = ServingClient(server)
                await client.optimize("resnet18")  # cold fill
                begin = time.perf_counter()
                response = await client.optimize("resnet18")
                elapsed = time.perf_counter() - begin
                return response, elapsed

        response, elapsed = run(scenario())
        assert response.cache_hits == response.distinct_operators
        assert elapsed < 0.050, f"warm request took {elapsed * 1e3:.1f} ms"

    def test_fresh_server_serves_warm_from_disk(self, machine, tmp_path):
        async def scenario():
            cache = ResultCache(tmp_path / "serving-cache")
            async with _server(machine, cache=cache) as server:
                await ServingClient(server).optimize("mobilenet")
            # New server over the same store: no solves needed.
            cache2 = ResultCache(tmp_path / "serving-cache")
            async with _server(machine, cache=cache2) as server2:
                response = await ServingClient(server2).optimize("mobilenet")
                return server2, response

        server2, response = run(scenario())
        assert server2.stats.solves == 0
        assert response.cache_hits == response.distinct_operators == 9


class TestLifecycle:
    def test_stop_fails_queued_and_midflight_requests(
        self, machine, small_spec, pointwise_spec
    ):
        async def scenario():
            config = ServerConfig(max_queue_depth=8, workers=1, solve_threads=1)
            server = _server(machine, delay_s=0.5, config=config)
            await server.start()
            client = ServingClient(server)
            midflight = asyncio.ensure_future(client.optimize([small_spec]))
            await asyncio.sleep(0.05)  # worker claimed it
            queued = asyncio.ensure_future(client.optimize([pointwise_spec]))
            await asyncio.sleep(0.01)
            assert len(server.active_requests) == 2
            await server.stop()
            outcomes = await asyncio.gather(
                midflight, queued, return_exceptions=True
            )
            return server, outcomes

        server, outcomes = run(scenario())
        assert all(isinstance(o, RequestFailedError) for o in outcomes)
        assert server.active_requests == ()

    def test_start_is_idempotent(self, machine):
        async def scenario():
            server = _server(machine)
            await server.start()
            await server.start()  # no-op
            response = await ServingClient(server).optimize("mobilenet")
            await server.stop()
            await server.stop()  # no-op
            return response

        assert run(scenario()).num_operators == 9

    def test_stop_closes_a_cache_resolved_from_a_path(self, machine, tmp_path):
        """A server given a directory owns the store it opens there and
        closes it on stop; a cache object passed in stays open."""

        async def scenario():
            passed = ResultCache(tmp_path / "passed")
            handles = []
            for cache in (tmp_path / "owned", passed):
                async with _server(machine, cache=cache) as server:
                    await ServingClient(server).optimize("mobilenet")
                    assert server.cache.disk._handle is not None
                handles.append(server.cache.disk._handle)
            passed.close()
            return handles

        owned, passed = run(scenario())
        assert owned is None
        assert passed is not None


# ----------------------------------------------------------------------
# TCP transport
# ----------------------------------------------------------------------
class TestTCPTransport:
    def test_round_trip_and_streaming(self, machine):
        async def scenario():
            async with _server(machine) as server:
                tcp = await start_tcp_server(server, "127.0.0.1", 0)
                port = tcp.sockets[0].getsockname()[1]
                events = []
                async with await TCPServingClient.connect("127.0.0.1", port) as client:
                    response = await client.optimize(
                        "mobilenet", on_event=events.append
                    )
                tcp.close()
                await tcp.wait_closed()
                return response, events

        response, events = run(scenario())
        assert response.num_operators == 9
        assert len(collect_operator_events(events)) == 9
        assert isinstance(events[-1], CompletedEvent)

    def test_concurrent_requests_one_connection(self, machine):
        async def scenario():
            async with _server(machine, delay_s=0.01) as server:
                tcp = await start_tcp_server(server, "127.0.0.1", 0)
                port = tcp.sockets[0].getsockname()[1]
                async with await TCPServingClient.connect("127.0.0.1", port) as client:
                    responses = await asyncio.gather(
                        client.optimize("mobilenet"),
                        client.optimize("mobilenet"),
                        client.optimize("resnet18"),
                    )
                tcp.close()
                await tcp.wait_closed()
                return server, responses

        server, responses = run(scenario())
        assert [r.num_operators for r in responses] == [9, 9, 12]
        assert server.duplicate_solves() == 0

    def test_bad_request_gets_terminal_event_not_a_hang(self, machine):
        async def scenario():
            async with _server(machine) as server:
                tcp = await start_tcp_server(server, "127.0.0.1", 0)
                port = tcp.sockets[0].getsockname()[1]
                async with await TCPServingClient.connect("127.0.0.1", port) as client:
                    # Unknown strategy option -> TypeError in the factory;
                    # the client must receive a terminal failed event.
                    with pytest.raises(RequestFailedError):
                        await asyncio.wait_for(
                            client.optimize(
                                "resnet18",
                                strategy="probe",
                                strategy_options={"bogus": 1},
                            ),
                            timeout=5.0,
                        )
                    with pytest.raises(RequestFailedError, match="unknown strategy"):
                        await asyncio.wait_for(
                            client.optimize("resnet18", strategy="no-such"),
                            timeout=5.0,
                        )
                tcp.close()
                await tcp.wait_closed()

        run(scenario())

    def test_spec_list_request_over_tcp(self, machine, small_spec):
        async def scenario():
            async with _server(machine) as server:
                tcp = await start_tcp_server(server, "127.0.0.1", 0)
                port = tcp.sockets[0].getsockname()[1]
                async with await TCPServingClient.connect("127.0.0.1", port) as client:
                    response = await client.optimize([small_spec])
                tcp.close()
                await tcp.wait_closed()
                return response

        response = run(scenario())
        assert response.network == "custom"
        assert response.operators[0].name == "small"

    def test_warm_round_trips_leave_no_reference_cycles(
        self, machine, small_spec, pointwise_spec
    ):
        """perfbench's load generator runs with the collector off, so a
        cycle per round trip would pile up as resident memory."""
        network = (small_spec, pointwise_spec)

        async def scenario():
            async with _server(machine) as server:
                tcp = await start_tcp_server(server, "127.0.0.1", 0)
                port = tcp.sockets[0].getsockname()[1]
                async with await TCPServingClient.connect("127.0.0.1", port) as client:
                    await client.optimize(network)  # solves, then warm only
                    gc.collect()
                    gc.disable()
                    try:
                        for _ in range(500):
                            await client.optimize(network)
                        unreachable = gc.collect()
                    finally:
                        gc.enable()
                tcp.close()
                await tcp.wait_closed()
                return unreachable

        assert run(scenario()) == 0

    def test_client_timeout_applies_per_event(self):
        """Events each within ``timeout_s``, together well past it, complete."""
        gap_s, timeout_s, operators = 0.1, 0.5, 8

        async def stub(reader, writer):
            request_id = decode_message(await reader.readline())["request_id"]
            events = [AcceptedEvent(request_id=request_id, queue_depth=0)]
            events += [
                OperatorEvent(
                    request_id=request_id, operator=f"op{index}", index=index,
                    total=operators, gflops=2.0, time_seconds=0.1,
                    cached=True, coalesced=False,
                )
                for index in range(operators)
            ]
            response = OptimizeResponse(
                request_id=request_id, network="custom", strategy="probe",
                machine="tiny", num_operators=operators,
                distinct_operators=operators, cache_hits=operators,
                coalesced=0, total_time_seconds=0.8, total_gflops=2.0,
                queued_s=0.0, service_s=0.9, operators=(),
            )
            events.append(CompletedEvent(request_id=request_id, response=response))
            for index, event in enumerate(events):
                if index:
                    await asyncio.sleep(gap_s)
                writer.write(encode_message(event_to_dict(event)))
                await writer.drain()
            await reader.read()  # until the client hangs up
            writer.close()

        async def scenario():
            tcp = await asyncio.start_server(stub, "127.0.0.1", 0)
            port = tcp.sockets[0].getsockname()[1]
            seen = []
            try:
                async with await TCPServingClient.connect(
                    "127.0.0.1", port, timeout_s=timeout_s
                ) as client:
                    begin = time.perf_counter()
                    response = await client.optimize("resnet18", on_event=seen.append)
                    elapsed = time.perf_counter() - begin
            finally:
                tcp.close()
                await tcp.wait_closed()
            return response, seen, elapsed

        response, seen, elapsed = run(scenario())
        assert elapsed > timeout_s
        assert response.num_operators == operators
        assert len(collect_operator_events(seen)) == operators


# ----------------------------------------------------------------------
# Wire format and the per-request task budget
# ----------------------------------------------------------------------
_TERMINAL_TYPES = {"completed", "rejected", "expired", "failed"}


async def _exchange(reader, writer, requests):
    """Send ``requests`` in one write; the raw reply lines until each is terminal."""
    writer.write(b"".join(encode_message(r.to_dict()) for r in requests))
    await writer.drain()
    lines, open_requests = [], len(requests)
    # A timeout context, not wait_for: wait_for would start tasks of its
    # own on the loop whose tasks TestTaskBudget counts.
    async with asyncio.timeout(10.0):
        while open_requests:
            line = await reader.readline()
            assert line, "server closed the connection mid-stream"
            lines.append(line)
            if decode_message(line)["type"] in _TERMINAL_TYPES:
                open_requests -= 1
    return lines


def _check_stream(lines, layers, *, cached):
    """One request's lines: Accepted, one Operator per layer, Completed."""
    events = [event_from_dict(decode_message(line)) for line in lines]
    assert isinstance(events[0], AcceptedEvent)
    assert isinstance(events[-1], CompletedEvent)
    operators = events[1:-1]
    assert all(isinstance(event, OperatorEvent) for event in operators)
    assert sorted(event.index for event in operators) == list(range(layers))
    assert all(event.cached is cached for event in operators)


def _variants(spec, count):
    return [
        dataclasses.replace(spec, name=f"v{index}", out_channels=8 * (index + 1))
        for index in range(count)
    ]


def _record_writes(monkeypatch):
    """Record every ``StreamWriter.write`` as ``(local port, payload)``.

    The server's writes are those whose local port is the listening port.
    """
    writes = []
    write = asyncio.StreamWriter.write

    def recording(writer, data):
        writes.append((writer.get_extra_info("sockname")[1], bytes(data)))
        return write(writer, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", recording)
    return writes


class TestWireFormat:
    def test_warm_and_solving_requests_send_one_line_per_event(
        self, machine, small_spec, pointwise_spec
    ):
        async def scenario():
            async with _server(machine, delay_s=0.01) as server:
                tcp = await start_tcp_server(server, "127.0.0.1", 0)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                network = (small_spec, pointwise_spec, small_spec)
                solving = await _exchange(reader, writer, [OptimizeRequest(network)])
                warm = await _exchange(reader, writer, [OptimizeRequest(network)])
                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()
                return solving, warm

        solving, warm = run(scenario())
        for lines, cached in ((solving, False), (warm, True)):
            # Each line is exactly the frame of the event it decodes to.
            for line in lines:
                event = event_from_dict(decode_message(line))
                assert line == encode_message(event_to_dict(event))
            _check_stream(lines, 3, cached=cached)

    def test_warm_request_leaves_in_one_write(
        self, machine, small_spec, pointwise_spec, monkeypatch, tmp_path
    ):
        """A request answered from the memory tier, or from the store under
        an empty memory tier, leaves in one write."""
        writes = _record_writes(monkeypatch)
        network = (small_spec, pointwise_spec, small_spec)

        async def scenario(cache, warm_up):
            async with _server(machine, cache=cache) as server:
                tcp = await start_tcp_server(server, "127.0.0.1", 0)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                if warm_up:
                    await _exchange(reader, writer, [OptimizeRequest(network)])
                del writes[:]
                warm = await _exchange(reader, writer, [OptimizeRequest(network)])
                sent = [data for local, data in writes if local == port]
                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()
                return warm, sent

        # The first cache solves and fills its store, and its second
        # request is a memory hit; a fresh cache over the same store
        # starts with an empty memory tier, so the store answers.
        runs = []
        for warm_up in (True, False):
            cache = ResultCache(tmp_path)
            try:
                runs.append(run(scenario(cache, warm_up)))
            finally:
                cache.close()
        assert cache.stats.memory_hits == 0
        assert cache.stats.disk_hits == 2
        for warm, sent in runs:
            _check_stream(warm, 3, cached=True)
            # Accepted, three Operators and Completed: one write, one drain.
            assert sent == [b"".join(warm)]

    def test_waiting_request_gets_accepted_while_its_solve_is_gated(
        self, machine, small_spec, monkeypatch
    ):
        gate = threading.Event()

        @dataclass(frozen=True)
        class GatedStrategy(ProbeStrategy):
            def search(self, spec, machine):
                assert gate.wait(10), "the gate never opened"
                return super().search(spec, machine)

        writes = _record_writes(monkeypatch)

        async def scenario():
            async with OptimizationServer(machine, GatedStrategy()) as server:
                tcp = await start_tcp_server(server, "127.0.0.1", 0)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(encode_message(OptimizeRequest((small_spec,)).to_dict()))
                await writer.drain()
                try:
                    # The solve cannot end before the gate opens, so the
                    # Accepted line must not wait for it.
                    async with asyncio.timeout(5.0):
                        lines = [await reader.readline()]
                    sent_while_gated = [data for local, data in writes if local == port]
                finally:
                    gate.set()
                async with asyncio.timeout(10.0):
                    while decode_message(lines[-1])["type"] not in _TERMINAL_TYPES:
                        lines.append(await reader.readline())
                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()
                return lines, sent_while_gated

        lines, sent_while_gated = run(scenario())
        _check_stream(lines, 1, cached=False)
        assert sent_while_gated == [lines[0]]

    def test_eight_inflight_requests_never_interleave_frames(
        self, machine, small_spec
    ):
        warm_specs = _variants(small_spec, 3)
        cold_specs = _variants(dataclasses.replace(small_spec, in_channels=8), 4)
        requests = [
            OptimizeRequest((warm_specs[index % 3], cold_specs[index % 4]))
            if index % 2
            else OptimizeRequest(tuple(warm_specs[: 1 + index % 3]))
            for index in range(8)
        ]

        async def scenario():
            async with _server(machine, delay_s=0.01) as server:
                tcp = await start_tcp_server(server, "127.0.0.1", 0)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                await _exchange(reader, writer, [OptimizeRequest(tuple(warm_specs))])
                lines = await _exchange(reader, writer, requests)
                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()
                return lines

        lines = run(scenario())
        by_request = {request.request_id: [] for request in requests}
        for line in lines:
            # A byte of another frame inside this one would break the
            # decode or the byte-equal re-encoding.
            event = event_from_dict(decode_message(line))
            assert line == encode_message(event_to_dict(event))
            by_request[event.request_id].append(line)
        for index, request in enumerate(requests):
            stream = by_request[request.request_id]
            if index % 2:
                events = [event_from_dict(decode_message(line)) for line in stream]
                assert isinstance(events[0], AcceptedEvent)
                assert isinstance(events[-1], CompletedEvent)
                assert len(collect_operator_events(events)) == 2
            else:
                _check_stream(stream, 1 + index % 3, cached=True)

    def test_non_object_line_gets_a_failed_event_and_keeps_the_connection(
        self, machine, small_spec
    ):
        async def scenario():
            async with _server(machine) as server:
                tcp = await start_tcp_server(server, "127.0.0.1", 0)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                request = OptimizeRequest((small_spec,))
                writer.write(b"[1, 2]\n" + encode_message(request.to_dict()))
                await writer.drain()
                lines, terminals = [], 0
                async with asyncio.timeout(10.0):
                    while terminals < 2:
                        line = await reader.readline()
                        assert line, "server closed the connection"
                        lines.append(line)
                        terminals += decode_message(line)["type"] in _TERMINAL_TYPES
                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()
                return lines

        lines = run(scenario())
        failed = event_from_dict(decode_message(lines[0]))
        assert isinstance(failed, FailedEvent)
        assert failed.request_id == "?"
        assert failed.error.startswith("bad request: ")
        _check_stream(lines[1:], 1, cached=False)

    def test_warm_thousand_layer_request_over_tcp(self, machine, small_spec):
        """A 1,000-layer spec list is one JSON line far over asyncio's
        default 64 KiB stream limit, and so is its Completed event."""
        layers = tuple(
            dataclasses.replace(small_spec, name=f"layer{index}")
            for index in range(1000)
        )

        async def scenario():
            async with _server(machine) as server:
                tcp = await start_tcp_server(server, "127.0.0.1", 0)
                port = tcp.sockets[0].getsockname()[1]
                async with await TCPServingClient.connect("127.0.0.1", port) as client:
                    await client.optimize([small_spec])  # warms the one shape
                    big = await asyncio.wait_for(client.optimize(layers), 30.0)
                    after = await asyncio.wait_for(client.optimize([small_spec]), 10.0)
                tcp.close()
                await tcp.wait_closed()
                return big, after

        big, after = run(scenario())
        assert big.num_operators == 1000
        assert big.cache_hits == 1
        assert after.num_operators == 1

    def test_line_over_the_limit_gets_a_failed_event_and_keeps_the_connection(
        self, machine, small_spec, monkeypatch
    ):
        from repro.serving import server as server_module

        monkeypatch.setattr(server_module, "MAX_LINE_BYTES", 4096)

        async def scenario():
            async with _server(machine) as server:
                tcp = await start_tcp_server(server, "127.0.0.1", 0)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                request = OptimizeRequest((small_spec,))
                writer.write(b"[" + b"1, " * 5000 + b"1]\n")
                writer.write(encode_message(request.to_dict()))
                await writer.drain()
                lines, terminals = [], 0
                async with asyncio.timeout(10.0):
                    while terminals < 2:
                        line = await reader.readline()
                        assert line, "server closed the connection"
                        lines.append(line)
                        terminals += decode_message(line)["type"] in _TERMINAL_TYPES
                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()
                return lines

        lines = run(scenario())
        failed = event_from_dict(decode_message(lines[0]))
        assert isinstance(failed, FailedEvent)
        assert failed.request_id == "?"
        assert failed.error == "bad request: line longer than 4096 bytes"
        _check_stream(lines[1:], 1, cached=False)


class TestTaskBudget:
    """Tasks the server loop starts per request, counted by a task factory."""

    @staticmethod
    async def _count_tasks(machine, rounds):
        """Serve ``rounds`` (lists of requests) over one connection in turn.

        Returns, per round, the qualified names of the coroutines the
        loop started tasks for while that round was served.
        """
        loop = asyncio.get_running_loop()
        started = []

        def factory(loop, coro, **kwargs):
            started.append(coro.__qualname__)
            return asyncio.Task(coro, loop=loop, **kwargs)

        loop.set_task_factory(factory)
        try:
            async with _server(machine) as server:
                tcp = await start_tcp_server(server, "127.0.0.1", 0)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                per_round = []
                for requests in rounds:
                    await asyncio.sleep(0)  # connection set-up tasks first
                    del started[:]
                    await _exchange(reader, writer, requests)
                    per_round.append(list(started))
                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()
                return per_round
        finally:
            loop.set_task_factory(None)

    def test_all_hit_request_starts_only_its_serve_task(
        self, machine, small_spec, pointwise_spec, strided_spec
    ):
        """A request whose operators are all cached is answered inside
        ``submit()`` and written by the connection handler: it starts no
        task at all.  A request with a miss starts its streaming task and
        its ``_solve_misses`` task."""
        network = (small_spec, pointwise_spec)
        cold, warm, miss = run(
            self._count_tasks(
                machine,
                [
                    [OptimizeRequest(network)],
                    [OptimizeRequest(network)],
                    [OptimizeRequest((small_spec, strided_spec))],
                ],
            )
        )
        assert warm == []
        # A request with a miss still streams and solves in tasks of its own.
        for tasks in (cold, miss):
            assert tasks[0] == "_stream_events"
            assert any(name.endswith("._solve_misses") for name in tasks)

    def test_cancel_signal_stays_unset_after_completion(
        self, machine, small_spec, pointwise_spec
    ):
        async def scenario():
            async with _server(machine) as server:
                handles = []
                for _ in range(2):  # solving, then all-hit
                    handle = server.submit(OptimizeRequest((small_spec, pointwise_spec)))
                    await handle.result()
                    handles.append(handle)
                return handles

        for handle in run(scenario()):
            assert handle.cancelled is False


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
class TestGracefulDrain:
    def test_drain_finishes_accepted_then_refuses_new(
        self, machine, small_spec, pointwise_spec
    ):
        async def scenario():
            config = ServerConfig(max_queue_depth=8, workers=1, solve_threads=1)
            server = _server(machine, delay_s=0.1, config=config)
            await server.start()
            client = ServingClient(server)
            first = asyncio.ensure_future(client.optimize([small_spec]))
            second = asyncio.ensure_future(client.optimize([pointwise_spec]))
            await asyncio.sleep(0.02)  # both admitted (one queued)
            draining = asyncio.ensure_future(server.drain(5.0))
            await asyncio.sleep(0.01)
            # Admissions are refused from the moment the drain starts ...
            with pytest.raises(RuntimeError, match="draining"):
                server.submit(OptimizeRequest((small_spec,)))
            # ... but everything already accepted runs to completion.
            drained = await draining
            responses = await asyncio.gather(first, second)
            await server.stop()
            return drained, responses, server

        drained, responses, server = run(scenario())
        assert drained is True
        assert [r.num_operators for r in responses] == [1, 1]
        assert server.stats.completed == 2 and server.stats.failed == 0

    def test_stop_with_drain_completes_inflight_requests(self, machine, small_spec):
        async def scenario():
            server = _server(machine, delay_s=0.05)
            await server.start()
            client = ServingClient(server)
            inflight = asyncio.ensure_future(client.optimize([small_spec]))
            await asyncio.sleep(0.01)
            await server.stop(drain=True, drain_timeout=5.0)
            return await inflight, server

        response, server = run(scenario())
        assert response.num_operators == 1
        assert server.stats.completed == 1 and server.stats.failed == 0

    def test_restart_after_drained_stop_accepts_again(self, machine, small_spec):
        async def scenario():
            server = _server(machine)
            await server.start()
            await server.stop(drain=True, drain_timeout=1.0)
            await server.start()  # restart must clear the draining gate
            response = await ServingClient(server).optimize([small_spec])
            await server.stop()
            return response

        assert run(scenario()).num_operators == 1

    def test_drain_timeout_leaves_stragglers_to_stop(self, machine, small_spec):
        async def scenario():
            server = _server(machine, delay_s=0.5)
            await server.start()
            client = ServingClient(server)
            inflight = asyncio.ensure_future(client.optimize([small_spec]))
            await asyncio.sleep(0.02)
            drained = await server.drain(0.05)  # far shorter than the solve
            await server.stop()  # fails the straggler, as without drain
            outcome = (
                await asyncio.gather(inflight, return_exceptions=True)
            )[0]
            return drained, outcome

        drained, outcome = run(scenario())
        assert drained is False
        assert isinstance(outcome, RequestFailedError)


# ----------------------------------------------------------------------
# Cancellation (abandoned requests)
# ----------------------------------------------------------------------
class TestCancellation:
    def test_cancel_queued_request_releases_queue_slot(
        self, machine, small_spec, pointwise_spec, strided_spec
    ):
        async def scenario():
            config = ServerConfig(max_queue_depth=1, workers=1, solve_threads=1)
            async with _server(machine, delay_s=0.2, config=config) as server:
                client = ServingClient(server)
                blocker = asyncio.ensure_future(client.optimize([small_spec]))
                await asyncio.sleep(0.05)  # worker busy with `blocker`
                queued = server.submit(OptimizeRequest((pointwise_spec,)))
                assert server.queue_depth == 1
                assert server.cancel(queued) is True
                assert server.queue_depth == 0
                # The freed slot admits new work immediately.
                replacement = server.submit(OptimizeRequest((strided_spec,)))
                with pytest.raises(RequestFailedError, match="cancelled"):
                    await queued.result()
                await replacement.result()
                await blocker
                # Cancelling a terminal handle is a no-op.
                assert server.cancel(queued) is False
                return server

        server = run(scenario())
        assert server.stats.cancelled == 1
        # The cancelled request never reached the solver.
        assert "pointwise" not in _SOLVE_LOG

    def test_cancel_midflight_releases_worker(self, machine, small_spec, pointwise_spec):
        async def scenario():
            config = ServerConfig(max_queue_depth=8, workers=1, solve_threads=1)
            async with _server(machine, delay_s=0.3, config=config) as server:
                handle = server.submit(OptimizeRequest((small_spec,)))
                await asyncio.sleep(0.05)  # worker claimed it, solve running
                begin = time.perf_counter()
                assert server.cancel(handle) is True
                # The worker is released well before the solve finishes:
                # the next request is claimed promptly.
                response = await ServingClient(server).optimize(
                    [pointwise_spec]
                )
                waited = time.perf_counter() - begin
                with pytest.raises(RequestFailedError, match="cancelled"):
                    await handle.result()
                return server, response, waited

        server, response, waited = run(scenario())
        assert response.num_operators == 1
        assert server.stats.cancelled == 1
        assert server.active_requests == ()

    def test_disconnected_tcp_client_cancels_queued_request(
        self, machine, small_spec, pointwise_spec
    ):
        """Regression: a client dropping mid-stream must not hold a slot."""

        async def scenario():
            config = ServerConfig(max_queue_depth=4, workers=1, solve_threads=1)
            async with _server(machine, delay_s=0.3, config=config) as server:
                blocker = asyncio.ensure_future(
                    ServingClient(server).optimize([small_spec])
                )
                await asyncio.sleep(0.05)  # worker claimed `blocker`
                tcp = await start_tcp_server(server, "127.0.0.1", 0)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                request = OptimizeRequest((pointwise_spec,), request_id="drop-1")
                writer.write(encode_message(request.to_dict()))
                await writer.drain()
                accepted = decode_message(await reader.readline())
                assert accepted["type"] == "accepted"
                # Drop the connection while the request is still queued.
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass
                # The server notices the disconnect and cancels the request.
                for _ in range(100):
                    if server.stats.cancelled:
                        break
                    await asyncio.sleep(0.01)
                await blocker
                tcp.close()
                await tcp.wait_closed()
                return server

        server = run(scenario())
        assert server.stats.cancelled == 1
        assert server.active_requests == ()
        assert "pointwise" not in _SOLVE_LOG


# ----------------------------------------------------------------------
# Acceptance demo: >= 8 concurrent clients, overlapping Table 1 networks
# ----------------------------------------------------------------------
class TestConcurrentClientDemo:
    def test_eight_clients_overlapping_networks(self, machine, tmp_path):
        result = run(
            run_serving_demo(
                machine=machine,
                clients=8,
                networks=("resnet18", "mobilenet", "yolo9000"),
                strategy="probe",
                strategy_options={"delay_s": 0.01},
                cache=ResultCache(tmp_path / "demo-cache"),
            )
        )
        # Every duplicate operator solved exactly once (solve-count probe).
        assert result.every_duplicate_solved_once
        assert result.duplicate_solves == 0
        # Table 1: 12 + 9 + 11 distinct shapes across the three networks.
        assert result.solves == 32
        assert len(_SOLVE_LOG) == 32
        # Overlap actually happened: more operators served than solved.
        assert result.total_operators_served > result.solves
        assert result.coalesced_operators > 0
        # Warm requests served well within the 50 ms bound, end to end.
        assert result.warm.max_s < 0.050, (
            f"warm p_max {result.warm.max_s * 1e3:.1f} ms"
        )

    def test_cli_demo_subcommand(self, capsys):
        from repro.cli import main

        exit_code = main(
            [
                "demo",
                "--machine", "tiny",
                "--clients", "4",
                "--networks", "mobilenet",
                "--layers", "2",
                "--strategy", "onednn",
                "--threads", "1",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "duplicate solves" in out
        assert '"duplicate_solves": 0' in out

    def test_demo_scales_past_queue_depth(self, machine):
        # More clients than queue slots: back-pressure + retry still
        # converges, and the dedup property holds throughout.
        result = run(
            run_serving_demo(
                machine=machine,
                clients=12,
                networks=("mobilenet",),
                strategy="probe",
                strategy_options={"delay_s": 0.005},
                queue_depth=3,
                workers=2,
                solve_threads=2,
            )
        )
        assert result.duplicate_solves == 0
        assert result.cold.requests == 12 and result.warm.requests == 12
