"""Tests for the resilient serve layer (no chaos; see test_serve_chaos).

Covers the shared backoff policy (including behaviour-identity with the
experiment engine's old inline implementation), the circuit breaker,
the checksummed single-flight cache, request validation, the service's
admission/deadline/degradation behaviour, and the HTTP front end over
both TCP and UNIX-domain sockets.
"""

import asyncio
import json
import random
from collections import deque

import pytest

from repro.core.query import SystemConfig
from repro.errors import InvalidNodeError
from repro.experiments.parallel import DEFAULT_BACKOFF, ExperimentEngine
from repro.graphs.generator import generate_dag
from repro.graphs.toposort import reachable_from
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.cache import ResultCache
from repro.serve.http import (
    MAX_HEADER_LINES,
    MAX_REQUEST_BYTES,
    ServeClient,
    ServeServer,
)
from repro.serve.retry import (
    DEFAULT_BACKOFF_SEED,
    BackoffPolicy,
    retry_call,
)
from repro.serve.service import (
    IndexUnavailableError,
    InvalidRequestError,
    OverloadedError,
    ReachabilityService,
    ServeConfig,
)
from repro.serve.validate import parse_node_id, parse_probe


@pytest.fixture
def graph():
    return generate_dag(120, 2.0, 15, seed=5)


def make_service(graph, **overrides):
    config = ServeConfig(**overrides) if overrides else ServeConfig()
    return ReachabilityService(
        graph, system=SystemConfig(engine="fast"), config=config
    )


async def built_service(graph, **overrides):
    service = make_service(graph, **overrides)
    assert await service.build()
    return service


# -- retry policy -------------------------------------------------------------


class TestBackoffPolicy:
    def test_matches_the_historical_inline_formula(self):
        """The extracted policy reproduces parallel.py's old delays exactly."""
        policy = BackoffPolicy(base=0.05)
        rng = random.Random(DEFAULT_BACKOFF_SEED)
        for attempt in range(2, 12):
            expected = 0.05 * (2 ** (attempt - 2)) * (0.5 + rng.random())
            assert policy.delay(attempt) == pytest.approx(expected)

    def test_experiment_engine_uses_the_shared_policy(self):
        engine = ExperimentEngine(backoff=DEFAULT_BACKOFF)
        reference = BackoffPolicy(base=DEFAULT_BACKOFF)
        got = [engine._retry_delay(a) for a in (2, 3, 4)]
        want = [reference.delay(a) for a in (2, 3, 4)]
        assert got == want

    def test_zero_base_sleeps_nothing_and_draws_nothing(self):
        policy = BackoffPolicy(base=0.0)
        assert policy.delay(2) == 0.0
        # The jitter stream must be untouched: a later re-seed check.
        assert policy._rng.random() == random.Random(DEFAULT_BACKOFF_SEED).random()

    def test_delays_grow_exponentially_and_respect_the_cap(self):
        policy = BackoffPolicy(base=1.0, max_delay=3.0)
        delays = [policy.delay(a) for a in range(2, 9)]
        assert all(d <= 3.0 for d in delays)
        uncapped = BackoffPolicy(base=1.0)
        raw = [uncapped.delay(a) for a in range(2, 9)]
        assert raw[-1] > raw[0]  # exponential growth before the cap

    def test_deterministic_across_instances(self):
        a = BackoffPolicy(base=0.1)
        b = BackoffPolicy(base=0.1)
        assert [a.delay(i) for i in (2, 3, 4)] == [b.delay(i) for i in (2, 3, 4)]

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=-1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(max_delay=-1.0)


class TestRetryCall:
    def test_returns_after_transient_failures(self):
        calls = []
        slept = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "done"

        result = retry_call(
            flaky, retries=3, policy=BackoffPolicy(base=0.01),
            sleep=slept.append,
        )
        assert result == "done"
        assert len(calls) == 3
        assert len(slept) == 2

    def test_exhausted_retries_propagate_the_real_error(self):
        def doomed():
            raise ValueError("permanent")

        with pytest.raises(ValueError, match="permanent"):
            retry_call(doomed, retries=2, policy=BackoffPolicy(base=0),
                       sleep=lambda _s: None)

    def test_retry_on_filters_exception_types(self):
        def wrong_kind():
            raise KeyError("not retryable")

        with pytest.raises(KeyError):
            retry_call(wrong_kind, retries=5, policy=BackoffPolicy(base=0),
                       retry_on=OSError, sleep=lambda _s: None)

    def test_on_retry_observes_each_attempt(self):
        seen = []

        def flaky():
            if len(seen) < 2:
                raise OSError("again")
            return 42

        retry_call(flaky, retries=5, policy=BackoffPolicy(base=0),
                   sleep=lambda _s: None,
                   on_retry=lambda attempt, exc: seen.append(attempt))
        assert seen == [2, 3]


# -- circuit breaker ----------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, reset_after=10.0, clock=lambda: 0.0)
        for _ in range(2):
            breaker.record_failure()
            assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_cooldown_half_opens_and_probe_outcome_decides(self):
        now = [0.0]
        breaker = CircuitBreaker(threshold=1, reset_after=5.0, clock=lambda: now[0])
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        now[0] = 5.0
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()
        # Failed probe re-opens immediately and restarts the cool-down.
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2
        now[0] = 10.0
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_snapshot_is_json_safe(self):
        breaker = CircuitBreaker()
        snap = breaker.snapshot()
        assert snap["state"] == "closed"
        assert snap["failures"] == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_after=-1.0)


# -- result cache -------------------------------------------------------------


class TestResultCache:
    def test_hit_miss_and_lru_eviction(self):
        cache = ResultCache(size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == (True, 1)  # refreshes a's recency
        cache.put("c", 3)  # evicts b
        assert cache.get("b") == (False, None)
        assert cache.get("c") == (True, 3)
        assert cache.evictions == 1

    def test_poisoned_entry_is_detected_and_dropped(self):
        cache = ResultCache(size=4)
        cache.put("k", [1, 2, 3])
        value, checksum = cache._entries["k"]
        cache._entries["k"] = ([1, 2, 99], checksum)  # in-place corruption
        hit, _ = cache.get("k")
        assert not hit
        assert cache.poison_detected == 1
        assert "k" not in cache._entries

    def test_zero_capacity_disables_storage(self):
        cache = ResultCache(size=0)
        cache.put("k", 1)
        assert cache.get("k") == (False, None)

    def test_single_flight_coalesces_concurrent_lookups(self):
        async def run():
            cache = ResultCache(size=8)
            calls = []

            async def supplier():
                calls.append(1)
                await asyncio.sleep(0.01)
                return "value"

            results = await asyncio.gather(
                *(cache.get_or_compute("k", supplier) for _ in range(5))
            )
            assert results == ["value"] * 5
            assert len(calls) == 1
            assert cache.coalesced == 4

        asyncio.run(run())

    def test_supplier_failure_propagates_and_caches_nothing(self):
        async def run():
            cache = ResultCache(size=8)

            async def boom():
                raise RuntimeError("compute failed")

            with pytest.raises(RuntimeError):
                await cache.get_or_compute("k", boom)
            assert cache.get("k") == (False, None)

            async def fine():
                return "recovered"

            assert await cache.get_or_compute("k", fine) == "recovered"

        asyncio.run(run())


# -- validation ---------------------------------------------------------------


class TestValidation:
    @pytest.mark.parametrize("raw,expected", [(0, 0), (7, 7), ("7", 7), (" 7", 7)])
    def test_accepts_ints_and_int_strings(self, raw, expected):
        assert parse_node_id(raw, 10) == expected

    @pytest.mark.parametrize("raw", ["abc", "1.5", 1.5, None, True, [], -1, 10, "10"])
    def test_rejects_malformed_and_out_of_range(self, raw):
        with pytest.raises(InvalidNodeError):
            parse_node_id(raw, 10)

    def test_error_names_the_parameter_and_range(self):
        with pytest.raises(InvalidNodeError, match=r"v=99 .* 0\.\.9"):
            parse_node_id(99, 10, name="v")

    def test_parse_probe(self):
        assert parse_probe("3:4", 10) == (3, 4)
        with pytest.raises(InvalidNodeError, match="malformed"):
            parse_probe("34", 10)
        with pytest.raises(InvalidNodeError):
            parse_probe("3:99", 10)


# -- the service --------------------------------------------------------------


class TestReachabilityService:
    def test_answers_match_the_oracle(self, graph):
        async def run():
            service = await built_service(graph)
            rng = random.Random(0)
            for _ in range(100):
                u = rng.randrange(graph.num_nodes)
                v = rng.randrange(graph.num_nodes)
                answer = await service.reachable(u, v)
                expected = v != u and v in reachable_from(graph, [u])
                assert answer["reachable"] == expected
                assert answer["degraded"] is False
            successors = await service.successors(5)
            assert sorted(successors["successors"]) == sorted(
                n for n in reachable_from(graph, [5]) if n != 5
            )

        asyncio.run(run())

    def test_engine_parity(self, graph):
        async def run():
            fast = await built_service(graph)
            paged = ReachabilityService(graph, system=SystemConfig(engine="paged"))
            assert await paged.build()
            for u, v in [(0, 50), (3, 80), (10, 11), (100, 5)]:
                assert (await fast.reachable(u, v)) == (await paged.reachable(u, v))

        asyncio.run(run())

    def test_unbuilt_service_reports_unavailable(self, graph):
        async def run():
            service = make_service(graph)
            assert service.state == "unready"
            with pytest.raises(IndexUnavailableError):
                await service.reachable(0, 1)

        asyncio.run(run())

    def test_invalid_node_ids_raise_structured_errors(self, graph):
        async def run():
            service = await built_service(graph)
            with pytest.raises(InvalidNodeError, match="u must be an integer"):
                await service.reachable("abc", 1)
            with pytest.raises(InvalidNodeError, match="outside the graph's range"):
                await service.successors(10_000)

        asyncio.run(run())

    def test_batch_answers_and_validates(self, graph):
        async def run():
            service = await built_service(graph)
            payload = await service.batch(
                [
                    {"op": "reachable", "u": 0, "v": 90},
                    {"op": "successors", "u": 4},
                ]
            )
            expected = 90 in reachable_from(graph, [0])
            assert payload["results"][0] == {"reachable": expected}
            assert set(payload["results"][1]) == {"successors"}
            with pytest.raises(InvalidRequestError, match="unknown op"):
                await service.batch([{"op": "teleport", "u": 0}])

        asyncio.run(run())

    def test_admission_sheds_when_the_queue_is_full(self, graph):
        async def run():
            service = await built_service(graph, max_concurrency=1, max_queue=0)
            async with service.admitted():
                with pytest.raises(OverloadedError) as info:
                    async with service.admitted():
                        pass  # pragma: no cover
            assert info.value.retry_after >= 0.05
            assert service.telemetry.count("shed") == 1

        asyncio.run(run())

    def test_uncontended_admission_does_not_scan_the_latency_window(self, graph):
        """The mean latency is only needed when a request would wait."""

        class UnscannableWindow(deque):
            def __iter__(self):
                raise AssertionError("admission iterated the latency window")

        async def run():
            service = await built_service(graph)
            window = UnscannableWindow([0.001] * 65536, maxlen=65536)
            service.telemetry._latencies = window
            for _ in range(3):
                async with service.admitted():
                    pass
            assert len(window) == 65536

        asyncio.run(run())

    def test_queries_hit_the_cache(self, graph):
        async def run():
            service = await built_service(graph)
            await service.reachable(0, 90)
            await service.reachable(0, 90)
            assert service.cache.hits == 1
            assert service.cache.misses == 1

        asyncio.run(run())

    def test_breaker_trip_degrades_then_recovery_restores(self, graph):
        """ready -> degraded (breaker open, last-good index) -> ready."""
        now = [0.0]
        config = ServeConfig(
            breaker_threshold=2, breaker_reset_s=5.0, build_retries=0,
            backoff_base_s=0.0,
        )
        service = ReachabilityService(
            graph, system=SystemConfig(engine="fast"), config=config,
            clock=lambda: now[0],
        )

        async def run():
            assert await service.build()
            assert service.state == "ready"
            baseline = await service.reachable(0, 90)

            # Break the build path: refreshes fail, the breaker trips.
            original = service._build_index_sync
            service._build_index_sync = lambda: (_ for _ in ()).throw(
                RuntimeError("storage down")
            )
            assert not await service.build()
            assert not await service.build()
            assert service.breaker.state is BreakerState.OPEN
            assert service.state == "degraded"

            # Stale-while-revalidate: the last-good index still answers,
            # flagged degraded, and the value is unchanged.
            answer = await service.reachable(0, 90)
            assert answer["reachable"] == baseline["reachable"]
            assert answer["degraded"] is True

            # While open, rebuild attempts are refused without storage work.
            assert not await service.build()
            assert service.telemetry.count("breaker_refusals") == 1

            # Cool-down elapses; the healed build path closes the breaker.
            service._build_index_sync = original
            now[0] = 5.0
            assert service.breaker.state is BreakerState.HALF_OPEN
            assert await service.build()
            assert service.state == "ready"
            assert (await service.reachable(0, 90))["degraded"] is False

        asyncio.run(run())

    def test_build_retries_use_the_backoff_policy(self, graph):
        async def run():
            attempts = []
            service = await_none = None
            service = make_service(
                graph, build_retries=2, backoff_base_s=0.0, breaker_threshold=10
            )
            original = service._build_index_sync

            def flaky():
                attempts.append(1)
                if len(attempts) < 3:
                    raise RuntimeError("transient storage fault")
                return original()

            service._build_index_sync = flaky
            assert await service.build()
            assert len(attempts) == 3
            assert service.telemetry.count("rebuild_retries") == 2
            assert service.telemetry.count("rebuild_failures") == 2
            assert service.state == "ready"
            assert await_none is None

        asyncio.run(run())

    def test_run_record_export(self, graph):
        async def run():
            service = await built_service(graph)
            await service.reachable(0, 1)
            record = service.to_run_record({"nodes": graph.num_nodes})
            assert record.algorithm == "serve"
            assert record.metrics["index_k"] == service.index.k
            assert "latency_p99_ms" in record.metrics
            assert record.workload == {"nodes": graph.num_nodes}

        asyncio.run(run())


# -- the HTTP front end -------------------------------------------------------


async def start_server(graph, uds=None, **overrides):
    service = await built_service(graph, **overrides)
    server = ServeServer(service, uds=uds) if uds else ServeServer(service)
    await server.start()
    client = ServeClient(uds=uds) if uds else ServeClient(port=server.port)
    return service, server, client


async def raw_exchange(server, data: bytes) -> tuple[int, dict, list]:
    """Send raw bytes; return (status, JSON body, loop exceptions seen).

    The loop's exception handler is recorded so a test can assert that
    nothing escaped the connection handler unhandled.
    """
    escaped: list = []
    asyncio.get_running_loop().set_exception_handler(
        lambda _loop, context: escaped.append(context)
    )
    reader, writer = await asyncio.open_connection(server.host, server.port)
    try:
        writer.write(data)
        await writer.drain()
        head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=5)
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = dict(
            (name.strip().lower(), value.strip())
            for name, _, value in (line.partition(":") for line in lines[1:] if line)
        )
        body = await reader.readexactly(int(headers["content-length"]))
        assert headers["connection"] == "close"
        # The server closes the connection after a framing error.
        assert await asyncio.wait_for(reader.read(), timeout=5) == b""
    finally:
        writer.close()
    await asyncio.sleep(0.05)  # let the server's connection task finish
    return status, json.loads(body), escaped


class TestHTTPFraming:
    """Malformed framing gets a structured answer, never a dropped socket."""

    @pytest.mark.parametrize("length", ["abc", "-5", "1.5", "\u00b2"])
    def test_bad_content_length_is_a_structured_400(self, graph, length):
        async def run():
            service, server, client = await start_server(graph)
            try:
                request = (
                    f"POST /batch HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
                ).encode("utf-8")
                status, payload, escaped = await raw_exchange(server, request)
                assert status == 400
                assert "Content-Length" in payload["error"]
                assert escaped == []
                assert service.telemetry.count("invalid_requests") == 1
                # The server keeps serving other connections.
                status, _ = await client.reachable(0, 1)
                assert status == 200
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_oversized_header_line_is_a_431(self, graph):
        async def run():
            service, server, client = await start_server(graph)
            try:
                request = (
                    b"GET /reachable?u=0&v=1 HTTP/1.1\r\nX-Filler: "
                    + b"a" * 70_000
                    + b"\r\n\r\n"
                )
                status, payload, escaped = await raw_exchange(server, request)
                assert status == 431
                assert "header" in payload["error"]
                assert escaped == []
                status, _ = await client.reachable(0, 1)
                assert status == 200
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_too_many_headers_is_a_431(self, graph):
        async def run():
            service, server, client = await start_server(graph)
            try:
                filler = b"".join(
                    b"X-Filler-%d: a\r\n" % i for i in range(MAX_HEADER_LINES + 1)
                )
                request = b"GET /reachable?u=0&v=1 HTTP/1.1\r\n" + filler + b"\r\n"
                status, payload, escaped = await raw_exchange(server, request)
                assert status == 431
                assert str(MAX_HEADER_LINES) in payload["error"]
                assert escaped == []
                assert service.telemetry.count("invalid_requests") == 1
                status, _ = await client.reachable(0, 1)
                assert status == 200
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_header_count_at_the_cap_is_served(self, graph):
        async def run():
            service, server, client = await start_server(graph)
            try:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                filler = b"".join(
                    b"X-Filler-%d: a\r\n" % i for i in range(MAX_HEADER_LINES)
                )
                writer.write(b"GET /reachable?u=0&v=1 HTTP/1.1\r\n" + filler + b"\r\n")
                status_line = await asyncio.wait_for(reader.readline(), timeout=5)
                assert status_line.split()[1] == b"200"
                writer.close()
                assert service.telemetry.count("invalid_requests") == 0
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_oversized_body_is_a_413(self, graph):
        async def run():
            service, server, client = await start_server(graph)
            try:
                request = (
                    f"POST /batch HTTP/1.1\r\nContent-Length: {MAX_REQUEST_BYTES + 1}"
                    "\r\n\r\n"
                ).encode()
                status, payload, escaped = await raw_exchange(server, request)
                assert status == 413
                assert str(MAX_REQUEST_BYTES) in payload["error"]
                assert escaped == []
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_truncated_body_closes_quietly(self, graph):
        async def run():
            service, server, client = await start_server(graph)
            escaped: list = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: escaped.append(context)
            )
            try:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(b"POST /batch HTTP/1.1\r\nContent-Length: 50\r\n\r\n{}")
                writer.write_eof()
                assert await asyncio.wait_for(reader.read(), timeout=5) == b""
                writer.close()
                await asyncio.sleep(0.05)
                assert escaped == []
                status, _ = await client.reachable(0, 1)
                assert status == 200
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_oversized_request_line_is_a_414(self, graph):
        async def run():
            service, server, client = await start_server(graph)
            try:
                request = b"GET /reachable?u=" + b"0" * 70_000 + b" HTTP/1.1\r\n\r\n"
                status, payload, escaped = await raw_exchange(server, request)
                assert status == 414
                assert "request line" in payload["error"]
                assert escaped == []
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())


class TestHTTPServer:
    def test_tcp_round_trip_matches_oracle(self, graph):
        async def run():
            service, server, client = await start_server(graph)
            try:
                rng = random.Random(1)
                for _ in range(25):
                    u = rng.randrange(graph.num_nodes)
                    v = rng.randrange(graph.num_nodes)
                    status, payload = await client.reachable(u, v)
                    assert status == 200
                    expected = v != u and v in reachable_from(graph, [u])
                    assert payload["reachable"] == expected
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_uds_round_trip_and_health(self, graph, tmp_path):
        async def run():
            uds = str(tmp_path / "serve.sock")
            service, server, client = await start_server(graph, uds=uds)
            try:
                status, payload = await client.successors(3)
                assert status == 200
                assert sorted(payload["successors"]) == sorted(
                    n for n in reachable_from(graph, [3]) if n != 3
                )
                status, health = await client.get("/healthz")
                assert status == 200 and health["status"] == "ok"
                assert health["index"]["num_nodes"] == graph.num_nodes
                status, ready = await client.get("/readyz")
                assert status == 200 and ready["state"] == "ready"
                status, stats = await client.get("/stats")
                assert status == 200 and stats["answered"] >= 1
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_bad_requests_get_structured_400s(self, graph):
        async def run():
            service, server, client = await start_server(graph)
            try:
                status, _, payload = await client.request(
                    "GET", "/reachable?u=abc&v=1"
                )
                assert status == 400 and "integer node id" in payload["error"]
                status, _, payload = await client.request(
                    "GET", f"/reachable?u=0&v={graph.num_nodes}"
                )
                assert status == 400 and "range" in payload["error"]
                status, _, payload = await client.request("GET", "/nope")
                assert status == 404
                status, _, payload = await client.request("POST", "/reachable?u=0&v=1")
                assert status == 405
                status, payload = await client.batch([{"op": "warp", "u": 0}])
                assert status == 400 and "unknown op" in payload["error"]
                assert service.telemetry.count("invalid_requests") >= 3
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_deadline_expiry_is_a_structured_504(self, graph, monkeypatch):
        async def run():
            service, server, client = await start_server(graph)

            async def slow_faults():
                await asyncio.sleep(0.2)

            monkeypatch.setattr(service, "_handler_faults", slow_faults)
            try:
                status, payload = await client.reachable(0, 1, deadline_ms=20)
                assert status == 504
                assert payload["deadline_ms"] == 20
                assert service.telemetry.count("deadline_timeouts") == 1
                # The server survives and answers the next request.
                monkeypatch.undo()
                status, _ = await client.reachable(0, 1)
                assert status == 200
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_overload_sheds_with_retry_after(self, graph, monkeypatch):
        async def run():
            service, server, client = await start_server(
                graph, max_concurrency=1, max_queue=1
            )

            async def slow_faults():
                await asyncio.sleep(0.3)

            monkeypatch.setattr(service, "_handler_faults", slow_faults)
            try:
                tasks = [
                    asyncio.create_task(
                        ServeClient(port=server.port).request(
                            "GET", "/reachable?u=0&v=1"
                        )
                    )
                    for _ in range(6)
                ]
                responses = await asyncio.gather(*tasks)
                statuses = sorted(status for status, _h, _p in responses)
                assert 503 in statuses  # some requests shed...
                assert 200 in statuses  # ...while admitted ones answer
                shed = [r for r in responses if r[0] == 503]
                assert all("retry-after" in r[1] for r in shed)
                assert all(r[2].get("shed") for r in shed)
                assert service.telemetry.count("shed") >= 1
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_refresh_endpoint_rebuilds(self, graph):
        async def run():
            service, server, client = await start_server(graph)
            try:
                status, payload = await client.refresh()
                assert status == 200
                assert payload == {"rebuilt": True, "state": "ready"}
                assert service.telemetry.count("rebuilds") == 2
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_readyz_reports_degraded_over_http(self, graph):
        async def run():
            service, server, client = await start_server(graph)
            try:
                service._build_index_sync = lambda: (_ for _ in ()).throw(
                    RuntimeError("storage down")
                )
                for _ in range(service.config.breaker_threshold):
                    await client.refresh()
                status, ready = await client.get("/readyz")
                assert status == 503 and ready["state"] == "degraded"
                # Still answering, flagged degraded.
                status, payload = await client.reachable(0, 90)
                assert status == 200 and payload["degraded"] is True
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())
