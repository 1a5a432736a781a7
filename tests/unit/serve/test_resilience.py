"""Unit tests for the client-side resilience layer.

:class:`RetryPolicy` and :class:`CircuitBreaker` are pure (fake clocks,
seeded RNGs, a Hypothesis property for the backoff bounds); the client
wrappers run against real servers — a flaky subclass that fails the
first *N* executions, and fault plans that drop connections — so the
retry, reconnect and session-replay paths are exercised over the wire.
"""

import asyncio
import contextlib
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    CircuitBreaker,
    CircuitOpenError,
    Client,
    ErrorCode,
    FaultPlan,
    ReasoningServer,
    RetryingAsyncClient,
    RetryingClient,
    RetryPolicy,
    ServeConfig,
    ServerError,
)
from repro.serve.protocol import ProtocolError

SCHEMA = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])"
MVD = "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"
IMPLIED_FD = "Pubcrawl(Person) -> Pubcrawl(Visit[λ])"
NOT_IMPLIED = "Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Pub)])"

#: Retries resolve in milliseconds so the suite stays fast.
FAST = RetryPolicy(max_retries=6, base_delay=0.001, max_delay=0.005,
                   deadline=30.0)


def run(coroutine):
    return asyncio.run(coroutine)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(deadline=0.0)

    def test_ceiling_grows_exponentially_then_caps(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5)
        assert policy.backoff_ceiling(0) == pytest.approx(0.1)
        assert policy.backoff_ceiling(1) == pytest.approx(0.2)
        assert policy.backoff_ceiling(2) == pytest.approx(0.4)
        assert policy.backoff_ceiling(3) == 0.5  # capped
        assert policy.backoff_ceiling(10) == 0.5

    def test_budget_exhaustion_returns_none(self):
        policy = RetryPolicy(max_retries=2)
        rng = random.Random(0)
        assert policy.next_delay(0, 0.0, rng) is not None
        assert policy.next_delay(1, 0.0, rng) is not None
        assert policy.next_delay(2, 0.0, rng) is None

    def test_zero_budget_never_retries(self):
        policy = RetryPolicy(max_retries=0)
        assert policy.next_delay(0, 0.0, random.Random(0)) is None

    def test_spent_deadline_returns_none(self):
        policy = RetryPolicy(max_retries=8, deadline=1.0)
        assert policy.next_delay(0, 1.0, random.Random(0)) is None
        assert policy.next_delay(0, 2.0, random.Random(0)) is None

    def test_delay_clamped_to_deadline_remainder(self):
        policy = RetryPolicy(max_retries=8, base_delay=10.0, max_delay=10.0,
                             deadline=1.0)

        class MaxRng:
            @staticmethod
            def uniform(low, high):
                return high

        delay = policy.next_delay(0, 0.75, MaxRng())
        assert delay == pytest.approx(0.25)

    def test_unbounded_deadline(self):
        policy = RetryPolicy(max_retries=1, deadline=None)
        assert policy.next_delay(0, 1e9, random.Random(0)) is not None

    @settings(max_examples=200, deadline=None)
    @given(max_retries=st.integers(0, 8),
           base_delay=st.floats(0.0, 0.5),
           multiplier=st.floats(1.0, 4.0),
           max_delay=st.floats(0.001, 2.0),
           deadline=st.floats(0.01, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_backoff_is_bounded_jittered_and_deadline_aware(
            self, max_retries, base_delay, multiplier, max_delay, deadline,
            seed):
        """The property the docstring promises: every sleep lies in
        ``[0, min(max_delay, base·multiplier^k)]``, the sequence never
        exceeds the retry budget, and simulated total sleep never
        crosses the deadline."""
        policy = RetryPolicy(max_retries=max_retries, base_delay=base_delay,
                             multiplier=multiplier, max_delay=max_delay,
                             deadline=deadline)
        rng = random.Random(seed)
        elapsed = 0.0
        delays = []
        for attempt in range(max_retries + 1):
            delay = policy.next_delay(attempt, elapsed, rng)
            if delay is None:
                break
            assert 0.0 <= delay <= policy.backoff_ceiling(attempt)
            assert delay <= max_delay
            delays.append(delay)
            elapsed += delay
        else:
            pytest.fail("next_delay never gave up within the retry budget")
        assert len(delays) <= max_retries
        assert elapsed <= deadline + 1e-9


class TestCircuitBreaker:
    def make(self, threshold=2, reset_after=10.0):
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=threshold,
                                 reset_after=reset_after,
                                 clock=lambda: now[0])
        return breaker, now

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_after=0.0)

    def test_opens_after_consecutive_failures(self):
        breaker, now = self.make(threshold=2)
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(10.0)
        now[0] = 4.0
        assert breaker.retry_after() == pytest.approx(6.0)

    def test_success_resets_the_streak(self):
        breaker, _now = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # streak broken in between

    def test_half_open_probe_closes_on_success(self):
        breaker, now = self.make(threshold=1)
        breaker.record_failure()
        assert breaker.state == "open"
        now[0] = 10.0
        assert breaker.allow()  # the half-open probe slot
        assert breaker.state == "half_open"
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed" and breaker.failures == 0
        assert breaker.allow()

    def test_half_open_probe_reopens_on_failure(self):
        breaker, now = self.make(threshold=1)
        breaker.record_failure()
        now[0] = 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.retry_after() == pytest.approx(10.0)  # fresh cooldown
        now[0] = 15.0
        assert not breaker.allow()


# --------------------------------------------------------------------------
# Client wrappers against live servers.
# --------------------------------------------------------------------------


class _FlakyServer(ReasoningServer):
    """Fails the first ``fail_first`` executions of ``fail_op`` (or of
    every op) with a retryable ``overloaded`` — *after* admission, so
    the failure looks exactly like a shed request."""

    def __init__(self, config, *, fail_first=0, fail_op=None):
        super().__init__(config)
        self.remaining = fail_first
        self.fail_op = fail_op

    def _dispatch(self, request):
        if self.remaining > 0 and self.fail_op in (None, request.op):
            self.remaining -= 1
            raise ProtocolError(ErrorCode.OVERLOADED, "injected flakiness")
        return super()._dispatch(request)


@contextlib.contextmanager
def served(server_factory):
    """Run a server (built by ``server_factory``) on its own thread;
    yields ``(address, server)`` for blocking-client tests."""
    ready = threading.Event()
    box = {}

    def serve():
        async def main():
            async with server_factory() as server:
                box["server"] = server
                box["loop"] = asyncio.get_running_loop()
                box["address"] = server.address
                ready.set()
                await server._stopped.wait()

        asyncio.run(main())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(timeout=10), "server thread failed to start"
    try:
        yield box["address"], box["server"]
    finally:
        box["loop"].call_soon_threadsafe(
            lambda: asyncio.ensure_future(box["server"].shutdown()))
        thread.join(timeout=10)
        assert not thread.is_alive()


def quiet_config(**overrides):
    return ServeConfig(idle_ttl=None, workers=0, **overrides)


def wrap(host, port, *, policy=FAST, breaker=None, **kwargs):
    if breaker is None:
        breaker = CircuitBreaker(failure_threshold=100)
    return RetryingClient.connect(host, port, policy=policy, breaker=breaker,
                                  rng=random.Random(0), **kwargs)


class TestRetryingClient:
    def test_retries_through_transient_overload(self):
        factory = lambda: _FlakyServer(quiet_config(), fail_first=3,
                                       fail_op="implies")  # noqa: E731

        def scenario():
            with served(factory) as ((host, port), _server):
                with wrap(host, port) as client:
                    client.open("pub", SCHEMA, [MVD])
                    assert client.implies("pub", IMPLIED_FD) is True
                    assert client.counters["client.retry.attempts"] == 3
                    assert "client.retry.exhausted" not in client.counters
                    assert client.breaker.state == "closed"

        scenario()

    def test_zero_budget_surfaces_the_original_error(self):
        factory = lambda: _FlakyServer(quiet_config(), fail_first=10)  # noqa: E731

        def scenario():
            with served(factory) as ((host, port), _server):
                with wrap(host, port,
                          policy=RetryPolicy(max_retries=0)) as client:
                    with pytest.raises(ServerError) as info:
                        client.ping()
                    assert info.value.code == ErrorCode.OVERLOADED
                    assert "injected flakiness" in info.value.message
                    assert client.counters["client.retry.exhausted"] == 1
                    assert "client.retry.attempts" not in client.counters

        scenario()

    def test_non_retryable_errors_raise_immediately(self):
        """unknown_session for a session this wrapper never opened, and
        bad_params, surface unchanged: zero retries, zero breaker
        movement (satellite: non-retryable pinning)."""
        factory = lambda: ReasoningServer(quiet_config())  # noqa: E731

        def scenario():
            with served(factory) as ((host, port), server):
                with wrap(host, port) as client:
                    before = (client.breaker.state, client.breaker.failures)

                    with pytest.raises(ServerError) as info:
                        client.implies("ghost", IMPLIED_FD)
                    assert info.value.code == ErrorCode.UNKNOWN_SESSION

                    client.open("pub", SCHEMA, [MVD])
                    with pytest.raises(ServerError) as info:
                        client.retract("pub", IMPLIED_FD)  # not a member
                    assert info.value.code == ErrorCode.BAD_PARAMS

                    with pytest.raises(ServerError) as info:
                        client.open("pub", SCHEMA)
                    assert info.value.code == ErrorCode.SESSION_EXISTS

                    after = (client.breaker.state, client.breaker.failures)
                    assert before == after == ("closed", 0)
                    assert "client.retry.attempts" not in client.counters
                    assert "client.retry.reopens" not in client.counters
                    # the server saw each request exactly once
                    assert server.counters["serve.requests.retract"] == 1

        scenario()

    def test_circuit_opens_then_fails_fast(self):
        factory = lambda: _FlakyServer(quiet_config(), fail_first=10**6)  # noqa: E731

        def scenario():
            with served(factory) as ((host, port), server):
                breaker = CircuitBreaker(failure_threshold=1,
                                         reset_after=60.0)
                with wrap(host, port, policy=RetryPolicy(max_retries=0),
                          breaker=breaker) as client:
                    with pytest.raises(ServerError):
                        client.ping()
                    assert breaker.state == "open"
                    served_count = server.counters["serve.requests"]
                    with pytest.raises(CircuitOpenError) as info:
                        client.ping()  # fails fast: no socket traffic
                    assert info.value.retry_after > 0
                    assert client.counters["client.retry.circuit_open"] == 1
                    assert server.counters["serve.requests"] == served_count

        scenario()

    def test_reconnects_through_a_dropped_connection(self):
        plan = FaultPlan([{"op": "ping", "kind": "drop", "when": "pre",
                           "every": 1, "times": 1}])
        factory = lambda: ReasoningServer(quiet_config(fault_plan=plan))  # noqa: E731

        def scenario():
            with served(factory) as ((host, port), _server):
                with wrap(host, port) as client:
                    assert client.ping()["pong"] is True
                    assert client.counters["client.retry.reconnects"] == 1
                    assert client.counters["client.retry.attempts"] == 1

        scenario()

    def test_replays_a_session_the_server_forgot(self):
        factory = lambda: ReasoningServer(quiet_config())  # noqa: E731

        def scenario():
            with served(factory) as ((host, port), server):
                with wrap(host, port) as client:
                    client.open("pub", SCHEMA, [MVD])
                    client.add("pub", NOT_IMPLIED)
                    assert client.tracked_sessions() == ("pub",)

                    # the server forgets the session behind our back
                    with Client.connect(host, port) as saboteur:
                        saboteur.close_session("pub")

                    # healed transparently: re-open + replay, then answer
                    assert client.implies("pub", NOT_IMPLIED) is True
                    assert client.counters["client.retry.reopens"] == 1
                    # recovery is not a retry
                    assert "client.retry.attempts" not in client.counters
                    metrics = client.metrics("pub")
                    assert metrics["sessions"]["pub"]["sigma"] == 2

        scenario()

    def test_replay_preserves_retractions(self):
        factory = lambda: ReasoningServer(quiet_config())  # noqa: E731

        def scenario():
            with served(factory) as ((host, port), _server):
                with wrap(host, port) as client:
                    client.open("pub", SCHEMA, [MVD])
                    client.add("pub", NOT_IMPLIED)
                    client.retract("pub", NOT_IMPLIED)
                    with Client.connect(host, port) as saboteur:
                        saboteur.close_session("pub")
                    assert client.implies("pub", NOT_IMPLIED) is False
                    assert client.implies("pub", IMPLIED_FD) is True
                    assert client.metrics("pub")["sessions"]["pub"]["sigma"] == 1

        scenario()

    def test_closed_sessions_are_not_replayed(self):
        factory = lambda: ReasoningServer(quiet_config())  # noqa: E731

        def scenario():
            with served(factory) as ((host, port), _server):
                with wrap(host, port) as client:
                    client.open("pub", SCHEMA, [MVD])
                    client.close_session("pub")
                    assert client.tracked_sessions() == ()
                    with pytest.raises(ServerError) as info:
                        client.implies("pub", IMPLIED_FD)
                    assert info.value.code == ErrorCode.UNKNOWN_SESSION
                    assert "client.retry.reopens" not in client.counters

        scenario()


class TestRetryingAsyncClient:
    def test_retries_through_transient_overload(self):
        async def scenario():
            config = quiet_config()
            async with _FlakyServer(config, fail_first=2,
                                    fail_op="implies") as server:
                host, port = server.address
                client = await RetryingAsyncClient.connect(
                    host, port, policy=FAST,
                    breaker=CircuitBreaker(failure_threshold=100),
                    rng=random.Random(0))
                try:
                    await client.open("pub", SCHEMA, [MVD])
                    assert await client.implies("pub", IMPLIED_FD) is True
                    assert client.counters["client.retry.attempts"] == 2
                finally:
                    await client.close()

        run(scenario())

    def test_reconnects_through_a_dropped_connection(self):
        plan = FaultPlan([{"op": "ping", "kind": "drop", "when": "pre",
                           "every": 1, "times": 1}])

        async def scenario():
            async with ReasoningServer(quiet_config(fault_plan=plan)) as server:
                host, port = server.address
                client = await RetryingAsyncClient.connect(
                    host, port, policy=FAST,
                    breaker=CircuitBreaker(failure_threshold=100),
                    rng=random.Random(0))
                try:
                    assert (await client.ping())["pong"] is True
                    assert client.counters["client.retry.reconnects"] == 1
                finally:
                    await client.close()

        run(scenario())

    def test_replays_a_session_the_server_forgot(self):
        async def scenario():
            async with ReasoningServer(quiet_config()) as server:
                host, port = server.address
                client = await RetryingAsyncClient.connect(
                    host, port, policy=FAST,
                    breaker=CircuitBreaker(failure_threshold=100),
                    rng=random.Random(0))
                try:
                    await client.open("pub", SCHEMA, [MVD])
                    await client.add("pub", NOT_IMPLIED)
                    server.sessions.close("pub")  # forgotten server-side
                    assert await client.implies("pub", NOT_IMPLIED) is True
                    assert client.counters["client.retry.reopens"] == 1
                finally:
                    await client.close()

        run(scenario())

    def test_non_retryable_errors_raise_immediately(self):
        async def scenario():
            async with ReasoningServer(quiet_config()) as server:
                host, port = server.address
                client = await RetryingAsyncClient.connect(
                    host, port, policy=FAST,
                    breaker=CircuitBreaker(failure_threshold=100),
                    rng=random.Random(0))
                try:
                    with pytest.raises(ServerError) as info:
                        await client.implies("ghost", IMPLIED_FD)
                    assert info.value.code == ErrorCode.UNKNOWN_SESSION
                    assert client.breaker.failures == 0
                    assert "client.retry.attempts" not in client.counters
                    assert server.counters["serve.requests.implies"] == 1
                finally:
                    await client.close()

        run(scenario())
