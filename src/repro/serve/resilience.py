"""Client-side resilience: retry policy, circuit breaker, healing clients.

The server's failure surface is typed — ``overloaded`` and ``timeout``
are the two *retryable* wire codes (:data:`repro.serve.protocol.RETRYABLE`)
and a dropped connection is always worth one reconnect — but the plain
clients surface every failure to the caller.  This module closes the
loop:

* :class:`RetryPolicy` — exponential backoff with **full jitter**
  (each sleep is uniform in ``[0, min(cap, base·multiplier^attempt)]``),
  a bounded retry budget (``max_retries``) and per-request deadline
  awareness: the total time a request may spend across attempts and
  sleeps never exceeds ``deadline`` (each sleep is clamped to the time
  remaining, and an exhausted deadline stops retrying).  A
  ``max_retries=0`` policy is a transparent pass-through: the original
  error surfaces unchanged.

* :class:`CircuitBreaker` — after ``failure_threshold`` *consecutive*
  retryable failures the circuit opens and calls fail fast with
  :class:`CircuitOpenError` (no socket traffic) until ``reset_after``
  seconds pass; the first call after the cooldown is the half-open
  probe — its success closes the circuit, its failure re-opens it.
  Non-retryable errors never touch breaker state.

* :class:`RetryingClient` / :class:`RetryingAsyncClient` — the
  blocking and pipelining clients wrapped in both of the above, plus
  connection healing: a dropped connection is re-dialled before the
  retry, and a session the *wrapper itself* opened that comes back
  ``unknown_session`` (evicted, or the server restarted) is re-opened
  with ``replace=True`` and its add/retract log replayed before the
  original request is retried.  Replay safety is the server's
  ``(epoch, generation)`` machinery (docs/SERVER.md): a re-opened name
  is a brand-new epoch server-side, so a replay can never be answered
  from state warmed for the evicted predecessor.  ``unknown_session``
  for a session this client did *not* open stays a hard error —
  zero retries, zero breaker change.

Every retry sleep is traced as a ``client.retry`` span and counted
(``client.retry.attempts``, ``client.retry.reconnects``,
``client.retry.reopens``, ``client.retry.exhausted``,
``client.retry.circuit_open``) on the wrapper's always-on ``counters``,
a :class:`~repro.obs.Tally` that mirrors each count into the installed
observer.

One layer up, :class:`repro.replicate.RoutedClient` composes a
*fleet* of these wrappers — one per replica plus the primary — and
uses the per-connection circuit breakers as its failover signal: a
replica whose circuit opens is skipped for a cooldown instead of
stalling every fanned-out read (docs/REPLICATION.md).
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Any, Callable

from ..core import commands
from ..obs import Tally, get_observer
from .client import AsyncClient, Client, ServerError, _OpsMixin
from .protocol import ErrorCode

__all__ = ["RetryPolicy", "CircuitBreaker", "CircuitOpenError",
           "RetryingClient", "RetryingAsyncClient"]


class CircuitOpenError(ConnectionError):
    """Raised instead of touching the socket while the circuit is open."""

    def __init__(self, message: str, *, retry_after: float) -> None:
        super().__init__(message)
        #: Seconds until the breaker's half-open probe becomes available.
        self.retry_after = retry_after


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter, bounded budget and deadline.

    The backoff ceiling for attempt *k* (0-based) is
    ``min(max_delay, base_delay · multiplier^k)`` and the actual sleep
    is drawn uniformly from ``[0, ceiling]`` (*full jitter* — the
    de-synchronising variant, so a thundering herd of rejected clients
    does not re-converge on the server in lockstep).
    """

    #: Retry budget: how many times a failed request may be re-sent
    #: (``0`` = never retry, surface the original error unchanged).
    max_retries: int = 4
    #: First-attempt backoff ceiling in seconds.
    base_delay: float = 0.05
    #: Ceiling growth factor per attempt.
    multiplier: float = 2.0
    #: Hard cap on any single backoff sleep, in seconds.
    max_delay: float = 2.0
    #: Wall-clock budget for one logical request including all retries
    #: and sleeps (``None`` = unbounded).
    deadline: float | None = 30.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")

    def backoff_ceiling(self, attempt: int) -> float:
        """The jitter interval's upper bound for 0-based ``attempt``."""
        return min(self.max_delay, self.base_delay * self.multiplier ** attempt)

    def next_delay(self, attempt: int, elapsed: float,
                   rng: random.Random) -> float | None:
        """The sleep before retry number ``attempt + 1``, or ``None``.

        ``None`` means *give up* (budget spent or deadline passed);
        otherwise the returned delay is jittered in
        ``[0, backoff_ceiling(attempt)]`` and clamped so
        ``elapsed + delay`` never exceeds :attr:`deadline`.
        """
        if attempt >= self.max_retries:
            return None
        delay = rng.uniform(0.0, self.backoff_ceiling(attempt))
        if self.deadline is not None:
            remaining = self.deadline - elapsed
            if remaining <= 0:
                return None
            delay = min(delay, remaining)
        return delay


class CircuitBreaker:
    """Consecutive-failure circuit breaker (closed → open → half-open).

    Deliberately simple: ``failure_threshold`` consecutive retryable
    failures open the circuit; :meth:`allow` fails fast for
    ``reset_after`` seconds, then admits exactly one half-open probe;
    the probe's success closes the circuit, its failure re-opens it
    for another full cooldown.  A breaker is per-client state — share
    one instance across wrappers to pool their evidence.
    """

    def __init__(self, *, failure_threshold: int = 5,
                 reset_after: float = 30.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}")
        if reset_after <= 0:
            raise ValueError(f"reset_after must be positive, got {reset_after}")
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self._clock = clock
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half_open"`` (probe in flight)."""
        return self._state

    @property
    def failures(self) -> int:
        """Consecutive retryable failures since the last success."""
        return self._failures

    def retry_after(self) -> float:
        """Seconds until an open circuit admits its half-open probe."""
        if self._state != "open":
            return 0.0
        return max(0.0, self.reset_after - (self._clock() - self._opened_at))

    def allow(self) -> bool:
        """Whether a call may proceed now (may transition to half-open)."""
        if self._state == "closed":
            return True
        if self._state == "open":
            if self._clock() - self._opened_at >= self.reset_after:
                self._state = "half_open"
                return True
            return False
        # half-open: the probe slot is taken until it reports back
        return False

    def record_success(self) -> None:
        self._state = "closed"
        self._failures = 0

    def record_failure(self) -> None:
        self._failures += 1
        if self._state == "half_open" or self._failures >= self.failure_threshold:
            self._state = "open"
            self._opened_at = self._clock()


class _SessionLog:
    """What the wrapper needs to rebuild one of *its* sessions: the
    ``open`` arguments plus the chronological add/retract log."""

    __slots__ = ("schema", "dependencies", "engine", "ops")

    def __init__(self, schema: str, dependencies: list[str],
                 engine: str | None) -> None:
        self.schema = schema
        self.dependencies = list(dependencies)
        self.engine = engine
        self.ops: list[tuple[str, str]] = []


class _ResilienceCore(_OpsMixin):
    """Book-keeping shared by the sync and async retrying clients."""

    def __init__(self, host: str, port: int, *,
                 policy: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None,
                 rng: random.Random | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._host = host
        self._port = port
        self.policy = policy if policy is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._rng = rng if rng is not None else random.Random()
        self._clock = clock
        self._sessions: dict[str, _SessionLog] = {}
        self._replaying = False
        #: Always-on counts of this client (mirrored into the observer).
        self.counters = Tally()

    def _check_circuit(self) -> None:
        if not self.breaker.allow():
            self.counters.add("client.retry.circuit_open")
            raise CircuitOpenError(
                "circuit breaker is open after "
                f"{self.breaker.failures} consecutive failures",
                retry_after=self.breaker.retry_after())

    def _classify(self, op: str, error: Exception) -> str | None:
        """The retry class of ``error``: a code string, or ``None`` for
        errors that must surface immediately (no retry, no breaker).

        For typed server errors the verdict comes from the command
        registry (:func:`repro.core.commands.retry_safe`): ``overloaded``
        is a pre-execution rejection and always safe to resend, while
        ``timeout`` may have executed server-side and is only resent for
        commands whose declared wire schema marks them read-only.
        Connection-level failures stay op-agnostic — the ``(epoch,
        generation)`` replay machinery heals any divergence they cause.
        """
        if isinstance(error, ServerError):
            if error.retryable and commands.retry_safe(op, error.code):
                return error.code
            return None
        if isinstance(error, (ConnectionError, TimeoutError, OSError)):
            return "connection"
        return None  # pragma: no cover - nothing else is caught

    # -- session log --------------------------------------------------------

    def tracked_sessions(self) -> tuple[str, ...]:
        """Names of sessions this wrapper opened (and would replay)."""
        return tuple(self._sessions)

    def _can_recover(self, op: str, params: dict[str, Any]) -> bool:
        """Whether an ``unknown_session`` for this request is healable:
        the wrapper opened (and still tracks) the named session."""
        if self._replaying or op in ("open", "close"):
            return False
        return params.get("session") in self._sessions

    def _note_success(self, op: str, params: dict[str, Any],
                      result: dict[str, Any]) -> None:
        if self._replaying:
            return  # replays re-issue logged ops; never re-log them
        if op == "open":
            self._sessions[params["name"]] = _SessionLog(
                params["schema"], list(params.get("dependencies", [])),
                params.get("engine"))
        elif op == "close":
            self._sessions.pop(params.get("session"), None)
        elif op == "add" and result.get("added"):
            log = self._sessions.get(params.get("session"))
            if log is not None:
                log.ops.append(("add", params["dependency"]))
        elif op == "retract":
            log = self._sessions.get(params.get("session"))
            if log is not None:
                log.ops.append(("retract", params["dependency"]))


class RetryingClient(_ResilienceCore):
    """The blocking :class:`~repro.serve.client.Client` with retries,
    reconnects, session replay and a circuit breaker.

    >>> with RetryingClient.connect(host, port) as client:  # doctest: +SKIP
    ...     client.open("s", "R(A, B, C)", ["R(A) -> R(B)"])
    ...     client.implies("s", "R(A) -> R(B)")   # survives overload/drops
    True
    """

    def __init__(self, host: str, port: int, *,
                 policy: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None,
                 rng: random.Random | None = None,
                 timeout: float | None = 10.0,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic) -> None:
        super().__init__(host, port, policy=policy, breaker=breaker,
                         rng=rng, clock=clock)
        self._timeout = timeout
        self._sleep = sleep
        self._client: Client | None = None

    @classmethod
    def connect(cls, host: str, port: int, **kwargs: Any) -> "RetryingClient":
        client = cls(host, port, **kwargs)
        client._ensure()
        return client

    def __enter__(self) -> "RetryingClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        self._disconnect()

    # -- plumbing -----------------------------------------------------------

    def _ensure(self) -> Client:
        if self._client is None:
            self._client = Client.connect(self._host, self._port,
                                          timeout=self._timeout)
        return self._client

    def _disconnect(self) -> None:
        if self._client is not None:
            try:
                self._client.close()
            except OSError:  # pragma: no cover - teardown best-effort
                pass
            self._client = None

    def _reopen(self, name: str) -> None:
        """Replay a tracked session after ``unknown_session``."""
        log = self._sessions[name]
        self.counters.add("client.retry.reopens")
        self._replaying = True
        try:
            self.open(name, log.schema, log.dependencies,
                      engine=log.engine, replace=True)
            for op, dependency in log.ops:
                self.request(op, session=name, dependency=dependency)
        finally:
            self._replaying = False

    def request(self, op: str, **params: Any) -> dict[str, Any]:
        """Send one request, retrying within policy/breaker/deadline."""
        started = self._clock()
        attempt = 0
        recovered = False
        while True:
            self._check_circuit()
            try:
                result = self._ensure().request(op, **params)
            except ServerError as error:
                if (error.code == ErrorCode.UNKNOWN_SESSION
                        and not recovered and self._can_recover(op, params)):
                    recovered = True
                    self._reopen(params["session"])
                    continue  # same attempt: recovery is not a retry
                code = self._classify(op, error)
                if code is None:
                    raise
                last_error: Exception = error
            except (ConnectionError, TimeoutError, OSError) as error:
                code = "connection"
                last_error = error
                self._disconnect()
            else:
                self.breaker.record_success()
                self._note_success(op, params, result)
                return result
            self.breaker.record_failure()
            delay = self.policy.next_delay(attempt,
                                           self._clock() - started, self._rng)
            if delay is None:
                self.counters.add("client.retry.exhausted")
                raise last_error
            self.counters.add("client.retry.attempts")
            if code == "connection":
                self.counters.add("client.retry.reconnects")
            with get_observer().span("client.retry", op=op, attempt=attempt,
                                     code=code, sleep_s=round(delay, 6)):
                if delay > 0:
                    self._sleep(delay)
            attempt += 1

    _request = request

    @staticmethod
    def _map(result, extract):
        return extract(result)


class RetryingAsyncClient(_ResilienceCore):
    """The pipelining :class:`~repro.serve.client.AsyncClient` with the
    same retry/reconnect/replay/breaker behaviour as
    :class:`RetryingClient`.

    Concurrent requests share the breaker and the underlying
    connection; a reconnect re-dials once and every queued retry reuses
    the fresh connection.
    """

    def __init__(self, host: str, port: int, *,
                 policy: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None,
                 rng: random.Random | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        super().__init__(host, port, policy=policy, breaker=breaker,
                         rng=rng, clock=clock)
        self._client: AsyncClient | None = None
        self._connecting: asyncio.Lock | None = None

    @classmethod
    async def connect(cls, host: str, port: int,
                      **kwargs: Any) -> "RetryingAsyncClient":
        client = cls(host, port, **kwargs)
        await client._ensure()
        return client

    async def __aenter__(self) -> "RetryingAsyncClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def close(self) -> None:
        await self._disconnect()

    # -- plumbing -----------------------------------------------------------

    async def _ensure(self) -> AsyncClient:
        if self._connecting is None:
            self._connecting = asyncio.Lock()
        async with self._connecting:
            if self._client is None:
                self._client = await AsyncClient.connect(self._host,
                                                         self._port)
            return self._client

    async def _disconnect(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            await client.close()

    async def _reopen(self, name: str) -> None:
        log = self._sessions[name]
        self.counters.add("client.retry.reopens")
        self._replaying = True
        try:
            await self.open(name, log.schema, log.dependencies,
                            engine=log.engine, replace=True)
            for op, dependency in log.ops:
                await self.request(op, session=name, dependency=dependency)
        finally:
            self._replaying = False

    async def request(self, op: str, **params: Any) -> dict[str, Any]:
        """Send one request, retrying within policy/breaker/deadline."""
        started = self._clock()
        attempt = 0
        recovered = False
        while True:
            self._check_circuit()
            client = None
            try:
                client = await self._ensure()
                result = await client.request(op, **params)
            except ServerError as error:
                if (error.code == ErrorCode.UNKNOWN_SESSION
                        and not recovered and self._can_recover(op, params)):
                    recovered = True
                    await self._reopen(params["session"])
                    continue  # same attempt: recovery is not a retry
                code = self._classify(op, error)
                if code is None:
                    raise
                last_error: Exception = error
            except (ConnectionError, TimeoutError, OSError) as error:
                code = "connection"
                last_error = error
                if self._client is client:
                    await self._disconnect()
            else:
                self.breaker.record_success()
                self._note_success(op, params, result)
                return result
            self.breaker.record_failure()
            delay = self.policy.next_delay(attempt,
                                           self._clock() - started, self._rng)
            if delay is None:
                self.counters.add("client.retry.exhausted")
                raise last_error
            self.counters.add("client.retry.attempts")
            if code == "connection":
                self.counters.add("client.retry.reconnects")
            with get_observer().span("client.retry", op=op, attempt=attempt,
                                     code=code, sleep_s=round(delay, 6)):
                if delay > 0:
                    await asyncio.sleep(delay)
            attempt += 1

    _request = request

    @staticmethod
    async def _map(awaitable, extract):
        return extract(await awaitable)
