"""Client-side read scale-out: route reads to replicas, writes home.

:class:`RoutedClient` wraps one :class:`~repro.serve.resilience.RetryingClient`
per node — the primary plus any number of replicas — behind the same
per-op surface every other client speaks (``_OpsMixin``).  Routing is
derived from the command registry, never hand-kept: an op whose spec is
``read_only`` **and** session-scoped fans out round-robin across the
replicas; everything else (mutations, admin ops) goes to the primary.

Bounded staleness
-----------------
Every mutation acknowledged by a store-backed primary carries the WAL
``seq`` it was persisted at.  The router remembers the highest one and
sends it as a ``min_seq`` fence with each replica read: a replica at or
past the fence answers immediately, one behind it waits briefly for the
tail to catch up and otherwise answers with the typed
``replica_behind`` — at which point the router *redirects* (next
replica, finally the primary, which is never stale).  Read-your-writes
therefore holds across the whole fleet while unfenced readers enjoy
raw replica throughput.

Failover
--------
A replica whose circuit opens (:class:`CircuitOpenError`), drops the
connection, or answers ``not_primary``/``unknown_session`` (a lagging
replica may not have a freshly opened session yet) is skipped for that
request; the primary is the read path of last resort.  Failures are
per-node: one replica's open circuit never blocks the others.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..core import commands
from ..obs import Tally
from ..serve.client import ServerError, _OpsMixin
from ..serve.protocol import ErrorCode
from ..serve.resilience import CircuitOpenError, RetryingClient

__all__ = ["RoutedClient", "parse_address"]

#: Typed codes that mean "ask a different node", not "give up".
_REDIRECT_CODES = frozenset({ErrorCode.REPLICA_BEHIND,
                             ErrorCode.NOT_PRIMARY,
                             ErrorCode.UNKNOWN_SESSION})


def parse_address(text: str) -> tuple[str, int]:
    """``"HOST:PORT"`` → ``(host, port)`` (host defaults to loopback)."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host or "127.0.0.1", int(port)


class RoutedClient(_OpsMixin):
    """Fan read-only commands across replicas; send the rest home.

    ``primary`` and each entry of ``replicas`` are ``(host, port)``
    pairs (or ``"host:port"`` strings).  ``connect`` is the per-node
    client factory — :meth:`RetryingClient.connect` by default, injectable
    for tests.  ``fence=False`` disables read-your-writes fencing (pure
    throughput mode; reads may be arbitrarily stale).
    """

    def __init__(self, primary: Any, replicas: Sequence[Any] = (), *,
                 fence: bool = True,
                 connect: Callable[..., Any] | None = None,
                 **client_kwargs: Any) -> None:
        factory = connect if connect is not None else RetryingClient.connect
        self._nodes: list[Any] = []
        self._addresses: list[tuple[str, int]] = []
        for address in [primary, *replicas]:
            host, port = (parse_address(address)
                          if isinstance(address, str) else address)
            self._addresses.append((host, port))
            self._nodes.append(factory(host, port, **client_kwargs))
        self._rr = 0
        #: The read-your-writes fence: highest acknowledged WAL seq.
        self.min_seq = 0
        self.fence = fence
        self.counters = Tally()

    # -- lifecycle -----------------------------------------------------------

    @property
    def primary(self) -> Any:
        return self._nodes[0]

    @property
    def replicas(self) -> tuple[Any, ...]:
        return tuple(self._nodes[1:])

    @property
    def addresses(self) -> tuple[tuple[str, int], ...]:
        return tuple(self._addresses)

    def __enter__(self) -> "RoutedClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        for node in self._nodes:
            try:
                node.close()
            except OSError:  # pragma: no cover - teardown best-effort
                pass

    # -- routing -------------------------------------------------------------

    @staticmethod
    def _fans_out(op: str) -> bool:
        cls = commands.REGISTRY.get(op)
        return (cls is not None and cls.spec.wire and cls.spec.read_only
                and cls.spec.scope == "session")

    def _read_plan(self) -> list[Any]:
        """Replicas starting at the round-robin cursor, primary last."""
        replicas = self._nodes[1:]
        if not replicas:
            return [self._nodes[0]]
        self._rr = (self._rr + 1) % len(replicas)
        rotated = replicas[self._rr:] + replicas[:self._rr]
        return rotated + [self._nodes[0]]

    def request(self, op: str, **params: Any) -> dict[str, Any]:
        """Send one request along the derived route."""
        if not self._fans_out(op) or len(self._nodes) == 1:
            result = self._nodes[0].request(op, **params)
            seq = result.get("seq")
            if self.fence and isinstance(seq, int) and not isinstance(seq, bool):
                self.min_seq = max(self.min_seq, seq)
            return result
        plan = self._read_plan()
        if self.fence and self.min_seq > 0:
            params = {**params, "min_seq": self.min_seq}
        last_error: Exception | None = None
        for index, node in enumerate(plan):
            final = index == len(plan) - 1
            if final:
                # the primary never carries a fence — it defines it
                params.pop("min_seq", None)
            try:
                result = node.request(op, **params)
            except CircuitOpenError as error:
                self.counters.add("routed.failover")
                last_error = error
                continue
            except (ConnectionError, TimeoutError, OSError) as error:
                self.counters.add("routed.failover")
                last_error = error
                continue
            except ServerError as error:
                if error.code in _REDIRECT_CODES and not final:
                    self.counters.add("routed.redirects")
                    last_error = error
                    continue
                raise
            self.counters.add("routed.primary_reads" if final
                       else "routed.replica_reads")
            return result
        raise last_error  # type: ignore[misc]  # plan is never empty

    _request = request

    @staticmethod
    def _map(result, extract):
        return extract(result)
