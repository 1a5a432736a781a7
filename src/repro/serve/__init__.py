"""``repro.serve`` — the network front-end over the reasoning engine.

A versioned newline-delimited-JSON protocol (:mod:`repro.serve.protocol`),
an asyncio TCP server with session management, inline closures,
backpressure, graceful shutdown and cold-work load shedding
(:mod:`repro.serve.server`), sync/async clients
(:mod:`repro.serve.client`), a client-side resilience layer — retry
policy with full-jitter backoff, circuit breaker, reconnect and
session replay (:mod:`repro.serve.resilience`) — and deterministic
seed-driven fault injection for chaos testing
(:mod:`repro.serve.faults`).

Read scale-out lives in the sibling :mod:`repro.replicate` package:
``--replicate-from`` turns a server into a read-only follower of a
WAL-shipping primary, and :class:`repro.replicate.RoutedClient` fans
read-only ops across replicas with bounded-staleness read fences
(``RoutedClient`` is deliberately *not* re-exported here — importing
it would cycle back into this package; see docs/REPLICATION.md).

Quick start::

    python -m repro serve --port 7474                      # terminal 1
    python -m repro query --connect 127.0.0.1:7474 --session pub \\
        --schema "Pubcrawl(Person, Visit[Drink(Beer, Pub)])" \\
        -d "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])" open  # terminal 2
    python -m repro query --connect 127.0.0.1:7474 --session pub \\
        implies "Pubcrawl(Person) -> Pubcrawl(Visit[λ])"

See ``docs/SERVER.md`` for the protocol specification, error codes and
deployment notes.
"""

from .client import AsyncClient, Client, ServerError
from .faults import FaultInjector, FaultPlan, FaultRule
from .protocol import (
    OPS,
    PROTOCOL_VERSION,
    ErrorCode,
    ProtocolError,
    Request,
)
from .resilience import (
    CircuitBreaker,
    CircuitOpenError,
    RetryingAsyncClient,
    RetryingClient,
    RetryPolicy,
)
from .server import ReasoningServer, ServeConfig, SessionManager

__all__ = [
    "AsyncClient",
    "CircuitBreaker",
    "CircuitOpenError",
    "Client",
    "ErrorCode",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ReasoningServer",
    "Request",
    "RetryingAsyncClient",
    "RetryingClient",
    "RetryPolicy",
    "ServeConfig",
    "ServerError",
    "SessionManager",
]
