"""Read scale-out: WAL-shipping replication for the reasoning server.

One primary serializes every Σ-mutation through its write-ahead log
(:mod:`repro.store`); any number of followers tail that log over the
wire (``replicate.subscribe``, whose ``from_seq`` also acknowledges
the follower's position), re-execute each record through the command
registry exactly like crash recovery, and answer read-only commands
locally — rejecting mutations with the typed ``not_primary`` error.
Because the implication workload the paper's Algorithm 5.1 serves is
read-dominated (implies/closure/basis against a slowly edited Σ), this
scales reads linearly with follower count while keeping a single,
totally ordered edit history.

Pieces
------
:mod:`~repro.replicate.role`
    A server's role, chosen once: ephemeral, primary or follower.
:class:`~repro.replicate.follower.Replicator`
    The follower-side streaming loop (run by its ``FollowerRole``).
:class:`~repro.replicate.primary.FollowerTable`
    Primary-side lag bookkeeping behind ``replicate.status``.
:class:`~repro.replicate.router.RoutedClient`
    Client-side routing: reads fan across replicas with ``min_seq``
    read fences (bounded staleness, read-your-writes), mutations go to
    the primary, failures fail over.

See docs/REPLICATION.md for topology, staleness and failover semantics.
"""

from .follower import Replicator
from .primary import FollowerTable, decode_batch, encode_batch
from .router import RoutedClient, parse_address

__all__ = [
    "FollowerTable",
    "Replicator",
    "RoutedClient",
    "decode_batch",
    "encode_batch",
    "parse_address",
]
