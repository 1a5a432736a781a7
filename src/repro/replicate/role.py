"""A node's role, chosen once from its config: a follower
(:class:`~repro.replicate.follower.FollowerRole`, ``replicate_from``),
a primary (:class:`~repro.replicate.primary.PrimaryRole`,
``data_dir``) or an ephemeral node (:class:`Role`, neither)."""

from __future__ import annotations

from typing import Any

from ..serve.protocol import ErrorCode, ProtocolError
from ..store import SessionStore


class Role:
    """Every hook in which the three nodes differ, as the ephemeral
    node (no WAL, no primary) answers them: it does nothing."""

    name = "ephemeral"  # the ``role`` of ``replicate.status``
    replicator: Any = None  # a follower's Replicator
    sweeps_idle = True  # whether idle sessions are evicted

    def __init__(self, server: Any) -> None:
        self.server = server
        self.store: SessionStore | None = None

    def recover(self) -> None:
        """Open the store and rebuild its sessions before the socket
        binds (a corrupt store refuses startup)."""
        server, config = self.server, self.server.config
        if config.data_dir is not None and self.store is None:
            self.store = SessionStore(
                config.data_dir, fsync=config.fsync,
                compact_records=config.store_compact_records,
                compact_bytes=config.store_compact_bytes,
                counters=server.counters, faults=server.faults)
            self.store.start(server.sessions)

    def start(self, address: tuple[str, int]) -> None:
        """The socket is bound at ``address``."""

    async def stop(self) -> None:
        """Shutdown begins."""

    def close(self) -> None:
        if self.store is not None:
            self.store.close()

    def dispatch(self, request: Any, command: Any) -> Any:
        """A request's result, a coroutine of it if it waits, or a
        function the server calls with a reply callback if the role
        answers it later (a primary's held ``replicate.subscribe``)."""
        return self.server.execute(command).result

    def status(self) -> dict[str, Any]:
        last_seq = self.store.last_seq if self.store is not None else 0
        return {"role": self.name, "last_seq": last_seq}

    def health(self) -> dict[str, Any]:
        return {}

    def metrics(self) -> dict[str, Any]:
        return {} if self.store is None else {"store": self.store.stats()}

    def _op_replicate_subscribe(self, command: Any) -> Any:
        raise ProtocolError(
            ErrorCode.BAD_PARAMS,
            "replication needs a WAL: start this node with --data-dir")

    _op_replicate_ack = _op_replicate_subscribe

    def _op_replicate_status(self, command: Any) -> dict[str, Any]:
        return self.status()
