"""The server's session table: named sessions with LRU and idle-TTL
eviction, pure bookkeeping with no I/O and no asyncio."""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Iterable

from ..attributes.nested import NestedAttribute
from ..attributes.parser import parse_attribute
from ..core.session import Session
from ..dependencies.dependency import Dependency
from ..exceptions import ReproError
from ..obs import Tally, get_observer
from .protocol import ErrorCode, ProtocolError

__all__ = ["ManagedSession", "SessionManager"]


class ManagedSession:
    """A named :class:`Session` plus its server-side bookkeeping."""

    __slots__ = ("name", "session", "epoch", "generation", "last_used",
                 "opened_at")

    def __init__(self, name: str, session: Session, now: float,
                 epoch: int) -> None:
        self.name = name
        self.session = session
        #: Server-unique id for this *opening* of the name — two sessions
        #: never share an epoch, even when one replaces the other under
        #: the same name.
        self.epoch = epoch
        #: Bumped on every Σ edit.
        self.generation = 0
        self.last_used = now
        self.opened_at = now


class SessionManager:
    """Named sessions with LRU + idle-TTL eviction.

    Pure bookkeeping — no I/O, no asyncio — so it is directly unit
    testable.  ``counters`` is the server's :class:`~repro.obs.Tally`
    (its own when none is given); eviction also emits a ``serve.evict``
    span through the installed observer.
    """

    def __init__(self, *, max_sessions: int = 64,
                 idle_ttl: float | None = None,
                 counters: Tally | None = None) -> None:
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions!r}")
        self.max_sessions = max_sessions
        self.idle_ttl = idle_ttl
        self.counters = Tally() if counters is None else counters
        self._sessions: "OrderedDict[str, ManagedSession]" = OrderedDict()
        #: The next session opening's epoch.
        self._next_epoch = 1

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, name: str) -> bool:
        return name in self._sessions

    def names(self) -> tuple[str, ...]:
        """Open session names, least recently used first."""
        return tuple(self._sessions)

    def open(self, name: str, schema: str | NestedAttribute,
             dependencies: Iterable[Dependency | str] = (), *,
             engine: str | None = None, replace: bool = False,
             now: float | None = None) -> ManagedSession:
        """Create (or, with ``replace``, recreate) a named session."""
        if name in self._sessions and not replace:
            raise ProtocolError(
                ErrorCode.SESSION_EXISTS,
                f"session {name!r} is already open (pass replace to recreate)",
            )
        return self._install(name, schema, dependencies, engine, now,
                             "serve.sessions_opened")

    def restore(self, name: str, schema: str | NestedAttribute,
                dependencies: Iterable[Dependency | str] = (), *,
                engine: str | None = None, epoch: int,
                generation: int) -> ManagedSession:
        """Rebuild a session from persisted state (recovery only).

        Unlike :meth:`open`, the session keeps the ``(epoch,
        generation)`` it had before the restart — clients tracking
        lineage see one continuous session — and the epoch counter
        moves past it so later opens cannot collide.  Counted as a
        restore, not an open.
        """
        managed = self._install(name, schema, dependencies, engine, None,
                                "serve.sessions_restored")
        managed.epoch = epoch
        managed.generation = generation
        self._next_epoch = max(self._next_epoch, epoch + 1)
        return managed

    def _install(self, name: str, schema: str | NestedAttribute,
                 dependencies: Iterable[Dependency | str],
                 engine: str | None, now: float | None,
                 count_as: str) -> ManagedSession:
        """Build a session under the next epoch as ``name``'s holder."""
        try:
            root = parse_attribute(schema) if isinstance(schema, str) else schema
            session = Session(root, dependencies, engine=engine)
        except ProtocolError:
            raise
        except (ReproError, ValueError) as error:
            raise ProtocolError(ErrorCode.BAD_PARAMS, str(error)) from error
        managed = ManagedSession(name, session,
                                 time.monotonic() if now is None else now,
                                 self._next_epoch)
        self._next_epoch += 1
        self._sessions[name] = managed
        self._sessions.move_to_end(name)
        self.counters.add(count_as)
        while len(self._sessions) > self.max_sessions:
            victim, _ = self._sessions.popitem(last=False)
            self._evicted(victim, "lru")
        return managed

    def snapshot_state(self) -> dict[str, dict[str, Any]]:
        """Every open session's durable state, for
        :meth:`repro.store.SessionStore.snapshot` (insertion = LRU
        order; the session's own :meth:`~repro.core.session.Session.snapshot_state`
        plus the server-side lineage pair)."""
        return {name: {**managed.session.snapshot_state(),
                       "epoch": managed.epoch,
                       "generation": managed.generation}
                for name, managed in self._sessions.items()}

    def get(self, name: str, *, now: float | None = None) -> ManagedSession:
        """Look up and LRU-touch a session; raises ``unknown_session``."""
        managed = self._sessions.get(name)
        if managed is None:
            raise ProtocolError(ErrorCode.UNKNOWN_SESSION,
                                f"no session named {name!r}")
        managed.last_used = time.monotonic() if now is None else now
        self._sessions.move_to_end(name)
        return managed

    def close(self, name: str) -> ManagedSession:
        """Explicitly close a session; raises ``unknown_session``."""
        managed = self._sessions.pop(name, None)
        if managed is None:
            raise ProtocolError(ErrorCode.UNKNOWN_SESSION,
                                f"no session named {name!r}")
        self.counters.add("serve.sessions_closed")
        return managed

    def peek(self, name: str) -> ManagedSession:
        """Look up a session *without* touching its LRU/idle clock."""
        managed = self._sessions.get(name)
        if managed is None:
            raise ProtocolError(ErrorCode.UNKNOWN_SESSION,
                                f"no session named {name!r}")
        return managed

    def sweep_idle(self, *, now: float | None = None) -> int:
        """Evict every session idle longer than ``idle_ttl``; returns count."""
        if self.idle_ttl is None:
            return 0
        now = time.monotonic() if now is None else now
        victims = [name for name, managed in self._sessions.items()
                   if now - managed.last_used > self.idle_ttl]
        for name in victims:
            del self._sessions[name]
            self._evicted(name, "idle")
        return len(victims)

    def _evicted(self, name: str, reason: str) -> None:
        self.counters.add("serve.evictions")
        self.counters.add(f"serve.evictions.{reason}")
        with get_observer().span("serve.evict", session=name, reason=reason):
            pass
