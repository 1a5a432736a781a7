"""The typed command registry: one dispatch surface for every operation.

Every reasoning operation the paper gives us — membership of ``X → Y``
/ ``X ↠ Y`` via ``X⁺`` and ``DepB(X)`` (Algorithm 5.1, Theorem 6.3),
closures, dependency bases, covers, candidate keys, 4NF checks — is
declared once here and dispatched from here by every surface: the
``repro`` CLI, the interactive shell, the serve protocol and in-process
callers holding a :class:`~repro.core.session.Session`:

* Each operation is a **frozen dataclass command** (:class:`Implies`,
  :class:`Closure`, :class:`Basis`, :class:`Add`, :class:`Retract`,
  :class:`MinimalCover`, :class:`Keys`, :class:`Check4NF`,
  :class:`IsRedundant`, …) carrying a declared :class:`CommandSpec`:
  wire params and result fields (with JSON types, used for per-op
  validation), a ``read_only`` flag (drives client-side retry safety),
  a cost class (``hot``/``cold``/``edit``/``admin``, drives the
  server's shed-cold policy) and a docs line (drives the generated
  op table in docs/SERVER.md).

* A single executor (:func:`execute`) runs any command against a
  :class:`~repro.core.session.Session` under uniform observability
  (``command.run`` spans, ``command.*`` counters, a ``command.ms``
  histogram — see docs/OBSERVABILITY.md) and an optional soft
  :class:`Deadline` honoured between units of work by compound
  commands.

* The registry (:data:`REGISTRY`, :func:`wire_ops`,
  :func:`from_wire`) is what the surfaces consume:
  ``serve/protocol.py`` derives its ``OPS`` set from
  :func:`wire_ops`; ``server.py`` looks commands up here instead of
  branching per op (near capacity, its shed-cold check asks
  :meth:`Command.lhs_masks` which closures a request needs); the CLI and shell build their verb
  tables and help text from the specs.  In process, a caller builds
  the command and executes it on its session:

  >>> from repro.core.session import Session
  >>> session = Session("R(A, B, C)", ["R(A) -> R(B)"])
  >>> execute(ImpliesBatch(dependencies=("R(A) -> R(B)",
  ...                                    "R(B) -> R(C)")), session).value
  [True, False]

Adding a future operation is therefore **one file**: define the
dataclass with its spec here and every surface — wire validation, the
server, the CLI verb list, shell help, the generated docs table — picks
it up.  :func:`_check_registry` runs at import time and fails loudly if
a registered command is missing any part of its contract.

Layering note: this module lives in ``repro.core`` and never imports
``repro.serve``.  Wire-parameter validation raises
:class:`CommandParamError` (a ``ValueError``), which the server maps to
its typed ``bad_params`` wire code — the messages here are exactly the
ones the wire protocol has always produced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Mapping

from ..attributes.printer import unparse_abbreviated
from ..dependencies.dependency import Dependency
from ..obs import get_observer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .session import Session

__all__ = [
    "CommandParamError",
    "DeadlineExceeded",
    "Deadline",
    "CommandContext",
    "Outcome",
    "ParamSpec",
    "FieldSpec",
    "CommandSpec",
    "Command",
    "Ping",
    "Health",
    "Open",
    "Add",
    "Retract",
    "Implies",
    "ImpliesBatch",
    "Closure",
    "Basis",
    "MinimalCover",
    "Keys",
    "Check4NF",
    "IsRedundant",
    "Trace",
    "Metrics",
    "Close",
    "ReplicateSubscribe",
    "ReplicateAck",
    "ReplicateStatus",
    "REGISTRY",
    "register",
    "wire_ops",
    "from_wire",
    "retry_safe",
    "execute",
    "op_table",
]


# --------------------------------------------------------------------------
# Errors, deadlines, context

class CommandParamError(ValueError):
    """A wire parameter failed its declared validation.

    Subclasses :class:`ValueError` so the server's generic error mapping
    turns it into the typed ``bad_params`` wire error with this message.
    """


class DeadlineExceeded(TimeoutError):
    """A command overran its soft :class:`Deadline`.

    Subclasses :class:`TimeoutError` (``asyncio.TimeoutError`` on
    3.11+), so the server's timeout mapping produces the typed
    ``timeout`` wire error.
    """


class Deadline:
    """A soft deadline compound commands poll between units of work.

    The server arms one per request (``request_timeout``): nothing can
    pre-empt inline work, so long loops (batch sweeps, key searches)
    stop at a clean boundary.  A single closure runs to completion.
    """

    __slots__ = ("_expires_at", "_clock")

    def __init__(self, seconds: float, *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._expires_at = clock() + seconds

    def remaining(self) -> float:
        return self._expires_at - self._clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self) -> None:
        """Raise :class:`DeadlineExceeded` once the budget is spent."""
        if self.expired:
            raise DeadlineExceeded("command exceeded its deadline")


@dataclass
class CommandContext:
    """What a command runs against: the session plus the soft deadline."""

    session: "Session"
    deadline: Deadline | None = None

    def check_deadline(self) -> None:
        if self.deadline is not None:
            self.deadline.check()


@dataclass
class Outcome:
    """What executing a command produced.

    ``result`` is the wire-shaped JSON object (exactly what the server
    returns and what the CLI renders); ``value`` is the rich in-process
    object for local façades (a verdict, a :class:`ClosureResult`, a
    :class:`~repro.dependencies.sigma.DependencySet`, …); ``mutated``
    tells the server whether to bump the session generation and log
    the request to its WAL.
    """

    result: dict[str, Any]
    mutated: bool = False
    value: Any = None


# --------------------------------------------------------------------------
# Specs

#: JSON types a wire parameter may declare.
_PARAM_TYPES = ("string", "list[string]", "bool", "int", "number")

#: Cost classes: ``admin`` (bookkeeping), ``edit`` (Σ mutation),
#: ``hot`` (cache-hit lookups only) and ``cold`` (may run the kernel —
#: the server's shed-cold policy applies).
_COST_CLASSES = ("admin", "edit", "hot", "cold")

#: Who executes the command: ``session`` commands run against one
#: :class:`Session`; ``server`` commands need server state (session
#: table, uptime, counters) and are bound by the server at startup.
_SCOPES = ("session", "server")


@dataclass(frozen=True)
class ParamSpec:
    """One declared wire parameter."""

    name: str
    type: str = "string"
    required: bool = True
    #: Extra predicate on top of the type check (e.g. non-empty).
    non_empty: bool = False
    #: Short note for the generated docs table (e.g. ``"(list)"``).
    doc: str = ""

    def validate(self, params: Mapping[str, Any]) -> Any:
        """Extract and type-check this parameter from raw wire params.

        A missing required parameter fails the type check (``None`` is
        never a valid value), producing the same message an
        ill-typed value would — exactly the wire errors the protocol
        has always spoken.
        """
        if self.name not in params and not self.required:
            return None
        value = params.get(self.name)
        if self.type == "string":
            if not isinstance(value, str) or (self.non_empty and not value):
                kind = "a non-empty string" if self.non_empty else "a string"
                raise CommandParamError(f"{self.name!r} must be {kind}")
            return value
        if self.type == "list[string]":
            if (not isinstance(value, list)
                    or not all(isinstance(item, str) for item in value)):
                raise CommandParamError(
                    f"{self.name!r} must be a list of strings")
            return list(value)
        if self.type == "bool":
            return bool(value)
        if self.type == "int":
            # bool subclasses int in Python but not on the wire
            if not isinstance(value, int) or isinstance(value, bool):
                raise CommandParamError(f"{self.name!r} must be an integer")
            if self.non_empty and value < 0:
                raise CommandParamError(
                    f"{self.name!r} must be a non-negative integer")
            return value
        if self.type == "number":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise CommandParamError(f"{self.name!r} must be a number")
            return float(value)
        raise AssertionError(f"unknown param type {self.type!r}")


@dataclass(frozen=True)
class FieldSpec:
    """One declared result field (documentation + completeness checks)."""

    name: str
    doc: str = ""


@dataclass(frozen=True)
class CommandSpec:
    """Everything the surfaces need to know about one operation."""

    #: The wire op name (also the CLI/shell verb).
    name: str
    #: One-line summary (docs table, CLI help, shell help).
    summary: str
    #: Usage hint for the shell help (e.g. ``"implies <dep>"``).
    usage: str
    params: tuple[ParamSpec, ...] = ()
    result: tuple[FieldSpec, ...] = ()
    #: Whether the command leaves the served session unchanged.  Drives
    #: client-side retry derivation (see :func:`retry_safe`).
    read_only: bool = True
    #: ``admin`` / ``edit`` / ``hot`` / ``cold`` (see ``_COST_CLASSES``).
    cost: str = "hot"
    #: Whether the op is exposed on the wire protocol.
    wire: bool = True
    #: ``session`` or ``server`` (see ``_SCOPES``).
    scope: str = "session"

    def positional(self) -> tuple[ParamSpec, ...]:
        """Params a CLI invocation supplies positionally (everything
        except the ambient ``session`` name)."""
        return tuple(p for p in self.params if p.name != "session")


# --------------------------------------------------------------------------
# The command base class and registry

#: Wire-op name → command class, in declaration (= docs table) order.
REGISTRY: dict[str, type["Command"]] = {}


def register(cls: type["Command"]) -> type["Command"]:
    """Class decorator: add a command to the registry (keyed by name)."""
    spec = cls.spec
    if spec.name in REGISTRY:
        raise AssertionError(f"duplicate command name {spec.name!r}")
    REGISTRY[spec.name] = cls
    return cls


@dataclass(frozen=True)
class Command:
    """Base class for all typed commands (frozen — safe to share/log)."""

    spec: ClassVar[CommandSpec]

    def run(self, ctx: CommandContext) -> Outcome:
        """Execute against ``ctx.session``; implemented per command."""
        raise NotImplementedError  # pragma: no cover - abstract

    def bind(self, session: "Session") -> "Command":
        """This command with its text fields parsed against ``session``.

        Read queries bind to masks: each text side is parsed straight to
        its mask (:meth:`Session.attribute_mask`,
        :meth:`Session.dependency_masks`), and no tree is built.  The
        server binds a command only for its shed-cold check, which calls
        :meth:`lhs_masks`, so the check and :meth:`run` share one
        parse.  Commands whose text is first read inside
        :meth:`run` (add, retract, …) and commands without text return
        themselves, so a bad text fails where it always did.
        """
        return self

    def lhs_masks(self, session: "Session") -> tuple[int, ...]:
        """Left-hand-side masks this command will need closures for.

        Asked only by the server's shed-cold check, on the bound
        command (:meth:`bind`), once inflight work crosses
        ``shed_cold_at``: a request is shed if any of its masks is
        uncached, and served from the cache otherwise.  Commands whose
        cold work is not expressible as LHS closures (cover, keys, …)
        return ``()`` and are shed entirely near capacity.
        """
        return ()

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "Command":
        """Build a validated instance from raw wire params."""
        values: dict[str, Any] = {}
        for param in cls.spec.params:
            value = param.validate(params)
            if value is not None or param.required:
                values[param.name] = value
        return cls(**values)

    @classmethod
    def render(cls, result: dict[str, Any]) -> tuple[list[str], int]:
        """CLI rendering of a wire result: ``(lines, exit_code)``.

        The default prints each declared result field; commands with a
        pinned CLI format override this.
        """
        return [f"{key}: {result[key]!r}"
                for key in (f.name for f in cls.spec.result)
                if key in result], 0

    # -- shared parsing helpers (session-scope commands) -------------------

    @staticmethod
    def _dependency(session: "Session",
                    dependency: "Dependency | str") -> Dependency:
        parsed = session.dependency(dependency)
        parsed.validate(session.root)
        return parsed


def wire_ops() -> frozenset[str]:
    """The wire-exposed operation set (what ``protocol.OPS`` is)."""
    return frozenset(name for name, cls in REGISTRY.items() if cls.spec.wire)


def wire_commands() -> tuple[type[Command], ...]:
    """Wire-exposed command classes in declaration order (docs, CLI)."""
    return tuple(cls for cls in REGISTRY.values() if cls.spec.wire)


def from_wire(op: str, params: Mapping[str, Any]) -> Command:
    """Look up and build a validated command from a wire request.

    Raises :class:`KeyError` for unknown/non-wire ops (the protocol
    layer rejects those earlier with its typed ``unknown_op``) and
    :class:`CommandParamError` for parameter problems.
    """
    cls = REGISTRY.get(op)
    if cls is None or not cls.spec.wire:
        raise KeyError(op)
    return cls.from_params(params)


def retry_safe(op: str, code: str) -> bool:
    """Whether retrying ``op`` after the retryable failure ``code`` is safe.

    Derived from the registry's ``read_only`` flags instead of a
    hand-kept list: an ``overloaded`` rejection happens *before*
    execution, so every op may be resent; a ``timeout`` may have fired
    mid-execution, so only commands that declare themselves read-only
    are resent automatically — a timed-out mutation surfaces to the
    caller rather than risking a double apply.  Unknown ops are treated
    as mutating (the conservative default).
    """
    if code == "overloaded":
        return True
    cls = REGISTRY.get(op)
    return cls is not None and cls.spec.read_only


# --------------------------------------------------------------------------
# The executor

def execute(command: Command, session: "Session", *,
            timeout: float | None = None) -> Outcome:
    """Run one command against a session under uniform observability.

    Emits a ``command.run`` span (attrs: ``command``, ``cost``,
    ``read_only``; completion attr ``ok``), ticks ``command.executed``
    / ``command.errors`` / ``command.<name>`` counters and records a
    ``command.ms`` histogram sample when an observer is installed; the
    disabled-observer path adds nothing but the dataclass call.
    ``timeout`` arms a soft :class:`Deadline` that compound commands
    honour between units of work.
    """
    ctx = CommandContext(session,
                         Deadline(timeout) if timeout is not None else None)
    obs = get_observer()
    if not obs.enabled:
        return command.run(ctx)
    spec = command.spec
    started = time.monotonic()
    with obs.span("command.run", command=spec.name, cost=spec.cost,
                  read_only=spec.read_only) as span:
        try:
            outcome = command.run(ctx)
        except Exception as error:
            obs.add("command.errors")
            span.set(error=type(error).__name__)
            raise
        span.set(ok=True)
    obs.add("command.executed")
    obs.add(f"command.{spec.name}")
    obs.observe("command.ms", (time.monotonic() - started) * 1000.0)
    return outcome


# --------------------------------------------------------------------------
# Server-scope commands (handlers bound by the server at startup)

_SESSION_PARAM = ParamSpec("session")


@register
@dataclass(frozen=True)
class Ping(Command):
    """Liveness + identity probe."""

    spec: ClassVar[CommandSpec] = CommandSpec(
        name="ping",
        summary="liveness probe: protocol version, uptime, session count",
        usage="ping",
        params=(),
        result=(FieldSpec("pong"), FieldSpec("version"),
                FieldSpec("uptime_s"), FieldSpec("sessions")),
        read_only=True, cost="admin", scope="server",
    )


@register
@dataclass(frozen=True)
class Health(Command):
    """Deep liveness: answered before every admission gate."""

    spec: ClassVar[CommandSpec] = CommandSpec(
        name="health",
        summary="health probe answered before backpressure/drain/faults",
        usage="health",
        params=(),
        result=(FieldSpec("status"), FieldSpec("version"),
                FieldSpec("uptime_s"), FieldSpec("sessions"),
                FieldSpec("inflight"), FieldSpec("draining"),
                FieldSpec("shedding"), FieldSpec("faults", doc="optional"),
                FieldSpec("store", doc="optional"),
                FieldSpec("replication", doc="optional")),
        read_only=True, cost="admin", scope="server",
    )


@register
@dataclass(frozen=True)
class Open(Command):
    """Create (or with ``replace`` recreate) a named session."""

    name: str = ""
    schema: str = ""
    dependencies: tuple[str, ...] = ()
    engine: str | None = None
    replace: bool = False

    spec: ClassVar[CommandSpec] = CommandSpec(
        name="open",
        summary="open a named session over a schema and initial Σ",
        usage="open --schema <N> [-d DEP ...]",
        params=(ParamSpec("name", non_empty=True),
                ParamSpec("schema"),
                ParamSpec("dependencies", type="list[string]",
                          required=False, doc="?"),
                ParamSpec("engine", required=False, doc="?"),
                ParamSpec("replace", type="bool", required=False, doc="?")),
        result=(FieldSpec("name"), FieldSpec("sigma"), FieldSpec("engine"),
                FieldSpec("seq", doc="optional")),
        read_only=False, cost="admin", scope="server",
    )

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "Open":
        specs = {p.name: p for p in cls.spec.params}
        return cls(
            name=specs["name"].validate(params),
            schema=specs["schema"].validate(params),
            dependencies=tuple(specs["dependencies"].validate(params) or ()),
            engine=specs["engine"].validate(params),
            replace=bool(params.get("replace", False)),
        )


@register
@dataclass(frozen=True)
class Add(Command):
    """Add one dependency to Σ (idempotent; drops cached closures)."""

    dependency: "Dependency | str" = ""
    session: str | None = None

    spec: ClassVar[CommandSpec] = CommandSpec(
        name="add",
        summary="add a dependency to Σ (drops cached closures)",
        usage="add <dep>",
        params=(_SESSION_PARAM, ParamSpec("dependency")),
        result=(FieldSpec("added"), FieldSpec("sigma"),
                FieldSpec("seq", doc="optional")),
        read_only=False, cost="edit",
    )

    def run(self, ctx: CommandContext) -> Outcome:
        session = ctx.session
        # Session.add binds the text to masks; only text the mask walk
        # hands over reaches the structural parser, which raises
        added = session.add(self.dependency)
        return Outcome({"added": added, "sigma": len(session)},
                       mutated=added, value=added)

    @classmethod
    def render(cls, result: dict[str, Any]) -> tuple[list[str], int]:
        word = "added" if result["added"] else "already present"
        return [f"{word} (|Σ|={result['sigma']})"], 0


@register
@dataclass(frozen=True)
class Retract(Command):
    """Remove one dependency from Σ (provenance-exact eviction)."""

    dependency: "Dependency | str" = ""
    session: str | None = None

    spec: ClassVar[CommandSpec] = CommandSpec(
        name="retract",
        summary="remove a Σ member (provenance-exact cache eviction)",
        usage="retract <dep>",
        params=(_SESSION_PARAM, ParamSpec("dependency")),
        result=(FieldSpec("retracted"), FieldSpec("sigma"),
                FieldSpec("seq", doc="optional")),
        read_only=False, cost="edit",
    )

    def run(self, ctx: CommandContext) -> Outcome:
        session = ctx.session
        masks = session.dependency_masks(self.dependency)
        session.retract_masks(*masks)
        retracted = session.display_masks(*masks)
        return Outcome({"retracted": retracted, "sigma": len(session)},
                       mutated=True, value=retracted)

    @classmethod
    def render(cls, result: dict[str, Any]) -> tuple[list[str], int]:
        return [f"retracted {result['retracted']} "
                f"(|Σ|={result['sigma']})"], 0


@register
@dataclass(frozen=True)
class Implies(Command):
    """Decide ``Σ ⊨ σ`` for one FD/MVD (Algorithm 5.1 + Theorem 6.3)."""

    dependency: "Dependency | str" = ""
    session: str | None = None
    #: ``(is_fd, lhs mask, rhs mask)``, set by :meth:`bind`.
    masks: tuple[bool, int, int] | None = None

    spec: ClassVar[CommandSpec] = CommandSpec(
        name="implies",
        summary="decide Σ ⊨ σ for one FD/MVD",
        usage="implies <dep>",
        params=(_SESSION_PARAM, ParamSpec("dependency")),
        result=(FieldSpec("implied"),),
        read_only=True, cost="cold",
    )

    def run(self, ctx: CommandContext) -> Outcome:
        verdict = ctx.session.implies_masks(*self._masks(ctx.session))
        return Outcome({"implied": verdict}, value=verdict)

    def _masks(self, session: "Session") -> tuple[bool, int, int]:
        return self.masks or session.dependency_masks(self.dependency)

    def bind(self, session: "Session") -> "Implies":
        return Implies(self.dependency, self.session,
                       session.dependency_masks(self.dependency))

    def lhs_masks(self, session: "Session") -> tuple[int, ...]:
        return (self._masks(session)[1],)

    @classmethod
    def render(cls, result: dict[str, Any]) -> tuple[list[str], int]:
        implied = result["implied"]
        return ["implied" if implied else "not implied"], 0 if implied else 1


@register
@dataclass(frozen=True)
class ImpliesBatch(Command):
    """Batch membership: one closure per distinct LHS, verdicts in order."""

    dependencies: tuple["Dependency | str", ...] = ()
    session: str | None = None
    #: One ``(is_fd, lhs mask, rhs mask)`` per query, set by :meth:`bind`.
    masks: tuple[tuple[bool, int, int], ...] | None = None

    spec: ClassVar[CommandSpec] = CommandSpec(
        name="implies_batch",
        summary="batch membership (one closure per distinct LHS)",
        usage="implies_batch <dep> [<dep> ...]",
        params=(_SESSION_PARAM,
                ParamSpec("dependencies", type="list[string]", doc="(list)")),
        result=(FieldSpec("verdicts", doc="(list, query order)"),),
        read_only=True, cost="cold",
    )

    def run(self, ctx: CommandContext) -> Outcome:
        session = ctx.session
        queries = self._queries(session)
        obs = get_observer()
        verdicts: list[bool] = []
        for index, (is_fd, lhs_mask, rhs_mask) in enumerate(queries):
            ctx.check_deadline()
            if obs.enabled:
                with obs.span("batch.query", index=index,
                              kind="fd" if is_fd else "mvd",
                              lhs=format(lhs_mask, "#x")) as span:
                    verdict = self._verdict(session, is_fd, lhs_mask, rhs_mask)
                    span.set(verdict=verdict)
            else:
                verdict = self._verdict(session, is_fd, lhs_mask, rhs_mask)
            verdicts.append(verdict)
        return Outcome({"verdicts": verdicts}, value=verdicts)

    def _queries(self, session: "Session"
                 ) -> tuple[tuple[bool, int, int], ...]:
        if self.masks is not None:
            return self.masks
        return tuple(map(session.dependency_masks, self.dependencies))

    @staticmethod
    def _verdict(session: "Session", is_fd: bool, lhs_mask: int,
                 rhs_mask: int) -> bool:
        result = session.result_for_mask(lhs_mask)
        return (result.implies_fd_rhs(rhs_mask) if is_fd
                else result.implies_mvd_rhs(rhs_mask))

    def bind(self, session: "Session") -> "ImpliesBatch":
        return ImpliesBatch(self.dependencies, self.session,
                            self._queries(session))

    def lhs_masks(self, session: "Session") -> tuple[int, ...]:
        return tuple(dict.fromkeys(
            lhs_mask for _, lhs_mask, _ in self._queries(session)))

    @classmethod
    def render(cls, result: dict[str, Any]) -> tuple[list[str], int]:
        verdicts = result["verdicts"]
        texts = result.get("dependencies", [""] * len(verdicts))
        lines = [f"{'implied    ' if verdict else 'not implied'}  {text}"
                 for verdict, text in zip(verdicts, texts)]
        return lines, 0 if all(verdicts) else 1


@dataclass(frozen=True)
class _AttributeQuery(Command):
    """A query on the closure of one subattribute ``x`` (text or element)."""

    x: Any = ""
    session: str | None = None
    #: The mask of ``x``, set by :meth:`bind`.
    mask: int | None = None

    def _mask(self, session: "Session") -> int:
        mask = self.mask
        return session.attribute_mask(self.x) if mask is None else mask

    def bind(self, session: "Session") -> Command:
        return type(self)(self.x, self.session,
                          session.attribute_mask(self.x))

    def lhs_masks(self, session: "Session") -> tuple[int, ...]:
        return (self._mask(session),)


@register
@dataclass(frozen=True)
class Closure(_AttributeQuery):
    """The attribute-set closure ``X⁺`` (full Algorithm 5.1 result)."""

    spec: ClassVar[CommandSpec] = CommandSpec(
        name="closure",
        summary="the attribute-set closure X⁺",
        usage="closure <X>",
        params=(_SESSION_PARAM, ParamSpec("x", doc="(subattribute text)")),
        result=(FieldSpec("closure"), FieldSpec("passes")),
        read_only=True, cost="cold",
    )

    def run(self, ctx: CommandContext) -> Outcome:
        session = ctx.session
        result = session.result_for_mask(self._mask(session))
        return Outcome(
            {"closure": session.encoding.render(result.closure_mask),
             "passes": result.passes},
            value=result)

    @classmethod
    def render(cls, result: dict[str, Any]) -> tuple[list[str], int]:
        return [result["closure"]], 0


@register
@dataclass(frozen=True)
class Basis(_AttributeQuery):
    """The dependency basis ``DepB(X)``."""

    spec: ClassVar[CommandSpec] = CommandSpec(
        name="basis",
        summary="the dependency basis DepB(X)",
        usage="basis <X>",
        params=(_SESSION_PARAM, ParamSpec("x")),
        result=(FieldSpec("basis", doc="(dependency-basis members)"),),
        read_only=True, cost="cold",
    )

    def run(self, ctx: CommandContext) -> Outcome:
        session = ctx.session
        result = session.result_for_mask(self._mask(session))
        # in the order of ClosureResult.dependency_basis()
        text = session.encoding.render
        return Outcome(
            {"basis": [text(mask)
                       for mask in sorted(result.dependency_basis_masks())]},
            value=result)

    @classmethod
    def render(cls, result: dict[str, Any]) -> tuple[list[str], int]:
        return list(result["basis"]), 0


@register
@dataclass(frozen=True)
class MinimalCover(Command):
    """An equivalent redundancy-free subset of Σ (on a scratch session)."""

    session: str | None = None

    spec: ClassVar[CommandSpec] = CommandSpec(
        name="cover",
        summary="an equivalent redundancy-free subset of Σ",
        usage="cover",
        params=(_SESSION_PARAM,),
        result=(FieldSpec("cover", doc="(list of dependency displays)"),
                FieldSpec("sigma")),
        read_only=True, cost="cold",
    )

    def run(self, ctx: CommandContext) -> Outcome:
        from .membership import minimal_cover

        session = ctx.session
        # A scratch session does the retract/implies sweeps, so the
        # live session's Σ and caches are never touched (read-only).
        cover = minimal_cover(session.sigma, encoding=session.encoding,
                              engine=session.engine.name)
        return Outcome(
            {"cover": [dependency.display(session.root)
                       for dependency in cover],
             "sigma": len(cover)},
            value=cover)

    @classmethod
    def render(cls, result: dict[str, Any]) -> tuple[list[str], int]:
        return list(result["cover"]) or ["(empty)"], 0


@register
@dataclass(frozen=True)
class Keys(Command):
    """Candidate keys (≤-minimal superkeys within the search budget)."""

    session: str | None = None

    spec: ClassVar[CommandSpec] = CommandSpec(
        name="keys",
        summary="candidate keys (≤-minimal superkeys, bounded search)",
        usage="keys",
        params=(_SESSION_PARAM,),
        result=(FieldSpec("keys", doc="(list of attribute displays)"),),
        read_only=True, cost="cold",
    )

    def run(self, ctx: CommandContext) -> Outcome:
        from ..normalization.keys import candidate_keys

        session = ctx.session
        found = candidate_keys(session.sigma, encoding=session.encoding)
        return Outcome(
            {"keys": [unparse_abbreviated(key, session.root)
                      for key in found]},
            value=found)

    @classmethod
    def render(cls, result: dict[str, Any]) -> tuple[list[str], int]:
        return list(result["keys"]), 0


@register
@dataclass(frozen=True)
class Check4NF(Command):
    """The generalised fourth-normal-form test."""

    session: str | None = None

    spec: ClassVar[CommandSpec] = CommandSpec(
        name="check4nf",
        summary="generalised 4NF test with the violating MVDs",
        usage="check4nf",
        params=(_SESSION_PARAM,),
        result=(FieldSpec("in_4nf"),
                FieldSpec("violations", doc="(list of MVD displays)")),
        read_only=True, cost="cold",
    )

    def run(self, ctx: CommandContext) -> Outcome:
        from ..normalization.fourth_normal_form import violations

        session = ctx.session
        found = violations(session.sigma, encoding=session.encoding,
                           session=session)
        return Outcome(
            {"in_4nf": not found,
             "violations": [violation.as_mvd().display(session.root)
                            for violation in found]},
            value=found)

    @classmethod
    def render(cls, result: dict[str, Any]) -> tuple[list[str], int]:
        if result["in_4nf"]:
            return ["in 4NF"], 0
        lines = ["NOT in 4NF"]
        lines.extend(f"  violated by: {violation}"
                     for violation in result["violations"])
        return lines, 1


@register
@dataclass(frozen=True)
class IsRedundant(Command):
    """Whether a Σ member follows from the others (scratch session)."""

    dependency: "Dependency | str" = ""
    session: str | None = None

    spec: ClassVar[CommandSpec] = CommandSpec(
        name="is_redundant",
        summary="whether a Σ member follows from the other members",
        usage="is_redundant <dep>",
        params=(_SESSION_PARAM, ParamSpec("dependency")),
        result=(FieldSpec("redundant"), FieldSpec("dependency")),
        read_only=True, cost="cold",
    )

    def run(self, ctx: CommandContext) -> Outcome:
        from .membership import is_redundant

        session = ctx.session
        dependency = self._dependency(session, self.dependency)
        # No session= here: is_redundant retracts/re-adds while probing,
        # which must happen on a scratch session, not the served one.
        verdict = is_redundant(session.sigma, dependency,
                               encoding=session.encoding,
                               engine=session.engine.name)
        return Outcome(
            {"redundant": verdict,
             "dependency": dependency.display(session.root)},
            value=verdict)

    @classmethod
    def render(cls, result: dict[str, Any]) -> tuple[list[str], int]:
        redundant = result["redundant"]
        return ["redundant" if redundant else "not redundant"], (
            0 if redundant else 1)


@register
@dataclass(frozen=True)
class Trace(Command):
    """Replay Algorithm 5.1 state by state (local only, not wire)."""

    x: Any = ""
    session: str | None = None

    spec: ClassVar[CommandSpec] = CommandSpec(
        name="trace",
        summary="replay Algorithm 5.1 state by state (Figures 3-4 style)",
        usage="trace <X>",
        params=(_SESSION_PARAM, ParamSpec("x")),
        result=(FieldSpec("trace", doc="(rendered text)"),),
        read_only=True, cost="cold", wire=False,
    )

    def run(self, ctx: CommandContext) -> Outcome:
        from .closure import compute_closure
        from .trace import TraceRecorder

        session = ctx.session
        recorder = TraceRecorder()
        compute_closure(session.encoding,
                        session.attribute_mask(self.x),
                        session.sigma, trace=recorder)
        return Outcome({"trace": recorder.render()}, value=recorder)

    @classmethod
    def render(cls, result: dict[str, Any]) -> tuple[list[str], int]:
        return [result["trace"]], 0


@register
@dataclass(frozen=True)
class Metrics(Command):
    """Server + per-session counters."""

    session: str | None = None

    spec: ClassVar[CommandSpec] = CommandSpec(
        name="metrics",
        summary="server and per-session cache/kernel counters",
        usage="metrics",
        params=(ParamSpec("session", required=False,
                          doc="? (restrict to one session)"),),
        result=(FieldSpec("server"), FieldSpec("sessions")),
        read_only=True, cost="admin", scope="server",
    )


@register
@dataclass(frozen=True)
class Close(Command):
    """Close a named session."""

    session: str | None = None

    spec: ClassVar[CommandSpec] = CommandSpec(
        name="close",
        summary="close a named session",
        usage="close",
        params=(_SESSION_PARAM,),
        result=(FieldSpec("closed"), FieldSpec("sigma"),
                FieldSpec("seq", doc="optional")),
        read_only=False, cost="admin", scope="server",
    )


@register
@dataclass(frozen=True)
class ReplicateSubscribe(Command):
    """Ship acknowledged WAL records to a follower (long-poll pull).

    A follower asks for everything after ``from_seq``; a store-backed
    node answers with the next batch of records (or long-polls up to
    ``wait`` seconds when it is already caught up).  A named
    ``follower``'s subscribe also acknowledges ``from_seq``.  When ``from_seq``
    predates the retained history (the primary compacted past it), the
    answer carries a ``reset`` bootstrap instead: the current session
    snapshot plus ``last_seq``, from which a cold follower rebuilds.
    """

    from_seq: int = 0
    max_records: int | None = None
    wait: float | None = None
    follower: str | None = None

    spec: ClassVar[CommandSpec] = CommandSpec(
        name="replicate.subscribe",
        summary="ship acknowledged WAL records after from_seq (long-poll)",
        usage="replicate.subscribe <from_seq>",
        params=(ParamSpec("from_seq", type="int", non_empty=True),
                ParamSpec("max_records", type="int", required=False,
                          doc="? (batch cap)"),
                ParamSpec("wait", type="number", required=False,
                          doc="? (long-poll seconds)"),
                ParamSpec("follower", required=False,
                          doc="? (follower id, acking from_seq)")),
        result=(FieldSpec("records", doc="([{seq, op, params}, ...])"),
                FieldSpec("last_seq"),
                FieldSpec("reset", doc="optional")),
        read_only=True, cost="admin", scope="server",
    )


@register
@dataclass(frozen=True)
class ReplicateAck(Command):
    """Record a follower's durably applied replication position."""

    follower: str = ""
    seq: int = 0

    spec: ClassVar[CommandSpec] = CommandSpec(
        name="replicate.ack",
        summary="record a follower's applied replication position",
        usage="replicate.ack <follower> <seq>",
        params=(ParamSpec("follower", non_empty=True),
                ParamSpec("seq", type="int", non_empty=True)),
        result=(FieldSpec("acked"), FieldSpec("last_seq")),
        read_only=True, cost="admin", scope="server",
    )


@register
@dataclass(frozen=True)
class ReplicateStatus(Command):
    """Replication role and positions (both roles answer it)."""

    spec: ClassVar[CommandSpec] = CommandSpec(
        name="replicate.status",
        summary="replication role, log positions and follower lag",
        usage="replicate.status",
        params=(),
        result=(FieldSpec("role", doc="(primary | replica | ephemeral)"),
                FieldSpec("last_seq"),
                FieldSpec("replica", doc="optional"),
                FieldSpec("followers", doc="optional")),
        read_only=True, cost="admin", scope="server",
    )


# --------------------------------------------------------------------------
# Docs generation

def op_table() -> str:
    """The docs/SERVER.md operations table, generated from the registry.

    ``python -m repro.serve --op-table`` prints this; a CI step fails
    when the committed docs drift from it.
    """
    rows: list[tuple[str, str, str]] = []
    for cls in wire_commands():
        spec = cls.spec
        params = ", ".join(
            f"`{p.name}{'?' if not p.required else ''}`"
            + (f" {p.doc.lstrip('?').strip()}"
               if p.doc.lstrip("?").strip() else "")
            for p in spec.params) or "—"
        fields_text = ", ".join(f.name for f in spec.result
                                if f.doc != "optional")
        optional = [f.name for f in spec.result if f.doc == "optional"]
        if optional:
            fields_text += ", " + ", ".join(f"{name}?" for name in optional)
        notes = [f.doc for f in spec.result
                 if f.doc and f.doc != "optional" and f.doc.startswith("(")]
        result = f"`{{{fields_text}}}`" + (f" {notes[0]}" if notes else "")
        rows.append((f"`{spec.name}`", params, result))
    widths = [max(len(row[column]) for row in rows + [
        ("op", "params", "result")]) for column in range(3)]
    header = ("| " + " | ".join(
        name.ljust(width) for name, width in
        zip(("op", "params", "result"), widths)) + " |")
    rule = ("|" + "|".join("-" * (width + 2) for width in widths) + "|")
    lines = [header, rule]
    for row in rows:
        lines.append("| " + " | ".join(
            cell.ljust(width) for cell, width in zip(row, widths)) + " |")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Import-time completeness guard

def _check_registry() -> None:
    """Fail the import if any registered command breaks the contract.

    Every command must declare a full wire schema (typed params, result
    fields), a docs line, a cost class and scope from the known sets,
    and — for session-scope commands — an actual ``run`` handler.
    Silent drift between the registry and any surface is impossible
    when this passes: ``protocol.OPS``, per-op validation, the CLI verb
    table, shell help and the docs table are all *derived* from specs
    this function vetted.
    """
    for name, cls in REGISTRY.items():
        spec = cls.spec
        if spec.name != name:
            raise AssertionError(f"registry key {name!r} != spec {spec.name!r}")
        if not spec.summary or not spec.usage:
            raise AssertionError(f"command {name!r} is missing its docs entry")
        if spec.cost not in _COST_CLASSES:
            raise AssertionError(f"command {name!r}: bad cost {spec.cost!r}")
        if spec.scope not in _SCOPES:
            raise AssertionError(f"command {name!r}: bad scope {spec.scope!r}")
        for param in spec.params:
            if param.type not in _PARAM_TYPES:
                raise AssertionError(
                    f"command {name!r}: param {param.name!r} has unknown "
                    f"type {param.type!r}")
        if spec.wire and not spec.result:
            raise AssertionError(
                f"wire command {name!r} declares no result fields")
        if spec.scope == "session" and cls.run is Command.run:
            raise AssertionError(f"command {name!r} has no run() handler")
        declared = {f.name for f in fields(cls)}
        for param in spec.params:
            if param.name not in declared:
                raise AssertionError(
                    f"command {name!r}: wire param {param.name!r} has no "
                    f"dataclass field")


_check_registry()
