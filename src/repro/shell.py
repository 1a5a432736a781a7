"""An interactive reasoning shell: ``python -m repro shell``.

A line-oriented REPL for exploratory schema design — set a schema, grow
``Σ`` incrementally, fire membership queries, inspect closures, bases,
traces and keys, all with the query cache warm:

.. code-block:: text

    repro> schema Pubcrawl(Person, Visit[Drink(Beer, Pub)])
    schema set (|N| = 4)
    repro> add Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])
    Σ now has 1 dependency
    repro> implies Pubcrawl(Person) -> Pubcrawl(Visit[λ])
    implied
    repro> basis Pubcrawl(Person)
    ...

Designed for testability: the engine consumes an iterable of command
lines and writes to any file-like object, so the test suite drives it
without a terminal.
"""

from __future__ import annotations

import sys
from typing import IO, Iterable

from .core.session import Session
from .exceptions import ReproError
from .schema import Schema

__all__ = ["ReasoningShell", "run_shell"]

#: Shell-only verbs (not in the command registry), as (usage, summary)
#: rows.  The registry verbs are spliced in between the two groups by
#: :func:`_help_text`, so `help` always lists every registered command.
_SHELL_ONLY_PRE = (
    ("schema <N>", "set the nested attribute, e.g. schema R(A, L[B])"),
    ("drop <index>", "remove the i-th dependency (see 'sigma')"),
    ("engine [name]", "show or switch the closure engine"),
    ("sigma", "list Σ"),
)
_SHELL_ONLY_POST = (
    ("decompose", "lossless 4NF-style decomposition"),
    ("synthesize", "Bernstein-style FD synthesis"),
    ("witness <X>", "build the §4.2 Armstrong-style instance for X"),
    ("stats", "kernel/cache instrumentation counters"),
    ("trace on [PATH]", "start recording observability spans"),
    ("", "(optionally streamed to PATH as JSON lines)"),
    ("trace off", "stop recording, report the span count"),
    ("metrics", "observability counters/histograms of this session"),
    ("help", "this text"),
    ("quit / exit", "leave the shell"),
)


def _registry_verbs() -> "tuple[type, ...]":
    """Session-scope registered commands the shell can drive: everything
    buildable from one text argument (list-typed params excluded)."""
    from .core import commands as registry

    return tuple(
        cls for cls in registry.REGISTRY.values()
        if cls.spec.scope == "session"
        and not any(p.type == "list[string]"
                    for p in cls.spec.positional()))


def _help_text() -> str:
    rows = list(_SHELL_ONLY_PRE)
    rows.extend((cls.spec.usage, cls.spec.summary)
                for cls in _registry_verbs())
    rows.extend(_SHELL_ONLY_POST)
    lines = ["commands:"]
    lines.extend(f"  {usage:<18}  {summary}".rstrip() if usage
                 else f"  {'':<18}  {summary}".rstrip()
                 for usage, summary in rows)
    return "\n".join(lines)


class ReasoningShell:
    """The REPL engine; one instance per session."""

    def __init__(self, output: IO[str] | None = None) -> None:
        self.output = output if output is not None else sys.stdout
        self.schema: Schema | None = None
        self._session: Session | None = None
        self._engine_name: str | None = None
        self._observer = None
        self._span_sink = None
        self._previous_observer = None

    # -- helpers ----------------------------------------------------------

    def _say(self, text: str) -> None:
        print(text, file=self.output)

    def _sigma(self):
        assert self._session is not None
        return self._session.sigma

    def _need_schema(self) -> bool:
        if self.schema is None:
            self._say("no schema set — use: schema <attribute>")
            return False
        return True

    def _session_now(self) -> Session:
        assert self._session is not None
        return self._session

    # -- command dispatch ----------------------------------------------------

    def handle(self, line: str) -> bool:
        """Process one line; returns ``False`` when the session should end."""
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            return True
        command, _, argument = stripped.partition(" ")
        command = command.lower()
        argument = argument.strip()
        try:
            return self._dispatch(command, argument)
        except ReproError as error:
            self._say(f"error: {error}")
            return True

    def _dispatch(self, command: str, argument: str) -> bool:
        if command in ("quit", "exit"):
            return False
        if command == "help":
            self._say(_help_text())
            return True
        if command == "trace":
            word, _, rest = argument.partition(" ")
            if word in ("on", "off"):
                return self._toggle_tracing(word, rest.strip())
        if command == "metrics":
            if self._observer is None:
                self._say("observability is off — 'trace on' to start")
            else:
                self._say(self._observer.metrics.describe())
            return True
        if command == "engine":
            return self._engine_command(argument)
        if command == "schema":
            self.schema = Schema(argument)
            self._session = Session(
                self.schema.root,
                engine=self._engine_name,
                encoding=self.schema.encoding,
            )
            self._say(f"schema set (|N| = {self.schema.encoding.size})")
            return True
        if not self._need_schema():
            return True

        schema = self.schema
        session = self._session_now()
        if command == "drop":
            try:
                index = int(argument)
                removed = session.dependencies[index]
            except (ValueError, IndexError):
                self._say(f"no dependency #{argument}")
                return True
            session.retract(removed)
            self._say(f"dropped {removed.display(schema.root)}")
            return True
        if command == "sigma":
            if not len(session):
                self._say("(Σ is empty)")
            for index, dependency in enumerate(session.dependencies):
                self._say(f"  [{index}] {dependency.display(schema.root)}")
            return True
        if self._run_registry_command(command, argument, schema, session):
            return True
        if command == "decompose":
            self._say(schema.decompose(self._sigma()).describe())
            return True
        if command == "cover":
            self._say(schema.minimal_cover(self._sigma()).display())
            return True
        if command == "synthesize":
            from .normalization import synthesize

            self._say(synthesize(self._sigma(),
                                 encoding=schema.encoding).describe())
            return True
        if command == "stats":
            self._say(session.describe_stats())
            return True
        if command == "witness":
            from .values import format_instance

            witness = schema.witness(self._sigma(), argument)
            self._say(
                f"{len(witness.instance)} tuples over "
                f"{len(witness.free_blocks)} free blocks"
            )
            self._say(format_instance(schema.root, witness.instance))
            return True
        self._say(f"unknown command {command!r} — try 'help'")
        return True

    def _run_registry_command(self, command: str, argument: str,
                              schema: Schema, session: Session) -> bool:
        """Dispatch a registry-backed verb; ``False`` when ``command``
        is not one (the caller falls through to the shell-only verbs).

        The command object and executor are the same ones every other
        surface uses; only the presentation is shell-specific (indents,
        the Σ count after ``add``, the cache-eviction delta after
        ``retract``).
        """
        from .core import commands as registry

        cls = registry.REGISTRY.get(command)
        if cls is None or cls.spec.scope != "session":
            return False
        take = cls.spec.positional()
        if any(param.type == "list[string]" for param in take):
            return False  # no shell syntax for list-valued params
        instance = cls(**{param.name: argument for param in take})
        if command == "add":
            outcome = registry.execute(instance, session)
            count = outcome.result["sigma"]
            noun = "dependency" if count == 1 else "dependencies"
            self._say(f"Σ now has {count} {noun}")
            return True
        if command == "retract":
            before = session.cache_info()
            try:
                outcome = registry.execute(instance, session)
            except ValueError as error:
                self._say(f"error: {error}")
                return True
            after = session.cache_info()
            self._say(
                f"retracted {outcome.result['retracted']} "
                f"(evicted {after.invalidations - before.invalidations} "
                f"cached closures, kept {after.retained - before.retained})")
            return True
        outcome = registry.execute(instance, session)
        lines, _ = cls.render(outcome.result)
        if command == "check4nf":
            self._say(lines[0])  # the shell reports the verdict alone
        elif command in ("basis", "keys"):
            for line in lines:
                self._say(f"  {line}")
            if command == "keys" and not lines:
                self._say("  (no key within the search budget)")
        else:
            for line in lines:
                self._say(line)
        return True

    def _engine_command(self, argument: str) -> bool:
        from .core.engines import available_engines, get_engine

        if not argument:
            current = (self._session.engine.name if self._session is not None
                       else get_engine(self._engine_name).name)
            names = ", ".join(sorted(available_engines()))
            self._say(f"engine: {current} (available: {names})")
            return True
        try:
            if self._session is not None:
                self._session.set_engine(argument)
            else:
                get_engine(argument)  # validate the name before storing it
        except ValueError as error:
            self._say(f"error: {error}")
            return True
        self._engine_name = argument
        self._say(f"engine set to {argument}")
        return True

    # -- observability -----------------------------------------------------

    def _toggle_tracing(self, word: str, path: str) -> bool:
        from .obs import InMemorySink, JsonlSink, Observer, set_observer

        if word == "on":
            if self._observer is not None:
                self._say("tracing is already on")
                return True
            self._span_sink = InMemorySink()
            sinks = [self._span_sink]
            if path:
                sinks.append(JsonlSink(path))
            self._observer = Observer(sinks)
            self._previous_observer = set_observer(self._observer)
            where = f", streaming to {path}" if path else ""
            self._say(f"tracing on{where}")
            return True
        if self._observer is None:
            self._say("tracing is not on")
            return True
        self._close_tracing()
        return True

    def _close_tracing(self) -> None:
        from .obs import set_observer

        set_observer(self._previous_observer)
        self._observer.close()
        self._say(f"tracing off ({len(self._span_sink.spans)} spans recorded)")
        self._observer = None
        self._span_sink = None
        self._previous_observer = None

    def close(self) -> None:
        """End-of-session cleanup: uninstall a still-active observer."""
        if self._observer is not None:
            self._close_tracing()


def run_shell(lines: Iterable[str] | None = None,
              output: IO[str] | None = None) -> int:
    """Run the REPL over ``lines`` (defaults to interactive stdin)."""
    shell = ReasoningShell(output)
    shell._say("repro reasoning shell — 'help' for commands, 'quit' to leave")
    if lines is None:  # pragma: no cover - interactive path
        lines = _interactive_lines()
    try:
        for line in lines:
            if not shell.handle(line):
                break
    finally:
        shell.close()
    return 0


def _interactive_lines():  # pragma: no cover - interactive path
    while True:
        try:
            yield input("repro> ")
        except EOFError:
            return
