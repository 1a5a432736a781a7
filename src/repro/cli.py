"""Command-line interface: dependency reasoning from the shell.

Examples
--------
Decide implication (exit code 0 = implied, 1 = not implied)::

    python -m repro implies \\
        --schema "Pubcrawl(Person, Visit[Drink(Beer, Pub)])" \\
        -d "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])" \\
        "Pubcrawl(Person) -> Pubcrawl(Visit[λ])"

Compute a closure or dependency basis, replay the algorithm trace::

    python -m repro closure --schema ... -d ... "Pubcrawl(Person)"
    python -m repro basis   --schema ... -d ... "Pubcrawl(Person)"
    python -m repro trace   --schema ... -d ... "Pubcrawl(Person)"

Schema design::

    python -m repro keys      --schema ... -d ...
    python -m repro check4nf  --schema ... -d ...
    python -m repro decompose --schema ... -d ...
    python -m repro cover     --schema ... -d ...

Dependencies can also be loaded from a file (one per line, ``#``
comments) with ``--sigma-file``.  ``python -m repro figures`` prints the
paper's Figures 1–4.

Serving (see docs/SERVER.md)::

    python -m repro serve --port 7474
    python -m repro query --connect 127.0.0.1:7474 open \\
        --session pub --schema "Pubcrawl(Person, Visit[Drink(Beer, Pub)])" \\
        -d "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"
    python -m repro query --connect 127.0.0.1:7474 implies \\
        --session pub "Pubcrawl(Person) -> Pubcrawl(Visit[λ])"
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .exceptions import ReproError
from .schema import Schema

__all__ = ["main", "build_parser"]


def _add_obs(parser: argparse.ArgumentParser) -> None:
    """The engine/observability flags (any command touching the kernel)."""
    parser.add_argument(
        "--engine", metavar="NAME",
        help="closure engine from the registry (worklist, naive, "
        "reference); the process default for this command",
    )
    parser.add_argument(
        "--trace-json", metavar="PATH",
        help="write the observability spans (and a final metrics "
        "snapshot) as JSON lines to PATH — see docs/OBSERVABILITY.md",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the observability metrics (counters + histograms) "
        "to stderr after the command",
    )


def _add_common(parser: argparse.ArgumentParser, *, with_sigma: bool = True) -> None:
    parser.add_argument(
        "--schema", required=True,
        help="the nested attribute N, e.g. 'R(A, L[B])'",
    )
    if with_sigma:
        parser.add_argument(
            "-d", "--dependency", action="append", default=[],
            metavar="DEP", help="a dependency of Σ, e.g. 'R(A) -> R(B)' "
            "or 'R(A) ->> R(L[λ])'; repeatable",
        )
        parser.add_argument(
            "--sigma-file", metavar="PATH",
            help="file with one dependency per line ('#' comments allowed)",
        )
        parser.add_argument(
            "--stats", action="store_true",
            help="print kernel/cache instrumentation counters to stderr "
            "(implies/closure/basis)",
        )
        _add_obs(parser)


def _sigma_texts(args: argparse.Namespace) -> list[str]:
    """The ``-d`` dependencies, then ``--sigma-file``'s non-comment lines."""
    texts = list(args.dependency)
    if args.sigma_file:
        with open(args.sigma_file, encoding="utf-8") as handle:
            for line in handle:
                stripped = line.strip()
                if stripped and not stripped.startswith("#"):
                    texts.append(stripped)
    return texts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FDs and MVDs in the presence of lists "
        "(Hartmann & Link, ENTCS 91, 2004)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    implies = commands.add_parser(
        "implies", help="decide Σ ⊨ σ (exit 0 = implied, 1 = not)"
    )
    _add_common(implies)
    implies.add_argument("query", help="the dependency σ to decide")

    closure = commands.add_parser("closure", help="the attribute-set closure X⁺")
    _add_common(closure)
    closure.add_argument("x", help="the subattribute X")

    basis = commands.add_parser("basis", help="the dependency basis DepB(X)")
    _add_common(basis)
    basis.add_argument("x", help="the subattribute X")

    trace = commands.add_parser(
        "trace", help="replay Algorithm 5.1 state by state (Figures 3-4 style)"
    )
    _add_common(trace)
    trace.add_argument("x", help="the subattribute X")

    keys = commands.add_parser("keys", help="candidate keys")
    _add_common(keys)

    check4nf = commands.add_parser(
        "check4nf", help="generalised fourth-normal-form test (exit 0 = in 4NF)"
    )
    _add_common(check4nf)

    decompose = commands.add_parser(
        "decompose", help="lossless 4NF-style decomposition"
    )
    _add_common(decompose)

    cover = commands.add_parser(
        "cover", help="an equivalent redundancy-free subset of Σ"
    )
    _add_common(cover)

    check = commands.add_parser(
        "check", help="validate a problem file's instance against its Σ "
        "(exit 0 = satisfied)"
    )
    check.add_argument("problem", help="a problem JSON file (see repro.io)")

    chase_cmd = commands.add_parser(
        "chase", help="complete a problem file's instance to satisfy its "
        "MVDs; prints the chased instance as JSON"
    )
    chase_cmd.add_argument("problem", help="a problem JSON file (see repro.io)")
    _add_obs(chase_cmd)

    audit = commands.add_parser(
        "audit", help="redundancy audit of a problem file's instance "
        "(exit 0 = redundancy-free)"
    )
    audit.add_argument("problem", help="a problem JSON file (see repro.io)")
    _add_obs(audit)

    figures = commands.add_parser(
        "figures", help="print the paper's Figures 1-4"
    )
    figures.add_argument(
        "--dot", action="store_true",
        help="emit Graphviz DOT for Figures 1-2 instead of ASCII",
    )
    commands.add_parser("shell", help="interactive reasoning shell")

    serve = commands.add_parser(
        "serve", help="run the asyncio reasoning server "
        "(NDJSON protocol, see docs/SERVER.md; SIGTERM drains)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7474,
        help="TCP port (0 = ephemeral; the bound address is printed)",
    )
    serve.add_argument("--max-sessions", type=int, default=64,
                       help="LRU cap on open sessions")
    serve.add_argument(
        "--idle-ttl", type=float, default=300.0, metavar="SECONDS",
        help="evict sessions idle this long (<= 0 disables)",
    )
    serve.add_argument("--max-inflight", type=int, default=64,
                       help="server-wide concurrent-request cap")
    serve.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-request deadline (<= 0 disables)",
    )
    serve.add_argument(
        "--shed-cold-at", type=float, default=None, metavar="FRACTION",
        help="shed cold-closure work (typed 'overloaded') once inflight "
        "reaches this fraction of --max-inflight; hot cache hits keep "
        "being served (default: disabled)",
    )
    serve.add_argument(
        "--data-dir", metavar="PATH",
        help="durable session persistence: WAL + snapshots under PATH; "
        "on start the server recovers every session the directory "
        "holds (see docs/PERSISTENCE.md)",
    )
    serve.add_argument(
        "--replicate-from", metavar="HOST:PORT", dest="replicate_from",
        help="run as a read-only replica tailing the primary at "
        "HOST:PORT; with --data-dir the replica catches up from its own "
        "log, without one it bootstraps from a snapshot reset (see "
        "docs/REPLICATION.md)",
    )
    serve.add_argument(
        "--replica-id", metavar="NAME",
        help="(replica) follower name reported to the primary "
        "(default: the bound host:port)",
    )
    serve.add_argument(
        "--fence-wait", type=float, default=2.0, metavar="SECONDS",
        help="(replica) how long a fenced read (params carry 'min_seq') "
        "waits for replication to catch up before failing with typed "
        "'replica_behind'",
    )
    serve.add_argument(
        "--fsync", choices=("always", "interval", "off"),
        default="interval",
        help="WAL durability: fsync every append ('always'), at most "
        "once per interval ('interval', default — flushed writes still "
        "survive process death), or never ('off')",
    )
    serve.add_argument(
        "--store-compact-records", type=int, default=4096, metavar="N",
        help="compact the store once the live WAL segment holds N "
        "records (default: 4096)",
    )
    serve.add_argument(
        "--store-compact-bytes", type=int, default=1 << 22, metavar="N",
        help="compact the store once the live WAL segment holds N "
        "bytes (default: 4 MiB)",
    )
    serve.add_argument(
        "--fault-plan", metavar="PATH_OR_JSON",
        help="TESTS ONLY: inject deterministic faults from a JSON fault "
        "plan (a file path, or inline JSON starting with '{'); see "
        "docs/SERVER.md",
    )
    _add_obs(serve)

    store = commands.add_parser(
        "store", help="inspect or compact a repro.store data directory "
        "(see docs/PERSISTENCE.md)"
    )
    store.add_argument(
        "action", choices=("inspect", "compact"),
        help="'inspect' prints a read-only JSON summary; 'compact' "
        "snapshots the recovered sessions and truncates the WAL",
    )
    store.add_argument("path", help="the server's --data-dir")

    query = commands.add_parser(
        "query", help="drive a running reasoning server"
    )
    query.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="server address, e.g. 127.0.0.1:7474",
    )
    query.add_argument("--session", default="default", metavar="NAME",
                       help="session name (default: 'default')")
    query.add_argument("--timeout", type=float, default=10.0,
                       help="client socket timeout in seconds")
    query.add_argument(
        "--replicas", action="append", default=[], metavar="HOST:PORT",
        help="fan read-only ops across these replicas (repeatable, or "
        "comma-separated) with bounded-staleness read fences; mutations "
        "still go to --connect (see docs/REPLICATION.md)",
    )
    query.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry retryable failures (overloaded/timeout/dropped "
        "connections) up to N times with jittered backoff (default: 0 "
        "= fail fast)",
    )
    query.add_argument("--schema", help="(open) the nested attribute N")
    query.add_argument(
        "-d", "--dependency", action="append", default=[], metavar="DEP",
        help="(open) a dependency of Σ; repeatable",
    )
    query.add_argument("--sigma-file", metavar="PATH",
                       help="(open) file with one dependency per line")
    query.add_argument("--engine", metavar="NAME",
                       help="(open) closure engine for the new session")
    query.add_argument("--replace", action="store_true",
                       help="(open) replace an existing session of this name")
    from .core.commands import wire_commands

    query.add_argument(
        "op",
        # The verb list is the registry's wire-exposed set, in
        # declaration order — new commands appear here automatically.
        choices=[cls.spec.name for cls in wire_commands()],
        help="server operation",
    )
    query.add_argument(
        "args", nargs="*",
        help="operation arguments (dependencies for implies/add/retract, "
        "a subattribute for closure/basis)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "figures":
        if getattr(args, "dot", False):
            from .viz.figures import figure_1, figure_2

            print(figure_1(fmt="dot"))
            print(figure_2(fmt="dot"))
        else:
            from .viz.figures import render_all

            print(render_all())
        return 0

    if args.command == "shell":
        from .shell import run_shell

        return run_shell()

    engine = getattr(args, "engine", None)
    if engine is not None:
        from .core.engines import set_default_engine

        try:
            previous = set_default_engine(engine)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        try:
            return _dispatch_with_obs(args)
        finally:
            # Never leak the override: tests (and library users) drive
            # main() repeatedly within one process.
            set_default_engine(previous)
    return _dispatch_with_obs(args)


def _dispatch_with_obs(args: argparse.Namespace) -> int:
    """Install the optional observer around the command dispatch."""
    trace_json = getattr(args, "trace_json", None)
    want_metrics = getattr(args, "metrics", False)
    if trace_json or want_metrics:
        from .obs import JsonlSink, Observer, set_observer

        observer = Observer([JsonlSink(trace_json)] if trace_json else [])
        previous = set_observer(observer)
        try:
            return _dispatch(args)
        finally:
            set_observer(previous)
            observer.close()
            if want_metrics:
                print(observer.metrics.describe(), file=sys.stderr)
    return _dispatch(args)


def _dispatch(args: argparse.Namespace) -> int:
    """Run the non-shell, non-figures command; returns the exit code."""
    try:
        if args.command in ("check", "chase", "audit"):
            return _run_problem_command(args)

        if args.command == "serve":
            return _run_serve(args)

        if args.command == "store":
            return _run_store(args)

        if args.command == "query":
            return _run_query(args)

        schema = Schema(args.schema)
        sigma = schema.dependencies(*_sigma_texts(args))

        if args.command == "decompose":
            print(schema.decompose(sigma).describe())
            return 0

        return _run_local_command(schema, sigma, args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _run_serve(args: argparse.Namespace) -> int:
    """``python -m repro serve`` — run until SIGTERM/SIGINT drains it."""
    import asyncio

    from .serve.server import ReasoningServer, ServeConfig

    fault_plan = None
    if args.fault_plan:
        from .serve.faults import FaultPlan

        try:
            fault_plan = FaultPlan.load(args.fault_plan)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        idle_ttl=args.idle_ttl if args.idle_ttl > 0 else None,
        max_inflight=args.max_inflight,
        request_timeout=(args.request_timeout
                         if args.request_timeout > 0 else None),
        shed_cold_at=args.shed_cold_at,
        fault_plan=fault_plan,
        data_dir=args.data_dir,
        fsync=args.fsync,
        store_compact_records=args.store_compact_records,
        store_compact_bytes=args.store_compact_bytes,
        replicate_from=args.replicate_from,
        replica_id=args.replica_id,
        fence_wait=args.fence_wait,
    )

    async def run() -> None:
        server = ReasoningServer(config)
        host, port = await server.start()
        server.install_signal_handlers()
        if server.store is not None:
            stats = server.store.stats()
            print(f"store: {args.data_dir} (fsync={args.fsync}, "
                  f"recovered {stats.get('recovered_sessions', 0)} "
                  f"session(s), replayed "
                  f"{stats.get('replayed_records', 0)} record(s))",
                  file=sys.stderr, flush=True)
        if args.replicate_from:
            print(f"replica: tailing {args.replicate_from} (read-only; "
                  f"mutations answer typed 'not_primary')",
                  file=sys.stderr, flush=True)
        if fault_plan is not None:
            print(f"FAULT INJECTION ENABLED ({len(fault_plan.rules)} "
                  f"rule(s), seed {fault_plan.seed}) — tests only",
                  file=sys.stderr, flush=True)
        # announce only once a signal already means "drain gracefully"
        print(f"serving on {host}:{port}", flush=True)
        await server.serve_forever(handle_signals=False)

    asyncio.run(run())
    return 0


def _run_store(args: argparse.Namespace) -> int:
    """``python -m repro store inspect|compact PATH`` (offline — never
    run against a directory a live server is using)."""
    import json

    if args.action == "inspect":
        import os

        from .store import inspect_store

        # A wrong path or a directory no server ever wrote deserves a
        # diagnosis, not a stack of JSON (or a generic StoreError): say
        # what is missing and exit 1.  Actual corruption inside an
        # initialized directory still surfaces as an error (exit 2).
        if not os.path.isdir(args.path):
            print(f"error: no manifest at {args.path!r}: "
                  f"not a directory", file=sys.stderr)
            return 1
        summary = inspect_store(args.path)
        if not summary.get("initialized", True):
            print(f"error: no manifest at {args.path!r} (empty or "
                  f"uninitialized data directory)", file=sys.stderr)
            return 1
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0

    from .serve.server import SessionManager
    from .store import SessionStore

    # Offline compaction recovers into a throwaway manager (an
    # effectively unbounded LRU: nothing may be evicted mid-compact),
    # snapshots it, and truncates the replayed segments.
    manager = SessionManager(max_sessions=2 ** 31)
    store = SessionStore(args.path, fsync="always")
    report = store.start(manager)
    result = store.compact(manager.snapshot_state())
    store.close()
    print(f"compacted {args.path}: {len(report.sessions)} session(s) -> "
          f"{result['snapshot']} (last_seq {result['last_seq']}, "
          f"{result['segments_removed']} segment(s) removed)")
    return 0


def _run_query(args: argparse.Namespace) -> int:
    """``python -m repro query --connect host:port OP ...``."""
    import json

    from .serve.client import Client, ServerError

    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        print(f"error: --connect wants HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2
    replicas = [address.strip() for spec in args.replicas
                for address in spec.split(",") if address.strip()]
    if replicas:
        from .replicate import RoutedClient, parse_address

        try:
            targets = [parse_address(address) for address in replicas]
        except ValueError as error:
            print(f"error: --replicas: {error}", file=sys.stderr)
            return 2

        def _connect():
            return RoutedClient((host, int(port_text)), targets,
                                timeout=args.timeout)
    elif args.retries > 0:
        from .serve.resilience import RetryingClient, RetryPolicy

        def _connect():
            return RetryingClient.connect(
                host, int(port_text), timeout=args.timeout,
                policy=RetryPolicy(max_retries=args.retries,
                                   deadline=max(args.timeout, 1.0)))
    else:
        def _connect():
            return Client.connect(host, int(port_text), timeout=args.timeout)
    try:
        with _connect() as client:
            op, op_args, session = args.op, args.args, args.session
            if op == "ping":
                print(json.dumps(client.ping()))
                return 0
            if op == "health":
                print(json.dumps(client.health(), indent=2, sort_keys=True))
                return 0
            if op == "open":
                if not args.schema:
                    print("error: 'open' needs --schema", file=sys.stderr)
                    return 2
                result = client.open(session, args.schema, _sigma_texts(args),
                                     engine=args.engine, replace=args.replace)
                print(f"opened session {result['name']!r} "
                      f"(|Σ|={result['sigma']}, engine={result['engine']})")
                return 0
            if op == "metrics":
                print(json.dumps(client.metrics(), indent=2, sort_keys=True))
                return 0
            if op == "replicate.status":
                print(json.dumps(client.replicate_status(), indent=2,
                                 sort_keys=True))
                return 0
            if op == "close":
                client.close_session(session)
                print(f"closed session {session!r}")
                return 0
            # Every session-scope op is driven from the registry: the
            # spec's positional params bind the CLI arguments, the raw
            # wire result is rendered by the command class.
            from .core import commands as registry

            command_cls = registry.REGISTRY[op]
            take = command_cls.spec.positional()
            params = {"session": session}
            if len(take) == 1 and take[0].type == "list[string]":
                params[take[0].name] = list(op_args)
            elif len(op_args) != len(take):
                wants = ("exactly one argument" if len(take) == 1
                         else f"exactly {len(take)} arguments")
                print(f"error: {op!r} takes {wants}", file=sys.stderr)
                return 2
            else:
                params.update(
                    (param.name, value)
                    for param, value in zip(take, op_args))
            rendered = dict(client.request(op, **params))
            # renderers that echo the query texts (implies_batch) find
            # them here; ops whose results carry the key keep their own.
            rendered.setdefault("dependencies", list(op_args))
            lines, exit_code = command_cls.render(rendered)
            for line in lines:
                print(line)
            return exit_code
    except ServerError as error:
        print(f"error: [{error.code}] {error.message}", file=sys.stderr)
        return 2
    except (ConnectionError, TimeoutError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _run_local_command(schema: Schema, sigma,
                       args: argparse.Namespace) -> int:
    """The local reasoning verbs, dispatched through the command layer.

    Each CLI verb names a registered command (``implies``, ``closure``,
    ``basis``, ``trace``, ``keys``, ``check4nf``, ``cover``); the spec's
    positional params bind the parsed arguments, the command runs on a
    fresh :class:`~repro.core.session.Session`, and its own renderer
    prints the result — the same objects the wire dispatches.  With
    ``--stats``, ``implies``/``closure``/``basis`` also print the
    session's counters to stderr.
    """
    from .core import commands as registry
    from .core.session import Session

    command_cls = registry.REGISTRY.get(args.command)
    if command_cls is None:                              # pragma: no cover
        raise AssertionError(f"unhandled command {args.command}")
    supplied = {"dependency": getattr(args, "query", None),
                "x": getattr(args, "x", None)}
    command = command_cls(**{param.name: supplied[param.name]
                             for param in command_cls.spec.positional()})
    session = Session(schema.root, sigma, encoding=schema.encoding)
    try:
        outcome = registry.execute(command, session)
        lines, exit_code = command_cls.render(outcome.result)
        for line in lines:
            print(line)
        return exit_code
    finally:
        if args.stats and args.command in ("implies", "closure", "basis"):
            print(session.describe_stats(), file=sys.stderr)


def _run_problem_command(args: argparse.Namespace) -> int:
    """The problem-file commands: ``check`` and ``chase``."""
    import json

    from .dependencies.satisfaction import violating_fd_pair, violating_mvd_pair
    from .io import instance_to_json, load_problem

    problem = load_problem(args.problem)
    if problem.instance is None:
        print("error: the problem file has no instance", file=sys.stderr)
        return 2
    schema = problem.schema

    if args.command == "check":
        clean = True
        for dependency in problem.sigma:
            if dependency.is_fd:
                pair = violating_fd_pair(schema.root, problem.instance, dependency)
            else:
                pair = violating_mvd_pair(schema.root, problem.instance, dependency)
            if pair is not None:
                clean = False
                print(f"VIOLATED  {dependency.display(schema.root)}")
            else:
                print(f"ok        {dependency.display(schema.root)}")
        return 0 if clean else 1

    if args.command == "audit":
        from .normalization import redundancy_report

        report = redundancy_report(
            problem.sigma, problem.instance, encoding=schema.encoding
        )
        if not report:
            print("no redundant occurrences")
            return 0
        for basis_attribute, count in sorted(
            report.items(), key=lambda kv: -kv[1]
        ):
            print(f"{count:6d}  π_{schema.show(basis_attribute)}")
        return 1

    from .chase import ChaseFailure, chase

    try:
        result = chase(schema.root, problem.instance, problem.sigma)
    except ChaseFailure as failure:
        print(f"error: {failure}", file=sys.stderr)
        if failure.implied_by_sigma:
            print("note: the violated FD is implied by Σ — no "
                  "Σ-satisfying superset of this instance exists",
                  file=sys.stderr)
        return 1
    print(json.dumps(instance_to_json(schema.root, result.instance),
                     indent=2, ensure_ascii=False))
    print(f"# added {len(result.added)} exchange tuple(s) in "
          f"{result.rounds} round(s)", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
