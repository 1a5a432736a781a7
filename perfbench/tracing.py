"""The traced run: per-layer cost of the same seeded script.

The servers run on threads of this process (:class:`fleet.ThreadFleet`)
and the benchmark wraps each layer's public entry points with timers;
nothing inside ``src/`` changes.  A layer's self time is the thread
CPU time inside its wrappers minus that inside wrappers nested in them.
It is CPU time, like the server threads' ``schedstat`` total it is
subtracted from: a wrapper left open while its thread blocks (an fsync,
a lock) does not take in the waiting or other threads' work.  Windows
alternate between traced and untraced, so the cost of the wrappers
themselves is measured too (``trace.overhead_pct``).  Plan compiles and
fence waits are counted over the whole run by wrappers that stay
installed (:class:`RunCounts`).

Counts come from the public ``metrics`` op, the follower's replication
status (``Replicator.batches``), ``Session.cache_info()`` and the
session's ``KernelStats``.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import Counter
from statistics import median
from typing import Any, Callable

from repro.core import commands as commands_module
from repro.core import session as session_module
from repro.core.engines import Engine
from repro.core.session import Session
from repro.dependencies import dependency as dependency_module
from repro.replicate import follower as follower_module
from repro.replicate import primary as primary_module
from repro.replicate.follower import Replicator
from repro.serve import server as server_module
from repro.store import SessionStore

from fleet import ThreadFleet
from harness import Measurement, Window, drive, metric
from workloads import Script

# the package re-exports a function named ``closure``
closure_module = importlib.import_module("repro.core.closure")

#: Layers in request order; ``serve.server`` is what the server threads
#: spend outside every other layer (event loop, sockets, dispatch).
LAYERS = ("serve.protocol", "serve.server", "core.commands",
          "attributes.parser", "attributes.printer", "core.session",
          "core.engine", "core.plan", "store", "replicate")

#: ``(owner, attribute, layer)``: the wrapped entry points.  Functions
#: imported by name are wrapped where they are looked up.
ENTRY_POINTS = (
    (server_module, "decode_request", "serve.protocol"),
    (server_module, "encode", "serve.protocol"),
    (commands_module, "from_wire", "core.commands"),
    (commands_module, "execute", "core.commands"),
    (Session, "dependency", "attributes.parser"),
    (Session, "attribute", "attributes.parser"),
    (commands_module, "unparse_abbreviated", "attributes.printer"),
    (dependency_module, "unparse_abbreviated", "attributes.printer"),
    (Session, "implies", "core.session"),
    (Session, "add", "core.session"),
    (Session, "retract", "core.session"),
    (Session, "result_for_mask", "core.session"),
    (Session, "closure_mask_for", "core.session"),
    (Engine, "run", "core.engine"),
    (closure_module, "closure_of_masks_fast", "core.engine"),
    (session_module, "compile_plan", "core.plan"),
    (SessionStore, "append", "store"),
    (SessionStore, "append_record", "store"),
    (SessionStore, "compact", "store"),
    (primary_module, "encode_batch", "replicate"),
    (follower_module, "decode_batch", "replicate"),
    (follower_module, "apply_record", "replicate"),
)


class Tracer:
    """Self/inclusive thread CPU time and call counts per layer and
    entry point."""

    def __init__(self) -> None:
        self.self_ns: Counter[str] = Counter()
        self.inclusive_ns: Counter[str] = Counter()   # per entry point
        self.calls: Counter[str] = Counter()          # per layer and point
        self.wire_bytes = 0
        self.appended_at: dict[int, int] = {}
        self.applied_at: dict[int, int] = {}
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, layer: str, point: str,
              function: Callable[..., Any]) -> Callable[..., Any]:
        local = self._local
        self_ns, inclusive_ns, calls = (self.self_ns, self.inclusive_ns,
                                        self.calls)
        clock = time.thread_time_ns
        on_return = self._observers().get(point)

        def timed(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0)
            started = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                nested = stack.pop()
                self_ns[layer] += elapsed - nested
                inclusive_ns[point] += elapsed
                calls[layer] += 1
                calls[point] += 1
                if stack:
                    stack[-1] += elapsed
            if on_return is not None:
                on_return(args, result)
            return result

        return timed

    def _observers(self) -> dict[str, Callable[[tuple, Any], None]]:
        clock = time.perf_counter_ns   # replication lag is wall time

        def line_in(args: tuple, result: Any) -> None:
            self.wire_bytes += len(args[0])

        def line_out(args: tuple, result: Any) -> None:
            self.wire_bytes += len(result)

        def appended(args: tuple, seq: Any) -> None:
            self.appended_at[seq] = clock()

        def applied(args: tuple, result: Any) -> None:
            self.applied_at[args[1].seq] = clock()

        return {"server.decode_request": line_in, "server.encode": line_out,
                "SessionStore.append": appended,
                "follower.apply_record": applied}

    def install(self) -> None:
        for owner, name, layer in ENTRY_POINTS:
            original = getattr(owner, name)
            self._saved.append((owner, name, original))
            point = f"{owner.__name__.rpartition('.')[2]}.{name}"
            setattr(owner, name, self._wrap(layer, point, original))

    def uninstall(self) -> None:
        _restore(self._saved)


class RunCounts:
    """Plan compiles and fence waits, counted in every window."""

    def __init__(self) -> None:
        self.compiles = 0
        self.fence_waits = 0
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        original_compile = session_module.compile_plan
        original_wait = Replicator.wait_for_seq
        counts = self

        def compile_plan(*args: Any, **kwargs: Any) -> Any:
            counts.compiles += 1
            return original_compile(*args, **kwargs)

        async def wait_for_seq(replicator: Replicator, seq: int,
                               timeout: float) -> bool:
            if replicator.applied_seq < seq:
                counts.fence_waits += 1
            return await original_wait(replicator, seq, timeout)

        self._saved += [(session_module, "compile_plan", original_compile),
                        (Replicator, "wait_for_seq", original_wait)]
        session_module.compile_plan = compile_plan
        Replicator.wait_for_seq = wait_for_seq

    def uninstall(self) -> None:
        _restore(self._saved)


def _restore(saved: list[tuple[Any, str, Any]]) -> None:
    while saved:
        owner, name, original = saved.pop()
        setattr(owner, name, original)


def _session_counts(sessions: list[Session]) -> dict[str, int]:
    """Kernel and cache counts summed over ``sessions``."""
    total: Counter[str] = Counter()
    for session in sessions:
        info = session.cache_info()
        kernel = info.kernel
        total.update({
            "kernel.runs": kernel.runs, "kernel.passes": kernel.passes,
            "kernel.firings": kernel.firings,
            "kernel.skipped_firings": kernel.skipped_firings,
            "kernel.requeue_scanned": kernel.requeue_scanned,
            "session.hits": info.hits,
            "session.warm_starts": info.warm_starts,
            "session.invalidations": info.invalidations,
            "plan.interval_hits": info.plan.interval_hits,
        })
    return dict(total)


def traced_window(index: int) -> bool:
    """Windows traced: 0, 3, 4, 7, 8, …  An edit-replicated run
    compacts every 50 windows; with this pattern successive compactions
    alternate between traced and untraced windows, where plain
    alternation would put every one on the same kind."""
    return index % 4 in (0, 3)


def _node_counters(payloads: list[dict[str, Any]]) -> Counter[str]:
    total: Counter[str] = Counter()
    for payload in payloads:
        total.update(payload["server"]["counters"])
    return total


def run(script: Script, workdir: str) -> dict[str, Any]:
    """Serve ``script`` in-process, tracing every other window."""
    import counts

    tracer = Tracer()
    run_counts = RunCounts()
    # every Session the servers create, including those a follower
    # restores from a snapshot reset, so no count is lost with them
    sessions: list[Session] = []
    original_init = Session.__init__

    def register(session: Session, *args: Any, **kwargs: Any) -> None:
        original_init(session, *args, **kwargs)
        sessions.append(session)

    state = {"tracing": False}

    def between(index: int) -> None:
        tracing = traced_window(index)
        if tracing != state["tracing"]:
            (tracer.install if tracing else tracer.uninstall)()
            state["tracing"] = tracing

    Session.__init__ = register
    try:
        run_counts.install()
        fleet = ThreadFleet(script, workdir)
        try:
            before_nodes = fleet.node_metrics()
            before_session = _session_counts(sessions)
            before_batches = _batches(fleet)
            before_compiles = run_counts.compiles
            before_waits = run_counts.fence_waits
            whole = Measurement()
            try:
                drive(script.windows(), fleet.send, fleet.cpu_ns, whole,
                      between=between)
            finally:
                tracer.uninstall()
            after_nodes = fleet.node_metrics()
            after_session = _session_counts(sessions)
            after_batches = _batches(fleet)
        finally:
            fleet.stop()
    finally:
        run_counts.uninstall()
        Session.__init__ = original_init
    exact = {**counts.from_metrics(after_nodes),
             **{f"all.{key}": value for key, value in after_session.items()},
             "all.plan.compiles": run_counts.compiles}
    return {
        "tracer": tracer,
        "whole": whole,
        "session": Counter(after_session) - Counter(before_session),
        "counters": (_node_counters(after_nodes)
                     - _node_counters(before_nodes)),
        "batches": after_batches - before_batches,
        "compiles": run_counts.compiles - before_compiles,
        "fence_waits": run_counts.fence_waits - before_waits,
        "counts": exact,
        "problems": ([f"in-process warm-up: {p}"
                      for p in fleet.warmup_problems]
                     + [f"in-process: {e}" for e in whole.errors]),
    }


def _batches(fleet: ThreadFleet) -> int:
    return sum(server.replicator.batches for server in fleet.servers
               if server.replicator is not None)


def layer_metrics(traced: dict[str, Any], served: Measurement,
                  replica_read_ratio: float) -> dict[str, Any]:
    """Every per-layer metric, plus a self-time breakdown on stderr."""
    tracer: Tracer = traced["tracer"]
    whole: Measurement = traced["whole"]
    on = [w for i, w in enumerate(whole.windows) if traced_window(i)]
    off = [w for i, w in enumerate(whole.windows) if not traced_window(i)]
    requests = sum(w.requests for w in whole.windows)
    traced_requests = sum(w.requests for w in on)
    session, counters = traced["session"], traced["counters"]
    runs = session["kernel.runs"]
    lookups = session["session.hits"] + session["plan.interval_hits"] + runs
    firings = session["kernel.firings"]
    appends = counters["store.appends"]
    applied = counters["replicate.applied"]
    calls = tracer.calls

    def per_req(ns: float) -> float:
        return ns / 1e3 / traced_requests

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    server_ns = sum(w.server_cpu_ns for w in on)
    self_ns = dict(tracer.self_ns)
    self_ns["serve.server"] = server_ns - sum(tracer.self_ns.values())
    traced_runs = calls["Engine.run"]
    lags = [tracer.applied_at[seq] - at
            for seq, at in tracer.appended_at.items()
            if seq in tracer.applied_at]
    values = {
        "attributes.parser.us_per_req": (
            per_req(self_ns.get("attributes.parser", 0)), "us"),
        "attributes.parser.calls_per_req": (
            calls["attributes.parser"] / traced_requests, "count"),
        "attributes.printer.us_per_req": (
            per_req(self_ns.get("attributes.printer", 0)), "us"),
        "attributes.printer.calls_per_req": (
            calls["attributes.printer"] / traced_requests, "count"),
        "core.commands.self_us_per_req": (
            per_req(self_ns.get("core.commands", 0)), "us"),
        "serve.protocol.us_per_req": (
            per_req(self_ns.get("serve.protocol", 0)), "us"),
        "serve.protocol.bytes_per_req": (
            tracer.wire_bytes / traced_requests, "bytes"),
        "serve.server.self_us_per_req": (
            per_req(self_ns["serve.server"]), "us"),
        "serve.server.errors": (counters["serve.errors"], "count"),
        "core.session.self_us_per_req": (
            per_req(self_ns.get("core.session", 0)), "us"),
        "core.session.hit_ratio": (
            ratio(lookups - runs, lookups), "ratio"),
        "core.session.interval_hits_per_req": (
            session["plan.interval_hits"] / requests, "count"),
        "core.session.warm_starts_per_req": (
            session["session.warm_starts"] / requests, "count"),
        "core.session.invalidations_per_req": (
            session["session.invalidations"] / requests, "count"),
        "core.engine.us_per_run": (
            ratio(self_ns.get("core.engine", 0) / 1e3, traced_runs), "us"),
        "core.engine.runs_per_req": (runs / requests, "count"),
        "core.engine.passes_per_run": (
            ratio(session["kernel.passes"], runs), "count"),
        "core.engine.firings_per_run": (ratio(firings, runs), "count"),
        "core.engine.requeue_scanned_per_run": (
            ratio(session["kernel.requeue_scanned"], runs), "count"),
        "core.engine.productive_firing_ratio": (
            ratio(firings - session["kernel.skipped_firings"], firings),
            "ratio"),
        "core.plan.compiles": (traced["compiles"], "count"),
        "core.plan.compile_ms": (
            ratio(tracer.inclusive_ns["session.compile_plan"] / 1e6,
                  calls["core.plan"]), "ms"),
        "store.append_us": (
            ratio((tracer.inclusive_ns["SessionStore.append"]
                   + tracer.inclusive_ns["SessionStore.append_record"]) / 1e3,
                  calls["SessionStore.append"]
                  + calls["SessionStore.append_record"]), "us"),
        "store.bytes_per_mutation": (
            ratio(counters["store.append_bytes"], appends), "bytes"),
        "store.compactions": (counters["store.compactions"], "count"),
        "store.compact_ms": (
            ratio(tracer.inclusive_ns["SessionStore.compact"] / 1e6,
                  calls["SessionStore.compact"]), "ms"),
        "store.fsyncs": (counters["store.fsyncs"], "count"),
        "replicate.apply_us_per_record": (
            ratio(tracer.inclusive_ns["follower.apply_record"] / 1e3,
                  calls["follower.apply_record"]), "us"),
        "replicate.lag_ms_p50": (median(lags) / 1e6 if lags else 0.0, "ms"),
        "replicate.fence_waits": (traced["fence_waits"], "count"),
        "replicate.records_per_batch": (
            ratio(applied, traced["batches"]), "count"),
        "routed.replica_read_ratio": (replica_read_ratio, "ratio"),
        "client.cpu_us_per_req": (served.client_cpu_us_per_req(), "us"),
        "client.p50_ms": (served.latency_ms(50), "ms"),
        "client.p99_ms": (served.latency_ms(99), "ms"),
        "host.ref_ms": (served.ref_ms(), "ms"),
        "trace.overhead_pct": (
            100.0 * (_window_median(on) / _window_median(off) - 1.0), "%"),
    }
    _print_breakdown(self_ns, traced_requests)
    return {name: metric(value, unit) for name, (value, unit) in
            values.items()}


def _window_median(windows: list[Window]) -> float:
    """Median server CPU per request of single windows, in reference
    units: robust to the few windows that hold a compaction."""
    return median(w.server_cpu_ns / w.ref_ns / w.requests for w in windows)


def _print_breakdown(self_ns: dict[str, float], requests: int) -> None:
    total = sum(self_ns.values())
    print("self time per request, traced windows:", file=sys.stderr)
    for layer in sorted(LAYERS, key=lambda name: -self_ns.get(name, 0)):
        value = self_ns.get(layer, 0)
        print(f"  {layer:20} {value / 1e3 / requests:10.1f} us "
              f"{100.0 * value / total:5.1f}%", file=sys.stderr)
