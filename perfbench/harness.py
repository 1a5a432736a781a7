"""Measurement plumbing: server processes, CPU and memory probes, the
host-speed reference loop, and the windowed closed-loop load generator.

All processes of a run share one CPU (the harness pins itself before it
spawns anything, and children inherit the mask).  The reference loop
then runs on the very CPU whose speed it is meant to track, between
measurement windows a few tens of milliseconds long.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from statistics import median, quantiles
from typing import Any, Callable

#: Fixed string-hash seed of every server process (and of the harness,
#: which re-executes itself with it), so dict/set iteration order and
#: with it every deterministic count is the same in every run.
HASH_SEED = "0"

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


def pin_to_one_cpu() -> int:
    """Restrict this process (and its future children) to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# --------------------------------------------------------------------------
# Host-speed reference

_REF_TEXT = ", ".join(
    f"A{i}, L{i}[D{i}(B{i}, C{i})]" for i in range(1, 17))
_REF_REPS = 96


def reference_loop() -> int:
    """A fixed pure-Python job shaped like the request path.

    It tokenises a schema-like text, folds the tokens into integer
    bitmasks through a dict and round-trips a small JSON object: the
    interpreter work the server does, in code that never changes, so its
    CPU time tracks the speed of the host.
    """
    table: dict[str, int] = {}
    total = 0
    for rep in range(_REF_REPS):
        masks = []
        word: list[str] = []
        for char in _REF_TEXT:
            if char.isalnum():
                word.append(char)
            elif word:
                token = "".join(word)
                masks.append(1 << table.setdefault(token, len(table)))
                word.clear()
        acc = rep
        for mask in masks:
            acc = (acc | mask) ^ (acc >> 3)
        total += acc.bit_count()
        total += len(json.loads(json.dumps(
            {"tokens": len(masks), "acc": acc & 0xFFFF, "rep": rep})))
    return total


def reference_ns() -> int:
    """CPU nanoseconds of one :func:`reference_loop` on this thread."""
    started = time.thread_time_ns()
    reference_loop()
    return time.thread_time_ns() - started


#: Reference loops run on each side of a set-up.  A set-up lasts about
#: a second, and one loop of a few milliseconds samples the host speed
#: too thinly for it.  Over five runs the raw set-up time spread 21–25%,
#: normalized by one loop on each side 11–22%, by ten 10–11%.
SETUP_REF_LOOPS = 16

#: The reference loop's time on an unloaded core of the 2-vCPU KVM guest
#: the bounds were set on.  It only scales a normalized set-up back to
#: seconds, so ``setup_s`` reads close to wall time on such a host.
NOMINAL_REF_NS = 4_000_000


def setup_reference_ns() -> float:
    """Mean CPU nanoseconds of :data:`SETUP_REF_LOOPS` reference loops."""
    total = sum(reference_ns() for _ in range(SETUP_REF_LOOPS))
    return total / SETUP_REF_LOOPS


# --------------------------------------------------------------------------
# Process probes

def task_cpu_ns(pid: int, tids: list[int] | None = None) -> int:
    """On-CPU nanoseconds of ``pid``'s threads, from ``schedstat``."""
    base = f"/proc/{pid}/task"
    total = 0
    for tid in tids if tids is not None else os.listdir(base):
        try:
            with open(f"{base}/{tid}/schedstat", "rb") as handle:
                total += int(handle.read().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            continue  # a thread that ended between listdir and open
    return total


def rss_mb(pid: int) -> float:
    """Resident set size of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmRSS for pid {pid}")


# --------------------------------------------------------------------------
# Server processes

class ServerProcess:
    """One ``python -m repro serve`` subprocess on an ephemeral port."""

    def __init__(self, root: str, log_path: str, *args: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONHASHSEED"] = HASH_SEED
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--idle-ttl", "0", *args],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log)
        self.address = self._await_ready()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _await_ready(self) -> tuple[str, int]:
        """Block until the server prints ``serving on HOST:PORT``."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        stdout = self.proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            line = stdout.readline().decode("utf-8", "replace").strip()
            if line.startswith("serving on "):
                host, _, port = line[len("serving on "):].rpartition(":")
                return host, int(port)
            if not line and self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def cpu_ns(self) -> int:
        return task_cpu_ns(self.pid)

    def rss_mb(self) -> float:
        return rss_mb(self.pid)

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; SIGKILL as last resort."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


# --------------------------------------------------------------------------
# The windowed closed loop

@dataclass
class Window:
    """One measurement window: requests, server CPU, latencies."""

    requests: int
    server_cpu_ns: int
    client_cpu_ns: int
    latencies_ns: list[int]
    ref_ns: float


@dataclass
class Measurement:
    windows: list[Window] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def note(self, error: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(error)

    # -- host-normalized figures --------------------------------------------

    def cpu_ref_per_req(self) -> float:
        """Server CPU per request, in reference-loop units.

        Each window's CPU is divided by the reference time taken around
        that window, so drift in host speed slower than a window cancels.
        """
        units = sum(w.server_cpu_ns / w.ref_ns for w in self.windows)
        return units / sum(w.requests for w in self.windows)

    def latency_ref(self, q: float) -> float:
        """Latency quantile ``q`` (0..100) in reference-loop units."""
        values = [lat / w.ref_ns for w in self.windows
                  for lat in w.latencies_ns]
        return _quantile(values, q)

    # -- raw context -------------------------------------------------------

    def latency_ms(self, q: float) -> float:
        return _quantile([lat for w in self.windows
                          for lat in w.latencies_ns], q) / 1e6

    def client_cpu_us_per_req(self) -> float:
        return (sum(w.client_cpu_ns for w in self.windows) / 1e3
                / sum(w.requests for w in self.windows))

    def ref_ms(self) -> float:
        return median(w.ref_ns for w in self.windows) / 1e6


def _quantile(values: list[float], q: float) -> float:
    return quantiles(values, n=100, method="inclusive")[int(q) - 1]


def drive(steps_by_window, send: Callable[[str, dict], dict],
          server_cpu_ns: Callable[[], int], measurement: Measurement,
          *, between: Callable[[int], None] | None = None) -> None:
    """Run the timed windows in a closed loop, one request at a time.

    Before the first window and after every window the reference loop
    runs once; a window's reference time is the mean of the two runs
    around it.  ``between(index)`` runs before window ``index`` (outside
    the timed region) — the traced run uses it to switch tracing.
    """
    ref_before = reference_ns()
    for index, steps in enumerate(steps_by_window):
        if between is not None:
            between(index)
        latencies: list[int] = []
        cpu_start = server_cpu_ns()
        client_start = time.thread_time_ns()
        for step in steps:
            measurement.attempted += 1
            started = time.perf_counter_ns()
            result = call(send, step)
            latencies.append(time.perf_counter_ns() - started)
            problem = step.problem(result)
            if problem is not None:
                measurement.note(problem)
        client_ns = time.thread_time_ns() - client_start
        cpu_ns = server_cpu_ns() - cpu_start
        ref_after = reference_ns()
        measurement.windows.append(Window(
            len(steps), cpu_ns, client_ns, latencies,
            (ref_before + ref_after) / 2.0))
        ref_before = ref_after


def call(send: Callable[[str, dict], dict], step) -> dict | Exception:
    """One request: its result, or the error it raised (a failure)."""
    try:
        return send(step.op, step.params)
    except Exception as error:  # noqa: BLE001 — counted and reported
        return error


def replay(steps, send: Callable[[str, dict], dict]) -> list[str]:
    """Send unmeasured steps (warm-up); returns the wrong answers."""
    return [problem for step in steps
            if (problem := step.problem(call(send, step))) is not None]


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}
