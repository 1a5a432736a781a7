"""The served floor: server CPU per hot request, against a bare echo.

perfbench's hot-read shape in one process.  A :class:`ReasoningServer`
runs on its own thread over perfbench's reasoning problem (one random
``SIGMA_SIZE``-dependency Σ over ``mixed_family(16)``, ``|N|`` = 64).
A client on the main thread opens the session, warms a working set of
``WORKING_SET`` left-hand sides, then sends hot ``implies`` lines one
at a time, each answered from the session's cache.  The figure is the
server thread's CPU time per request (its ``pthread_getcpuclockid``
clock): decode, dispatch, cache hit, encode, and the event loop and
socket work around them.  It is the "asyncio server" row of the
per-layer breakdown.

Beside it runs the floor: a bare ``asyncio.Protocol`` on a second
thread, whose ``data_received`` splits lines and writes back the
reasoning server's recorded answer to each one, so both servers see the
same client and the same line sizes.  What the floor spends is what any
asyncio server on this host pays to move one request and one response;
the difference is what the reasoning server adds.

The two alternate for ``ROUNDS`` paired rounds of ``REQUESTS`` requests
(``_timing.paired_measure``), after one untimed round each.  The report
gives both medians and the median per-round difference.  The process is
pinned to one CPU while it measures, as perfbench pins its harness, so
client and servers share that CPU as they do there.  Every served
answer is checked against an in-process ``Session``.  Results land in
``BENCH_serve_floor.json``.

Run:  pytest benchmarks/bench_serve_floor.py -s --benchmark-disable
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import socket
import threading
import time
from pathlib import Path

from repro.attributes.encoding import BasisEncoding
from repro.attributes.printer import unparse, unparse_abbreviated
from repro.core.session import Session
from repro.dependencies.dependency import (
    FunctionalDependency,
    MultivaluedDependency,
)
from repro.serve import ReasoningServer, ServeConfig
from repro.workloads import mixed_family
from repro.workloads.random_sigma import random_element_mask, random_sigma

from _timing import cpus, paired_measure

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve_floor.json"

SCALE = 16           # mixed_family(16): |N| = 64, as in perfbench
SIGMA_SIZE = 200
WORKING_SET = 16     # distinct hot left-hand sides
LINES = 64           # distinct request lines, sent round-robin
REQUESTS = 2000      # requests per measured round
ROUNDS = 7
SESSION = "floor"


def _problem() -> tuple[str, list[str], list[bytes], list[bytes], list[bool]]:
    """Schema text, Σ, warm-up lines, hot lines and their answers."""
    rng = random.Random(0)
    root = mixed_family(SCALE)
    encoding = BasisEncoding.of(root, None)
    sigma = [dependency.display(root) for dependency in
             random_sigma(rng, encoding, SIGMA_SIZE)]
    working_set = [encoding.decode(random_element_mask(rng, encoding, 0.25))
                   for _ in range(WORKING_SET)]
    oracle = Session(root, sigma)

    def line(request_id: int, op: str, **params: object) -> bytes:
        return json.dumps({"v": 1, "id": request_id, "op": op,
                           "params": {"session": SESSION, **params}},
                          ensure_ascii=False).encode("utf-8") + b"\n"

    warmup = [line(i, "basis", x=unparse_abbreviated(lhs, root))
              for i, lhs in enumerate(working_set)]
    hot, implied = [], []
    for i in range(LINES):
        kind = FunctionalDependency if i % 2 else MultivaluedDependency
        rhs = encoding.decode(random_element_mask(rng, encoding, 0.35))
        text = kind(working_set[i % WORKING_SET], rhs).display(root)
        hot.append(line(i, "implies", dependency=text))
        implied.append(oracle.implies(text))
    return unparse(root), sigma, warmup, hot, implied


class _Echo(asyncio.Protocol):
    """The floor: split lines, write back a recorded answer to each."""

    def __init__(self, answers: dict[bytes, bytes]) -> None:
        self.answers = answers
        self.buffer = b""

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        *lines, self.buffer = (self.buffer + data).split(b"\n")
        for line in lines:
            self.transport.write(self.answers[line + b"\n"])


class _Node(threading.Thread):
    """One server on an event loop of its own thread, and a blocking
    client connection to it."""

    def __init__(self, serve) -> None:
        super().__init__(daemon=True)
        self._serve = serve
        self._ready = threading.Event()

    def run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self.loop = asyncio.get_running_loop()
        self.stopping = asyncio.Event()
        await self._serve(self)

    async def serving(self, address: tuple[str, int]) -> None:
        """Called by the server coroutine once bound; returns at stop."""
        self.address = address
        self._ready.set()
        await self.stopping.wait()

    def connect(self) -> None:
        self.start()
        self._ready.wait()
        self.sock = socket.create_connection(self.address[:2])
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.clock = time.pthread_getcpuclockid(self.ident)

    def exchange(self, lines: list[bytes]) -> list[bytes]:
        """Send each line and wait for its answer before the next."""
        answers = []
        for line in lines:
            self.sock.sendall(line)
            answers.append(self.reader.readline())
        return answers

    def cpu_us_per_request(self, lines: list[bytes]) -> float:
        before = time.clock_gettime(self.clock)
        self.exchange(lines)
        return (time.clock_gettime(self.clock) - before) / len(lines) * 1e6

    def close(self) -> None:
        self.reader.close()
        self.sock.close()
        self.loop.call_soon_threadsafe(self.stopping.set)
        self.join(10)


async def _serve_reasoning(node: _Node) -> None:
    async with ReasoningServer(ServeConfig(idle_ttl=None)) as server:
        await node.serving(server.address)


def _echo_server(answers: dict[bytes, bytes]):
    async def serve(node: _Node) -> None:
        server = await asyncio.get_running_loop().create_server(
            lambda: _Echo(answers), "127.0.0.1", 0)
        async with server:
            await node.serving(server.sockets[0].getsockname())
    return serve


def _measure() -> dict:
    schema, sigma, warmup, hot, implied = _problem()
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(pinned)})   # threads started now inherit
    served = floor = None
    try:
        served = _Node(_serve_reasoning)
        served.connect()
        opened = json.dumps({"v": 1, "id": 0, "op": "open", "params": {
            "name": SESSION, "schema": schema, "dependencies": sigma}})
        assert json.loads(served.exchange([opened.encode() + b"\n"])[0])["ok"]
        assert all(json.loads(answer)["ok"]
                   for answer in served.exchange(warmup))
        answers = served.exchange(hot)
        assert [json.loads(answer)["result"]["implied"]
                for answer in answers] == implied
        floor = _Node(_echo_server(dict(zip(hot, answers))))
        floor.connect()

        stream = [hot[i % LINES] for i in range(REQUESTS)]
        assert served.exchange(stream) == floor.exchange(stream)  # untimed
        floor_us, served_us, over_us = paired_measure(
            lambda: floor.cpu_us_per_request(stream),
            lambda: served.cpu_us_per_request(stream), rounds=ROUNDS)
    finally:
        for node in (served, floor):
            if node is not None:
                node.close()
        os.sched_setaffinity(0, pinned)
    return {
        "request_bytes": round(sum(map(len, hot)) / LINES, 1),
        "response_bytes": round(sum(map(len, answers)) / LINES, 1),
        "served_cpu_us_per_req": served_us,
        "floor_cpu_us_per_req": floor_us,
        "served_over_floor_us": over_us,
    }


def test_serve_floor(benchmark):
    row = benchmark.pedantic(_measure, rounds=1, iterations=1)

    report = {
        "workload": f"hot implies over a {WORKING_SET}-LHS working set; "
                    f"random Σ of {SIGMA_SIZE} over mixed_family({SCALE}); "
                    f"one request in flight, {LINES} distinct lines",
        "served": "ReasoningServer on a thread: server-thread CPU per "
                  "request",
        "floor": "bare asyncio.Protocol answering each line with the "
                 "served answer: server-thread CPU per request",
        "requests_per_round": REQUESTS,
        "rounds": ROUNDS,
        "cpus": cpus(),
        **row,
    }
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"\nServed floor, server-thread CPU per request (paired medians, "
          f"{row['request_bytes']:.0f}-byte requests, "
          f"{row['response_bytes']:.0f}-byte answers):")
    print(f"  reasoning server {row['served_cpu_us_per_req']:6.1f} µs")
    print(f"  bare echo        {row['floor_cpu_us_per_req']:6.1f} µs")
    print(f"  difference       {row['served_over_floor_us']:6.1f} µs")
    print(f"report written to {JSON_PATH.name}")
    assert row["served_over_floor_us"] > 0, row
