"""The served stack of each workload, as subprocesses or in-process.

:class:`ProcessFleet` is what the end-to-end metrics measure: real
``repro serve`` processes on loopback.  :class:`ThreadFleet` hosts the
same servers on threads of the harness process, so the traced run can
wrap each layer's entry points.  Both expose ``send(op, params)``, the
server-side CPU clock and the per-node ``metrics`` payloads.
"""

from __future__ import annotations

import asyncio
import os
import threading
from typing import Any

from repro.replicate import RoutedClient
from repro.serve import Client, ReasoningServer, ServeConfig

from harness import ServerProcess, replay, task_cpu_ns
from workloads import SESSION, Script

#: The edit workload compacts each node's store every this many WAL
#: records (default 4096), so every run completes several compactions.
COMPACT_RECORDS = 100
#: The WAL flush policy of the edit workload: the server default.
FSYNC = "interval"


class _Fleet:
    """Shared client side: one session opened, then warmed."""

    client: Any
    addresses: list[tuple[str, int]]

    def _connect(self, script: Script) -> list[str]:
        primary, *replicas = self.addresses
        if replicas:
            # RoutedClient: mutations to the primary, reads fenced to the
            # follower at the last acknowledged WAL seq
            self.client = RoutedClient(primary, replicas, timeout=30.0)
        else:
            self.client = Client.connect(*primary, timeout=30.0)
        self.client.open(SESSION, script.schema, script.sigma)
        return replay(script.warmup, self.send)

    def send(self, op: str, params: dict[str, Any]) -> dict[str, Any]:
        return self.client.request(op, **params)

    def node_metrics(self) -> list[dict[str, Any]]:
        """The ``metrics`` payload of every node, primary first."""
        payloads = []
        for host, port in self.addresses:
            with Client.connect(host, port, timeout=30.0) as client:
                payloads.append(client.metrics())
        return payloads

    def replica_read_ratio(self) -> float:
        counters = getattr(self.client, "counters", None)
        if counters is None:
            return 0.0
        replica = counters["routed.replica_reads"]
        total = replica + counters["routed.primary_reads"]
        return replica / total if total else 0.0


def _edit_args(data_dir: str) -> list[str]:
    return ["--data-dir", data_dir, "--fsync", FSYNC,
            "--store-compact-records", str(COMPACT_RECORDS)]


class ProcessFleet(_Fleet):
    """``repro serve`` subprocesses: one server, or primary + follower."""

    def __init__(self, script: Script, root: str, workdir: str) -> None:
        os.makedirs(workdir)
        self.servers: list[ServerProcess] = []
        self.client = None
        try:
            if script.workload == "edit-replicated":
                primary = self._spawn(root, workdir, "primary",
                                      *_edit_args(f"{workdir}/primary"))
                host, port = primary.address
                self._spawn(root, workdir, "follower",
                            *_edit_args(f"{workdir}/follower"),
                            "--replicate-from", f"{host}:{port}",
                            "--replica-id", "bench-follower")
            else:
                self._spawn(root, workdir, "server")
            self.addresses = [server.address for server in self.servers]
            self.warmup_problems = self._connect(script)
        except BaseException:
            self.stop()
            raise

    def _spawn(self, root: str, workdir: str, name: str,
               *args: str) -> ServerProcess:
        server = ServerProcess(root, f"{workdir}/{name}.log", *args)
        self.servers.append(server)
        return server

    def cpu_ns(self) -> int:
        return sum(server.cpu_ns() for server in self.servers)

    def rss_mb(self) -> float:
        return sum(server.rss_mb() for server in self.servers)

    def stop(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        for server in reversed(self.servers):
            server.stop()


class _ServerThread:
    """One ReasoningServer running its own event loop on a thread."""

    def __init__(self, config: ServeConfig) -> None:
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self.server: ReasoningServer | None = None
        self.thread = threading.Thread(target=self._main, args=(config,),
                                       daemon=True)
        self.thread.start()
        if not self._ready.wait(60.0) or self.server is None:
            raise RuntimeError(f"in-process server failed: {self._error!r}")

    def _main(self, config: ServeConfig) -> None:
        async def serve() -> None:
            server = ReasoningServer(config)
            await server.start()
            self.server = server
            self.loop = asyncio.get_running_loop()
            self.tid = threading.get_native_id()
            self._ready.set()
            await server.serve_forever(handle_signals=False)

        try:
            asyncio.run(serve())
        except BaseException as error:  # noqa: BLE001 — reported at start
            self._error = error
            self._ready.set()

    def stop(self) -> None:
        server = self.server
        asyncio.run_coroutine_threadsafe(server.shutdown(), self.loop)
        self.thread.join(30.0)
        if self.thread.is_alive():
            raise RuntimeError("in-process server did not stop")


class ThreadFleet(_Fleet):
    """The same topology hosted on threads of this process."""

    def __init__(self, script: Script, workdir: str) -> None:
        os.makedirs(workdir)
        self.threads: list[_ServerThread] = []
        self.client = None
        base = dict(idle_ttl=None, workers=0)
        try:
            if script.workload == "edit-replicated":
                primary = self._start(ServeConfig(
                    **base, data_dir=f"{workdir}/primary", fsync=FSYNC,
                    store_compact_records=COMPACT_RECORDS))
                host, port = primary.server.address
                self._start(ServeConfig(
                    **base, data_dir=f"{workdir}/follower", fsync=FSYNC,
                    store_compact_records=COMPACT_RECORDS,
                    replicate_from=f"{host}:{port}",
                    replica_id="bench-follower"))
            else:
                self._start(ServeConfig(**base))
            self.addresses = [t.server.address for t in self.threads]
            self.warmup_problems = self._connect(script)
        except BaseException:
            self.stop()
            raise

    def _start(self, config: ServeConfig) -> _ServerThread:
        thread = _ServerThread(config)
        self.threads.append(thread)
        return thread

    @property
    def servers(self) -> list[ReasoningServer]:
        return [thread.server for thread in self.threads]

    def cpu_ns(self) -> int:
        return task_cpu_ns(os.getpid(), [t.tid for t in self.threads])

    def stop(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        for thread in reversed(self.threads):
            thread.stop()
