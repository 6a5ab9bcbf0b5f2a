"""The serve-mix workload: ``repro-serve`` under a closed loop of two clients.

The server runs as a subprocess in its own process group, started by
:mod:`benchlib.serve_launcher` and stopped with SIGINT; anything still in
that group afterwards is a failure and is killed.  The server and its
pool worker also die with the benchmark process should it be killed
before it can stop them.  Its output goes to a
log file, not a pipe, so a process that outlives the server cannot hold
the benchmark's pipe open.

Traffic (:class:`~benchlib.inputs.ServeTraffic`) is a closed loop: two
keep-alive connections each send their next request when the previous
reply arrives, as scripts that wait for each answer do.  One pass is one
block of 400 requests.
"""

from __future__ import annotations

import asyncio
import http.client
import os
import re
import signal
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.graph import from_edges
from repro.reorder import make_technique
from repro.serve.client import ServeClient
from repro.serve.pipeline import mapping_summary, upload_graph_key

from benchlib.env import ROOT, child_env
from benchlib.inputs import SERVE_DATASETS, TENANT, Request, ServeTraffic, analog_payload
from benchlib.passes import Pass
from benchlib.procs import group_members, kill_group, tree_cpu_seconds
from benchlib.stats import median, tail

__all__ = ["ServeMix", "ServerProcess"]

SCALE = 0.2
POOL_WORKERS = 1
CONNECTIONS = 2
#: Cold jobs re-sent when checking results, and in the seed-0 digest.
DIGEST_COLD_JOBS = 20
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


class ServerProcess:
    """One ``repro-serve`` subprocess in its own process group."""

    _count = 0

    def __init__(self, workdir: Path, store_dir: Path, trace_dir: Path | None = None) -> None:
        ServerProcess._count += 1
        self.log_path = workdir / f"server-{ServerProcess._count}.log"
        cmd = [sys.executable, "-m", "benchlib.serve_launcher", "--parent", str(os.getpid())]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        cmd += [
            "--", "--host", "127.0.0.1", "--port", "0",
            "--workers", str(POOL_WORKERS), "--scale", str(SCALE),
            "--num-roots", "1", "--store-dir", str(store_dir),
        ]
        self.started = time.monotonic()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd,
                cwd=ROOT,
                env=child_env(),
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        self.port: int | None = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _log_tail(self) -> str:
        return self.log_path.read_text(errors="replace")[-2000:]

    def wait_ready(self) -> tuple[float, float]:
        """Wall seconds from launch until ``/healthz`` answers 200, and the
        CPU seconds the server and its pool worker took by then."""
        deadline = self.started + READY_TIMEOUT_S
        while self.port is None:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited during start-up:\n{self._log_tail()}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"server not listening after {READY_TIMEOUT_S}s")
            found = re.search(r"listening on [\d.]+:(\d+)", self.log_path.read_text(errors="replace"))
            if found:
                self.port = int(found.group(1))
            else:
                time.sleep(0.005)
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    # Start-up ends threads of its own; count their CPU too.
                    cpu = tree_cpu_seconds(self.pid, ended_threads=True)
                    return time.monotonic() - self.started, cpu
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)
            finally:
                conn.close()

    def stop(self) -> list[str]:
        """SIGINT, wait, then fail on (and kill) anything left in the group."""
        problems = []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                problems.append(f"server still running {STOP_TIMEOUT_S}s after SIGINT")
        left = group_members(self.pid)
        if left:
            problems.append(f"processes {left} left in the server's group after it stopped")
            kill_group(self.pid)
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.returncode != 0 and not problems:
            problems.append(
                f"server exited with {self.proc.returncode}:\n{self._log_tail()}"
            )
        return problems


@dataclass
class Reply:
    request: Request
    status: int | None
    latency_ms: float
    source: str | None = None
    queue_ms: float = 0.0
    compute_ms: float = 0.0
    result: dict | None = None


class ServeMix:
    """Seeded uploads, pre-warmed artifacts, then blocks of mixed traffic."""

    name = "serve-mix"
    #: Memory is the peak over the first 16 blocks (80 cold jobs), a fixed
    #: amount of work: the pool worker keeps a memoizing pipeline per config
    #: override and grows with every cold job, so a peak over the whole
    #: window would grow with how many blocks fit in it.  A run measures at
    #: least these 16 blocks even when they take longer than the window.
    memory_passes = 16

    def __init__(self, seed: int, workdir: Path, sampler) -> None:
        self.seed = seed
        self.workdir = workdir
        self.traffic = ServeTraffic(seed)
        self.store_dir = workdir / "store"
        self.loop = asyncio.new_event_loop()
        self.server: ServerProcess | None = None
        self.clients: list[ServeClient] = []
        self.keys: dict[str, str] = {}
        self.warm: dict[Request, dict] = {}
        self.cold: dict[int, dict] = {}
        self.replies: list[Reply] = []
        self.next_block = 0
        self.errors: list[str] = []
        #: The traced server's pid (the process that is not a pool worker).
        self.main_pid = 0

    # -- server lifecycle ----------------------------------------------------------
    def setup_once(self) -> tuple[float, float]:
        server = ServerProcess(self.workdir, self.workdir / "setup-store")
        try:
            return server.wait_ready()
        finally:
            self.errors += server.stop()

    def _start(self, trace_dir: Path | None = None) -> None:
        self.server = ServerProcess(self.workdir, self.store_dir, trace_dir)
        self.server.wait_ready()
        self.clients = [
            self.loop.run_until_complete(
                ServeClient("127.0.0.1", self.server.port).connect()
            )
            for _ in range(CONNECTIONS)
        ]

    def _stop(self) -> list[str]:
        for client in self.clients:
            self.loop.run_until_complete(client.close())
        self.clients = []
        server, self.server = self.server, None
        return server.stop() if server is not None else []

    def exclude_pids(self) -> set[int]:
        """The client is this process; the program is the server's tree."""
        return {os.getpid()}

    def start_tracing(self, trace_dir: Path) -> None:
        self.errors += self._stop()
        self._start(trace_dir)
        self.main_pid = self.server.pid

    def finish_tracing(self) -> list[str]:
        """Stop the traced server, which writes its spans as it exits."""
        return self._stop()

    def close(self) -> list[str]:
        problems = self._stop()
        self.loop.close()
        return problems

    # -- traffic ----------------------------------------------------------------
    async def _send(self, requests: list[Request]) -> list[Reply]:
        queue = deque(requests)
        replies: list[Reply] = []

        async def connection(client: ServeClient) -> None:
            while queue:
                request = queue.popleft()
                body = request.body(self.keys[request.graph])
                start = time.perf_counter()
                try:
                    status, payload = await client.post(request.path, body)
                except (OSError, ValueError, asyncio.IncompleteReadError) as exc:
                    status, payload = None, {"error": repr(exc)}
                reply = Reply(request, status, 1000 * (time.perf_counter() - start))
                meta = payload.get("meta") or {}
                reply.source = meta.get("source")
                reply.queue_ms = meta.get("queue_ms", 0.0)
                reply.compute_ms = meta.get("compute_ms", 0.0)
                reply.result = payload.get("result", payload)
                replies.append(reply)

        await asyncio.gather(*(connection(c) for c in self.clients))
        return replies

    def send(self, requests: list[Request]) -> list[Reply]:
        return self.loop.run_until_complete(self._send(requests))

    def prepare(self) -> None:
        self._start()
        for name in SERVE_DATASETS:
            payload = analog_payload(name, self.seed, SCALE)
            body = {
                "tenant": TENANT,
                "num_vertices": payload["num_vertices"],
                "edges": payload["edges"].tolist(),
                "weights": payload["weights"].tolist(),
            }
            status, reply = self.loop.run_until_complete(
                self.clients[0].post("/v1/graphs", body)
            )
            if status != 200 or reply.get("graph_key") != upload_graph_key(payload):
                raise RuntimeError(f"upload of {name} failed: {status} {reply}")
            self.keys[name] = reply["graph_key"]
        for reply in self.send(self.traffic.prewarm):
            if reply.status != 200:
                raise RuntimeError(f"pre-warm {reply.request} failed: {reply.result}")
            self.warm[reply.request] = reply.result

    def run_pass(self) -> Pass:
        block = self.traffic.block(self.next_block)
        self.next_block += 1
        cpu0 = tree_cpu_seconds(self.server.pid)
        start = time.monotonic()
        replies = self.send(block)
        end = time.monotonic()
        cpu = tree_cpu_seconds(self.server.pid) - cpu0
        failed = 0
        for reply in replies:
            if reply.status != 200:
                failed += 1
                self.errors.append(f"{reply.request} -> {reply.status}: {reply.result}")
            elif reply.request.cold is None:
                if reply.result != self.warm[reply.request]:
                    self.errors.append(f"warm reply differs from pre-warm: {reply.request}")
            elif self.cold.setdefault(reply.request.cold, reply.result) != reply.result:
                self.errors.append(f"duplicate cold replies differ: {reply.request}")
        self.replies.extend(r for r in replies if r.status == 200)
        return Pass(
            start,
            end,
            cpu,
            ops=len(block),
            failed=failed,
            latencies_ms=[r.latency_ms for r in replies],
        )

    def manifest_gap(self, runs_dir: Path) -> float:
        return 0.0

    def extras(self, passes: list[Pass]) -> dict[str, float]:
        """Client-side serve metrics over the replies of ``passes``."""
        replies = self.replies[-sum(p.ops - p.failed for p in passes):]
        by_source: dict[str, list[Reply]] = {}
        for reply in replies:
            by_source.setdefault(reply.source, []).append(reply)
        cold = by_source.get("cold", [])
        pairs = {r.request.cold for r in replies if r.request.cold is not None}
        latencies = [r.latency_ms for r in replies]
        compute_ms = sum(r.compute_ms for r in cold)
        gorder_ms = sum(r.compute_ms for r in cold if r.request.technique == "Gorder")
        return {
            "serve.queue.p90_ms": tail([r.queue_ms for r in cold], 0.9),
            "serve.compute.p90_ms": tail([r.compute_ms for r in cold], 0.9),
            "serve.compute.gorder_share": gorder_ms / compute_ms if compute_ms else 0.0,
            "serve.latency.warm.p50_ms": median(r.latency_ms for r in by_source["warm"]),
            "serve.latency.cold.p50_ms": median(r.latency_ms for r in cold),
            "serve.latency.p99_ms": tail(latencies, 0.99),
            "serve.rps": len(replies) / sum(p.wall_s for p in passes),
            "serve.coalesced_ratio": len(by_source.get("coalesced", [])) / len(pairs),
            "serve.warm_ratio": len(by_source["warm"]) / len(replies),
        }

    # -- correctness ---------------------------------------------------------------
    def verify(self) -> list[str]:
        """Cold jobs again (now warm) must repeat; two mappings recomputed locally."""
        errors = list(self.errors)
        jobs = sorted(set(self.cold) | set(range(DIGEST_COLD_JOBS)))
        for reply in self.send([self.traffic.cold_job(i) for i in jobs]):
            index = reply.request.cold
            if reply.status != 200:
                errors.append(f"re-sent cold job {index} failed: {reply.result}")
            elif index in self.cold and (
                reply.source != "warm" or reply.result != self.cold[index]
            ):
                errors.append(f"cold job {index} did not repeat warm: {reply.source}")
            else:
                self.cold[index] = reply.result
        rng = np.random.default_rng([self.seed, 4])
        for pick in rng.choice(len(self.traffic.reorder), 2, replace=False):
            request = self.traffic.reorder[pick]
            payload = analog_payload(request.graph, self.seed, SCALE)
            graph = from_edges(payload["num_vertices"], payload["edges"])
            mapping = make_technique(request.technique, "out").compute_mapping(graph)
            local = mapping_summary(mapping)["mapping_sha256"]
            if self.warm[request]["mapping_sha256"] != local:
                errors.append(f"served mapping of {request} differs from a local one")
        return errors

    def canonical(self) -> dict:
        def ident(request: Request) -> str:
            return repr((request.op, request.graph, request.technique, request.app,
                         request.policy, request.l3_bytes))

        return {
            "warm": sorted((ident(r), result) for r, result in self.warm.items()),
            "cold": [
                (ident(self.traffic.cold_job(i)), self.cold[i])
                for i in range(DIGEST_COLD_JOBS)
            ],
        }
