"""A ``repro serve`` child process and the asyncio load generator that drives it.

The child is started on an ephemeral port (read back from its log line),
waited for with ``wait_until_ready``, and stopped with the ``shutdown`` op;
it must then exit with code 0.  Every step has a timeout, so a crashed or
hung server fails the run instead of stalling it.

The load generator is one asyncio loop over a few connections, pipelining
one-query ``search`` requests on each.  In the open-loop phase requests go
out at their due times whatever the server does, and each is timed from
when it was due; in the closed-loop phase a fixed number of requests is
kept outstanding.
"""

from __future__ import annotations

import asyncio
import os
import re
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.server import ServerClient
from repro.server.client import wait_until_ready
from repro.server.protocol import PREFIX, decode_length, decode_payload, encode_frame

HOST = "127.0.0.1"
_LISTENING = re.compile(r"serving .* on [0-9.]+:(\d+) ")
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
#: A response slower than this fails the request (and so the run).
REQUEST_TIMEOUT = 60.0


class ServedChild:
    """One ``python -m repro serve`` process with its stderr captured."""

    def __init__(self, index: Path, args: list[str], src: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--index", str(index), "--host", HOST, "--port", "0", *args,
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        self.stderr: list[str] = []
        self.port: int | None = None
        self._port_known = threading.Event()
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()

    def _read_stderr(self) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            self.stderr.append(line.rstrip("\n"))
            match = _LISTENING.search(line)
            if match and self.port is None:
                self.port = int(match.group(1))
                self._port_known.set()
        self._port_known.set()  # EOF: the child died before listening

    def wait_ready(self) -> None:
        if not self._port_known.wait(START_TIMEOUT) or self.port is None:
            raise RuntimeError(
                f"repro serve did not report its port: {self.stderr_tail()}"
            )
        wait_until_ready(HOST, self.port, timeout=START_TIMEOUT)

    def stop(self) -> None:
        """Ask for a graceful shutdown; require exit code 0."""
        try:
            with ServerClient(HOST, self.port or 1, timeout=STOP_TIMEOUT) as client:
                client.shutdown()
            code = self.proc.wait(STOP_TIMEOUT)
        finally:
            self.kill()
        if code != 0:
            raise RuntimeError(
                f"repro serve exited with code {code}: {self.stderr_tail()}"
            )

    def kill(self) -> None:
        """Make sure the child is gone (idempotent)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(STOP_TIMEOUT)
        self._reader.join(STOP_TIMEOUT)

    def stderr_tail(self, lines: int = 20) -> str:
        return "\n".join(self.stderr[-lines:])


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@dataclass
class Outcome:
    """One request's fate."""

    query: int
    due: float
    sent: float
    done: float = 0.0
    status: str = "pending"  # ok | overloaded | error
    hits: list = field(default_factory=list)
    #: The server answered from its result cache.
    cached: bool = False
    traced: bool = False

    @property
    def latency(self) -> float:
        return self.done - self.due


class LoadGenerator:
    """Pipelined one-query requests over ``connections`` sockets."""

    def __init__(self, port: int, queries: list[str], threshold: int, connections: int) -> None:
        self.port = port
        self.queries = queries
        self.threshold = threshold
        self.connections = connections

    def _frame(self, query: int, trace: bool) -> bytes:
        payload = {
            "op": "search",
            "queries": [[f"q{query}", self.queries[query]]],
            "threshold": self.threshold,
        }
        if trace:
            payload["trace"] = True
        return encode_frame(payload)

    async def _connect(self):
        return await asyncio.wait_for(
            asyncio.open_connection(HOST, self.port), REQUEST_TIMEOUT
        )

    @staticmethod
    async def _read_one(reader: asyncio.StreamReader) -> dict:
        prefix = await asyncio.wait_for(reader.readexactly(PREFIX.size), REQUEST_TIMEOUT)
        body = await asyncio.wait_for(reader.readexactly(decode_length(prefix)), REQUEST_TIMEOUT)
        return decode_payload(body)

    @staticmethod
    def _record(outcome: Outcome, response: dict, now: float) -> None:
        outcome.done = now
        outcome.status = response.get("status", "error")
        if outcome.status == "ok":
            result = response["results"][0]
            outcome.hits = result["hits"]
            outcome.cached = result["cached"]

    async def open_loop(self, requests: list[int], due: list[float], trace: bool = False) -> tuple[list[Outcome], float]:
        """Send ``requests[i]`` at ``start + due[i]``; returns outcomes and wall.

        With ``trace`` every second request asks for trace spans, so traced
        and untraced latencies come from the same load.
        """
        loop = asyncio.get_running_loop()
        links = [await self._connect() for _ in range(self.connections)]
        # Per connection, the requests awaiting a response, in send order
        # (the server answers each connection in request order).
        pending: list[asyncio.Queue] = [asyncio.Queue() for _ in links]
        outcomes: list[Outcome] = []

        async def receive(conn: int) -> None:
            while (outcome := await pending[conn].get()) is not None:
                response = await self._read_one(links[conn][0])
                self._record(outcome, response, loop.time())

        receivers = [loop.create_task(receive(c)) for c in range(len(links))]
        start = loop.time() + 0.05
        try:
            for i, (query, offset) in enumerate(zip(requests, due)):
                delay = start + offset - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                traced = trace and i % 2 == 0
                conn = i % len(links)
                outcome = Outcome(query, start + offset, loop.time(), traced=traced)
                links[conn][1].write(self._frame(query, traced))
                pending[conn].put_nowait(outcome)
                outcomes.append(outcome)
            for queue in pending:
                queue.put_nowait(None)
            await asyncio.gather(*receivers)
        finally:
            await _close(links, receivers)
        return outcomes, loop.time() - start

    async def closed_loop(self, requests: list[int], inflight: int) -> tuple[list[Outcome], float]:
        """Keep ``inflight`` requests outstanding, spread over the connections."""
        loop = asyncio.get_running_loop()
        links = [await self._connect() for _ in range(self.connections)]
        todo = deque(requests)
        outcomes: list[Outcome] = []

        async def drive(conn: int, depth: int) -> None:
            reader, writer = links[conn]
            window: deque = deque()

            def send() -> None:
                query = todo.popleft()
                now = loop.time()
                outcome = Outcome(query, now, now)
                writer.write(self._frame(query, False))
                window.append(outcome)
                outcomes.append(outcome)

            while todo and len(window) < depth:
                send()
            while window:
                response = await self._read_one(reader)
                self._record(window.popleft(), response, loop.time())
                if todo:
                    send()

        per_conn = [inflight // len(links) + (c < inflight % len(links)) for c in range(len(links))]
        start = loop.time()
        tasks = [loop.create_task(drive(c, per_conn[c])) for c in range(len(links))]
        try:
            await asyncio.gather(*tasks)
        finally:
            await _close(links, tasks)
        return outcomes, loop.time() - start


async def _close(links, tasks) -> None:
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
    for _reader, writer in links:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


def sequential(port: int, queries: list[str], ids: list[int], threshold: int) -> tuple[list[float], list[list]]:
    """One request in flight: per-request latency and hits (blocking client)."""
    latencies, hits = [], []
    with ServerClient(HOST, port, timeout=REQUEST_TIMEOUT) as client:
        for query in ids:
            started = time.perf_counter()
            batch = client.search([(f"q{query}", queries[query])], threshold=threshold)
            latencies.append(time.perf_counter() - started)
            hits.append(batch.results[0].hits)
    return latencies, hits
