"""Micro-batching with admission control for the serving tier.

Concurrent in-flight ``search`` requests — from any number of connections —
land as individual :class:`PendingQuery` items on one bounded queue.  A
single dispatcher task assembles them into batches and hands each batch to
a blocking runner (one ``SearchService.search_batch`` call) on an executor
thread, so N concurrent clients cost one engine dispatch instead of N:

* a batch takes every compatible query already queued, up to
  ``max_batch``.  It waits up to ``linger`` for more only when the service
  could run more queries at once than the batch holds (``slots``: process
  workers; threads and a single worker are one slot) *and* the last two
  admissions came less than one linger apart.  Otherwise it dispatches at
  once: on a single-slot service a wait only idles the engine, since
  queries arriving while a batch runs queue up and ride in the next one;
* only queries with the same :class:`BatchKey` (threshold / e-value /
  top-k / search mode) can share a ``search_batch`` call; a query with a
  different key seeds the *next* batch instead of being reordered behind
  later arrivals;
* admission control is a hard cap on queued-plus-running queries:
  :meth:`MicroBatcher.submit` raises :class:`Overloaded` instead of
  queueing the excess, so clients get an instant ``overloaded`` response
  while the server keeps bounded memory and bounded worst-case latency.

The dispatcher executes at most one batch at a time (the engine's own
worker pool parallelises *inside* the batch), and it takes ``pause`` — an
``asyncio.Lock`` shared with the hot-reload task — around every batch, so
"drain in-flight work, then swap the index" is just "acquire the lock".
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from time import perf_counter
from typing import Awaitable, Callable

from repro.errors import ReproError
from repro.obs.metrics import SIZE_BUCKETS, Counter, Gauge, Histogram
from repro.obs.spans import SPAN_ADMISSION_WAIT, SPAN_BATCH_LINGER
from repro.service import Query, QueryResult

_ADMISSION_WAIT_SECONDS = Histogram(
    "repro_batcher_admission_wait_seconds",
    "Per-query wait between admission and batch dispatch",
)
_BATCH_SIZE = Histogram(
    "repro_batcher_batch_size",
    "Queries riding in each engine dispatch",
    buckets=SIZE_BUCKETS,
)
_QUEUE_DEPTH = Gauge(
    "repro_batcher_queue_depth",
    "Admitted queries not yet resolved (queued + running batch)",
)
_SUBMITTED_TOTAL = Counter(
    "repro_batcher_submitted_total", "Queries admitted to the batch queue"
)


class Overloaded(ReproError):
    """The request queue is full; the query was rejected, not enqueued."""


@dataclass(frozen=True)
class BatchKey:
    """Search parameters that must match for queries to share one batch.

    ``mode`` is part of the key so an ``exact`` query can never ride in a
    ``fast`` batch (and vice versa) — the tiers answer different questions
    and must never share a ``search_batch`` dispatch.
    """

    threshold: int | None
    e_value: float | None
    top_k: int | None
    mode: str = "exact"


@dataclass
class PendingQuery:
    """One admitted query waiting for (or riding in) a batch."""

    query: Query
    key: BatchKey
    future: asyncio.Future
    submitted: float  # perf_counter() at admission


#: Runner signature: executes one batch *off* the event loop and returns
#: per-query results in submission order.
BatchRunner = Callable[[list[Query], BatchKey], Awaitable[list[QueryResult]]]


class MicroBatcher:
    """Coalesce admitted queries into batches and run them serially."""

    def __init__(
        self,
        runner: BatchRunner,
        *,
        max_batch: int = 16,
        linger: float = 0.002,
        max_queue: int = 256,
        pause: asyncio.Lock | None = None,
        on_batch: Callable[[int, dict], None] | None = None,
        slots: int = 1,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if linger < 0:
            raise ValueError(f"linger must be >= 0, got {linger}")
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self._runner = runner
        self.max_batch = max_batch
        self.linger = linger
        self.max_queue = max_queue
        self.slots = slots
        self.pause = pause if pause is not None else asyncio.Lock()
        self._on_batch = on_batch
        self._queue: "asyncio.Queue[PendingQuery | None]" = asyncio.Queue()
        self._holdover: PendingQuery | None = None
        self._pending = 0  # admitted and not yet resolved
        self._last_admitted = float("-inf")
        self._arrival_gap = float("inf")  # between the last two admissions
        self._task: asyncio.Task | None = None
        self._stopping = False

    @property
    def depth(self) -> int:
        """Admitted queries not yet resolved (queued + in the running batch)."""
        return self._pending

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._dispatch_loop(), name="repro-serve-dispatch"
            )

    async def stop(self) -> None:
        """Refuse new work, let the in-flight batch finish, fail the rest."""
        self._stopping = True
        if self._task is None:
            return
        await self._queue.put(None)  # wake the dispatcher if it is idle
        await self._task
        self._task = None

    def submit(self, query: Query, key: BatchKey) -> asyncio.Future:
        """Admit one query, or raise :class:`Overloaded` / shutting-down."""
        if self._stopping:
            raise ReproError("server is shutting down")
        if self._pending >= self.max_queue:
            raise Overloaded(
                f"request queue is full ({self._pending} queries pending, "
                f"limit {self.max_queue})"
            )
        future = asyncio.get_running_loop().create_future()
        now = perf_counter()
        item = PendingQuery(query=query, key=key, future=future, submitted=now)
        self._arrival_gap = now - self._last_admitted
        self._last_admitted = now
        self._pending += 1
        _SUBMITTED_TOTAL.inc()
        _QUEUE_DEPTH.set(self._pending)
        self._queue.put_nowait(item)
        return future

    # ---------------------------------------------------------- dispatching
    async def _next_item(self, timeout: float | None) -> "PendingQuery | None":
        if timeout is None:
            return await self._queue.get()
        if timeout <= 0:
            try:
                return self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return None
        try:
            return await asyncio.wait_for(self._queue.get(), timeout)
        except asyncio.TimeoutError:
            return None

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = self._holdover
            self._holdover = None
            if first is None:
                first = await self._queue.get()
            if first is None:  # stop sentinel
                break
            batch = [first]
            deadline = loop.time() + self.linger
            while len(batch) < self.max_batch:
                lingering = (
                    len(batch) < self.slots and self._arrival_gap < self.linger
                )
                item = await self._next_item(
                    deadline - loop.time() if lingering else 0.0
                )
                if item is None:
                    break  # linger spent (or the stop sentinel arrived)
                if item.key != first.key:
                    self._holdover = item
                    break
                batch.append(item)
            await self._run_batch(batch)
            if self._stopping and self._holdover is None and self._queue.empty():
                break
        self._fail_remaining(ReproError("server is shutting down"))

    async def _run_batch(self, batch: list[PendingQuery]) -> None:
        run_start = perf_counter()
        # Queue-time accounting: how long the members waited for dispatch
        # (admission wait, summed) and how long the batch as a whole
        # lingered for company (its oldest member's wait).
        batch_spans = {
            SPAN_ADMISSION_WAIT: sum(
                max(0.0, run_start - item.submitted) for item in batch
            ),
            SPAN_BATCH_LINGER: max(
                0.0, run_start - min(item.submitted for item in batch)
            ),
        }
        for item in batch:
            _ADMISSION_WAIT_SECONDS.observe(max(0.0, run_start - item.submitted))
        _BATCH_SIZE.observe(len(batch))
        async with self.pause:  # a reload in progress finishes first
            queries = [item.query for item in batch]
            try:
                results = await self._runner(queries, batch[0].key)
            # repro-lint: allow[REP501] -- whatever the engine/service threw
            # must fail every waiting future; a narrowed catch would leave
            # clients of this batch hanging forever on an unforeseen error.
            except Exception as exc:
                for item in batch:
                    if not item.future.done():
                        item.future.set_exception(exc)
                self._pending -= len(batch)
                _QUEUE_DEPTH.set(self._pending)
                return
        if len(results) != len(batch):
            exc = ReproError(
                f"batch runner returned {len(results)} results for "
                f"{len(batch)} queries"
            )
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(exc)
        else:
            for item, result in zip(batch, results):
                if not item.future.done():  # client may have gone away
                    item.future.set_result(result)
        self._pending -= len(batch)
        _QUEUE_DEPTH.set(self._pending)
        if self._on_batch is not None:
            self._on_batch(len(batch), batch_spans)

    def _fail_remaining(self, exc: Exception) -> None:
        if self._holdover is not None:
            if not self._holdover.future.done():
                self._holdover.future.set_exception(exc)
            self._pending -= 1
            self._holdover = None
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is None:
                continue
            if not item.future.done():
                item.future.set_exception(exc)
            self._pending -= 1
        _QUEUE_DEPTH.set(self._pending)
