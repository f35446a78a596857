"""Batch search serving over a sequence database (the Sec. 2.2 workload).

The paper frames local alignment as a *database* operation: all sequences
are concatenated into one text ``T`` and queries run against ``T``
(:class:`repro.io.database.SequenceDatabase`).  :class:`SearchService` is
the serving layer on top of that framing, and it serves ``T`` as a list of
**shards** — record partitions of ``T``, each with its own indexes:

* an in-memory database or a saved :class:`~repro.store.IndexStore` is the
  single shard of a monolithic service (``SearchService(database)`` /
  ``SearchService(store=...)``, which cold-starts without any index
  construction); a ``REPROSHD`` manifest of a
  :class:`~repro.store.ShardedStore` is K shards;
* each shard owns lazily built backends per mode (ALAE by default) whose
  indexes are built once, or opened prebuilt, and shared by every query;
  every raw hit is attributed back to ``(sequence_id, local positions)``
  with :meth:`SequenceDatabase.locate_hit`, and hits spanning a
  concatenation boundary — artifacts of the concatenation, not alignments
  of any database sequence — are dropped and counted;
* the service resolves each query's threshold ``H`` once against the
  *global* text length, fans the query out as one task per shard, and
  merges the per-shard hits back in global ``(t_end, p_end)`` order — the
  accumulator order of ``T`` itself, so any K returns bit-identical hits.
  ``top_k`` adds a shared score floor: shard tasks that start after the
  k-th best score of a query is known search with ``H`` raised to it;
* batches of queries (strings, FASTA records, or a FASTA file) run across
  a worker pool: threads by default, or one warm :class:`WarmPool` of
  processes per service — forked workers that inherit the already-built
  engines copy-on-write, or, for services opened from a saved index,
  spawned workers that *reopen it by path* (mmap, no fork needed);
* per-query :class:`~repro.align.types.SearchStats` are aggregated into a
  batch-level and a per-shard accounting via :meth:`SearchStats.aggregate`.
"""

from __future__ import annotations

import contextlib
import heapq
import multiprocessing
import threading
import time
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from time import perf_counter
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.align.bwt_sw import BwtSw
from repro.align.types import Hit, SearchStats
from repro.alphabet import DNA, Alphabet
from repro.blast import Blast
from repro.core.alae import ALAE
from repro.engine import (
    MODE_ORDERINGS,
    ORDER_POSITION,
    ORDER_SCORE,
    AlaeBackend,
    BackendInfo,
    BlastBackend,
    BwtSwBackend,
    backend_from_store,
    backend_from_text,
    check_mode,
)
from repro.errors import ReproError
from repro.io.database import LocatedHit, SequenceDatabase
from repro.io.fasta import FastaRecord, parse_fasta_file
from repro.obs.metrics import Counter, Histogram
from repro.obs.spans import (
    SPAN_ENGINE,
    SPAN_LOCATE,
    SPAN_MERGE,
    add_span,
    shard_span,
)
from repro.scoring.evalue import resolve_threshold
from repro.scoring.scheme import DEFAULT_SCHEME, ScoringScheme
from repro.store import (
    IndexStore,
    ShardedStore,
    index_epoch,
    manifest_payload_crc,
    open_index,
)


class ServiceError(ReproError):
    """Invalid service configuration or batch input."""


# Per-query serving accounting by mode; the engine/locate histograms reuse
# the spans' perf_counter measurements, so metrics add no extra clock reads
# to the hot path.
_QUERIES_TOTAL = Counter(
    "repro_service_queries_total", "Queries answered by the service layer",
    ("mode",),
)
_ENGINE_SECONDS = Histogram(
    "repro_service_engine_seconds",
    "Engine (accumulator) time per query", ("mode",),
)
_LOCATE_SECONDS = Histogram(
    "repro_service_locate_seconds",
    "Hit location/recovery time per query", ("mode",),
)
# Fan-out accounting per merged query: each shard's work time (engine +
# locate — the numbers the merge already attributes to trace spans), the
# fold-in cost, and how many shards each query fanned out to.
_SHARD_SECONDS = Histogram(
    "repro_sharded_shard_seconds",
    "Per-shard work time (engine + locate) per merged query",
    ("shard",),
)
_MERGE_SECONDS = Histogram(
    "repro_sharded_merge_seconds", "Fan-in merge time per query"
)
_FANOUT_QUERIES = Histogram(
    "repro_sharded_fanout_shards",
    "Shards each merged query fanned out to",
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
)


def _cells_with_starts(
    text: str,
    query: str,
    scheme: ScoringScheme,
    wanted: "dict[int, list[tuple[object, int]]]",
) -> "dict[object, tuple[int, int]]":
    """Local-alignment ``(score, t_start)`` for chosen ``(t_end, p_end)`` cells.

    One clamped affine sweep — the same recurrences and prefix-max scan as
    :func:`smith_waterman_all_hits` (so scores agree with the oracle by
    construction) — additionally carrying, per cell, the 1-based text start
    of the positive-prefix alignment achieving that score.  ``wanted`` maps
    a query row ``p_end`` to ``(key, t_end)`` requests; the result maps each
    key to that cell's ``(score, t_start)`` (score 0: nothing ends there).

    Cost is one O(n * m) vectorised pass total, regardless of how many
    cells are requested — this is what keeps boundary-recheck batches with
    tens of thousands of shadowed cells serviceable.
    """
    n, m = len(text), len(query)
    out: dict[object, tuple[int, int]] = {}
    if n == 0 or m == 0:
        for requests in wanted.values():
            for key, _j in requests:
                out[key] = (0, 0)
        return out
    sa, sb, ss, sg = scheme.sa, scheme.sb, scheme.ss, scheme.sg
    go = sg + ss
    t_codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    idx1 = np.arange(1, n + 1, dtype=np.int64)
    karg_base = np.arange(n, dtype=np.int64)
    h_prev = np.zeros(n + 1, dtype=np.int64)
    s_prev = np.zeros(n + 1, dtype=np.int64)  # start per H cell (0 = none)
    f_prev = np.full(n + 1, _NEG, dtype=np.int64)
    sf_prev = np.zeros(n + 1, dtype=np.int64)
    last_row = max(wanted) if wanted else 0
    for i in range(1, min(m, last_row) + 1):
        delta = np.where(t_codes == ord(query[i - 1]), sa, sb).astype(np.int64)
        # Vertical gaps, carrying the start of the chosen predecessor.
        f_from_f = f_prev + ss
        f_from_h = h_prev + go
        f_row = np.maximum(f_from_f, f_from_h)
        sf_row = np.where(f_from_f >= f_from_h, sf_prev, s_prev)
        # Diagonal: a zero H cell restarts the alignment at this column.
        d_val = h_prev[:-1] + delta
        d_start = np.where(h_prev[:-1] > 0, s_prev[:-1], idx1)
        a_row = np.empty(n + 1, dtype=np.int64)
        a_row[0] = _NEG
        a_row[1:] = np.maximum(d_val, f_row[1:])
        sa_row = np.empty(n + 1, dtype=np.int64)
        sa_row[0] = 0
        sa_row[1:] = np.where(d_val >= f_row[1:], d_start, sf_row[1:])
        # Horizontal gaps via the prefix-max scan; the running argmax
        # (earliest on ties) says which a-cell each gap opened from.
        b = a_row[1:] - ss * idx1
        cum = np.maximum.accumulate(b)
        strict = np.empty(n, dtype=bool)
        strict[0] = True
        strict[1:] = b[1:] > cum[:-1]
        karg = np.maximum.accumulate(np.where(strict, karg_base, 0))
        e_row = np.full(n + 1, _NEG, dtype=np.int64)
        e_row[2:] = cum[:-1] + go - ss + ss * idx1[1:]
        se_row = np.zeros(n + 1, dtype=np.int64)
        se_row[2:] = sa_row[1:][karg[: n - 1]]
        h_row = np.maximum(np.maximum(a_row, e_row), 0)
        h_row[0] = 0
        s_row = np.where(a_row >= e_row, sa_row, se_row)
        s_row = np.where(h_row > 0, s_row, 0)
        if i in wanted:
            for key, j in wanted[i]:
                out[key] = (int(h_row[j]), int(s_row[j]))
        h_prev, f_prev, s_prev, sf_prev = h_row, f_row, s_row, sf_row
    return out


#: Engine registry shared with the CLI.
SERVICE_ENGINES = {"alae": ALAE, "bwtsw": BwtSw, "blast": Blast}


def _legacy_backend(engine) -> object:
    """Wrap an explicitly-chosen engine instance in a pinned backend.

    A service constructed with ``engine="bwtsw"`` / ``engine="blast"`` (or a
    custom engine class) predates the mode registry; its backend keeps the
    historical presentation — accumulator (position) order — so existing
    output stays byte-identical, and the service refuses non-``exact``
    per-call modes.
    """
    if isinstance(engine, ALAE):
        return AlaeBackend(engine)
    if isinstance(engine, BwtSw):
        return BwtSwBackend(engine)
    if isinstance(engine, Blast):
        backend = BlastBackend(engine)
        # Instance override: legacy blast services present hits in position
        # order like every other engine= choice always has.
        backend.info = BackendInfo(
            name="blast", mode="exact", exact=False, ordering=ORDER_POSITION
        )
        return backend

    class _CustomBackend:
        info = BackendInfo(
            name=type(engine).__name__.lower(),
            mode="exact",
            exact=False,
            ordering=ORDER_POSITION,
        )

        def __init__(self, wrapped) -> None:
            self.engine = wrapped

        def search(self, query, threshold=None, e_value=None):
            return self.engine.search(query, threshold, e_value)

        def describe(self) -> dict:
            return {"name": self.info.name, "mode": self.info.mode}

    return _CustomBackend(engine)

_NEG = np.int64(-(10**9))


@dataclass(frozen=True)
class Query:
    """One named query sequence of a batch."""

    id: str
    sequence: str


def normalize_queries(queries: Iterable) -> list[Query]:
    """Coerce a batch input into named :class:`Query` objects.

    Shared by every serving front (:class:`SearchService`, the server):
    accepts a bare sequence string, a :class:`Query`, a
    :class:`FastaRecord`, an ``(id, sequence)`` tuple, or any iterable of
    those.
    """
    if isinstance(queries, (str, Query, FastaRecord)):
        # A bare sequence is one query, not an iterable of characters.
        queries = [queries]
    normalized: list[Query] = []
    for i, item in enumerate(queries, start=1):
        if isinstance(item, Query):
            normalized.append(item)
        elif isinstance(item, FastaRecord):
            normalized.append(Query(item.identifier, item.sequence))
        elif isinstance(item, str):
            normalized.append(Query(f"q{i}", item.upper()))
        elif isinstance(item, tuple) and len(item) == 2:
            normalized.append(Query(str(item[0]), str(item[1]).upper()))
        else:
            raise ServiceError(
                f"query #{i} must be a str, (id, seq) tuple, Query or "
                f"FastaRecord, got {type(item).__name__}"
            )
    if not normalized:
        raise ServiceError("batch needs at least one query")
    return normalized


@dataclass
class QueryResult:
    """Attributed hits of one query against the whole database.

    ``raw_hits`` counts hits on the concatenated text before attribution;
    ``dropped_boundary`` of them straddled a concatenation boundary with no
    within-record alignment at the same cell still clearing the threshold
    (shadowed cells are rechecked and recovered), so
    ``len(hits) == raw_hits - dropped_boundary``.
    """

    query_id: str
    hits: list[LocatedHit]
    stats: SearchStats
    threshold: int
    raw_hits: int
    dropped_boundary: int

    def best(self) -> LocatedHit | None:
        """Highest-scoring attributed hit (ties: first in position order)."""
        return max(self.hits, key=lambda h: h.score, default=None)


@dataclass
class BatchReport:
    """All per-query results of one batch plus aggregate accounting.

    ``shard_stats[i]`` aggregates every query's engine statistics on shard
    ``i`` (a monolithic service has one shard); ``shard_work_seconds[i]``
    sums that shard's per-search engine time (work, not wall clock —
    shards run concurrently).
    """

    results: list[QueryResult]
    stats: SearchStats
    wall_seconds: float
    workers: int
    executor: str
    shard_stats: list[SearchStats] = field(default_factory=list)
    shard_work_seconds: list[float] = field(default_factory=list)

    @property
    def total_hits(self) -> int:
        return sum(len(r.hits) for r in self.results)

    @property
    def total_dropped(self) -> int:
        return sum(r.dropped_boundary for r in self.results)

    @property
    def queries_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.results) / self.wall_seconds

    @property
    def shard_queries_per_second(self) -> list[float]:
        """Per-shard throughput over *work* time, 0.0 for zero-width timings.

        A shard that answered its searches faster than the clock's
        resolution (tiny shard, trivial queries) reports 0.0 instead of
        raising ``ZeroDivisionError`` or claiming infinite throughput.
        """
        queries = len(self.results)
        return [
            queries / seconds if seconds > 0 else 0.0
            for seconds in self.shard_work_seconds
        ]


#: The sharded report is the one report (kept for existing callers).
ShardedBatchReport = BatchReport


def check_executor(executor: str, store_path: "Path | None") -> str:
    """Validate an executor choice, resolving platform fallbacks.

    ``processes`` prefers fork (workers inherit the warmed engine
    copy-on-write); on platforms without fork it becomes ``spawn`` when a
    saved store (or shard manifest) is at ``store_path`` for workers to
    reopen, and otherwise degrades to ``threads`` with a warning instead of
    raising.
    """
    if executor not in ("threads", "processes", "spawn"):
        raise ServiceError(
            f"executor must be 'threads', 'processes' or 'spawn', "
            f"got {executor!r}"
        )
    methods = multiprocessing.get_all_start_methods()
    if executor == "spawn":
        if store_path is None:
            raise ServiceError(
                "the 'spawn' executor needs a service opened from a "
                "saved index store (workers reopen it by path); build "
                "one with IndexStore.build(...).save() or "
                "`repro index build`"
            )
        if "spawn" not in methods:
            raise ServiceError(
                "the 'spawn' start method is unavailable on this platform"
            )
        return executor
    if executor == "processes" and "fork" not in methods:
        if store_path is not None and "spawn" in methods:
            return "spawn"
        warnings.warn(
            "the 'processes' executor needs the fork start method, or spawn "
            "and a saved index store, and this service has neither; "
            "degrading to 'threads'",
            RuntimeWarning,
            stacklevel=3,
        )
        return "threads"
    return executor


# A pool worker answers for exactly one service, set by the pool initializer.
# Fork workers call a weak reference to the parent's warmed service: it
# resolves to the copy inherited with the parent's memory, and being weak it
# never keeps the service alive in the parent.  Spawn workers carry no parent
# memory and open their own service through a picklable opener.
_WORKER_SERVICE = None


def _init_worker(opener, args: tuple) -> None:
    global _WORKER_SERVICE
    _WORKER_SERVICE = opener(*args)


def _call_service(method, args: tuple):
    return method(_WORKER_SERVICE, *args)


class WarmPool:
    """One service's worker processes, started lazily and kept across batches.

    ``fork`` workers inherit the warmed service once per pool instead of once
    per batch; ``spawn`` workers reopen it with ``opener(*opener_args)``.  A
    batch asking for another start method or worker count rebuilds the pool,
    and so does the next batch after a worker died.  :meth:`close` reaps the
    workers; a service dropped without it frees the executor, whose manager
    thread then retires them.
    """

    def __init__(self, owner, opener=None, opener_args: tuple = ()) -> None:
        self._owner = weakref.ref(owner)
        self._opener = opener
        self._opener_args = opener_args
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self._shape: tuple[str, int] | None = None

    def _executor_for(
        self, start_method: str, workers: int
    ) -> ProcessPoolExecutor:
        """The pool for this shape, (re)built on demand; caller holds the lock."""
        if self._executor is not None and self._shape != (start_method, workers):
            self._executor.shutdown(wait=False)  # queued batches still finish
            self._executor = None
        if self._executor is None:
            initargs = (
                (self._owner, ())
                if start_method == "fork"
                else (self._opener, self._opener_args)
            )
            self._executor = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context(start_method),
                initializer=_init_worker,
                initargs=initargs,
            )
            self._shape = (start_method, workers)
        return self._executor

    def _drop(self, executor: ProcessPoolExecutor) -> None:
        """Forget a broken pool; caller holds the lock."""
        if self._executor is executor:
            self._executor = None
        executor.shutdown(wait=False, cancel_futures=True)

    def run(
        self, start_method: str, workers: int, method, calls: list
    ) -> Iterator:
        """Yield ``method(service, *args)`` for each ``args``, in order."""
        with self._lock:
            for _attempt in range(2):
                executor = self._executor_for(start_method, workers)
                try:
                    futures = [
                        executor.submit(_call_service, method, args)
                        for args in calls
                    ]
                    break
                except BrokenProcessPool:  # a worker died while it sat idle
                    self._drop(executor)
            else:
                raise ServiceError("the worker pool broke while starting up")
        try:
            for future in futures:
                try:
                    yield future.result()
                except BrokenProcessPool as exc:
                    with self._lock:
                        self._drop(executor)
                    raise ServiceError(
                        f"a worker process died mid-batch ({exc}); the next "
                        f"batch starts a fresh pool"
                    ) from None
        finally:
            for future in futures:  # early close: drop calls not yet started
                future.cancel()

    def close(self) -> None:
        """Shut the workers down and wait for them (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


class _ScoreFloor:
    """Thread-shared k-th-best score tracker, one floor per query.

    ``offer`` feeds scores from a completed shard; ``floor`` returns the
    current k-th best score for a query once at least ``k`` hits exist
    (and ``None`` before).  Raising a shard's threshold to the floor is
    always safe: the k-th best of a subset never exceeds the k-th best of
    the full merge, so no hit that can reach the top k is suppressed.
    """

    def __init__(self, k: int) -> None:
        self._k = k
        self._lock = threading.Lock()
        self._heaps: dict[int, list[int]] = {}

    def floor(self, query_index: int) -> int | None:
        with self._lock:
            heap = self._heaps.get(query_index)
            if heap is None or len(heap) < self._k:
                return None
            return heap[0]

    def offer(self, query_index: int, scores: Iterable[int]) -> None:
        with self._lock:
            heap = self._heaps.setdefault(query_index, [])
            for score in scores:
                if len(heap) < self._k:
                    heapq.heappush(heap, score)
                elif score > heap[0]:
                    heapq.heapreplace(heap, score)


class _Shard:
    """One record partition of the database text and the backends over it.

    ``records[i]`` is the original (global) index of the shard's record
    ``i``.  :meth:`search` returns hits attributed to the shard's own
    records, in accumulator ``(t_end, p_end)`` order.
    """

    def __init__(
        self,
        database: SequenceDatabase,
        store: IndexStore | None,
        records: list[int],
        scheme: ScoringScheme,
        alphabet: Alphabet,
        engine_kwargs: dict,
    ) -> None:
        self.database = database
        self.store = store
        self.records = records
        self._scheme = scheme
        self._alphabet = alphabet
        self._engine_kwargs = engine_kwargs
        # Backends are built lazily per mode; the lock keeps first-build
        # single-flight across threads.
        self._backends: dict[str, object] = {}
        self._backend_lock = threading.RLock()

    def backend(self, mode: str) -> object:
        """The :class:`~repro.engine.SearchBackend` serving ``mode`` (cached)."""
        with self._backend_lock:
            built = self._backends.get(mode)
            if built is None:
                built = self._make_backend(mode)
                self._backends[mode] = built
            return built

    def _make_backend(self, mode: str) -> object:
        """Build a backend for ``mode`` over this shard's text or store."""
        if self.store is not None:
            return backend_from_store(
                mode, self.store, engine_kwargs=self._engine_kwargs
            )
        # Reuse an already-built exact engine (every backend exposes one
        # when it carries ALAE) so modes share one set of indexes.
        exact_engine = None
        for built in self._backends.values():
            candidate = getattr(built, "engine", None)
            if isinstance(candidate, ALAE):
                exact_engine = candidate
                break
        return backend_from_text(
            mode,
            self.database.text,
            alphabet=self._alphabet,
            scheme=self._scheme,
            engine_kwargs=self._engine_kwargs,
            exact_engine=exact_engine,
        )

    def search(self, query: Query, h_thr: int, mode: str) -> QueryResult:
        backend = self.backend(mode)
        t0 = perf_counter()
        result = backend.search(query.sequence, threshold=h_thr)
        engine_seconds = perf_counter() - t0
        add_span(result.stats.spans, SPAN_ENGINE, engine_seconds)
        raw = result.hits.hits()
        t0 = perf_counter()
        located: list[tuple[int, LocatedHit]] = []
        shadowed: dict[int, list[tuple[int, Hit]]] = {}
        for pos, hit in enumerate(raw):
            placed = self.database.locate_hit(hit)
            if placed is not None:
                located.append((pos, placed))
            else:
                idx = self.database.sequence_at(hit.t_end)
                shadowed.setdefault(idx, []).append((pos, hit))
        for idx, items in shadowed.items():
            located.extend(
                self._recover_shadowed(
                    idx, items, query.sequence, result.threshold
                )
            )
        located.sort(key=lambda item: item[0])
        locate_seconds = perf_counter() - t0
        add_span(result.stats.spans, SPAN_LOCATE, locate_seconds)
        served_mode = backend.info.mode
        _QUERIES_TOTAL.labels(mode=served_mode).inc()
        _ENGINE_SECONDS.labels(mode=served_mode).observe(engine_seconds)
        _LOCATE_SECONDS.labels(mode=served_mode).observe(locate_seconds)
        return QueryResult(
            query_id=query.id,
            hits=[placed for _pos, placed in located],
            stats=result.stats,
            threshold=result.threshold,
            raw_hits=len(raw),
            dropped_boundary=len(raw) - len(located),
        )

    def _recover_shadowed(
        self,
        idx: int,
        items: list[tuple[int, Hit]],
        query_seq: str,
        h_thr: int,
    ) -> list[tuple[int, LocatedHit]]:
        """Re-check boundary-dropped cells against their end record alone.

        The concatenated-text accumulator keeps only the best alignment per
        ``(t_end, p_end)`` cell, so a straddling alignment can shadow a
        legitimate within-record one at the same cell.  Recompute the best
        alignment ending exactly at each dropped cell, restricted to the
        record containing ``t_end``, and keep those still clearing the
        threshold.  All cells of one record are answered by a single
        vectorised sweep over a window covering them (Theorem 1: any
        alignment clearing ``h_thr`` spans at most ``Lmax`` text chars, so
        backing the window off by ``Lmax`` loses nothing).
        """
        record = self.database.records[idx]
        offset = self.database.offset_of(idx)
        lmax = self._scheme.max_alignment_length(len(query_seq), h_thr)
        local_ends = [hit.t_end - offset for _pos, hit in items]
        win_lo = max(0, min(local_ends) - lmax)  # 0-based window start
        win_hi = max(local_ends)
        wanted: dict[int, list[tuple[object, int]]] = {}
        for (pos, hit), local_end in zip(items, local_ends):
            wanted.setdefault(hit.p_end, []).append((pos, local_end - win_lo))
        cells = _cells_with_starts(
            record.sequence[win_lo:win_hi], query_seq, self._scheme, wanted
        )
        recovered: list[tuple[int, LocatedHit]] = []
        for (pos, hit), local_end in zip(items, local_ends):
            score, start = cells[pos]
            if score < h_thr:
                continue
            recovered.append(
                (
                    pos,
                    LocatedHit(
                        sequence_id=record.identifier,
                        t_start=win_lo + start,
                        t_end=local_end,
                        p_end=hit.p_end,
                        score=score,
                        record_index=idx,
                    ),
                )
            )
        return recovered


def _open_service(
    path: str, engine_kwargs: dict, expected_epoch: int
) -> "SearchService":
    """Spawn-worker opener: reopen the parent's saved index by path.

    Every store comes from the process-wide store cache (mmap), so one
    worker serves every shard without duplicating mmaps.  The parent's
    epoch rides along so an index rebuilt in place between the parent's
    open and the worker's is a hard error, never mixed results.
    """
    service = SearchService(store=path, engine_kwargs=engine_kwargs)
    if service.epoch != expected_epoch:
        raise ServiceError(
            f"index {path} changed on disk since the parent opened it "
            f"(epoch {service.epoch:#010x} != expected "
            f"{expected_epoch:#010x}); rebuild the service from the new "
            f"index"
        )
    return service


class SearchService:
    """A shared-engine, multi-query search service over a sequence database.

    Parameters
    ----------
    database:
        A :class:`SequenceDatabase`, a list of :class:`FastaRecord`, or a
        FASTA path.  Mutually exclusive with ``store``.
    store:
        A prebuilt :class:`~repro.store.IndexStore` or
        :class:`~repro.store.ShardedStore`, or the path of either (built
        with ``repro index build [--shards K]``; the first bytes decide):
        the database, alphabet, scheme and all indexes are taken from the
        store instead of being built here.  Explicitly passed ``alphabet``
        / ``scheme`` must then match the store's fingerprint.
    engine:
        Engine name (``alae`` / ``bwtsw`` / ``blast``) or an engine *class*
        with the ``(text, alphabet=..., scheme=...)`` constructor protocol.
        Store-backed services serve the ``alae`` engine (the store holds its
        indexes).  Choosing a non-default engine pins the service: per-call
        ``mode`` overrides are rejected.
    mode:
        Default search mode: ``exact`` (ALAE, today's behaviour —
        byte-identical output), ``fast`` (seed-and-extend candidates,
        score-ranked), or ``verified`` (fast candidates rescored by
        windowed exact searches; hits are a bit-equal subset of ``exact``).
        Every serving call accepts a per-call ``mode=`` override; backends
        are built lazily per mode and shard and share the exact engine's
        indexes.
    workers, executor:
        Default worker-pool shape for :meth:`search_batch`.  One *task* is
        one ``(query, shard)`` pair; a batch of one task runs inline.
        ``threads`` shares the engines directly (simple, but pure-Python
        searches serialise on the GIL), ``processes`` forks the warmed
        engines into ``workers`` children once per service, on the first
        multi-task batch, and reuses them for every later batch (falling
        back to ``spawn`` or ``threads`` where fork is unavailable), and
        ``spawn`` starts workers that reopen the index by path — available
        only for services opened from a *saved* index.  :meth:`close` (or
        a ``with`` block) reaps the workers.
    engine_kwargs:
        Extra keyword arguments forwarded to the engine constructor (for
        store-backed services: the engine's ``use_*`` toggles plus the fast
        tier's seeding knobs, routed per backend).
    """

    def __init__(
        self,
        database: SequenceDatabase | Sequence[FastaRecord] | str | Path | None = None,
        *,
        store: "IndexStore | ShardedStore | str | Path | None" = None,
        engine: str | type = "alae",
        mode: str = "exact",
        alphabet: Alphabet | None = None,
        scheme: ScoringScheme | None = None,
        workers: int = 1,
        executor: str = "threads",
        engine_kwargs: dict | None = None,
    ) -> None:
        self._engine_kwargs = dict(engine_kwargs or {})
        self.mode = check_mode(mode)
        if isinstance(engine, str):
            if engine not in SERVICE_ENGINES:
                raise ServiceError(
                    f"unknown engine {engine!r}; expected one of "
                    f"{sorted(SERVICE_ENGINES)}"
                )
            engine = SERVICE_ENGINES[engine]
        # An explicitly-chosen non-default engine pins the service to the
        # historical single-engine behaviour (no mode switching).
        self._pinned_engine = engine if engine is not ALAE else None
        if self._pinned_engine is not None and self.mode != "exact":
            raise ServiceError(
                f"mode {self.mode!r} needs the default ALAE service; "
                f"engine={engine.__name__.lower()!r} pins mode 'exact'"
            )
        if store is not None:
            if database is not None:
                raise ServiceError(
                    "pass either a database or a store, not both"
                )
            if engine is not ALAE:
                raise ServiceError(
                    "a prebuilt store holds ALAE indexes; other engines "
                    "need a database to build from"
                )
            if isinstance(store, (str, Path)):
                store = open_index(store)
            if alphabet is not None:
                store.check_alphabet(alphabet)
            if scheme is not None:
                store.check_scheme(scheme)
            if isinstance(store, ShardedStore):
                parts = [
                    (shard.database(), shard, store.shard_records(i))
                    for i, shard in enumerate(store.stores())
                ]
                self._global_offsets = store.global_offsets
                self.epoch = manifest_payload_crc(store.payload)
            else:
                database = store.database()
                parts = [(database, store, list(range(len(database))))]
                self._global_offsets = database.boundaries()
                self.epoch = store.header_crc
            self.alphabet = parts[0][1].alphabet
            self.scheme = parts[0][1].scheme
        else:
            if database is None:
                raise ServiceError("pass a database or a store")
            database = SequenceDatabase.coerce(database)
            parts = [(database, None, list(range(len(database))))]
            self._global_offsets = database.boundaries()
            self.epoch = None
            self.alphabet = DNA if alphabet is None else alphabet
            self.scheme = DEFAULT_SCHEME if scheme is None else scheme
        self.store = store
        self._store_path = None if store is None else store.path
        self.workers = self._check_workers(workers)
        self.executor = check_executor(executor, self._store_path)
        self._shards = [
            _Shard(
                shard_db, shard_store, records, self.scheme, self.alphabet,
                self._engine_kwargs,
            )
            for shard_db, shard_store, records in parts
        ]
        self.total_length = sum(
            shard.database.total_length for shard in self._shards
        )
        for shard in self._shards:
            if self._pinned_engine is not None:
                shard._backends["exact"] = _legacy_backend(
                    engine(
                        shard.database.text,
                        alphabet=self.alphabet,
                        scheme=self.scheme,
                        **self._engine_kwargs,
                    )
                )
            shard_engine = shard.backend(self.mode).engine
            # Build lazily-constructed engine caches up front so concurrent
            # threads never race on their first population.
            if isinstance(shard_engine, ALAE) and shard_engine.use_domination:
                shard_engine.domination_index()
        #: The default mode's engine (the first shard's, for a manifest).
        self.engine = self._shards[0].backend(self.mode).engine
        self._pool = WarmPool(
            self,
            _open_service,
            (str(self._store_path), self._engine_kwargs, self.epoch)
            if self._store_path is not None
            else (),
        )

    @classmethod
    def from_store(
        cls, path: "IndexStore | ShardedStore | str | Path", **kwargs
    ) -> "SearchService":
        """Open a service over a prebuilt index (no index construction)."""
        return cls(store=path, **kwargs)

    def close(self) -> None:
        """Reap the worker processes; a later process batch starts afresh."""
        self._pool.close()

    def __enter__(self) -> "SearchService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- plumbing
    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def record_count(self) -> int:
        return len(self._global_offsets)

    @cached_property
    def database(self) -> SequenceDatabase:
        """The whole database in original record order.

        A monolithic service's own; a manifest's is re-assembled from its
        shard stores on first use (serving never needs it).
        """
        if isinstance(self.store, ShardedStore):
            return self.store.database()
        return self._shards[0].database

    @staticmethod
    def _check_workers(workers: int) -> int:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        return workers

    def _resolve_mode(self, mode: str | None) -> str:
        """Per-call mode, defaulting to the service's own; pin-checked."""
        mode = check_mode(self.mode if mode is None else mode)
        if mode != "exact" and self._pinned_engine is not None:
            raise ServiceError(
                f"mode {mode!r} needs the default ALAE service; this one "
                f"was constructed with an explicit engine and serves "
                f"'exact' only"
            )
        return mode

    def _validate(
        self,
        queries: Iterable,
        threshold: int | None,
        e_value: float | None,
        top_k: int | None,
        workers: int | None,
        executor: str | None,
        mode: str | None,
    ) -> tuple[list[Query], list[int], int, str, str]:
        """Check a call's inputs and resolve every query's global ``H``.

        E-values resolve against the *full* text length, so every shard
        searches with the ``H`` one concatenated text would use (a shard
        resolving ``E`` against its own, shorter text would over-report).
        """
        workers = self._check_workers(
            self.workers if workers is None else workers
        )
        executor = check_executor(
            self.executor if executor is None else executor, self._store_path
        )
        if top_k is not None and top_k < 1:
            raise ServiceError(f"top_k must be >= 1, got {top_k}")
        mode = self._resolve_mode(mode)
        normalized = normalize_queries(queries)
        thresholds = [
            resolve_threshold(
                threshold,
                e_value,
                self.scheme,
                self.alphabet.size,
                len(query.sequence),
                self.total_length,
            )
            for query in normalized
        ]
        return normalized, thresholds, workers, executor, mode

    # --------------------------------------------------------------- merge
    def _merge(
        self,
        query: Query,
        h_thr: int,
        per_shard: list[QueryResult],
        top_k: int | None,
        mode: str,
    ) -> QueryResult:
        """Fold per-shard results into one globally ordered result.

        Hits are record-local and records never split across shards, so
        each maps back to its original record index.  A shard's hits come
        in its accumulator order and its records ascend in original order,
        so every shard's list is already sorted by global ``(t_end,
        p_end)``; merging the lists restores the concatenated text's
        accumulator order (one shard passes straight through).  Modes
        whose backend declares score ordering (``fast``/``verified``) rank
        by score descending with global position as the tie-break; with
        ``top_k`` the ranked order is additionally truncated.
        """
        merge_start = perf_counter()
        _FANOUT_QUERIES.observe(len(per_shard))
        offsets = self._global_offsets

        def position(hit: LocatedHit) -> tuple[int, int]:
            return offsets[hit.record_index] + hit.t_end, hit.p_end

        runs = [
            [
                hit
                if shard.records[hit.record_index] == hit.record_index
                else replace(hit, record_index=shard.records[hit.record_index])
                for hit in result.hits
            ]
            for shard, result in zip(self._shards, per_shard)
        ]
        hits = list(heapq.merge(*runs, key=position))
        if top_k is not None or MODE_ORDERINGS[mode] == ORDER_SCORE:
            hits.sort(key=lambda hit: (-hit.score, *position(hit)))
            if top_k is not None:
                hits = hits[:top_k]
        stats = SearchStats.aggregate(r.stats for r in per_shard)
        # Attribute each shard's own wall time before folding in the merge
        # cost, so a trace shows fan-out skew (hottest shard) at a glance.
        for shard, result in enumerate(per_shard):
            spans = result.stats.spans
            seconds = spans.get(SPAN_ENGINE, 0.0) + spans.get(SPAN_LOCATE, 0.0)
            if seconds == 0.0:  # process pools may strip spans; fall back
                seconds = result.stats.elapsed_seconds
            add_span(stats.spans, shard_span(shard), seconds)
            _SHARD_SECONDS.labels(shard=shard).observe(seconds)
        merge_seconds = perf_counter() - merge_start
        add_span(stats.spans, SPAN_MERGE, merge_seconds)
        _MERGE_SECONDS.observe(merge_seconds)
        if "exact_hits" in stats.extra and "verified_hits" in stats.extra:
            # Aggregation summed the per-shard recall *ratios*; the global
            # recall is the ratio of the summed counts (hits are
            # record-local, so per-shard counts partition the global ones).
            exact_hits = stats.extra["exact_hits"]
            stats.extra["recall_vs_exact"] = (
                stats.extra["verified_hits"] / exact_hits
                if exact_hits
                else 1.0
            )
        return QueryResult(
            query_id=query.id,
            hits=hits,
            stats=stats,
            threshold=h_thr,
            raw_hits=sum(result.raw_hits for result in per_shard),
            dropped_boundary=sum(r.dropped_boundary for r in per_shard),
        )

    # -------------------------------------------------------------- serving
    def search(
        self,
        query: str | Query | FastaRecord,
        threshold: int | None = None,
        e_value: float | None = None,
        *,
        top_k: int | None = None,
        mode: str | None = None,
    ) -> QueryResult:
        """Search one query across every shard (no pool involved)."""
        (result,) = self.iter_results(
            [query], threshold, e_value, top_k=top_k, workers=1, mode=mode
        )
        return result

    def iter_results(
        self,
        queries: Iterable,
        threshold: int | None = None,
        e_value: float | None = None,
        *,
        top_k: int | None = None,
        workers: int | None = None,
        executor: str | None = None,
        mode: str | None = None,
    ) -> Iterator[QueryResult]:
        """Yield one :class:`QueryResult` per query, in submission order.

        A query's result streams as soon as all of its shard tasks (and
        everything submitted before it) finish, so callers can emit hits
        before the whole batch completes.  Inputs are validated here, at
        call time, not at first iteration.  ``top_k`` re-ranks each
        result's hits by score (descending, position-ordered within ties)
        and truncates.
        """
        normalized, thresholds, workers, executor, mode = self._validate(
            queries, threshold, e_value, top_k, workers, executor, mode
        )
        return (
            self._merge(query, h_thr, per_shard, top_k, mode)
            for query, h_thr, per_shard in self._iter_shardwise(
                normalized, thresholds, top_k, workers, executor, mode
            )
        )

    def _iter_shardwise(
        self,
        queries: list[Query],
        thresholds: list[int],
        top_k: int | None,
        workers: int,
        executor: str,
        mode: str,
    ) -> Iterator[tuple[Query, int, list[QueryResult]]]:
        """Yield ``(query, H, per-shard results)`` per query, in order."""
        shards = range(len(self._shards))
        floor = _ScoreFloor(top_k) if top_k is not None else None
        if workers == 1 or len(queries) * len(shards) == 1:
            for index, (query, h_thr) in enumerate(zip(queries, thresholds)):
                yield query, h_thr, [
                    self._shard_task(shard, index, query, h_thr, floor, mode)
                    for shard in shards
                ]
            return
        if executor == "threads":
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-search"
            )
            try:
                futures = [
                    [
                        pool.submit(
                            self._shard_task,
                            shard, index, query, h_thr, floor, mode,
                        )
                        for shard in shards
                    ]
                    for index, (query, h_thr) in enumerate(
                        zip(queries, thresholds)
                    )
                ]
                for query, h_thr, shard_futures in zip(
                    queries, thresholds, futures
                ):
                    yield query, h_thr, [f.result() for f in shard_futures]
            finally:
                # Early generator close: drop queued tasks instead of
                # finishing the whole batch before returning control.
                pool.shutdown(wait=True, cancel_futures=True)
            return
        if executor == "spawn":
            self._check_unchanged()
        results = self._pool.run(
            "fork" if executor == "processes" else "spawn",
            workers,
            SearchService._shard_task,
            [
                (shard, index, query, h_thr, None, mode)
                for index, (query, h_thr) in enumerate(zip(queries, thresholds))
                for shard in shards
            ],
        )
        with contextlib.closing(results):
            for query, h_thr in zip(queries, thresholds):
                yield query, h_thr, [next(results) for _shard in shards]

    def _shard_task(
        self,
        shard: int,
        query_index: int,
        query: Query,
        h_thr: int,
        floor: "_ScoreFloor | None",
        mode: str,
    ) -> QueryResult:
        """One (query, shard) search, consulting/feeding the score floor."""
        effective = h_thr
        if floor is not None:
            current = floor.floor(query_index)
            if current is not None and current > effective:
                effective = current
        result = self._shards[shard].search(query, effective, mode)
        if floor is not None:
            floor.offer(query_index, (hit.score for hit in result.hits))
        return result

    def _check_unchanged(self) -> None:
        """Fail in the parent, with a clean error, when the index on disk
        no longer matches what this service loaded; the spawn worker's own
        check covers the remaining race after this point."""
        assert self._store_path is not None  # enforced by check_executor
        try:
            on_disk = index_epoch(self._store_path)
        except ReproError as exc:
            raise ServiceError(
                f"index {self._store_path} is no longer readable: {exc}"
            ) from None
        if on_disk != self.epoch:
            raise ServiceError(
                f"index {self._store_path} changed on disk since this "
                f"service opened it; rebuild the service from the new index"
            )

    def search_batch(
        self,
        queries: Iterable,
        threshold: int | None = None,
        e_value: float | None = None,
        *,
        top_k: int | None = None,
        workers: int | None = None,
        executor: str | None = None,
        mode: str | None = None,
    ) -> BatchReport:
        """Run a whole batch; aggregate per-query and per-shard accounting."""
        normalized, thresholds, workers, executor, mode = self._validate(
            queries, threshold, e_value, top_k, workers, executor, mode
        )
        started = time.perf_counter()
        shard_stats = [SearchStats() for _ in self._shards]
        results = []
        for query, h_thr, per_shard in self._iter_shardwise(
            normalized, thresholds, top_k, workers, executor, mode
        ):
            for stats, result in zip(shard_stats, per_shard):
                stats.merge(result.stats)
            results.append(self._merge(query, h_thr, per_shard, top_k, mode))
        wall = time.perf_counter() - started
        return BatchReport(
            results=results,
            stats=SearchStats.aggregate(r.stats for r in results),
            wall_seconds=wall,
            workers=workers,
            executor=executor,
            shard_stats=shard_stats,
            shard_work_seconds=[stats.elapsed_seconds for stats in shard_stats],
        )

    def search_fasta(
        self,
        path: str | Path,
        threshold: int | None = None,
        e_value: float | None = None,
        *,
        top_k: int | None = None,
        workers: int | None = None,
        executor: str | None = None,
        mode: str | None = None,
    ) -> BatchReport:
        """Run every record of a FASTA file as one batch."""
        return self.search_batch(
            parse_fasta_file(path),
            threshold,
            e_value,
            top_k=top_k,
            workers=workers,
            executor=executor,
            mode=mode,
        )


class ShardedSearchService(SearchService):
    """``SearchService(store=manifest)``, under its former name."""

    def __init__(self, store: "ShardedStore | str | Path", **kwargs) -> None:
        super().__init__(store=store, **kwargs)
