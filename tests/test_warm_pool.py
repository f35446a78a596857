"""Warm process pools: one per service, started lazily, reused, rebuilt, reaped.

Every process batch is compared with the threads x1 answer of the same
service, byte for byte: ids, hits (positions, scores, order), raw and
dropped counts.  Worker processes are counted with
``multiprocessing.active_children()`` against a snapshot taken before the
service under test started any, so pools of other tests never count.
"""

import gc
import multiprocessing
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro import IndexStore, SearchService, ShardedStore, genome
from repro.io.fasta import FastaRecord
from repro.service import ServiceError, ShardedSearchService

THRESHOLD = 30


@pytest.fixture(scope="module")
def records() -> list[FastaRecord]:
    rng = np.random.default_rng(31)
    return [FastaRecord(f"chr{i}", genome(1_500, rng)) for i in range(1, 5)]


@pytest.fixture(scope="module")
def queries(records) -> list[tuple[str, str]]:
    return [
        (f"q{i}", records[i % 4].sequence[60 + 37 * i : 120 + 37 * i])
        for i in range(16)
    ]


@pytest.fixture(scope="module")
def expected(records, queries):
    return _answers(SearchService(records).search_batch(queries, threshold=THRESHOLD))


def _answers(report) -> list:
    return [
        (r.query_id, r.hits, r.raw_hits, r.dropped_boundary)
        for r in report.results
    ]


def _new_children(before: set) -> set:
    return set(multiprocessing.active_children()) - before


def _wait_for_no_new_children(before: set, timeout: float = 10.0) -> set:
    deadline = time.monotonic() + timeout
    while _new_children(before) and time.monotonic() < deadline:
        time.sleep(0.05)
    return _new_children(before)


def _run_together(jobs, timeout: float = 60.0) -> list:
    """Start every job at once on its own thread; re-raise the first error."""
    barrier = threading.Barrier(len(jobs))
    outputs: list = [None] * len(jobs)
    errors: list = []

    def run(index, job):
        try:
            barrier.wait()
            outputs[index] = job()
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(i, job)) for i, job in enumerate(jobs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
        assert not thread.is_alive(), "a concurrent batch hung"
    if errors:
        raise errors[0]
    return outputs


class TestConcurrentProcessBatches:
    """Process batches running at the same time in one process are no error."""

    def _repeat(self, service, queries, rounds=3):
        return lambda: [
            _answers(
                service.search_batch(
                    queries, threshold=THRESHOLD, workers=2, executor="processes"
                )
            )
            for _ in range(rounds)
        ]

    def test_two_services_at_once(self, records, queries, expected):
        with SearchService(records) as first, SearchService(records) as second:
            outputs = _run_together(
                [self._repeat(first, queries), self._repeat(second, queries)]
            )
        for rounds in outputs:
            assert rounds == [expected] * 3

    def test_two_threads_on_one_service(self, records, queries, expected):
        with SearchService(records, workers=2, executor="processes") as service:
            outputs = _run_together(
                [self._repeat(service, queries), self._repeat(service, queries)]
            )
        for rounds in outputs:
            assert rounds == [expected] * 3

    def test_rebuild_races_under_stress(self, records, queries, expected):
        """More threads than cores on one service, alternating worker
        counts so every batch may rebuild the pool under another thread's
        in-flight batch; a batch lost or mixed across pools would break
        the byte-equality."""
        before = set(multiprocessing.active_children())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SearchService(records, executor="processes") as service:
                jobs = [
                    lambda workers=2 + i % 2: [
                        _answers(
                            service.search_batch(
                                queries, threshold=THRESHOLD, workers=workers
                            )
                        )
                        for _ in range(3)
                    ]
                    for i in range(4)
                ]
                outputs = _run_together(jobs, timeout=120)
        finally:
            sys.setswitchinterval(interval)
        for rounds in outputs:
            assert rounds == [expected] * 3
        assert not _wait_for_no_new_children(before)

    def test_sharded_and_monolithic_at_once(
        self, records, queries, expected, tmp_path
    ):
        manifest = tmp_path / "db.shd"
        ShardedStore.build(records, manifest, shards=3)
        with ShardedSearchService(manifest) as sharded, SearchService(
            records
        ) as mono:
            reference = _answers(sharded.search_batch(queries, threshold=THRESHOLD))
            outputs = _run_together(
                [self._repeat(sharded, queries), self._repeat(mono, queries)]
            )
        assert outputs == [[reference] * 3, [expected] * 3]


class TestWarmPoolLifecycle:
    def test_pool_starts_lazily_and_is_reused(self, records, queries, expected):
        before = set(multiprocessing.active_children())
        service = SearchService(records, workers=2, executor="processes")
        assert not _new_children(before)  # opening a service forks nothing
        service.search_batch(queries[:1], threshold=THRESHOLD)
        assert not _new_children(before)  # one query runs inline
        first = service.search_batch(queries, threshold=THRESHOLD)
        workers = _new_children(before)
        assert len(workers) == 2
        second = service.search_batch(queries, threshold=THRESHOLD)
        assert _new_children(before) == workers  # the same warm processes
        assert _answers(first) == _answers(second) == expected
        service.close()
        assert not _new_children(before)
        service.close()  # idempotent

    def test_context_manager_reaps_sharded_workers(self, records, queries, tmp_path):
        manifest = tmp_path / "db.shd"
        ShardedStore.build(records, manifest, shards=2)
        before = set(multiprocessing.active_children())
        with ShardedSearchService(manifest, workers=2, executor="processes") as service:
            forked = service.search_batch(queries, threshold=THRESHOLD)
            assert len(_new_children(before)) == 2
            threads = service.search_batch(
                queries, threshold=THRESHOLD, workers=1, executor="threads"
            )
        assert not _new_children(before)
        assert _answers(forked) == _answers(threads)

    def test_dropped_service_does_not_leak_workers(self, records, queries):
        before = set(multiprocessing.active_children())
        service = SearchService(records, workers=2, executor="processes")
        service.search_batch(queries, threshold=THRESHOLD)
        assert len(_new_children(before)) == 2
        del service
        gc.collect()
        assert not _wait_for_no_new_children(before)

    def test_worker_count_change_rebuilds_the_pool(self, records, queries, expected):
        before = set(multiprocessing.active_children())
        with SearchService(records, executor="processes") as service:
            two = service.search_batch(queries, threshold=THRESHOLD, workers=2)
            three = service.search_batch(queries, threshold=THRESHOLD, workers=3)
            # The two-worker pool retires in the background.
            deadline = time.monotonic() + 10
            while len(_new_children(before)) != 3 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert len(_new_children(before)) == 3
        assert _answers(two) == _answers(three) == expected

    def test_spawn_pool_is_reused(self, records, queries, expected, tmp_path):
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn unavailable")
        path = tmp_path / "db.idx"
        IndexStore.build(records).save(path)
        before = set(multiprocessing.active_children())
        with SearchService(store=path, workers=2, executor="spawn") as service:
            first = service.search_batch(queries, threshold=THRESHOLD)
            workers = _new_children(before)
            second = service.search_batch(queries, threshold=THRESHOLD)
            assert _new_children(before) <= workers  # no fresh spawns
        assert not _new_children(before)
        assert _answers(first) == _answers(second) == expected


class TestWorkerKilled:
    """ROADMAP fault injection: a worker process killed mid-query."""

    def test_killed_worker_fails_the_batch_typed_then_recovers(
        self, records, queries, expected
    ):
        before = set(multiprocessing.active_children())
        with SearchService(records, workers=2, executor="processes") as service:
            service.search_batch(queries, threshold=THRESHOLD)  # warm the pool
            results = service.iter_results(queries * 8, threshold=THRESHOLD)
            next(results)  # the batch is running now
            victim = sorted(_new_children(before), key=lambda p: p.pid)[0]
            os.kill(victim.pid, signal.SIGKILL)
            with pytest.raises(ServiceError, match="worker process died"):
                list(results)
            after = service.search_batch(queries, threshold=THRESHOLD)
            assert _answers(after) == expected
            assert victim not in _new_children(before)

    def test_worker_killed_while_idle_is_replaced(self, records, queries, expected):
        before = set(multiprocessing.active_children())
        with SearchService(records, workers=2, executor="processes") as service:
            service.search_batch(queries, threshold=THRESHOLD)
            victim = sorted(_new_children(before), key=lambda p: p.pid)[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(10)
            # Whether or not the pool has noticed yet, the next batch either
            # runs on a fresh pool or fails typed; the one after must run.
            try:
                service.search_batch(queries, threshold=THRESHOLD)
            except ServiceError:
                pass
            after = service.search_batch(queries, threshold=THRESHOLD)
        assert _answers(after) == expected
