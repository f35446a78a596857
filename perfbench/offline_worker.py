"""Offline batch search in its own process, the way ``repro search-db --index`` runs.

Usage: ``python offline_worker.py JOB.json OUT.json`` with ``PYTHONPATH``
pointing at the package sources.  The job names a saved store, the
queries, the threshold, the pool shape and how long to keep searching.
The worker opens the store, runs one untimed warm-up batch, then repeats
the whole batch until the time is up (at least three timed batches), timing
the host's speed (``hostspeed.py``) after the warm-up and after every batch.
It writes every batch's wall time, per-query search times, hits and
slowness (the mean of the two bursts around it), every burst, and its own
peak resident memory to ``OUT.json``.
"""

from __future__ import annotations

import json
import os
import sys
import time

from hostspeed import HostSpeed
from repro import SearchService
from served import vm_hwm_mb


def main(job_path: str, out_path: str) -> int:
    with open(job_path) as handle:
        job = json.load(handle)
    service = SearchService(store=job["store"])
    queries = [tuple(pair) for pair in job["queries"]]
    speed = HostSpeed()
    batches = []
    deadline = None
    while deadline is None or time.perf_counter() < deadline or len(batches) < 4:
        report = service.search_batch(
            queries,
            threshold=job["threshold"],
            workers=job["workers"],
            executor=job["executor"],
        )
        speed.mark()
        batches.append(
            {
                "slowness": speed.last_segment() if batches else None,
                "wall": report.wall_seconds,
                "per_query_s": [
                    r.stats.spans.get("engine", 0.0) + r.stats.spans.get("locate", 0.0)
                    for r in report.results
                ],
                "hits": [
                    [[h.sequence_id, h.t_start, h.t_end, h.p_end, h.score] for h in r.hits]
                    for r in report.results
                ],
            }
        )
        if deadline is None:  # the first batch warmed up; time from here
            deadline = time.perf_counter() + job["seconds"]
    with open(out_path, "w") as handle:
        json.dump({
            "warmup": batches[0], "batches": batches[1:], "bursts": speed.bursts,
            "vm_hwm_mb": vm_hwm_mb(os.getpid()),
        }, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
