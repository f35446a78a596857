"""Fixed settings of the benchmark of record: seeds, workloads, arrival rates.

Everything a run depends on, apart from ``--seed`` and ``--seconds``, lives
here so that two commits measured with the same benchmark files see the
same traffic.  Each served workload's ``open_rate_qps`` is an absolute rate, not a share of the
measured capacity: it was set to about half of what the serving stack
sustained with one request in flight when the benchmark was defined, so
that stack builds no backlog in the open-loop phase and a later stack is
offered exactly the same load.
"""

from __future__ import annotations

#: Seed used for tuning and for the recorded baseline.
DEFAULT_SEED = 20120827
#: Held out while tuning; a later change claims its gain on this seed too.
HELDOUT_SEED = 20261017

#: Connections the load generator opens (one per core of the 2-core box
#: the rates were set on).
CONNECTIONS = 2
#: Records the database text is cut into, in every workload.
RECORDS = 6
#: Requests kept outstanding in the closed-loop phase of a served workload.
CLOSED_INFLIGHT = 16
#: Segments each served phase is cut into.  Each segment starts with an
#: empty queue, so a stall of the machine delays the rest of its segment
#: only; between segments, with the server idle, the host's speed is timed
#: (``hostspeed.py``) for the detail line.
SEGMENTS = 8

# Served workloads size their phases from ``--seconds``: the open loop sends
# ``open_rate_qps * seconds * open_share`` requests at that rate, and the
# closed loop then sends ``closed_requests_per_second * seconds`` requests
# with ``CLOSED_INFLIGHT`` outstanding.  Fixed counts keep the work, and so
# the work counters, identical for one seed however fast the program is.

WORKLOADS: dict[str, dict] = {
    # Engine work per query is small (~10 ms), so shard fan-out and merge,
    # the per-batch fork pool, the linger and the wire dominate.  Not in
    # BENCHMARK.json: its open-loop p50 follows the hypervisor's steal share
    # (ten seeds spread 0.33 with steal 0-14%), past any bound it may set.
    # Run it by hand, parent and change in alternation.
    "served-dna-sharded": {
        "kind": "served",
        "alphabet": "dna",
        "scheme": None,  # the default <1,-3,-5,-2>
        "text_length": 60_000,
        "shards": 4,
        # Traced runs probe ShardedSearchService at K=1 and K=4.
        "sharded_probes": True,
        "query_range": (30, 80),
        "threshold": 28,
        "serve_args": ["--shards-ok"],
        "workers": 2,
        "executor": "processes",
        "request_log": False,
        # Every request carries a distinct query: cache hit rate 0.
        "repeat_share": 0.0,
        "open_rate_qps": 12.0,
        "open_share": 0.95,
        "closed_requests_per_second": 16,
        "probe_queries": 24,
        # Set-up (build, save, open and, for served workloads, the server
        # start) is repeated this many times per run; the median is reported.
        "setup_repeats": 5,
        "oracle_queries": 4,
    },
    # Same serving layers, used differently: no shards, no fork pool, dense
    # hits (locate and response encoding weigh more), and 45% of the requests
    # repeat a hot query, so the result cache and request log work.
    "served-protein-cached": {
        "kind": "served",
        "alphabet": "protein",
        "scheme": (1, -3, -11, -1),
        "text_length": 60_000,
        "shards": 0,
        "query_range": (30, 120),
        "threshold": 20,
        "serve_args": [],
        "workers": 1,
        "executor": "threads",
        "request_log": True,
        # A share ``repeat_share`` of each phase's requests, at seeded places,
        # repeats a query of a hot pool (far smaller than the server's cache,
        # sent once in an untimed warm-up) drawn with Zipf-like weights
        # rank**-skew; every other request is a query never sent before.  So
        # both measured phases see the same mix: a little under half of their
        # requests repeat and hit the cache, and the median request misses.
        "repeat_share": 0.45,
        "hot_pool": 128,
        "repeat_skew": 0.3,
        "open_rate_qps": 60.0,
        "open_share": 0.8,
        "closed_requests_per_second": 100,
        "probe_queries": 32,
        "setup_repeats": 3,
        "oracle_queries": 4,
    },
    # Offline, one process: engine traversal and FM rank/locate dominate and
    # no serving layer runs.
    "batch-dna-320k": {
        "kind": "offline",
        "alphabet": "dna",
        "scheme": None,
        "text_length": 320_000,
        "shards": 0,
        # The benchmark's one workload with the sharded layer's probes.
        "sharded_probes": True,
        "query_range": (80, 80),
        "threshold": 25,
        # Distinct queries per batch: enough that which queries one seed
        # draws moves the per-query median and the batch rate little.
        "batch_queries": 96,
        "workers": 2,
        "executor": "processes",
        "probe_queries": 12,
        "setup_repeats": 3,
        "oracle_queries": 2,
    },
}
