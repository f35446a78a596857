"""Per-layer probes: each layer timed from outside through its public call.

Every probe runs one fixed query set (the workload's probe queries), so the
work counters it reads off ``SearchStats`` / ``BatchReport`` repeat exactly
for a given seed.  Times come from the tracer's spans around each call.
"""

from __future__ import annotations

from pathlib import Path

from repro import SearchService, ShardedSearchService, ShardedStore
from repro.core.analysis import entry_bound
from repro.obs.spans import shard_seconds

from tracer import Tracer


def _per_item(total: float, count: int) -> float:
    return total / count if count else 0.0


def probe_index(tracer: Tracer, engine, queries: list[str], q: int) -> dict:
    """FM-index cost: ``range_of`` per distinct query q-gram, locate per occurrence."""
    csa = engine.csa
    grams = sorted({query[i : i + q] for query in queries for i in range(len(query) - q + 1)})
    with tracer.span("index.range_of", grams=len(grams)):
        ranges = [csa.range_of(gram) for gram in grams]
    nonempty = [rng for rng in ranges if rng[1] > rng[0]]
    with tracer.span("index.locate", ranges=len(nonempty)):
        occurrences = sum(len(csa.end_positions_array(rng)) for rng in nonempty)
    return {
        "index.range_of_us": _per_item(tracer.seconds("index.range_of") * 1e6, len(grams)),
        "index.locate_us_per_occ": _per_item(tracer.seconds("index.locate") * 1e6, occurrences),
        "count.index.grams": len(grams),
        "count.index.occurrences": occurrences,
    }


def probe_core(tracer: Tracer, engine, queries: list[str], threshold: int, scheme, sigma: int) -> dict:
    """``ALAE.search`` on the concatenated text: time and the paper's counters."""
    n = engine.csa.n
    bound = entry_bound(scheme, sigma)
    totals = dict.fromkeys(
        ["nodes", "x1", "x2", "x3", "reused", "forks_seeded", "forks_skipped_domination",
         "forks_skipped_global", "grams_absent", "raw_hits"], 0,
    )
    bound_entries = 0.0
    for query in queries:
        with tracer.span("core.search", m=len(query)):
            result = engine.search(query, threshold=threshold)
        stats = result.stats
        totals["nodes"] += stats.nodes_visited
        totals["x1"] += stats.calculated_x1
        totals["x2"] += stats.calculated_x2
        totals["x3"] += stats.calculated_x3
        totals["reused"] += stats.reused
        totals["forks_seeded"] += stats.forks_seeded
        totals["forks_skipped_domination"] += stats.forks_skipped_domination
        totals["forks_skipped_global"] += stats.forks_skipped_global
        totals["grams_absent"] += stats.grams_absent_in_text
        totals["raw_hits"] += len(result.hits)
        bound_entries += bound.entries(len(query), n)
    count = len(queries)
    calculated = totals["x1"] + totals["x2"] + totals["x3"]
    out = {f"core.{name}": value / count for name, value in totals.items()}
    out["core.ms_per_query"] = tracer.seconds("core.search") * 1e3 / count
    accessed = calculated + totals["reused"]
    out["core.reusing_ratio"] = totals["reused"] / accessed if accessed else 0.0
    out["core.entries_over_bound"] = calculated / bound_entries
    out["count.core.nodes_total"] = totals["nodes"]
    return out


def probe_service(tracer: Tracer, store_path: Path, queries: list[str], threshold: int) -> dict:
    """``SearchService.search_batch``: threads x1, processes x2 whole, batches of 6."""
    service = SearchService(store=store_path)
    named = [(f"p{i}", q) for i, q in enumerate(queries)]
    with tracer.span("service.threads1"):
        report = service.search_batch(named, threshold=threshold, workers=1, executor="threads")
    with tracer.span("service.proc2_batch"):
        service.search_batch(named, threshold=threshold, workers=2, executor="processes")
    for start in range(0, len(named), 6):
        with tracer.span("service.proc2_batch6"):
            service.search_batch(named[start : start + 6], threshold=threshold, workers=2, executor="processes")
    count = len(queries)
    service_ms = tracer.seconds("service.threads1") * 1e3 / count
    # Service minus core within the same call: the batch wall less the
    # engine time the service itself recorded, so both halves see the same
    # machine conditions.
    engine_ms = report.stats.spans.get("engine", 0.0) * 1e3 / count
    return {
        "service.ms_per_query": service_ms,
        "service.attribution_ms_per_query": service_ms - engine_ms,
        "service.hits": report.total_hits / count,
        "service.dropped_boundary": report.total_dropped / count,
        "service.proc2_batch_ms_per_query": tracer.seconds("service.proc2_batch") * 1e3 / count,
        "service.proc2_batch6_ms_per_query": tracer.seconds("service.proc2_batch6") * 1e3 / count,
    }


def probe_sharded(tracer: Tracer, records, workdir: Path, queries: list[str], threshold: int,
                  alphabet, scheme, mono_nodes: int) -> dict:
    """``ShardedSearchService`` at K=1 and K=4 (threads x1): time and engine work."""
    named = [(f"p{i}", q) for i, q in enumerate(queries)]
    out = {}
    for shards in (1, 4):
        manifest = workdir / f"probe-k{shards}.shd"
        ShardedStore.build(records, manifest, shards=shards, alphabet=alphabet, scheme=scheme)
        service = ShardedSearchService(manifest, workers=1, executor="threads")
        with tracer.span(f"sharded.k{shards}"):
            report = service.search_batch(named, threshold=threshold)
        out[f"sharded.k{shards}_ms_per_query"] = tracer.seconds(f"sharded.k{shards}") * 1e3 / len(queries)
        if shards == 4:
            per_shard = shard_seconds(report.stats.spans)
            out["sharded.k4_nodes"] = report.stats.nodes_visited / len(queries)
            out["sharded.k4_x1"] = report.stats.calculated_x1 / len(queries)
            out["sharded.work_ratio"] = report.stats.nodes_visited / mono_nodes
            out["sharded.shard_imbalance"] = max(per_shard) / (sum(per_shard) / len(per_shard))
    return out

