"""Shard the database, build in parallel, serve fan-out/merge — exactly.

Partitions a multi-chromosome database into 4 balanced shards (greedy
bin-packing on sequence length, never splitting a record), builds one
:class:`repro.store.IndexStore` per shard in a process pool, and serves
the manifest through :class:`repro.service.SearchService`, which fans each
query across every shard and merges the per-shard hits into results
bit-identical to the same service over the unsharded database.
Finishes with ranked ``top_k`` serving, where a shared score floor lets
late shard tasks skip hits that can no longer reach the top k.

Run:  python examples/sharded_search.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import SearchService, ShardedStore, ShardPlan, genome
from repro.io.database import SequenceDatabase
from repro.io.fasta import FastaRecord


def main() -> None:
    rng = np.random.default_rng(9)
    records = [
        FastaRecord(header=f"chr{i}", sequence=genome(8_000 + 4_000 * i, rng))
        for i in range(1, 8)
    ]
    database = SequenceDatabase(records)

    plan = ShardPlan.balanced(database, 4)
    lengths = plan.shard_lengths(database)
    print(
        f"{len(records)} records, {database.total_length:,} chars -> "
        f"{plan.shard_count} shards of {'/'.join(str(n) for n in lengths)} "
        f"chars (spread {max(lengths) - min(lengths):,})"
    )

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "genome.idx"

        # Shard stores build independently — a process pool uses every core.
        started = time.perf_counter()
        store = ShardedStore.build(database, path, shards=4, build_workers=4)
        build_s = time.perf_counter() - started
        total = sum(
            store.shard_path(i).stat().st_size
            for i in range(store.shard_count)
        )
        print(
            f"built {store.shard_count} shard stores + manifest in "
            f"{build_s:.2f}s ({total:,} bytes, {store.fingerprint_key})"
        )

        sharded = SearchService(store=path, workers=4)
        unsharded = SearchService(database)

        query = records[3].sequence[2_000:2_080]
        merged = sharded.search(query, threshold=40)
        baseline = unsharded.search(query, threshold=40)
        assert merged.hits == baseline.hits
        print(
            f"merged hits identical to the unsharded service: "
            f"{len(merged.hits)} hits, best score {merged.best().score}"
        )

        # Fan a batch out as (query, shard) tasks across a thread pool.
        report = sharded.search_batch(
            [records[0].sequence[500:560], query, records[6].sequence[1:81]],
            threshold=40,
            workers=4,
        )
        print(
            f"batch of {len(report.results)} queries x "
            f"{sharded.shard_count} shards: {report.total_hits} hits, "
            f"shard work seconds "
            f"{'/'.join(f'{s:.3f}' for s in report.shard_work_seconds)}"
        )

        # Ranked serving: the shared score floor lets cheap shards stop
        # refining hits that can no longer reach the top k.
        top = sharded.search(query, threshold=40, top_k=3)
        print(
            f"top-3 by score: "
            f"{', '.join(f'{h.sequence_id}@{h.t_end}={h.score}' for h in top.hits)}"
        )


if __name__ == "__main__":
    main()
