"""Index-store economics: build once vs open forever, per database size.

For each database size this measures

* ``build_s`` — constructing every index from raw records (reversed-text
  CSA + dominate index, what every cold process paid before the store),
* ``save_s`` — serializing the built store to disk,
* ``open_s`` — cold-starting a serving engine from the saved file
  (``IndexStore.open`` + engine materialization from the mmapped arrays),
* ``file_MB`` — on-disk store size,
* ``speedup`` — build/open cold-start ratio, and
* ``breakeven`` — how many store-served cold starts amortize the one-off
  build+save cost: ``(build_s + save_s) / (build_s - open_s)`` rounded up;
  every cold start after that is pure profit.

A per-query timing sanity check asserts the served engine matches the
fresh-built engine hit-for-hit on a homologous query.

A second table covers the **sharded build**: for each database size it
times a serial K-shard build (``build_workers=1``) against a parallel one
(``build_workers=K``), reports the speedup — index construction is
CPU-bound Python, so on a multi-core machine the parallel build should
approach Kx; on one core it stays ~1x — and asserts the sharded service's
merged hits match the single-store service exactly.

Run:  PYTHONPATH=src python benchmarks/bench_index_store.py
      PYTHONPATH=src python benchmarks/bench_index_store.py --shards 4
"""

from __future__ import annotations

import argparse
import math
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import (
    IndexStore,
    SearchService,
    ShardedStore,
    genome,
    sample_homologous_queries,
)
from repro.io.database import SequenceDatabase
from repro.io.fasta import FastaRecord


def make_database(n: int, sequences: int, seed: int) -> SequenceDatabase:
    rng = np.random.default_rng(seed)
    per = n // sequences
    records = [
        FastaRecord(header=f"chr{i}", sequence=genome(per, rng))
        for i in range(1, sequences + 1)
    ]
    return SequenceDatabase(records)


def measure(database: SequenceDatabase, directory: Path, threshold: int, seed: int):
    started = time.perf_counter()
    store = IndexStore.build(database)
    build_s = time.perf_counter() - started

    path = directory / f"store_{database.total_length}.idx"
    started = time.perf_counter()
    store.save(path)
    save_s = time.perf_counter() - started

    started = time.perf_counter()
    reopened = IndexStore.open(path)
    engine = reopened.engine()
    open_s = time.perf_counter() - started

    rng = np.random.default_rng(seed)
    (query,) = sample_homologous_queries(database.text, 1, 60, rng)
    started = time.perf_counter()
    served = engine.search(query, threshold=threshold)
    query_s = time.perf_counter() - started
    fresh = store.engine().search(query, threshold=threshold)
    assert served.hits.as_score_set() == fresh.hits.as_score_set()

    file_bytes = path.stat().st_size
    saved_per_start = build_s - open_s
    breakeven = (
        math.ceil((build_s + save_s) / saved_per_start)
        if saved_per_start > 0
        else float("inf")
    )
    return build_s, save_s, open_s, query_s, file_bytes, breakeven


def measure_sharded(
    database: SequenceDatabase,
    directory: Path,
    shards: int,
    threshold: int,
    seed: int,
):
    serial_path = directory / f"sharded_serial_{database.total_length}.idx"
    started = time.perf_counter()
    ShardedStore.build(database, serial_path, shards=shards, build_workers=1)
    serial_s = time.perf_counter() - started

    parallel_path = directory / f"sharded_par_{database.total_length}.idx"
    started = time.perf_counter()
    store = ShardedStore.build(
        database, parallel_path, shards=shards, build_workers=shards
    )
    parallel_s = time.perf_counter() - started

    rng = np.random.default_rng(seed)
    (query,) = sample_homologous_queries(database.text, 1, 60, rng)
    sharded = SearchService(store=store)
    started = time.perf_counter()
    merged = sharded.search(query, threshold=threshold)
    query_s = time.perf_counter() - started
    baseline = SearchService(database).search(query, threshold=threshold)
    assert merged.hits == baseline.hits  # exact merge or the numbers lie

    total_bytes = sum(
        store.shard_path(i).stat().st_size for i in range(store.shard_count)
    )
    return serial_s, parallel_s, query_s, total_bytes


def run(args: argparse.Namespace) -> None:
    print("n\tbuild_s\tsave_s\topen_s\tquery_s\tfile_MB\tspeedup\tbreakeven")
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.sizes:
            database = make_database(n, args.sequences, args.seed)
            build_s, save_s, open_s, query_s, file_bytes, breakeven = measure(
                database, Path(tmp), args.threshold, args.seed + 1
            )
            speedup = build_s / open_s if open_s > 0 else float("inf")
            print(
                f"{n}\t{build_s:.3f}\t{save_s:.3f}\t{open_s:.3f}\t"
                f"{query_s:.3f}\t{file_bytes / 1e6:.2f}\t{speedup:.0f}x\t"
                f"{breakeven}"
            )

    cores = os.cpu_count() or 1
    print(
        f"\n# sharded build: K={args.shards} shards, serial vs "
        f"{args.shards}-process parallel ({cores} core(s) available)"
    )
    print("n\tserial_s\tparallel_s\tbuild_speedup\tquery_s\tfile_MB")
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.sizes:
            database = make_database(
                n, max(args.sequences, args.shards), args.seed
            )
            serial_s, parallel_s, query_s, total_bytes = measure_sharded(
                database, Path(tmp), args.shards, args.threshold, args.seed + 1
            )
            build_speedup = serial_s / parallel_s if parallel_s > 0 else 0.0
            print(
                f"{n}\t{serial_s:.3f}\t{parallel_s:.3f}\t"
                f"{build_speedup:.2f}x\t{query_s:.3f}\t"
                f"{total_bytes / 1e6:.2f}"
            )
    if cores < 2:
        print(
            "# note: single-core machine — parallel build speedup is "
            "bounded at ~1x here; it scales with cores because shard "
            "builds are independent CPU-bound processes"
        )


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes", type=int, nargs="+",
        default=[20_000, 80_000, 320_000, 1_280_000],
    )
    parser.add_argument("--sequences", type=int, default=4)
    parser.add_argument(
        "--shards", type=int, default=4,
        help="shard count for the sharded-build table",
    )
    parser.add_argument("--threshold", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args()


if __name__ == "__main__":
    run(parse_args())
