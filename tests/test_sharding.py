"""Sharding: manifest integrity, shard-merged exactness, top-k, CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import (
    SearchService,
    ShardedSearchService,
    ShardedStore,
    StoreError,
    genome,
    write_fasta,
)
from repro.align.types import SearchStats
from repro.cli import main as cli_main
from repro.io.database import SequenceDatabase
from repro.io.fasta import FastaRecord
from repro.service import Query, ServiceError
from repro.service.service import ShardedBatchReport, _ScoreFloor
from repro.store import IndexStore, is_manifest
from repro.store.sharded import read_manifest, write_manifest


def make_database(records=7, base_length=160, seed=3):
    rng = np.random.default_rng(seed)
    return SequenceDatabase(
        [
            FastaRecord(
                header=f"chr{i}",
                sequence=genome(base_length + 25 * i, rng),
            )
            for i in range(1, records + 1)
        ]
    )


THRESHOLD = 30


@pytest.fixture(scope="module")
def database():
    return make_database()


@pytest.fixture(scope="module")
def queries(database):
    text = database.text
    chr4 = database.records[3].sequence
    return [
        Query("exact", chr4[40:100]),
        Query("deletion", chr4[10:40] + chr4[46:76]),
        # Crosses the first concatenation boundary of the original order.
        Query("straddle", text[150:195]),
        Query("random", "ACGTACGTACGTACGTACGTACGTACGTAC"),
    ]


@pytest.fixture(scope="module")
def unsharded(database):
    return SearchService(database)


@pytest.fixture(scope="module")
def manifests(database, tmp_path_factory):
    root = tmp_path_factory.mktemp("sharded")
    paths = {}
    for k in (1, 2, 4):
        path = root / f"db{k}.idx"
        ShardedStore.build(database, path, shards=k)
        paths[k] = path
    return paths


def hit_tuple(hit):
    return (
        hit.sequence_id,
        hit.record_index,
        hit.t_start,
        hit.t_end,
        hit.p_end,
        hit.score,
    )


class TestShardedStore:
    def test_manifest_round_trip(self, database, manifests):
        store = ShardedStore.open(manifests[4])
        assert store.shard_count == 4
        assert store.record_count == len(database)
        assert store.total_length == database.total_length
        assert store.record_ids == database.identifiers
        assert store.global_offsets == database.boundaries()
        assert sum(store.shard_lengths()) == database.total_length

    def test_original_database_reconstructed(self, database, manifests):
        store = ShardedStore.open(manifests[2])
        rebuilt = store.database()
        assert rebuilt.text == database.text
        assert rebuilt.identifiers == database.identifiers

    def test_verify_clean(self, manifests):
        for path in manifests.values():
            assert ShardedStore.verify(path) == []

    def test_is_manifest_sniffs_both_layouts(self, database, manifests, tmp_path):
        single = tmp_path / "single.idx"
        IndexStore.build(database).save(single)
        assert is_manifest(manifests[2])
        assert not is_manifest(single)

    def test_corrupt_manifest_rejected(self, manifests, tmp_path):
        path = tmp_path / "corrupt.idx"
        raw = json.loads(manifests[2].read_text())
        raw["payload"]["shards"][0]["total_length"] += 1  # tamper
        path.write_text(json.dumps(raw))
        with pytest.raises(StoreError, match="checksum"):
            read_manifest(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_text(json.dumps({"magic": "NOTSHARD"}))
        with pytest.raises(StoreError, match="magic"):
            read_manifest(path)

    def test_version_skew_rejected(self, manifests, tmp_path):
        path = tmp_path / "skew.idx"
        raw = json.loads(manifests[2].read_text())
        raw["format_version"] = 99
        path.write_text(json.dumps(raw))
        with pytest.raises(StoreError, match="version"):
            read_manifest(path)

    def test_incomplete_assignment_rejected(self, database, tmp_path):
        path = tmp_path / "gap.idx"
        ShardedStore.build(database, path, shards=2)
        payload = read_manifest(path)
        payload["shards"][0]["records"] = payload["shards"][0]["records"][1:]
        write_manifest(path, payload)
        with pytest.raises(StoreError, match="cover"):
            ShardedStore.open(path)

    def test_rebuilt_shard_behind_manifest_is_hard_error(
        self, database, tmp_path
    ):
        path = tmp_path / "swap.idx"
        store = ShardedStore.build(database, path, shards=2)
        # Rebuild shard 0's file in place with different contents.
        shard_path = store.shard_path(0)
        IndexStore.build(make_database(records=2, seed=9)).save(shard_path)
        problems = ShardedStore.verify(path)
        assert any("header CRC" in p or "records disagree" in p for p in problems)
        fresh = ShardedStore.open(path)
        with pytest.raises(StoreError, match="rebuilt or replaced"):
            fresh.store(0)

    def test_missing_shard_file_reported(self, database, tmp_path):
        path = tmp_path / "missing.idx"
        store = ShardedStore.build(database, path, shards=2)
        store.shard_path(1).unlink()
        problems = ShardedStore.verify(path)
        assert any("missing" in p for p in problems)

    def test_parallel_build_matches_serial(self, database, tmp_path):
        serial = tmp_path / "serial.idx"
        parallel = tmp_path / "parallel.idx"
        ShardedStore.build(database, serial, shards=3, build_workers=1)
        ShardedStore.build(database, parallel, shards=3, build_workers=3)
        a, b = ShardedStore.open(serial), ShardedStore.open(parallel)
        assert a.payload["records"] == b.payload["records"]
        assert [s["records"] for s in a.payload["shards"]] == [
            s["records"] for s in b.payload["shards"]
        ]
        # Same plan, same parameters: the stores must be byte-identical.
        for i in range(3):
            assert (
                a.shard_path(i).read_bytes() == b.shard_path(i).read_bytes()
            )

    def test_fingerprint_checks(self, manifests):
        from repro import PROTEIN, ScoringScheme

        store = ShardedStore.open(manifests[2])
        with pytest.raises(StoreError, match="alphabet"):
            store.check_alphabet(PROTEIN)
        with pytest.raises(StoreError, match="scheme"):
            store.check_scheme(ScoringScheme(1, -4, -5, -2))


class TestShardedExactness:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_bit_identical_to_unsharded(
        self, k, manifests, unsharded, queries
    ):
        """Hit sets — ids, positions, scores, ordering — match exactly."""
        service = ShardedSearchService(manifests[k])
        base = [
            unsharded.search(query, threshold=THRESHOLD) for query in queries
        ]
        got = list(service.iter_results(queries, threshold=THRESHOLD))
        for expected, result in zip(base, got):
            assert result.threshold == expected.threshold
            assert [hit_tuple(h) for h in result.hits] == [
                hit_tuple(h) for h in expected.hits
            ]
            assert result.hits == expected.hits  # full dataclass equality

    def test_e_value_resolves_against_global_length(
        self, manifests, unsharded, queries
    ):
        """Per-shard text is shorter, but H must come from the global n."""
        service = ShardedSearchService(manifests[4])
        for query in queries:
            expected = unsharded.search(query, e_value=1.0)
            result = service.search(query, e_value=1.0)
            assert result.threshold == expected.threshold
            assert result.hits == expected.hits

    def test_straddle_artifacts_never_leak(self, manifests, queries):
        """Boundary artifacts are per-shard concerns; none survive the merge
        with a bogus attribution."""
        service = ShardedSearchService(manifests[2])
        result = service.search(queries[2], threshold=THRESHOLD)
        for hit in result.hits:
            record = service.store.database().records[hit.record_index]
            assert hit.sequence_id == record.identifier
            assert 1 <= hit.t_end <= len(record.sequence)

    def test_thread_pool_matches_serial(self, manifests, queries):
        service = ShardedSearchService(manifests[4])
        serial = list(service.iter_results(queries, threshold=THRESHOLD))
        pooled = list(
            service.iter_results(
                queries, threshold=THRESHOLD, workers=4, executor="threads"
            )
        )
        for a, b in zip(serial, pooled):
            assert a.hits == b.hits
            assert a.raw_hits == b.raw_hits

    @pytest.mark.parametrize("executor", ["processes", "spawn"])
    def test_process_pools_match_threads(self, executor, tmp_path, queries):
        import multiprocessing

        if executor == "spawn" and (
            "spawn" not in multiprocessing.get_all_start_methods()
        ):
            pytest.skip("spawn unavailable")
        database = make_database(records=4, base_length=120)
        path = tmp_path / "small.idx"
        ShardedStore.build(database, path, shards=2)
        service = ShardedSearchService(path)
        small_queries = [
            Query("exact", database.records[1].sequence[20:70]),
            Query("straddle", database.text[110:150]),
        ]
        base = list(service.iter_results(small_queries, threshold=THRESHOLD))
        got = list(
            service.iter_results(
                small_queries,
                threshold=THRESHOLD,
                workers=2,
                executor=executor,
            )
        )
        for a, b in zip(base, got):
            assert a.hits == b.hits
            assert a.threshold == b.threshold


class TestTopK:
    def test_top_k_equals_ranked_truncation(self, manifests, queries):
        service = ShardedSearchService(manifests[4])
        full = list(service.iter_results(queries, threshold=THRESHOLD))
        for workers in (1, 3):
            topped = list(
                service.iter_results(
                    queries, threshold=THRESHOLD, top_k=3, workers=workers
                )
            )
            for base, result in zip(full, topped):
                merged = [
                    (base.hits.index(h), h) for h in base.hits
                ]  # positional order is global (t_end, p_end)
                expected = sorted(
                    merged, key=lambda item: (-item[1].score, item[0])
                )[:3]
                assert [hit_tuple(h) for _i, h in expected] == [
                    hit_tuple(h) for h in result.hits
                ]

    def test_top_k_scores_descending(self, manifests, queries):
        service = ShardedSearchService(manifests[2])
        result = service.search(queries[0], threshold=THRESHOLD, top_k=5)
        scores = [hit.score for hit in result.hits]
        assert scores == sorted(scores, reverse=True)
        assert len(result.hits) <= 5

    def test_invalid_top_k_rejected(self, manifests, queries):
        service = ShardedSearchService(manifests[2])
        with pytest.raises(ServiceError, match="top_k"):
            list(service.iter_results(queries, threshold=THRESHOLD, top_k=0))

    def test_unsharded_top_k_matches_sharded(
        self, unsharded, manifests, queries
    ):
        """The CLI's --top-k must not care which layout --index points at."""
        sharded = ShardedSearchService(manifests[4])
        flat = list(
            unsharded.iter_results(queries, threshold=THRESHOLD, top_k=3)
        )
        fanned = list(
            sharded.iter_results(queries, threshold=THRESHOLD, top_k=3)
        )
        for a, b in zip(flat, fanned):
            assert [hit_tuple(h) for h in a.hits] == [
                hit_tuple(h) for h in b.hits
            ]

    def test_score_floor_is_kth_best_of_subset(self):
        floor = _ScoreFloor(3)
        assert floor.floor(0) is None
        floor.offer(0, [10, 50])
        assert floor.floor(0) is None  # fewer than k scores so far
        floor.offer(0, [40])
        assert floor.floor(0) == 10
        floor.offer(0, [45, 5])  # 5 can never displace the top 3
        assert floor.floor(0) == 40
        assert floor.floor(1) is None  # floors are per query


class TestOneServicePerLayout:
    """A store is the K=1 shard: every layout goes through one service."""

    @pytest.fixture(scope="class")
    def layouts(self, database, manifests, tmp_path_factory):
        root = tmp_path_factory.mktemp("layouts")
        store = root / "mono.idx"
        IndexStore.build(database).save(store)
        k3 = root / "k3.idx"
        ShardedStore.build(database, k3, shards=3)
        return {"store": store, "k1": manifests[1], "k3": k3}

    @pytest.mark.parametrize("layout", ["store", "k1", "k3"])
    def test_top_k_zero_rejected_on_every_layout(
        self, layout, layouts, queries
    ):
        service = SearchService(store=layouts[layout])
        with pytest.raises(ServiceError, match="top_k must be >= 1"):
            service.search(queries[0], threshold=THRESHOLD, top_k=0)
        with pytest.raises(ServiceError, match="top_k must be >= 1"):
            service.search_batch(queries, threshold=THRESHOLD, top_k=0)

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_k1_manifest_equals_monolithic_store(
        self, executor, layouts, queries
    ):
        with SearchService(store=layouts["store"]) as mono, SearchService(
            store=layouts["k1"]
        ) as k1:
            reports = [
                service.search_batch(
                    queries, threshold=THRESHOLD, workers=2, executor=executor
                )
                for service in (mono, k1)
            ]
        for report in reports:
            assert report.executor == executor
            assert len(report.shard_stats) == 1
            assert len(report.shard_work_seconds) == 1
        expected, got = (
            [
                (
                    r.query_id,
                    [hit_tuple(h) for h in r.hits],
                    r.threshold,
                    r.raw_hits,
                    r.dropped_boundary,
                )
                for r in report.results
            ]
            for report in reports
        )
        assert got == expected
        assert any(hits for _id, hits, _h, _raw, _dropped in expected)

    def test_manifest_database_is_in_original_record_order(
        self, database, layouts
    ):
        for layout in ("store", "k1", "k3"):
            service = SearchService(store=layouts[layout])
            assert service.database.text == database.text
            assert service.database.identifiers == database.identifiers
            assert service.total_length == database.total_length
            assert service.record_count == len(database)


class TestShardedBatch:
    def test_batch_report_accounting(self, manifests, queries, unsharded):
        service = ShardedSearchService(manifests[4])
        report = service.search_batch(queries, threshold=THRESHOLD)
        assert isinstance(report, ShardedBatchReport)
        assert len(report.results) == len(queries)
        assert len(report.shard_stats) == 4
        base = unsharded.search_batch(queries, threshold=THRESHOLD)
        assert report.total_hits == base.total_hits
        # Per-shard engine work sums to the batch aggregate.
        assert sum(
            s.calculated for s in report.shard_stats
        ) == report.stats.calculated

    def test_zero_width_shard_timings_guarded(self):
        report = ShardedBatchReport(
            results=[],
            stats=SearchStats(),
            wall_seconds=0.0,
            workers=1,
            executor="threads",
            shard_stats=[SearchStats(), SearchStats()],
            shard_work_seconds=[0.0, 0.0],
        )
        assert report.queries_per_second == 0.0
        assert report.shard_queries_per_second == [0.0, 0.0]

    def test_search_fasta(self, manifests, tmp_path, database, queries):
        path = tmp_path / "q.fa"
        write_fasta(
            [FastaRecord(q.id, q.sequence) for q in queries], path
        )
        service = ShardedSearchService(manifests[2])
        report = service.search_fasta(path, threshold=THRESHOLD)
        direct = service.search_batch(queries, threshold=THRESHOLD)
        assert [r.query_id for r in report.results] == [q.id for q in queries]
        assert report.total_hits == direct.total_hits

    def test_bad_executor_rejected(self, manifests):
        with pytest.raises(ServiceError, match="executor"):
            ShardedSearchService(manifests[2], executor="rocketship")

    def test_fingerprint_mismatch_rejected(self, manifests):
        from repro import PROTEIN

        with pytest.raises(StoreError, match="alphabet"):
            ShardedSearchService(manifests[2], alphabet=PROTEIN)


class TestShardedCli:
    @pytest.fixture()
    def fasta_pair(self, tmp_path, database, queries):
        db_path = tmp_path / "db.fa"
        write_fasta(database.records, db_path)
        query_path = tmp_path / "q.fa"
        write_fasta(
            [FastaRecord(q.id, q.sequence) for q in queries], query_path
        )
        return db_path, query_path

    def test_build_info_verify_sharded(self, tmp_path, fasta_pair, capsys):
        db_path, _ = fasta_pair
        out = tmp_path / "db.idx"
        assert (
            cli_main(
                [
                    "index", "build", str(db_path), "--out", str(out),
                    "--shards", "4",
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "4 shard stores" in err
        assert cli_main(["index", "info", str(out)]) == 0
        info = capsys.readouterr().out
        assert "(sharded)" in info and "shard000" in info
        assert cli_main(["index", "verify", str(out)]) == 0
        assert "shards" in capsys.readouterr().err

    def test_sharded_search_db_matches_plain(
        self, tmp_path, fasta_pair, capsys
    ):
        db_path, query_path = fasta_pair
        out = tmp_path / "db.idx"
        cli_main(
            ["index", "build", str(db_path), "--out", str(out), "--shards", "4"]
        )
        capsys.readouterr()
        assert (
            cli_main(
                ["search-db", str(db_path), str(query_path), "--threshold", "30"]
            )
            == 0
        )
        plain = capsys.readouterr().out
        assert (
            cli_main(
                [
                    "search-db", "--index", str(out), str(query_path),
                    "--threshold", "30",
                ]
            )
            == 0
        )
        indexed = capsys.readouterr().out

        def hit_rows(output):
            return [l for l in output.splitlines() if not l.startswith("#")]

        def hit_counts(output):
            return [
                l.split("hits=")[1]
                for l in output.splitlines()
                if l.startswith("# query=")
            ]

        # Hit rows are bit-identical.  The per-query `dropped=` counters may
        # differ: boundary artifacts depend on which records are adjacent in
        # each concatenation, and shards have different neighbours.
        assert hit_rows(indexed) == hit_rows(plain)
        assert [c.split()[0] for c in hit_counts(indexed)] == [
            c.split()[0] for c in hit_counts(plain)
        ]
        assert any("\t" in row for row in hit_rows(plain))  # hits printed

    def test_sharded_verify_fails_on_flipped_byte(
        self, tmp_path, fasta_pair, capsys
    ):
        db_path, _ = fasta_pair
        out = tmp_path / "db.idx"
        cli_main(
            ["index", "build", str(db_path), "--out", str(out), "--shards", "2"]
        )
        shard = ShardedStore.open(out).shard_path(1)
        raw = bytearray(shard.read_bytes())
        raw[len(raw) // 2] ^= 1
        shard.write_bytes(bytes(raw))
        assert cli_main(["index", "verify", str(out)]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_sharded_index_rejects_other_engines(
        self, tmp_path, fasta_pair, capsys
    ):
        db_path, query_path = fasta_pair
        out = tmp_path / "db.idx"
        cli_main(
            ["index", "build", str(db_path), "--out", str(out), "--shards", "2"]
        )
        assert (
            cli_main(
                [
                    "search-db", "--index", str(out), str(query_path),
                    "--engine", "blast",
                ]
            )
            == 2
        )
        assert "ALAE" in capsys.readouterr().err
