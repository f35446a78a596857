"""Benchmark of record: cached protein served, offline 320k DNA (and, by hand, served sharded DNA).

Usage (from the repository root)::

    python3 perfbench/run.py --workload served-protein-cached --seed 20120827 \\
        --seconds 40 --trace 0

The run builds its inputs from ``--seed``, builds the program's stores from
them, computes a reference answer for every query (a monolithic
``SearchService``, itself checked against Smith-Waterman on a few queries),
measures, checks every answer against the reference, and prints one JSON
object as the last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (tracing off); ``--trace 1``
runs the per-layer probes and a traced load run and reports the per-layer
metrics instead.  The line before it is a ``{"detail": ...}`` object with
per-phase accounting, the exact work counts and the schedule digest that
``selfcheck.py`` compares between two runs of one seed.  A wrong answer, or
a refused or failed request, makes the run exit 1; a failed server, or an
open-loop phase that ends with a growing backlog, makes it exit 3 without a
result.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
#: Wall-clock budget for the offline worker, well inside a run's limit.
WORKER_TIMEOUT = 150.0


#: Per-layer metrics that count work rather than time it: for one seed they
#: must repeat exactly (``selfcheck.py`` compares them between two runs).
EXACT_COUNTS = frozenset(
    [f"core.{name}" for name in (
        "nodes", "x1", "x2", "x3", "reused", "reusing_ratio", "forks_seeded",
        "forks_skipped_domination", "forks_skipped_global", "grams_absent",
        "raw_hits", "entries_over_bound",
    )]
    + ["service.hits", "service.dropped_boundary", "sharded.k4_nodes", "sharded.k4_x1", "sharded.work_ratio"]
)


class BenchmarkFailure(Exception):
    """The run cannot report valid numbers (server failure, backlog)."""


def hit_key(hit) -> tuple:
    """A located hit as ``(sequence, t_start, t_end, p_end, score)``."""
    if isinstance(hit, (list, tuple)):
        return tuple(hit[:5])
    return (hit.sequence_id, hit.t_start, hit.t_end, hit.p_end, hit.score)


def p95(values: list[float]) -> float:
    """The 95th percentile, interpolated between the closest ranks."""
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def cpu_times() -> list[int] | None:
    """The aggregate ``cpu`` line of ``/proc/stat`` (None where there is none)."""
    try:
        with open("/proc/stat") as stat:
            return [int(field) for field in stat.readline().split()[1:]]
    except OSError:
        return None


def segments(items: list, count: int) -> list[list]:
    """``items`` cut into ``count`` (at most one per item) consecutive near-equal parts."""
    count = min(count, len(items))
    edges = [round(k * len(items) / count) for k in range(count + 1)]
    return [items[edges[k] : edges[k + 1]] for k in range(count)]


def disk_bytes(index: Path) -> int:
    """Bytes on disk of a store, or of a manifest plus its shard stores."""
    from repro.store import is_manifest, read_manifest

    if not is_manifest(index):
        return index.stat().st_size
    shards = read_manifest(index)["shards"]
    return index.stat().st_size + sum((index.parent / s["path"]).stat().st_size for s in shards)


class Run:
    def __init__(self, spec: dict, seed: int, seconds: float, trace: bool, tmp: Path) -> None:
        from data import make_inputs
        from hostspeed import HostSpeed
        from tracer import Tracer

        self.spec = spec
        self.seconds = seconds
        self.trace = trace
        self.tmp = tmp
        self.tracer = Tracer()
        self.speed = HostSpeed()
        self.inputs = make_inputs(spec, seed, seconds)
        self.text_chars = sum(len(r.sequence) for r in self.inputs.records)
        self.metrics: dict[str, float] = {}
        self.counts: dict[str, float] = {"schedule_digest": self.inputs.schedule_digest()}
        self.phases: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reference: dict[int, frozenset] = {}
        self.notes: list[str] = []
        self.stderr_tail = ""

    # ------------------------------------------------------------ set-up
    def _build(self, directory: Path) -> Path:
        from repro import IndexStore, ShardedStore

        inputs = self.inputs
        kwargs = {"alphabet": inputs.alphabet, "scheme": inputs.scheme}
        with self.tracer.span("store.build"):
            if self.spec["shards"]:
                index = directory / "db.shd"
                ShardedStore.build(inputs.records, index, shards=self.spec["shards"], **kwargs)
            else:
                index = directory / "db.idx"
                IndexStore.build(inputs.records, **kwargs).save(index)
        with self.tracer.span("store.open"):
            if self.spec["shards"]:
                ShardedStore.open(index).stores()
            else:
                IndexStore.open(index).database()
        return index

    def setup_served(self):
        from served import ServedChild

        child = None
        for rep in range(self.spec["setup_repeats"]):
            if child is not None:
                child.stop()
            directory = self.tmp / f"setup{rep}"
            directory.mkdir()
            with self.tracer.span("setup"):
                index = self._build(directory)
                args = [
                    *self.spec["serve_args"],
                    "--workers", str(self.spec["workers"]),
                    "--executor", self.spec["executor"],
                ]
                if self.spec["request_log"]:
                    args += ["--request-log", str(directory / "reqlog.db")]
                with self.tracer.span("server.start"):
                    child = ServedChild(index, args, SRC)
                    try:
                        child.wait_ready()
                    except BaseException:
                        child.kill()
                        raise
        return index, child

    def setup_offline(self) -> Path:
        from repro import SearchService

        for rep in range(self.spec["setup_repeats"]):
            directory = self.tmp / f"setup{rep}"
            directory.mkdir()
            with self.tracer.span("setup"):
                index = self._build(directory)
                with self.tracer.span("service.open"):
                    SearchService(store=index)
        return index

    def record_setup(self, index: Path) -> None:
        self.metrics["setup_s"] = statistics.median(self.tracer.durations("setup"))
        self.metrics["index_bytes_per_char"] = disk_bytes(index) / self.text_chars
        self.counts["index_bytes"] = disk_bytes(index)
        if self.trace:
            self.metrics["store.build_s"] = statistics.median(self.tracer.durations("store.build"))
            self.metrics["store.open_ms"] = statistics.median(self.tracer.durations("store.open")) * 1e3

    # --------------------------------------------------------- reference
    def build_reference(self, store: Path | None) -> Path:
        """Monolithic ``SearchService`` answers for every query used; SW oracle on a few."""
        from repro import IndexStore, SearchService, smith_waterman_all_hits

        inputs = self.inputs
        if store is None:
            store = self.tmp / "reference.idx"
            IndexStore.build(inputs.records, alphabet=inputs.alphabet, scheme=inputs.scheme).save(store)
        used = sorted(
            set(inputs.warmup) | set(inputs.open_requests) | set(inputs.closed_requests) | set(inputs.probe)
        )
        service = SearchService(store=store)
        # A reference must not run the configuration it checks: the offline
        # workload searches with processes x2, so its reference runs threads
        # x1; served answers come through the server, so theirs may use both
        # cores and take less of the run.
        pool = (1, "threads") if self.spec["kind"] == "offline" else (2, "processes")
        with self.tracer.span("reference.service", queries=len(used)):
            report = service.search_batch(
                [(f"q{i}", inputs.queries[i]) for i in used], threshold=inputs.threshold,
                workers=pool[0], executor=pool[1],
            )
        raw = {}
        for i, result in zip(used, report.results):
            self.reference[i] = frozenset(hit_key(h) for h in result.hits)
            raw[i] = result.raw_hits
        # The oracle checks the queries with the most raw hits (ties: lowest
        # index), so the exact-match check has hits to compare.
        oracle = sorted(used, key=lambda i: (-raw[i], i))[: self.spec["oracle_queries"]]
        engine = IndexStore.open(store).engine()
        text = service.database.text
        mismatches = 0
        with self.tracer.span("reference.oracle", queries=len(oracle)):
            for i in oracle:
                query = inputs.queries[i]
                alae = engine.search(query, threshold=inputs.threshold).hits.as_score_set()
                truth = smith_waterman_all_hits(text, query, inputs.scheme, inputs.threshold).as_score_set()
                mismatches += alae != truth
        self.counts["oracle_queries"] = len(oracle)
        self.counts["oracle_raw_hits"] = sum(raw[i] for i in oracle)
        self.counts["reference_hits"] = sum(len(v) for v in self.reference.values())
        self.attempted += len(oracle)
        self.wrong += mismatches
        if mismatches:
            self.notes.append(f"{mismatches} ALAE answers differ from Smith-Waterman")
        return store

    def check(self, query: int, hits) -> bool:
        return frozenset(hit_key(h) for h in hits) == self.reference[query]

    # ------------------------------------------------------- layer probes
    def probe_layers(self, store: Path) -> None:
        from repro import IndexStore
        import layers

        inputs = self.inputs
        queries = [inputs.queries[i] for i in inputs.probe]
        engine = IndexStore.open(store).engine()
        out = layers.probe_index(self.tracer, engine, queries, inputs.scheme.q)
        out.update(layers.probe_core(self.tracer, engine, queries, inputs.threshold, inputs.scheme, inputs.alphabet.size))
        out.update(layers.probe_service(self.tracer, store, queries, inputs.threshold))
        if self.spec.get("sharded_probes"):
            out.update(layers.probe_sharded(
                self.tracer, inputs.records, self.tmp, queries, inputs.threshold,
                inputs.alphabet, inputs.scheme, out["count.core.nodes_total"],
            ))
        for name, value in out.items():
            if name.startswith("count."):
                self.counts[name[len("count."):]] = value
            else:
                self.metrics[name] = value
                if name in EXACT_COUNTS:
                    self.counts[name] = value

    # ------------------------------------------------------------ served
    def measure_served(self, index: Path, child) -> None:
        from config import CLOSED_INFLIGHT, CONNECTIONS
        from repro.server import ServerClient
        from served import HOST, LoadGenerator, sequential, vm_hwm_mb

        inputs = self.inputs
        spec = self.spec
        client = ServerClient(HOST, child.port, timeout=60.0)
        with client:
            # One request in flight over the probe queries: warms the server
            # up before the measured phases and, in a traced run, gives the
            # server's own overhead per request.
            with self.tracer.span("server.sequential"):
                served, hits = sequential(child.port, inputs.queries, inputs.probe, inputs.threshold)
            for query, answer in zip(inputs.probe, hits):
                self.attempted += 1
                self.wrong += not self.check(query, answer)
            self.phases["one_in_flight"] = {"sent": len(served), "qps": len(served) / sum(served)}
            if self.trace:
                self._probe_server(index, client, served)
            generator = LoadGenerator(child.port, inputs.queries, inputs.threshold, CONNECTIONS)
            # The hot pool, once each and untimed: the measured phases then
            # find it in the cache and repeat it at the same share.
            warmed = []
            if inputs.warmup:
                warmed, warm_wall = asyncio.run(generator.closed_loop(inputs.warmup, CLOSED_INFLIGHT))
                self._account("warmup", warmed, warm_wall)
            before = self._server_state(client)
            parts = self._open_phase(generator)
            opened = [outcome for part, _ in parts for outcome in part]
            middle = self._server_state(client)
            closed, closed_wall = self._closed_phase(generator)
            after = self._server_state(client)
            if spec["request_log"]:
                logged = len(served) + len(warmed) + len(opened) + len(closed)
                after["stats"]["request_log"] = self._drained_request_log(client, logged)
        self.metrics["rss_mb"] = vm_hwm_mb(child.proc.pid)
        child.stop()
        self.stderr_tail = child.stderr_tail()

        open_ok = self._account("open", opened, sum(wall for _, wall in parts))
        self._check_backlog(opened, [part for part, _ in parts])
        closed_ok = self._account("closed", closed, closed_wall)
        for phase, requests in (("open", inputs.open_requests), ("closed", inputs.closed_requests)):
            self.counts[f"repeat_share.{phase}"] = inputs.repeat_share(requests)
        latencies = [o.latency for o in opened]
        tail = p95(latencies)
        self.metrics["p50_ms"] = statistics.median(latencies) * 1e3
        self.metrics["p95_ms"] = tail * 1e3
        # p95_ms is a per-layer metric: on a shared machine its run-to-run
        # spread is wider than the largest bound BENCHMARK.json may set.  An
        # untraced run still records it in the detail line.
        self.phases["open"]["p95_ms"] = self.metrics["p95_ms"]
        beyond = sum(1 for v in latencies if v > tail)
        self.phases["open"]["samples_beyond_p95"] = beyond
        if beyond < 10:
            self.notes.append(f"only {beyond} samples beyond p95 in the open loop")
        self.metrics["throughput_qps"] = len(closed) / closed_wall
        lateness = [o.sent - o.due for o in opened]
        self.phases["open"]["gen_late_p95_ms"] = p95(lateness) * 1e3
        if self.trace:
            self._server_metrics(before, middle, after, opened, closed_wall, lateness, open_ok + closed_ok)

    def _open_phase(self, generator):
        """The open loop in segments, each followed by a drain and a host-speed burst.

        A segment starts with an empty queue, so a stall of the machine
        delays the rest of its own segment, not the rest of the phase; its
        due times start afresh, so the pause adds no lateness.  Returns each
        segment's outcomes and wall time.
        """
        from config import SEGMENTS

        inputs = self.inputs
        parts = []
        self.speed.mark()
        for part in segments(list(zip(inputs.open_requests, inputs.open_due)), SEGMENTS):
            first = part[0][1]
            with self.tracer.span("phase.open"):
                parts.append(asyncio.run(generator.open_loop(
                    [query for query, _ in part], [due - first for _, due in part], trace=self.trace
                )))
            self.speed.mark()
        return parts

    def _closed_phase(self, generator):
        """The closed loop in segments, each kept ``CLOSED_INFLIGHT`` deep; outcomes and wall."""
        from config import CLOSED_INFLIGHT, SEGMENTS

        outcomes, wall = [], 0.0
        for requests in segments(self.inputs.closed_requests, SEGMENTS):
            with self.tracer.span("phase.closed"):
                got, seconds = asyncio.run(generator.closed_loop(requests, CLOSED_INFLIGHT))
            self.speed.mark()
            outcomes += got
            wall += seconds
        return outcomes, wall

    def _account(self, phase: str, outcomes, wall: float) -> int:
        ok = wrong = refused = failed = 0
        for outcome in outcomes:
            if outcome.status == "ok":
                if self.check(outcome.query, outcome.hits):
                    ok += 1
                else:
                    wrong += 1
            elif outcome.status == "overloaded":
                refused += 1
            else:
                failed += 1
        self.phases[phase] = {
            "sent": len(outcomes), "completed": ok + wrong, "correct": ok,
            "wrong": wrong, "refused": refused, "failed": failed,
            "wall_s": wall,
            "cache_hit_rate": sum(o.cached for o in outcomes) / len(outcomes),
        }
        self.attempted += len(outcomes)
        self.failed += refused + failed
        self.wrong += wrong
        return ok

    def _check_backlog(self, opened, parts) -> None:
        """Refuse to report latency when the open loop fell behind for good."""
        quarter = max(1, len(opened) // 4)
        first = statistics.median(o.latency for o in opened[:quarter])
        last = statistics.median(o.latency for o in opened[-quarter:])
        # Requests still outstanding when a segment's last one was sent.
        backlog = max(
            sum(1 for o in part if o.done > max(o.sent for o in part)) for part in parts
        )
        self.phases["open"]["backlog_at_end"] = backlog
        self.phases["open"]["p50_by_quarter_ms"] = [
            statistics.median(o.latency for o in opened[i * quarter : (i + 1) * quarter]) * 1e3
            for i in range(4)
        ]
        if last > 3 * first + 0.05 or backlog > max(10, len(opened) // (10 * len(parts))):
            raise BenchmarkFailure(
                f"open-loop backlog: median latency {first * 1e3:.1f} ms in the first "
                f"quarter, {last * 1e3:.1f} ms in the last; {backlog} requests "
                f"outstanding at a segment's last send"
            )

    @staticmethod
    def _server_state(client) -> dict:
        return {"stats": client.stats()["stats"], "metrics": client.metrics()["families"]}

    @staticmethod
    def _drained_request_log(client, queries: int) -> dict:
        """The request log's counters once its writer has caught up (or 5 s passed)."""
        deadline = time.monotonic() + 5.0
        while True:
            counters = client.stats()["stats"]["request_log"]
            done = counters.get("written", 0) + counters.get("dropped", 0)
            if done >= queries or time.monotonic() > deadline:
                return counters
            time.sleep(0.05)

    def _probe_server(self, index: Path, client, served: list[float]) -> None:
        from repro.server.server import open_serving_service

        inputs = self.inputs
        for _ in range(50):
            with self.tracer.span("server.ping"):
                client.ping()
        pings = self.tracer.durations("server.ping")
        self.metrics["server.wire.ping_rtt_ms"] = statistics.median(pings) * 1e3
        service, _epoch = open_serving_service(index, workers=self.spec["workers"], executor=self.spec["executor"])
        for query in inputs.probe:
            with self.tracer.span("server.matching_service"):
                service.search_batch([(f"q{query}", inputs.queries[query])], threshold=inputs.threshold)
        alone = self.tracer.durations("server.matching_service")
        self.metrics["server.overhead_ms"] = (statistics.median(served) - statistics.median(alone)) * 1e3

    def _server_metrics(self, before, middle, after, opened, closed_wall, lateness, completed) -> None:
        def batched(state):
            stats = state["stats"]
            return stats["mean_batch_size"] * stats["batches_total"], stats["batches_total"]

        def span(state, name):
            return state["stats"]["spans_seconds"].get(name, 0.0)

        def family_sum(state, name):
            for family in state["metrics"]:
                if family["name"] == name:
                    return sum(sample.get("sum", 0.0) for sample in family["samples"])
            return 0.0

        q0, b0 = batched(before)
        q1, b1 = batched(middle)
        q2, b2 = batched(after)
        m = self.metrics
        m["server.batcher.mean_batch_size.open"] = (q1 - q0) / max(1, b1 - b0)
        m["server.batcher.mean_batch_size.closed"] = (q2 - q1) / max(1, b2 - b1)
        m["server.batcher.admission_wait_ms"] = (span(middle, "admission_wait") - span(before, "admission_wait")) * 1e3 / max(1.0, q1 - q0)
        m["server.batcher.linger_ms"] = (span(middle, "batch_linger") - span(before, "batch_linger")) * 1e3 / max(1, b1 - b0)
        # Monolithic services record engine seconds in the server process;
        # a sharded service's engines may run in forked workers, so its
        # parent-side per-shard seconds stand in for them.
        family = "repro_sharded_shard_seconds" if self.spec["shards"] else "repro_service_engine_seconds"
        m["server.engine_busy_frac"] = (family_sum(after, family) - family_sum(middle, family)) / closed_wall
        hits = after["stats"]["cache_hits"] - before["stats"]["cache_hits"]
        misses = after["stats"]["cache_misses"] - before["stats"]["cache_misses"]
        m["server.cache.hit_rate"] = hits / max(1, hits + misses)
        m["server.overloaded"] = after["stats"]["overloaded_total"] - before["stats"]["overloaded_total"]
        reqlog = after["stats"].get("request_log", {})
        m["server.reqlog.written"] = reqlog.get("written", 0)
        m["server.reqlog.dropped"] = reqlog.get("dropped", 0)
        m["bench.gen_late_p95_ms"] = p95(lateness) * 1e3
        m["bench.sent"] = self.phases["open"]["sent"] + self.phases["closed"]["sent"]
        m["bench.completed"] = completed
        traced = [o.latency for o in opened if o.traced and o.status == "ok"]
        plain = [o.latency for o in opened if not o.traced and o.status == "ok"]
        m["bench.tracing_overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0

    # ----------------------------------------------------------- offline
    def measure_offline(self, index: Path) -> None:
        inputs = self.inputs
        job = {
            "store": str(index),
            "queries": [[f"q{i}", inputs.queries[i]] for i in inputs.closed_requests],
            "threshold": inputs.threshold,
            "workers": self.spec["workers"],
            "executor": self.spec["executor"],
            "seconds": self.seconds,
        }
        job_path = self.tmp / "offline-job.json"
        out_path = self.tmp / "offline-out.json"
        job_path.write_text(json.dumps(job))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with self.tracer.span("phase.offline"):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("offline_worker.py")), str(job_path), str(out_path)],
                env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT,
            )
        self.stderr_tail = proc.stderr[-2000:]
        if proc.returncode != 0:
            raise BenchmarkFailure(f"offline worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        out = json.loads(out_path.read_text())
        per_query: list[float] = []
        qps: list[float] = []
        for number, batch in enumerate([out["warmup"], *out["batches"]]):
            outcomes = [
                (query, hits) for query, hits in zip(inputs.closed_requests, batch["hits"])
            ]
            wrong = sum(not self.check(query, hits) for query, hits in outcomes)
            self.attempted += len(outcomes)
            self.wrong += wrong
            if number:  # the warm-up batch is checked, not timed
                slowness = batch["slowness"]
                per_query.extend(seconds / slowness for seconds in batch["per_query_s"])
                qps.append(len(outcomes) / batch["wall"] * slowness)
        self.phases["offline"] = {"batches": len(out["batches"]), "queries_per_batch": len(inputs.closed_requests)}
        self.metrics["throughput_qps"] = statistics.median(qps)
        self.metrics["p50_ms"] = statistics.median(per_query) * 1e3
        self.phases["offline"]["measured_p50_ms"] = statistics.median(
            seconds for batch in out["batches"] for seconds in batch["per_query_s"]
        ) * 1e3
        self.phases["offline"]["measured_qps"] = statistics.median(
            len(inputs.closed_requests) / batch["wall"] for batch in out["batches"]
        )
        self.speed.bursts += out["bursts"]
        self.metrics["p95_ms"] = p95(per_query) * 1e3
        self.phases["offline"]["p95_ms"] = self.metrics["p95_ms"]
        self.metrics["rss_mb"] = out["vm_hwm_mb"]

    # --------------------------------------------------------------- run
    def execute(self) -> None:
        before = cpu_times()
        self._execute()
        after = cpu_times()
        if before and after:
            # Time the hypervisor gave the box's CPUs to someone else: a
            # noisy neighbour shows here, not in the program's counters.
            total = sum(after) - sum(before)
            self.phases["machine"] = {"steal_share": (after[7] - before[7]) / total if total else 0.0}
        self.phases.setdefault("machine", {})["slowness"] = self.speed.bursts

    def _execute(self) -> None:
        if self.spec["kind"] == "served":
            index, child = self.setup_served()
            try:
                self.record_setup(index)
                self.build_reference(None)
                if self.trace:
                    self.probe_layers(self.tmp / "reference.idx")
                self.measure_served(index, child)
            finally:
                child.kill()
        else:
            index = self.setup_offline()
            self.record_setup(index)
            self.build_reference(index)
            if self.trace:
                self.probe_layers(index)
            self.measure_offline(index)
        errors = self.failed + self.wrong
        self.metrics["ok_rate"] = 1.0 - errors / self.attempted
        self.metrics["bench.error_rate"] = errors / self.attempted


def report(run: Run, names: dict[str, str]) -> dict:
    metrics = {}
    for name, unit in names.items():
        # Layers a workload does not exercise (no shards, no server) are
        # reported as 0 and listed under "not_applicable" in the detail.
        value = run.metrics.get(name)
        if value is None:
            run.counts.setdefault("not_applicable", []).append(name)
            value = 0
        metrics[name] = {"value": value, "unit": unit}
    return {
        # A refused or failed request is an error like a wrong answer: at
        # the load the benchmark offers, every request must be answered.
        "correct": run.wrong == 0 and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed + run.wrong,
        "metrics": metrics,
    }


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="input seed (default: config.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=40.0, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    benchmark = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not benchmark.is_file():
        print(f"error: no package sources under {SRC} (run from a full checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from config import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    contract = json.loads(benchmark.read_text())
    names = {m["name"]: m["unit"] for m in contract["per_layer" if args.trace else "end_to_end"]}
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    started = time.perf_counter()
    try:
        run = Run(WORKLOADS[args.workload], seed, args.seconds, bool(args.trace), tmp)
        run.execute()
    except BenchmarkFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # The run's boundary: any failure of the program under test (a crashed
    # server, a broken pipe) ends the run without a result, with its
    # traceback on stderr.
    except Exception:
        traceback.print_exc()
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.trace:
        run.tracer.write(OUT / f"trace-{args.workload}-{seed}.json")
    result = report(run, names)
    detail = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "run_wall_s": time.perf_counter() - started, "phases": run.phases,
        "counts": run.counts, "notes": run.notes,
        "child_stderr_tail": run.stderr_tail.splitlines()[-10:],
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    if run.notes or not result["correct"]:
        print("\n".join(run.notes), file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
