"""Seeded inputs: database records, queries, request order and arrival times.

The same ``(workload, seed, seconds)`` always gives the same inputs; the
program under test only ever sees the generated records and queries.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from repro import DNA, PROTEIN, DEFAULT_SCHEME, ScoringScheme, make_workload
from repro.io.fasta import FastaRecord

from config import RECORDS


@dataclass
class Inputs:
    records: list[FastaRecord]
    #: Distinct queries; ``requests`` and ``probe`` index into this list.
    queries: list[str]
    #: Queries sent once, untimed, before the measured phases (the hot pool).
    warmup: list[int]
    #: Query index of each request, open-loop phase then closed-loop phase.
    open_requests: list[int]
    closed_requests: list[int]
    #: Seconds after the phase start at which each open-loop request is due.
    open_due: list[float]
    #: Queries for the per-layer probes (and the one-in-flight server probe).
    probe: list[int]
    alphabet: object
    scheme: ScoringScheme
    threshold: int

    def repeat_share(self, requests: list[int]) -> float:
        """Share of ``requests`` whose query was sent before (warm-up included)."""
        seen = set(self.warmup)
        repeats = 0
        for query in requests:
            repeats += query in seen
            seen.add(query)
        return repeats / len(requests) if requests else 0.0

    def schedule_digest(self) -> str:
        """A digest of every request and due time: equal seeds, equal digest."""
        body = json.dumps(
            [
                self.warmup,
                self.open_requests,
                self.closed_requests,
                [round(due, 9) for due in self.open_due],
                self.probe,
            ]
        ).encode()
        return hashlib.sha256(body).hexdigest()[:16]


def split_records(text: str, count: int) -> list[FastaRecord]:
    """Cut the text into ``count`` records of near-equal length."""
    piece = len(text) // count
    return [
        FastaRecord(
            f"chr{i + 1}",
            text[i * piece : len(text) if i == count - 1 else (i + 1) * piece],
        )
        for i in range(count)
    ]


def make_inputs(spec: dict, seed: int, seconds: float) -> Inputs:
    alphabet = PROTEIN if spec["alphabet"] == "protein" else DNA
    scheme = DEFAULT_SCHEME if spec["scheme"] is None else ScoringScheme(*spec["scheme"])
    lo, hi = spec["query_range"]
    rng = np.random.default_rng([seed, 11])
    probe_count = spec["probe_queries"]
    warmup: list[int] = []
    if spec["kind"] == "offline":
        count = spec["batch_queries"]
        open_requests: list[int] = []
        open_due: list[float] = []
        closed_requests = list(range(count))
        probe = list(range(probe_count))
    else:
        rate = spec["open_rate_qps"]
        open_due = arrivals(rng, rate, int(round(rate * seconds * spec["open_share"])))
        closed_count = int(round(spec["closed_requests_per_second"] * seconds))
        total = len(open_due) + closed_count
        if spec["repeat_share"]:
            # The hot pool takes the first query indices and is sent once,
            # untimed, before the phases; every later draw from it repeats.
            pool = spec["hot_pool"]
            warmup = list(range(pool))
            weights = np.arange(1, pool + 1, dtype=float) ** -spec["repeat_skew"]
            # Each phase gets exactly its share of repeats, at seeded places:
            # p50 then sits at a fixed rank among the (slower) fresh queries
            # rather than wherever one seed's luck puts the hit/miss boundary.
            repeats = np.concatenate([
                rng.permutation(size) < round(spec["repeat_share"] * size)
                for size in (len(open_due), closed_count)
            ])
            hot = rng.choice(pool, size=total, p=weights / weights.sum())
            fresh = iter(range(pool, pool + total))
            order = [int(h) if r else next(fresh) for r, h in zip(repeats, hot)]
            count = pool + int((~repeats).sum()) + probe_count
        else:
            # One distinct query per request, then the probe queries.
            order = list(range(total))
            count = total + probe_count
        open_requests = order[: len(open_due)]
        closed_requests = order[len(open_due) :]
        # Probe queries sit past every request's index, so a probe never
        # warms the server's cache for the measured phases.
        probe = list(range(count - probe_count, count))
    workload = make_workload(
        spec["text_length"],
        hi,
        query_count=count,
        alphabet=alphabet,
        seed=seed,
        query_length_range=(lo, hi),
        cached=False,
    )
    return Inputs(
        records=split_records(workload.text, RECORDS),
        queries=workload.queries,
        warmup=warmup,
        open_requests=open_requests,
        closed_requests=closed_requests,
        open_due=open_due,
        probe=probe,
        alphabet=alphabet,
        scheme=scheme,
        threshold=spec["threshold"],
    )


#: Shape of the gamma-distributed gaps between arrivals.  Shape 1 would be a
#: Poisson process; shape 4 (gaps with a coefficient of variation of 0.5)
#: keeps arrivals independent of the server but less bursty, so the tail
#: latency measures the server more than the luck of one seed's bursts.
GAP_SHAPE = 4.0


def arrivals(rng: np.random.Generator, rate: float, count: int) -> list[float]:
    """Due times of ``count`` arrivals at mean ``rate`` per second."""
    gaps = rng.gamma(GAP_SHAPE, 1.0 / (rate * GAP_SHAPE), size=count)
    return np.cumsum(gaps).tolist()
