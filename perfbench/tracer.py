"""Benchmark-side spans: wall time around each call into a layer.

Spans live in memory (name, start, end, parent) and are written out once,
when the run ends.  The program is not instrumented from here; a span only
brackets a public call the benchmark makes.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> float:
        """Total wall time of every closed span called ``name``."""
        return sum(self.durations(name))

    def durations(self, name: str) -> list[float]:
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and s["end"] is not None
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans, indent=1))
