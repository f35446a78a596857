"""Host speed: a fixed reference kernel, timed between the measured segments.

A shared machine changes speed by a fifth or more over tens of seconds while
nothing in the program changes (other tenants' load; steal time stays near
zero).  The offline workload therefore times this kernel in short bursts
between its batches, while the program under test is idle, and scales each
batch's times to the reference host::

    slowness = burst seconds / REFERENCE_S
    reported time = measured time / slowness
    reported rate = measured rate * slowness

The kernel belongs to the benchmark, not to the program, so a change to the
program cannot move it.  It mixes the two kinds of work the engine does: a
pure-Python affine-gap dynamic program (interpreter-bound) and a numpy scan
over a quarter MiB (cache-bound); a sample is the geometric mean of the two.
It is single-process compute, like an offline batch's per-query search, and
tracks it; a served request's time is mostly wake-ups and hand-offs between
processes, which it does not track, so served workloads only record their
bursts.  The measured values and every burst's slowness are kept in the
detail line.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median seconds of one ``sample()`` on the reference host (the 2-vCPU
#: shared VM the benchmark was defined on), so that reported times read as
#: milliseconds on that host.
REFERENCE_S = 0.0050
#: Samples per burst; a burst takes about this many times 10 ms.
SAMPLES = 9

_QUERY = "ACGTTGCAAGCTTACGGATCCGATTACAGGCATTGACCAGTTAGCAGGTACCATGGTTACA"
_TARGET = "ACGTAGCAAGCTTTCGGATCGATTACAGCATTGACCAGTAGCAGGTACATGGTTACAAAT"
#: Small (256 KiB, made in place and without ``numpy.random``, whose import
#: alone costs megabytes) so as not to move the peak memory of the process.
_SYMBOLS = np.arange(1 << 15, dtype=np.int64)
_SYMBOLS *= _SYMBOLS
_SYMBOLS //= 7
_SYMBOLS %= 4


def _local_score(query: str, target: str) -> int:
    """Best local alignment score under <1,-3,-5,-2> (Gotoh, pure Python)."""
    h_row = [0] * (len(target) + 1)
    e_row = [0] * (len(target) + 1)
    best = 0
    for a in query:
        f = diagonal = left = 0
        for j, b in enumerate(target, 1):
            e = max(e_row[j] - 2, h_row[j] - 7)
            e_row[j] = e
            f = max(f - 2, left - 7)
            h = max(0, diagonal + (1 if a == b else -3), e, f)
            diagonal, h_row[j], left = h_row[j], h, h
            best = max(best, h)
    return best


def _scan(symbols: np.ndarray) -> int:
    prefix = np.cumsum(symbols)
    return int(np.searchsorted(prefix, prefix[::61]).sum())


def sample() -> float:
    """Seconds of one kernel run: geometric mean of its two halves."""
    start = time.perf_counter()
    _local_score(_QUERY, _TARGET)
    middle = time.perf_counter()
    for _ in range(48):
        _scan(_SYMBOLS)
    end = time.perf_counter()
    return ((middle - start) * (end - middle)) ** 0.5


def burst() -> float:
    """Slowness of the host now: median of ``SAMPLES`` samples over ``REFERENCE_S``."""
    return statistics.median(sample() for _ in range(SAMPLES)) / REFERENCE_S


class HostSpeed:
    """Bursts taken between measured segments, in order."""

    def __init__(self) -> None:
        self.bursts: list[float] = []

    def mark(self) -> None:
        """Take a burst; call it before the first segment and after each one."""
        self.bursts.append(burst())

    def last_segment(self) -> float:
        """Slowness for the segment between the last two bursts."""
        return (self.bursts[-2] + self.bursts[-1]) / 2
