"""The reference job that measures the machine's current speed.

    python3 benchmarks/reference.py

It runs none of spikegrow's code and runs in a process of its own, so
nothing the program does in the benchmark's process (BLAS thread counts,
garbage-collector settings, heap state) can change its time. It reads one
line per request on stdin and answers each with one JSON line,
`{"seconds": <time of one job>}`; it exits when stdin closes.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

RNG = np.random.default_rng(0)
A, B = RNG.random((1000, 100)), RNG.random((1000, 10))
DRIVE = RNG.random(20_000)
RECORDS = [[i, [i % 7, i % 11, i % 13]] for i in range(6_000)]


def job() -> float:
    """Seconds of one fixed job that mixes the kinds of work the workloads
    do: an interpreter loop, a numpy element-wise recurrence, BLAS least
    squares and JSON encoding."""
    start = time.perf_counter()
    total = 0
    for i in range(1_200_000):
        total += i
    u = np.zeros_like(DRIVE)
    for _ in range(900):
        u = 0.9 * u + DRIVE - (u >= 1.0)
    for _ in range(18):
        np.linalg.lstsq(A, B, rcond=None)
    for _ in range(6):
        json.loads(json.dumps(RECORDS))
    return time.perf_counter() - start


def main() -> int:
    job()  # warm up: first calls into numpy and BLAS are slower
    for _ in sys.stdin:
        print(json.dumps({"seconds": job()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
