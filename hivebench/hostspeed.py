"""Host speed, measured beside a worker so that its timings can be put at a
fixed speed.

The shared host the benchmark runs on changes speed by up to 2x within
seconds.  The parent process (run.py) times a fixed pure-Python loop that
touches nothing of hivealg, at most every PAUSE_INTERVAL_S while the worker
waits between two operations, and each operation's latency is scaled by
REFERENCE_S over the loop's median time around it.  The loop runs in another
process and only while the worker is blocked, so nothing the library does
while it works can slow the loop and be scaled away.

Worker and parent talk over two pipes: the worker writes one byte and
blocks reading the reply; the parent times the loop and replies.  Each timed
segment of an operation records how many loops had been timed before it
started.
"""

from __future__ import annotations

import os
import select
import statistics
import time

PAUSE_INTERVAL_S = 0.05
# Loop times on each side of an operation that its scale is taken from: at
# one pause per 50 ms, about half a second before and half a second after.
WINDOW = 10
# Median time of reference_loop on the 2-core Xeon host (Python 3.11.7) the
# bounds were set on, in its usual state; scaled times read close to that
# host's wall-clock times.
REFERENCE_S = 0.0048


def reference_loop() -> float:
    """Seconds taken by a fixed loop that fills a dict of 3,000 tuple keys,
    looks them up and sorts it.

    The host's slow spells slow code with a small working set more than
    hivealg's, whose caches and polynomials are larger.  An earlier loop of
    about 1 ms of small dict and tuple work slowed 1.8x where the library's
    kernels slowed 1.4x to 1.6x, so scaling by it over-corrected.  Fitted in one process over
    150 s, log(kernel time) against log(this loop's time) has slope 0.91
    for a series kernel and 1.01 to 1.06 for the tensor, decompose and lift
    kernels."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(3000):
        table[(i * 7919) % 10007, i % 13] = i
    total = 0
    for i in range(3000):
        total += table.get(((i * 31) % 10007, i % 13), 0)
    sorted(table.items())
    return time.perf_counter() - start


class Pacer:
    """Worker side.  `fds` is "READ,WRITE", the pipe ends run.py passed in,
    or None to run unpaced."""

    def __init__(self, fds: str | None):
        self.fds = tuple(int(f) for f in fds.split(",")) if fds else None
        self.loops = 0          # loops the parent has timed so far
        self.last = float("-inf")

    def pause(self, times: int = 1) -> None:
        if self.fds is None:
            return
        for _ in range(times):
            os.write(self.fds[1], b".")
            if os.read(self.fds[0], 1) != b".":
                raise SystemExit("the benchmark's parent process stopped replying")
            self.loops += 1
        self.last = time.perf_counter()

    def between_ops(self) -> None:
        if time.perf_counter() - self.last >= PAUSE_INTERVAL_S:
            self.pause()

    def close(self) -> None:
        """Tell the parent that no more pauses come (it sees end of file)."""
        if self.fds is not None:
            os.close(self.fds[1])
            self.fds = None


def serve(request_fd: int, reply_fd: int, deadline: float) -> list[float]:
    """Parent side: time the loop at every pause until the worker closes its
    end.  Returns the loop times in order, or raises TimeoutError once the
    monotonic clock passes `deadline`."""
    samples = []
    while True:
        remaining = deadline - time.monotonic()
        ready, _, _ = select.select([request_fd], [], [], max(0.0, remaining))
        if not ready:
            raise TimeoutError
        if not os.read(request_fd, 1):
            return samples
        samples.append(reference_loop())
        os.write(reply_fd, b".")


def scale(samples: list[float], loops_before: int) -> float:
    """Factor that puts a time measured after `loops_before` loop timings at
    reference speed: REFERENCE_S over the median of the WINDOW loop times
    before it and the WINDOW after it."""
    near = samples[max(0, loops_before - WINDOW):loops_before + WINDOW]
    return REFERENCE_S / statistics.median(near)
