"""Reference-speed clock for the benchmark's timings.

On a shared host the processor's speed changes by up to 1.7x, from one
second to the next, as neighbours' load comes and goes.  A wall-clock
rate then measures the host as much as the library.  `SpeedMeter`
removes that factor.  While it runs, a SIGALRM timer interrupts the
program every `interval` seconds and runs a fixed pure-Python reference
chunk in the main thread (no thread is started), recording how long the
chunk took.  The chunk samples the machine's speed at the same moments
as the code being timed.

`timed(fn, *args)` calls fn and records its region.  After the meter
has stopped, `ref_times()` gives each region's time in reference
seconds: its wall time minus the time spent in chunks, times the
chunk's nominal time (CHUNKS) over its mean time in the region.  A
region too short to hold MIN_CHUNKS chunks, such as one request, uses
the mean of the MIN_CHUNKS chunks centred on its end.  A reference
second is thus the time the region would take on a machine on which the
chunk takes its nominal time; the library's own cost scales it in full,
the host's speed of the moment does not.
"""

from __future__ import annotations

import argparse
import signal
import time
from array import array

MIN_CHUNKS = 16
WARMUP_CHUNKS = 40


def interpreter_chunk() -> int:
    """Fixed interpreter work: small tuples, a dict, a generator."""
    seen: dict[tuple[int, ...], int] = {}
    acc = 0
    for _ in range(40):
        for a in range(1, 3):
            for b in range(a + 1, 4):
                for c in range(b + 1, 5):
                    for d in range(c + 1, 6):
                        t = (a, b, c, d)
                        seen[t] = seen.get(t, 0) + 1
                        acc += sum(x for x in t if x & 1)
    return acc


def argparse_chunk() -> argparse.Namespace:
    """Build a small two-command argparse parser and parse one command
    line, the fixed cost that most of a command-line request is made of."""
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="command", required=True)
    convert = sub.add_parser("convert")
    convert.add_argument("--from", dest="source", choices=("a", "b", "c"), required=True)
    convert.add_argument("--to", choices=("a", "b", "c"), required=True)
    convert.add_argument("--k", type=int, default=None)
    convert.add_argument("path")
    check = sub.add_parser("check")
    check.add_argument("--kind", choices=("a", "b"), required=True)
    check.add_argument("path")
    return parser.parse_args(["convert", "--from", "a", "--to", "b", "--k", "2", "x.txt"])


# Each chunk with its time on the host the benchmark was tuned on, in
# its fast state (2-vCPU KVM guest, Python 3.11.7).  The time is only a
# scale factor.  A workload uses the chunk whose speed tracks its own
# best: over runs of the command-line workload, the ratio of request
# time to chunk time varied 5 times less with the argparse chunk.
CHUNKS = {
    "interpreter": (interpreter_chunk, 0.25e-3),
    "argparse": (argparse_chunk, 0.40e-3),
}


class SpeedMeter:
    """Context manager; see the module docstring."""

    def __init__(self, interval: float, chunk: str) -> None:
        self.interval = interval
        self.chunk, self.nominal = CHUNKS[chunk]
        self.durations = array("d")
        self.spent = 0.0  # total time inside chunks
        self.net = array("d")  # per timed region: wall time minus chunk time
        self.bounds = array("q")  # per timed region: first and end chunk index
        self._busy = False
        self._previous = None

    def _sample(self) -> None:
        start = time.perf_counter()
        self.chunk()
        dt = time.perf_counter() - start
        self.durations.append(dt)
        self.spent += dt

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # a late alarm never nests a chunk inside a chunk
            return
        self._busy = True
        try:
            self._sample()
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedMeter":
        # warm the chunk's bytecode, and leave MIN_CHUNKS samples for
        # regions that end before the timer has fired often enough
        for _ in range(WARMUP_CHUNKS):
            self.chunk()
        for _ in range(MIN_CHUNKS):
            self._sample()
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn, *args):
        start, spent, first = time.perf_counter(), self.spent, len(self.durations)
        result = fn(*args)
        self.net.append(time.perf_counter() - start - (self.spent - spent))
        self.bounds.append(first)
        self.bounds.append(len(self.durations))
        return result

    def raw_times(self) -> list[float]:
        """Wall time of each region, chunks left out."""
        return list(self.net)

    def ref_times(self) -> list[float]:
        """Reference-speed time of each region; call after the meter stops."""
        d = self.durations
        out = []
        for i, net in enumerate(self.net):
            lo, hi = self.bounds[2 * i], self.bounds[2 * i + 1]
            if hi - lo < MIN_CHUNKS:
                lo = max(0, min(hi - MIN_CHUNKS // 2, len(d) - MIN_CHUNKS))
                hi = lo + MIN_CHUNKS
            out.append(net * self.nominal * (hi - lo) / sum(d[lo:hi]))
        return out
