"""Timing helpers shared by the workloads: percentiles, the calibration
probe and the span recorder.

Calibration.  The benchmark runs on shared machines, where the speed of a
core moves by up to 2x for tens of seconds at a time with the load on its
hardware sibling.  Every time the benchmark reports is therefore measured
in wall-clock seconds and then scaled by the speed of the machine at that
moment: after each operation a fixed probe runs (pure Python, allocation
heavy, independent of the program under test), and the operation's time is
multiplied by ``PROBE_REF_S / t_probe`` with ``t_probe`` the median of the
last few probe times.  On a machine as fast as the reference, a calibrated
time equals the wall-clock time; on a slowed core both the operation and
the probe slow down and the factor takes the slowdown out.  A change to the
program moves the operation but not the probe, so it shows in full.

The span recorder is the benchmark's own tracing: it wraps calls into the
program's public functions from outside, so nothing inside ``src/`` is
instrumented.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Callable, Dict, List, Sequence, Tuple

#: The probe's median time, in seconds, on an uncontended core of the
#: reference machine (2-vCPU VM, Intel Xeon, CPython 3.11).
PROBE_REF_S = 0.0010

#: Probe times that the factor of one operation is taken over.
PROBE_WINDOW = 5


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


class _Node:
    __slots__ = ("op", "left", "value")

    def __init__(self, op: str, left: "_Node" = None, value: int = 0) -> None:
        self.op = op
        self.left = left
        self.value = value


def _probe_tokens() -> List[str]:
    rng = random.Random(12345)
    tokens = ["7"]
    for _ in range(400):
        tokens.append("+-*"[rng.randrange(3)])
        tokens.append(str(rng.randrange(100)))
    return tokens


_TOKENS = _probe_tokens()


def _probe_work() -> int:
    """Parse a fixed token list into a tree and fold it with a memo table:
    object allocation, attribute access, dict traffic and calls, as in the
    program's own front end and solver."""
    total = 0
    for _ in range(4):
        node = _Node("num", value=int(_TOKENS[0]))
        for pos in range(1, len(_TOKENS), 2):
            node = _Node(_TOKENS[pos], node, int(_TOKENS[pos + 1]))
        chain = []
        while node.op != "num":
            chain.append(node)
            node = node.left
        acc = node.value
        memo: Dict[Tuple[str, int, int], int] = {}
        for step in reversed(chain):
            key = (step.op, acc % 97, step.value)
            hit = memo.get(key)
            if hit is None:
                if step.op == "+":
                    hit = acc + step.value
                elif step.op == "-":
                    hit = acc - step.value
                else:
                    hit = acc * step.value % 1000003
                memo[key] = hit
            acc = hit
        total += acc + len(memo)
    return total


class Calibration:
    """Runs the probe and turns its recent times into a scale factor."""

    def __init__(self) -> None:
        self.times: List[float] = []

    def _run_probe(self) -> float:
        # The probe frees everything it allocates by reference counting;
        # with the collector off it never pays for a collection of the
        # program's heap, so its time does not depend on the program.
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            _probe_work()
            seconds = time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()
        self.times.append(seconds)
        return seconds

    def factor(self) -> float:
        """Probe once; the factor for the operation that just ended."""
        self._run_probe()
        return PROBE_REF_S / median(self.times[-PROBE_WINDOW:])

    def settle(self) -> float:
        """Probe ``PROBE_WINDOW`` times; the factor of the current moment
        (around a set-up, which is not an operation of the loop)."""
        for _ in range(PROBE_WINDOW):
            self._run_probe()
        return PROBE_REF_S / median(self.times[-PROBE_WINDOW:])

    def probe_ms(self) -> float:
        """Median raw probe time of the run, in ms (how slow the machine was)."""
        return median(self.times) * 1000.0


class Spans:
    """In-memory spans: ``(name, start, end, op)`` with ``op`` the parent op.

    An operation is itself a span named ``"op"``; every other span is a
    layer call made inside the operation that is current when it starts.
    Durations are reported calibrated, with the factor of their operation
    (a failed operation may have none; the run is then incorrect anyway).
    """

    def __init__(self) -> None:
        self.records: List[Tuple[str, float, float, int]] = []
        self.factors: Dict[int, float] = {}
        self.op = -1
        self._op_start = 0.0

    def begin_op(self) -> None:
        self.op += 1
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        self.records.append(("op", self._op_start, time.perf_counter(), self.op))

    def calibrate_op(self, factor: float) -> None:
        self.factors[self.op] = factor

    def call(self, name: str, fn: Callable, *args, **kwargs):
        started = time.perf_counter()
        value = fn(*args, **kwargs)
        self.records.append((name, started, time.perf_counter(), self.op))
        return value

    def add(self, name: str, seconds: float, op: int) -> None:
        """A layer span of ``op`` measured elsewhere (e.g. split out of a
        client-side span); only its duration is known."""
        self.records.append((name, 0.0, seconds, op))

    def durations(self, name: str) -> List[float]:
        return [(end - start) * self.factors.get(op, 1.0)
                for span, start, end, op in self.records if span == name]

    def totals(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for name, start, end, op in self.records:
            totals[name] = totals.get(name, 0.0) + (end - start) * self.factors.get(op, 1.0)
        return totals

    def coverage(self, layers: Sequence[str]) -> float:
        """Layer time over operation wall time (the attribution gate)."""
        totals = self.totals()
        wall = totals.get("op", 0.0)
        if wall <= 0.0:
            return 0.0
        return sum(totals.get(name, 0.0) for name in layers) / wall
