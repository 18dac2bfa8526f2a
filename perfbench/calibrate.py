"""Machine calibration: a fixed kernel interleaved through every timed phase.

On a shared machine the same code runs faster or slower from one second
to the next; on the reference machine the speed flips between two modes
up to 1.8x apart, on-CPU (as with a busy sibling hyperthread).
The kernel below does a fixed amount of the kind of work the program does
— Python-level dict/list churn like overlay routing, many small-array
NumPy calls like zone geometry, one small matrix product like an index
mask, and a pointer chase through a ring of objects larger than the
caches, like walking the overlay's node graph; with that mix its speed
swings with the machine's about as much as the program's does. A
wall-clock interval timer runs it every ``INTERVAL`` seconds while a
phase is being measured, so samples land inside long calls too; the time
spent sampling is subtracted from the operation it interrupted. Each
operation is then rescaled by the samples taken during (or, for a short
one, right around) it onto the kernel's time on the reference machine:
a "reference second" is the time the operation would have taken there.
"""

from __future__ import annotations

import signal
import time
from statistics import mean

import numpy as np

#: Typical kernel time on the reference machine (2-core x86-64 VM,
#: Python 3.11, NumPy 2.4). Normalised times are expressed in its scale.
REFERENCE_KERNEL_S = 0.0042
#: Seconds between kernel samples.
INTERVAL = 0.25
#: Objects in the pointer-chase ring, and steps taken per kernel run.
RING_SIZE = 200_000
RING_STEPS = 6_000

_MATRIX = np.linspace(0.0, 1.0, 256 * 64).reshape(256, 64)
_BLOCK = np.linspace(1.0, 0.0, 64 * 16).reshape(64, 16)
_LOWS = np.linspace(0.0, 0.5, 8)
_HIGHS = _LOWS + 0.25
_POINT = np.full(8, 0.3)


class _Link:
    __slots__ = ("value", "next")


def make_ring() -> _Link:
    """A fixed random cycle through ``RING_SIZE`` objects."""
    links = [_Link() for __ in range(RING_SIZE)]
    order = np.random.default_rng(0).permutation(RING_SIZE)
    for position, index in enumerate(order):
        link = links[index]
        link.value = position
        link.next = links[order[(position + 1) % RING_SIZE]]
    return links[order[0]]


def kernel(ring: _Link) -> float:
    """Run the fixed kernel once; returns its wall time in seconds."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(3000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
    acc = sum(sorted(table, key=table.__getitem__)[:64])
    for __ in range(300):
        gaps = np.maximum(np.maximum(_LOWS - _POINT, _POINT - _HIGHS), 0.0)
        acc += float(np.sqrt(np.dot(gaps, gaps)))
    acc += float((_MATRIX @ _BLOCK).sum())
    link = ring
    for __ in range(RING_STEPS):
        acc += link.value
        link = link.next
    elapsed = time.perf_counter() - start
    if acc < 0.0:  # keeps the work observable; never true
        raise AssertionError(acc)
    return elapsed


class Calibrated:
    """Times operations while the kernel samples the machine's speed.

    Use as a context manager around the measured part of a run; inside
    it, :meth:`time` runs and records one operation.
    """

    def __init__(self):
        self._ring = make_ring()
        self.kernel_s: list[float] = []
        #: ``(kind, seconds, first sample index, end sample index,
        #: seconds spent sampling inside the operation)``.
        self.ops: list[tuple[str, float, int, int, float]] = []
        self._sampling_s = 0.0
        self._previous = None

    def _sample(self, *__) -> None:
        start = time.perf_counter()
        self.kernel_s.append(kernel(self._ring))
        self._sampling_s += time.perf_counter() - start

    def __enter__(self) -> "Calibrated":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def time(self, kind: str, fn, *args, **kwargs):
        """Run ``fn`` as one operation of ``kind``; returns its result."""
        first = len(self.kernel_s)
        sampling = self._sampling_s
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        sampled = self._sampling_s - sampling
        self.ops.append(
            (kind, elapsed - sampled, first, len(self.kernel_s), sampled)
        )
        return result

    def raw(self, kind: str) -> list[float]:
        return [op[1] for op in self.ops if op[0] == kind]

    def wall(self, kind: str) -> float:
        """Total wall time of ``kind``, sampling included."""
        return sum(op[1] + op[4] for op in self.ops if op[0] == kind)

    def normalised(self, kind: str) -> list[float]:
        """Times of ``kind`` on the reference machine's scale.

        An operation is scaled by the mean of the samples taken while it
        ran, or, when none landed inside it, of the one just before and
        the one just after it. The machine flips between a fast and a
        slow mode within a second, so a wider window would scale an
        operation by a mix of modes it did not run in, and a median of
        such times would jump with the mix.
        """
        out = []
        for k, seconds, first, end, __ in self.ops:
            if k != kind:
                continue
            around = self.kernel_s[first:end] or self.kernel_s[first - 1:first + 1]
            out.append(seconds * REFERENCE_KERNEL_S / mean(around))
        return out
