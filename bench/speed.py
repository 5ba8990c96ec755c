"""Machine-speed calibration: timings are reported at a reference speed.

The sandbox this benchmark is sized for runs on a shared host whose
speed swings by up to +-30 % on a scale of seconds to minutes (measured
with a fixed loop: CPU time inflates exactly as wall time does, so the
guest cannot see it as steal).  Raw medians of identical runs then
differ by 15-35 %, which no regression bound survives.

So every client interleaves a fixed **calibration kernel** with its ops
— about 3 ms of the kinds of work the library does — and times it in
*thread CPU time*, which a wait for the interpreter lock or for a core
does not inflate but a slower machine does.  A latency measured while
the kernel took ``k`` is reported as ``latency * REFERENCE / k``: the
milliseconds the op would have taken on a machine on which the kernel
takes ``REFERENCE``.  With it, medians of identical runs agree within
3-8 % (see ``README.md``).

The kernel touches nothing of ``repro``, so no change to the program
can move it.  **It is frozen**: editing it, its data or ``REFERENCE``
re-bases every timing the benchmark has ever reported.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

#: Thread-CPU seconds the kernel takes on a quiet run of the sandbox the
#: benchmark was sized on; reported timings are scaled to this speed.
REFERENCE = 0.003
#: A client re-calibrates when this much time has passed since its last
#: sample (the kernel then costs ~3 % of the client's time).
INTERVAL = 0.1
#: An op is scaled by the samples taken this close to it.
NEIGHBOURHOOD = 0.3

_rng = np.random.default_rng(0)
_SMALL = _rng.random((180, 3))
_BIG = _rng.random(40_000)
for _array in (_SMALL, _BIG):
    _array.setflags(write=False)


def kernel() -> float:
    """The frozen calibration workload (its result is irrelevant).

    Three kinds of work, because the host's slowdowns do not hit all
    code alike: a loop of tiny NumPy calls (the library's crawl and walk
    look like this) slows down most, plain interpreter work and passes
    over a mid-sized array least.  The weights are a compromise measured
    on this sandbox: when the kernel slows by x %, the cold joins slow
    by about 1.2 x % and the serving workloads by 0.7-0.85 x %.
    """
    total = 0.0
    for row in _SMALL:  # ~45 %: tiny NumPy calls
        total += float(np.all(row < 0.9)) + _SMALL[:50].min()
    np.sort(_BIG)  # ~20 %: passes over a mid-sized array
    np.cumsum(_BIG)
    for i in range(14_000):  # ~35 %: plain interpreter work
        total += i * i % 7
    return total


class Calibrator:
    """The speed samples of one thread, and the scaling they imply."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        start = time.thread_time()
        kernel()
        self.seconds.append(time.thread_time() - start)
        self.times.append(time.perf_counter())

    def sample_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL:
            self.sample()

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than the reference the machine ran around
        ``[start, end]``: the median sample of the neighbourhood, or the
        nearest sample when the neighbourhood holds none."""
        lo = bisect.bisect_left(self.times, start - NEIGHBOURHOOD)
        hi = bisect.bisect_right(self.times, end + NEIGHBOURHOOD)
        if lo == hi:
            lo = max(0, min(lo, len(self.times) - 1))
            hi = lo + 1
        return float(np.median(self.seconds[lo:hi])) / REFERENCE

    def window_slowdown(self) -> float:
        """The median slowdown over everything sampled."""
        return float(np.median(self.seconds)) / REFERENCE

    def describe(self) -> str:
        return (
            f"speed: calibration kernel took {np.median(self.seconds) * 1e3:.3f} ms "
            f"(median of {len(self.seconds)}), {self.window_slowdown():.3f}x the "
            f"reference {REFERENCE * 1e3:g} ms; timings are scaled by it"
        )


def probe(fn, repeats: int = 5) -> list[float]:
    """Seconds of ``repeats`` direct calls of ``fn``, each scaled to the
    reference speed by the samples taken around the calls."""
    calibrator = Calibrator()
    times = []
    for _ in range(repeats):
        calibrator.sample()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    calibrator.sample()
    slow = calibrator.window_slowdown()
    return [seconds / slow for seconds in times]


def merged(calibrators: list[Calibrator]) -> Calibrator:
    """One calibrator holding every thread's samples, in time order."""
    out = Calibrator()
    pairs = sorted(
        (t, s) for c in calibrators for t, s in zip(c.times, c.seconds)
    )
    out.times = [t for t, _ in pairs]
    out.seconds = [s for _, s in pairs]
    return out
