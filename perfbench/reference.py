"""Host speed, read from fixed pieces of reference work run between requests.

On a shared virtual machine the speed of a CPU second changes: the host steps
between states up to 1.5-2x apart for tens of seconds to minutes, on the CPU
clock too.  Two runs of the same code then differ by more than any change
worth measuring.  The reference work below does not use ``bchlab`` at all, so
it slows down with the host and with nothing else.  ``Speed`` runs it every
``INTERVAL_S`` seconds between requests, and after a long request once for
each interval it spanned (at most ``WINDOW`` times), so that a long request
is bracketed by samples of its own time.  Each measured time is scaled by
how much slower than nominal the reference ran in the ``WINDOW`` samples
nearest it.  Times scaled this way read as seconds on a host where each
reference component takes its ``NOMINAL_S``.

Host contention does not slow every kind of work alike, so the reference has
two components, timed apart: interpreted Python with a dict, and elementwise
passes over an array of a few MB.  Each workload weighs them by the mix of
its own work.  Over five-run sets on a 2-vCPU test host, the Python component
alone tracked check-theorems (interpreter-bound around small numpy calls)
best; root-count, which streams large arrays, needs the array component too.
A third component of small matrix products tracked the rref-heavy
check-theorems worse than the Python one, so it is not used.  The reference
cannot be sampled inside a request, so a long request keeps about 6% of
pass-to-pass variation after scaling.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

CLOCK = time.process_time
INTERVAL_S = 0.25  # wall seconds between samples taken by maybe_sample()
WINDOW = 9  # samples a time is scaled by
WARM_UP = 10  # untimed samples when a Speed is made; the first few run up to 2x slower

_rng = np.random.default_rng(20231219)
_LARGE = _rng.integers(0, 256, size=(200, 2000), dtype=np.int64)
# written in place, so that no sample pays for mapping fresh pages
_SCRATCH = np.empty_like(_LARGE)


def _python() -> int:
    s = 0
    seen: dict[int, int] = {}
    for i in range(20000):
        s += (i * 7) % 13
        seen[i & 255] = s
    return s


def _array() -> int:
    np.multiply(_LARGE, 3, out=_SCRATCH)
    np.add(_SCRATCH, 1, out=_SCRATCH)
    np.remainder(_SCRATCH, 7, out=_SCRATCH)
    return int(_SCRATCH.sum(axis=1).min())


COMPONENTS = {"python": _python, "array": _array}
# about the median CPU seconds of each component on a 2-vCPU test host
NOMINAL_S = {"python": 0.003, "array": 0.003}


class Speed:
    """Reference samples with the wall time each was taken at.

    ``weights`` gives each component's share of the workload's work."""

    def __init__(self, weights: dict[str, float]):
        total = sum(weights.values())
        self.weights = {name: w / total for name, w in weights.items() if w}
        self.stamps: list[float] = []
        self.samples: dict[str, list[float]] = {name: [] for name in COMPONENTS}
        for _ in range(WARM_UP):
            for fn in COMPONENTS.values():
                fn()

    def sample(self) -> None:
        for name, fn in COMPONENTS.items():
            t = CLOCK()
            fn()
            self.samples[name].append(CLOCK() - t)
        self.stamps.append(time.perf_counter())

    def maybe_sample(self) -> None:
        if not self.stamps:
            self.sample()
            return
        due = int((time.perf_counter() - self.stamps[-1]) / INTERVAL_S)
        for _ in range(min(due, WINDOW)):
            self.sample()

    def scale(self, stamp: float) -> float:
        """The factor that turns CPU seconds measured at wall time ``stamp``
        into seconds at the nominal speed."""
        i = bisect.bisect_left(self.stamps, stamp)
        lo = max(0, min(i - WINDOW // 2, len(self.stamps) - WINDOW))
        slowness = sum(
            w * statistics.median(self.samples[name][lo : lo + WINDOW]) / NOMINAL_S[name]
            for name, w in self.weights.items()
        )
        return 1.0 / slowness
