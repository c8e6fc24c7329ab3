"""In-memory span recorder and the tracer that wraps ``bchlab`` functions.

A span has a name, a start, an end and a parent span (-1 for a root), read
from ``CLOCK``, the same clock ``run.py`` times untraced passes with.  Spans
are appended to flat arrays while the traced code runs and written out once,
at the end, as a compressed ``.npz``.  A span's self time is its duration
minus the time its child spans cover; calls are nested and single-threaded,
so the children of one span never overlap.

``traced(recorder)`` replaces each public ``bchlab`` function where its
caller looks it up (``field.is_irreducible`` and ``bch.minimal_polynomial``
are imported by name into their callers) and restores the originals on exit.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from math import gcd

import numpy as np

from bchlab import bch, distance, field, gflin, harness, theory

# CPU seconds of this process.  The benchmark runs one thread, so on an idle
# machine this reads the same as the wall clock; on a shared virtual machine
# it leaves out the time the host runs other guests on this CPU (steal time).
# On a 2-vCPU host, a 40 ms loop read 32-118 ms on the wall clock and 32-49 ms
# on this one.
CLOCK = time.process_time


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(CLOCK())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = CLOCK()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) and self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        parent = a["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        ids = a["name_id"]
        out = {}
        for nid, name in enumerate(self.names):
            sel = ids == nid
            if sel.any():
                out[name] = {
                    "calls": int(sel.sum()),
                    "total_s": float(dur[sel].sum()),
                    "self_s": float(self_time[sel].sum()),
                }
        return out

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _root_count_pairs(args) -> int:
    """(a, b) pairs `_root_count_scan` weighs for one code, from q and h."""
    code = args[0]
    q, h = code.ctx.q, code.h
    order = q * q - 1
    g_b = gcd(q + 1, (q - 1) * (h + 1), order)
    g_a = gcd(q + 1, (q - 1) * h, order)
    return g_b + g_a + (q + 1) * (q - 1)


# (module, attribute looked up by the caller, span name, counter hook)
_SITES = [
    (field, "is_irreducible", "polynomial.is_irreducible", None),
    (bch, "minimal_polynomial", "polynomial.minimal_polynomial", None),
    (bch, "build_bch", "bch.build_bch", None),
    (bch, "expanded_parity_matrix", "bch.expanded_parity_matrix", None),
    (bch, "generator_matrix", "bch.generator_matrix", None),
    (bch, "dual_codeword", "bch.dual_codeword", None),
    (gflin, "rref", "gflin.rref", None),
    (gflin, "rank", "gflin.rank", None),
    (gflin, "kernel_basis", "gflin.kernel_basis", None),
    (distance, "min_distance_by_columns", "distance.min_distance_by_columns", None),
    (distance, "dual_min_distance", "distance.dual_min_distance", None),
    (
        distance,
        "_root_count_scan",
        "distance.root_count_scan",
        lambda args, result: {"distance.root_count_pairs": _root_count_pairs(args)},
    ),
    (distance, "verify_witness", "distance.verify_witness", None),
    (theory, "predict_min_distance", "theory.predict_min_distance", None),
    (
        theory,
        "find_ratio_quadruple",
        "theory.find_ratio_quadruple",
        lambda args, result: {"theory.quadruple_found": int(result is not None)},
    ),
    (theory, "dual_distance_bounds", "theory.dual_distance_bounds", None),
    (harness, "analyze", "harness.analyze", None),
    (harness, "records_to_csv", "harness.records_to_csv", None),
]


def _wrap(recorder: SpanRecorder, fn, name: str, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(idx)
        if hook is not None:
            recorder.counts.update(hook(args, result))
        return result

    return wrapper


@contextmanager
def traced(recorder: SpanRecorder):
    """Record a span around every call to the wrapped ``bchlab`` functions."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in _SITES]
    try:
        for (module, attr, name, hook), (_, _, fn) in zip(_SITES, saved):
            setattr(module, attr, _wrap(recorder, fn, name, hook))
        yield recorder
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
