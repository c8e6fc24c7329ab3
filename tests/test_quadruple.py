"""Quadruple search against the scalar reference, the golden witnesses and
column search.

``reference/quadruple.py`` holds the per-(x, z, w) divided-difference loop
that the Zech-log collision kernel replaced; both must return the same
quadruple, or both None.  The golden file was recorded from that loop; its
(2, 7, 32) entry took about 15 s there, so the loop is not run on it here.
"""

import importlib.util
import json
import time
from math import gcd
from pathlib import Path

import pytest

from bchlab import theory
from bchlab.bch import build_bch
from bchlab.distance import min_distance_by_columns
from bchlab.field import build_field
from bchlab.harness import prime_powers_upto

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "quadruple_witnesses.json"

# loaded by path: a top-level ``reference`` name would clash with other
# modules of that name on sys.path
_spec = importlib.util.spec_from_file_location(
    "quadruple_reference", HERE / "reference" / "quadruple.py"
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

# non-degenerate offsets with gcd(2h+1, q+1) = 1 and no quadruple, where
# column search finds d = 5
D5_OFFSETS = {
    (2, 5): {8, 12, 14, 15, 17, 18, 20, 24},
    (2, 6): {16, 31, 33, 48},
}


def coprime_offsets(q):
    return [h for h in range(q + 1) if gcd(2 * h + 1, q + 1) == 1]


@pytest.mark.parametrize("p,s", [(p, s) for _, p, s in prime_powers_upto(32)] + [(2, 6)])
def test_matches_reference_every_offset(p, s):
    ctx = build_field(p, s)
    for h in coprime_offsets(ctx.q):
        assert theory.find_ratio_quadruple(ctx, h) == reference.find_ratio_quadruple(ctx, h), (
            ctx.q,
            h,
        )


def test_golden_witnesses():
    for case in json.loads(GOLDEN.read_text()):
        ctx = build_field(case["p"], case["s"])
        quad = theory.find_ratio_quadruple(ctx, case["h"])
        expected = case["quadruple"]
        assert quad == (tuple(expected) if expected else None), case


def test_q128_h32_has_no_quadruple_within_a_second():
    ctx = build_field(2, 7)
    t0 = time.perf_counter()
    assert theory.find_ratio_quadruple(ctx, 32) is None
    assert time.perf_counter() - t0 < 1.0


def test_q4096_h2049_has_no_quadruple():
    assert theory.find_ratio_quadruple(build_field(2, 12), 2049) is None


def test_tampered_quadruple_rejected():
    ctx = build_field(2, 6)
    h = 4
    y, x, z, w = theory.find_ratio_quadruple(ctx, h)
    assert theory.ratio_equation_holds(ctx, h, y, x, z, w)
    other = next(u for u in ctx.unit_circle() if u not in (y, x, z, w))
    assert not theory.ratio_equation_holds(ctx, h, other, x, z, w)


def test_invalid_kernel_result_raises(monkeypatch):
    ctx = build_field(2, 6)
    monkeypatch.setattr(theory, "ratio_equation_holds", lambda *args: False)
    with pytest.raises(AssertionError):
        theory.find_ratio_quadruple(ctx, 4)


@pytest.mark.parametrize("p,s", sorted(D5_OFFSETS))
def test_no_quadruple_exactly_when_columns_give_d5(p, s):
    ctx = build_field(p, s)
    q = ctx.q
    no_quad = set()
    for h in coprime_offsets(q):
        if h in theory.degenerate_offsets(q):
            continue
        quad = theory.find_ratio_quadruple(ctx, h)
        d = min_distance_by_columns(build_bch(ctx, 3, h)).value
        assert (quad is None) == (d == 5), (q, h, quad, d)
        if quad is None:
            no_quad.add(h)
    assert no_quad == D5_OFFSETS[(p, s)]
