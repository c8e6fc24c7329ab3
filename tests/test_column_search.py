"""Column search against the per-subset reference and the golden witnesses.

``reference/column_search.py`` holds the per-subset ``rref`` loop that the
collision kernel replaced; both must return equal ``DistanceResult``s (value,
lex-first columns, coefficients and ``searched_up_to``).  The golden file was
recorded from that loop.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from bchlab.bch import build_bch, expanded_parity_matrix
from bchlab.distance import min_distance_by_columns, verify_witness
from bchlab.field import build_field
from bchlab.gflin import rank
from bchlab.harness import prime_powers_upto

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "column_witnesses.json"

# loaded by path: a top-level ``reference`` name would clash with other
# modules of that name on sys.path
_spec = importlib.util.spec_from_file_location(
    "column_search_reference", HERE / "reference" / "column_search.py"
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def codes(max_q, delta):
    """Every code with q <= max_q at this designed distance, offset by offset."""
    for q, p, s in prime_powers_upto(max_q):
        ctx = build_field(p, s)
        for h in range(q + 1):
            try:
                yield build_bch(ctx, delta, h)
            except ValueError:  # delta out of range for this q
                continue


def assert_matches_reference(code, w_max=5):
    fast = min_distance_by_columns(code, w_max=w_max)
    slow = reference.min_distance_by_columns(code, w_max=w_max)
    assert fast == slow, (code.ctx.q, code.delta, code.h, w_max)
    if fast.value is not None:
        assert verify_witness(code, fast)


def test_matches_reference_delta3_every_offset():
    checked = 0
    for code in codes(16, 3):
        assert_matches_reference(code)
        checked += 1
    assert checked == sum(q + 1 for q, _, _ in prime_powers_upto(16))


@pytest.mark.parametrize("delta", [4, 5])
def test_matches_reference_larger_delta(delta):
    # delta >= 4 gives at least 6 parity rows, so the w = 5 level is searched
    # rather than reached through the w > rank shortcut
    searched_five = 0
    for code in codes(9, delta):
        assert_matches_reference(code)
        if rank(code.ctx, expanded_parity_matrix(code)) >= 5:
            searched_five += 1
    assert searched_five > 0


def test_matches_reference_w_max_3():
    for code in codes(9, 3):
        assert_matches_reference(code, w_max=3)


def test_golden_witnesses():
    for case in json.loads(GOLDEN.read_text()):
        code = build_bch(build_field(case["p"], case["s"]), case["delta"], case["h"])
        res = min_distance_by_columns(code)
        got = {
            "value": res.value,
            "cols": list(res.witness.cols),
            "coeffs": list(res.witness.coeffs),
            "searched_up_to": res.searched_up_to,
        }
        want = {k: case[k] for k in got}
        assert got == want, (case["p"], case["s"], case["h"])
        assert verify_witness(code, res)
