"""The benchmark's two workloads: inputs, requests and expected outputs.

Each workload is a fixed list of requests made from ``--seed``.  A request
runs one user-level operation through the public ``bchlab`` modules and
returns a plain tuple, its *output*.  Outputs are compared one by one with
the expected outputs recorded in ``expected/`` (see ``record_expected.py``),
so any change to a lex-first witness, a quadruple or a stable CSV row counts
as a failed request.

Library functions are always called through their module (``bch.build_bch``,
never a name bound at import), so the tracer in ``spans.py`` sees every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from bchlab import bch, distance, field, harness, theory

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# the CLI's `code` request resolves the even-q "4 or 5" case up to this q
RESOLVE_CAP_Q = harness.AnalyzeOptions().resolve_cap_q
LARGE_Q_FIELDS = [(2, 6), (2, 7), (13, 2), (3, 5)]  # q = 64, 128, 169, 243
# 2, so that a run fits three passes: a pass of 3 per field took about 19 s
LARGE_Q_OFFSETS_PER_FIELD = 2


def theorems_grid(max_q: int = 32) -> list[tuple[int, int, int]]:
    """(p, s, h) in the order `check-theorems --max-q` visits them."""
    return [(p, s, h) for q, p, s in harness.prime_powers_upto(max_q) for h in range(q + 1)]


def large_q_pool(p: int, s: int) -> list[int]:
    """Offsets large-q-dual draws from at one field.

    Non-degenerate offsets; at even q only those where the gcd criterion
    predicts d = 3.  The other even-q offsets run a quadruple search that
    costs from 0 s to 13 s at q = 128 depending on h, which would make this
    workload's time depend on the seed; theorems-32 measures that search
    instead.
    """
    q = p**s
    return [
        h
        for h in range(q + 1)
        if h not in theory.degenerate_offsets(q) and (q % 2 == 1 or theory.d3_criterion(q, h))
    ]


def large_q_requests(seed: int) -> list[tuple[int, int, int]]:
    rng = random.Random(seed)
    out = []
    for p, s in LARGE_Q_FIELDS:
        for h in sorted(rng.sample(large_q_pool(p, s), LARGE_Q_OFFSETS_PER_FIELD)):
            out.append((p, s, h))
    return out


# ---------------------------------------------------------------------------
# requests: each returns the tuple that is compared with the expected output
# ---------------------------------------------------------------------------


def run_theorems(req: tuple[int, int, int]):
    """`check-theorems` work for one code: analyze with default options."""
    return harness.analyze(*req)


def theorems_output(rec) -> tuple:
    """A record's row of the `--stable` CSV."""
    row = harness.records_to_csv([rec], stable=True).splitlines()[1]
    return (row,)


def run_large_q(req: tuple[int, int, int]) -> tuple:
    """The CLI's `code` then `dual-distance --method root-count` requests."""
    p, s, h = req
    ctx = field.build_field(p, s, field.MAX_TABLE_Q)
    code = bch.build_bch(ctx, 3, h)
    theory.predict_min_distance(ctx, h, resolve=ctx.q <= RESOLVE_CAP_Q)
    res = distance.dual_min_distance(code, "root-count")
    verified = distance.verify_witness(code, res)
    lo, hi = theory.dual_distance_bounds(ctx.q, h)
    a, b = res.witness.source[1:]
    return (ctx.q, h, res.value, a, b, verified and lo <= res.value <= hi)


# ---------------------------------------------------------------------------
# workload table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    fields: list[tuple[int, int]]  # (p, s) built cold in set-up
    make_requests: Callable[[int], list[tuple[int, int, int]]]
    run: Callable  # request -> raw result
    output: Callable  # raw result -> comparable tuple
    ok: Callable  # (request, raw result) -> bool: the result's own checks pass
    emits_csv: bool  # the pass ends by emitting the `--stable` CSV
    speed_weights: dict[str, float]  # the mix of reference.COMPONENTS its work resembles


def _record_ok(req, rec) -> bool:
    return rec.match and not rec.error


WORKLOADS = {
    "theorems-32": Workload(
        name="theorems-32",
        fields=sorted({(p, s) for p, s, _ in theorems_grid()}, key=lambda f: f[0] ** f[1]),
        make_requests=lambda seed: theorems_grid(),
        run=run_theorems,
        output=theorems_output,
        ok=_record_ok,
        emits_csv=True,
        speed_weights={"python": 1},
    ),
    "large-q-dual": Workload(
        name="large-q-dual",
        fields=LARGE_Q_FIELDS,
        make_requests=large_q_requests,
        run=run_large_q,
        output=lambda out: out[:5],
        ok=lambda req, out: out[5],
        emits_csv=False,
        speed_weights={"python": 1, "array": 1},  # root-count streams large arrays
    ),
}


def request_pool(name: str) -> list[tuple[int, int, int]]:
    """Every request any seed can draw; the expected files cover these."""
    if name == "large-q-dual":
        return [(p, s, h) for p, s in LARGE_Q_FIELDS for h in large_q_pool(p, s)]
    return WORKLOADS[name].make_requests(0)


# ---------------------------------------------------------------------------
# expected outputs
# ---------------------------------------------------------------------------


def expected_path(name: str) -> Path:
    return EXPECTED_DIR / f"{name}.json"


def load_expected(name: str) -> dict:
    """The recorded document, with ``outputs`` keyed by "p,s,h"."""
    with open(expected_path(name)) as fh:
        return json.load(fh)


def request_key(req: tuple[int, int, int]) -> str:
    return ",".join(str(x) for x in req)

