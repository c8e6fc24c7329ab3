"""Report generation and command-line interface.

``analyze`` builds one designed-distance-3 code, measures it with the
engines of ``distance``, compares every computed quantity with its
closed-form prediction and returns a flat :class:`CodeRecord`.  ``sweep``
maps that over (p, s, h) grids, deterministic in output order and
byte-identical across runs in ``--stable`` mode.  ``check_theorems`` and
``check_conjecture`` drive the same machinery for the cross-validation and
the two open conjectures.

The engines carry no q-cap.  One field check, ``field.check_field``, decides
which fields are reached: p prime, s >= 1, q <= 2^15 for the int16 subfield
labels, and q within the field table cap ``AnalyzeOptions.max_table_q``
(``--max-table-q``).  ``build_field`` runs it on every call, and within it
``analyze`` runs every engine on every code.  ``sweep`` and
``check_theorems`` run it on every field of their grid before they analyze
anything; ``sweep`` takes its p and h lists as their distinct values in
ascending order.  ``check_conjecture`` marks an instance that it rejects
UNREACHED.  Only ``dual-distance --method dual-enum`` stops earlier, at
``DUAL_ENUM_CAP_Q``.

Exit codes: 0 = everything matches (findings allowed), 1 = a theorem
prediction disagrees with ground truth, 2 = invalid invocation (a field that
``check_field`` rejects, or ``--threads`` below 1, included) or an output
path that cannot be written.  An invalid grid exits 2 before anything is
analyzed or an output file is created.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from math import gcd
from typing import get_args, get_type_hints

from . import bch, distance, theory
from .field import MAX_TABLE_Q, build_field, check_field, is_prime


# ``dual-distance --method dual-enum`` stops at this q, before the field is
# built: a non-degenerate dual has dimension 4, and 81^4 words stay within
# ``distance.EXHAUSTIVE_CAP``
DUAL_ENUM_CAP_Q = 81


@dataclass(frozen=True)
class AnalyzeOptions:
    """The field table cap of ``analyze``: a q past it raises ValueError, and
    within it every engine runs."""

    max_table_q: int = MAX_TABLE_Q

    @property
    def resolve_cap_q(self) -> int:
        """The q up to which the even-q quadruple search runs: the table cap."""
        return self.max_table_q


@dataclass(slots=True)
class CodeRecord:
    p: int
    s: int
    q: int
    h: int
    n: int
    delta: int
    k: int | None = None
    k_dual: int | None = None
    d: int | None = None
    d_dual: int | None = None
    predicted_k: int | None = None
    predicted_k_dual: int | None = None
    predicted_d: str = ""
    resolved_d: int | None = None
    bounds_lo: int | None = None
    bounds_hi: int | None = None
    gcd_2h_plus_1: int | None = None
    class_: str = ""
    locality: int | None = None
    d_optimal: bool | None = None
    k_optimal: bool | None = None
    match: bool = True
    finding: str = ""
    method_d: str = ""
    method_d_dual: str = ""
    error: str = ""
    runtime_ms: int | None = None


def analyze(p: int, s: int, h: int, options: AnalyzeOptions | None = None) -> CodeRecord:
    """Construct one delta = 3 code, measure it, and compare against predictions.

    Raises ValueError when q = p^s is past the table cap.
    """
    opts = options or AnalyzeOptions()
    q = p**s
    rec = CodeRecord(p=p, s=s, q=q, h=h, n=q + 1, delta=3)
    t0 = time.perf_counter()
    mismatches: list[str] = []
    findings: list[str] = []
    errors: list[str] = []

    ctx = build_field(p, s, opts.max_table_q)
    code = bch.build_bch(ctx, 3, h)
    rec.k = code.k
    rec.k_dual = code.n - code.k
    rec.gcd_2h_plus_1 = gcd(2 * h + 1, q + 1)

    rec.predicted_k = theory.predict_dimension(q, h)
    rec.predicted_k_dual = theory.predict_dual_dimension(q, h)
    if rec.predicted_k != rec.k:  # the dual dimensions are n minus these
        mismatches.append(f"dimension: computed {rec.k}, predicted {rec.predicted_k}")
    pred = theory.predict_min_distance(ctx, h, resolve=True)
    rec.predicted_d = pred.outcome
    rec.resolved_d = pred.resolved
    bounds = theory.dual_distance_bounds(q, h)
    if bounds is not None:
        rec.bounds_lo, rec.bounds_hi = bounds

    # ground truth: minimum distance
    res_d = distance.min_distance_by_columns(code)
    rec.method_d = res_d.method
    rec.d = res_d.value
    if res_d.value is not None and not distance.verify_witness(code, res_d):
        errors.append("column-search witness failed re-validation")

    # ground truth: dual distance
    res_dd = distance.dual_min_distance(code, "root-count")
    rec.method_d_dual = res_dd.method
    rec.d_dual = res_dd.value
    if not distance.verify_witness(code, res_dd):
        errors.append("dual witness failed re-validation")

    # derived audit columns
    if rec.d is None:
        rec.class_ = "undetermined"
    else:
        rec.class_ = theory.classify(rec.n, rec.k, rec.d, rec.k_dual, rec.d_dual)
    if rec.d_dual >= 2 and 1 <= rec.k < rec.n:
        rec.locality = theory.locality(rec.d_dual)
        if rec.d is not None:
            audit = theory.lrc_audit(rec.n, rec.k, rec.d, rec.d_dual, q)
            rec.d_optimal = audit.d_optimal
            rec.k_optimal = audit.k_optimal

    # prediction vs ground truth
    if rec.d is not None:
        if rec.predicted_d == "3" and rec.d != 3:
            mismatches.append(f"distance: computed {rec.d}, predicted 3")
        elif rec.predicted_d == "4" and rec.d != 4:
            mismatches.append(f"distance: computed {rec.d}, predicted 4")
        elif rec.predicted_d == "4or5":
            if rec.d not in (4, 5):
                mismatches.append(f"distance: computed {rec.d}, predicted 4 or 5")
            elif rec.d != rec.resolved_d:
                findings.append(
                    f"even-q resolution: quadruple search predicts {rec.resolved_d}, "
                    f"ground truth {rec.d}"
                )
    if rec.bounds_lo is not None:
        # C_(q-h) is the same code as C_h, with defining set {+-h, +-(h+1)} mod
        # q+1, so past h = q/2, where q-2h-1 (bounds_lo) is negative, the lower
        # end is q-h's
        lo = q - 2 * min(h, q - h) - 1
        if not lo <= rec.d_dual <= rec.bounds_hi:
            mismatches.append(f"dual distance {rec.d_dual} outside [{lo}, {rec.bounds_hi}]")
    # LRC optimality theorem: gcd = 1, m >= 4, q > 4h on a non-degenerate offset
    if (
        rec.bounds_hi is not None
        and rec.gcd_2h_plus_1 == 1
        and (q + 1 - rec.bounds_hi) >= 4
        and q > 4 * h
        and rec.d is not None
    ):
        if not rec.d_optimal or not rec.k_optimal:
            mismatches.append(
                f"LRC optimality expected (d_opt={rec.d_optimal}, "
                f"k_opt={rec.k_optimal})"
            )

    rec.error = "; ".join(errors + [f"mismatch: {m}" for m in mismatches])
    rec.match = not rec.error
    rec.finding = "; ".join(findings)
    rec.runtime_ms = int(round((time.perf_counter() - t0) * 1000))
    return rec


def _grid(fields: list[tuple[int, int]], h_policy: str | list[int], opts: AnalyzeOptions):
    """Per (p, s) field, in the order given, its (p, s, h) tasks with h
    distinct and ascending; a field's offsets are expanded when it is reached.

    Raises ValueError before anything is expanded when ``check_field``
    rejects a field.
    """
    for p, s in fields:
        check_field(p, s, opts.max_table_q)
    hs = None if h_policy == "all" else sorted(set(h_policy))
    return (
        [(p, s, h) for h in (range(p**s + 1) if hs is None else hs) if 0 <= h <= p**s]
        for p, s in fields
    )


def _sweep_tasks(
    p_list: list[int], s_min: int, s_max: int, h_policy: str | list[int], opts: AnalyzeOptions
) -> list[tuple]:
    """The checked (p, s, h) tasks of ``sweep``, p distinct and ascending."""
    fields = [(p, s) for p in sorted(set(p_list)) for s in range(s_min, s_max + 1)]
    tasks = [task for field in _grid(fields, h_policy, opts) for task in field]
    if not tasks:
        raise ValueError(f"no code in the grid p={p_list} s={s_min}..{s_max} h={h_policy}")
    return tasks


def _run(tasks: list[tuple], opts: AnalyzeOptions, threads: int) -> list[CodeRecord]:
    """``analyze`` on every (p, s, h) task, in task order."""
    _check_threads(threads)
    columns = (*zip(*tasks), [opts] * len(tasks))
    if threads == 1:
        return list(map(analyze, *columns))
    # imported here: it pulls in multiprocessing, which a serial run never needs
    from concurrent.futures import ProcessPoolExecutor

    # workers are forked, so the fields built here are inherited, not rebuilt;
    # a field that the cache dropped before the fork is rebuilt by each worker
    # that reaches it
    for p, s in dict.fromkeys((p, s) for p, s, _h in tasks):
        build_field(p, s, opts.max_table_q)
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(analyze, *columns, chunksize=4))


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ValueError(f"threads={threads} must be >= 1")


def sweep(
    p_list: list[int],
    s_min: int,
    s_max: int,
    h_policy: str | list[int] = "all",
    options: AnalyzeOptions | None = None,
    threads: int = 1,
) -> list[CodeRecord]:
    """One record per (p, s, h), ordered by (p, s, h); the p and h lists are
    taken as their distinct values in ascending order.

    Raises ValueError before analyzing anything when ``check_field`` rejects
    a field, when the grid holds no code or when threads is below 1.
    """
    opts = options or AnalyzeOptions()
    return _run(_sweep_tasks(p_list, s_min, s_max, h_policy, opts), opts, threads)


def prime_powers_upto(max_q: int) -> list[tuple[int, int, int]]:
    """(q, p, s) for every prime power q <= max_q, ascending in q."""
    out = []
    for p in range(2, max_q + 1):
        if not is_prime(p):
            continue
        s = 1
        while p**s <= max_q:
            out.append((p**s, p, s))
            s += 1
    return sorted(out)


def check_theorems(
    max_q: int, options: AnalyzeOptions | None = None, threads: int = 1
) -> list[CodeRecord]:
    """Full cross-validation over every prime power q <= max_q, all offsets.

    Raises ValueError before analyzing anything when ``check_field`` rejects
    a field, when no prime power is at most max_q or when threads is below 1.
    """
    opts = options or AnalyzeOptions()
    grid = prime_powers_upto(max_q)
    if not grid:
        raise ValueError(f"no prime power q <= {max_q}")
    fields = _grid([(p, s) for _q, p, s in grid], "all", opts)
    return _run([task for tasks in fields for task in tasks], opts, threads)


# ---------------------------------------------------------------------------
# conjectures
# ---------------------------------------------------------------------------

CONJECTURES = ("dual-distance-q-p", "even-s-amds")


def check_conjecture(
    name: str,
    p_max: int = 13,
    s: int | None = None,
    options: AnalyzeOptions | None = None,
) -> list[dict]:
    """Evaluate one conjecture instance-by-instance within the caps.

    Returns dicts with a ``status`` of CONFIRMED, REFUTED, or UNREACHED; an
    instance that ``check_field`` rejects is UNREACHED, with the reason as its
    note.  Raises ValueError for an unknown name, for s < 1, or for a p_max
    below 3, which leaves dual-distance-q-p no instance.
    """
    if s is not None and s < 1:
        raise ValueError(f"s={s} must be >= 1")
    opts = options or AnalyzeOptions()
    # per instance: p, s, h, its expected cells and an out-of-scope note
    if name == "dual-distance-q-p":
        if p_max < 3:
            raise ValueError(f"p_max={p_max} leaves no prime p >= 3 to check")
        s_val = 2 if s is None else s
        narrow = "h=1 narrow-sense case is covered by the NMDS family"
        instances = [
            (p, s_val, (p - 1) // 2, {"expected_d_dual": p**s_val - p}, narrow if p == 3 else "")
            for p in range(3, p_max + 1)
            if is_prime(p)
        ]
        measured = ("d", "d_dual")

        def holds(rec: CodeRecord) -> bool:
            return rec.d_dual == rec.q - rec.p and rec.d in (None, 4)

    elif name == "even-s-amds":
        s_val = 6 if s is None else s
        scope = "" if s_val % 2 == 0 and s_val >= 6 else "conjecture concerns even s >= 6"
        instances = [(2, s_val, 4, {"expected_d": 4}, scope)]
        measured = ("d",)

        def holds(rec: CodeRecord) -> bool:
            return rec.d == 4

    else:
        raise ValueError(f"unknown conjecture {name!r}; choose from {CONJECTURES}")
    out: list[dict] = []
    for p, s_val, h, expected, note in instances:
        if not note:
            try:
                check_field(p, s_val, opts.max_table_q)
            except ValueError as exc:
                note = str(exc).partition("; ")[0]  # the reason, not the advice
        row = {"conjecture": name, "p": p, "s": s_val, "q": p**s_val, "h": h, **expected}
        row.update(dict.fromkeys(measured), status="UNREACHED", note=note)
        if not note:
            rec = analyze(p, s_val, h, opts)
            row.update({k: getattr(rec, k) for k in measured})
            row["status"] = "CONFIRMED" if holds(rec) else "REFUTED"
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# CSV / JSON emission (lossless round trip)
# ---------------------------------------------------------------------------


def _cell_type(hint) -> type:
    """The type a report cell parses to: int for ``int | None``."""
    return next(t for t in get_args(hint) or (hint,) if t is not type(None))


_HINTS = get_type_hints(CodeRecord)
# report column -> (CodeRecord attribute, cell type), in column order; the
# attribute ``class_`` is the column ``class``
_COLUMNS = {f.name.rstrip("_"): (f.name, _cell_type(_HINTS[f.name])) for f in fields(CodeRecord)}
RECORD_FIELDS: list[tuple[str, type]] = [(name, typ) for name, (_, typ) in _COLUMNS.items()]


def _field_names(stable: bool) -> list[str]:
    names = list(_COLUMNS)
    if stable:
        names.remove("runtime_ms")
    return names


def _to_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _from_cell(text: str, typ: type):
    if text == "":
        return None if typ is not str else ""
    if typ is bool:
        return text == "true"
    if typ is int:
        return int(text)
    return text


def _row(rec: CodeRecord, names: list[str]) -> dict:
    return {name: getattr(rec, _COLUMNS[name][0]) for name in names}


def _record(cells) -> CodeRecord:
    """A record from (column, value) pairs; columns must be checked already."""
    rec = CodeRecord(p=0, s=0, q=0, h=0, n=0, delta=0)
    for name, value in cells:
        setattr(rec, _COLUMNS[name][0], value)
    return rec


def records_to_csv(records: list[CodeRecord], stable: bool = False) -> str:
    names = _field_names(stable)
    attrs = [_COLUMNS[name][0] for name in names]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    for rec in records:
        writer.writerow([_to_cell(getattr(rec, attr)) for attr in attrs])
    return buf.getvalue()


def _check_column(name: str) -> None:
    if name not in _COLUMNS:
        raise ValueError(f"unknown report column {name!r}")


def csv_to_records(text: str) -> list[CodeRecord]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    for name in header:
        _check_column(name)
    return [
        _record((name, _from_cell(cell, _COLUMNS[name][1])) for name, cell in zip(header, row))
        for row in reader
    ]


def records_to_json(records: list[CodeRecord], stable: bool = False) -> str:
    names = _field_names(stable)
    return json.dumps([_row(rec, names) for rec in records], indent=2) + "\n"


def json_to_records(text: str) -> list[CodeRecord]:
    out = []
    for row in json.loads(text):
        for name in row:
            _check_column(name)
        out.append(_record(row.items()))
    return out


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _print_outcome(records: list[CodeRecord]) -> int:
    bad = [r for r in records if not r.match]
    print(f"{len(records)} codes analyzed; {len(records) - len(bad)} match their predictions")
    for rec in records:
        if rec.match and rec.finding:
            print(f"FINDING q={rec.q} h={rec.h}: {rec.finding}")
    for rec in bad:
        print(f"MISMATCH q={rec.q} h={rec.h}: {rec.error}", file=sys.stderr)
        print(json.dumps(_row(rec, list(_COLUMNS))), file=sys.stderr)
    return 1 if bad else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bchlab",
        description=(
            "Construct the length-(q+1), designed-distance-3 BCH codes over "
            "GF(q), measure their true parameters by brute force, and check "
            "the closed-form predictions."
        ),
    )
    parser.add_argument("--threads", type=int, default=1, help="parallel workers for sweeps")
    parser.add_argument(
        "--max-table-q",
        type=int,
        default=MAX_TABLE_Q,
        help="override the field table cap (default q <= 4096)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("field-info", help="describe GF(q^2) and its unit circle")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)

    sp = sub.add_parser("code", help="construct one code and show predictions")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--delta", type=int, default=3)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("dual-distance", help="exact dual distance of one code")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--method", choices=["root-count", "dual-enum"], default="root-count")

    sp = sub.add_parser("sweep", help="analyze a (p, s, h) grid and emit CSV/JSON")
    sp.add_argument("--p", type=str, required=True, help="prime or comma list of primes")
    sp.add_argument("--s-min", type=int, required=True)
    sp.add_argument("--s-max", type=int, required=True)
    sp.add_argument("--h", type=str, default="all", help="'all' or comma list")
    sp.add_argument("--out", type=str, required=True, help="CSV output path")
    sp.add_argument("--json", type=str, default=None, help="also write JSON here")
    sp.add_argument(
        "--stable",
        action="store_true",
        help="omit runtime columns so repeated runs are byte-identical",
    )

    sp = sub.add_parser("check-theorems", help="full cross-validation up to a q cap")
    sp.add_argument("--max-q", type=int, required=True)

    sp = sub.add_parser("check-conjecture", help="evaluate an open conjecture at desk scale")
    sp.add_argument("--name", choices=list(CONJECTURES), required=True)
    sp.add_argument("--p-max", type=int, default=13)
    sp.add_argument("--s", type=int, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    opts = AnalyzeOptions(max_table_q=args.max_table_q)
    try:
        _check_threads(args.threads)
        return _dispatch(args, opts)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace, opts: AnalyzeOptions) -> int:
    if args.command == "field-info":
        ctx = build_field(args.p, args.s, opts.max_table_q)
        print(f"p = {ctx.p}")
        print(f"s = {ctx.s}")
        print(f"q = {ctx.q}   (field GF(q^2) has {ctx.q2} elements)")
        print(f"modulus coefficients (low degree first) = {list(ctx.modulus)}")
        print(f"alpha = {ctx.alpha}  (order {ctx.order})")
        print(f"beta  = {ctx.beta}  (order {ctx.q + 1})")
        print(f"|GF(q)| = {len(ctx.sub_sorted)}")
        print(f"|U_(q+1)| = {len(ctx.unit_circle())}")
        return 0

    if args.command == "code":
        ctx = build_field(args.p, args.s, opts.max_table_q)
        code = bch.build_bch(ctx, args.delta, args.h)
        info = {
            "p": args.p,
            "s": args.s,
            "q": ctx.q,
            "h": args.h,
            "delta": args.delta,
            "n": code.n,
            "k": code.k,
            "k_dual": code.n - code.k,
            "generator_degree": code.g.degree,
            "generator_coeffs": code.compact_g.tolist(),
        }
        if args.delta == 3:
            info["predicted_k"] = theory.predict_dimension(ctx.q, args.h)
            pred = theory.predict_min_distance(ctx, args.h, resolve=True)
            info["predicted_d"] = pred.outcome
            info["resolved_d"] = pred.resolved
            bounds = theory.dual_distance_bounds(ctx.q, args.h)
            info["dual_distance_bounds"] = list(bounds) if bounds else None
        if args.json:
            print(json.dumps(info, indent=2))
        else:
            for key, value in info.items():
                print(f"{key} = {value}")
        return 0

    if args.command == "dual-distance":
        q = args.p**args.s
        if args.method == "dual-enum" and q > DUAL_ENUM_CAP_Q:
            raise ValueError(f"q={q} exceeds dual-enum cap {DUAL_ENUM_CAP_Q}")
        ctx = build_field(args.p, args.s, opts.max_table_q)
        code = bch.build_bch(ctx, 3, args.h)
        res = distance.dual_min_distance(code, args.method)
        ok = distance.verify_witness(code, res)
        print(f"q = {ctx.q}  h = {args.h}  method = {res.method}")
        print(f"d_dual = {res.value}")
        print(f"witness source = {res.witness.source}")
        print(f"witness verified = {ok}")
        return 0 if ok else 1

    if args.command == "sweep":
        p_list = [int(x) for x in args.p.split(",")]
        h_policy = "all" if args.h == "all" else [int(x) for x in args.h.split(",")]
        tasks = _sweep_tasks(p_list, args.s_min, args.s_max, h_policy, opts)
        # open the outputs once the grid is checked but before it is analyzed, so
        # that a bad path fails at once; append mode keeps an existing file
        # intact until the rows are ready
        with contextlib.ExitStack() as stack:
            csv_new = not os.path.exists(args.out)
            csv_fh = stack.enter_context(open(args.out, "a", newline=""))
            try:
                json_fh = stack.enter_context(open(args.json, "a")) if args.json else None
            except OSError:
                # a --out that this run created goes; an existing one keeps its bytes
                if csv_new:
                    os.remove(args.out)
                raise
            records = _run(tasks, opts, args.threads)
            csv_fh.truncate(0)
            csv_fh.write(records_to_csv(records, stable=args.stable))
            if json_fh:
                json_fh.truncate(0)
                json_fh.write(records_to_json(records, stable=args.stable))
        return _print_outcome(records)

    if args.command == "check-theorems":
        records = check_theorems(args.max_q, opts, threads=args.threads)
        return _print_outcome(records)

    if args.command == "check-conjecture":
        rows = check_conjecture(args.name, p_max=args.p_max, s=args.s, options=opts)
        refuted = False
        for row in rows:
            detail = " ".join(
                f"{k}={v}" for k, v in row.items() if k not in ("conjecture", "status", "note")
            )
            note = f"  ({row['note']})" if row["note"] else ""
            print(f"{row['status']:10s} {row['conjecture']} {detail}{note}")
            if row["status"] == "REFUTED":
                refuted = True
        if refuted:
            print("FINDING: a conjecture instance is refuted by ground truth")
        return 0

    raise AssertionError("unhandled command")  # unreachable


__all__ = [
    "AnalyzeOptions",
    "CodeRecord",
    "RECORD_FIELDS",
    "analyze",
    "sweep",
    "check_theorems",
    "check_conjecture",
    "prime_powers_upto",
    "records_to_csv",
    "csv_to_records",
    "records_to_json",
    "json_to_records",
    "main",
]
