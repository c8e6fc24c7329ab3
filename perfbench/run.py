"""bchlab benchmark: one workload per run, checked against expected outputs.

    python3 perfbench/run.py --workload theorems-32 --seed 1 --seconds 40 --trace 0

Load is closed-loop: one client issues the next request when the previous one
returns, in one process with no worker threads.

Every time is read from ``spans.CLOCK``, the CPU clock of this process, so
that time the host gives this virtual CPU to other guests does not count, and
is then scaled to the nominal speed (see ``reference.py``): fixed reference
work runs between requests, and each time is scaled by how long that work
took around it.  The median pass on the wall clock and the unscaled
CPU-clock figures are printed for reference; they are not gated.

``--trace 0`` times the workload untraced.  Set-up (cold ``build_field`` and
the lazy subfield tables of the workload's fields) runs from a cleared cache
at least SETUP_MIN_REPEATS times and for at least SETUP_MIN_S seconds; the
last one leaves the fields warm.  Then whole passes over the request list,
each in a new order drawn from ``--seed``, run until ``--seconds`` have
elapsed since the set-up began; at least one pass runs, and the last one is
always completed.  A request's latency is its median scaled time over the
passes, and ``pass_s`` is the sum of those, plus the median CSV emission on
theorems-32.  The median, not the fastest: each scaled time carries the
error of its scale, and the fastest of several picks the largest error.
Every request's output is compared with ``expected/<workload>.json``.

``--trace 1`` runs one traced cold set-up, then untraced and traced passes in
turn until ``--seconds`` have elapsed (at least one of each), and reports
per-layer numbers from the spans (see ``spans.py``): the median over traced
passes, and the tracing overhead as the difference of ``pass_s`` figured
over the traced and over the untraced passes.

The last line of stdout is the result JSON; the lines before it print every
metric with its unit and the run's provenance.  The full result, with raw
samples, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from bchlab import field, harness  # noqa: E402

SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 2.0
OUT_DIR = HERE / "out"
CLOCK = spans.CLOCK

END_TO_END_UNITS = {
    "pass_s": "s",
    "setup_s": "s",
    "code_ms_p50": "ms",
    "code_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
# per-layer metric -> (span, figure): a span's "total_s" or "self_s" seconds,
# or its "calls"; read from the traced set-up for SETUP_LAYERS, else per pass
LAYER_SPANS = {
    "field.build_s": ("field.build_field", "total_s"),
    "field.tables_s": ("field.tables", "total_s"),
    "polynomial.is_irreducible_calls": ("polynomial.is_irreducible", "calls"),
    "polynomial.is_irreducible_s": ("polynomial.is_irreducible", "total_s"),
    "gflin.rref_calls": ("gflin.rref", "calls"),
    "gflin.rref_s": ("gflin.rref", "total_s"),
    "distance.column_search_s": ("distance.min_distance_by_columns", "self_s"),
    "bch.parity_matrix_s": ("bch.expanded_parity_matrix", "total_s"),
    "distance.root_count_s": ("distance.root_count_scan", "self_s"),
    "bch.dual_codeword_s": ("bch.dual_codeword", "total_s"),
    "theory.quadruple_search_s": ("theory.find_ratio_quadruple", "total_s"),
    "theory.quadruple_calls": ("theory.find_ratio_quadruple", "calls"),
    "bch.build_s": ("bch.build_bch", "total_s"),
    "polynomial.minimal_polynomial_s": ("polynomial.minimal_polynomial", "total_s"),
    "theory.predict_s": ("theory.predict_min_distance", "self_s"),
    "distance.verify_witness_s": ("distance.verify_witness", "total_s"),
    "harness.analyze_self_s": ("harness.analyze", "self_s"),
    "harness.emit_s": ("harness.records_to_csv", "total_s"),
}
SETUP_LAYERS = {
    "field.build_s",
    "field.tables_s",
    "polynomial.is_irreducible_calls",
    "polynomial.is_irreducible_s",
}
PER_LAYER_UNITS = {
    **{name: "count" if fig == "calls" else "s" for name, (_, fig) in LAYER_SPANS.items()},
    "distance.root_count_pairs": "count",
    "theory.quadruple_found_ratio": "ratio",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "trace.unreported_self_s": "s",
}
LABELS = {
    "distance.root_count_pairs": "computed from q and h, not counted in the scan",
    "trace.unreported_self_s": "self time of traced spans that no per-layer metric names",
}



class RequestError:
    """Stands in for the result of a request that raised."""

    def __init__(self):
        self.text = traceback.format_exc()


@dataclass
class Pass:
    seconds: float  # on CLOCK
    wall_s: float
    latencies: list[float]  # on CLOCK until scaled()
    stamps: list[float]  # wall time at the middle of each request
    emit_s: float  # the CSV emission that ends a check-theorems pass
    emit_stamp: float
    results: list


def scaled(p: Pass, speed: reference.Speed) -> Pass:
    """The pass with its latencies and emission at the reference speed."""
    lat = [x * speed.scale(t) for x, t in zip(p.latencies, p.stamps)]
    return replace(p, latencies=lat, emit_s=p.emit_s * speed.scale(p.emit_stamp))


def _span(recorder, name: str):
    return recorder.span(name) if recorder is not None else nullcontext()


def set_up(wl: workloads.Workload, speed: reference.Speed, recorder=None) -> tuple[float, float]:
    """Cold construction of the workload's fields and their lazy tables, with
    reference samples on each side.  Returns its seconds on CLOCK and the
    wall time at its middle."""
    field.build_field.cache_clear()
    speed.maybe_sample()
    wall0, t0 = time.perf_counter(), CLOCK()
    for p, s in wl.fields:
        with _span(recorder, "field.build_field"):
            ctx = field.build_field(p, s, field.MAX_TABLE_Q)
        with _span(recorder, "field.tables"):
            ctx.digits, ctx.add_table, ctx.mul_table, ctx.neg_table, ctx.inv_table
    seconds, stamp = CLOCK() - t0, (wall0 + time.perf_counter()) / 2
    speed.maybe_sample()
    return seconds, stamp


def run_pass(
    wl: workloads.Workload, requests: list, speed: reference.Speed, order=None, recorder=None
) -> Pass:
    """Run every request once, in ``order`` (indexes into ``requests``, by
    default as listed), with reference samples between requests.  Latencies
    are on CLOCK; they and the results are kept in request order."""
    n = len(requests)
    results, latencies, stamps = [None] * n, [0.0] * n, [0.0] * n
    wall0, t0 = time.perf_counter(), CLOCK()
    with _span(recorder, "bench.pass"):
        for i in range(n) if order is None else order:
            with _span(recorder, "bench.reference"):
                speed.maybe_sample()
            wall, t = time.perf_counter(), CLOCK()
            try:
                with _span(recorder, "bench.request"):
                    results[i] = wl.run(requests[i])
            except Exception:  # a request that raises counts as failed
                results[i] = RequestError()
            latencies[i] = CLOCK() - t
            stamps[i] = (wall + time.perf_counter()) / 2
        wall, t = time.perf_counter(), CLOCK()
        if wl.emits_csv:
            # its rows are the per-request outputs that check() compares
            harness.records_to_csv(
                [r for r in results if not isinstance(r, RequestError)], stable=True
            )
        emit_s, emit_stamp = CLOCK() - t, (wall + time.perf_counter()) / 2
        with _span(recorder, "bench.reference"):
            speed.maybe_sample()
    return Pass(
        CLOCK() - t0, time.perf_counter() - wall0, latencies, stamps, emit_s, emit_stamp, results
    )


def check(wl: workloads.Workload, requests: list, results: list, expected: dict) -> list[bool]:
    """Per request, whether it failed: it raised, failed its own checks, or
    its output differs from the expected one."""
    failed = []
    want = expected["outputs"]
    for req, result in zip(requests, results):
        if isinstance(result, RequestError):
            print(f"request {req} raised {result.text}", file=sys.stderr)
            failed.append(True)
            continue
        out = json.loads(json.dumps(wl.output(result)))
        bad = not wl.ok(req, result) or out != want.get(workloads.request_key(req))
        if bad:
            print(f"request {req} failed: got {out}", file=sys.stderr)
        failed.append(bad)
    return failed


def shuffled(rng: random.Random, requests: list) -> list[int]:
    """A new request order for each pass.  A request's latency is its median
    time over the passes; in a fixed order the requests of similar latency
    run next to each other, so one slow second of the host would move the
    percentiles of every pass alike."""
    return rng.sample(range(len(requests)), len(requests))


def median_latencies(passes: list[Pass]) -> list[float]:
    """Each request's median time over the passes."""
    return [statistics.median(lat) for lat in zip(*(p.latencies for p in passes))]


def median_pass_s(passes: list[Pass]) -> float:
    """A pass at each request's median time, and the median CSV emission."""
    return sum(median_latencies(passes)) + statistics.median(p.emit_s for p in passes)


def _percentile_ms(latencies: list[float], pct: int) -> float:
    """Nearest-rank percentile, so the value is one request's latency and
    not a blend of two requests of different fields."""
    return 1000.0 * float(np.percentile(latencies, pct, method="inverted_cdf"))


def _metric(name: str, value: float, units: dict) -> dict:
    return {"value": float(value), "unit": units[name]}


def pass_layers(rec: spans.SpanRecorder, scale: float) -> dict[str, float]:
    """The per-pass layer figures of one traced pass, its seconds multiplied
    by ``scale``."""
    every = rec.summary()
    values = {
        name: every.get(span, {}).get(fig, 0) * (scale if fig != "calls" else 1)
        for name, (span, fig) in LAYER_SPANS.items()
        if name not in SETUP_LAYERS
    }
    quad_calls = values["theory.quadruple_calls"]
    # the reference samples are the benchmark's, not the workload's
    named = {span for span, _ in LAYER_SPANS.values()} | {"bench.reference"}
    values.update(
        {
            "distance.root_count_pairs": rec.counts["distance.root_count_pairs"],
            "theory.quadruple_found_ratio": (
                rec.counts["theory.quadruple_found"] / quad_calls if quad_calls else 0.0
            ),
            "trace.unreported_self_s": scale
            * sum(v["self_s"] for k, v in every.items() if k not in named),
        }
    )
    return values


def layer_metrics(
    setup_rec: spans.SpanRecorder,
    setup_scale: float,
    traced: list[tuple[Pass, spans.SpanRecorder]],
    untraced: list[Pass],
    speed: reference.Speed,
) -> dict:
    """Set-up layers from the traced set-up; the rest as medians over the
    traced passes.  Seconds are at the reference speed; a traced pass's
    layers are scaled by the ratio of its scaled to its CPU-clock time."""
    setup = setup_rec.summary()
    values = {
        name: setup.get(span, {}).get(fig, 0) * (setup_scale if fig != "calls" else 1)
        for name, (span, fig) in LAYER_SPANS.items()
        if name in SETUP_LAYERS
    }
    per_pass = []
    for p, rec in traced:
        q = scaled(p, speed)
        raw = sum(p.latencies) + p.emit_s
        per_pass.append(pass_layers(rec, (sum(q.latencies) + q.emit_s) / raw if raw else 1.0))
    traced = [(scaled(p, speed), rec) for p, rec in traced]
    untraced = [scaled(p, speed) for p in untraced]
    values.update({name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]})
    values["trace.pass_s"] = median_pass_s([p for p, _ in traced])
    values["trace.overhead_s"] = values["trace.pass_s"] - median_pass_s(untraced)
    return {name: _metric(name, values[name], PER_LAYER_UNITS) for name in PER_LAYER_UNITS}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


def measure(
    wl: workloads.Workload,
    requests: list,
    expected: dict,
    seed: int,
    seconds: float,
    trace: bool,
) -> dict:
    """Run one workload and return the full result document."""
    doc = {"workload": wl.name, "provenance": provenance(seed), "requests": len(requests)}
    rng = random.Random(seed)
    speed = reference.Speed(wl.speed_weights)
    if trace:
        setup_rec = spans.SpanRecorder()
        with spans.traced(setup_rec):
            _, setup_stamp = set_up(wl, speed, setup_rec)
        untraced, traced = [], []
        t0 = time.perf_counter()
        while not traced or time.perf_counter() - t0 < seconds:
            untraced.append(run_pass(wl, requests, speed, shuffled(rng, requests)))
            rec = spans.SpanRecorder()
            with spans.traced(rec):
                traced.append((run_pass(wl, requests, speed, shuffled(rng, requests), rec), rec))
        passes = untraced + [p for p, _ in traced]
        doc["provenance"]["setup_repeats"] = 1
        metrics = layer_metrics(setup_rec, speed.scale(setup_stamp), traced, untraced, speed)
        doc["spans"] = {"setup": setup_rec.summary()}
        OUT_DIR.mkdir(exist_ok=True)
        setup_rec.write(OUT_DIR / f"spans-{wl.name}-seed{seed}-setup.npz")
        for i, (_, rec) in enumerate(traced):
            doc["spans"][f"pass{i}"] = rec.summary()
            rec.write(OUT_DIR / f"spans-{wl.name}-seed{seed}-pass{i}.npz")
    else:
        setups = []
        t0 = time.perf_counter()
        while len(setups) < SETUP_MIN_REPEATS or sum(s for s, _ in setups) < SETUP_MIN_S:
            setups.append(set_up(wl, speed))
        passes = []
        while not passes or time.perf_counter() - t0 < seconds:
            passes.append(run_pass(wl, requests, speed, shuffled(rng, requests)))
        doc["provenance"]["setup_repeats"] = len(setups)
        setup_times = [s * speed.scale(t) for s, t in setups]
        raw_passes, passes = passes, [scaled(p, speed) for p in passes]
        latencies = median_latencies(passes)
        values = {
            "pass_s": median_pass_s(passes),
            "setup_s": statistics.median(setup_times),
            "code_ms_p50": _percentile_ms(latencies, 50),
            "code_ms_p90": _percentile_ms(latencies, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: _metric(name, v, END_TO_END_UNITS) for name, v in values.items()}
        doc["samples"] = {
            "setup_s": setup_times,
            "setup_cpu_s": [s for s, _ in setups],
            "pass_cpu_s": [p.seconds for p in raw_passes],
            "latency_ms": [[1000 * x for x in p.latencies] for p in passes],
            "latency_cpu_ms": [[1000 * x for x in p.latencies] for p in raw_passes],
            "latency_stamps": [p.stamps for p in raw_passes],
            "setup_stamps": [t for _, t in setups],
        }
        doc["unscaled"] = {
            "pass_s": median_pass_s(raw_passes),
            "setup_s": statistics.median(s for s, _ in setups),
        }
        doc["provenance"]["p90_requests_beyond"] = sum(
            x * 1000 > values["code_ms_p90"] for x in latencies
        )
    doc["samples_wall_s"] = [p.wall_s for p in passes]
    doc["samples"] = {
        **doc.get("samples", {}),
        "reference_stamps": speed.stamps,
        "reference_s": speed.samples,
    }
    doc["provenance"]["reference_samples"] = len(speed.stamps)

    attempted = failed = 0
    for p in passes:
        flags = check(wl, requests, p.results, expected)
        attempted += len(flags)
        failed += sum(flags)
    doc["provenance"].update(passes=len(passes), attempted=attempted)
    doc.update(
        wall_s=statistics.median(doc["samples_wall_s"]),
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        metrics=metrics,
    )
    return doc


def report(doc: dict) -> str:
    """Human-readable lines, then the one-line result JSON."""
    lines = [f"workload {doc['workload']}: {doc['requests']} requests per pass"]
    lines.append("provenance " + json.dumps(doc["provenance"], sort_keys=True))
    for name, m in doc["metrics"].items():
        label = f"  ({LABELS[name]})" if name in LABELS else ""
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}{label}")
    for name, value in doc.get("unscaled", {}).items():
        lines.append(f"{name} = {value:.6g} s on the CPU clock  (unscaled, not gated)")
    lines.append(f"wall_s = {doc['wall_s']:.6g} s  (median pass on the wall clock, not gated)")
    lines.append(
        f"failed_frac = {doc['failed_frac']:.6g} ({doc['failed']}/{doc['attempted']})"
    )
    result = {k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}
    lines.append(json.dumps(result))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="bchlab benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    requests = wl.make_requests(args.seed)
    expected = workloads.load_expected(wl.name)
    doc = measure(wl, requests, expected, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    print(report(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
