"""Paired benchmark runs of two commits, the side that runs first alternating.

    python3 tools/bench_pairs.py --workload large-q-dual --seeds 1-10 --out BENCH_19.json

Each side, ``--base`` (default HEAD~1) and ``--head`` (default HEAD), is
exported with ``git archive`` into its own temporary directory, so both run
``perfbench/run.py`` from committed files only and this checkout is not
written to.  For each seed and workload the two sides run once each, with the
same ``--seconds`` and ``--trace``; the base runs first on the first seed, the
head on the second, and so on.

The output JSON holds both shas and the tree hash of their ``src/``, the
machine (nproc, Python and numpy versions), the seeds, every run's metrics and
failed requests, and per workload and metric each side's median and quartiles,
the number of pairs in which the head read better, ties counting for
neither side, and the verdict: ``gain`` (9 in 10 pairs won and a median
margin wider than the base's quartile spread), ``worse`` (the head's median
worse by more than the metric's bound) and ``unresolved`` (a side's quartile
spread wider than the bound).  Which direction is better, and the bounds,
come from ``BENCHMARK.json`` of the head.  Beside the verdicts, each workload
gets ``rss_fit``: ``peak_rss_mb`` fitted against the requests each run
attempted, over every run of both sides, since ``perfbench/run.py`` keeps
every pass's records and a faster side's peak rises with its request count;
its ``max_pass_gain`` is the largest drop in ``pass_s`` for which that fit
keeps ``peak_rss_mb`` within its bound, and each side's peaks are also read
along it at the base's median request count.  ``--out`` is rewritten after
each workload finishes, so a run stopped or failed on a later workload keeps
the earlier ones.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The committed tree of ``rev`` under ``dest``, through ``git archive``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,4,7' (or a mix) as a list of ints, in the order given.

    Raises ValueError on a part that is not an integer or an ascending range
    lo-hi, so the list is never empty.
    """
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        try:
            first, last = int(lo), int(hi or lo)
        except ValueError:
            raise ValueError(f"seed {part!r} is not an integer or a range lo-hi") from None
        if last < first:
            raise ValueError(f"seed range {part!r} is descending")
        seeds.extend(range(first, last + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one ``perfbench/run.py`` run: correct, attempted,
    failed and metrics."""
    args = ["--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", trace]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout.name} {workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str], bounds: dict | None = None) -> dict:
    """Per metric: each side's median and quartiles, the pairs the head won,
    and the verdict.

    ``gain``: the head won at least 9 in 10 of the pairs, and its median is
    better than the base's by more than the base's quartile spread.
    ``worse``: the head's median is worse than the base's by more than
    ``bound``, a fraction of the base's median.  ``unresolved``: a side's
    quartile spread is wider than ``bound`` times its median.  A metric
    without a bound gets None for the last two.
    """
    out = {}
    for name in pairs[0]["base"]["metrics"]:
        base = spread([p["base"]["metrics"][name] for p in pairs])
        head = spread([p["head"]["metrics"][name] for p in pairs])
        direction = better.get(name, "lower")
        sign = -1 if direction == "lower" else 1
        won = sum(
            sign * (p["head"]["metrics"][name] - p["base"]["metrics"][name]) > 0 for p in pairs
        )
        margin = sign * (head["median"] - base["median"])
        bound = (bounds or {}).get(name)
        out[name] = {
            "better": direction,
            "base": base,
            "head": head,
            "head_won": won,
            "pairs": len(pairs),
            "bound": bound,
            "gain": 10 * won >= 9 * len(pairs) and margin > base["q3"] - base["q1"],
            "worse": None if bound is None else -margin > bound * abs(base["median"]),
            "unresolved": None if bound is None else any(
                s["q3"] - s["q1"] > bound * abs(s["median"]) for s in (base, head)
            ),
        }
    return out


def rss_fit(pairs: list[dict], bound: float | None = None) -> dict | None:
    """Least-squares line of ``peak_rss_mb`` against requests attempted, over
    every run of both sides: the MB per 1,000 requests, the intercept in MB
    and the number of runs.  None when a run has no peak or every run
    attempted the same number of requests.

    ``requests`` is R0, the base's median request count, and
    ``base_peak_at_requests`` and ``head_peak_at_requests`` are each side's
    peaks read at R0 along the fit, peak - slope * (attempted - R0): their
    median and quartiles compare the sides' memory without the share that
    comes from one side attempting more requests in its time.

    With ``bound``, the fraction by which ``peak_rss_mb`` may rise, the fit
    also gets ``max_pass_gain``: the largest fractional drop x in ``pass_s``
    for which the fitted peak stays within the bound.  A run is time-bounded,
    so a side whose passes take 1 - x of the time attempts R0 / (1 - x)
    requests, R0 the base's median; with P0 the fitted peak at R0 and s the
    slope, the peak stays within (1 + bound) * P0 while
    x <= bound * P0 / (bound * P0 + s * R0).  A slope of 0 or below gives 1.
    """
    runs = [pair[side] for pair in pairs for side in ("base", "head")]
    if any("peak_rss_mb" not in run["metrics"] for run in runs):
        return None
    attempted = [run["attempted"] for run in runs]
    if len(set(attempted)) < 2:
        return None
    slope, intercept = statistics.linear_regression(
        attempted, [run["metrics"]["peak_rss_mb"] for run in runs]
    )
    fit = {"mb_per_1000_requests": 1000 * slope, "intercept_mb": intercept, "runs": len(runs)}
    requests = statistics.median(pair["base"]["attempted"] for pair in pairs)
    fit["requests"] = requests
    for side in ("base", "head"):
        fit[f"{side}_peak_at_requests"] = spread([
            pair[side]["metrics"]["peak_rss_mb"] - slope * (pair[side]["attempted"] - requests)
            for pair in pairs
        ])
    if bound is not None:
        room = bound * (intercept + slope * requests)
        fit["max_pass_gain"] = 1.0 if slope <= 0 else room / (room + slope * requests)
    return fit


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--head", default="HEAD")
    parser.add_argument("--out", required=True, help="result JSON path")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(f"--seeds: {exc}")  # exits 2 before anything is exported
    # SIGTERM as an exception: ``subprocess.run`` then kills its ``run.py``
    # child, and ``TemporaryDirectory`` removes both exported trees
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    sides = {"base": args.base, "head": args.head}

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts = {}
        for side, rev in sides.items():
            checkouts[side] = Path(tmp) / side
            export(rev, checkouts[side])
        bench = json.loads((checkouts["head"] / "BENCHMARK.json").read_text())
        seconds = bench["run_seconds"] if args.seconds is None else args.seconds
        better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"] if "bound" in m}
        numpy_version = subprocess.run(
            [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
            check=True, capture_output=True, text=True,
        ).stdout.strip()
        doc = {
            **{
                side: {
                    "rev": rev,
                    "sha": git("rev-parse", rev),
                    "src_tree": git("rev-parse", f"{rev}:src"),
                }
                for side, rev in sides.items()
            },
            "machine": {
                "nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": numpy_version,
            },
            "command": f"perfbench/run.py --seconds {seconds:g} --trace {args.trace}",
            "seeds": seeds,
            "workloads": {},
        }
        for workload in args.workload:
            pairs = []
            for i, seed in enumerate(seeds):
                order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(checkouts[side], workload, seed, seconds, args.trace)
                    print(
                        f"{workload} seed {seed} {side}: "
                        + " ".join(f"{k}={v:.6g}" for k, v in pair[side]["metrics"].items()),
                        file=sys.stderr,
                    )
                pairs.append(pair)
            doc["workloads"][workload] = {
                "metrics": summarize(pairs, better, bounds),
                "rss_fit": rss_fit(pairs, bounds.get("peak_rss_mb")),
                "failed": {s: sum(p[s]["failed"] for p in pairs) for s in sides},
                "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in sides},
                "runs": pairs,
            }
            write_json(Path(args.out), doc)
    return 0


def write_json(path: Path, doc: dict) -> None:
    """Write ``doc`` to ``path`` through a temporary file in the same
    directory and ``os.replace``, so the file is never left half written."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, indent=1) + "\n")
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main())
