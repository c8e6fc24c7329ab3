"""Record the expected output of every request a workload can make.

    python3 perfbench/record_expected.py --workload large-q-dual --jobs 2

Run this only on a commit whose outputs are known to be right: the benchmark
counts every later difference from these files as a failed request.  Each
request's own checks (witness re-validation, bounds, `match`) must pass
before its output is recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def _one(args: tuple[str, tuple[int, int, int]]):
    name, req = args
    wl = workloads.WORKLOADS[name]
    t0 = time.perf_counter()
    result = wl.run(req)
    return req, wl.output(result), wl.ok(req, result), time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    tasks = [(args.workload, req) for req in workloads.request_pool(args.workload)]
    with ProcessPoolExecutor(args.jobs, mp_context=get_context("spawn")) as pool:
        results = list(pool.map(_one, tasks))
    outputs = {}
    for req, out, ok, seconds in results:
        print(f"{req} {seconds:.3f}s {out}", flush=True)
        if not ok:
            print(f"request {req} failed its own checks; nothing written", file=sys.stderr)
            return 1
        outputs[workloads.request_key(req)] = list(out)
    doc = {"workload": args.workload, "outputs": outputs}
    with open(workloads.expected_path(args.workload), "w") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
