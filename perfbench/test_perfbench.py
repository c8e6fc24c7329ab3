"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
from dataclasses import replace
from pathlib import Path

import pytest

import reference
import run  # puts src/ on sys.path
import workloads
from bchlab import field

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def tiny(name: str):
    """The workload cut to its smallest fields (q <= 5 for theorems-32) and
    to its first six requests there."""
    wl = workloads.WORKLOADS[name]
    max_q = 5 if name == "theorems-32" else min(p**s for p, s in wl.fields)
    fields = [(p, s) for p, s in wl.fields if p**s <= max_q]
    reqs = [r for r in wl.make_requests(7) if (r[0], r[1]) in fields][:6]
    return replace(wl, fields=fields), reqs


def _names(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.fixture(autouse=True)
def one_set_up(monkeypatch):
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_and_nothing_fails(name, trace):
    wl, reqs = tiny(name)
    doc = run.measure(wl, reqs, workloads.load_expected(name), 7, 0, trace)
    kind = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == _names(kind)
    assert doc["attempted"] == len(reqs) * (2 if trace else 1)
    assert doc["failed"] == 0 and doc["failed_frac"] == 0
    assert doc["correct"]  # traced and untraced passes both match the expected outputs
    last = run.report(doc).splitlines()[-1]
    assert set(json.loads(last)) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tampered_expected_output_fails_one_request(name):
    wl, reqs = tiny(name)
    expected = copy.deepcopy(workloads.load_expected(name))
    key = workloads.request_key(reqs[1])
    expected["outputs"][key][-1] = "tampered"
    doc = run.measure(wl, reqs, expected, 7, 0, False)
    assert (doc["attempted"], doc["failed"]) == (len(reqs), 1)
    assert not doc["correct"]


def test_raising_request_fails():
    wl, reqs = tiny("theorems-32")

    def run_or_raise(req):
        if req == reqs[1]:
            raise RuntimeError("injected")
        return workloads.run_theorems(req)

    expected = workloads.load_expected(wl.name)
    doc = run.measure(replace(wl, run=run_or_raise), reqs, expected, 7, 0, False)
    assert (doc["attempted"], doc["failed"]) == (len(reqs), 1)
    assert not doc["correct"]


def test_timed_phase_builds_no_field():
    wl, reqs = tiny("large-q-dual")
    speed = reference.Speed(wl.speed_weights)
    run.set_up(wl, speed)
    misses = field.build_field.cache_info().misses
    run.run_pass(wl, reqs, speed)
    assert field.build_field.cache_info().misses == misses


def test_large_q_requests_follow_the_seed():
    a, b = workloads.large_q_requests(1), workloads.large_q_requests(2)
    assert a == workloads.large_q_requests(1) and a != b
    pool = set(workloads.request_pool("large-q-dual"))
    assert len(a) == 8 and set(a) <= pool


def test_scale_follows_the_reference_samples_nearest_in_time():
    speed = reference.Speed({"python": 1, "array": 1})
    speed.stamps = [float(t) for t in range(40)]
    nominal = reference.NOMINAL_S
    speed.samples = {
        "python": [nominal["python"]] * 20 + [2 * nominal["python"]] * 20,
        "array": [nominal["array"]] * 20 + [4 * nominal["array"]] * 20,
    }
    assert speed.scale(3.0) == pytest.approx(1.0)
    assert speed.scale(36.0) == pytest.approx(1 / 3)  # weighs (2x + 4x) / 2
