"""``tools/bench_pairs.py``: seed parsing, the per-metric summary and its
verdict, and what SIGTERM leaves behind."""

import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

# loaded by path: ``tools/`` is not a package
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_parse_seeds():
    assert bench_pairs.parse_seeds("1-3") == [1, 2, 3]
    assert bench_pairs.parse_seeds("7") == [7]
    assert bench_pairs.parse_seeds("5-5,9,2-3") == [5, 9, 2, 3]


@pytest.mark.parametrize("text", ["5-3", "", "1,,2", "a", "1-b", "1.5", "1-2-3"])
def test_parse_seeds_rejects(text):
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds(text)


def test_bad_seeds_exit_2_before_export(monkeypatch, tmp_path, capsys):
    def no_export(rev, dest):
        raise AssertionError("exported before the seeds were checked")

    monkeypatch.setattr(bench_pairs, "export", no_export)
    argv = ["--workload", "w", "--seeds", "5-3", "--out", str(tmp_path / "out.json")]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert "descending" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def _pairs(base: list[float], head: list[float], name: str = "m") -> list[dict]:
    return [
        {"base": {"metrics": {name: b}}, "head": {"metrics": {name: h}}}
        for b, h in zip(base, head)
    ]


def test_summarize_counts_wins_in_the_better_direction():
    # one pair lower, one tie, one higher: ties count for neither side
    pairs = _pairs([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    lower = bench_pairs.summarize(pairs, {"m": "lower"})["m"]
    higher = bench_pairs.summarize(pairs, {"m": "higher"})["m"]
    assert (lower["better"], lower["head_won"], lower["pairs"]) == ("lower", 1, 3)
    assert (higher["better"], higher["head_won"], higher["pairs"]) == ("higher", 1, 3)
    assert lower["head"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    # a metric BENCHMARK.json does not list is taken as lower-is-better
    assert bench_pairs.summarize(pairs, {})["m"]["head_won"] == 1
    assert bench_pairs.summarize(_pairs([1.0] * 3, [1.0] * 3), {})["m"]["head_won"] == 0


def test_summarize_one_pair_spread():
    out = bench_pairs.summarize(_pairs([4.0], [3.0]), {"m": "lower"})["m"]
    assert out["base"] == {"median": 4.0, "q1": 4.0, "q3": 4.0}
    assert out["head"] == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    assert (out["head_won"], out["pairs"]) == (1, 1)


def _verdict(base, head, direction="lower", bound=0.25):
    return bench_pairs.summarize(_pairs(base, head), {"m": direction}, {"m": bound})["m"]


def test_gain_needs_nine_in_ten_pairs_and_a_margin_past_the_spread():
    base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.0]  # quartiles 9.925, 10.075
    out = _verdict(base, [b - 1.0 for b in base])
    assert (out["head_won"], out["gain"], out["worse"], out["unresolved"]) == (10, True, False, False)
    # 8 pairs won of 10 is not a gain, however wide the margin
    assert not _verdict(base, [b - 1.0 for b in base[:8]] + [11.0, 11.0])["gain"]
    # 9 won, with a margin of 0.1 inside the base's spread of 0.15
    assert not _verdict(base, [b - 0.1 for b in base[:9]] + [b + 0.1 for b in base[9:]])["gain"]
    # the same runs read the other way round for a higher-is-better metric
    assert _verdict([b - 1.0 for b in base], base, "higher")["gain"]
    assert not _verdict(base, [b - 1.0 for b in base], "higher")["gain"]


def test_worse_is_a_median_past_the_bound():
    base = [10.0] * 4
    assert not _verdict(base, [12.4] * 4)["worse"]
    assert _verdict(base, [12.6] * 4)["worse"]
    assert _verdict(base, [7.4] * 4, "higher")["worse"]
    assert not _verdict(base, [7.6] * 4, "higher")["worse"]
    # better, by any amount, is never worse
    assert not _verdict(base, [1.0] * 4)["worse"]


def test_unresolved_is_a_quartile_spread_past_the_bound():
    tight = [10.0, 10.0, 10.0, 10.0, 10.0]
    wide = [6.0, 8.0, 10.0, 12.0, 14.0]  # quartiles 8 and 12: 40% of the median
    assert not _verdict(tight, tight)["unresolved"]
    assert _verdict(wide, tight)["unresolved"]
    assert _verdict(tight, wide)["unresolved"]
    assert not _verdict(wide, tight, bound=0.5)["unresolved"]


def test_metric_without_a_bound_gets_no_worse_or_unresolved():
    out = bench_pairs.summarize(_pairs([2.0, 2.0], [1.0, 1.0]), {"m": "lower"})["m"]
    assert (out["bound"], out["worse"], out["unresolved"], out["gain"]) == (None, None, None, True)


def _runs_on_a_line(attempted, intercept=44.7, per_request=0.0004):
    runs = [
        {"attempted": a, "metrics": {"peak_rss_mb": intercept + per_request * a, "pass_s": 1.0}}
        for a in attempted
    ]
    return [{"base": b, "head": h} for b, h in zip(runs[::2], runs[1::2])]


def test_rss_fit_recovers_a_line():
    # runs whose peak grows 0.4 KB per request from 44.7 MB, as the fit of
    # theorems-32 in BENCH_24.json reads; both sides' runs are fitted
    pairs = _runs_on_a_line([12_000, 18_500, 15_250, 30_000, 9_800, 21_000])
    fit = bench_pairs.rss_fit(pairs)
    assert fit["mb_per_1000_requests"] == pytest.approx(0.4)
    assert fit["intercept_mb"] == pytest.approx(44.7)
    assert fit["runs"] == 6
    # no spread in requests, or no peak, gives no fit
    assert bench_pairs.rss_fit(_runs_on_a_line([5_000, 5_000])) is None
    for pair in pairs:
        del pair["head"]["metrics"]["peak_rss_mb"]
    assert bench_pairs.rss_fit(pairs) is None


def test_rss_fit_gives_the_pass_gain_that_the_rss_bound_allows():
    # base runs of 62,730 requests on the line 44.84 MB + 0.3915 MB per 1,000
    # requests, as the theorems-32 fit of BENCH_25.json reads
    attempted = [62_730, 70_000, 62_730, 80_000, 62_730, 58_000]
    pairs = _runs_on_a_line(attempted, intercept=44.84, per_request=0.0003915)
    gain = bench_pairs.rss_fit(pairs, 0.1)["max_pass_gain"]
    assert gain == pytest.approx(0.2203, abs=1e-4)
    # a side that is faster by that much attempts R0 / (1 - x) requests, and
    # the fitted peak then reads the base's peak plus the bound
    peak = lambda requests: 44.84 + 0.0003915 * requests
    assert peak(62_730 / (1 - gain)) == pytest.approx(1.1 * peak(62_730))
    assert bench_pairs.rss_fit(pairs, 0.2)["max_pass_gain"] > gain
    assert "max_pass_gain" not in bench_pairs.rss_fit(pairs)
    # a peak that does not grow with the requests bounds no gain
    flat = _runs_on_a_line(attempted, per_request=0.0)
    assert bench_pairs.rss_fit(flat, 0.1)["max_pass_gain"] == 1.0


# the tool in a process of its own: nothing is exported, no git or numpy probe
# runs, and the one benchmark run is a ``sleep`` that writes its pid first
_TERMINATED_RUN = """
import importlib.util, subprocess, sys
from pathlib import Path

tool, tmp = Path(sys.argv[1]), Path(sys.argv[2])
spec = importlib.util.spec_from_file_location("bench_pairs", tool)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def export(rev, dest):
    dest.mkdir()
    (dest / "BENCHMARK.json").write_text('{"run_seconds": 1, "end_to_end": [], "per_layer": []}')


real_run = subprocess.run


def run_once(checkout, workload, seed, seconds, trace):
    real_run(["sh", "-c", 'echo $$ > "$0"; exec sleep 60', str(tmp / "child.pid")])
    raise AssertionError("the sleep ended before SIGTERM arrived")


bench_pairs.export = export
bench_pairs.git = lambda *args: "0"
bench_pairs.run_once = run_once
subprocess.run = lambda args, **kwargs: subprocess.CompletedProcess(args, 0, stdout="0")
sys.exit(bench_pairs.main(["--workload", "w", "--seeds", "1", "--out", str(tmp / "out.json")]))
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_stops_the_run_and_removes_the_trees(tmp_path):
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    tool = subprocess.Popen(
        [sys.executable, "-c", _TERMINATED_RUN, str(TOOL), str(tmp_path)], env=env
    )
    pid_file, child = tmp_path / "child.pid", None
    try:
        deadline = time.monotonic() + 60
        while not pid_file.exists() or not pid_file.read_text().endswith("\n"):
            assert tool.poll() is None, "the tool exited before its run started"
            assert time.monotonic() < deadline, "the run never started"
            time.sleep(0.05)
        child = int(pid_file.read_text())
        assert list(tmp_path.glob("bench_pairs_*"))
        time.sleep(0.2)  # let the tool get from starting the child to waiting on it
        tool.send_signal(signal.SIGTERM)
        returncode = tool.wait(timeout=30)
        assert not _alive(child), "the benchmark run outlived the tool"
        assert not list(tmp_path.glob("bench_pairs_*"))
        assert not (tmp_path / "out.json").exists()
        assert returncode == 128 + signal.SIGTERM
    finally:
        tool.kill()
        tool.wait()
        if child is not None and _alive(child):
            os.kill(child, signal.SIGKILL)
