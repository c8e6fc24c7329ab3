"""``tools/bench_pairs.py``: seed parsing and the per-metric summary."""

import importlib.util
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
