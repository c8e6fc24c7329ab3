import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import pytest

import bchlab
from bchlab.field import build_field, check_field
from bchlab.harness import (
    RECORD_FIELDS,
    AnalyzeOptions,
    CodeRecord,
    analyze,
    check_conjecture,
    check_theorems,
    csv_to_records,
    json_to_records,
    main,
    prime_powers_upto,
    records_to_csv,
    records_to_json,
    sweep,
)


def test_analyze_q27_h4():
    rec = analyze(3, 3, 4)
    assert (rec.n, rec.k, rec.d) == (28, 24, 4)
    assert rec.d == rec.n - rec.k  # AMDS property
    assert 18 <= rec.d_dual <= 24
    assert rec.bounds_lo == 18 and rec.bounds_hi == 24
    assert rec.match and not rec.finding
    assert rec.d_optimal and rec.k_optimal and rec.locality == rec.d_dual - 1


def test_analyze_q8_h4_mds():
    rec = analyze(2, 3, 4)
    assert (rec.n, rec.k, rec.d) == (9, 7, 3)
    assert rec.class_ == "MDS"
    assert rec.match


def test_analyze_q25_h2():
    rec = analyze(5, 2, 2)
    assert (rec.n, rec.k, rec.d) == (26, 22, 4)
    assert rec.d_dual == 20
    assert rec.class_ == "AMDS"  # dual distance 20 < 22 rules NMDS out
    assert rec.match


def test_analyze_zero_dimensional_row():
    rec = analyze(2, 1, 0)
    assert rec.k == 0 and rec.d is None
    assert rec.class_ == "undetermined"
    assert rec.match  # nothing to contradict


def test_analyze_respects_table_cap():
    with pytest.raises(ValueError, match="q=8192 exceeds the table cap 4096"):
        analyze(2, 13, 0, AnalyzeOptions())


def test_raised_table_cap_measures(monkeypatch):
    # a table cap raised past the default reaches every engine
    from bchlab import distance

    assert [f.name for f in fields(AnalyzeOptions)] == ["max_table_q"]
    assert AnalyzeOptions().resolve_cap_q == 4096
    found = []
    search = distance.min_distance_by_columns

    def recording_search(code):
        found.append(search(code))
        return found[-1]

    monkeypatch.setattr(distance, "min_distance_by_columns", recording_search)
    rec = analyze(4099, 1, 5, AnalyzeOptions(max_table_q=4099))
    assert rec.d == 4 and rec.method_d == "column-search"
    assert found[0].witness.cols == (0, 1, 2, 2051)
    assert rec.d_dual == 4090 and rec.method_d_dual == "root-count"
    assert rec.match and rec.error == ""  # both witnesses were re-validated


def test_dual_distance_below_reciprocal_lower_end_is_a_mismatch(monkeypatch):
    # q = 16, h = 15: bounds_lo = q - 2h - 1 = -15, but C_15 is the same code
    # as C_1, so d_dual >= q - 2*1 - 1 = 13, and 13 is the true value
    from dataclasses import replace

    from bchlab import distance

    assert analyze(2, 4, 15).d_dual == 13
    engine = distance.dual_min_distance
    monkeypatch.setattr(
        distance, "dual_min_distance", lambda code, method: replace(engine(code, method), value=12)
    )
    rec = analyze(2, 4, 15)
    assert (rec.bounds_lo, rec.bounds_hi) == (-15, 16)  # the pinned column is unchanged
    assert not rec.match
    assert "mismatch: dual distance 12 outside [13, 16]" in rec.error


def test_sweep_ordering_and_gcd_pattern():
    recs = sweep([5, 3], 1, 2)
    keys = [(r.p, r.s, r.h) for r in recs]
    assert keys == sorted(keys)
    for r in recs:
        if r.d == 3:
            assert r.gcd_2h_plus_1 > 1
        if r.gcd_2h_plus_1 == 1 and r.d is not None:
            assert r.d in (4, 5)
        assert r.match


@pytest.mark.parametrize(
    "call",
    [
        lambda: sweep([3], 2, 1),
        lambda: sweep([3], 1, 2, h_policy=[10, -1]),
        lambda: check_theorems(1),
        lambda: check_theorems(-5),
        lambda: check_conjecture("dual-distance-q-p", p_max=2),
    ],
    ids=["sweep-s-range", "sweep-h-list", "theorems-1", "theorems-neg", "conjecture-p-max-2"],
)
def test_empty_grid_raises(call):
    with pytest.raises(ValueError, match="no "):
        call()


def test_sweep_h_list_skips_out_of_range():
    recs = sweep([3], 1, 2, h_policy=[0, 7])
    # h=7 valid only for q=9
    assert [(r.q, r.h) for r in recs] == [(3, 0), (9, 0), (9, 7)]


def test_sweep_takes_distinct_ascending_h():
    recs = sweep([3], 2, 2, h_policy=[5, 2, 5])
    assert [(r.q, r.h) for r in recs] == [(9, 2), (9, 5)]


def test_sweep_parallel_matches_serial():
    build_field.cache_clear()
    parallel = sweep([3], 1, 2, threads=2)
    # the parent built both fields before forking its workers
    assert build_field.cache_info().currsize == 2
    serial = sweep([3], 1, 2)
    assert build_field.cache_info().misses == 2
    assert records_to_csv(parallel, stable=True) == records_to_csv(serial, stable=True)
    strip = lambda rs: [
        {k: v for k, v in asdict(r).items() if k != "runtime_ms"} for r in rs
    ]
    assert strip(serial) == strip(parallel)


def test_check_theorems_parallel_starts_one_pool(monkeypatch):
    # one pool for the whole grid, not one per field, and the same records
    import concurrent.futures

    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    parallel = check_theorems(16, threads=2)
    assert pools == [2]
    serial = check_theorems(16)
    assert pools == [2]
    assert len(serial) == sum(q + 1 for q, _p, _s in prime_powers_upto(16))
    assert records_to_csv(parallel, stable=True) == records_to_csv(serial, stable=True)


def test_prime_powers_upto():
    assert prime_powers_upto(9) == [
        (2, 2, 1),
        (3, 3, 1),
        (4, 2, 2),
        (5, 5, 1),
        (7, 7, 1),
        (8, 2, 3),
        (9, 3, 2),
    ]


def test_check_theorems_small():
    recs = check_theorems(9)
    assert all(r.match for r in recs)
    assert len(recs) == sum(q + 1 for q, _, _ in prime_powers_upto(9))


def test_sweep_p3_s2_to_3_all_match():
    recs = sweep([3], 2, 3)
    assert len(recs) == 10 + 28
    assert all(r.match for r in recs)
    # every distance-3 row satisfies the gcd criterion and vice versa
    for r in recs:
        assert (r.d == 3) == (r.gcd_2h_plus_1 > 1)


# -- serialization ------------------------------------------------------------


def test_csv_roundtrip():
    recs = sweep([3], 1, 2)
    text = records_to_csv(recs)
    back = csv_to_records(text)
    assert [asdict(r) for r in back] == [asdict(r) for r in recs]
    assert records_to_csv(back) == text


def test_json_roundtrip_matches_csv():
    recs = sweep([3], 1, 1)
    back = json_to_records(records_to_json(recs))
    assert records_to_csv(back) == records_to_csv(recs)


def test_csv_to_records_rejects_unknown_column():
    text = records_to_csv(sweep([2], 1, 1), stable=True)
    header, rest = text.split("\n", 1)
    with pytest.raises(ValueError, match="'bogus'"):
        csv_to_records(header + ",bogus\n" + rest)


def test_json_to_records_rejects_unknown_column():
    rows = json.loads(records_to_json(sweep([2], 1, 1), stable=True))
    rows[0]["bogus"] = 1
    with pytest.raises(ValueError, match="'bogus'"):
        json_to_records(json.dumps(rows))


@pytest.mark.parametrize(
    "column, cell",
    [("match", "True"), ("match", "yes"), ("match", "1"), ("q", ""), ("h", "2.0"), ("d", "x")],
)
def test_csv_to_records_rejects_a_malformed_cell(column, cell):
    # a bool is only true or false, an int a decimal integer, and an empty
    # cell is None only in an optional column (d, not q or h)
    text = records_to_csv(sweep([2], 1, 1), stable=True)
    header, first, rest = text.split("\n", 2)
    names = header.split(",")
    cells = first.split(",")
    cells[names.index(column)] = cell
    with pytest.raises(ValueError, match=f"'{column}'"):
        csv_to_records("\n".join([header, ",".join(cells), rest]))


@pytest.mark.parametrize(
    "column, value",
    [
        ("q", "2"),
        ("q", True),
        ("q", 2.0),
        ("q", None),
        ("match", "yes"),
        ("match", 1),
        ("d", "4"),
        ("finding", None),
    ],
)
def test_json_to_records_rejects_a_malformed_cell(column, value):
    # each value must be of its column's type, int and bool kept apart, or
    # null where the column allows it
    rows = json.loads(records_to_json(sweep([2], 1, 1), stable=True))
    rows[0][column] = value
    with pytest.raises(ValueError, match=f"'{column}'"):
        json_to_records(json.dumps(rows))


def test_empty_optional_cells_and_bools_round_trip():
    # the cells that the parsers must keep: None in an optional int column
    # and either bool, from CSV and from JSON
    rec = CodeRecord(p=2, s=1, q=2, h=0, n=3, delta=3, d=None, match=False, d_optimal=True)
    for back in (csv_to_records(records_to_csv([rec])), json_to_records(records_to_json([rec]))):
        assert back == [rec]
        assert back[0].d is None and back[0].match is False and back[0].d_optimal is True


def test_stable_mode_excludes_runtime():
    recs = sweep([3], 1, 1)
    text = records_to_csv(recs, stable=True)
    assert "runtime_ms" not in text.splitlines()[0]
    rows = json.loads(records_to_json(recs, stable=True))
    assert all("runtime_ms" not in row for row in rows)


def test_csv_dialect():
    recs = sweep([2], 1, 1)
    text = records_to_csv(recs, stable=True)
    assert "\r" not in text
    assert "true" in text or "false" in text


# -- conjectures ---------------------------------------------------------------


def test_conjecture_dual_distance_q_p():
    rows = check_conjecture("dual-distance-q-p", p_max=7)
    by_p = {r["p"]: r for r in rows}
    assert by_p[3]["status"] == "UNREACHED"
    assert by_p[5]["status"] == "CONFIRMED" and by_p[5]["d_dual"] == 20
    assert by_p[7]["status"] == "CONFIRMED" and by_p[7]["d_dual"] == 42


def test_conjecture_even_s_amds():
    (row,) = check_conjecture("even-s-amds", s=6)
    assert row["status"] == "CONFIRMED" and row["d"] == 4
    (row,) = check_conjecture("even-s-amds", s=5)
    assert row["status"] == "UNREACHED"


def test_conjecture_notes_name_the_binding_cap():
    opts = AnalyzeOptions(max_table_q=100)
    rows = check_conjecture("dual-distance-q-p", p_max=13, options=opts)
    by_p = {r["p"]: r for r in rows}
    assert by_p[7]["status"] == "CONFIRMED"
    assert by_p[11]["status"] == "UNREACHED"
    assert by_p[11]["note"] == "q=121 exceeds the table cap 100"
    # the note is check_field's message without its advice
    with pytest.raises(ValueError) as exc:
        check_field(11, 2, 100)
    assert str(exc.value) == "q=121 exceeds the table cap 100; raise the cap explicitly"
    (row,) = check_conjecture("even-s-amds", s=6, options=AnalyzeOptions(max_table_q=32))
    assert row["status"] == "UNREACHED" and row["note"] == "q=64 exceeds the table cap 32"
    # past the int16 labels no cap helps, and the note says so
    opts = AnalyzeOptions(max_table_q=100000)
    (row,) = check_conjecture("even-s-amds", s=16, options=opts)
    assert row["status"] == "UNREACHED" and row["d"] is None
    assert row["note"] == "q=65536 is too large for the int16 subfield tables"


def test_conjecture_unknown_name():
    with pytest.raises(ValueError):
        check_conjecture("riemann")


@pytest.mark.parametrize("name", ["dual-distance-q-p", "even-s-amds"])
@pytest.mark.parametrize("s", [0, -2])
def test_conjecture_rejects_s_below_one(name, s):
    with pytest.raises(ValueError, match=f"s={s} must be >= 1"):
        check_conjecture(name, s=s)


# -- CLI ------------------------------------------------------------------------


def test_cli_field_info(capsys):
    assert main(["field-info", "--p", "3", "--s", "2"]) == 0
    out = capsys.readouterr().out
    assert "q = 9" in out and "beta" in out


def test_cli_code_json(capsys):
    assert main(["code", "--p", "3", "--s", "2", "--h", "1", "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["k"] == 6 and info["predicted_d"] == "4"


def test_cli_dual_distance(capsys):
    assert main(["dual-distance", "--p", "3", "--s", "2", "--h", "1"]) == 0
    assert "d_dual = 6" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--p", "4099", "--s", "1", "--h", "5"],
            "q=4099 exceeds the table cap 4096; raise the cap explicitly",
        ),
        (
            ["--p", "83", "--s", "1", "--h", "1", "--method", "dual-enum"],
            "q=83 exceeds dual-enum cap 81",
        ),
    ],
    ids=["root-count", "dual-enum"],
)
def test_cli_dual_distance_past_cap_exits_2(argv, message, capsys):
    assert main(["dual-distance"] + argv) == 2
    out = capsys.readouterr()
    assert out.err == f"error: {message}\n" and out.out == ""


def test_cli_dual_distance_raised_table_cap(capsys):
    argv = ["--max-table-q", "4099", "dual-distance", "--p", "4099", "--s", "1", "--h", "5"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "d_dual = 4090" in out and "witness verified = True" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--max-table-q", "16", "sweep", "--p", "2", "--s-min", "4", "--s-max", "5"]
            + ["--out", "rows.csv"],
            "q=32 exceeds the table cap 16; raise the cap explicitly",
        ),
        (
            ["--max-table-q", "16", "check-theorems", "--max-q", "32"],
            "q=17 exceeds the table cap 16; raise the cap explicitly",
        ),
        # no table cap lifts the int16 labels, and the grid is checked first
        (
            ["--max-table-q", "100000", "check-theorems", "--max-q", "40000"],
            "q=32771 is too large for the int16 subfield tables",
        ),
    ],
    ids=["sweep", "check-theorems", "check-theorems-int16"],
)
def test_cli_past_table_cap_exits_2_before_analyzing(argv, message, tmp_path, monkeypatch, capsys):
    from bchlab import harness

    def no_analyze(*args):
        raise AssertionError("analyze ran on a grid past the table cap")

    monkeypatch.setattr(harness, "analyze", no_analyze)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.err == f"error: {message}\n"
    assert out.out == ""
    assert not list(tmp_path.iterdir())


def test_cli_sweep_and_outputs(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    jout = tmp_path / "rows.json"
    rc = main(
        [
            "sweep",
            "--p",
            "3",
            "--s-min",
            "1",
            "--s-max",
            "2",
            "--out",
            str(out),
            "--json",
            str(jout),
            "--stable",
        ]
    )
    assert rc == 0
    assert "match their predictions" in capsys.readouterr().out
    csv_rows = csv_to_records(out.read_text())
    json_rows = json_to_records(jout.read_text())
    assert records_to_csv(csv_rows, stable=True) == records_to_csv(json_rows, stable=True)


@pytest.mark.parametrize(
    "grid", [["--s-min", "3", "--s-max", "2"], ["--h", "10,11"]], ids=["s-range", "h-list"]
)
def test_cli_sweep_empty_grid_exits_2(grid, tmp_path, capsys):
    out, jout = tmp_path / "rows.csv", tmp_path / "rows.json"
    out.write_text("old\n")
    jout.write_text("[]\n")
    argv = ["sweep", "--p", "2", "--s-min", "1", "--s-max", "3", "--out", str(out)]
    rc = main(argv + grid + ["--json", str(jout)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == "" and captured.err.startswith("error: no code in the grid")
    assert out.read_text() == "old\n" and jout.read_text() == "[]\n"


@pytest.mark.parametrize(
    "argv, jout",
    [
        (["sweep", "--p", "4", "--s-min", "1", "--s-max", "1"], "rows.json"),
        (["sweep", "--p", "2", "--s-min", "0", "--s-max", "1"], "rows.json"),
        (["--max-table-q", "16", "sweep", "--p", "2", "--s-min", "4", "--s-max", "5"], "rows.json"),
        (
            ["--max-table-q", "100000", "sweep", "--p", "2", "--s-min", "16", "--s-max", "16"]
            + ["--h", "1"],
            "rows.json",
        ),
        (["sweep", "--p", "2", "--s-min", "3", "--s-max", "2"], "rows.json"),
        (["sweep", "--p", "2", "--s-min", "1", "--s-max", "1", "--h", "10,11"], "rows.json"),
        # a valid grid whose --json cannot be opened after --out was
        (["sweep", "--p", "2", "--s-min", "1", "--s-max", "1"], "missing/rows.json"),
    ],
    ids=["p-not-prime", "s-min-0", "past-table-cap", "past-int16", "s-range", "h-list", "bad-json"],
)
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_cli_sweep_rejected_grid_creates_no_file(
    argv, jout, existing, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    if existing:
        Path("rows.csv").write_bytes(b"old\r\n")
        Path("rows.json").write_bytes(b"[]")
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    assert main(argv + ["--out", "rows.csv", "--json", jout]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_raise(threads):
    with pytest.raises(ValueError, match=f"threads={threads} must be >= 1"):
        sweep([2], 1, 1, threads=threads)
    with pytest.raises(ValueError, match=f"threads={threads} must be >= 1"):
        check_theorems(4, threads=threads)


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--p", "2", "--s-min", "1", "--s-max", "2", "--out", "rows.csv"]
        + ["--json", "rows.json"],
        ["check-theorems", "--max-q", "8"],
    ],
    ids=["sweep", "check-theorems"],
)
def test_cli_threads_below_one_exits_2_before_any_work(
    threads, argv, tmp_path, monkeypatch, capsys
):
    from bchlab import harness

    def no_analyze(*args):
        raise AssertionError("analyze ran with --threads below 1")

    monkeypatch.setattr(harness, "analyze", no_analyze)
    monkeypatch.chdir(tmp_path)
    assert main(["--threads", threads] + argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: threads={threads} must be >= 1\n"
    assert not list(tmp_path.iterdir())


def test_cli_sweep_takes_distinct_ascending_p(tmp_path):
    out = tmp_path / "rows.csv"
    argv = ["sweep", "--p", "3,2,3,2", "--s-min", "1", "--s-max", "1", "--stable"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = csv_to_records(out.read_text())
    assert [(r.p, r.h) for r in rows] == [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)]


@pytest.mark.parametrize("bad", ["missing-dir", "directory", "json"])
def test_cli_sweep_bad_output_path_exits_2_before_the_sweep(bad, tmp_path, monkeypatch, capsys):
    from bchlab import harness

    def no_analyze(*args):
        raise AssertionError("analyze ran before the output paths were checked")

    monkeypatch.setattr(harness, "analyze", no_analyze)
    out, jout = tmp_path / "rows.csv", None
    if bad == "missing-dir":
        out = tmp_path / "missing" / "rows.csv"
    elif bad == "directory":
        out = tmp_path
    else:
        jout = tmp_path / "missing" / "rows.json"
    argv = ["sweep", "--p", "2", "--s-min", "1", "--s-max", "1", "--out", str(out)]
    rc = main(argv + (["--json", str(jout)] if jout else []))
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and str(jout or out) in err


def test_cli_sweep_keeps_old_output_until_the_rows_are_ready(tmp_path):
    out = tmp_path / "rows.csv"
    out.write_text("old\n")
    rc = main(["sweep", "--p", "4", "--s-min", "1", "--s-max", "1", "--out", str(out)])
    assert rc == 2  # 4 is not prime
    assert out.read_text() == "old\n"
    assert main(["sweep", "--p", "2", "--s-min", "1", "--s-max", "1", "--out", str(out)]) == 0
    assert out.read_text().startswith("p,")


def test_cli_invalid_invocations(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["check-conjecture", "--name", "bogus"])
    assert exc.value.code == 2
    rc = main(
        ["sweep", "--p", "4", "--s-min", "1", "--s-max", "1", "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 2  # 4 is not prime


def test_cli_check_theorems(capsys):
    assert main(["check-theorems", "--max-q", "8"]) == 0
    assert "match their predictions" in capsys.readouterr().out


@pytest.mark.parametrize("max_q", ["1", "0", "-5"])
def test_cli_check_theorems_empty_grid_exits_2(max_q, capsys):
    assert main(["check-theorems", "--max-q", max_q]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"no prime power q <= {max_q}" in captured.err


@pytest.mark.parametrize("s", ["0", "-2"])
def test_cli_check_conjecture_s_below_one_exits_2(s, capsys):
    assert main(["check-conjecture", "--name", "even-s-amds", "--s", s]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"s={s} must be >= 1" in captured.err


def test_cli_check_conjecture(capsys):
    assert main(["check-conjecture", "--name", "dual-distance-q-p", "--p-max", "5"]) == 0
    out = capsys.readouterr().out
    assert "CONFIRMED" in out and "UNREACHED" in out


def test_cli_check_conjecture_empty_grid_exits_2(capsys):
    assert main(["check-conjecture", "--name", "dual-distance-q-p", "--p-max", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "p_max=2 leaves no prime" in captured.err


CONJECTURE_RUNS = [
    "check-conjecture --name dual-distance-q-p",
    "check-conjecture --name dual-distance-q-p --p-max 7 --s 1",
    "--max-table-q 100 check-conjecture --name dual-distance-q-p --p-max 13",
    "check-conjecture --name even-s-amds",
    "check-conjecture --name even-s-amds --s 5",
    "--max-table-q 32 check-conjecture --name even-s-amds --s 8",
]


def test_cli_check_conjecture_matches_golden_transcript(capsys):
    transcript = []
    for args in CONJECTURE_RUNS:
        rc = main(args.split())
        transcript.append(f"$ bchlab {args}\n{capsys.readouterr().out}[exit {rc}]\n")
    golden = Path(__file__).resolve().parent / "golden" / "check_conjecture.txt"
    assert "".join(transcript).encode() == golden.read_bytes()


def test_class_column_round_trip():
    rec = CodeRecord(p=3, s=1, q=3, h=0, n=4, delta=3, class_="MDS")
    text = records_to_csv([rec])
    header = text.splitlines()[0].split(",")
    assert "class" in header and "class_" not in header
    assert header == [name for name, _ in RECORD_FIELDS]
    assert csv_to_records(text) == [rec]
    rows = json.loads(records_to_json([rec]))
    assert rows[0]["class"] == "MDS" and "class_" not in rows[0]
    assert json_to_records(json.dumps(rows)) == [rec]


def test_mismatch_exit_code_and_record_dump(capsys):
    from bchlab.harness import _print_outcome

    good = analyze(3, 1, 0)
    bad = analyze(3, 1, 1)
    bad.match = False
    bad.error = "mismatch: synthetic mismatch for the exit-code path"
    assert _print_outcome([good, bad]) == 1
    err = capsys.readouterr().err
    assert "MISMATCH q=3 h=1: mismatch: synthetic mismatch" in err and '"q": 3' in err


def test_mismatch_goes_to_error_not_finding(monkeypatch):
    from bchlab import harness

    monkeypatch.setattr(harness.theory, "predict_dimension", lambda q, h: -1)
    rec = analyze(3, 1, 1)
    assert not rec.match
    assert rec.error.startswith(f"mismatch: dimension: computed {rec.k}, predicted -1")
    assert rec.finding == ""


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_check_theorems_matches_golden_csv():
    text = records_to_csv(check_theorems(32), stable=True)
    assert text.encode() == (GOLDEN / "check_theorems_32.csv").read_bytes()


def test_check_theorems_64_stable_digest():
    # the whole stable rows of every code with q <= 64, pinned by their
    # sha256: the q <= 32 rows also match the golden file above
    text = records_to_csv(check_theorems(64), stable=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "c2ef6400b9232c7a7b0fd21a68d217ba418b2eced6d5d62443315d550a5f8159"


def test_sweep_cli_matches_golden_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--p", "2,3,5", "--s-min", "1", "--s-max", "2", "--h", "all"]
    assert main(argv + ["--stable", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "sweep_p235_s1-2.csv").read_bytes()


def test_finding_exit_code_is_zero(capsys):
    from bchlab.harness import _print_outcome

    rec = analyze(3, 1, 0)
    rec.finding = "synthetic finding"
    assert _print_outcome([rec]) == 0
    assert "FINDING" in capsys.readouterr().out


def test_python_dash_m_entry_point():
    src = str(Path(bchlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bchlab", "check-theorems", "--max-q", "5"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "codes analyzed" in proc.stdout
