import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from copy import deepcopy
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pointideal
from pointideal import GroebnerBasis, Polynomial, bench, bm_gb, verify
from pointideal.bench import fit_slope, table_lines
from pointideal.cli import main

from reference import poly_add

POINTS = {
    "field": {"type": "prime", "p": 7},
    "dimension": 2,
    "points": [["0", "0"], ["1", "2"], ["3", "1"]],
}


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def basis_of(tmp_path, points):
    out = tmp_path / "basis.json"
    assert main(["gb", "--points", points, "--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


def test_bench_with_one_size_reports_no_slope(capsys):
    assert main(["bench", "--seed", "1", "--sizes", "8", "--trials", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-2] == "log-log slope: staircase n/a, bm n/a"
    assert fit_slope([2.0, 2.0], [1.0, 3.0]) is None


def _records(seconds_by_size):
    return [
        {"size": size, "match": True, "seconds": seconds}
        for size, trials in seconds_by_size.items()
        for seconds in trials
    ]


@pytest.mark.parametrize(
    "seconds_by_size, line",
    [
        ({8: [(0.2, 0.1)], 16: [(0.3, 0.4), (0.5, 0.4), (0.1, 0.4)], 32: [(0.1, 0.8)]},
         "crossover: staircase faster from size 16"),
        ({8: [(0.2, 0.1)], 16: [(0.3, 0.4), (0.5, 0.4), (0.1, 0.4)], 32: [(0.9, 0.8)]},
         "crossover: none"),
        ({32: [(0.1, 0.2)], 8: [(0.2, 0.1)], 16: [(0.1, 0.3)]},
         "crossover: staircase faster from size 16"),
        ({16: [(0.1, 0.2)], 32: [(0.1, 0.2)], 8: [(0.1, 0.3)], 64: [(0.1, 0.2)]},
         "crossover: staircase faster from size 8"),
        ({64: [(0.1, 0.2)], 8: [(0.1, 0.3)], 32: [(0.2, 0.2)], 16: [(0.1, 0.2)]},
         "crossover: staircase faster from size 64"),
        ({8: [(0.2, 0.1)], 16: [(0.4, 0.4)]}, "crossover: none"),
    ],
)
def test_bench_crossover_is_the_smallest_size_where_the_staircase_median_wins(
    seconds_by_size, line
):
    """The medians decide, a tie is no win, a win followed by a loss at a
    larger size is no crossover, and the sizes need not be ascending."""
    assert table_lines(_records(seconds_by_size))[-1] == line


@pytest.mark.parametrize(
    "options, digest",
    [
        (["--seed", "1", "--sizes", "8,16"], "350be0edc069cf0797189f7e33f50ab275ef178466b663c84ec193601075ccfc"),
        (["--seed", "7", "--sizes", "8,16"], "10eab251e522eb96a4b705203a21ebb422776e8648dec914e4338573d05d8d3c"),
        (
            ["--seed", "3", "--sizes", "6,12", "--field", "rational", "--dim", "3"],
            "646613a58254f7ae8adb5f352612e387a842660b6ed39e79536d4821972b5d45",
        ),
    ],
)
def test_bench_out_bytes_and_table_layout(tmp_path, capsys, options, digest):
    out = tmp_path / "bench.json"
    argv = ["bench", "--trials", "2"] + options + ["--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    header, *rows, slope, crossover = capsys.readouterr().out.splitlines()
    assert header.split() == ["size", "staircase[s]", "bm[s]", "match"]
    sizes = json.loads(out.read_text(encoding="utf-8"))["sizes"]
    assert [row.split()[0] for row in rows] == [str(s) for s in sizes]
    assert all(row.split()[-1] == "yes" for row in rows)
    assert re.fullmatch(r"log-log slope: staircase -?\d+\.\d{3}, bm -?\d+\.\d{3}", slope)
    assert crossover == "crossover: none" or crossover in [
        f"crossover: staircase faster from size {s}" for s in sizes
    ]


def test_bench_takes_a_negative_seed(capsys):
    assert main(["bench", "--seed", "-3", "--sizes", "8", "--trials", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[-1] == "yes"


@pytest.mark.parametrize("option, value", [("--dim", "0"), ("--trials", "0"), ("--trials", "-1")])
def test_bench_rejects_a_nonpositive_count_up_front(capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--seed", "1", "--sizes", "8", option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: expected a positive integer, got '{value}'" in err


@pytest.mark.parametrize("sizes", ["8,8", "8,16,8", "8,0", "8,x"])
def test_bench_rejects_a_bad_size_list_up_front(capsys, sizes):
    """A repeated size would print its row twice, each with the medians
    of both runs merged."""
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--seed", "1", "--sizes", sizes, "--trials", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"argument --sizes: bad size list {sizes!r}"
    )


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda pts, gb: pts["field"].update(p="7"), "field.p: expected an integer, got '7'"),
        (lambda pts, gb: pts.update(points={}), "points: expected a list"),
        (lambda pts, gb: pts["points"].__setitem__(1, 5), "points[1]: expected a list"),
        (lambda pts, gb: gb["basis"][0].pop("terms"), "basis[0]: missing key 'terms'"),
        (lambda pts, gb: gb["basis"][1].update(leading="x"), "basis[1].leading: expected a list"),
        (lambda pts, gb: gb["staircase"].__setitem__(0, [0, 0.5]), "staircase[0]: expected a list"),
        (lambda pts, gb: gb["basis"][0]["terms"][0].pop("coeff"),
         "basis[0].terms[0]: missing key 'coeff'"),
        (lambda pts, gb: gb["basis"][0]["terms"][1].update(coeff=3),
         "basis[0].terms[1].coeff: expected a string"),
    ],
)
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, edit, message):
    points = write_json(tmp_path / "points.json", POINTS)
    pts, gb = json.loads(json.dumps(POINTS)), basis_of(tmp_path, points)
    capsys.readouterr()
    edit(pts, gb)
    argv = [
        "check",
        "--points", write_json(tmp_path / "bad_points.json", pts),
        "--basis", write_json(tmp_path / "bad_basis.json", gb),
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "basis, message",
    [
        ({"staircase": [], "basis": []}, "basis: no exponents to infer the dimension from"),
        ({"staircase": [], "basis": [{"leading": [0, 0], "terms": []}]},
         "basis[0]: declared leading exponent [0, 0] does not lead the terms"),
    ],
)
def test_a_basis_file_without_terms_exits_2_with_one_line(tmp_path, capsys, basis, message):
    points = write_json(tmp_path / "points.json", POINTS)
    basis = write_json(tmp_path / "basis.json", basis)
    assert main(["check", "--points", points, "--basis", basis]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda gb: gb.update(corners=[[5, 5]]),
         "corners: [[5, 5]] are not the staircase's corners [[3, 0], [0, 1]]"),
        (lambda gb: gb["corners"].reverse(),
         "corners: [[0, 1], [3, 0]] are not the staircase's corners [[3, 0], [0, 1]]"),
        (lambda gb: gb["corners"].pop(), "corners: [[3, 0]] are not the staircase's corners"),
        (lambda gb: gb.update(corners={}), "corners: expected a list"),
        (lambda gb: gb["corners"].append("x"), "corners[2]: expected a list of integers"),
        (lambda gb: gb["staircase"].append([1, 0]), "staircase[3]: repeats the cell [1, 0]"),
    ],
)
def test_check_rejects_wrong_corners_or_a_repeated_cell(tmp_path, capsys, edit, message):
    points = write_json(tmp_path / "points.json", POINTS)
    gb = basis_of(tmp_path, points)
    edit(gb)
    basis = write_json(tmp_path / "bad.json", gb)
    capsys.readouterr()
    assert main(["check", "--points", points, "--basis", basis]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith(f"error: {message}")


def test_a_repeated_cell_is_found_in_linear_time(tmp_path):
    """100,000 one-variable cells whose last cell repeats the one before:
    `check` names it in one pass over the cells, in a fresh interpreter
    that a quadratic search would keep past the timeout."""
    points = write_json(tmp_path / "points.json", {
        "field": {"type": "prime", "p": 7}, "dimension": 1, "points": [["0"]],
    })
    cells = [[i] for i in range(99_999)] + [[99_998]]
    basis = write_json(tmp_path / "basis.json", {"staircase": cells, "basis": []})
    src = str(Path(pointideal.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "pointideal", "check", "--points", points, "--basis", basis],
        capture_output=True, text=True, timeout=30, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 2
    assert done.stderr == "error: staircase[99999]: repeats the cell [99998]\n"


def test_a_basis_file_without_corners_is_valid(tmp_path, capsys):
    points = write_json(tmp_path / "points.json", POINTS)
    gb = basis_of(tmp_path, points)
    del gb["corners"]
    basis = write_json(tmp_path / "b.json", gb)
    assert main(["check", "--points", points, "--basis", basis]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "overall: PASS"


@pytest.mark.parametrize("command", ["gb", "check"])
def test_deeply_nested_json_exits_2_with_one_line(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    if command == "gb":
        argv = ["gb", "--points", str(deep)]
    else:
        points = write_json(tmp_path / "points.json", POINTS)
        argv = ["check", "--points", points, "--basis", str(deep)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {deep}: JSON nested too deeply\n")


@pytest.mark.parametrize("command", ["gb", "staircase", "compare", "bench"])
def test_six_hundred_coordinates_exit_0(tmp_path, capsys, command):
    """600 coordinates are a valid input: the engines walk the slice trie
    without recursing, so every command finishes under Python's default
    recursion limit.  The files are the points (0, ..., 0) and
    (1, ..., 1), and two points that differ only in the last coordinate;
    gb's output equals the oracle's byte for byte."""
    if command == "bench":
        argv = ["bench", "--seed", "1", "--sizes", "2", "--trials", "1", "--dim", "600"]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        return
    pairs = {
        "diagonal": [["0"] * 600, ["1"] * 600],
        "last": [["0"] * 600, ["0"] * 599 + ["1"]],
    }
    for name, pair in pairs.items():
        points = write_json(tmp_path / f"{name}.json", {
            "field": {"type": "prime", "p": 7},
            "dimension": 600,
            "points": pair,
        })
        assert main([command, "--points", points]) == 0
        out, err = capsys.readouterr()
        assert out and err == ""
        if command == "gb":
            assert main(["gb", "--method", "bm", "--points", points]) == 0
            assert capsys.readouterr().out == out


def test_a_basis_of_another_dimension_exits_2(tmp_path, capsys):
    points = write_json(tmp_path / "points.json", {
        "field": {"type": "prime", "p": 7},
        "dimension": 3,
        "points": [["1", "2", "3"]],
    })
    basis = write_json(tmp_path / "basis.json", {"staircase": [[0, 0]], "basis": []})
    assert main(["check", "--points", points, "--basis", basis]) == 2
    assert capsys.readouterr() == ("", "error: basis and points have different dimensions\n")


QQ_POINTS = {
    "field": {"type": "rational"},
    "dimension": 2,
    "points": [["3/2", "1/3"], ["1/2", "0"], ["2", "-1"]],
}


def test_rational_points_print_in_field_notation(tmp_path, capsys):
    points = write_json(tmp_path / "points.json", QQ_POINTS)
    gb = basis_of(tmp_path, points)
    element = next(f for f in gb["basis"] if f["leading"] == [0, 1])
    term = next(t for t in element["terms"] if t["exp"] == [1, 0])
    assert term["coeff"] == "-13/3"
    term["coeff"] = "-10/3"  # the element changes by X1, which is 1/2 at (1/2, 0)
    basis = write_json(tmp_path / "bad.json", gb)
    capsys.readouterr()
    assert main(["check", "--points", points, "--basis", basis]) == 1
    assert capsys.readouterr().out.splitlines()[0] == (
        "vanishing: FAIL (element with leading exponent (0, 1) evaluates to 1/2 at (1/2, 0))"
    )
    twice = dict(QQ_POINTS, points=[["1/2", "0"], ["2/4", "0"]])
    assert main(["gb", "--points", write_json(tmp_path / "twice.json", twice)]) == 2
    assert capsys.readouterr().err == "error: duplicate point (1/2, 0) at indices 0 and 1\n"


def test_scalars_past_the_int_str_digit_limit_exit_0(tmp_path, capsys):
    """The scalar grammar puts no bound on the number of digits, while
    Python's int/str conversion refuses more than 4,300 by default.  The
    points 0 and 10^4400 of QQ have the basis X1^2 - 10^4400 X1, which
    gb writes and check reads back."""
    big = "1" + "0" * 4400
    points = write_json(tmp_path / "points.json", {
        "field": {"type": "rational"},
        "dimension": 1,
        "points": [["0"], [big]],
    })
    gb = basis_of(tmp_path, points)
    assert gb["basis"][0]["terms"] == [
        {"exp": [2], "coeff": "1"},
        {"exp": [1], "coeff": "-" + big},
    ]
    assert main(["check", "--points", points, "--basis", str(tmp_path / "basis.json")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "overall: PASS"


def test_check_passes_on_the_engine_output(tmp_path, capsys):
    points = write_json(tmp_path / "points.json", POINTS)
    basis = write_json(tmp_path / "b.json", basis_of(tmp_path, points))
    assert main(["check", "--points", points, "--basis", basis]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "overall: PASS"


def test_check_fails_with_the_vanishing_witness_on_a_changed_coefficient(tmp_path, capsys):
    points = write_json(tmp_path / "points.json", POINTS)
    gb = basis_of(tmp_path, points)
    last = gb["basis"][1]["terms"][-1]
    last["coeff"] = str((int(last["coeff"]) + 1) % 7)
    basis = write_json(tmp_path / "bad.json", gb)
    capsys.readouterr()
    assert main(["check", "--points", points, "--basis", basis]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "vanishing: FAIL (element with leading exponent (0, 1) evaluates to 1 at (1, 2))"
    assert out[-1] == "overall: FAIL"


def test_compare_exits_0_when_the_engines_agree(tmp_path, capsys):
    points = write_json(tmp_path / "points.json", POINTS)
    assert main(["compare", "--points", points]) == 0
    out = capsys.readouterr()
    assert out.out.splitlines()[-1] == "bases agree (2 elements, dimension 3)"
    assert out.err == ""


def test_gb_methods_write_identical_bytes(tmp_path):
    points = write_json(tmp_path / "points.json", POINTS)
    written = set()
    for method in ("staircase", "bm", "both"):
        out = tmp_path / f"{method}.json"
        assert main(["gb", "--points", points, "--method", method, "--out", str(out)]) == 0
        written.add(out.read_bytes())
    assert len(written) == 1


@pytest.mark.parametrize(
    "argv, prefix",
    [(["gb", "--method", "both"], "method disagreement: "), (["compare"], "")],
)
def test_engine_disagreement_exits_1_and_names_the_first_difference(
    tmp_path, capsys, monkeypatch, argv, prefix
):
    def mutated_bm_gb(ps):
        gb = bm_gb(ps)
        f = gb.elements[1]
        terms = dict(f.terms)
        terms[(1, 0)] = f.field.normalize(terms[(1, 0)] + f.field.one)
        return GroebnerBasis(gb.staircase, (gb.elements[0], Polynomial(f.field, f.n, terms)))

    monkeypatch.setattr(bench, "bm_gb", mutated_bm_gb)
    points = write_json(tmp_path / "points.json", POINTS)
    assert main(argv + ["--points", points]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"{prefix}elements at corner (0, 1) differ:\n"
        "  X2 + 2*X1^2 + 3*X1\n  X2 + 2*X1^2 + 4*X1\n"
    )


def test_bench_disagreement_exits_1_and_says_no(tmp_path, capsys, monkeypatch):
    def mutated_bm_gb(ps):
        gb = bm_gb(ps)
        f = gb.elements[-1]
        changed = poly_add(f, Polynomial.one(f.field, f.n))
        return GroebnerBasis(gb.staircase, gb.elements[:-1] + (changed,))

    monkeypatch.setattr(bench, "bm_gb", mutated_bm_gb)
    out = tmp_path / "bench.json"
    assert main(["bench", "--seed", "1", "--sizes", "8", "--trials", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().out.splitlines()[1].split()[-1] == "NO"
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(payload) == ["dimension", "field", "results", "seed", "sizes", "trials"]
    (record,) = payload["results"]
    assert record["match"] is False
    assert sorted(record) == ["basis_sha256", "corners", "match", "size", "trial"]


def test_check_skips_the_costly_checks_when_the_shape_fails(tmp_path, capsys, monkeypatch):
    # a tail exponent of 10^9 outside the staircase: vanishing would build
    # a row for every power of X1 up to it and the S-pair check would reduce
    # X1^(10^9) one step at a time, so both must be skipped, not run
    points = write_json(tmp_path / "points.json", {
        "field": {"type": "prime", "p": 7},
        "dimension": 2,
        "points": [["0", "0"], ["0", "1"], ["0", "2"]],
    })
    gb = basis_of(tmp_path, points)
    element = next(f for f in gb["basis"] if f["leading"] == [0, 3])
    element["terms"].append({"exp": [10**9, 1], "coeff": "1"})
    basis = write_json(tmp_path / "huge.json", gb)
    calls = {"monomial_row": 0, "normal_form": 0}

    def counted_monomial_row(*args):
        calls["monomial_row"] += 1
        raise RuntimeError("the vanishing check ran on a basis without the reduced shape")

    def counted_normal_form(*args):
        calls["normal_form"] += 1
        raise RuntimeError("the S-pair check ran on a basis without the reduced shape")

    monkeypatch.setattr(verify, "monomial_row", counted_monomial_row)
    monkeypatch.setattr(verify, "normal_form", counted_normal_form)
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert main(["check", "--points", points, "--basis", basis, "--out", str(report)]) == 1
    skipped = "SKIPPED (the basis does not have the reduced shape)"
    assert capsys.readouterr().out.splitlines() == [
        f"vanishing: {skipped}",
        "reduced_shape: FAIL (tail exponent (1000000000, 1) of the element at (0, 3) "
        "is outside the staircase)",
        f"buchberger: {skipped}",
        "dimension: PASS",
        "overall: FAIL",
    ]
    assert calls == {"monomial_row": 0, "normal_form": 0}
    checks = json.loads(report.read_text(encoding="utf-8"))["checks"]
    assert [c["passed"] for c in checks] == [None, False, None, True]


def test_staircase_out_writes_the_cells_and_corners(tmp_path):
    points = write_json(tmp_path / "points.json", POINTS)
    out = tmp_path / "stairs.json"
    assert main(["staircase", "--points", points, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == (
        '{"corners":[[3,0],[0,1]],"staircase":[[0,0],[1,0],[2,0]]}\n'
    )


@pytest.mark.parametrize(
    "value, reason",
    [
        ("prime:4", "p = 4 is not prime"),
        ("prime:x", "invalid literal for int() with base 10: 'x'"),
        ("prime:-7", "p = -7 is not prime"),
        ("prime:18446744073709551629",
         "p = 18446744073709551629 exceeds the supported word-sized range"),
    ],
)
def test_bench_field_says_what_is_wrong(capsys, value, reason):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--seed", "1", "--field", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(f"argument --field: bad field {value!r}: {reason}")


@pytest.mark.parametrize(
    "field, coordinate, message",
    [
        ({"type": "prime", "p": 7}, "٣", "malformed prime-field scalar '٣'"),
        ({"type": "rational"}, "１", "malformed rational scalar '１'"),
        ({"type": "rational"}, "1/٢", "malformed rational scalar '1/٢'"),
        ({"type": "prime", "p": 7}, "1_0", "malformed prime-field scalar '1_0'"),
    ],
)
def test_scalars_take_ascii_digits_only(tmp_path, capsys, field, coordinate, message):
    """An Arabic-Indic three or a fullwidth one is not read as 3 or 1."""
    points = {"field": field, "dimension": 2, "points": [["0", "0"], ["1", coordinate]]}
    assert main(["gb", "--points", write_json(tmp_path / "points.json", points)]) == 2
    assert capsys.readouterr() == ("", f"error: points[1][1]: {message}\n")


@pytest.mark.parametrize(
    "option, value, reason",
    [
        ("--field", "prime:٧", "bad field 'prime:٧': invalid literal for int() with base 10: '٧'"),
        ("--field", "prime:1_9", "bad field 'prime:1_9': invalid literal for int() with base 10: '1_9'"),
        ("--sizes", "8,١٦", "bad size list '8,١٦'"),
        ("--sizes", "1_6", "bad size list '1_6'"),
        ("--trials", "١", "expected a positive integer, got '١'"),
        ("--seed", "٣", "expected an integer, got '٣'"),
        ("--seed", "1_0", "expected an integer, got '1_0'"),
    ],
)
def test_bench_options_take_ascii_digits_only(capsys, option, value, reason):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--seed", "1", "--sizes", "8", "--trials", "1", option, value])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"argument {option}: {reason}")


def test_a_seed_past_the_int_str_digit_limit_exits_0(capsys):
    """The seed follows the scalar grammar, with no bound on its digits."""
    seed = "1" + "0" * 4400
    assert main(["bench", "--seed", seed, "--sizes", "4", "--trials", "1"]) == 0
    assert capsys.readouterr().err == ""


def test_a_seed_past_the_int_str_digit_limit_with_out_exits_2_before_the_table(
    tmp_path, capsys
):
    """JSON cannot hold the seed, so `--out` fails before any trial runs
    and writes no file."""
    seed = "1" + "0" * 4400
    out = tmp_path / "bench.json"
    argv = ["bench", "--seed", seed, "--sizes", "4", "--trials", "1", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["gb", "staircase", "compare"])
def test_an_empty_point_file_of_huge_dimension_exits_2_with_one_line(
    tmp_path, capsys, command
):
    """The zero exponent of dimension 2^62 cannot be built; CPython
    refuses the tuple at once, before allocating."""
    points = write_json(tmp_path / "points.json", {
        "field": {"type": "prime", "p": 7},
        "dimension": 2**62,
        "points": [],
    })
    assert main([command, "--points", points]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the input needs more memory than is available\n"


# JSON values of every kind: wrong types, bools, floats, unicode digits,
# negative and huge numbers.  No dimension among them is large enough
# to allocate: 2^64 and 10^30 fail before any tuple is built.
MUTANTS = [
    None, True, False, 0, -1, 1, 3, 2**64, 10**30, 0.5, 1.0, -0.0, 1e308, float("nan"),
    "", "x", "1", "-3/4", "1/0", "\u0663", "\uff13", " 2 ", "1e3", "0x10", "1_0",
    [], [0], [-1], [2**64], [True], ["1"], [[0, 0]], {}, {"type": "prime"},
    {"type": "prime", "p": 4}, {"type": "rational", "p": 7},
]


def _nodes(obj, path=()):
    """Every path into a JSON value, the root's included."""
    yield path
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        items = ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


@st.composite
def _mutated(draw, doc):
    """doc with one to three structural edits: a node replaced by a
    mutant, a key or an entry deleted, or an entry repeated."""
    doc = deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_nodes(doc))))
        kind = draw(st.sampled_from(["replace", "delete", "repeat"]))
        mutant = deepcopy(draw(st.sampled_from(MUTANTS)))
        if not path:
            doc = mutant
            continue
        *head, key = path
        parent = doc
        for k in head:
            parent = parent[k]
        if kind == "replace":
            parent[key] = mutant
        elif kind == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, parent[key])
    return doc


def _run(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _valid_pair(points):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json(Path(tmp) / "points.json", points)
        code, out, _ = _run(["gb", "--points", path])
    assert code == 0
    return points, json.loads(out)


VALID = [_valid_pair(QQ_POINTS), _valid_pair(POINTS)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_mutated_files_exit_2_with_one_line_or_give_output_that_parses(data):
    """Structural mutations of valid QQ and F_7 point and basis files,
    through every command that reads them: each exits 2 with one error
    line, or exits 0 or 1 with output that parses."""
    points, basis = data.draw(st.sampled_from(VALID))
    which = data.draw(st.sampled_from(["points", "basis", "both"]))
    if which != "basis":
        points = data.draw(_mutated(points))
    if which != "points":
        basis = data.draw(_mutated(basis))
    with tempfile.TemporaryDirectory() as tmp:
        pts = write_json(Path(tmp) / "points.json", points)
        gb = write_json(Path(tmp) / "basis.json", basis)
        report = str(Path(tmp) / "report.json")
        for argv in (
            ["gb", "--points", pts],
            ["staircase", "--points", pts],
            ["compare", "--points", pts],
            ["check", "--points", pts, "--basis", gb, "--out", report],
        ):
            code, out, err = _run(argv)
            if code == 2:
                assert out == "" and err.count("\n") == 1 and err.startswith("error: "), argv
                continue
            assert code in (0, 1), argv
            if argv[0] == "gb":
                assert code == 1 or "basis" in json.loads(out)
            elif argv[0] == "staircase":
                assert code == 0 and "corners" in json.loads(out)
            elif argv[0] == "compare":
                assert out.splitlines()[-1].startswith("bases agree") if code == 0 else err
            else:
                overall = json.loads(Path(report).read_text(encoding="utf-8"))["overall"]
                assert out.splitlines()[-1] == ("overall: PASS" if code == 0 else "overall: FAIL")
                assert overall == (code == 0)
