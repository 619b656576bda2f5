import json

import pytest

from pointideal.bench import fit_slope
from pointideal.cli import main

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
    assert capsys.readouterr().out.splitlines()[-1] == "log-log slope: staircase n/a, bm n/a"
    assert fit_slope([2.0, 2.0], [1.0, 3.0]) is None


@pytest.mark.parametrize("option, value", [("--dim", "0"), ("--trials", "0"), ("--trials", "-1")])
def test_bench_rejects_a_nonpositive_count_up_front(capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--seed", "1", "--sizes", "8", option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: expected a positive integer, got '{value}'" in err


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


def test_check_passes_on_the_engine_output(tmp_path, capsys):
    points = write_json(tmp_path / "points.json", POINTS)
    basis = write_json(tmp_path / "b.json", basis_of(tmp_path, points))
    assert main(["check", "--points", points, "--basis", basis]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "overall: PASS"
