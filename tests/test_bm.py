"""The Buchberger-Moller oracle on point-set shapes that random draws
rarely produce, checked against the staircase engine, with the number of
evaluated monomial rows pinned."""

from fractions import Fraction as F
from itertools import product

import pytest

from pointideal import PointSet, PrimeField, QQ, bm, compute_staircase, staircase_gb

SHAPES = {
    "empty": PointSet(QQ, 2, []),
    "one point": PointSet(QQ, 3, [(2, 5, 7)]),
    "one variable": PointSet(QQ, 1, [(F(-1, 2),), (0,), (3,), (F(7, 3),)]),
    "one X1 slice": PointSet(PrimeField(7), 3, [(2,) + ab for ab in product(range(3), repeat=2)]),
    "grid F_3^2": PointSet(PrimeField(3), 2, product(range(3), repeat=2)),
    "grid F_2^3": PointSet(PrimeField(2), 3, product(range(2), repeat=3)),
}


@pytest.mark.parametrize("ps", SHAPES.values(), ids=SHAPES.keys())
def test_oracle_matches_the_staircase_engine(ps):
    assert bm.bm_gb(ps) == staircase_gb(ps)
    assert bm.bm_staircase(ps) == compute_staircase(ps)


@pytest.mark.parametrize("ps", SHAPES.values(), ids=SHAPES.keys())
def test_each_cell_and_each_corner_is_evaluated_once(ps, monkeypatch):
    rows = []
    evaluate = bm.monomial_row

    def counted(field, points, exponent, cache):
        rows.append(exponent)
        return evaluate(field, points, exponent, cache)

    monkeypatch.setattr(bm, "monomial_row", counted)
    gb = bm.bm_gb(ps)
    assert len(rows) == len(gb.staircase) + len(gb.staircase.corners())
    assert set(rows) == gb.staircase.cells | gb.staircase.corners()


@pytest.mark.parametrize("ps", SHAPES.values(), ids=SHAPES.keys())
def test_rows_handed_to_the_echelon_stay_unchanged(ps, monkeypatch):
    """The echelon reduces rows in place; the cached rows it was handed
    must still hold the monomials' values when the basis is done."""
    handed = []
    evaluate = bm.monomial_row

    def recorded(field, points, exponent, cache):
        row = evaluate(field, points, exponent, cache)
        handed.append((row, list(row)))
        return row

    monkeypatch.setattr(bm, "monomial_row", recorded)
    bm.bm_gb(ps)
    assert handed and all(row == copy for row, copy in handed)
