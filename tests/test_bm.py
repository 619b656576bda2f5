"""The Buchberger-Moller oracle on point-set shapes that random draws
rarely produce, checked against the staircase engine, with the number of
evaluated monomial rows and the rows its row kernel is handed pinned,
and the backward sweep pinned where pivot order and acceptance order
differ."""

from fractions import Fraction as F
from itertools import product

import pytest

from pointideal import (
    PointSet,
    PrimeField,
    QQ,
    bm,
    compute_staircase,
    staircase_gb,
    verify_basis,
)
from pointideal.bench import SplitMix64, random_pointset

SHAPES = {
    "empty": PointSet(QQ, 2, []),
    "one point": PointSet(QQ, 3, [(2, 5, 7)]),
    "one variable": PointSet(QQ, 1, [(F(-1, 2),), (0,), (3,), (F(7, 3),)]),
    "one X1 slice": PointSet(PrimeField(7), 3, [(2,) + ab for ab in product(range(3), repeat=2)]),
    "grid F_3^2": PointSet(PrimeField(3), 2, product(range(3), repeat=2)),
    "grid F_2^3": PointSet(PrimeField(2), 3, product(range(2), repeat=3)),
    # tries several levels deep, where shared prefixes meet branching nodes
    "100 of F_3^6": random_pointset(SplitMix64(5), PrimeField(3), 6, 100),
    "40 of F_2^16": random_pointset(SplitMix64(5), PrimeField(2), 16, 40),
    "200 of F_7919^3": random_pointset(SplitMix64(5), PrimeField(7919), 3, 200),
    # the fields, dimensions and small sizes of the benchmark workloads
    "16 of F_7919^2": random_pointset(SplitMix64(3), PrimeField(7919), 2, 16),
    "14 of F_5^4": random_pointset(SplitMix64(3), PrimeField(5), 4, 14),
    "10 of QQ^3": random_pointset(SplitMix64(3), QQ, 3, 10),
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


def test_the_row_kernel_is_handed_point_values_only(monkeypatch):
    """On a generic instance of N points of F_7919^2 the stored pivots
    run 0, ..., N - 1 in acceptance order and no pivot entry vanishes on
    the way, so reducing against k stored rows makes k calls to
    `vec_sub_scaled`.  Each call is handed two packed rows of N point
    slots and nothing more: no combination columns."""
    n_points = 24
    field = PrimeField(7919)
    ps = random_pointset(SplitMix64(1), field, 2, n_points)
    bound = 1 << (n_points * field._rows(n_points, n_points).slot)
    handed, stored_counts, pivots = [], [], []
    kernel, reduce, insert = PrimeField.vec_sub_scaled, bm._Echelon.reduce, bm._Echelon.insert

    def counted_kernel(self, row, c, other):
        handed.append((row, other))
        return kernel(self, row, c, other)

    def counted_reduce(self, row):
        stored_counts.append(len(self.rows))
        return reduce(self, row)

    def recorded_insert(self, row, pivot, c):
        pivots.append(pivot)
        return insert(self, row, pivot, c)

    monkeypatch.setattr(PrimeField, "vec_sub_scaled", counted_kernel)
    monkeypatch.setattr(bm._Echelon, "reduce", counted_reduce)
    monkeypatch.setattr(bm._Echelon, "insert", recorded_insert)
    bm.bm_gb(ps)
    assert pivots == list(range(n_points))
    assert len(handed) == sum(stored_counts) == 324
    assert all(0 <= row < bound and 0 <= other < bound for row, other in handed)


# Found by search: a row accepted after another has the lower pivot, a
# corner's combination uses it, and a sweep in pivot order would get
# that combination wrong.
OUT_OF_ORDER = {
    "F_2^3": PointSet(PrimeField(2), 3, [(0, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]),
    "F_5^2": PointSet(PrimeField(5), 2, [(1, 1), (1, 3), (4, 3)]),
    "QQ^2": PointSet(QQ, 2, [(F(-7, 2), -4), (F(-7, 2), F(3, 2)), (0, 3)]),
}


@pytest.mark.parametrize("ps", OUT_OF_ORDER.values(), ids=OUT_OF_ORDER.keys())
def test_the_sweep_follows_acceptance_order_not_pivot_order(ps, monkeypatch):
    """A corner's combination reads a row that `insort` placed before an
    earlier-accepted one; the sweep must still rewrite it through the
    rows accepted before it, so the basis equals the engine's and is
    certified."""
    reads = []
    combination = bm._Echelon.combination

    def spy(self, c):
        a = combination(self, c)
        pivot = {r: p for p, r, _ in self.rows}
        reads.extend(
            r
            for r, x in enumerate(a)
            if x != self.field.zero and any(pivot[j] > pivot[r] for j in range(r))
        )
        return a

    monkeypatch.setattr(bm._Echelon, "combination", spy)
    gb = bm.bm_gb(ps)
    assert reads
    assert gb == staircase_gb(ps)
    assert verify_basis(gb, ps).overall
