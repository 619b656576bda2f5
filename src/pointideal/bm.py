"""Buchberger-Moller construction of the reduced lexicographic basis.

Independent of the staircase-induction engine: the staircase is
discovered by exact rank tests on evaluation matrices (one row per
candidate monomial, one column per point), and the basis elements are
obtained by solving the interpolation system over the staircase
monomials.  Serves as the oracle the induction engine is checked
against.
"""

from __future__ import annotations

from bisect import insort

from .core import GroebnerBasis, PointSet
from .poly import Exponent, Polynomial, lex_key
from .staircase import Staircase


def monomial_row(field, ps: PointSet, exponent: Exponent) -> list:
    """Values of X^exponent at all points, in point order."""
    row = []
    for pt in ps.points:
        v = field.one
        for a, k in zip(pt, exponent):
            if k:
                v = field.mul(v, field.pow(a, k))
        row.append(v)
    return row


class _Echelon:
    """Incremental reduced row echelon form for exact rank queries.

    Every stored row is normalized to 1 at its pivot and eliminated at
    every other stored pivot, so testing a new row is a single pass."""

    def __init__(self, field, width: int):
        self.field = field
        self.width = width
        self.rows: list[tuple[int, list]] = []  # (pivot, row), sorted by pivot

    def reduce(self, row) -> tuple[list, int | None]:
        """Reduce a row against the stored ones; return it with its pivot
        column, or None when it is dependent."""
        fld = self.field
        row = list(row)
        for pivot, stored in self.rows:
            c = row[pivot]
            if c != fld.zero:
                row = fld.vec_sub_scaled(row, c, stored)
        for j, x in enumerate(row):
            if x != fld.zero:
                return row, j
        return row, None

    def insert(self, row, pivot: int) -> None:
        fld = self.field
        row = fld.vec_scale(fld.inv(row[pivot]), row)
        self.rows = [
            (pv, fld.vec_sub_scaled(stored, stored[pivot], row))
            if stored[pivot] != fld.zero
            else (pv, stored)
            for pv, stored in self.rows
        ]
        insort(self.rows, (pivot, row))

    @property
    def rank(self) -> int:
        return len(self.rows)


def _discover(ps: PointSet) -> tuple[Staircase, int]:
    """Rank-driven staircase discovery; also returns the number of rank
    tests performed.

    Starting from the origin, the lex-minimal untested corner candidate
    is accepted when its monomial row is independent of the accepted
    ones, else rejected for good; rejected candidates (provably corners
    of the final staircase) are kept out of later candidate sets.
    """
    if not ps.points:
        raise ValueError("staircase discovery needs a nonempty point set")
    fld = ps.field
    n, size = ps.n, len(ps.points)
    ech = _Echelon(fld, size)
    origin = (0,) * n
    reduced, pivot = ech.reduce(monomial_row(fld, ps, origin))
    ech.insert(reduced, pivot)
    gamma = {origin}
    candidates = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    rejected: set[Exponent] = set()
    tests = 0
    while candidates:
        beta = min(candidates, key=lex_key)
        if len(gamma) == size:
            # the staircase is full; every remaining candidate is dependent
            candidates.discard(beta)
            rejected.add(beta)
            continue
        tests += 1
        reduced, pivot = ech.reduce(monomial_row(fld, ps, beta))
        if pivot is None:
            candidates.discard(beta)
            rejected.add(beta)
            continue
        ech.insert(reduced, pivot)
        gamma.add(beta)
        fresh = Staircase(n, gamma).corners()
        candidates = {
            b
            for b in fresh
            if not any(all(x >= y for x, y in zip(b, r)) for r in rejected)
        }
    return Staircase(n, gamma), tests


def bm_staircase(ps: PointSet) -> Staircase:
    """The staircase of a point set, found by rank tests alone."""
    return _discover(ps)[0]


def _solve(field, matrix, rhs_columns):
    """Exact Gaussian elimination solving matrix * x = rhs for several
    right-hand sides at once.  The matrix must be square and invertible;
    a singular matrix is an internal error upstream."""
    size = len(matrix)
    aug = [list(row) + [col[i] for col in rhs_columns] for i, row in enumerate(matrix)]
    for k in range(size):
        pivot_row = next(
            (r for r in range(k, size) if aug[r][k] != field.zero), None
        )
        if pivot_row is None:
            raise ArithmeticError("singular evaluation matrix")
        if pivot_row != k:
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        aug[k] = field.vec_scale(field.inv(aug[k][k]), aug[k])
        for r in range(k + 1, size):
            c = aug[r][k]
            if c != field.zero:
                aug[r] = field.vec_sub_scaled(aug[r], c, aug[k])
    solutions = [[field.zero] * size for _ in rhs_columns]
    for k in range(size - 1, -1, -1):
        for j in range(len(rhs_columns)):
            v = aug[k][size + j]
            for c in range(k + 1, size):
                v = field.sub(v, field.mul(aug[k][c], solutions[j][c]))
            solutions[j][k] = v
    return solutions


def separating_polynomials(ps: PointSet, stairs: Staircase) -> list[Polynomial]:
    """One polynomial per point, supported on the staircase monomials,
    equal to 1 at its own point and 0 at the others.  Aligned with
    ps.points."""
    if len(stairs) != len(ps.points):
        raise ValueError("staircase size must equal the number of points")
    fld = ps.field
    monomials = stairs.sorted_cells()
    columns = [monomial_row(fld, ps, e) for e in monomials]
    matrix = [[columns[j][i] for j in range(len(monomials))] for i in range(len(ps.points))]
    unit_columns = [
        [fld.one if i == k else fld.zero for i in range(len(ps.points))]
        for k in range(len(ps.points))
    ]
    solutions = _solve(fld, matrix, unit_columns)
    return [
        Polynomial(fld, ps.n, dict(zip(monomials, sol))) for sol in solutions
    ]


def bm_gb(ps: PointSet) -> GroebnerBasis:
    """The reduced basis via rank discovery plus interpolation: each
    corner monomial minus the unique staircase-supported interpolant of
    its values on the points."""
    if not ps.points:
        return GroebnerBasis(Staircase(ps.n), (Polynomial.one(ps.field, ps.n),))
    fld = ps.field
    stairs = bm_staircase(ps)
    monomials = stairs.sorted_cells()
    columns = [monomial_row(fld, ps, e) for e in monomials]
    matrix = [[columns[j][i] for j in range(len(monomials))] for i in range(len(ps.points))]
    corners = stairs.sorted_corners()
    rhs = [monomial_row(fld, ps, beta) for beta in corners]
    solutions = _solve(fld, matrix, rhs)
    elements = []
    for beta, sol in zip(corners, solutions):
        terms = {beta: fld.one}
        for e, c in zip(monomials, sol):
            if c != fld.zero:
                terms[e] = fld.neg(c)
        elements.append(Polynomial(fld, ps.n, terms))
    return GroebnerBasis(stairs, tuple(elements))
