"""Buchberger-Moller construction of the reduced lexicographic basis.

Independent of the staircase-induction engine.  Corner candidates are
taken lex-minimal first, starting from the origin, and each candidate's
monomial row (its values at the points) is reduced against a row
echelon form of the rows accepted so far.  A candidate's decrements are
all accepted, so its row is one accepted row times a coordinate column
(`poly.monomial_row`).  Every stored row carries the combination of
accepted monomials it stands for, and the reduction updates the
candidate's combination along with its values.  A candidate whose row
stays independent joins the staircase; one whose row reduces to zero is
a corner, and its monomial plus that combination is the basis element
at the corner.  Serves as the oracle the induction engine is checked
against.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush

from .core import GroebnerBasis, PointSet
from .poly import Exponent, Polynomial, lex_key, monomial_row
from .staircase import Staircase


class _Echelon:
    """Incremental row echelon form of augmented rows: the values at the
    `width` points, then the coefficients of the accepted monomials, in
    order of acceptance.

    A stored row is kept from its pivot on (it is zero before it and 1
    at it) up to its last accepted monomial.  Rows are never
    back-eliminated: a rank test needs only the echelon form."""

    def __init__(self, field, width: int):
        self.field = field
        self.width = width
        self.rows: list[tuple[int, list]] = []  # (pivot, stored part), sorted by pivot

    def reduce(self, row: list) -> int | None:
        """Reduce a row in place against the stored ones, by increasing
        pivot; return its pivot column, or None when its values vanish."""
        fld, zero = self.field, self.field.zero
        for pivot, stored in self.rows:
            c = row[pivot]
            if c != zero:
                end = pivot + len(stored)
                row[pivot:end] = fld.vec_sub_scaled(row[pivot:end], c, stored)
        return next((j for j in range(self.width) if row[j] != zero), None)

    def insert(self, row: list, pivot: int) -> None:
        fld = self.field
        insort(self.rows, (pivot, fld.vec_scale(fld.inv(row[pivot]), row[pivot:])))


def _discover(ps: PointSet) -> tuple[Staircase, tuple[Polynomial, ...]]:
    """The staircase and the reduced basis, in one pass over the corner
    candidates.

    A candidate beta enters with the augmented row (values of X^beta,
    zeros, 1 at its own acceptance index), a fresh list, since the
    echelon reduces it in place and `rows` keeps the values of X^beta.

    `rows` keeps a row only while it can still be a parent.  The parent
    of a nonzero exponent is the exponent lowered in its first axis, its
    first nonzero coordinate (the origin's is the last axis), so the
    children of a cell c with first axis a are c + e_i for i <= a.  They
    come off the heap in increasing lex order, c + e_a last, and once
    that one is evaluated c's row goes.  A rejected corner's row goes at
    once, since only accepted cells are parents.  A candidate is pushed
    when the last of its decrements is accepted, its lex-greatest one,
    which lowers its first axis; so beta + e_i carries i as its first
    axis.

    Independent: beta is accepted, and beta + e_i becomes a candidate
    once all of its decrements are accepted.  Dependent: X^beta plus the
    reduced combination of accepted monomials vanishes on the points, its
    tail lies in the staircase and is lex-smaller than beta, so it is the
    reduced element at the corner beta.  Candidates come off the heap in
    increasing lex order, since each new one exceeds the beta that made
    it.  A multiple of a rejected corner never becomes a candidate: one
    of its decrements is a multiple too, which is never accepted.
    """
    fld = ps.field
    n, width = ps.n, len(ps.points)
    ech = _Echelon(fld, width)
    accepted: list[Exponent] = []
    cells: set[Exponent] = set()
    elements: list[Polynomial] = []
    rows: dict[Exponent, list] = {}
    origin = (0,) * n
    candidates = [(lex_key(origin), origin, n - 1)]
    while candidates:
        _, beta, axis = heappop(candidates)
        k = len(accepted)
        row = monomial_row(fld, ps.points, beta, rows) + [fld.zero] * k + [fld.one]
        top = beta[axis]
        if top > 1 or (top and axis == n - 1):  # beta is its parent's last child
            del rows[beta[:axis] + (top - 1,) + beta[axis + 1 :]]
        pivot = ech.reduce(row)
        if pivot is None:
            del rows[beta]
            terms = {beta: fld.one}
            terms.update(zip(accepted, row[width : width + k]))
            elements.append(Polynomial(fld, n, terms))
            continue
        ech.insert(row, pivot)
        accepted.append(beta)
        cells.add(beta)
        for i in range(n):
            b = beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
            if all(
                b[j] == 0 or b[:j] + (b[j] - 1,) + b[j + 1 :] in cells for j in range(n)
            ):
                heappush(candidates, (lex_key(b), b, i))
    return Staircase(n, cells), tuple(elements)


def bm_staircase(ps: PointSet) -> Staircase:
    """The staircase of a point set, found by rank tests alone."""
    return _discover(ps)[0]


def bm_gb(ps: PointSet) -> GroebnerBasis:
    """The reduced basis by Buchberger-Moller: at each corner, the corner
    monomial plus the combination of staircase monomials that its row
    reduced to zero by."""
    return GroebnerBasis(*_discover(ps))
