"""Buchberger-Moller construction of the reduced lexicographic basis.

Independent of the staircase-induction engine.  Corner candidates are
taken lex-minimal first, starting from the origin, and each candidate's
monomial row (its values at the points) is reduced against a row
echelon form of the rows accepted so far.  A candidate's decrements are
all accepted, so its row is one accepted row times a coordinate column
(`poly.monomial_row`).  The echelon is kept as a factorization: each
stored row remembers the multipliers its own reduction used, and the
rank tests touch point values only.  The rows are kept in the field's
row form (see `field`), which the certificate's vanishing check shares:
over F_p each row is one int with a slot per point, so an update is one
big-int multiply-add; over the rationals a row is a list of ints over
one common denominator, and an update touches the entries from the
stored row's pivot on.  A candidate whose row stays
independent joins the staircase; one whose row reduces to zero is a
corner, and one backward sweep over the recorded multipliers turns its
multipliers into the combination of accepted monomials that vanishes
with it, which gives the basis element at the corner.  Serves as the
oracle the induction engine is checked against.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from itertools import compress

from .core import GroebnerBasis, PointSet
from .poly import Exponent, Polynomial, lex_key, monomial_row
from .staircase import Staircase


class _Echelon:
    """Incremental row echelon form of monomial rows over `width` points,
    kept as a factorization, with its rows in the field's row form
    (`field._rows`: packed ints over F_p, lists of ints over one
    denominator over the rationals), sized for one update per stored
    row, at most `width`.

    Let m_r be the monomial row of the r-th accepted monomial, counted
    from 0 in order of acceptance.  Its reduction subtracts c_{r,i}
    times stored row i for each i < r (c_{r,i} is zero when row i's
    pivot entry was already zero) and leaves a row whose first nonzero
    entry, at its pivot, has inverse inv_r.  The invariant is

        stored row r = inv_r * (m_r - sum over i < r of c_{r,i} * stored row i),

    kept from its pivot on, where it is 1; every entry before the pivot
    is zero.  `inverses[r]` holds inv_r and `multipliers[r]` the dense
    list c_{r,0}, ..., c_{r,r-1}.  Rows are never back-eliminated: a
    rank test needs only the echelon form, and a corner's combination
    comes from `combination`.  Each update is one `vec_sub_scaled`
    call, and a candidate is unpacked once, after its reduction, to
    find its pivot and build its stored row."""

    def __init__(self, field, width: int):
        self.field = field
        self.form = field._rows(width, width)
        self.rows: list[tuple[int, int, object]] = []  # (pivot, r, stored row r), sorted by pivot
        self.inverses: list = []
        self.multipliers: list[list] = []

    def reduce(self, values: list) -> tuple[list, int | None, list]:
        """Reduce a row of values against the stored ones, by increasing
        pivot; `values` itself is left unchanged.  Return the reduced
        values, their pivot column (None when they are all zero) and the
        multipliers c, indexed by acceptance: the row handed in is the
        reduced row plus the sum of c[i] * stored row i."""
        form, update, zero = self.form, self.field.vec_sub_scaled, self.field.zero
        entry = form.entry
        c = [zero] * len(self.inverses)
        row = form.pack(values)
        for pivot, r, stored in self.rows:
            x = entry(row, pivot)
            if x != zero:
                c[r] = x
                row = update(row, x, stored)
        values = form.unpack(row)
        return values, next((j for j, x in enumerate(values) if x != zero), None), c

    def insert(self, values: list, pivot: int, c: list) -> None:
        """Store reduced values with the pivot and multipliers `reduce`
        gave them, as the next accepted row."""
        inv = self.field.inv(values[pivot])
        insort(self.rows, (pivot, len(self.inverses), self.form.store(values, pivot, inv)))
        self.inverses.append(inv)
        self.multipliers.append(c)

    def combination(self, c: list) -> list:
        """The a with sum of c[i] * stored row i = sum of a[i] * m_i, by
        one backward sweep over the recorded multipliers; `c` is
        consumed.

        Let d = c and let r run down from the last accepted row, keeping
        sum over i <= r of d[i] * stored row i, plus sum over i > r of
        a[i] * m_i, equal to the sum to rewrite.  By the invariant,
        d[r] * stored row r = a[r] * m_r - sum over i < r of
        a[r] * c_{r,i} * stored row i, with a[r] = d[r] * inv_r.  So
        fixing a[r] and subtracting a[r] * c_{r,i} from d[i] for each
        i < r keeps the sum with r one lower, and at r = -1 only the
        a[i] * m_i are left.  The sweep must follow acceptance order,
        not pivot order: the invariant writes row r through the rows
        accepted before it, whatever their pivots.  For k accepted rows
        it costs at most k(k-1)/2 multiply-adds, O(k^2) per corner, and
        skips every r with a[r] = 0.  Entries of d are normalized once,
        when read."""
        norm, zero = self.field.normalize, self.field.zero
        for r in range(len(c) - 1, -1, -1):
            a = norm(norm(c[r]) * self.inverses[r])
            c[r] = a
            if a != zero:
                c[:r] = [x - a * y for x, y in zip(c, self.multipliers[r])]
        return c


def _discover(ps: PointSet) -> tuple[Staircase, tuple[Polynomial, ...]]:
    """The staircase and the reduced basis, in one pass over the corner
    candidates.

    The echelon reduces a candidate's values in its own row form and
    leaves the list it is handed unchanged, so the values of X^beta can
    come straight from `rows`, which keeps them.

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
    once all of its decrements are accepted; only its nonzero
    coordinates can be lowered, so only those are tested, which at high
    dimension are few.  Dependent: the values of
    X^beta are the sum of its multipliers times the stored rows, which
    `_Echelon.combination` rewrites as a combination a of the accepted
    monomials' values.  So X^beta - sum of a[i] * X^(alpha_i) vanishes
    on the points, its tail lies in the staircase and is lex-smaller
    than beta, and it is the reduced element at the corner beta.
    Candidates come off the heap in increasing lex order, since each new
    one exceeds the beta that made it.  A multiple of a rejected corner
    never becomes a candidate: one of its decrements is a multiple too,
    which is never accepted.
    """
    fld = ps.field
    n, width = ps.n, len(ps.points)
    ech = _Echelon(fld, width)
    accepted: list[Exponent] = []
    cells: set[Exponent] = set()
    elements: list[Polynomial] = []
    rows: dict[Exponent, list] = {}
    origin, axes = (0,) * n, range(n)
    candidates = [(lex_key(origin), origin, n - 1)]
    while candidates:
        _, beta, axis = heappop(candidates)
        row = monomial_row(fld, ps.points, beta, rows)
        top = beta[axis]
        if top > 1 or (top and axis == n - 1):  # beta is its parent's last child
            del rows[beta[:axis] + (top - 1,) + beta[axis + 1 :]]
        row, pivot, c = ech.reduce(row)
        if pivot is None:
            del rows[beta]
            terms = {beta: fld.one}
            terms.update(zip(accepted, (-a for a in ech.combination(c))))
            elements.append(Polynomial(fld, n, terms))
            continue
        ech.insert(row, pivot, c)
        accepted.append(beta)
        cells.add(beta)
        for i in axes:
            b = beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
            if all(b[:j] + (b[j] - 1,) + b[j + 1 :] in cells for j in compress(axes, b)):
                heappush(candidates, (lex_key(b), b, i))
    return Staircase(n, cells), tuple(elements)


def bm_staircase(ps: PointSet) -> Staircase:
    """The staircase of a point set, found by rank tests alone."""
    return _discover(ps)[0]


def bm_gb(ps: PointSet) -> GroebnerBasis:
    """The reduced basis by Buchberger-Moller: at each corner, the corner
    monomial minus the combination of staircase monomials whose values
    its own values equal, read from the factored echelon."""
    return GroebnerBasis(*_discover(ps))
