"""Point sets in affine space and the staircase-induction construction
of the reduced lexicographic basis of their vanishing ideal.

The construction works by induction over the number of variables.  A
point set is sliced by its first coordinate; each slice, viewed in one
variable fewer, contributes a staircase, and these stack into the
staircase of the whole set.  For every corner of that staircase a basis
element is produced: representatives taken from the slice bases have
their coefficients interpolated across slices by univariate
characteristic polynomials in X1, the result is multiplied by the
vanishing polynomial in X1 of the slices whose staircase already contains
the corner's projection, and finally the lex-greatest-first division by the
previously finished elements reduces every tail into the staircase.

A slice representative is a stored element of the slice basis shifted
by a monomial, so a level reads only its slices' staircases and
elements and never divides by a slice basis.  Most lifts already have
every tail term inside the staircase, and such a lift is its element as
it stands (see `staircase_gb`); a level divides only the others, by one
`poly.Reducer` set up from the finished elements on the first lift that
needs it and grown by each element finished after it.  The slices and
stacked staircases the recursion builds are valid by construction and
are not validated again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import add

from .interp import char_poly_family, univariate_vanishing, vanishing_coeffs
from .poly import Exponent, Polynomial, Reducer, lex_key, normal_form
from .staircase import Staircase, staircase_sum


def format_point(field, point) -> str:
    """A point as its coordinates in the field's own notation, e.g.
    ``(1/2, 0)``; a one-coordinate point keeps Python's trailing comma."""
    text = ", ".join(map(field.format, point))
    return f"({text},)" if len(point) == 1 else f"({text})"


class DuplicatePointError(ValueError):
    def __init__(self, first_index: int, second_index: int, point: str):
        self.first_index = first_index
        self.second_index = second_index
        super().__init__(
            f"duplicate point {point} at indices {first_index} and {second_index}"
        )


def _fill(ps: "PointSet", field, n: int, points: tuple) -> None:
    object.__setattr__(ps, "field", field)
    object.__setattr__(ps, "n", n)
    object.__setattr__(ps, "points", points)


class PointSet:
    """A finite set of pairwise-distinct points with exact coordinates.

    Points are stored sorted, so equal sets compare equal regardless of
    input order and every downstream computation is deterministic.
    """

    __slots__ = ("field", "n", "points")

    def __init__(self, field, n: int, points=()):
        if n < 1:
            raise ValueError("ambient dimension must be >= 1")
        coerced = []
        for idx, pt in enumerate(points):
            pt = tuple(pt)
            if len(pt) != n:
                raise ValueError(f"point {idx} has {len(pt)} coordinates, expected {n}")
            coerced.append(tuple(field.coerce(x) for x in pt))
        seen: dict = {}
        for idx, pt in enumerate(coerced):
            if pt in seen:
                raise DuplicatePointError(seen[pt], idx, format_point(field, pt))
            seen[pt] = idx
        _fill(self, field, n, tuple(sorted(coerced)))

    @classmethod
    def _trusted(cls, field, n: int, points: tuple) -> "PointSet":
        """A point set from points the caller vouches for, without the
        checks of the public constructor: a sorted tuple of pairwise
        distinct tuples of n coordinates, each canonical in `field`."""
        ps = object.__new__(cls)
        _fill(ps, field, n, points)
        return ps

    def __setattr__(self, name, value):
        raise AttributeError("PointSet is immutable")

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other):
        return (
            isinstance(other, PointSet)
            and self.field == other.field
            and self.n == other.n
            and self.points == other.points
        )

    def __hash__(self):
        return hash((self.field, self.n, self.points))

    def __repr__(self):
        return f"PointSet(n={self.n}, {list(self.points)})"


def slice_decompose(ps: PointSet) -> list[tuple[object, PointSet]]:
    """Group the points by first coordinate; each slice is re-expressed in
    the remaining coordinates.  Keys ascend in the field's natural order.

    The points of ps are sorted, so the keys arrive ascending, and the
    points of one slice arrive sorted and distinct; their coordinates
    are already canonical, so each slice is built without re-validation."""
    if ps.n < 2:
        raise ValueError("slicing needs dimension >= 2")
    if not ps.points:
        raise ValueError("cannot slice an empty point set")
    groups: dict = {}
    for pt in ps.points:
        groups.setdefault(pt[0], []).append(pt[1:])
    return [
        (a1, PointSet._trusted(ps.field, ps.n - 1, tuple(part)))
        for a1, part in groups.items()
    ]


def compute_staircase(ps: PointSet) -> Staircase:
    """The staircase of a point set, by induction over the dimension.

    One variable: {0, ..., #A - 1}.  More variables: the slices'
    staircases, each lifted by a leading zero coordinate, are stacked
    along the first axis.  The size always equals the number of points.
    """
    if not ps.points:
        return Staircase(ps.n)
    if ps.n == 1:
        return Staircase(1, {(i,) for i in range(len(ps.points))})
    blocks = [
        compute_staircase(part).prepend_zero() for _, part in slice_decompose(ps)
    ]
    return staircase_sum(blocks, ps.n)


@dataclass(frozen=True)
class GroebnerBasis:
    """A staircase together with one monic polynomial per corner.

    Construction keeps elements sorted by leading exponent but performs
    no deeper validation; see :mod:`pointideal.verify` for the full
    certification, which must also be able to examine broken bases.
    A basis is only its staircase and elements; one level up, the engine
    reads both and nothing else (see `slice_representative`).
    """

    staircase: Staircase
    elements: tuple[Polynomial, ...]

    def __post_init__(self):
        elems = tuple(
            sorted(self.elements, key=lambda f: lex_key(f.leading_exponent()))
        )
        object.__setattr__(self, "elements", elems)

    @property
    def n(self) -> int:
        return self.staircase.n

    @property
    def field(self):
        return self.elements[0].field

    def quotient_dimension(self) -> int:
        """Vector-space dimension of the quotient ring: one monomial per
        staircase cell."""
        return len(self.staircase)


def slice_representative(beta_hat: Exponent, slice_gb: GroebnerBasis) -> Polynomial:
    """The tail of a slice representative at beta_hat: a monic member of
    the slice ideal with leading exponent beta_hat.

    The representative is X^(beta_hat - lam) * g, for g the first element
    of the slice basis whose leading exponent lam divides beta_hat, the
    element `normal_form` would divide by first.  When beta_hat is a
    corner of the slice staircase the shift is zero and g's own tail is
    read.  A shift keeps the lex order of the terms, so the shifted tail
    stays ordered and lies below beta_hat.  Only the tail is returned,
    since that is all the lift reads.

    Any such representative will do, not only the reduced one X^beta_hat
    minus its normal form: see `build_phi` for why the level's reduction
    turns every lift into the same element."""
    beta_hat = tuple(beta_hat)
    for g in slice_gb.elements:
        lam = g.leading_exponent()
        if all(x <= y for x, y in zip(lam, beta_hat)):
            shift = tuple(y - x for x, y in zip(lam, beta_hat))
            terms = {tuple(map(add, e, shift)): c for e, c in islice(g.terms.items(), 1, None)}
            return Polynomial._trusted(slice_gb.field, slice_gb.n, terms, ordered=True)
    raise ValueError(f"{beta_hat} lies inside the staircase")


def split_first_coordinates(beta: Exponent, slice_gbs) -> tuple[list, list]:
    """Split the slice keys by whether the corner's projection lies in the
    slice staircase.  For a corner, the first group has exactly beta[0]
    keys."""
    beta_hat = tuple(beta)[1:]
    inside, outside = [], []
    for a1, gb in slice_gbs:
        (inside if beta_hat in gb.staircase else outside).append(a1)
    return inside, outside


def build_phi(field, beta: Exponent, slice_gbs, stairs: Staircase) -> Polynomial:
    """The interpolation-lifted element of the ideal for a corner beta.

    slice_gbs is the ordered list of (first coordinate, basis of the
    slice ideal) pairs, and stairs is the staircase they stack into, of
    which beta must be a corner.  Coefficients of the slice
    representatives are interpolated across the slices whose staircase
    misses the projected corner, with the characteristic polynomials in
    X1 read as dense coefficient lists; the lift is then multiplied once
    by the vanishing polynomial prod (X1 - a1) of the remaining slices,
    whose staircase contains the projected corner.

    Why the lift is right, whichever slice representatives it reads (see
    `slice_representative`).  Before the product the lift is the sum over
    the outside slices a of chi_a * (X^beta_hat + tail_a), and the chi_a
    sum to 1, so it is X^beta_hat plus terms whose exponent in X2..Xn is
    lex below beta_hat; times the monic vanishing polynomial of degree
    beta[0], its leading term is X^beta.  On an inside slice the
    vanishing polynomial is zero; on an outside slice a, chi_a is 1 and
    every other chi is 0, so the lift restricts to a's representative,
    which vanishes on the slice.  So the lift vanishes on every point of
    the set.  Every lower term t of it that lies outside the staircase is
    divisible by some corner gamma <= t < beta, whose element
    `staircase_gb` has already finished, and no other corner divides
    beta; so dividing by the finished elements leaves X^beta, a tail
    inside the staircase, and a polynomial in the vanishing ideal: the
    reduced element at beta, whichever representatives went in.
    `staircase_gb` asserts the first two of these.

    The interpolation keeps one dense column per tail exponent
    gamma_hat of the representatives: entry k of the column is the
    coefficient of X1^k * X^gamma_hat, summed over the slices as raw
    products coeff * chi_k and normalized once when the column is read
    (delayed reduction, see `field`).

    Both factors are written lex-descending, with their zero entries
    skipped, so neither is sorted.  X_n is the most significant
    variable, so (k,) + gamma_hat is ordered by gamma_hat first and by k
    only within a column.  Every gamma_hat is a tail exponent of a
    representative, so lex below beta_hat: the lead (0,) + beta_hat comes
    first, then the columns by gamma_hat descending, each from k = #outside
    - 1 down to 0.  The vanishing polynomial is a polynomial in X1 alone,
    written from its top degree down.
    """
    beta = tuple(beta)
    n = len(beta)
    if n < 2:
        raise ValueError("the lifted construction needs dimension >= 2")
    beta_hat = beta[1:]
    if beta not in stairs.corners():
        raise ValueError(f"{beta} is not a corner of the staircase")
    inside, outside = split_first_coordinates(beta, slice_gbs)
    gb_of = dict(slice_gbs)
    chi = char_poly_family(field, outside)
    columns: dict[Exponent, list] = {}
    for a1 in outside:
        chi_a1 = chi[a1]
        for gamma_hat, coeff in slice_representative(beta_hat, gb_of[a1]).terms.items():
            column = columns.get(gamma_hat)
            if column is None:
                columns[gamma_hat] = [coeff * c for c in chi_a1]
            else:
                columns[gamma_hat] = [x + coeff * c for x, c in zip(column, chi_a1)]
    norm = field.normalize
    theta_terms: dict[Exponent, object] = {(0,) + beta_hat: field.one}
    for gamma_hat in sorted(columns, key=lex_key, reverse=True):
        column = columns[gamma_hat]
        for k in reversed(range(len(column))):
            c = norm(column[k])
            if c:
                theta_terms[(k,) + gamma_hat] = c
    rest = (0,) * (n - 1)
    coeffs = vanishing_coeffs(field, inside)
    vanishing = {(k,) + rest: coeffs[k] for k in reversed(range(len(coeffs))) if coeffs[k]}
    theta = Polynomial._trusted(field, n, theta_terms, ordered=True)
    return theta * Polynomial._trusted(field, n, vanishing, ordered=True)


def staircase_gb(ps: PointSet) -> GroebnerBasis:
    """The reduced lexicographic basis of the vanishing ideal of ps.

    One variable: the single monic vanishing polynomial.  More
    variables: recurse into the slices, lift one element per corner of
    the stacked staircase, and reduce each lift by the elements already
    finished (corners are processed in increasing lex order, so the
    reduction never needs a later element).  Each reduced lift is
    already the final element: its leading exponent is the corner and
    every tail exponent lies inside the staircase, which the two
    assertions below enforce, so it equals the corner monomial minus its
    normal form against the finished basis (the proof is in `build_phi`).

    Only a lift with a stray term, a tail exponent outside the
    staircase D, is divided.  For any other lift at the corner beta,
    no finished leading exponent divides any of its terms: a corner
    dividing a cell of D would put the corner in D, since D is a lower
    set, and corners lie outside it; a corner other than beta dividing
    beta would contradict the minimality of beta among the exponents
    outside D.  So `normal_form` would return the lift itself.  A level
    reads its slices' staircases and elements only, builds its one
    reducer from the finished elements on the first lift that strays,
    adds each later element to it, and keeps it to itself; a level
    where no lift strays builds none.
    """
    fld = ps.field
    if not ps.points:
        return GroebnerBasis(Staircase(ps.n), (Polynomial.one(fld, ps.n),))
    if ps.n == 1:
        f = univariate_vanishing(fld, [pt[0] for pt in ps.points])
        return GroebnerBasis(compute_staircase(ps), (f,))
    slice_gbs = [(a1, staircase_gb(part)) for a1, part in slice_decompose(ps)]
    stairs = staircase_sum(
        [gb.staircase.prepend_zero() for _, gb in slice_gbs], ps.n
    )
    cells = stairs.cells
    finished: list[Polynomial] = []
    reducer = None
    for corner in stairs.sorted_corners():
        f = build_phi(fld, corner, slice_gbs, stairs)
        stray = [e for e in islice(f.terms, 1, None) if e not in cells]
        if stray:
            if reducer is None:
                reducer = Reducer(finished)
            f = normal_form(f, reducer)
            stray = [e for e in islice(f.terms, 1, None) if e not in cells]
        if f.is_zero or f.leading_exponent() != corner:
            raise AssertionError(f"reduced lift lost its leading exponent {corner}")
        if stray:
            raise AssertionError(
                f"tail exponents {stray} escaped the staircase at corner {corner}"
            )
        finished.append(f)
        if reducer is not None:
            reducer.add(f)
    return GroebnerBasis(stairs, tuple(finished))
