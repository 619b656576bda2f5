"""Point sets in affine space and the staircase-induction construction
of the reduced lexicographic basis of their vanishing ideal.

The construction works by induction over the number of variables, run
bottom-up over the slice trie of the sorted points, without recursion.
A node of the trie is a run points[start:end] of the sorted points that
agree on every coordinate before the node's depth.  Its branch is the
first coordinate at or after the depth where the run's points differ,
capped at n - 1; the run is sorted, so it agrees on a coordinate exactly
when its first and last points do.  A node whose branch is below n - 1
has one child per value at the branch, at least two, each a run whose
depth is branch + 1.  The nodes are listed parents first and evaluated
children first, each by one of three paths:

- A leaf (branch n - 1): its points differ at most in the last
  coordinate, and its basis is the univariate vanishing polynomial of
  those values, over the staircase {0, ..., #run - 1}.
- A branching node is a level of the induction.  Each child is a slice,
  seen in the variables after the branch, and the slices' staircases
  stack into the level's staircase.  For every corner of it a basis
  element is produced: representatives taken from the slice bases have
  their coefficients interpolated across slices by univariate
  characteristic polynomials in the branch variable, the result is
  multiplied by the vanishing polynomial in that variable of the slices
  whose staircase already contains the corner's projection, and the
  lex-greatest-first division by the previously finished elements
  reduces every tail into the staircase.
- Coordinates depth .. branch - 1, which every point of the node shares
  with values a: the elements X_i - a_i join the basis found at the
  branch, whose elements and cells get zeros in those coordinates (see
  `staircase_gb` for why this is the reduced basis).

A branching node has at least two children, so the lift never sees a
one-slice level: a coordinate shared by a whole run takes the closed
form instead.  A node is a range of the sorted points, so no slice is
copied as a point set.

A slice representative is a stored element of the slice basis shifted
by a monomial, so a level reads only its slices' staircases and
elements and never divides by a slice basis.  Most lifts already have
every tail term inside the staircase, and such a lift is its element as
it stands (see `_lift_level`); a level divides only the others, by one
`poly.Reducer` set up from the finished elements on the first lift that
needs it and grown by each element finished after it.  The staircases
the walk builds are valid by construction and are not validated again.
"""

from __future__ import annotations

from bisect import bisect_left
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


@dataclass(frozen=True, slots=True, init=False, repr=False)
class PointSet:
    """A finite set of pairwise-distinct points with exact coordinates.

    Points are stored sorted, so equal sets compare equal regardless of
    input order and every downstream computation is deterministic.
    """

    field: object
    n: int
    points: tuple[tuple, ...]

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
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "points", tuple(sorted(coerced)))

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __repr__(self):
        return f"PointSet(n={self.n}, {list(self.points)})"


def slice_decompose(ps: PointSet) -> list[tuple[object, PointSet]]:
    """Group the points by first coordinate; each slice is re-expressed in
    the remaining coordinates.  Keys ascend in the field's natural order.

    No engine calls this: both walk the slice trie (see the module
    docstring), whose nodes are ranges of the sorted points.  Each slice
    is built with the public constructor."""
    if ps.n < 2:
        raise ValueError("slicing needs dimension >= 2")
    if not ps.points:
        raise ValueError("cannot slice an empty point set")
    groups: dict = {}
    for pt in ps.points:
        groups.setdefault(pt[0], []).append(pt[1:])
    return [(a1, PointSet(ps.field, ps.n - 1, part)) for a1, part in groups.items()]


def _walk(ps: PointSet, leaf, level, shared):
    """Evaluate the slice trie of a nonempty point set (see the module
    docstring) and return the root's value.

    The nodes are listed parents first, as (start, end, depth, branch,
    lo, hi): the children of a node are the nodes lo .. hi - 1, in
    ascending order of their value at its branch.  They are evaluated in
    reverse, so children before parents.  A leaf's value is
    `leaf(values)`, for the last coordinates of its points; a branching
    node's is `level(m, slices)`, for m = n - branch and the (value at
    the branch, child's value) pairs in that order.  A node whose points
    share coordinates depth .. branch - 1, with values a, then takes
    `shared(a, value)`."""
    points, n = ps.points, ps.n
    trie = [[0, len(points), 0]]
    for node in trie:  # the children appended are read in turn
        start, end, depth = node
        first, final = points[start], points[end - 1]
        branch = next((i for i in range(depth, n - 1) if first[i] != final[i]), n - 1)
        lo = len(trie)
        if branch < n - 1:
            run = start
            for i in range(start + 1, end):
                if points[i][branch] != points[i - 1][branch]:
                    trie.append([run, i, branch + 1])
                    run = i
            trie.append([run, end, branch + 1])
        node += (branch, lo, len(trie))
    values: dict = {}
    for index in reversed(range(len(trie))):
        start, end, depth, branch, lo, hi = trie[index]
        if lo < hi:
            slices = [(points[trie[c][0]][branch], values.pop(c)) for c in range(lo, hi)]
            value = level(n - branch, slices)
        else:
            value = leaf([pt[-1] for pt in points[start:end]])
        if depth < branch:
            value = shared(points[start][depth:branch], value)
        values[index] = value
    return values[0]


def _behind_zeros(stairs: Staircase, k: int) -> Staircase:
    """The staircase with k zero coordinates put in front of every cell,
    a lower set because stairs is one."""
    pad = (0,) * k
    return Staircase._trusted(k + stairs.n, frozenset(pad + c for c in stairs.cells))


def compute_staircase(ps: PointSet) -> Staircase:
    """The staircase of a point set, by the walk of its slice trie that
    `staircase_gb` makes (see the module docstring).

    A leaf of m points gives {0, ..., m - 1}.  A branching node stacks
    its children's staircases, as they are, along the branch axis.
    Coordinates shared by a node's points put zeros in front of every
    cell.  The size always equals the number of points.
    """
    if not ps.points:
        return Staircase(ps.n)
    return _walk(
        ps,
        lambda values: Staircase(1, {(i,) for i in range(len(values))}),
        lambda m, slices: staircase_sum((d for _, d in slices), m),
        lambda shared, d: _behind_zeros(d, len(shared)),
    )


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
    element `normal_form` would divide by first.  A shift keeps the lex
    order of the terms, so the shifted tail stays ordered and lies below
    beta_hat.  Only the tail is returned, since that is all the lift
    reads.

    When beta_hat is a corner of the slice staircase, g is the element
    it leads and the shift is zero: distinct corners are incomparable,
    so no other leading exponent divides beta_hat.  That element is
    found by bisection, since the basis keeps its elements sorted by
    leading exponent; only a beta_hat that leads no element is matched
    against every leading exponent in turn.

    Any such representative will do, not only the reduced one X^beta_hat
    minus its normal form: see `build_phi` for why the level's reduction
    turns every lift into the same element."""
    beta_hat = tuple(beta_hat)
    elements = slice_gb.elements
    i = bisect_left(elements, lex_key(beta_hat), key=lambda g: lex_key(g.leading_exponent()))
    if i < len(elements) and elements[i].leading_exponent() == beta_hat:
        return elements[i].tail()
    for g in elements:
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
    X1 read as scaled dense coefficient lists; the lift is then
    multiplied once by the vanishing polynomial prod (X1 - a1) of the
    remaining slices, whose staircase contains the projected corner.

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
    the level (`_lift_level`) has already finished, and no other corner
    divides beta; so dividing by the finished elements leaves X^beta, a
    tail inside the staircase, and a polynomial in the vanishing ideal:
    the reduced element at beta, whichever representatives went in.
    `_lift_level` asserts the first two of these.

    The interpolation keeps one column per tail exponent gamma_hat of
    the representatives, a row of the field's row form (`field._rows`)
    with one entry per degree k < #outside: entry k is the coefficient
    of X1^k * X^gamma_hat.  `char_poly_family` gives each outside node
    a as a pair (q_a, s_a) with chi_a = s_a * q_a, and q_a is packed
    once.  Each tail term coeff * X^gamma_hat of a's representative is
    then one `vec_sub_scaled` update of its column, less -coeff * s_a
    times q_a.  A slice updates a column at most once, so the form is
    sized for #outside updates.  Each column is read once, by `unpack`,
    as canonical scalars (delayed reduction, see `field`): over F_p a
    column is one packed int, over the rationals a list of ints over
    one denominator, so no entry is reduced by a gcd before its read.

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
    m = len(outside)
    form = field._rows(m, m)
    norm, update, zeros = field.normalize, field.vec_sub_scaled, form.pack([field.zero] * m)
    columns: dict[Exponent, object] = {}
    for a1 in outside:
        q, s = chi[a1]
        q = form.pack(q)
        for gamma_hat, coeff in slice_representative(beta_hat, gb_of[a1]).terms.items():
            columns[gamma_hat] = update(columns.get(gamma_hat, zeros), norm(-coeff * s), q)
    theta_terms: dict[Exponent, object] = {(0,) + beta_hat: field.one}
    for gamma_hat in sorted(columns, key=lex_key, reverse=True):
        column = form.unpack(columns[gamma_hat])
        for k in reversed(range(len(column))):
            if column[k]:
                theta_terms[(k,) + gamma_hat] = column[k]
    rest = (0,) * (n - 1)
    coeffs = vanishing_coeffs(field, inside)
    vanishing = {(k,) + rest: coeffs[k] for k in reversed(range(len(coeffs))) if coeffs[k]}
    theta = Polynomial._trusted(field, n, theta_terms, ordered=True)
    return theta * Polynomial._trusted(field, n, vanishing, ordered=True)


def _lift_level(field, n: int, slice_gbs) -> GroebnerBasis:
    """The basis of a level: a branching node of the slice trie, in its
    n variables, from the (value, basis) pairs of its slices in
    ascending order.

    Lift one element per corner of the stacked staircase, and reduce
    each lift by the elements already finished (corners are processed in
    increasing lex order, so the reduction never needs a later element).
    Each reduced lift is already the final element: its leading exponent
    is the corner and every tail exponent lies inside the staircase,
    which the two assertions below enforce, so it equals the corner
    monomial minus its normal form against the finished basis (the proof
    is in `build_phi`).

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
    stairs = staircase_sum((gb.staircase for _, gb in slice_gbs), n)
    cells = stairs.cells
    finished: list[Polynomial] = []
    reducer = None
    for corner in stairs.sorted_corners():
        f = build_phi(field, corner, slice_gbs, stairs)
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


def _behind_shared(field, shared, gb: GroebnerBasis) -> GroebnerBasis:
    """The basis of a node whose points share their first coordinates,
    with values `shared`, from the basis gb of the points without them
    (see `staircase_gb`)."""
    k, n = len(shared), len(shared) + gb.n
    pad, origin = (0,) * k, (0,) * n
    linear = [
        {origin[:i] + (1,) + origin[i + 1 :]: field.one, origin: field.normalize(-a)}
        for i, a in enumerate(shared)
    ]
    rest = [{pad + e: c for e, c in g.terms.items()} for g in gb.elements]
    elements = [Polynomial._trusted(field, n, terms) for terms in linear]
    elements += [Polynomial._trusted(field, n, terms, ordered=True) for terms in rest]
    return GroebnerBasis(_behind_zeros(gb.staircase, k), tuple(elements))


def staircase_gb(ps: PointSet) -> GroebnerBasis:
    """The reduced lexicographic basis of the vanishing ideal of ps.

    The slice trie of ps is evaluated children before parents (see the
    module docstring), each node to the basis of its points in the
    variables from its depth on, and the root's basis is returned.

    - A leaf: the monic vanishing polynomial of its last coordinates.
    - A branching node: `_lift_level` lifts one element per corner of
      the staircase its children's bases stack into.  A branching node
      has at least two children, so every level lifts at least two
      slices; a one-slice level is never lifted.
    - A node whose points share the coordinates depth .. branch - 1,
      with values a: the elements X_i - a_i, followed by the basis G
      found at the branch with zeros put in front of every exponent, and
      the staircase of G behind the same zeros.  The points are {a} x B,
      so the ideal is (X_i - a_i : i) + I(B), and G generates I(B).  The
      leading monomials X_i are coprime to each other and to every
      leading monomial of G, which lies in the later variables, so every
      S-polynomial of a pair with an X_i - a_i reduces to zero; G is a
      Groebner basis already, so the union is one.  It is reduced: the
      tail of X_i - a_i is a constant, which no leading monomial
      divides, and the tails of G are reduced against G and involve no
      X_i.
    """
    fld = ps.field
    if not ps.points:
        return GroebnerBasis(Staircase(ps.n), (Polynomial.one(fld, ps.n),))
    return _walk(
        ps,
        lambda values: GroebnerBasis(
            Staircase(1, {(i,) for i in range(len(values))}),
            (univariate_vanishing(fld, values),),
        ),
        lambda n, slice_gbs: _lift_level(fld, n, slice_gbs),
        lambda shared, gb: _behind_shared(fld, shared, gb),
    )
