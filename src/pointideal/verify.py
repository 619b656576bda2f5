"""Independent certification that a claimed basis is the reduced
lexicographic basis of the vanishing ideal of a point set.

Four checks: every element vanishes on every point; the basis has the
reduced shape (monic, leading exponents exactly the staircase corners,
tails inside the staircase); the S-polynomials of the critical pairs
that the connectivity criterion keeps reduce to zero; and the staircase
size equals the number of points.  Together they are equivalent to
"this is the reduced basis": the first three make it a Groebner basis of
an ideal containing the vanishing ideal, and the dimension count forces
equality.

**Vanishing.**  Each element is evaluated at all points at once, as the
sum of its coefficients times monomial rows (`poly.monomial_row`).  The
rows and the sums are held in the field's row form (see `field`), the
one the Buchberger-Moller echelon keeps: each monomial row is packed
once, each term is one `vec_sub_scaled` call that subtracts -c times the
term's row, and each value is read once, by `unpack`, before its zero
test.  On F_p a sum is one int with a slot per point, sized for the
most terms of an element, which may exceed the number of points; on
the rationals it is a list of ints over one common denominator.

**Which S-pairs.**  Let L_1, ..., L_c be the distinct leading
exponents, m_ij = lcm(L_i, L_j), and sigma_ij = (m_ij / L_i) e_i -
(m_ij / L_j) e_j the syzygy of the leading terms behind the pair
(i, j).  When the syzygies of a set of pairs generate every sigma_ij,
the basis is a Groebner basis as soon as the S-polynomials of those
pairs reduce to zero, since a reduction to zero is a standard
representation (Gebauer and Moeller, "On an installation of
Buchberger's algorithm", JSC 6, 1988).  The check keeps the pairs of the
connectivity criterion (Caboara, Kreuzer and Robbiano, "Efficiently
computing minimal sets of critical pairs", JSC 38, 2004).  For each lcm
m of a pair, take V_m = {k : L_k divides m} and join k and l in V_m
when lcm(L_k, L_l) != m, that is, when it properly divides m.  Then
walk the pairs whose lcm is exactly m in (i, j) order, and keep a pair
only when i and j are still in different components, joining them.

Proof, by induction on m under divisibility: the syzygy of every pair
whose lcm properly divides m is a combination of the kept pairs'.  A
dropped pair (i, j) with lcm m has a path from i to j in V_m, each edge
e a pair whose lcm m_e divides m: properly, or e is a kept pair with
lcm m.  Since (m / m_kl) sigma_kl = (m / L_k) e_k - (m / L_l) e_l, the
sum of +-(m / m_e) sigma_e along the path telescopes to sigma_ij.  So
the kept pairs generate every syzygy.  The chain criterion (Buchberger,
"A criterion for detecting unnecessary reductions in the construction
of Groebner bases", EUROSAM 1979; Gebauer and Moeller 1988) drops
(i, j) when some L_k divides m with lcm(L_i, L_k) != m and
lcm(L_j, L_k) != m: then i, k, j is a path of joined edges, so every
pair it drops is dropped here too.  Either way the verdict is that of
reducing every pair.  Divisibility is the guard-bit test on packed
exponents, as in `poly.Reducer`.  The check sets the basis up for
division once (one `poly.Reducer`, built from the elements) and divides
each kept S-polynomial by it.

`verify_basis` decides reduced shape and dimension first; both cost
O(terms).  Only when the shape passes are vanishing and the S-pairs
checked: then every exponent lies in the staircase or at a corner, so
vanishing builds at most one row of values per cell and per corner, no
coordinate exceeds the number of staircase cells, and the reductions
stay bounded by the input's size: a packed coordinate takes about log2
of that number of bits, and n times that in a division that carries
(see `poly.Reducer`).  When the shape
fails, the verdict is already FAIL, and the two checks are reported as
skipped (`passed` is None) rather than run on exponents the file may
make arbitrarily large.
The report lists the four checks in the fixed order vanishing, reduced
shape, S-pairs, dimension.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations
from operator import lshift

from .core import GroebnerBasis, PointSet, format_point
from .poly import Reducer, lex_key, monomial_row, normal_form, packing, s_polynomial


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool | None
    witness: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {"overall": self.overall, "checks": [asdict(c) for c in self.checks]}

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            status = {True: "PASS", False: "FAIL", None: "SKIPPED"}[c.passed]
            suffix = f" ({c.witness})" if c.witness else ""
            lines.append(f"{c.name}: {status}{suffix}")
        lines.append(f"overall: {'PASS' if self.overall else 'FAIL'}")
        return lines


def _check_compatible(gb: GroebnerBasis, ps: PointSet) -> None:
    if gb.n != ps.n:
        raise ValueError("basis and points have different dimensions")
    for f in gb.elements:
        if f.n != ps.n:
            raise ValueError("basis and points have different dimensions")
        if f.field != ps.field:
            raise ValueError("basis and points have different fields")


def check_vanishing(gb: GroebnerBasis, ps: PointSet) -> CheckResult:
    """Every element evaluates to zero at every point.

    Each element is evaluated at all points at once, as the sum of its
    coefficients times monomial rows (`poly.monomial_row`), in the
    field's row form and read once per value (see the module docstring).
    One row cache serves every element, with each row's packed form
    beside it, so under `verify_basis` at most |D| + #corners rows are
    built, D the staircase.  Elements are tried in order and, for each,
    the points in order, so the witness is the first failing (element,
    point) pair."""
    _check_compatible(gb, ps)
    fld, points = ps.field, ps.points
    form = fld._rows(len(points), max((len(f.terms) for f in gb.elements), default=0))
    norm, update, zeros = fld.normalize, fld.vec_sub_scaled, form.pack([fld.zero] * len(points))
    rows: dict = {}
    packed: dict = {}
    for f in gb.elements:
        values = zeros
        for e, c in f.terms.items():
            row = packed.get(e)
            if row is None:
                row = packed[e] = form.pack(monomial_row(fld, points, e, rows))
            values = update(values, norm(-c), row)
        for pt, value in zip(points, form.unpack(values)):
            if value:
                witness = (
                    f"element with leading exponent {f.leading_exponent()} "
                    f"evaluates to {fld.format(value)} at {format_point(fld, pt)}"
                )
                return CheckResult("vanishing", False, witness)
    return CheckResult("vanishing", True)


def check_reduced_shape(gb: GroebnerBasis) -> CheckResult:
    """Monic elements, leading exponents exactly the staircase corners,
    all tail exponents inside the staircase."""
    leading = []
    for f in gb.elements:
        if f.is_zero or not f.is_monic():
            return CheckResult("reduced_shape", False, "non-monic element")
        le = f.leading_exponent()
        leading.append(le)
        for e in f.tail().terms:
            if e not in gb.staircase:
                return CheckResult(
                    "reduced_shape",
                    False,
                    f"tail exponent {e} of the element at {le} is outside the staircase",
                )
    if len(set(leading)) != len(leading):
        return CheckResult("reduced_shape", False, "duplicate leading exponents")
    corners = gb.staircase.corners()
    if set(leading) != corners:
        missing = sorted(corners - set(leading), key=lex_key)
        extra = sorted(set(leading) - corners, key=lex_key)
        return CheckResult(
            "reduced_shape",
            False,
            f"leading exponents and corners differ (missing {missing}, extra {extra})",
        )
    return CheckResult("reduced_shape", True)


def _find(root: dict, k: int) -> int:
    """The representative of k's component, halving the path to it."""
    while root[k] != k:
        root[k] = k = root[root[k]]
    return k


def _connected_pairs(leading) -> list[tuple[int, int]]:
    """The index pairs i < j, in order, that the connectivity criterion
    keeps for the distinct leading exponents `leading` (see the module
    docstring).  The components of V_m are set up when the first pair
    with lcm m comes up, and each kept pair with lcm m joins two of them."""
    if len(leading) < 2:
        return []
    # an lcm's coordinates are those of the L_k, all below 2^(width - 1)
    shifts, guard = packing(len(leading[0]), max(map(max, leading)).bit_length() + 1)
    packed = [sum(map(lshift, e, shifts)) for e in leading]
    indices = range(len(leading))
    lcm = [[0] * len(leading) for _ in indices]
    for i, j in combinations(indices, 2):
        lcm[i][j] = lcm[j][i] = sum(map(lshift, map(max, leading[i], leading[j]), shifts))
    components: dict[int, dict] = {}  # m -> parent of each k in V_m
    kept = []
    for i, j in combinations(indices, 2):
        m = lcm[i][j]
        root = components.get(m)
        if root is None:
            guarded = m | guard
            v = [k for k in indices if (guarded - packed[k]) & guard == guard]
            root = components[m] = {k: k for k in v}
            for a, k in enumerate(v):
                for l in v[a + 1 :]:
                    if lcm[k][l] != m:
                        root[_find(root, k)] = _find(root, l)
        ri, rj = _find(root, i), _find(root, j)
        if ri != rj:
            root[ri] = rj
            kept.append((i, j))
    return kept


def check_buchberger(gb: GroebnerBasis) -> CheckResult:
    """Every S-polynomial of the pairs that the connectivity criterion
    keeps (`_connected_pairs`) reduces to zero against the basis.  A
    reduction to zero is a standard representation, and the kept pairs
    generate the syzygies of the leading terms (see the module
    docstring), so this holds exactly when the basis is a Groebner basis,
    with the same verdict as reducing every pair; a failure names the
    first failing kept pair in (i, j) order.  One `Reducer` serves every
    pair."""
    elems = gb.elements
    leading = []
    for f in elems:
        if f.is_zero or not f.is_monic():
            return CheckResult("buchberger", False, "non-monic element cannot reduce")
        leading.append(f.leading_exponent())
    if len(set(leading)) != len(elems):
        return CheckResult("buchberger", False, "duplicate leading exponents")
    reducer = Reducer(elems)
    for i, j in _connected_pairs(leading):
        s = s_polynomial(elems[i], elems[j])
        if not normal_form(s, reducer).is_zero:
            witness = (
                f"S-polynomial of the pair {leading[i]}, "
                f"{leading[j]} does not reduce to zero"
            )
            return CheckResult("buchberger", False, witness)
    return CheckResult("buchberger", True)


def check_dimension(gb: GroebnerBasis, ps: PointSet) -> CheckResult:
    """Staircase size equals the number of points.  This is the check
    that exposes a basis generating a strictly larger ideal."""
    dim = gb.quotient_dimension()
    if dim != len(ps.points):
        return CheckResult(
            "dimension", False, f"quotient dimension {dim} != {len(ps.points)} points"
        )
    return CheckResult("dimension", True)


def verify_basis(gb: GroebnerBasis, ps: PointSet) -> VerificationReport:
    """Run the four checks, shape and dimension first; vanishing and the
    S-pairs are skipped when the shape fails (see the module docstring)."""
    _check_compatible(gb, ps)
    shape = check_reduced_shape(gb)
    dimension = check_dimension(gb, ps)
    if shape.passed:
        vanishing, buchberger = check_vanishing(gb, ps), check_buchberger(gb)
    else:
        vanishing, buchberger = (
            CheckResult(name, None, "the basis does not have the reduced shape")
            for name in ("vanishing", "buchberger")
        )
    return VerificationReport((vanishing, shape, buchberger, dimension))
