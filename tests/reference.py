"""Straightforward versions of the exact kernels, kept as references.

The package's `normal_form`, `check_vanishing`, `check_buchberger`,
`build_phi` and `Polynomial.__mul__` are tuned for speed; these are the
plain forms they replaced.  Tests require the tuned versions to return
the same results: witnesses included for the first two, the same verdict
for the S-pair check, which reduces fewer pairs, the same lifted
polynomial and the same product.  `reference_chain_pairs` is the pair
selection the S-pair check made before the connectivity criterion; the
pairs that criterion keeps must be a subset of it.  The references apply `field.normalize`
after every native operation, as in ``normalize(a + b)``, where the
package holds raw sums and normalizes once per coefficient.
`reference_build_phi` and `reference_check_buchberger` call only the
references for division, product, S-polynomial, characteristic
polynomials and the split of the slices around a corner, so no
reference shares the code it checks.

`evaluate`, `variable`, `poly_add`, `poly_sub`, `exp_divides`,
`exp_lcm` and `is_canonical` are plain helpers the tests build on; the
package itself never evaluates a `Polynomial` at a point, nor adds or
subtracts two of them, and it tests divisibility and forms lcms on
packed exponents.
"""

from __future__ import annotations

import heapq

from fractions import Fraction
from itertools import combinations
from math import gcd

from pointideal import Polynomial, QQ
from pointideal.poly import lex_key
from pointideal.verify import CheckResult


def is_canonical(field, c) -> bool:
    """c is a canonical scalar: a Fraction in lowest terms with a
    positive denominator, or an int in range(p)."""
    if field == QQ:
        return (
            isinstance(c, Fraction)
            and c.denominator > 0
            and gcd(c.numerator, c.denominator) == 1
        )
    return isinstance(c, int) and 0 <= c < field.p


def exp_divides(d, e) -> bool:
    """True when X^d divides X^e, i.e. d <= e coordinatewise."""
    return len(d) == len(e) and all(x <= y for x, y in zip(d, e))


def exp_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def evaluate(f: Polynomial, point):
    """Exact value of f at a point given as a tuple of field scalars."""
    if len(point) != f.n:
        raise ValueError(f"point has {len(point)} coordinates, expected {f.n}")
    norm = f.field.normalize
    total = f.field.zero
    for e, c in f.terms.items():
        for a, k in zip(point, e):
            for _ in range(k):
                c = norm(c * a)
        total = norm(total + c)
    return total


def variable(field, n: int, index: int) -> Polynomial:
    """X_index in n variables, with index in 1..n."""
    return Polynomial(field, n, {tuple(int(i == index - 1) for i in range(n)): field.one})


def _combine(f: Polynomial, g: Polynomial, sign: int) -> Polynomial:
    f._check_compatible(g)
    norm = f.field.normalize
    out = dict(f.terms)
    for e, c in g.terms.items():
        out[e] = norm(out.get(e, f.field.zero) + sign * c)
    return Polynomial(f.field, f.n, out)


def poly_add(f: Polynomial, g: Polynomial) -> Polynomial:
    """f + g, one normalized sum per shared exponent."""
    return _combine(f, g, 1)


def poly_sub(f: Polynomial, g: Polynomial) -> Polynomial:
    """f - g, one normalized difference per shared exponent."""
    return _combine(f, g, -1)


def reference_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    """The product with one normalized product and one normalized sum
    per pair of terms."""
    f._check_compatible(g)
    fld = f.field
    norm = fld.normalize
    out = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = norm(out.get(e, fld.zero) + norm(ca * cb))
    return Polynomial(fld, f.n, out)


def reference_s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """X^(lcm - lt f) * f - X^(lcm - lt g) * g for monic f and g, as two
    `reference_mul` products and a `poly_sub`."""
    lf, lg = f.leading_exponent(), g.leading_exponent()
    lcm = exp_lcm(lf, lg)

    def shifted(h, lead):
        mono = Polynomial(h.field, h.n, {tuple(x - y for x, y in zip(lcm, lead)): h.field.one})
        return reference_mul(mono, h)

    return poly_sub(shifted(f, lf), shifted(g, lg))


def _heap_key(e):
    return tuple(-x for x in reversed(e))


def reference_normal_form(f: Polynomial, basis) -> Polynomial:
    """Division of f by a monic basis, lex-greatest term first, each term
    reduced by the element with the lex-smallest dividing leading
    exponent; a `done` set guards against revisiting an exponent."""
    reducers = sorted(
        ((b.leading_exponent(), b) for b in basis), key=lambda kv: lex_key(kv[0])
    )
    fld = f.field
    zero, norm = fld.zero, fld.normalize
    work = dict(f.terms)
    heap = [(_heap_key(e), e) for e in work]
    heapq.heapify(heap)
    done = set()
    remainder = {}
    while heap:
        _, e = heapq.heappop(heap)
        if e in done or e not in work:
            continue
        done.add(e)
        c = work.pop(e)
        for le, b in reducers:
            if exp_divides(le, e):
                shift = tuple(x - y for x, y in zip(e, le))
                tail_items = iter(b.terms.items())
                next(tail_items)
                for te, tc in tail_items:
                    ne = tuple(x + y for x, y in zip(te, shift))
                    nv = norm(work.get(ne, zero) - norm(c * tc))
                    if nv == zero:
                        work.pop(ne, None)
                    else:
                        if ne not in work:
                            heapq.heappush(heap, (_heap_key(ne), ne))
                        work[ne] = nv
                break
        else:
            remainder[e] = c
    return Polynomial(fld, f.n, remainder)


def _point_text(fld, pt) -> str:
    """The coordinates in the field's notation, with Python's tuple
    punctuation: (1/2, 0), and (3,) for one coordinate."""
    return str(tuple(map(fld.format, pt))).replace("'", "")


def reference_check_vanishing(gb, ps) -> CheckResult:
    """Evaluate every element at every point with `evaluate`; report the
    first nonzero value."""
    for f in gb.elements:
        for pt in ps.points:
            value = evaluate(f, pt)
            if value != ps.field.zero:
                witness = (
                    f"element with leading exponent {f.leading_exponent()} "
                    f"evaluates to {ps.field.format(value)} at {_point_text(ps.field, pt)}"
                )
                return CheckResult("vanishing", False, witness)
    return CheckResult("vanishing", True)


def reference_check_buchberger(gb) -> CheckResult:
    """All S-polynomials reduce to zero against the basis.  Runs every
    pair; this is the oracle of last resort, so no pair is skipped."""
    elems = gb.elements
    leading = set()
    for f in elems:
        if f.is_zero or not f.is_monic():
            return CheckResult("buchberger", False, "non-monic element cannot reduce")
        leading.add(f.leading_exponent())
    if len(leading) != len(elems):
        return CheckResult("buchberger", False, "duplicate leading exponents")
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            s = reference_s_polynomial(elems[i], elems[j])
            if not reference_normal_form(s, elems).is_zero:
                witness = (
                    f"S-polynomial of the pair {elems[i].leading_exponent()}, "
                    f"{elems[j].leading_exponent()} does not reduce to zero"
                )
                return CheckResult("buchberger", False, witness)
    return CheckResult("buchberger", True)


def reference_chain_pairs(leading) -> list[tuple[int, int]]:
    """The index pairs i < j, in order, whose S-polynomials the chain
    criterion keeps, for distinct leading exponents `leading`.

    A pair is skipped when a third exponent L_k divides m = lcm(L_i, L_j)
    with lcm(L_i, L_k) != m and lcm(L_j, L_k) != m.  Its syzygy is then
    (m / lcm(L_i, L_k)) S_ik - (m / lcm(L_j, L_k)) S_jk, and both lcms
    properly divide m; by induction on m under divisibility, the kept
    pairs generate the syzygies of the leading terms.  No k in {i, j}
    can skip the pair: lcm(L_j, L_i) = lcm(L_i, L_j) = m."""
    lcm = {
        (i, k): exp_lcm(a, b)
        for i, a in enumerate(leading)
        for k, b in enumerate(leading)
    }
    kept = []
    for i, j in combinations(range(len(leading)), 2):
        m = lcm[i, j]
        if not any(
            lcm[i, k] != m and lcm[j, k] != m and exp_divides(b, m)
            for k, b in enumerate(leading)
        ):
            kept.append((i, j))
    return kept


def reference_char_poly(field, values, node) -> Polynomial:
    """prod (X - b) / (node - b) over the values b != node, one
    `reference_mul` per factor."""
    norm = field.normalize
    chi = Polynomial(field, 1, {(0,): field.one})
    for b in values:
        if b != node:
            inv = field.inv(norm(node - b))
            factor = Polynomial(field, 1, {(1,): inv, (0,): norm(-norm(b * inv))})
            chi = reference_mul(chi, factor)
    return chi


def scaled_back(field, entry) -> list:
    """The dense coefficients, lowest degree first, of the
    characteristic polynomial s * q that a `char_poly_family` entry
    (q, s) stands for: s multiplied back into each q_k, normalized."""
    q, s = entry
    return [field.normalize(s * c) for c in q]


def canonical_entry(field, entry) -> bool:
    """A `char_poly_family` entry (q, s) has its output form: s is a
    canonical scalar, and q is canonical over F_p and ints over the
    rationals."""
    q, s = entry
    if field == QQ:
        return is_canonical(field, s) and all(type(c) is int for c in q)
    return all(is_canonical(field, c) for c in (s, *q))


def reference_build_phi(field, beta, slice_gbs, stairs) -> Polynomial:
    """The lift with each slice representative formed in full with
    `reference_mul`, as the first slice element (lex-ascending) whose
    leading exponent divides the projected corner times the monomial
    that lifts that leading exponent to the corner, one
    `reference_char_poly` per node, and the inside-slice product formed
    factor by factor with `reference_mul`.  A slice is inside when no
    leading exponent of its basis divides the projected corner, read
    from the elements rather than from the slice staircase."""
    beta = tuple(beta)
    n = len(beta)
    if n < 2:
        raise ValueError("the lifted construction needs dimension >= 2")
    beta_hat = beta[1:]
    if beta not in stairs.corners():
        raise ValueError(f"{beta} is not a corner of the staircase")
    inside, outside, divisor_of = [], [], {}
    for a1, gb in slice_gbs:
        divisors = [b for b in gb.elements if exp_divides(b.leading_exponent(), beta_hat)]
        if divisors:
            outside.append(a1)
            divisor_of[a1] = divisors[0]
        else:
            inside.append(a1)
    chi = {a1: reference_char_poly(field, outside, a1) for a1 in outside}
    norm = field.normalize
    theta_terms = {(0,) + beta_hat: field.one}
    for a1 in outside:
        g = divisor_of[a1]
        shift = tuple(x - y for x, y in zip(beta_hat, g.leading_exponent()))
        rep_tail = reference_mul(Polynomial(field, n - 1, {shift: field.one}), g).tail()
        for (k,), c in chi[a1].terms.items():
            for gamma_hat, coeff in rep_tail.terms.items():
                e = (k,) + gamma_hat
                v = norm(theta_terms.get(e, field.zero) + norm(c * coeff))
                if v == field.zero:
                    theta_terms.pop(e, None)
                else:
                    theta_terms[e] = v
    phi = Polynomial(field, n, theta_terms)
    x1 = variable(field, n, 1)
    for a1 in inside:
        phi = reference_mul(phi, poly_sub(x1, Polynomial(field, n, {(0,) * n: a1})))
    return phi
