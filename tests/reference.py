"""Straightforward versions of the exact kernels, kept as references.

The package's `normal_form`, `check_vanishing`, `check_buchberger`,
`build_phi` and `Polynomial.__mul__` are tuned for speed; these are the
plain forms they replaced.  Tests require the tuned versions to return
the same results: witnesses included for the first two, the same verdict
for the S-pair check, which reduces fewer pairs, the same lifted
polynomial and the same product.  The references reduce after every
field operation (`field.add`, `field.mul`), where the package holds raw
sums and normalizes once per coefficient.  `reference_build_phi` and
`reference_check_buchberger` call only the references for division,
product and characteristic polynomials, so no reference shares the
delayed-reduction code it checks.

`evaluate` and `variable` are plain helpers the tests build on; the
package itself never evaluates a `Polynomial` at a point.
"""

from __future__ import annotations

import heapq

from pointideal import Polynomial
from pointideal.core import split_first_coordinates
from pointideal.poly import exp_divides, lex_key, s_polynomial
from pointideal.verify import CheckResult


def evaluate(f: Polynomial, point):
    """Exact value of f at a point given as a tuple of field scalars."""
    if len(point) != f.n:
        raise ValueError(f"point has {len(point)} coordinates, expected {f.n}")
    fld = f.field
    total = fld.zero
    for e, c in f.terms.items():
        for a, k in zip(point, e):
            for _ in range(k):
                c = fld.mul(c, a)
        total = fld.add(total, c)
    return total


def variable(field, n: int, index: int) -> Polynomial:
    """X_index in n variables, with index in 1..n."""
    return Polynomial.monomial(field, n, tuple(int(i == index - 1) for i in range(n)))


def reference_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    """The product with one `field.mul` and one `field.add` per pair of
    terms."""
    f._check_compatible(g)
    fld = f.field
    out = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = fld.add(out.get(e, fld.zero), fld.mul(ca, cb))
    return Polynomial(fld, f.n, out)


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
    zero, sub, mul = fld.zero, fld.sub, fld.mul
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
                    nv = sub(work.get(ne, zero), mul(c, tc))
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
            s = s_polynomial(elems[i], elems[j])
            if not reference_normal_form(s, elems).is_zero:
                witness = (
                    f"S-polynomial of the pair {elems[i].leading_exponent()}, "
                    f"{elems[j].leading_exponent()} does not reduce to zero"
                )
                return CheckResult("buchberger", False, witness)
    return CheckResult("buchberger", True)


def reference_char_poly(field, values, node) -> Polynomial:
    """prod (X - b) / (node - b) over the values b != node, one
    `reference_mul` per factor."""
    chi = Polynomial.one(field, 1)
    for b in values:
        if b != node:
            inv = field.inv(field.sub(node, b))
            factor = Polynomial(field, 1, {(1,): inv, (0,): field.neg(field.mul(b, inv))})
            chi = reference_mul(chi, factor)
    return chi


def reference_build_phi(field, beta, slice_gbs, stairs) -> Polynomial:
    """The lift with each slice representative formed in full as the
    monomial minus its reference normal form, one `reference_char_poly`
    per node, and the inside-slice product formed factor by factor with
    `reference_mul`."""
    beta = tuple(beta)
    n = len(beta)
    if n < 2:
        raise ValueError("the lifted construction needs dimension >= 2")
    beta_hat = beta[1:]
    if beta not in stairs.corners():
        raise ValueError(f"{beta} is not a corner of the staircase")
    inside, outside = split_first_coordinates(beta, slice_gbs)
    gb_of = dict(slice_gbs)
    chi = {a1: reference_char_poly(field, outside, a1) for a1 in outside}
    theta_terms = {(0,) + beta_hat: field.one}
    for a1 in outside:
        mono = Polynomial.monomial(field, n - 1, beta_hat)
        rep_tail = (mono - reference_normal_form(mono, gb_of[a1].elements)).tail()
        for (k,), c in chi[a1].terms.items():
            for gamma_hat, coeff in rep_tail.terms.items():
                e = (k,) + gamma_hat
                v = field.add(theta_terms.get(e, field.zero), field.mul(c, coeff))
                if v == field.zero:
                    theta_terms.pop(e, None)
                else:
                    theta_terms[e] = v
    phi = Polynomial(field, n, theta_terms)
    x1 = variable(field, n, 1)
    for a1 in inside:
        phi = reference_mul(phi, x1 - Polynomial.constant(field, n, a1))
    return phi
