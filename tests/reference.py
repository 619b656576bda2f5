"""Straightforward versions of the exact kernels, kept as references.

The package's `normal_form`, `check_vanishing` and `check_buchberger`
are tuned for speed; these are the plain forms they replaced.  Tests
require the tuned versions to return the same results: witnesses
included for the first two, the same verdict for the S-pair check,
which reduces fewer pairs.
"""

from __future__ import annotations

import heapq

from pointideal import Polynomial
from pointideal.poly import exp_divides, lex_key, normal_form, s_polynomial
from pointideal.verify import CheckResult


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


def reference_check_vanishing(gb, ps) -> CheckResult:
    """Evaluate every element at every point with `Polynomial.evaluate`;
    report the first nonzero value."""
    for f in gb.elements:
        for pt in ps.points:
            value = f.evaluate(pt)
            if value != ps.field.zero:
                witness = (
                    f"element with leading exponent {f.leading_exponent()} "
                    f"evaluates to {ps.field.format(value)} at {pt}"
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
            if not normal_form(s, elems).is_zero:
                witness = (
                    f"S-polynomial of the pair {elems[i].leading_exponent()}, "
                    f"{elems[j].leading_exponent()} does not reduce to zero"
                )
                return CheckResult("buchberger", False, witness)
    return CheckResult("buchberger", True)
