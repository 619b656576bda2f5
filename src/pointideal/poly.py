"""Sparse multivariate polynomials under the lexicographic order.

Variables are positional: X1, ..., Xn with X1 < X2 < ... < Xn.  Two
exponent vectors are compared by scanning coordinates from n down to 1;
the first coordinate where they differ decides, so Xn is the most
significant variable.

Coefficients are exact field scalars (see :mod:`pointideal.field`).
Terms are stored with no zero coefficients and no duplicate exponents,
ordered descending, so the leading term is always the first one.
"""

from __future__ import annotations

import heapq
from operator import add as add_, le as le_, neg, sub as sub_
from typing import Mapping

Exponent = tuple[int, ...]


def lex_key(e: Exponent) -> Exponent:
    """Sort key realizing the lex order (ascending)."""
    return e[::-1]


def exp_sub(a: Exponent, b: Exponent) -> Exponent:
    """a - b; requires b to divide a."""
    if not exp_divides(b, a):
        raise ValueError(f"{b} does not divide {a}")
    return tuple(x - y for x, y in zip(a, b))


def exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def exp_divides(d: Exponent, e: Exponent) -> bool:
    """True when X^d divides X^e, i.e. d <= e coordinatewise."""
    return len(d) == len(e) and all(x <= y for x, y in zip(d, e))


def monomial_row(field, points, exponent: Exponent, rows: dict) -> list:
    """Values of X^exponent at the points, in point order.

    A row is its parent row times a coordinate column: the parent is the
    exponent with its first nonzero coordinate lowered by one, and the
    column is that coordinate of each point; the origin's row is all
    ones.  `rows` maps exponents to rows the caller has had computed for
    these points.  Every row built here is stored in it, and rows in it
    are never changed, so a caller that mutates a row must copy it first.
    The parent chain is walked with a loop, not recursion, since it is
    as long as the exponent's degree.
    """
    chain = []
    e = exponent
    while e not in rows and any(e):
        i = next(i for i, k in enumerate(e) if k)
        chain.append((e, i))
        e = e[:i] + (e[i] - 1,) + e[i + 1 :]
    row = rows.get(e)
    if row is None:  # e is the origin
        row = rows[e] = [field.one] * len(points)
    for e, i in reversed(chain):
        row = rows[e] = [field.mul(v, pt[i]) for v, pt in zip(row, points)]
    return row


def _descending(field, terms: Mapping[Exponent, object]) -> dict:
    """The nonzero terms, lex-descending."""
    zero = field.zero
    return dict(
        sorted(
            ((e, c) for e, c in terms.items() if c != zero),
            key=lambda kv: lex_key(kv[0]),
            reverse=True,
        )
    )


def _fill(p: "Polynomial", field, n: int, terms: dict) -> None:
    object.__setattr__(p, "field", field)
    object.__setattr__(p, "n", n)
    object.__setattr__(p, "terms", terms)


class Polynomial:
    """Immutable sparse polynomial over an exact field."""

    __slots__ = ("field", "n", "terms")

    def __init__(self, field, n: int, terms: Mapping[Exponent, object] | None = None):
        if n < 1:
            raise ValueError("ambient dimension must be >= 1")
        checked: dict[Exponent, object] = {}
        for exp, coeff in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != n or any(x < 0 or not isinstance(x, int) for x in exp):
                raise ValueError(f"bad exponent {exp} for dimension {n}")
            checked[exp] = coeff
        _fill(self, field, n, _descending(field, checked))

    @classmethod
    def _trusted(cls, field, n: int, terms: dict, ordered: bool = False) -> "Polynomial":
        """A polynomial from terms the caller vouches for, without the
        per-exponent check of the public constructor.

        The caller guarantees that every exponent is a tuple of n
        non-negative ints.  With `ordered` it also guarantees that `terms`
        is lex-descending with no zero coefficient, and hands the dict
        over (it is kept, not copied); otherwise zero coefficients are
        dropped and the terms sorted here."""
        p = object.__new__(cls)
        _fill(p, field, n, terms if ordered else _descending(field, terms))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def constant(cls, field, n: int, value) -> "Polynomial":
        return cls(field, n, {(0,) * n: value})

    @classmethod
    def one(cls, field, n: int) -> "Polynomial":
        return cls.constant(field, n, field.one)

    @classmethod
    def monomial(cls, field, n: int, exp: Exponent) -> "Polynomial":
        return cls(field, n, {tuple(exp): field.one})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def leading_exponent(self) -> Exponent:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        return next(iter(self.terms))

    def leading_coefficient(self):
        return self.terms[self.leading_exponent()]

    def tail(self) -> "Polynomial":
        """The polynomial minus its leading term."""
        if not self.terms:
            return self
        it = iter(self.terms.items())
        next(it)
        return Polynomial._trusted(self.field, self.n, dict(it), ordered=True)

    def is_monic(self) -> bool:
        return bool(self.terms) and self.leading_coefficient() == self.field.one

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        if self.field != other.field:
            raise ValueError("coefficient field mismatch")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        f = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = f.add(out.get(e, f.zero), c)
        return Polynomial(f, self.n, out)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        f = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = f.sub(out.get(e, f.zero), c)
        return Polynomial(f, self.n, out)

    def __neg__(self):
        f = self.field
        terms = {e: f.neg(c) for e, c in self.terms.items()}
        return Polynomial._trusted(f, self.n, terms, ordered=True)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        f = self.field
        out: dict[Exponent, object] = {}
        zero = f.zero
        mul, add = f.mul, f.add
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = add(out.get(e, zero), mul(ca, cb))
        return Polynomial._trusted(f, self.n, out)

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.n == other.n
            and self.terms == other.terms
        )

    __hash__ = None

    def _render_term(self, exp, coeff, lead: bool) -> str:
        f = self.field
        mono = "*".join(
            f"X{i + 1}" if k == 1 else f"X{i + 1}^{k}" for i, k in enumerate(exp) if k
        )
        neg = f.is_negative(coeff)
        mag = f.neg(coeff) if neg else coeff
        body = f.format(mag) if not mono else (mono if mag == f.one else f"{f.format(mag)}*{mono}")
        if lead:
            return f"-{body}" if neg else body
        return f" - {body}" if neg else f" + {body}"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for i, (e, c) in enumerate(self.terms.items()):
            parts.append(self._render_term(e, c, lead=(i == 0)))
        return "".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"


def _heap_key(e: Exponent):
    # min-heap on this key pops the lex-greatest exponent first
    return tuple(map(neg, reversed(e)))


def _check_reducers(basis):
    seen = set()
    for b in basis:
        if b.is_zero or not b.is_monic():
            raise ValueError("normal form requires monic basis elements")
        le = b.leading_exponent()
        if le in seen:
            raise ValueError(f"duplicate leading exponent {le} in basis")
        seen.add(le)


def normal_form(f: Polynomial, basis, cells=frozenset()) -> Polynomial:
    """Remainder of multivariate division of f by a monic basis.

    Deterministic: always cancels the lex-greatest reducible term, using
    the basis element with the lex-smallest leading exponent among those
    whose leading exponent divides the term.  The result has no term
    divisible by any basis leading exponent, and f minus the result lies
    in the ideal generated by the basis.

    Every term a reduction step adds is lex-smaller than the term it
    cancels (the lex order is compatible with multiplication), so the
    exponents taken off the heap never increase and a term, once taken
    off, never returns.  A heap entry whose exponent is no longer in the
    working set is therefore stale, and is skipped.  The remainder is
    collected in the order the heap yields it, already lex-descending.

    `cells` is a hint: exponents known to be divisible by no leading
    exponent of the basis, which go to the remainder without the scan
    over the reducers.  A lower set that contains no leading exponent is
    such a set (if a leading exponent divided a cell, it would itself be
    a cell), so the engine passes the staircase whose corners lead its
    basis, and the remainder is the same term for term.  The certificate
    never passes it: the staircase is part of what it checks.
    """
    basis = list(basis)
    _check_reducers(basis)
    for b in basis:
        f._check_compatible(b)
    reducers = sorted(
        ((b.leading_exponent(), list(b.terms.items())[1:]) for b in basis),
        key=lambda kv: lex_key(kv[0]),
    )
    fld = f.field
    zero, sub, mul = fld.zero, fld.sub, fld.mul
    work = dict(f.terms)
    heap = [(_heap_key(e), e) for e in work]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    remainder: dict[Exponent, object] = {}
    while heap:
        e = heappop(heap)[1]
        if e not in work:
            continue
        c = work.pop(e)
        if e in cells:
            remainder[e] = c
            continue
        for le, tail in reducers:
            if all(map(le_, le, e)):
                # the leading term cancels c exactly (the reducer is monic)
                shift = tuple(map(sub_, e, le))
                for te, tc in tail:
                    ne = tuple(map(add_, te, shift))
                    nv = sub(work.get(ne, zero), mul(c, tc))
                    if nv == zero:
                        work.pop(ne, None)
                    else:
                        if ne not in work:
                            heappush(heap, (_heap_key(ne), ne))
                        work[ne] = nv
                break
        else:
            remainder[e] = c
    return Polynomial._trusted(fld, f.n, remainder, ordered=True)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S(f, g) = X^(lcm - lt f) * f - X^(lcm - lt g) * g for monic f, g.
    Multiplying by a monomial only shifts exponents, so both shifted
    polynomials are accumulated in one dict; the leading terms cancel."""
    if f.is_zero or g.is_zero:
        raise ValueError("S-polynomial of zero is undefined")
    if not (f.is_monic() and g.is_monic()):
        raise ValueError("S-polynomial requires monic inputs")
    f._check_compatible(g)
    lf, lg = f.leading_exponent(), g.leading_exponent()
    lcm = exp_lcm(lf, lg)
    shift_f, shift_g = exp_sub(lcm, lf), exp_sub(lcm, lg)
    fld = f.field
    zero, sub = fld.zero, fld.sub
    terms = {tuple(map(add_, e, shift_f)): c for e, c in f.terms.items()}
    for e, c in g.terms.items():
        e = tuple(map(add_, e, shift_g))
        terms[e] = sub(terms.get(e, zero), c)
    return Polynomial._trusted(fld, f.n, terms)
