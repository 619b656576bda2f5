"""Sparse multivariate polynomials under the lexicographic order.

Variables are positional: X1, ..., Xn with X1 < X2 < ... < Xn.  Two
exponent vectors are compared by scanning coordinates from n down to 1;
the first coordinate where they differ decides, so Xn is the most
significant variable.

Coefficients are exact field scalars (see :mod:`pointideal.field`),
always stored canonical: the public constructor coerces each one, and
the internal constructions compute with native operators and
`field.normalize` -- the product holds raw sums while it works and
normalizes each coefficient once, before it is stored, and the division
does the same in the field's raw form (`field._raw`), which serves the
division only.
Terms are stored with no zero coefficients and no duplicate exponents,
ordered descending, so the leading term is always the first one.  The
arithmetic is what the engines need: product, S-polynomial and
division.

Division by a monic basis (`normal_form`) is the one reduction loop of
the package, shared by the staircase engine and the certificate.  It
runs in a `Reducer`, which holds the basis on packed exponents, one
integer per exponent whose integer order is the lex order, and is set
up once per basis; only the remainder goes back to tuples.  A
coordinate takes bitlen(B) + 1 bits, B one more than the largest
coordinate of the basis and of the dividend; the rare division whose
terms outgrow that widens once, in place, to the n * bitlen(B) + 1 bits
under which no term can carry.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop
from operator import add as add_, itemgetter, lshift, sub as sub_
from typing import Mapping

Exponent = tuple[int, ...]


def lex_key(e: Exponent) -> Exponent:
    """Sort key realizing the lex order (ascending)."""
    return e[::-1]


def packing(n: int, width: int) -> tuple[range, int]:
    """The layout of packed exponents (see `Reducer`): the shift of each
    of the n coordinates, X1 lowest, in fields of `width` bits, and the
    guard bits, the top bit of every field."""
    shifts = range(0, width * n, width)
    return shifts, sum(1 << (s + width - 1) for s in shifts)


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
    norm = field.normalize
    for e, i in reversed(chain):
        row = rows[e] = [norm(v * pt[i]) for v, pt in zip(row, points)]
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


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Polynomial:
    """Immutable sparse polynomial over an exact field.  Polynomials
    compare equal by field, dimension and terms, and are not hashable."""

    field: object
    n: int
    terms: dict[Exponent, object]

    def __init__(self, field, n: int, terms: Mapping[Exponent, object] | None = None):
        if n < 1:
            raise ValueError("ambient dimension must be >= 1")
        checked: dict[Exponent, object] = {}
        for exp, coeff in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != n or any(x < 0 or not isinstance(x, int) for x in exp):
                raise ValueError(f"bad exponent {exp} for dimension {n}")
            checked[exp] = field.coerce(coeff)
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

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def leading_exponent(self) -> Exponent:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        return next(iter(self.terms))

    def tail(self) -> "Polynomial":
        """The polynomial minus its leading term."""
        if not self.terms:
            return self
        it = iter(self.terms.items())
        next(it)
        return Polynomial._trusted(self.field, self.n, dict(it), ordered=True)

    def is_monic(self) -> bool:
        return bool(self.terms) and next(iter(self.terms.values())) == self.field.one

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        if self.field != other.field:
            raise ValueError("coefficient field mismatch")

    def __mul__(self, other):
        """The product; each output coefficient is summed from raw
        products and normalized once (see `field`)."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        f = self.field
        out: dict[Exponent, object] = {}
        get, zero = out.get, f.zero
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(map(add_, ea, eb))
                out[e] = get(e, zero) + ca * cb
        norm = f.normalize
        return Polynomial._trusted(f, self.n, {e: norm(c) for e, c in out.items()})

    # -- comparison / display ----------------------------------------------

    # The terms are a mutable dict, so a polynomial is not hashable; the
    # dataclass keeps an explicit __hash__ as it is.
    __hash__ = None

    def _render_term(self, exp, coeff, lead: bool) -> str:
        f = self.field
        mono = "*".join(
            f"X{i + 1}" if k == 1 else f"X{i + 1}^{k}" for i, k in enumerate(exp) if k
        )
        neg = coeff < 0  # never so for a canonical F_p residue
        mag = -coeff if neg else coeff
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


def _packed(pack, raw, b: Polynomial) -> tuple[int, list]:
    """A monic element as its packed leading exponent and its packed tail
    in the term form of the field's raw form `raw`."""
    (lead, _), *tail = b.terms.items()
    return pack(lead), raw.tail([(pack(t), c) for t, c in tail])


class Reducer:
    """Monic basis elements set up for division: the one reduction loop
    of the package (`reduce`, called through `normal_form`).

    Build it once per basis and grow it with `add`; the checks run per
    element as it enters (monic, a leading exponent no other element
    has, the dimension and field of the others).  `elements` holds the
    polynomials lex-ascending by leading exponent.

    **Packed exponents.**  An element is kept as its packed leading
    exponent and its packed tail, the elements sorted by packed leading
    exponent.  With field width k, the exponent e packs to the integer
    sum of e_i * 2^(k*(i-1)), so X_n sits in the high bits.  While every
    coordinate is below 2^k, no field spills into the next: integer
    order is the lex order, so the heap holds plain ints, and
    (e >> s) & (2^k - 1) unpacks each coordinate exactly.  While every
    coordinate is also below 2^(k-1), the top bit of each field (the
    guard bit) is clear and:

    - X^e * X^d packs to e + d, one integer addition, with no carry;
    - with G the guard bits, X^l divides X^e exactly when
      ((e | G) - l) & G == G: a field where e_i >= l_i keeps its guard
      bit, one where e_i < l_i clears it, and no field borrows from the
      next, since e_i + 2^(k-1) - l_i >= 0.

    Only the remainder is unpacked back to tuples.

    **Two widths.**  Let B exceed every coordinate of f and of every
    element (leading exponent and tail).  A reducer packs at the tight
    width k = bitlen(B) + 1, so all of those coordinates are below
    2^(k-1).  Every key that `reduce` puts in its working set or on its
    heap then has every coordinate below 2^k: a step adds a tail term t
    to e - l, where e is a term read with its guard bits clear and the
    lead l divides e, so each coordinate of t + e - l is below
    2^(k-1) + 2^(k-1).  No field spills, and only the divisibility test,
    with the shift that follows it, needs the guard bits of e clear.  So
    `reduce` tests e & G once for each nonzero term it reads, before the
    divisor scan.  When a term crosses its guard bits (a carry, which is
    rare), the reducer widens in place to the proved width
    n * bitlen(B) + 1: it repacks its elements, e, and every key in the
    working set and on the heap, each through the old (shift, mask)
    pairs.  Both widths pack the lex order, so the map keeps the order,
    the heap stays a heap, and the division goes on with the same terms.
    By the proof below no term crosses a guard bit at the proved width,
    so the check fires at most once per call.  Widths depend on B alone
    and only grow over a reducer's life: `add` and `reduce` take B from
    the elements and f, and repack only when the width they need exceeds
    the one in use.  So the width needs no setting.

    **The proved width never carries.**  Let w_B(e) = sum of
    e_i * B^(i-1).  If t <lex l and every coordinate of t
    is below B, then w_B(t) < w_B(l): at the highest coordinate j where
    they differ, t_j < l_j, and the lower coordinates of t add at most
    B^(j-1) - 1 to w_B(t).  A reduction step replaces a term e, divisible
    by the leading exponent l, with the terms t + e - l for t in the
    tail, and w_B is additive, so w_B(t + e - l) < w_B(e): w_B strictly
    falls along every chain of steps.  Every term of f has w_B at most
    w_B(lt f), by the same inequality, so every term that division ever
    holds has w_B at most w_B(lt f), and each of its coordinates is at
    most its w_B.  Hence with k = bitlen(max(w_B(lt f), B)) + 1 every
    coordinate of every term, leading exponent and tail is below
    2^(k-1).  Since w_B(lt f) <= B^n - 1 < 2^(n * bitlen(B)), the width
    n * bitlen(B) + 1 is at least that k.  The terms held before a
    widening are those of the same division, since the steps at the
    tight width are exact, so the bound covers them too.

    **Delayed reduction.**  The working set holds raw values in the
    field's raw form (see `field`), and each element's tail is kept in
    its term form: ``(t, c)`` over F_p, ``(t, n, d)`` over the rationals.
    A step that cancels the term c * X^e is one `fold` call, which adds
    the raw product -c * tc to the working value of each shifted tail
    term, with no normalization and no gcd.  Every such c has been read
    and every tc is an element's stored coefficient, so over F_p a
    working value is the term's canonical coefficient in f, or 0, plus
    one product of two canonical scalars per step that reached it, and
    stays a few field widths wide.  A term leaves the working set only
    when the heap yields it, and is read right then: `normalize` over
    F_p, one gcd over the rationals.  When the value read is zero (the
    raw value is a multiple of p, or a pair with numerator 0) the term
    is dropped; otherwise that value is the c the next step cancels, or
    the coefficient stored in the remainder.

    **The same steps and the same remainder.**  A loop that normalizes
    after every operation, on ints modulo p or on `Fraction` values,
    holds at each exponent the sum of the same products in the same
    order.  Over F_p the raw int is congruent to that residue; over the
    rationals the pair (n, d) stands for exactly that `Fraction`, since
    every pair operation is the exact integer formula of the rational
    one, and one gcd reduces it to the `Fraction`'s own numerator and
    denominator.  So each read gives the value that loop holds: the zero
    tests agree, the heap yields the same exponents, the same element
    divides each term with the same c, and every coefficient leaving
    `reduce` is that loop's nonzero canonical scalar.
    `Polynomial.__eq__` compares stored values as they are, so a missed
    normalization fails the term-for-term tests against the reference
    division.
    """

    __slots__ = ("n", "elements", "_raw", "_bound", "_width", "_shifts", "_guard", "_reducers")

    def __init__(self, basis=()):
        self.n = None
        self._raw = None  # the field's raw form, set by the first element
        self.elements: list[Polynomial] = []
        self._bound = 1  # exceeds every coordinate of every element
        self._width = 0
        self._shifts, self._guard = range(0), 0
        self._reducers: list[tuple[int, list]] = []  # (packed lead, tail), ascending
        for b in basis:
            self.add(b)

    def _packer(self):
        shifts = self._shifts
        return lambda e: sum(map(lshift, e, shifts))

    def _widen(self, width: int):
        """Repack every element at the larger field width: its packed
        leading exponent and its whole tail in the term form, so that no
        term keeps an exponent packed at the old width.  Returns the map
        of a key whose coordinates are below 2^(old width) to its key at
        the new width."""
        old, mask = self._shifts, (1 << self._width) - 1
        self._width = width
        self._shifts, self._guard = packing(self.n, width)
        pack = self._packer()
        self._reducers = [_packed(pack, self._raw, b) for b in self.elements]
        pairs = list(zip(old, self._shifts))
        return lambda x: sum(((x >> s) & mask) << t for s, t in pairs)

    def _fit(self, bound: int) -> None:
        """Widen to the tight width for coordinates below `bound`,
        bitlen(bound) + 1 (see the class docstring), unless the width in
        use is already as large."""
        width = bound.bit_length() + 1
        if width > self._width:
            self._widen(width)

    def add(self, b: Polynomial) -> None:
        """Make b one of the elements divided by."""
        if b.is_zero or not b.is_monic():
            raise ValueError("normal form requires monic basis elements")
        if self.elements:
            self.elements[0]._check_compatible(b)
        else:
            self.n, self._raw = b.n, b.field._raw()
        self._bound = max(self._bound, max(map(max, b.terms)) + 1)
        self._fit(self._bound)
        packed = _packed(self._packer(), self._raw, b)
        i = bisect_left(self._reducers, packed[0], key=itemgetter(0))
        if i < len(self._reducers) and self._reducers[i][0] == packed[0]:
            raise ValueError(f"duplicate leading exponent {b.leading_exponent()} in basis")
        self._reducers.insert(i, packed)
        self.elements.insert(i, b)

    def reduce(self, f: Polynomial) -> Polynomial:
        """The remainder of f; see `normal_form`."""
        if not self.elements:
            return f
        f._check_compatible(self.elements[0])
        if f.is_zero:
            return f
        bound = max(self._bound, max(map(max, f.terms)) + 1)
        self._fit(bound)
        guard, reducers, shifts = self._guard, self._reducers, self._shifts
        mask = (1 << self._width) - 1
        raw = self._raw
        read, fold, scalar = raw.read, raw.fold, raw.scalar
        packed = [sum(map(lshift, e, shifts)) for e in f.terms]
        work = dict(zip(packed, raw.row(f.terms.values())))
        heap = [-e for e in work]  # ascending: the terms are lex-descending
        remainder: dict[Exponent, object] = {}
        while heap:
            e = -heappop(heap)
            c = read(work.pop(e))
            if not c:  # the raw contributions cancelled
                continue
            if e & guard:  # a coordinate reached 2^(k-1): widen to the proved width
                repack = self._widen(self.n * bound.bit_length() + 1)
                e, work = repack(e), {repack(x): v for x, v in work.items()}
                heap = [-repack(-x) for x in heap]  # repack keeps the order
                guard, reducers, shifts = self._guard, self._reducers, self._shifts
                mask = (1 << self._width) - 1
            guarded = e | guard
            for lead, tail in reducers:
                if (guarded - lead) & guard == guard:
                    # the leading term cancels c exactly (the element is monic)
                    fold(work, heap, c, tail, e - lead)
                    break
            else:
                remainder[tuple([(e >> s) & mask for s in shifts])] = scalar(c)
        return Polynomial._trusted(f.field, f.n, remainder, ordered=True)


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of multivariate division of f by a monic basis.

    `basis` is a `Reducer` or an iterable of polynomials, which is set
    up as a fresh `Reducer`; a caller dividing many polynomials by one
    basis builds the `Reducer` once and passes it.

    Deterministic: always cancels the lex-greatest reducible term, using
    the basis element with the lex-smallest leading exponent among those
    whose leading exponent divides the term.  The result has no term
    divisible by any basis leading exponent, and f minus the result lies
    in the ideal generated by the basis.

    Every term a reduction step adds is lex-smaller than the term it
    cancels (the lex order is compatible with multiplication), so the
    exponents taken off the heap never increase and a term, once taken
    off, never returns.  An exponent is therefore pushed once, when it
    enters the working set, and stays there until the heap yields it,
    also when its value cancels; it is dropped then (see `Reducer`).  The
    remainder is collected in the order the heap yields it, already
    lex-descending.  The terms are handled as packed integers throughout.
    """
    reducer = basis if isinstance(basis, Reducer) else Reducer(basis)
    return reducer.reduce(f)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S(f, g) = X^(lcm - lt f) * f - X^(lcm - lt g) * g for monic f, g.
    The leading terms cancel, so only the two tails are shifted, into one
    dict: multiplying by a monomial only shifts exponents."""
    if f.is_zero or g.is_zero:
        raise ValueError("S-polynomial of zero is undefined")
    if not (f.is_monic() and g.is_monic()):
        raise ValueError("S-polynomial requires monic inputs")
    f._check_compatible(g)
    (lf, _), *tail_f = f.terms.items()
    (lg, _), *tail_g = g.terms.items()
    lcm = tuple(map(max, lf, lg))
    shift_f, shift_g = tuple(map(sub_, lcm, lf)), tuple(map(sub_, lcm, lg))
    fld = f.field
    zero, norm = fld.zero, fld.normalize
    terms = {tuple(map(add_, e, shift_f)): c for e, c in tail_f}
    for e, c in tail_g:
        e = tuple(map(add_, e, shift_g))
        terms[e] = norm(terms.get(e, zero) - c)
    return Polynomial._trusted(fld, f.n, terms)
