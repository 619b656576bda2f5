"""Exact coefficient fields: the rationals and prime fields F_p.

Scalars are plain Python values -- ``fractions.Fraction`` for the
rationals, canonical residues in ``range(p)`` as ``int`` for F_p.
Everything is exact; floating point is rejected outright because the
algorithms downstream rely on exact zero tests.

**The scalar contract.**  Arithmetic on scalars is native ``+ - *``
followed by `normalize`, which maps a raw value to the canonical scalar
it stands for: ``x % p`` on F_p, the identity on the rationals, whose
`Fraction` values are always canonical.  So a sum is
``normalize(a + b)``, a negation ``normalize(-a)``.  A hot loop may hold
the raw values it builds (Python ints do not overflow) and normalize
each one once, where it is read: before comparing it with zero, before
handing it to the field, and before storing it.  Only canonical scalars
are ever stored in a `Polynomial`, whose equality compares the stored
values as they are.

**The raw form.**  Over the rationals every native operation on
`Fraction` values reduces its result by a gcd, so a raw `Fraction` saves
nothing.  The division (`poly.Reducer`), which folds many products into
each value of its work dict, holds the field's raw form instead,
``field._raw()``:

- over F_p a raw value is the int of the scalar contract, a term of an
  element's tail is ``(t, c)``, and `read` is `normalize`;
- over the rationals a raw value is a pair ``(n, d)`` of ints with
  d > 0, standing for n / d and not reduced; a term is ``(t, n, d)``
  with the coefficient's own numerator and denominator.  A fold
  multiplies and adds ints only: the product of a / b and c / d is
  (a * c, b * d), and a sum over one denominator d adds the numerators,
  otherwise (a * d + c * b, b * d).  `read` reduces a pair by one gcd
  and returns None for zero, which is exactly a zero numerator, since
  the denominator is positive.

Integer arithmetic is exact, so a pair stands for the same rational as
the `Fraction` that the same native operations would build, and one
gcd where it is read gives that `Fraction`'s numerator and denominator.
The division reads a value before its zero test and before it feeds
more products, which keeps the factors of every product reduced, and
stores ``scalar(read(x))``: the int itself, or ``Fraction(n, d)``.  It
calls its raw form once per division step (`fold`), never once per
term update.

A field object supplies only what native operators cannot:

- `normalize` and `inv`;
- the row kernels `vec_scale`, which returns a canonical list, and
  `vec_sub_scaled`, the one update of the row form below;
- its raw form above (`_raw`) and its row form below (`_rows`);
- the univariate kernels of `interp`, one node at a time:
  `_times_linear` multiplies the master product by a node's linear
  factor, `_monic` reads the finished product as the monic vanishing
  polynomial, and `_characteristic` deflates it by one node, returning
  the characteristic polynomial as a list q and a scale s with the
  polynomial s * q.  Over F_p these are delayed-reduction loops, one
  `normalize` per coefficient or Horner step, q is canonical and s is
  one inverse.  Over the rationals a node a = n / d clears its own
  denominator: the product is the integral prod (d X - n), the loops
  run on ints with exact divisions, `_monic` returns one ``Fraction``
  per coefficient, and `_characteristic` returns ints and the one
  ``Fraction`` s (`interp` gives the formulas);
- `zero` and `one`, `coerce` (a Python value to a canonical scalar),
  `parse` and `format` (text), and `is_negative` (the sign printed).

**The row form.**  A row is a list of values at `width` points, such as
a monomial row (`poly.monomial_row`), and three jobs sum multiples of
rows: the Buchberger-Moller echelon (`bm`), the certificate's
vanishing check (`verify`) and the lift's interpolation columns
(`core.build_phi`), whose points are the degrees of X1.  All three
hold their rows in one form, ``field._rows(width, updates)``, with
`pack`, `entry`, `unpack` and `store`, and update them by one kernel,
``vec_sub_scaled(row, c, stored)``, which is row - c * stored.  A
stored row is `store`'s: the reduced values from a pivot on, scaled to
1 there, canonical like every packed value.  The lift's stored rows
are `pack`'s instead, which takes a row of canonical values as it
stands, and on the rationals a row of ints too.  `entry` and `unpack`
read a row's values as canonical scalars.

Over F_p a row is one Python int with a slot of w bits per point,
point j in bits w*j .. w*j + w - 1, and a stored row has 0 in the
slots before its pivot.  The kernel is ``row + ((-c) % p) * stored``,
one big-int multiply-add: every slot gains the canonical residue of -c
times y, which is x - c * y modulo p, and since nothing is subtracted
no slot can borrow from the next.  The residue of -c, not p - c, keeps
c = 0 from adding anything.  A packed row starts with slots below p and
each update adds at most (p - 1)^2 to a slot, so after at most
`updates` updates a slot holds at most (p - 1) + updates * (p - 1)^2;
w is one more than that bound's bit length, so no slot carries into
the next.  The echelon updates a candidate at most once per stored row,
so it passes its `width`; the vanishing check updates a sum once per
term of an element, so it passes the most terms of an element, which
may far exceed the number of points; a lift's column has a slot per
degree below the number m of slices it interpolates, and each slice
updates it at most once, so it passes m as both.  An entry is read as
its slot modulo p.

Over the rationals a row is a pair ``(numerators, d)``: a list of ints
and one int d > 0, standing for the values n / d.  `pack` takes d as
the lcm of the values' denominators, and a stored row is the packed
list of its values from its pivot on, which the kernel lines up with
the end of the row it updates.  For c = cn / cd and a stored row
(ys, yd), let h = gcd(cn, yd), so that c * y = (cn / h) * y' / yd' for
each stored y = y' / yd, with yd' = cd * (yd / h); let g = gcd(d, yd'),
a = yd' / g and b = (cn / h) * (d / g).  The update is every x of the
row times a, less b * y' where a stored y lines up, over d * a = the
lcm of d and yd'.  So d stays the lcm of the denominators that touched
the row, after the factor h that c's numerator cancels, and no gcd is
taken per entry: a value is reduced once, where `entry` or `unpack`
reads it as a `Fraction`.  The raw form's pairs, one denominator per
entry, would multiply the denominators entry by entry instead, and
reducing each pair at every update would cost a gcd per entry.

Scalar grammar: ``int := ['-'] digit+`` and, for the rationals only,
``rational := int ['/' digit+]``, where a digit is one of the ASCII
characters 0-9 (``int()`` alone would also take other scripts' digits
and underscores between digits).  A scalar may have any number of
digits: `parse` and `format` go through `decimal` past the digit limit
of Python's own int/str conversion.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from heapq import heappush
from math import gcd, lcm
from operator import lshift

_INT_RE = re.compile(r"-?[0-9]+")
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

_MAX_PRIME = 2**64


def _int(digits: str) -> int:
    """The int of a string of the scalar grammar, of any length.  `int`
    alone refuses a string past the interpreter's digit limit
    (``sys.get_int_max_str_digits()``: 4,300 by default, and no limit
    can be set below 640), which `decimal` does not have."""
    return int(digits) if len(digits) <= 640 else int(Decimal(digits))


def _digits(x: int) -> str:
    """str(x) for an int of any length (see `_int`); an int of at most
    2,000 bits has at most 603 digits."""
    return str(x) if x.bit_length() <= 2000 else str(Decimal(x))


# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10^24;
# `is_prime` also trial-divides by them first.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for word-sized integers."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of rational numbers.  Scalars are ``Fraction`` values,
    which are always stored reduced with positive denominator."""

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value) -> Fraction:
        if isinstance(value, float):
            raise TypeError("floating point values are not exact; use Fraction or str")
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return self.parse(value)
        raise TypeError(f"cannot coerce {value!r} into the rationals")

    def parse(self, text: str) -> Fraction:
        m = _RATIONAL_RE.fullmatch(text.strip())
        if m is None:
            raise ValueError(f"malformed rational scalar {text!r}")
        num, den = _int(m.group(1)), _int(m.group(2) or "1")
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)

    def format(self, x: Fraction) -> str:
        num = _digits(x.numerator)
        return num if x.denominator == 1 else f"{num}/{_digits(x.denominator)}"

    def normalize(self, x):
        return x

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self.one / a

    def is_negative(self, a) -> bool:
        return a < 0

    def vec_scale(self, c, row):
        return [c * x for x in row]

    def vec_sub_scaled(self, row, c, other):
        """row - c * other on rows of the row form, where `other` lines up
        with the end of `row`, over the lcm of the row's denominator and
        that of c times `other`, once c's numerator has cancelled what it
        shares with `other`'s denominator (see the module docstring)."""
        (xs, d), (ys, yd), cn = row, other, c.numerator
        h = gcd(cn, yd)
        yd = yd // h * c.denominator
        g = gcd(d, yd)
        a, b = yd // g, cn // h * (d // g)
        k = len(xs) - len(ys)
        return [x * a for x in xs[:k]] + [x * a - b * y for x, y in zip(xs[k:], ys)], d * a

    def _times_linear(self, coeffs: list, a: Fraction) -> list:
        """coeffs * (d X - n) for a = n / d, dense ascending-degree lists
        of ints."""
        n, d = a.numerator, a.denominator
        return [d * x - n * y for x, y in zip([0, *coeffs], [*coeffs, 0])]

    def _monic(self, coeffs: list) -> list:
        """The product of `_times_linear` divided by its lead: one
        `Fraction` per coefficient."""
        return [Fraction(c, coeffs[-1]) for c in coeffs]

    def _characteristic(self, master: list, a: Fraction) -> tuple[list, Fraction]:
        """The characteristic polynomial of the root a = n / d of the
        integral master product, on ints: the exact quotient q by
        d X - n, by synthetic division; H = sum q_k n^k d^(m-1-k), by a
        homogeneous Horner loop on q's coefficients as the division finds
        them, top first; and coefficient k as q_k d^(m-1) / H, returned
        as the ints q_k d^(m-1) and the one `Fraction` 1 / H (see
        `interp`)."""
        n, d = a.numerator, a.denominator
        acc, h, power, descending = master[-1] // d, 0, 1, []
        for c in reversed(master[:-1]):
            descending.append(acc)
            h, power = h * n + acc * power, power * d
            acc = (c + n * acc) // d  # after the last step, the remainder 0
        scale = power // d
        return [q * scale for q in reversed(descending)], Fraction(1, h)

    def _rows(self, width: int, updates: int) -> "_ScaledRows":
        return _ScaledRows()

    def _raw(self) -> "_PairRaw":
        return _PairRaw()

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """The prime field F_p.  Scalars are ints in ``range(p)``."""

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise TypeError("p must be an integer")
        if p >= _MAX_PRIME:
            raise ValueError(f"p = {p} exceeds the supported word-sized range")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p
        self._forms = {}

    def coerce(self, value) -> int:
        if isinstance(value, float):
            raise TypeError("floating point values are not exact; use int or str")
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, str):
            return self.parse(value)
        raise TypeError(f"cannot coerce {value!r} into F_{self.p}")

    def parse(self, text: str) -> int:
        m = _INT_RE.fullmatch(text.strip())
        if m is None:
            raise ValueError(f"malformed prime-field scalar {text!r}")
        return _int(m.group()) % self.p

    def format(self, x: int) -> str:
        return str(x)

    def normalize(self, x):
        return x % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("zero has no inverse")
        return pow(a, -1, self.p)

    def is_negative(self, a) -> bool:
        return False

    def vec_scale(self, c, row):
        p = self.p
        return [c * x % p for x in row]

    def vec_sub_scaled(self, row, c, other):
        """row - c * other on packed rows, one multiply-add (see the row
        form in the module docstring)."""
        return row + ((-c) % self.p) * other

    def _times_linear(self, coeffs: list, a: int) -> list:
        """coeffs * (X - a), dense ascending-degree lists: coefficient k
        is coeffs[k - 1] - a * coeffs[k], one normalized expression per
        coefficient."""
        norm = self.normalize
        return [norm(x - a * y) for x, y in zip([0, *coeffs], [*coeffs, 0])]

    def _monic(self, coeffs: list) -> list:
        """The product of `_times_linear`, which is monic and canonical."""
        return coeffs

    def _characteristic(self, master: list, a: int) -> tuple[list, int]:
        """The characteristic polynomial of the root a of the monic
        master product: the quotient by X - a, by synthetic division,
        and the inverse of its value at a, by Horner's rule on the
        quotient's coefficients as the division finds them, top first,
        which scales it.
        Each step is normalized at once, because it feeds the next one:
        held raw, it would gain the bits of a whole field element per
        step."""
        norm, acc, denom, descending = self.normalize, 1, 0, []
        for c in reversed(master[:-1]):
            descending.append(acc)
            denom = norm(acc + a * denom)
            acc = norm(c + a * acc)  # after the last step, the remainder 0
        return descending[::-1], self.inv(denom)

    def _rows(self, width: int, updates: int) -> "_PackedRows":
        """The row form for `width` and `updates`, built once and kept:
        the lift asks for one per corner, over few sizes."""
        form = self._forms.get((width, updates))
        if form is None:
            form = self._forms[width, updates] = _PackedRows(self, width, updates)
        return form

    def _raw(self) -> "_ResidueRaw":
        return _ResidueRaw(self)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class _ScaledRows:
    """The rationals' row form: a row is a list of ints over one common
    denominator (see the module docstring)."""

    __slots__ = ()

    def pack(self, values: list) -> tuple[list, int]:
        """The numerators of the values over the lcm of their
        denominators, and that lcm."""
        d = lcm(*(v.denominator for v in values))
        return [v.numerator * (d // v.denominator) for v in values], d

    def entry(self, row: tuple[list, int], j: int) -> Fraction:
        return Fraction(row[0][j], row[1])

    def unpack(self, row: tuple[list, int]) -> list:
        xs, d = row
        return [Fraction(x, d) for x in xs]

    def store(self, values: list, pivot: int, inv: Fraction) -> tuple[list, int]:
        """The stored row of reduced values with the given pivot, scaled
        by `inv` to 1 there: their packed list from the pivot on."""
        return self.pack([inv * v for v in values[pivot:]])


class _PackedRows:
    """F_p's row form over `width` points, sized for `updates` updates of
    a row: a row is one int with a slot of `slot` bits per point (see the
    module docstring)."""

    __slots__ = ("field", "p", "slot", "mask", "shifts")

    def __init__(self, field: PrimeField, width: int, updates: int):
        p = field.p
        self.field, self.p = field, p
        self.slot = ((p - 1) + updates * (p - 1) ** 2).bit_length() + 1
        self.mask = (1 << self.slot) - 1
        self.shifts = range(0, width * self.slot, self.slot)

    def pack(self, values: list) -> int:
        """A row of canonical values, one per slot."""
        return sum(map(lshift, values, self.shifts))

    def entry(self, row: int, j: int) -> int:
        return ((row >> self.shifts[j]) & self.mask) % self.p

    def unpack(self, row: int) -> list:
        """The canonical values of every slot."""
        mask, p = self.mask, self.p
        return [((row >> s) & mask) % p for s in self.shifts]

    def store(self, values: list, pivot: int, inv: int) -> int:
        """The stored row of reduced values with the given pivot, scaled
        by `inv` to 1 there: slots before the pivot are 0."""
        return self.pack(self.field.vec_scale(inv, values[pivot:])) << self.shifts[pivot]


class _ResidueRaw:
    """F_p's raw form: a raw value is an int, read by the field's
    `normalize` (see the module docstring), so every read of a subclass
    goes through its own `normalize`."""

    __slots__ = ("read",)

    def __init__(self, field: PrimeField):
        self.read = field.normalize

    @staticmethod
    def row(values):
        """The raw values of canonical scalars: the scalars themselves."""
        return values

    @staticmethod
    def tail(terms: list) -> list:
        """A tail in the term form: its (t, c) pairs as they are."""
        return terms

    @staticmethod
    def scalar(c):
        return c

    @staticmethod
    def fold(work: dict, heap: list, c, tail: list, shift: int) -> None:
        """Add -c * tc at t + shift to `work` for every term (t, tc) of
        `tail`, pushing -(t + shift) on `heap` for each new key."""
        get = work.get
        for t, tc in tail:
            t += shift
            old = get(t)
            if old is None:
                work[t] = -c * tc
                heappush(heap, -t)
            else:
                work[t] = old - c * tc


class _PairRaw:
    """The rationals' raw form: a raw value is an unreduced pair
    (numerator, denominator) of ints with a positive denominator (see the
    raw form in the module docstring)."""

    __slots__ = ()

    @staticmethod
    def read(x):
        """The reduced pair of x, or None when x is zero."""
        n, d = x
        if not n:
            return None
        g = gcd(n, d)
        return (n // g, d // g) if g != 1 else x

    @staticmethod
    def row(values) -> list:
        """The pairs of canonical scalars, in order."""
        return [(c.numerator, c.denominator) for c in values]

    @staticmethod
    def tail(terms: list) -> list:
        """A tail in the term form: (t, n, d) for each (t, c)."""
        return [(t, c.numerator, c.denominator) for t, c in terms]

    @staticmethod
    def scalar(c) -> Fraction:
        return Fraction(*c)

    @staticmethod
    def fold(work: dict, heap: list, c, tail: list, shift: int) -> None:
        """Add -c * tn / td at t + shift to `work` for every term
        (t, tn, td) of `tail`, pushing -(t + shift) on `heap` for each
        new key; over equal denominators only the numerators add."""
        cn, cd = c
        get = work.get
        for t, tn, td in tail:
            t += shift
            n, d = -cn * tn, cd * td
            old = get(t)
            if old is None:
                work[t] = n, d
                heappush(heap, -t)
            else:
                on, od = old
                work[t] = (on + n, d) if od == d else (on * d + n * od, od * d)


QQ = RationalField()
