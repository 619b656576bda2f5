from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointideal import PointSet, PrimeField, QQ, bm_gb, is_prime, staircase_gb

from strategies import prime_scalars, rationals

F7 = PrimeField(7)


class TestParse:
    def test_reduces_to_lowest_terms(self):
        assert QQ.parse("3/6") == Fraction(1, 2)

    def test_negative_residue(self):
        assert F7.parse("-4") == 3

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            QQ.parse("1/0")

    def test_prime_field_rejects_fractions(self):
        with pytest.raises(ValueError, match="malformed"):
            F7.parse("1/2")

    @pytest.mark.parametrize("text", ["", "x", "1.5", "2/3/4", "--3", "1/-2"])
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            QQ.parse(text)

    def test_roundtrip_examples(self):
        for text in ["-7/3", "0", "12"]:
            x = QQ.parse(text)
            assert QQ.parse(QQ.format(x)) == x
        for text in ["6", "0", "-1"]:
            x = F7.parse(text)
            assert F7.parse(F7.format(x)) == x

    def test_any_number_of_digits(self):
        """Past Python's 4,300-digit int/str limit."""
        big = "1" + "0" * 4399 + "1"
        assert F7.parse(big) == (10**4400 + 1) % 7
        x = QQ.parse(f"-{big}/3")
        assert x == Fraction(-(10**4400 + 1), 3)
        assert QQ.format(x) == f"-{big}/3"
        assert QQ.format(Fraction(1, 10**5000)) == "1/1" + "0" * 5000
        assert QQ.format(-x * 3) == big

    @given(rationals(max_den=40))
    def test_roundtrip_rational(self, x):
        assert QQ.parse(QQ.format(x)) == x

    @given(prime_scalars(7))
    def test_roundtrip_prime(self, x):
        assert F7.parse(F7.format(x)) == x


class TestArithmetic:
    """Arithmetic is native ``+ - *`` on scalars, with `normalize` applied
    to the raw result; the field itself supplies `inv` and the row
    kernels."""

    def test_fraction_addition(self):
        assert QQ.normalize(Fraction(1, 2) + Fraction(1, 3)) == Fraction(5, 6)

    def test_prime_multiplication(self):
        assert F7.normalize(3 * 5) == 1

    def test_normalize_gives_the_canonical_residue(self):
        assert [F7.normalize(x) for x in (-1, 7, 50, -7 * 10**30 - 2)] == [6, 0, 1, 5]
        x = Fraction(-3, 4)
        assert QQ.normalize(x) is x

    def test_inverse_examples(self):
        assert QQ.inv(Fraction(1, 2)) == 2
        assert F7.inv(3) == 5
        with pytest.raises(ZeroDivisionError):
            F7.inv(0)
        with pytest.raises(ZeroDivisionError):
            QQ.inv(Fraction(0))

    def test_rational_inverse_of_an_int_is_exact(self):
        inverse = QQ.inv(3)
        assert inverse == Fraction(1, 3) and type(inverse) is Fraction

    def test_coerce_rejects_floats(self):
        with pytest.raises(TypeError):
            QQ.coerce(0.5)
        with pytest.raises(TypeError):
            F7.coerce(0.5)

    def test_coerce_keeps_a_fraction_as_it_is(self):
        x = Fraction(2, 3)
        assert QQ.coerce(x) is x
        assert QQ.coerce(4) == Fraction(4) and type(QQ.coerce(4)) is Fraction

    @given(rationals(), rationals(), rationals())
    def test_rational_axioms(self, a, b, c):
        self.check_axioms(QQ, a, b, c)

    @given(prime_scalars(7), prime_scalars(7), prime_scalars(7))
    def test_prime_axioms(self, a, b, c):
        self.check_axioms(F7, a, b, c)
        for x in (a + b, a - b, a * b, -a):
            assert F7.normalize(x) in range(7)

    @staticmethod
    def check_axioms(f, a, b, c):
        add = lambda x, y: f.normalize(x + y)
        mul = lambda x, y: f.normalize(x * y)
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, f.normalize(-a)) == f.zero
        assert f.normalize(a - b) == add(a, f.normalize(-b))
        if a != f.zero:
            assert mul(a, f.inv(a)) == f.one

    @given(st.sampled_from([QQ, F7]), st.data())
    def test_row_kernels_are_normalized_native_ops(self, f, data):
        """`vec_sub_scaled` works on the field's row form; against a row
        stored with scale 1, whose entries before its pivot are zero, it
        reads as normalize(x - c * y) and leaves those entries as they
        are."""
        scalar = rationals() if f == QQ else prime_scalars(7)
        c, pivot = data.draw(scalar), data.draw(st.integers(0, 2))
        row, other = (data.draw(st.lists(scalar, min_size=3, max_size=3)) for _ in range(2))
        assert f.vec_scale(c, row) == [f.normalize(c * x) for x in row]
        stored = [f.zero] * pivot + other[pivot:]
        expected = [f.normalize(x - c * y) for x, y in zip(row, stored)]
        form = f._rows(3, 1)
        updated = f.vec_sub_scaled(form.pack(row), c, form.store(other, pivot, f.one))
        assert form.unpack(updated) == expected


# The smallest prime, two small ones, a Mersenne prime and the largest
# prime below 2^64, the top of the supported range.
PACKED_PRIMES = [2, 5, 7919, 2**61 - 1, 2**64 - 59]


class TestPackedRows:
    """F_p's packed row form, read back slot by slot."""

    def test_the_last_prime_is_the_largest_below_2_64(self):
        assert is_prime(2**64 - 59)
        assert not any(is_prime(q) for q in range(2**64 - 58, 2**64))

    @pytest.mark.parametrize("p", PACKED_PRIMES)
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_updates_match_normalized_native_ops(self, p, data):
        """A packed row updated against stored rows of any pivot and scale
        reads, entry for entry, as the list updated by
        normalize(x - c * y), after every update and when unpacked."""
        f = PrimeField(p)
        width = data.draw(st.integers(1, 8))
        scalar = st.integers(0, p - 1)
        values = data.draw(st.lists(scalar, min_size=width, max_size=width))
        form = f._rows(width, width)
        row = form.pack(values)
        for _ in range(data.draw(st.integers(0, width))):
            pivot, inv, c = (
                data.draw(st.integers(0, width - 1)),
                data.draw(st.integers(1, p - 1)),
                data.draw(scalar),
            )
            ys = data.draw(st.lists(scalar, min_size=width, max_size=width))
            stored = [0] * pivot + [f.normalize(inv * y) for y in ys[pivot:]]
            values = [f.normalize(x - c * y) for x, y in zip(values, stored)]
            row = f.vec_sub_scaled(row, c, form.store(ys, pivot, inv))
            assert [form.entry(row, j) for j in range(width)] == values
        assert form.unpack(row) == values

    @pytest.mark.parametrize("p", PACKED_PRIMES)
    @pytest.mark.parametrize("width", [1, 2, 17])
    def test_no_slot_carries_in_the_worst_case(self, p, width):
        """Every entry p - 1, every stored slot p - 1 (stored rows hold
        canonical values) and every multiplier 1, whose -c has the
        residue p - 1: after `width` updates every slot holds
        (p - 1) + width * (p - 1)^2, the most the slot width is sized
        for, and nothing has carried into the next slot.  A multiplier
        0 then leaves the row as it is."""
        f = PrimeField(p)
        form = f._rows(width, width)
        row, stored = form.pack([p - 1] * width), form.store([p - 1] * width, 0, 1)
        assert all((stored >> s) & form.mask == p - 1 for s in form.shifts)
        for _ in range(width):
            row = f.vec_sub_scaled(row, 1, stored)
        top = (p - 1) + width * (p - 1) ** 2
        assert form.slot == top.bit_length() + 1
        assert [(row >> s) & form.mask for s in form.shifts] == [top] * width
        assert row >> (width * form.slot) == 0
        assert form.unpack(row) == [f.normalize(p - 1 - width * (p - 1))] * width
        assert f.vec_sub_scaled(row, 0, stored) == row


# Rationals with denominators up to 10^6, drawn often from the pairwise
# coprime 999983 and 999979 and from 10^6 and 999999, and often zero.
WIDE = st.one_of(
    st.just(Fraction(0)),
    st.builds(
        Fraction,
        st.integers(-(10**6), 10**6),
        st.one_of(st.sampled_from([999983, 999979, 10**6, 999999]), st.integers(1, 10**6)),
    ),
)


class TestScaledRows:
    """The rationals' row form, a list of ints over one denominator."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_updates_match_fraction_arithmetic(self, data):
        """A row updated against stored rows of any pivot and scale
        reads, entry for entry, as the list updated by x - c * y in
        `Fraction` arithmetic, after every update and when unpacked."""
        width = data.draw(st.integers(1, 8))
        values = data.draw(st.lists(WIDE, min_size=width, max_size=width))
        form = QQ._rows(width, width)
        row = form.pack(values)
        for _ in range(data.draw(st.integers(0, 2 * width))):
            pivot, inv, c = (
                data.draw(st.integers(0, width - 1)),
                data.draw(WIDE.filter(bool)),
                data.draw(WIDE),
            )
            ys = data.draw(st.lists(WIDE, min_size=width, max_size=width))
            stored = [Fraction(0)] * pivot + [inv * y for y in ys[pivot:]]
            values = [x - c * y for x, y in zip(values, stored)]
            row = QQ.vec_sub_scaled(row, c, form.store(ys, pivot, inv))
            assert row[1] > 0
            assert [form.entry(row, j) for j in range(width)] == values
        unpacked = form.unpack(row)
        assert unpacked == values
        assert all(type(x) is Fraction for x in unpacked)


@st.composite
def packed_pointsets(draw, field, n):
    """Points of field^n, with coordinates uniform or small, so that
    shared first coordinates occur over a large prime too."""
    coord = st.one_of(st.integers(0, min(3, field.p - 1)), st.integers(0, field.p - 1))
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=20, unique=True))
    return PointSet(field, n, pts)


@pytest.mark.parametrize(
    "field, n", [(PrimeField(2), 5), (PrimeField(2**61 - 1), 3)], ids=["F_2^5", "F_(2^61-1)^3"]
)
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_the_oracle_on_packed_rows_matches_the_engine(field, n, data):
    ps = data.draw(packed_pointsets(field, n))
    assert bm_gb(ps) == staircase_gb(ps)


class TestPrimality:
    @pytest.mark.parametrize("p", [2, 3, 7, 101, 7919, 2**61 - 1])
    def test_primes(self, p):
        assert is_prime(p)

    @pytest.mark.parametrize("n", [0, 1, 4, 10, 7917, 2**61 + 1])
    def test_composites(self, n):
        assert not is_prime(n)

    def test_field_rejects_composite(self):
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(10)

    def test_field_rejects_huge(self):
        with pytest.raises(ValueError, match="word-sized"):
            PrimeField(2**64 + 13)

    def test_field_equality(self):
        assert PrimeField(7) == PrimeField(7)
        assert PrimeField(7) != PrimeField(11)
        assert QQ != PrimeField(7)
