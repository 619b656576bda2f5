from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pointideal import PrimeField, QQ, is_prime

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
        scalar = rationals() if f == QQ else prime_scalars(7)
        c = data.draw(scalar)
        row, other = (data.draw(st.lists(scalar, min_size=3, max_size=3)) for _ in range(2))
        assert f.vec_scale(c, row) == [f.normalize(c * x) for x in row]
        expected = [f.normalize(x - c * y) for x, y in zip(row, other)]
        assert f.vec_sub_scaled(row, c, other) == expected


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
