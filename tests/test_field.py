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
    def test_fraction_addition(self):
        assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)

    def test_prime_multiplication(self):
        assert F7.mul(3, 5) == 1

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

    @given(rationals(), rationals(), rationals())
    def test_rational_axioms(self, a, b, c):
        f = QQ
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == f.zero
        if a != f.zero:
            assert f.mul(a, f.inv(a)) == f.one

    @given(prime_scalars(7), prime_scalars(7), prime_scalars(7))
    def test_prime_axioms(self, a, b, c):
        f = F7
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == f.zero
        if a != f.zero:
            assert f.mul(a, f.inv(a)) == f.one


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
