from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pointideal import (
    PointSet,
    Polynomial,
    PrimeField,
    QQ,
    normal_form,
    s_polynomial,
    staircase_gb,
)
from pointideal.poly import lex_key, monomial_row

from reference import evaluate, poly_add, poly_sub
from strategies import F7, F13, exponents, pointsets, polynomials, prime_scalars, rationals

BASIS_A = staircase_gb(PointSet(QQ, 2, [(1, 0), (1, 2), (3, 1), (3, 4)])).elements


def poly(terms, n=2, field=QQ):
    return Polynomial(field, n, {e: F(c) for e, c in terms.items()})


def x_power(k, n=2, field=QQ):
    exp = (k,) + (0,) * (n - 1)
    return Polynomial(field, n, {exp: field.one})


@pytest.fixture
def basis_a(example_a):
    return staircase_gb(example_a).elements


def lex_compare(a, b):
    """-1, 0 or 1 as a <, =, > b in the order `lex_key` sorts by."""
    ka, kb = lex_key(a), lex_key(b)
    return (ka > kb) - (ka < kb)


class TestLexOrder:
    def test_second_variable_dominates(self):
        assert lex_compare((2, 1), (0, 2)) == -1
        assert lex_compare((2, 0), (0, 2)) == -1

    def test_equal(self):
        assert lex_compare((3, 1, 2), (3, 1, 2)) == 0

    @given(exponents(3), exponents(3))
    def test_trichotomy(self, a, b):
        signs = [lex_compare(a, b), lex_compare(b, a)]
        assert sorted(signs) in ([-1, 1], [0, 0])

    @given(exponents(3), exponents(3), exponents(3))
    def test_translation_invariant(self, a, b, c):
        shift = lambda e: tuple(x + y for x, y in zip(e, c))
        assert lex_compare(a, b) == lex_compare(shift(a), shift(b))


class TestConstructor:
    def test_coefficients_are_coerced_before_zeros_are_dropped(self):
        f13 = PrimeField(13)
        f = Polynomial(f13, 1, {(1,): 14, (0,): 13})
        assert f == Polynomial(f13, 1, {(1,): 1})
        assert list(f.terms.items()) == [((1,), 1)]

    def test_rational_coefficients_are_coerced(self):
        f = Polynomial(QQ, 1, {(1,): 2, (0,): "1/2"})
        assert list(f.terms.items()) == [((1,), F(2)), ((0,), F(1, 2))]
        assert all(type(c) is F for c in f.terms.values())


class TestArithmetic:
    def test_product_of_linear_factors(self):
        f = poly_sub(x_power(1), poly({(0, 0): 1})) * poly_sub(x_power(1), poly({(0, 0): 3}))
        assert f == poly({(2, 0): 1, (1, 0): -4, (0, 0): 3})

    def test_cubic_product(self):
        x = x_power(1)
        f = poly_sub(x, poly({(0, 0): 1})) * poly_sub(x, poly({(0, 0): 2}))
        f = f * poly_sub(x, poly({(0, 0): 3}))
        assert f == poly({(3, 0): 1, (2, 0): -6, (1, 0): 11, (0, 0): -6})

    def test_field_mismatch(self):
        with pytest.raises(ValueError):
            poly({(0, 0): 1}) * Polynomial(F13, 2, {(0, 0): 1})

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            poly({(0, 0): 1}) * poly({(0, 0, 0): 1}, n=3)

    @given(polynomials(), polynomials())
    def test_leading_exponent_of_product(self, f, g):
        if f.is_zero or g.is_zero:
            return
        expected = tuple(
            a + b for a, b in zip(f.leading_exponent(), g.leading_exponent())
        )
        assert (f * g).leading_exponent() == expected

    @given(polynomials(field=F13), polynomials(field=F13))
    def test_leading_exponent_of_product_mod_p(self, f, g):
        if f.is_zero or g.is_zero:
            return
        expected = tuple(
            a + b for a, b in zip(f.leading_exponent(), g.leading_exponent())
        )
        assert (f * g).leading_exponent() == expected


class TestEvaluate:
    def test_root(self):
        f = poly({(2, 0): 1, (1, 0): -4, (0, 0): 3})
        assert evaluate(f, (F(1), F(0))) == 0

    def test_plain_value(self):
        f = poly({(2, 0): 1, (1, 0): -4, (0, 0): 3})
        assert evaluate(f, (F(2), F(3))) == -1  # 4 - 8 + 3

    def test_constant(self):
        assert evaluate(poly({(0, 0): 5}), (F(17), F(-3))) == 5

    @given(polynomials(n=2), polynomials(n=2))
    def test_ring_homomorphism(self, f, g):
        pt = (F(2), F(-3))
        assert evaluate(f * g, pt) == evaluate(f, pt) * evaluate(g, pt)
        assert evaluate(poly_add(f, g), pt) == evaluate(f, pt) + evaluate(g, pt)


class TestNormalForm:
    def test_square_of_first_variable(self, basis_a):
        f1 = basis_a[0]
        expected = poly_sub(x_power(2), f1)  # 4*X1 - 3
        assert normal_form(x_power(2), basis_a) == expected

    def test_univariate_substitution(self):
        b = Polynomial(QQ, 1, {(1,): F(1), (0,): F(-3)})
        sq = Polynomial(QQ, 1, {(2,): 1})
        assert normal_form(sq, [b]) == Polynomial(QQ, 1, {(0,): F(9)})

    def test_zero(self, basis_a):
        assert normal_form(Polynomial(QQ, 2), basis_a).is_zero

    def test_requires_monic(self):
        b = poly({(1, 0): 2})
        with pytest.raises(ValueError, match="monic"):
            normal_form(poly({(2, 0): 1}), [b])

    def test_rejects_duplicate_leading_exponents(self):
        b1 = poly({(1, 0): 1})
        b2 = poly({(1, 0): 1, (0, 0): 1})
        with pytest.raises(ValueError, match="duplicate"):
            normal_form(poly({(2, 0): 1}), [b1, b2])

    @given(polynomials())
    def test_idempotent(self, f):
        r = normal_form(f, BASIS_A)
        assert normal_form(r, BASIS_A) == r

    @given(polynomials())
    def test_multiples_reduce_to_zero(self, f):
        for b in BASIS_A:
            assert normal_form(f * b, BASIS_A).is_zero

    @given(polynomials())
    def test_difference_in_ideal(self, f):
        # f - NF(f) must vanish on the points the basis came from
        r = normal_form(f, BASIS_A)
        for pt in [(F(1), F(0)), (F(1), F(2)), (F(3), F(1)), (F(3), F(4))]:
            assert evaluate(poly_sub(f, r), pt) == 0


class TestSPolynomial:
    def test_self_cancels(self, basis_a):
        assert s_polynomial(basis_a[0], basis_a[0]).is_zero

    def test_coprime_monomials(self):
        assert s_polynomial(poly({(2, 0): 1}), poly({(0, 2): 1})).is_zero

    def test_buchberger_criterion_on_known_basis(self, basis_a):
        s = s_polynomial(basis_a[0], basis_a[1])
        assert normal_form(s, basis_a).is_zero

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            s_polynomial(Polynomial(QQ, 2), poly({(1, 0): 1}))


class TestDisplay:
    def test_canonical_text(self, example_a):
        second = staircase_gb(example_a).elements[1]
        assert str(second) == "X2^2 - 3/2*X1*X2 - 1/2*X2 + 2*X1 - 2"

    def test_zero(self):
        assert str(Polynomial(QQ, 2)) == "0"

    def test_leading_minus(self):
        assert str(poly({(1, 0): -1, (0, 0): 1})) == "-X1 + 1"

    def test_prime_field_display(self):
        """A canonical residue prints as it is, with no minus sign, also
        where it stands for a negative integer."""
        f = Polynomial(F13, 2, {(0, 1): 12, (0, 0): 5})
        assert str(f) == "12*X2 + 5"
        assert str(Polynomial(F7, 1, {(1,): 6, (0,): 1})) == "6*X1 + 1"


def monic(f):
    inv = f.field.inv(f.terms[f.leading_exponent()])
    return Polynomial(f.field, f.n, {e: inv * c for e, c in f.terms.items()})


@given(pointsets(fields=(QQ, F13)), st.data())
def test_internal_constructions_keep_the_invariants(ps, data):
    """Products, tails, S-polynomials and normal forms are
    built without the public constructor's checks; each must still have
    no zero coefficient and the order the public constructor gives."""
    field, n = ps.field, ps.n
    p, q = (data.draw(polynomials(field, n, cap=3)) for _ in range(2))
    results = [p * q, p.tail(), normal_form(p, staircase_gb(ps).elements)]
    if not (p.is_zero or q.is_zero):
        results.append(s_polynomial(monic(p), monic(q)))
    for r in results:
        assert all(c != field.zero for c in r.terms.values())
        assert list(r.terms.items()) == list(Polynomial(r.field, r.n, dict(r.terms)).terms.items())


@st.composite
def points_and_exponents(draw):
    field = draw(st.sampled_from([QQ, F7, F13]))
    n = draw(st.integers(1, 3))
    coord = rationals() if field == QQ else prime_scalars(field.p)
    points = draw(st.lists(st.tuples(*[coord] * n), max_size=6))
    return field, tuple(points), draw(st.lists(exponents(n, cap=5), min_size=1, max_size=8))


@given(points_and_exponents())
def test_monomial_row_is_the_monomial_at_each_point(drawn):
    """From a cold cache and from one cache shared by every exponent drawn."""
    field, points, exps = drawn
    shared = {}
    for e in exps:
        mono = Polynomial(field, len(e), {e: field.one})
        expected = [evaluate(mono, pt) for pt in points]
        assert monomial_row(field, points, e, {}) == expected
        assert monomial_row(field, points, e, shared) == expected


def test_monomial_row_walks_a_long_parent_chain_without_recursion():
    points = ((2, 0), (3, 1), (6, 5))
    rows = {}
    assert monomial_row(F7, points, (1500, 0), rows) == [pow(a, 1500, 7) for a, _ in points]
    assert len(rows) == 1501
