from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pointideal import Polynomial, QQ, char_poly_family, univariate_vanishing
from pointideal.interp import vanishing_coeffs

from reference import (
    canonical_entry,
    evaluate,
    is_canonical,
    poly_add,
    reference_char_poly,
    reference_mul,
    scaled_back,
)
from strategies import F13


def upoly(coeffs, field=QQ):
    """Dense ascending coefficients to a univariate polynomial."""
    return Polynomial(field, 1, {(k,): c for k, c in enumerate(coeffs)})


distinct_rationals = st.lists(
    st.integers(-20, 20).map(F), min_size=1, max_size=6, unique=True
)
distinct_residues = st.lists(st.integers(0, 12), min_size=1, max_size=6, unique=True)

# Denominators up to 10^6: the pairwise-coprime 999983, 999979, 10^6 and
# 999999 (two primes and two consecutive ints, coprime to both), any
# other, or none (0 and the integers); numerators of either sign.
wide_distinct_rationals = st.lists(
    st.one_of(
        st.just(F(0)),
        st.builds(
            F,
            st.integers(-(10**6), 10**6),
            st.one_of(st.sampled_from([999983, 999979, 10**6, 999999]), st.integers(1, 10**6)),
        ),
    ),
    min_size=1,
    max_size=8,
    unique=True,
)


def family_polys(field, values):
    """`char_poly_family` as univariate polynomials s * q, keyed by node."""
    family = char_poly_family(field, values)
    return {a: upoly(scaled_back(field, entry), field) for a, entry in family.items()}


class TestCharPoly:
    def test_pair(self):
        assert family_polys(QQ, [F(1), F(3)])[F(1)] == upoly([F(3, 2), F(-1, 2)])

    def test_triple(self):
        got = family_polys(QQ, [F(1), F(2), F(3)])[F(1)]
        assert got == upoly([F(3), F(-5, 2), F(1, 2)])

    def test_singleton(self):
        assert family_polys(QQ, [F(5)]) == {F(5): upoly([F(1)])}

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            char_poly_family(QQ, [F(1), F(1)])

    @given(distinct_rationals)
    def test_kronecker_property(self, values):
        for a, chi in family_polys(QQ, values).items():
            assert chi.n == 1
            for b in values:
                expected = QQ.one if a == b else QQ.zero
                assert evaluate(chi, (b,)) == expected

    @given(distinct_residues)
    def test_kronecker_property_mod_p(self, values):
        for a, chi in family_polys(F13, values).items():
            for b in values:
                expected = F13.one if a == b else F13.zero
                assert evaluate(chi, (b,)) == expected

    @given(distinct_rationals)
    def test_partition_of_unity(self, values):
        total = Polynomial(QQ, 1)
        for chi in family_polys(QQ, values).values():
            total = poly_add(total, chi)
        assert total == upoly([F(1)])

    @given(distinct_rationals)
    def test_family_agrees_with_single_node_form(self, values):
        family = char_poly_family(QQ, values)
        assert set(family) == set(values)
        for a in values:
            assert upoly(scaled_back(QQ, family[a]), QQ) == reference_char_poly(QQ, values, a)
            assert len(family[a][0]) == len(values)

    @given(wide_distinct_rationals)
    def test_family_agrees_on_wide_denominators(self, values):
        """Each node's own denominator is cleared; the entry (q, s) is ints
        and one canonical scale, and s * q is the reference product,
        coefficient for coefficient, with every coefficient canonical."""
        family = char_poly_family(QQ, values)
        assert list(family) == values
        for a in values:
            coeffs = scaled_back(QQ, family[a])
            assert len(family[a][0]) == len(values)
            assert canonical_entry(QQ, family[a])
            assert all(is_canonical(QQ, c) for c in coeffs)
            assert upoly(coeffs) == reference_char_poly(QQ, values, a)

    @given(distinct_residues)
    def test_family_agrees_mod_p(self, values):
        family = char_poly_family(F13, values)
        for a in values:
            assert canonical_entry(F13, family[a])
            assert upoly(scaled_back(F13, family[a]), F13) == reference_char_poly(F13, values, a)
            assert len(family[a][0]) == len(values)


class TestVanishing:
    def test_pair(self):
        assert univariate_vanishing(QQ, [F(1), F(3)]) == upoly([F(3), F(-4), F(1)])

    def test_triple(self):
        got = univariate_vanishing(QQ, [F(1), F(2), F(3)])
        assert got == upoly([F(-6), F(11), F(-6), F(1)])

    def test_empty(self):
        assert univariate_vanishing(QQ, []) == upoly([F(1)])

    @given(wide_distinct_rationals)
    def test_wide_denominators_match_the_reference_product(self, values):
        expected = upoly([F(1)])
        for a in values:
            expected = reference_mul(expected, upoly([-a, F(1)]))
        coeffs = vanishing_coeffs(QQ, values)
        assert len(coeffs) == len(values) + 1
        assert all(is_canonical(QQ, c) for c in coeffs)
        assert upoly(coeffs) == expected
        assert univariate_vanishing(QQ, values) == expected

    @given(distinct_rationals)
    def test_roots_exactly(self, values):
        f = univariate_vanishing(QQ, values)
        assert f.is_monic()
        assert f.leading_exponent() == (len(values),)
        for v in values:
            assert evaluate(f, (v,)) == 0
        for probe in (F(23), F(-31), F(47, 2)):
            if probe not in values:
                assert evaluate(f, (probe,)) != 0
