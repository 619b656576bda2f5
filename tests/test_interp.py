from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pointideal import Polynomial, QQ, char_poly, char_poly_family, univariate_vanishing

from reference import evaluate, poly_add
from strategies import F13


def upoly(coeffs, field=QQ):
    """Dense ascending coefficients to a univariate polynomial."""
    return Polynomial(field, 1, {(k,): c for k, c in enumerate(coeffs)})


distinct_rationals = st.lists(
    st.integers(-20, 20).map(F), min_size=1, max_size=6, unique=True
)
distinct_residues = st.lists(st.integers(0, 12), min_size=1, max_size=6, unique=True)


class TestCharPoly:
    def test_pair(self):
        assert char_poly(QQ, [F(1), F(3)], F(1)) == upoly([F(3, 2), F(-1, 2)])

    def test_triple(self):
        got = char_poly(QQ, [F(1), F(2), F(3)], F(1))
        assert got == upoly([F(3), F(-5, 2), F(1, 2)])

    def test_singleton(self):
        assert char_poly(QQ, [F(5)], F(5)) == upoly([F(1)])

    def test_node_must_belong(self):
        with pytest.raises(ValueError, match="not among"):
            char_poly(QQ, [F(1), F(3)], F(2))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            char_poly(QQ, [F(1), F(1)], F(1))

    @given(distinct_rationals)
    def test_kronecker_property(self, values):
        for a in values:
            chi = char_poly(QQ, values, a)
            assert chi.n == 1
            for b in values:
                expected = QQ.one if a == b else QQ.zero
                assert evaluate(chi, (b,)) == expected

    @given(distinct_residues)
    def test_kronecker_property_mod_p(self, values):
        for a in values:
            chi = char_poly(F13, values, a)
            for b in values:
                expected = F13.one if a == b else F13.zero
                assert evaluate(chi, (b,)) == expected

    @given(distinct_rationals)
    def test_partition_of_unity(self, values):
        total = Polynomial(QQ, 1)
        for a in values:
            total = poly_add(total, char_poly(QQ, values, a))
        assert total == upoly([F(1)])

    @given(distinct_rationals)
    def test_family_agrees_with_single_node_form(self, values):
        family = char_poly_family(QQ, values)
        assert set(family) == set(values)
        for a in values:
            assert upoly(family[a], QQ) == char_poly(QQ, values, a)
            assert len(family[a]) == len(values)

    @given(distinct_residues)
    def test_family_agrees_mod_p(self, values):
        family = char_poly_family(F13, values)
        for a in values:
            assert upoly(family[a], F13) == char_poly(F13, values, a)
            assert len(family[a]) == len(values)


class TestVanishing:
    def test_pair(self):
        assert univariate_vanishing(QQ, [F(1), F(3)]) == upoly([F(3), F(-4), F(1)])

    def test_triple(self):
        got = univariate_vanishing(QQ, [F(1), F(2), F(3)])
        assert got == upoly([F(-6), F(11), F(-6), F(1)])

    def test_empty(self):
        assert univariate_vanishing(QQ, []) == upoly([F(1)])

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
