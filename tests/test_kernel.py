"""The exact kernels pinned to their reference forms, and the two engines
checked against each other and the certificate."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pointideal import (
    GroebnerBasis,
    Polynomial,
    QQ,
    bm_gb,
    check_vanishing,
    normal_form,
    s_polynomial,
    staircase_gb,
    verify_basis,
)
from pointideal.poly import exp_lcm, exp_sub, lex_key

from reference import reference_check_vanishing, reference_normal_form
from strategies import F7, F13, exponents, pointsets, polynomials, prime_scalars, rationals

FIELDS = st.sampled_from([QQ, F7])


def nonzero_scalars(field):
    scalars = rationals() if field == QQ else prime_scalars(field.p)
    return scalars.filter(lambda c: c != field.zero)


@st.composite
def monic_bases(draw, field, n, cap=3):
    """Monic polynomials with distinct leading exponents and arbitrary
    lex-smaller tails: usually not a Groebner basis, so the reducer rule
    decides the remainder."""
    leads = draw(st.lists(exponents(n, cap), min_size=1, max_size=4, unique=True))
    basis = []
    for le in leads:
        tail = draw(st.dictionaries(exponents(n, cap), nonzero_scalars(field), max_size=3))
        terms = {e: c for e, c in tail.items() if lex_key(e) < lex_key(le)}
        terms[le] = field.one
        basis.append(Polynomial(field, n, terms))
    return basis


@st.composite
def division_problems(draw):
    field = draw(FIELDS)
    n = draw(st.integers(1, 3))
    f = draw(polynomials(field, n, cap=4, max_terms=6))
    return f, draw(monic_bases(field, n))


@given(division_problems())
@settings(max_examples=300)
def test_normal_form_matches_the_reference(problem):
    f, basis = problem
    ours = normal_form(f, basis)
    assert list(ours.terms.items()) == list(reference_normal_form(f, basis).terms.items())


@given(pointsets(fields=(QQ, F7, F13)), st.data())
def test_normal_form_matches_the_reference_on_reduced_bases(ps, data):
    basis = staircase_gb(ps).elements
    f = data.draw(polynomials(ps.field, ps.n, cap=4))
    assert normal_form(f, basis) == reference_normal_form(f, basis)


@st.composite
def monic_pairs(draw):
    field = draw(FIELDS)
    n = draw(st.integers(1, 3))
    pair = []
    for _ in range(2):
        f = draw(polynomials(field, n, cap=3, max_terms=5))
        assume(not f.is_zero)
        pair.append(f.monic())
    return pair


@given(monic_pairs())
def test_s_polynomial_is_the_shifted_difference(pair):
    f, g = pair
    lf, lg = f.leading_exponent(), g.leading_exponent()
    lcm = exp_lcm(lf, lg)
    mf = Polynomial.monomial(f.field, f.n, exp_sub(lcm, lf))
    mg = Polynomial.monomial(g.field, g.n, exp_sub(lcm, lg))
    expected = mf * f - mg * g
    assert list(s_polynomial(f, g).terms.items()) == list(expected.terms.items())


@given(pointsets(fields=(QQ, F7, F13), max_size=10), st.data())
def test_check_vanishing_matches_the_reference_on_mutants(ps, data):
    """One coefficient changes in each of one or more elements; with
    several failing elements the witness shows the order of the search."""
    gb = staircase_gb(ps)
    assert check_vanishing(gb, ps) == reference_check_vanishing(gb, ps)
    elements = list(gb.elements)
    fld = ps.field
    indices = st.integers(0, len(elements) - 1)
    for i in data.draw(st.lists(indices, min_size=1, unique=True)):
        terms = dict(elements[i].terms)
        e = data.draw(st.sampled_from(sorted(terms, key=lex_key)))
        terms[e] = fld.add(terms[e], data.draw(nonzero_scalars(fld)))
        elements[i] = Polynomial(fld, ps.n, terms)
        assume(not elements[i].is_zero)
    mutant = GroebnerBasis(gb.staircase, tuple(elements))
    ours = check_vanishing(mutant, ps)
    assert ours == reference_check_vanishing(mutant, ps)
    assert not verify_basis(mutant, ps).overall


@given(pointsets(fields=(QQ, F7, F13), max_size=12))
@settings(max_examples=150)
def test_engines_agree_and_the_certificate_passes(ps):
    gb = staircase_gb(ps)
    assert gb == bm_gb(ps)
    report = verify_basis(gb, ps)
    assert report.overall, report.summary_lines()
    assert [c.name for c in report.checks] == [
        "vanishing",
        "reduced_shape",
        "buchberger",
        "dimension",
    ]
