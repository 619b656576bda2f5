"""The exact kernels pinned to their reference forms, and the two engines
checked against each other and the certificate."""

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pointideal import (
    CheckResult,
    GroebnerBasis,
    PointSet,
    Polynomial,
    PrimeField,
    QQ,
    Staircase,
    bm,
    bm_gb,
    check_buchberger,
    check_vanishing,
    core,
    normal_form,
    s_polynomial,
    staircase_gb,
    verify,
    verify_basis,
)
from pointideal.bench import SplitMix64, random_pointset
from pointideal.poly import Reducer, lex_key

from reference import (
    reference_chain_pairs,
    reference_check_buchberger,
    reference_check_vanishing,
    reference_normal_form,
    reference_s_polynomial,
)
from strategies import (
    F7,
    F13,
    grid_pointsets,
    monic_bases,
    nonzero_scalars,
    pointsets,
    polynomials,
)

FIELDS = st.sampled_from([QQ, F7])


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
        inv = field.inv(f.leading_coefficient())
        pair.append(Polynomial(field, n, {e: field.normalize(inv * c) for e, c in f.terms.items()}))
    return pair


@given(monic_pairs())
def test_s_polynomial_is_the_shifted_difference(pair):
    f, g = pair
    expected = reference_s_polynomial(f, g)
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
        terms[e] = fld.normalize(terms[e] + data.draw(nonzero_scalars(fld)))
        elements[i] = Polynomial(fld, ps.n, terms)
        assume(not elements[i].is_zero)
    mutant = GroebnerBasis(gb.staircase, tuple(elements))
    ours = check_vanishing(mutant, ps)
    assert ours == reference_check_vanishing(mutant, ps)
    assert not verify_basis(mutant, ps).overall


def parent_chains(exps) -> set:
    """The exponents and their parents, each lowered in its first nonzero
    coordinate, down to the origin."""
    chains = set()
    for e in exps:
        chains.add(e)
        while any(e):
            i = next(i for i, k in enumerate(e) if k)
            e = e[:i] + (e[i] - 1,) + e[i + 1 :]
            chains.add(e)
    return chains


@given(pointsets(fields=(QQ, F7, F13), max_size=12))
def test_vanishing_builds_rows_for_cells_and_corners_only(ps):
    """One row cache serves every element; it ends holding the parent
    chains of the basis terms, which contain every corner and otherwise
    only cells, so at most |D| + #corners rows.  The bound is not always
    reached: for the points 0, e1, e2, e1 + e2, e3 of F_7^3 the cell
    X1*X2 lies on no term's chain."""
    gb = staircase_gb(ps)
    caches = []
    evaluate = verify.monomial_row

    def recorded(field, points, exponent, rows):
        caches.append(rows)
        return evaluate(field, points, exponent, rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "monomial_row", recorded)
        assert check_vanishing(gb, ps).passed
    cache = caches[0]
    assert all(rows is cache for rows in caches)
    stairs = gb.staircase
    assert set(cache) == parent_chains(e for f in gb.elements for e in f.terms)
    assert stairs.corners() <= set(cache) <= stairs.cells | stairs.corners()


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


@given(grid_pointsets())
@settings(max_examples=120, deadline=None)
def test_engines_agree_on_dense_grid_subsets(ps):
    """Dense slices, where many lifted representatives are read from the
    slice bases; only a cross-check catches a wrong representative."""
    gb = staircase_gb(ps)
    assert gb == bm_gb(ps)
    assert verify_basis(gb, ps).overall


def fractional_points(seed: int, size: int) -> PointSet:
    """Distinct points of QQ^3 from SplitMix64(seed), drawn like the
    rational3 benchmark workload: X1 = a/b with |a| <= 4 and b <= 3,
    X2 and X3 = a/b with |a| <= 9 and b <= 4."""
    rng = SplitMix64(seed)

    def fraction(bound, max_den):
        return Fraction(rng.below(2 * bound + 1) - bound, rng.below(max_den) + 1)

    points = set()
    while len(points) < size:
        points.add((fraction(4, 3), fraction(9, 4), fraction(9, 4)))
    return PointSet(QQ, 3, points)


@pytest.mark.parametrize(
    "seed, size, element, vanishing, s_pair",
    [
        (
            3,
            30,
            0,
            "element with leading exponent (14, 0, 0) evaluates to 65536/7 at (-4, -7/4, -7/4)",
            "S-polynomial of the pair (14, 0, 0), (10, 1, 0) does not reduce to zero",
        ),
        (
            4,
            40,
            5,
            "element with leading exponent (1, 5, 0) evaluates to -80/21 at (-4, -5/3, -2)",
            "S-polynomial of the pair (18, 0, 0), (1, 0, 1) does not reduce to zero",
        ),
    ],
    ids=["30 points", "40 points"],
)
def test_engines_agree_on_fractional_points_at_depth(seed, size, element, vanishing, s_pair):
    """Fractional coordinates make coefficients of many digits over
    denominators that differ from term to term.  The engines agree and
    the certificate passes; adding 1/7 to the middle term (in lex order)
    of one element gives the pinned witnesses."""
    ps = fractional_points(seed, size)
    gb = staircase_gb(ps)
    assert gb == bm_gb(ps)
    assert verify_basis(gb, ps).overall
    elements = list(gb.elements)
    terms = dict(elements[element].terms)
    e = sorted(terms, key=lex_key)[len(terms) // 2]
    terms[e] += Fraction(1, 7)
    elements[element] = Polynomial(QQ, 3, terms)
    mutant = GroebnerBasis(gb.staircase, tuple(elements))
    assert check_vanishing(mutant, ps) == CheckResult("vanishing", False, vanishing)
    assert check_buchberger(mutant) == CheckResult("buchberger", False, s_pair)


@st.composite
def engine_mutants(draw):
    """A point set and its engine basis with one change: a coefficient
    changed, an element dropped, or a tail term added inside the staircase."""
    ps = draw(pointsets(fields=(QQ, F7, F13), max_size=12))
    gb = staircase_gb(ps)
    elements = list(gb.elements)
    fld = ps.field
    i = draw(st.integers(0, len(elements) - 1))
    kind = draw(st.sampled_from(["coefficient", "drop", "tail"]))
    if kind == "drop":
        del elements[i]
    else:
        terms = dict(elements[i].terms)
        if kind == "coefficient":
            spots = sorted(terms, key=lex_key)
        else:
            below = lex_key(elements[i].leading_exponent())
            spots = sorted(
                (e for e in gb.staircase.cells if e not in terms and lex_key(e) < below),
                key=lex_key,
            )
            assume(spots)
        e = draw(st.sampled_from(spots))
        terms[e] = fld.normalize(terms.get(e, fld.zero) + draw(nonzero_scalars(fld)))
        elements[i] = Polynomial(fld, ps.n, terms)
        assume(not elements[i].is_zero)
    return ps, GroebnerBasis(gb.staircase, tuple(elements))


@st.composite
def random_monic_sets(draw):
    field = draw(FIELDS)
    n = draw(st.integers(1, 3))
    basis = draw(monic_bases(field, n, cap=2, max_size=7))
    return GroebnerBasis(Staircase(n), tuple(basis))


def named_pair(gb, witness):
    """The pair of elements a failing S-pair witness names, if any."""
    for f, g in combinations(gb.elements, 2):
        pair = f"{f.leading_exponent()}, {g.leading_exponent()}"
        if witness == f"S-polynomial of the pair {pair} does not reduce to zero":
            return f, g
    return None


def assert_same_verdict(gb):
    ours, reference = check_buchberger(gb), reference_check_buchberger(gb)
    assert ours.passed == reference.passed
    if not ours.passed:
        pair = named_pair(gb, ours.witness)
        if pair is None:
            assert ours == reference
        else:
            assert not normal_form(s_polynomial(*pair), gb.elements).is_zero


@given(engine_mutants())
@settings(max_examples=200)
def test_check_buchberger_matches_the_all_pairs_reference_on_mutants(mutant):
    _, gb = mutant
    assert_same_verdict(gb)


@given(random_monic_sets())
@settings(max_examples=200)
def test_check_buchberger_matches_the_all_pairs_reference_on_monic_sets(gb):
    assert_same_verdict(gb)


@given(engine_mutants())
def test_mutants_fail_and_s_pair_failures_fail_another_check(mutant):
    """Every mutant is rejected, and one that fails the all-pairs S-pair
    check also fails vanishing, reduced shape or dimension: the redundancy
    the certificate's proof predicts."""
    ps, gb = mutant
    report = verify_basis(gb, ps)
    assert not report.overall
    if not reference_check_buchberger(gb).passed:
        others = [c for c in report.checks if c.name != "buchberger"]
        assert not all(c.passed for c in others)


def s_pair_reductions(gb) -> tuple[int, bool]:
    """How many S-polynomials `check_buchberger` reduces, and its verdict."""
    calls = []
    reduce = verify.normal_form

    def counted(f, basis):
        calls.append(f)
        return reduce(f, basis)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "normal_form", counted)
        passed = check_buchberger(gb).passed
    return len(calls), passed


def test_two_variable_grid_reduces_consecutive_corners_only():
    gb = staircase_gb(PointSet(PrimeField(3), 2, product(range(3), repeat=2)))
    assert s_pair_reductions(gb) == (len(gb.elements) - 1, True)


@given(pointsets(fields=(QQ, F7, F13), max_n=2, max_size=12))
def test_two_variable_bases_reduce_consecutive_corners_only(ps):
    gb = staircase_gb(ps)
    assert s_pair_reductions(gb) == (len(gb.elements) - 1, True)


@given(st.one_of(engine_mutants().map(lambda m: m[1]), random_monic_sets()))
def test_s_pair_reductions_never_exceed_the_pair_count(gb):
    c = len(gb.elements)
    assert s_pair_reductions(gb)[0] <= c * (c - 1) // 2


@given(st.one_of(engine_mutants().map(lambda m: m[1]), random_monic_sets()))
@settings(max_examples=200)
def test_the_connectivity_criterion_keeps_a_subset_of_the_chain_pairs(gb):
    """Every pair the chain criterion drops is dropped too: its third
    exponent joins the pair's ends.  The kept pairs come in (i, j) order."""
    leading = [f.leading_exponent() for f in gb.elements]
    assume(len(set(leading)) == len(leading))
    kept = verify._connected_pairs(leading)
    assert kept == sorted(set(kept))
    assert set(kept) <= set(reference_chain_pairs(leading))


def test_the_kept_pair_count_on_the_first_grid_draws():
    """The first five `grid4` benchmark instances, 36 points of F_5^4:
    the connectivity criterion reduces fewer S-polynomials than the chain
    criterion, and every basis still passes."""
    rng = SplitMix64(101)
    reduced, chain = [], []
    for _ in range(5):
        gb = staircase_gb(random_pointset(rng, PrimeField(5), 4, 36))
        reduced.append(s_pair_reductions(gb))
        chain.append(len(reference_chain_pairs([f.leading_exponent() for f in gb.elements])))
    assert reduced == [(38, True), (35, True), (31, True), (35, True), (34, True)]
    assert chain == [50, 50, 40, 48, 44]


# -- the packed reduction kernel ----------------------------------------------

ALL_FIELDS = st.sampled_from([QQ, F7, F13])


@st.composite
def reducer_problems(draw):
    """A monic basis and several polynomials to divide by it in turn, so
    one `Reducer` serves calls that may each need a wider packing."""
    field = draw(ALL_FIELDS)
    n = draw(st.integers(1, 3))
    basis = draw(monic_bases(field, n))
    caps = st.sampled_from([2, 4, 9, 40])
    fs = [draw(polynomials(field, n, cap=draw(caps), max_terms=6)) for _ in range(3)]
    return basis, fs


@given(reducer_problems())
@settings(max_examples=200, deadline=None)
def test_the_packed_kernel_matches_the_reference(problem):
    basis, fs = problem
    reducer = Reducer(basis)
    for f in fs:
        expected = list(reference_normal_form(f, basis).terms.items())
        assert list(normal_form(f, reducer).terms.items()) == expected
        assert list(normal_form(f, basis).terms.items()) == expected


def xs(field, n, *exponents_and_coefficients):
    """The polynomial with the given (exponent, coefficient) terms."""
    return Polynomial(field, n, dict(exponents_and_coefficients))


@pytest.mark.parametrize("field", [QQ, F7, F13], ids=["QQ", "F7", "F13"])
def test_the_width_grows_along_a_substitution_chain(field):
    """With X2 - X1^5 and X3 - X2^5, X3^m reduces to X1^(25m), so a
    larger m needs a wider packing than the calls before it."""
    one = field.one
    minus = field.normalize(-one)
    basis = [
        xs(field, 3, ((0, 1, 0), one), ((5, 0, 0), minus)),
        xs(field, 3, ((0, 0, 1), one), ((0, 5, 0), minus)),
    ]
    reducer = Reducer(basis)
    widths = []
    for m in (1, 3, 20, 150, 2):
        f = xs(field, 3, ((0, 0, m), one), ((0, m, 0), one), ((1, 0, 0), one))
        assert normal_form(f, reducer) == reference_normal_form(f, basis)
        assert normal_form(f, reducer).leading_exponent() == (25 * m, 0, 0)
        widths.append(reducer._width)
    assert widths == sorted(widths) and widths[0] < widths[-2]


def test_a_coordinate_past_2_to_the_40():
    big = 2**40 + 3
    basis = [xs(F13, 2, ((0, 1), 1), ((5, 0), 12))]  # X2 - X1^5
    reducer = Reducer(basis)
    small = xs(F13, 2, ((0, 2), 1), ((1, 0), 1))
    assert normal_form(small, reducer) == reference_normal_form(small, basis)
    for f in (
        xs(F13, 2, ((big, 0), 1), ((0, 3), 2)),  # the huge term is irreducible
        xs(F13, 2, ((big, 1), 1), ((0, 3), 2)),
        small,
    ):
        ours = normal_form(f, reducer)
        assert list(ours.terms.items()) == list(reference_normal_form(f, basis).terms.items())
    assert normal_form(xs(F13, 2, ((big, 1), 1)), reducer) == xs(F13, 2, ((big + 5, 0), 1))


F5, WORD_PRIME = PrimeField(5), PrimeField(2**64 - 59)
CARRY_FIELDS = [F5, QQ, WORD_PRIME]


def substitution(field, n, a):
    """X2 - X1^a in n variables."""
    pad = (0,) * (n - 2)
    return xs(field, n, ((0, 1) + pad, field.one), ((a, 0) + pad, field.normalize(-field.one)))


# Division by [X2 - X1^9, X1^10 - 1] with B = 11, packed at 5 bits: the
# step X2 -> X1^9 on the lead of f puts X1^18 past the guard bit, so the
# call widens to n * 4 + 1 bits and divides X1^18 by X1^10 - 1 there.
# In three variables, X3*X1^3, X1^5*X2 and the constant are still in the
# working set and on the heap when X3*X1^18 crosses, with coordinates in
# fields that move when the width grows.
CARRIES = {
    "alone": (2, [((9, 1), 1), ((0, 0), 2)], [((8, 0), 1), ((0, 0), 2)], 9),
    "keys-waiting": (
        3,
        [((9, 1, 1), 1), ((3, 0, 1), 2), ((5, 1, 0), 3), ((0, 0, 0), 4)],
        [((8, 0, 1), 1), ((3, 0, 1), 2), ((4, 0, 0), 3), ((0, 0, 0), 4)],
        13,
    ),
}


@pytest.mark.parametrize("case", CARRIES)
@pytest.mark.parametrize("field", CARRY_FIELDS, ids=["F5", "QQ", "F_2^64-59"])
def test_a_carry_widens_once_and_gives_the_reference_remainder(field, case):
    n, f_terms, expected_terms, widened = CARRIES[case]
    pad = (0,) * (n - 2)
    one, minus = field.one, field.normalize(-field.one)
    basis = [substitution(field, n, 9), xs(field, n, ((10, 0) + pad, one), ((0, 0) + pad, minus))]
    f = xs(field, n, *((e, field.coerce(c)) for e, c in f_terms))
    expected = [(e, field.coerce(c)) for e, c in expected_terms]
    assert list(reference_normal_form(f, basis).terms.items()) == expected
    reducer = Reducer(basis)
    assert reducer._width == 5
    assert list(normal_form(f, reducer).terms.items()) == expected
    assert reducer._width == widened
    assert list(normal_form(f, reducer).terms.items()) == expected
    assert reducer._width == widened


@st.composite
def carry_problems(draw, field):
    """A basis holding X2 - X1^a (a >= 2) and other elements whose leads
    are lex-greater than X2, and an f led by X1^c * X2 * X3^q: its first
    step puts X1^(c + a) at or past 2^bitlen(B), with B one more than the
    largest coordinate of the basis and of f."""
    n = draw(st.integers(2, 3))
    a = draw(st.integers(2, 12))
    x2 = (0, 1) + (0,) * (n - 2)
    extra = [
        b
        for b in draw(monic_bases(field, n))
        if any(b.leading_exponent()[1:]) and b.leading_exponent() != x2
    ]
    basis = [substitution(field, n, a), *extra]
    b0 = max(max(map(max, b.terms)) for b in basis) + 1
    top = 1 << draw(st.sampled_from([b0.bit_length(), b0.bit_length() + 1]))
    c = draw(st.integers(max(top - a, b0 - 1), top - 2))
    lead = (c, 1) + (draw(st.integers(0, 2)),) * (n - 2)
    rest = draw(polynomials(field, n, cap=c, max_terms=6)).terms
    terms = {e: v for e, v in rest.items() if lex_key(e) < lex_key(lead)}
    terms[lead] = draw(nonzero_scalars(field))
    f = Polynomial(field, n, terms)
    bound = max(b0, max(map(max, f.terms)) + 1)
    assert c + a >= 1 << bound.bit_length()
    return basis, f


@pytest.mark.parametrize("field", [QQ, F7, F13, WORD_PRIME], ids=["QQ", "F7", "F13", "F_2^64-59"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_the_carry_path_matches_the_reference(field, data):
    basis, f = data.draw(carry_problems(field))
    reducer = Reducer(basis)
    expected = list(reference_normal_form(f, basis).terms.items())
    assert list(normal_form(f, reducer).terms.items()) == expected
    assert list(normal_form(f, reducer).terms.items()) == expected


def test_certificates_divide_at_the_tight_width_and_never_widen(monkeypatch):
    """On the grid4 draws no S-polynomial of a certificate carries: each
    `Reducer` stays at bitlen(B) + 1 bits a coordinate, for B one more
    than the largest coordinate it has seen, and no call widens it."""
    rng = SplitMix64(101)
    draws = [random_pointset(rng, F5, 4, 36) for _ in range(4)]
    bases = [staircase_gb(ps) for ps in draws]
    reduce, seen, calls = Reducer.reduce, {}, []

    def checked(self, f):
        # the reducer is kept in `seen`, so its id is not reused
        _, bound = seen.get(id(self), (self, 1))
        bound = max(bound, self._bound, max(map(max, f.terms), default=0) + 1)
        seen[id(self)] = self, bound
        out = reduce(self, f)
        calls.append(self._width == bound.bit_length() + 1)
        return out

    monkeypatch.setattr(Reducer, "reduce", checked)
    for ps, gb in zip(draws, bases):
        calls.clear()
        assert verify_basis(gb, ps).overall
        assert calls and all(calls)


@st.composite
def bases_in_two_orders(draw):
    field = draw(ALL_FIELDS)
    n = draw(st.integers(1, 3))
    basis = draw(monic_bases(field, n, cap=draw(st.sampled_from([3, 12])), max_size=6))
    return basis, draw(st.permutations(basis)), draw(polynomials(field, n, cap=6))


@given(bases_in_two_orders())
def test_a_reducer_grown_by_add_equals_one_built_at_once(drawn):
    basis, order, f = drawn
    grown = Reducer()
    for b in order:
        grown.add(b)
    at_once = Reducer(basis)
    assert grown.elements == at_once.elements
    assert [lex_key(b.leading_exponent()) for b in grown.elements] == sorted(
        lex_key(b.leading_exponent()) for b in basis
    )
    assert (grown._width, grown._reducers) == (at_once._width, at_once._reducers)
    assert list(normal_form(f, grown).terms.items()) == list(
        normal_form(f, at_once).terms.items()
    )


def test_a_rational_reducer_grown_across_a_width_change_divides_like_one_built_at_once():
    """X1^40 enters after X2^2 - (1/2)*X1*X2 + (3/5)*X2 and widens the
    packing, which rebuilds every element's tail in the rationals' term
    form, packed exponent with numerator and denominator.  The tail
    terms hold X2, whose field moves with the width, so a tail left at
    the old width would put the terms of X2^2's steps at the wrong
    exponents."""
    basis = [
        xs(QQ, 2, ((0, 2), 1), ((1, 1), Fraction(-1, 2)), ((0, 1), Fraction(3, 5))),
        xs(QQ, 2, ((40, 0), 1), ((3, 0), Fraction(2, 3)), ((0, 0), Fraction(-5, 7))),
    ]
    grown = Reducer()
    widths = []
    for b in basis:
        grown.add(b)
        widths.append(grown._width)
    assert widths[0] < widths[1]
    at_once = Reducer(basis)
    assert (grown._width, grown._reducers) == (at_once._width, at_once._reducers)
    assert [len(term) for _, tail in grown._reducers for term in tail] == [3, 3, 3, 3]
    f = xs(QQ, 2, ((41, 2), Fraction(3, 4)), ((2, 3), Fraction(-7, 5)), ((0, 1), 1))
    expected = list(reference_normal_form(f, basis).terms.items())
    assert list(normal_form(f, grown).terms.items()) == expected
    assert list(normal_form(f, at_once).terms.items()) == expected


def test_a_reducer_checks_each_element_as_it_enters():
    reducer = Reducer([xs(QQ, 2, ((1, 0), 1))])
    with pytest.raises(ValueError, match="monic"):
        reducer.add(xs(QQ, 2, ((0, 1), 2)))
    with pytest.raises(ValueError, match="duplicate"):
        reducer.add(xs(QQ, 2, ((1, 0), 1), ((0, 0), 1)))
    with pytest.raises(ValueError, match="dimension"):
        reducer.add(xs(QQ, 3, ((0, 0, 1), 1)))
    with pytest.raises(ValueError, match="field"):
        reducer.add(xs(F7, 2, ((0, 1), 1)))
    with pytest.raises(ValueError, match="dimension"):
        normal_form(xs(QQ, 3, ((0, 0, 1), 1)), reducer)
    assert len(reducer.elements) == 1


# -- set-up counts: one reducer per basis, not one per division ---------------


def count_reducers(monkeypatch) -> list:
    built = []
    init = Reducer.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Reducer, "__init__", counted)
    return built


def test_the_certificate_builds_one_reducer_per_basis(monkeypatch):
    gb = staircase_gb(PointSet(PrimeField(3), 3, product(range(3), repeat=3)))
    built = count_reducers(monkeypatch)
    divided_by = []
    reduce = verify.normal_form

    def recorded(f, basis):
        divided_by.append(basis)
        return reduce(f, basis)

    monkeypatch.setattr(verify, "normal_form", recorded)
    assert check_buchberger(gb).passed
    assert len(divided_by) > 1 and len(built) == 1
    assert all(basis is built[0] for basis in divided_by)


@pytest.mark.parametrize(
    "ps, shifts, divides",
    [
        (PointSet(PrimeField(3), 3, product(range(3), repeat=3)), False, False),
        (
            PointSet(PrimeField(5), 3, [p for p in product(range(5), repeat=3) if sum(p) % 3]),
            True,
            True,
        ),
        (PointSet(QQ, 2, [(1, 0), (1, 2), (2, 3), (3, 1), (3, 4)]), True, True),
    ],
    ids=["grid F_3^3", "sparse F_5^3", "five points"],
)
def test_the_engine_builds_a_reducer_only_where_a_lift_strays(ps, shifts, divides, monkeypatch):
    """A level is a `_lift_level` call: a branching node of the slice
    trie, which lifts corners from at least two slices.  It builds a
    reducer exactly when one of its lifts has a tail term outside the
    staircase, builds at most one, and divides only the lifts that stray,
    each by that reducer; `slice_representative` never divides, also when
    it shifts a slice element because the projected corner is not a slice
    corner.  On a full grid every projected corner is a slice corner and
    no lift strays."""
    levels, active, shifted, in_slices = [], [], [], []
    divisions = 0
    engine, lift = core._lift_level, core.build_phi
    represent, reduce = core.slice_representative, core.normal_form

    def level(field, n, slice_gbs):
        record = {"reducers": [], "strays": 0, "divided_by": [], "slices": len(slice_gbs)}
        active.append(record)
        try:
            gb = engine(field, n, slice_gbs)
        finally:
            active.pop()
        levels.append(record)
        return gb

    built, init = [], Reducer.__init__

    def made(self, *args):  # a reducer is charged to the level building it
        built.append(self)
        active[-1]["reducers"].append(self)
        init(self, *args)

    def lifted(field, beta, slice_gbs, stairs):
        phi = lift(field, beta, slice_gbs, stairs)
        active[-1]["strays"] += any(e not in stairs for e in list(phi.terms)[1:])
        return phi

    def representative(beta_hat, slice_gb):
        before = divisions
        tail = represent(beta_hat, slice_gb)
        in_slices.append(divisions - before)
        if tuple(beta_hat) not in slice_gb.staircase.corners():
            shifted.append(beta_hat)
        return tail

    def division(f, basis):
        nonlocal divisions
        divisions += 1
        active[-1]["divided_by"].append(basis)
        return reduce(f, basis)

    monkeypatch.setattr(Reducer, "__init__", made)
    monkeypatch.setattr(core, "_lift_level", level)
    monkeypatch.setattr(core, "build_phi", lifted)
    monkeypatch.setattr(core, "slice_representative", representative)
    monkeypatch.setattr(core, "normal_form", division)
    gb = core.staircase_gb(ps)
    assert gb == bm_gb(ps)
    assert bool(shifted) == shifts
    assert in_slices and not any(in_slices)
    assert levels
    for record in levels:
        assert record["slices"] >= 2
        reducers = record["reducers"]
        assert len(reducers) == (1 if record["strays"] else 0)
        assert len(record["divided_by"]) == record["strays"]
        assert all(basis is reducers[0] for basis in record["divided_by"])
    assert len(built) == sum(len(record["reducers"]) for record in levels)
    assert bool(built) == divides


# -- the oracle's row cache ----------------------------------------------------


def first_axis(e) -> int:
    return next((i for i, k in enumerate(e) if k), len(e) - 1)


def lowered(e, i):
    return e[:i] + (e[i] - 1,) + e[i + 1 :]


def raised(e, i):
    return e[:i] + (e[i] + 1,) + e[i + 1 :]


@given(st.one_of(pointsets(fields=(QQ, F7, F13), max_size=12), grid_pointsets(max_size=20)))
@settings(deadline=None)
def test_oracle_rows_come_from_cached_parents_and_are_freed(ps):
    """Each row is its cached parent's row times a column: the call adds
    exactly one row.  A corner's row is dropped at once, and a cell's
    once its last child, cell + e_j for j its first axis, has been
    evaluated; so what is left at the end is the rows of cells whose
    last child never came up."""
    evaluated, caches = [], []
    evaluate = bm.monomial_row

    def recorded(field, points, exponent, rows):
        if any(exponent):
            assert lowered(exponent, first_axis(exponent)) in rows
        size = len(rows)
        row = evaluate(field, points, exponent, rows)
        assert len(rows) == size + 1
        evaluated.append(exponent)
        caches.append(rows)
        return row

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bm, "monomial_row", recorded)
        gb = bm.bm_gb(ps)
    cache = caches[0]
    assert all(rows is cache for rows in caches)
    stairs = gb.staircase
    seen = set(evaluated)
    assert not set(cache) & stairs.corners()
    assert set(cache) == {c for c in stairs.cells if raised(c, first_axis(c)) not in seen}
