"""Delayed reduction: the product, the interpolation, the lift and the
division add and multiply raw values and normalize once per coefficient
read (see `pointideal.field`).

These tests pin them to the references, which normalize after every
native operation, over the field of two elements, a mid-sized prime, the
word-size prime 2^61 - 1 and the rationals, and check that every
coefficient returned is a nonzero canonical scalar.  `Polynomial.__eq__`
compares stored values as they are, so an unreduced coefficient fails
the comparisons.
"""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pointideal import (
    GroebnerBasis,
    PointSet,
    Polynomial,
    PrimeField,
    QQ,
    Staircase,
    bm_gb,
    char_poly_family,
    check_vanishing,
    core,
    normal_form,
    poly,
    staircase_gb,
    verify_basis,
)

from pointideal.bench import SplitMix64
from pointideal.cli import main
from pointideal.io import basis_to_dict, canonical_dumps, pointset_to_dict
from pointideal.poly import lex_key

from reference import (
    canonical_entry,
    evaluate,
    is_canonical,
    reference_char_poly,
    reference_check_vanishing,
    reference_mul,
    reference_normal_form,
    scaled_back,
)
from strategies import monic_bases, polynomials, rationals

F2 = PrimeField(2)
F5 = PrimeField(5)
F7919 = PrimeField(7919)
F61 = PrimeField(2**61 - 1)
FIELDS = st.sampled_from([F2, F7919, F61, QQ])


def stored_canonical(f: Polynomial) -> bool:
    """Every coefficient of f is nonzero and canonical; over F_p it lies
    in range(1, p)."""
    return all(c and is_canonical(f.field, c) for c in f.terms.values())


@st.composite
def products(draw):
    field = draw(FIELDS)
    n = draw(st.integers(1, 3))
    return draw(polynomials(field, n, max_terms=6)), draw(polynomials(field, n, max_terms=6))


@given(products())
@settings(max_examples=200)
def test_the_product_matches_the_reference(pair):
    f, g = pair
    product = f * g
    assert list(product.terms.items()) == list(reference_mul(f, g).terms.items())
    assert stored_canonical(product)


@st.composite
def value_sets(draw):
    # CHECKED (below) also requires reference_char_poly to hand `inv` a
    # normalized denominator
    field = draw(st.one_of(FIELDS, st.just(CHECKED)))
    scalar = rationals() if field == QQ else st.integers(0, field.p - 1)
    size = 8 if field == QQ else min(8, field.p)
    return field, draw(st.lists(scalar, min_size=1, max_size=size, unique=True))


@given(value_sets())
def test_the_family_matches_char_poly(drawn):
    field, values = drawn
    family = char_poly_family(field, values)
    for a in values:
        chi = reference_char_poly(field, values, a)
        coeffs = scaled_back(field, family[a])
        assert len(family[a][0]) == len(values)
        assert canonical_entry(field, family[a])
        assert all(is_canonical(field, c) for c in coeffs)
        assert Polynomial(field, 1, {(k,): c for k, c in enumerate(coeffs)}) == chi
        assert stored_canonical(chi)
        for b in values:
            assert evaluate(chi, (b,)) == (field.one if a == b else field.zero)


@st.composite
def divisions(draw):
    field = draw(FIELDS)
    n = draw(st.integers(1, 3))
    return draw(polynomials(field, n, cap=4, max_terms=6)), draw(monic_bases(field, n))


@given(divisions())
@settings(max_examples=200)
def test_the_division_matches_the_reference(problem):
    f, basis = problem
    remainder = normal_form(f, basis)
    expected = reference_normal_form(f, basis)
    assert list(remainder.terms.items()) == list(expected.terms.items())
    assert stored_canonical(remainder)


def test_raw_contributions_that_sum_to_a_multiple_of_p_cancel():
    """Divide X1*X2 + X1^3 + X1 by X2 + 2*X1 and X1^3 + 3*X1^2 over F_5.
    Cancelling X1*X2 leaves the raw value -2 at X1^2; cancelling X1^3
    adds -3 there.  The raw sum -5 is nonzero but is 0 in F_5, so X1^2
    must not reach the remainder."""
    f = Polynomial(F5, 2, {(1, 1): 1, (3, 0): 1, (1, 0): 1})
    basis = [
        Polynomial(F5, 2, {(0, 1): 1, (1, 0): 2}),
        Polynomial(F5, 2, {(3, 0): 1, (2, 0): 3}),
    ]
    remainder = normal_form(f, basis)
    assert (2, 0) not in remainder.terms
    assert list(remainder.terms.items()) == [((1, 0), 1)]
    assert remainder == reference_normal_form(f, basis)


@pytest.mark.parametrize(
    "c, tail", [(Fraction(1, 2), Fraction(2, 3)), (Fraction(1), Fraction(1, 3))],
    ids=["unequal denominators", "equal denominators"],
)
def test_raw_pairs_that_sum_to_zero_cancel(c, tail):
    """Divide c*X1*X2 + X1^3 + X1 by X2 + tail*X1 and X1^3 - (1/3)*X1^2
    over QQ.  Cancelling c*X1*X2 leaves the raw pair -c * tail at X1^2,
    (-2, 6) or (-1, 3), and cancelling X1^3 adds the pair (1, 3): the
    first sum goes through the common denominator 18, the second adds
    the numerators.  Either sum has numerator 0, so X1^2 must not reach
    the remainder."""
    f = Polynomial(QQ, 2, {(1, 1): c, (3, 0): 1, (1, 0): 1})
    basis = [
        Polynomial(QQ, 2, {(0, 1): 1, (1, 0): tail}),
        Polynomial(QQ, 2, {(3, 0): 1, (2, 0): Fraction(-1, 3)}),
    ]
    assert c * tail == Fraction(1, 3)
    remainder = normal_form(f, basis)
    assert list(remainder.terms.items()) == [((1, 0), 1)]
    assert remainder == reference_normal_form(f, basis)


def wide_rationals():
    """Rationals whose denominators run up to 10^6, drawn often from a few
    shared values so that raw pairs meet equal denominators as well as
    unequal ones."""
    dens = st.one_of(st.sampled_from([1, 6, 999983, 10**6]), st.integers(1, 10**6))
    return st.builds(Fraction, st.integers(-(10**6), 10**6), dens)


@st.composite
def wide_divisions(draw):
    """A QQ polynomial and a monic basis whose coefficients are
    `wide_rationals`, so that every tail mixes denominators."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 4)] * n)
    f = Polynomial(QQ, n, draw(st.dictionaries(exps, wide_rationals(), max_size=6)))
    leads = draw(st.lists(exps, min_size=1, max_size=4, unique=True))
    basis = []
    for lead in leads:
        tail = draw(st.dictionaries(exps, wide_rationals().filter(bool), max_size=4))
        terms = {e: c for e, c in tail.items() if lex_key(e) < lex_key(lead)}
        terms[lead] = 1
        basis.append(Polynomial(QQ, n, terms))
    return f, basis


@given(wide_divisions())
@settings(max_examples=150)
def test_the_division_on_wide_denominators_matches_the_reference(problem):
    f, basis = problem
    remainder = normal_form(f, basis)
    expected = reference_normal_form(f, basis)
    assert list(remainder.terms.items()) == list(expected.terms.items())
    assert stored_canonical(remainder)


@st.composite
def word_size_pointsets(draw):
    """Points of F_(2^61 - 1)^n.  Coordinates are drawn uniformly or
    near 0 and near p, so that slices share first coordinates and the
    raw products run up to about p^2."""
    p = F61.p
    coord = st.one_of(st.integers(0, p - 1), st.integers(-3, 3).map(lambda x: x % p))
    n = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=10, unique=True))
    return PointSet(F61, n, pts)


@given(word_size_pointsets())
@settings(max_examples=80, deadline=None)
def test_engines_agree_over_the_word_size_prime(ps):
    gb = staircase_gb(ps)
    assert gb == bm_gb(ps)
    assert verify_basis(gb, ps).overall
    assert all(stored_canonical(f) for f in gb.elements)


@st.composite
def wide_pointsets(draw):
    """Points of QQ^n, n <= 3, with coordinates whose denominators reach
    10^6 (`wide_rationals`).  Each coordinate is drawn often from a few
    values shared by the points, so that the engine lifts levels at every
    depth, not only the one-point and one-slice closed forms."""
    n = draw(st.integers(1, 3))
    shared = draw(st.lists(wide_rationals(), min_size=1, max_size=3))
    coord = st.one_of(st.sampled_from(shared), wide_rationals())
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=8, unique=True))
    return PointSet(QQ, n, pts)


@given(wide_pointsets())
@settings(max_examples=60, deadline=None)
def test_engines_agree_on_wide_rational_denominators(ps):
    gb = staircase_gb(ps)
    assert gb == bm_gb(ps)
    assert verify_basis(gb, ps).overall
    assert all(stored_canonical(f) for f in gb.elements)


def wide2(seed: int, size: int) -> PointSet:
    """`size` distinct points of QQ^2 drawn from SplitMix64(seed), X1
    first: X1 = a/b with |a| <= 10^6 and b <= 10^6, X2 = a/b with
    |a| <= 9 and b <= 4.  Nearly every point is a slice of its own, so
    the lift at the corner X2 interpolates across all of them, with a
    different denominator on every slice."""
    rng = SplitMix64(seed)

    def draw(bound, max_den):
        return Fraction(rng.below(2 * bound + 1) - bound, rng.below(max_den) + 1)

    points: set = set()
    while len(points) < size:
        x1 = draw(10**6, 10**6)
        points.add((x1, draw(9, 4)))
    return PointSet(QQ, 2, points)


# sha256 of the `canonical_dumps` of each basis, from the engine that
# summed the lift's columns in `Fraction` arithmetic
WIDE2_SHA256 = {
    (5, 12): "84c9604c2e4e0a209e17257b8c08f6c559c04b94aa31e167a7af50a9f8b05196",
    (6, 16): "9e413350e7c623225c3be675d819ab042ea6d5db3f21f428c4c8336505718f19",
    (7, 20): "c07b7a8fea13f2f229e78f39aeed56557d0041066ccb92f89c2e0252043901d0",
}


@pytest.mark.parametrize("seed, size", sorted(WIDE2_SHA256))
def test_the_lift_keeps_its_bases_across_wide_denominators(seed, size):
    """The lift's columns over one lcm denominator, which grows with
    every slice's scale 1 / H, give the engine the oracle's basis, a
    certified one, byte for byte the pinned one."""
    ps = wide2(seed, size)
    gb = staircase_gb(ps)
    assert gb == bm_gb(ps)
    assert verify_basis(gb, ps).overall
    digest = hashlib.sha256(canonical_dumps(basis_to_dict(gb)).encode()).hexdigest()
    assert digest == WIDE2_SHA256[seed, size]


class CheckedField(PrimeField):
    """F_p that checks the delayed-reduction contract of `field`: every
    scalar handed to `inv`, to `format` or to the row kernel
    `vec_sub_scaled` is canonical, every slot of a stored packed row
    handed to `vec_sub_scaled` holds a canonical value, every slot of
    the row it returns stays below 2^(slot - 1), the bound the slot
    width is sized for, with no bit above the last slot, and every raw
    value handed to `normalize` is below 2^12 * p^2, a sum of at most
    2^12 products of canonical scalars.  A Horner step held raw would
    grow by a field width per step and break the bound.  Native
    ``+ - *`` cannot be checked on plain ints; what they build is
    checked where it is read, by `normalize` here and by the
    stored-coefficient check of `checked_fill`.  The slots are read in
    the row form last built, by the echelon, by the vanishing check or
    by the lift, which `_rows` records."""

    def normalize(self, x):
        assert abs(x) < 2**12 * self.p**2, f"a raw value grew to {x.bit_length()} bits"
        return super().normalize(x)

    def _check(self, *scalars):
        assert all(is_canonical(self, c) for c in scalars), scalars

    def inv(self, a):
        self._check(a)
        return super().inv(a)

    def format(self, x):
        self._check(x)
        return super().format(x)

    def _rows(self, width, updates):
        self.form = super()._rows(width, updates)
        return self.form

    def vec_sub_scaled(self, row, c, other):
        slot, mask, shifts = self.form.slot, self.form.mask, self.form.shifts
        self._check(c, *((other >> s) & mask for s in shifts))
        assert other >> (len(shifts) * slot) == 0, "a stored row has extra slots"
        row = super().vec_sub_scaled(row, c, other)
        assert all((row >> s) & mask < 1 << (slot - 1) for s in shifts), "a slot outgrew its bound"
        assert row >> (len(shifts) * slot) == 0, "a slot carried past the last one"
        return row


CHECKED = CheckedField(7919)
real_fill = poly._fill


def checked_fill(p, field, n, terms):
    """`poly._fill`, which every `Polynomial` is built through, refusing
    a stored coefficient that is zero or not canonical."""
    assert all(c and is_canonical(field, c) for c in terms.values()), terms
    real_fill(p, field, n, terms)


@st.composite
def checked_pointsets(draw):
    """Points of F_7919^n, with coordinates uniform or small, so that
    both generic slices and shared first coordinates occur."""
    coord = st.one_of(st.integers(0, 3), st.integers(0, CHECKED.p - 1))
    n = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=14, unique=True))
    return PointSet(CHECKED, n, pts)


@given(checked_pointsets())
@settings(max_examples=120, deadline=None)
def test_raw_values_stay_bounded_and_only_canonical_ones_are_stored(ps):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_fill", checked_fill)
        gb = staircase_gb(ps)
        assert verify_basis(gb, ps).overall
        assert gb == bm_gb(ps)


def test_the_lift_sums_its_columns_through_the_checked_kernel():
    """Every column update of the lift is a `vec_sub_scaled` call, so the
    slot checks of `CheckedField` cover `build_phi` as well as the
    echelon and the vanishing check."""
    real_lift, real_update = core.build_phi, CheckedField.vec_sub_scaled
    inside, updates = [], []

    def lift(*args):
        inside.append(args[1])
        try:
            return real_lift(*args)
        finally:
            inside.pop()

    def update(self, row, c, other):
        if inside:
            updates.append(c)
        return real_update(self, row, c, other)

    ps = PointSet(CHECKED, 2, [(a, (b * b + 5 * a) % 7919) for a in range(5) for b in range(a + 2)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "build_phi", lift)
        mp.setattr(CheckedField, "vec_sub_scaled", update)
        gb = staircase_gb(ps)
    assert len(updates) > 0
    assert gb == bm_gb(ps)
    assert verify_basis(gb, ps).overall


@given(checked_pointsets(), st.data())
@settings(max_examples=120, deadline=None)
def test_the_vanishing_sums_stay_within_their_slots(ps, data):
    """`check_vanishing` adds one product of canonical scalars per term
    to each point's slot, so every slot of every sum it builds stays
    below the bound its slot width is sized for, with no carry past the
    last slot (checked by `CheckedField.vec_sub_scaled`).  Checked on the
    engine's basis and on a copy with one coefficient changed, whose
    verdict and witness (a canonical value) must be the reference's."""
    gb = staircase_gb(ps)
    elements = list(gb.elements)
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(elements) - 1))
        terms = dict(elements[i].terms)
        e = data.draw(st.sampled_from(sorted(terms, key=lex_key)))
        terms[e] = CHECKED.normalize(terms[e] + data.draw(st.integers(1, CHECKED.p - 1)))
        assume(terms[e] or len(terms) > 1)
        elements[i] = Polynomial(CHECKED, ps.n, terms)
    basis = GroebnerBasis(gb.staircase, tuple(elements))
    assert check_vanishing(basis, ps) == reference_check_vanishing(basis, ps)


@pytest.mark.parametrize("p", [5, 2**64 - 59])
def test_vanishing_slots_are_sized_by_terms_not_points(p, tmp_path, capsys):
    """One point, p - 1, and a basis with the staircase {1, ..., X1^49}
    and the one element X1^50 + sum of (-1)^k X1^k, k < 50: the shape
    passes and the dimension fails, so the vanishing check sums 51
    terms at one point, and each odd k adds (p - 1)^2 to the point's
    slot.  The value is 51 modulo p; `check_vanishing` and the CLI's
    `check` both report the reference's witness."""
    f = PrimeField(p)
    ps = PointSet(f, 1, [(p - 1,)])
    terms = {(50,): 1, **{(k,): f.coerce((-1) ** k) for k in range(50)}}
    gb = GroebnerBasis(Staircase(1, [(k,) for k in range(50)]), (Polynomial(f, 1, terms),))
    expected = reference_check_vanishing(gb, ps)
    assert expected.witness == (
        f"element with leading exponent (50,) evaluates to {51 % p} at ({p - 1},)"
    )
    assert check_vanishing(gb, ps) == expected
    points, basis = tmp_path / "points.json", tmp_path / "basis.json"
    points.write_text(json.dumps(pointset_to_dict(ps)), encoding="utf-8")
    basis.write_text(json.dumps(basis_to_dict(gb)), encoding="utf-8")
    assert main(["check", "--points", str(points), "--basis", str(basis)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"vanishing: FAIL ({expected.witness})"
    assert out[1:] == [
        "reduced_shape: PASS",
        "buchberger: PASS",
        "dimension: FAIL (quotient dimension 50 != 1 points)",
        "overall: FAIL",
    ]
