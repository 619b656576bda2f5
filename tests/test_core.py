from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointideal import (
    DuplicatePointError,
    GroebnerBasis,
    PointSet,
    Polynomial,
    PrimeField,
    QQ,
    Staircase,
    bm_gb,
    bm_staircase,
    build_phi,
    compute_staircase,
    normal_form,
    slice_decompose,
    slice_representative,
    staircase_gb,
)
from pointideal import core
from pointideal.poly import lex_key

from reference import (
    evaluate,
    poly_add,
    poly_sub,
    reference_build_phi,
    reference_char_poly,
    variable,
)
from strategies import F2, F13, grid_pointsets, pointsets, polynomials


def qpoly(terms, n=2):
    return Polynomial(QQ, n, {e: F(c) for e, c in terms.items()})


class TestPointSet:
    def test_duplicate_detection(self):
        with pytest.raises(DuplicatePointError) as exc:
            PointSet(QQ, 2, [(1, 0), (2, 2), (1, 0)])
        assert exc.value.first_index == 0
        assert exc.value.second_index == 2

    def test_order_insensitive(self):
        a = PointSet(QQ, 2, [(1, 0), (3, 4)])
        b = PointSet(QQ, 2, [(3, 4), (1, 0)])
        assert a == b

    def test_coordinate_count(self):
        with pytest.raises(ValueError, match="coordinates"):
            PointSet(QQ, 2, [(1, 0, 3)])

    def test_coercion(self):
        ps = PointSet(QQ, 1, [(5,)])
        assert ps.points == ((F(5),),)


class TestSliceDecompose:
    def test_four_points(self, example_a):
        slices = slice_decompose(example_a)
        assert [a1 for a1, _ in slices] == [F(1), F(3)]
        assert slices[0][1] == PointSet(QQ, 1, [(0,), (2,)])
        assert slices[1][1] == PointSet(QQ, 1, [(1,), (4,)])

    def test_five_points(self, example_a_prime):
        slices = dict(slice_decompose(example_a_prime))
        assert sorted(slices) == [F(1), F(2), F(3)]
        assert slices[F(2)] == PointSet(QQ, 1, [(3,)])

    def test_single_point(self):
        slices = slice_decompose(PointSet(QQ, 2, [(5, 7)]))
        assert slices == [(F(5), PointSet(QQ, 1, [(7,)]))]

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError):
            slice_decompose(PointSet(QQ, 1, [(1,)]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            slice_decompose(PointSet(QQ, 2, []))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(pointsets(), grid_pointsets()).filter(lambda ps: ps.n >= 2))
    def test_slices_equal_validated_point_sets(self, ps):
        """Each slice equals the point set the constructor makes of its
        points, and the keys ascend."""
        slices = slice_decompose(ps)
        keys = [a1 for a1, _ in slices]
        assert keys == sorted(set(keys))
        for _, part in slices:
            validated = PointSet(ps.field, ps.n - 1, part.points)
            assert part == validated and hash(part) == hash(validated)


class TestComputeStaircase:
    def test_four_points(self, example_a):
        expected = Staircase(2, {(0, 0), (1, 0), (0, 1), (1, 1)})
        assert compute_staircase(example_a) == expected

    def test_five_points(self, example_a_prime):
        expected = Staircase(2, {(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)})
        assert compute_staircase(example_a_prime) == expected

    def test_single_point_three_variables(self):
        ps = PointSet(QQ, 3, [(4, 5, 6)])
        assert compute_staircase(ps) == Staircase(3, {(0, 0, 0)})

    def test_empty(self):
        assert compute_staircase(PointSet(QQ, 2, [])) == Staircase(2)

    @given(pointsets())
    def test_size_equals_point_count(self, ps):
        assert len(compute_staircase(ps)) == len(ps)


class TestSliceRepresentative:
    # slice_representative returns the representative's tail; the
    # representative is the monomial X^beta_hat plus that tail, a stored
    # slice element shifted by a monomial
    def test_beyond_a_single_root(self):
        gb = staircase_gb(PointSet(QQ, 1, [(3,)]))
        tail = slice_representative((2,), gb)
        assert tail == Polynomial(QQ, 1, {(1,): F(-3)})

    def test_beyond_two_roots(self):
        gb = staircase_gb(PointSet(QQ, 1, [(0,), (2,)]))
        tail = slice_representative((2,), gb)
        assert tail == Polynomial(QQ, 1, {(1,): F(-2)})

    def test_corner_returns_the_element(self):
        gb = staircase_gb(PointSet(QQ, 1, [(0,), (2,)]))
        assert slice_representative((2,), gb) == gb.elements[0].tail()

    def test_the_first_dividing_element_is_shifted(self):
        # on the grid {0, 1}^2 both leading exponents (2, 0) and (0, 2)
        # divide (2, 2); the lex-smaller one, X1^2 - X1, is shifted by X2^2
        gb = staircase_gb(PointSet(QQ, 2, [(0, 0), (0, 1), (1, 0), (1, 1)]))
        assert slice_representative((2, 2), gb) == qpoly({(1, 2): -1})

    def test_inside_staircase_rejected(self):
        gb = staircase_gb(PointSet(QQ, 1, [(0,), (2,)]))
        with pytest.raises(ValueError, match="inside"):
            slice_representative((1,), gb)

    def test_higher_exponent_vanishes_on_slice(self):
        gb = staircase_gb(PointSet(QQ, 1, [(1,), (4,)]))
        tail = slice_representative((3,), gb)
        rep = poly_add(Polynomial(QQ, 1, {(3,): 1}), tail)
        assert rep.is_monic() and rep.leading_exponent() == (3,)
        for v in (F(1), F(4)):
            assert evaluate(rep, (v,)) == 0


def slice_bases(ps):
    return [(a1, staircase_gb(part)) for a1, part in slice_decompose(ps)]


class TestBuildPhi:
    def test_pure_power_corner(self, example_a_prime):
        phi = build_phi(
            QQ, (3, 0), slice_bases(example_a_prime), compute_staircase(example_a_prime)
        )
        assert phi == qpoly({(3, 0): 1, (2, 0): -6, (1, 0): 11, (0, 0): -6})

    def test_mixed_corner(self, example_a_prime):
        phi = build_phi(
            QQ, (2, 1), slice_bases(example_a_prime), compute_staircase(example_a_prime)
        )
        x1 = variable(QQ, 2, 1)
        x2 = variable(QQ, 2, 2)
        one = Polynomial(QQ, 2, {(0, 0): 1})
        three = Polynomial(QQ, 2, {(0, 0): F(3)})
        assert phi == poly_sub(x1, one) * poly_sub(x1, three) * poly_sub(x2, three)

    def test_interpolated_corner(self, example_a_prime):
        # assemble the same polynomial by hand: interpolate the three
        # slice representatives with characteristic polynomials in X1
        phi = build_phi(
            QQ, (0, 2), slice_bases(example_a_prime), compute_staircase(example_a_prime)
        )
        g = qpoly({(2,): 1, (1,): -2}, n=1)
        h = qpoly({(2,): 1, (1,): -5, (0,): 4}, n=1)
        i = qpoly({(2,): 1, (1,): -3}, n=1)  # X2 * (X2 - 3), the X1 = 2 slice
        nodes = [F(1), F(2), F(3)]
        expected = Polynomial(QQ, 2)
        for node, rep in [(F(1), g), (F(2), i), (F(3), h)]:
            chi = {e + (0,): c for e, c in reference_char_poly(QQ, nodes, node).terms.items()}
            lifted = {(0,) + e: c for e, c in rep.terms.items()}
            expected = poly_add(expected, Polynomial(QQ, 2, chi) * Polynomial(QQ, 2, lifted))
        assert phi == expected

    def test_split_sizes_match_corner_coordinates(self, example_a_prime):
        """The slices whose staircase holds the projected corner are the
        inside ones, beta[0] of them (see `build_phi`)."""
        bases = slice_bases(example_a_prime)

        def split(corner):
            inside = [a1 for a1, gb in bases if corner[1:] in gb.staircase]
            return inside, [a1 for a1, _ in bases if a1 not in inside]

        assert split((2, 1)) == ([F(1), F(3)], [F(2)])
        assert split((0, 2)) == ([], [F(1), F(2), F(3)])

    def test_non_corner_rejected(self, example_a_prime):
        with pytest.raises(ValueError, match="corner"):
            build_phi(
                QQ, (1, 1), slice_bases(example_a_prime), compute_staircase(example_a_prime)
            )

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(pointsets(max_n=3), grid_pointsets(max_size=20)).filter(lambda ps: ps.n >= 2)
    )
    def test_agrees_with_the_reference_at_every_corner(self, ps):
        bases = slice_bases(ps)
        stairs = compute_staircase(ps)
        for corner in stairs.sorted_corners():
            got = build_phi(ps.field, corner, bases, stairs)
            assert got == reference_build_phi(ps.field, corner, bases, stairs)

    @settings(max_examples=30, deadline=None)
    @given(
        st.one_of(pointsets(fields=(QQ, F13)), grid_pointsets(max_size=20)).filter(
            lambda ps: ps.n >= 2
        ),
        st.data(),
    )
    def test_any_slice_representatives_reduce_to_the_engines_element(self, ps, data):
        """The lift may read any monic member of each slice ideal led by
        the projected corner: add to each representative a multiple of a
        slice element led below it, and dividing the lift by the elements
        finished before the corner still gives the engine's element."""
        fld = ps.field
        bases = slice_bases(ps)
        stairs = compute_staircase(ps)
        gb = staircase_gb(ps)
        represent = core.slice_representative

        def disturbed(beta_hat, slice_gb):
            tail = represent(beta_hat, slice_gb)
            top = lex_key(tuple(beta_hat))
            lower = [g for g in slice_gb.elements if lex_key(g.leading_exponent()) < top]
            if not lower:  # beta_hat is the slice's lex-least corner
                return tail
            g = data.draw(st.sampled_from(lower))
            q = data.draw(polynomials(fld, slice_gb.n, cap=2, max_terms=4))
            lead = g.leading_exponent()
            below = {
                e: c
                for e, c in q.terms.items()
                if lex_key(tuple(x + y for x, y in zip(e, lead))) < top
            }
            return poly_add(tail, Polynomial(fld, slice_gb.n, below) * g)

        for i, f in enumerate(gb.elements):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(core, "slice_representative", disturbed)
                phi = build_phi(fld, f.leading_exponent(), bases, stairs)
            assert normal_form(phi, gb.elements[:i]) == f

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            pointsets(fields=(QQ, F13)),
            pointsets(fields=(PrimeField(2), PrimeField(5)), max_size=12),
            grid_pointsets(max_size=20),
        ).filter(lambda ps: ps.n >= 2)
    )
    def test_the_lift_is_written_in_order_and_kept_when_it_stays_inside(self, ps):
        """`build_phi` hands its product two factors written
        lex-descending with no zero coefficient (the `ordered=True`
        contract of `Polynomial._trusted`); over F_2 and F_5 column and
        vanishing coefficients often normalize to 0.  A lift whose tail
        lies inside the staircase is already the engine's element, so
        dividing it by the earlier elements leaves it as it is."""
        fld = ps.field
        bases = slice_bases(ps)
        stairs = compute_staircase(ps)
        gb = staircase_gb(ps)
        factors = []
        mul = Polynomial.__mul__

        def recorded(self, other):
            factors.extend((self, other))
            return mul(self, other)

        for i, f in enumerate(gb.elements):
            corner = f.leading_exponent()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(Polynomial, "__mul__", recorded)
                phi = build_phi(fld, corner, bases, stairs)
            for p in factors:
                keys = [lex_key(e) for e in p.terms]
                assert keys == sorted(set(keys), reverse=True)
                assert all(c != fld.zero and fld.coerce(c) == c for c in p.terms.values())
            factors.clear()
            if all(e in stairs for e in list(phi.terms)[1:]):
                assert normal_form(phi, gb.elements[:i]) == phi == f

    def test_one_product_per_lift(self, example_a_prime, monkeypatch):
        # corner (3, 0) has three inside slices and (2, 1) two; the
        # vanishing product over them is a single multiplication
        counts = {"mul": 0, "lift": 0}
        mul, lift = Polynomial.__mul__, core.build_phi

        def counted_mul(self, other):
            counts["mul"] += 1
            return mul(self, other)

        def counted_lift(*args):
            counts["lift"] += 1
            return lift(*args)

        monkeypatch.setattr(Polynomial, "__mul__", counted_mul)
        monkeypatch.setattr(core, "build_phi", counted_lift)
        staircase_gb(example_a_prime)
        assert counts["lift"] == 3
        assert counts["mul"] <= counts["lift"]

    def test_vanishes_on_all_points(self, example_a_prime):
        bases = slice_bases(example_a_prime)
        stairs = compute_staircase(example_a_prime)
        for corner in stairs.sorted_corners():
            phi = build_phi(QQ, corner, bases, stairs)
            assert phi.is_monic()
            assert phi.leading_exponent() == corner
            for pt in example_a_prime:
                assert evaluate(phi, pt) == 0


class TestStaircaseGb:
    def test_four_points_exact(self, example_a):
        gb = staircase_gb(example_a)
        assert gb.elements == (
            qpoly({(2, 0): 1, (1, 0): -4, (0, 0): 3}),
            qpoly({(0, 2): 1, (1, 1): F(-3, 2), (0, 1): F(-1, 2), (1, 0): 2, (0, 0): -2}),
        )

    def test_five_points(self, example_a_prime):
        gb = staircase_gb(example_a_prime)
        assert [f.leading_exponent() for f in gb.elements] == [(3, 0), (2, 1), (0, 2)]
        assert gb.elements[0] == qpoly({(3, 0): 1, (2, 0): -6, (1, 0): 11, (0, 0): -6})
        assert gb.quotient_dimension() == 5

    def test_reduction_bridges_lift_and_element(self, example_a_prime):
        # the interpolated lift differs from the finished element by the
        # lift's own coefficient at the earlier corner times that element
        gb = staircase_gb(example_a_prime)
        by_corner = {f.leading_exponent(): f for f in gb.elements}
        phi = build_phi(
            QQ, (0, 2), slice_bases(example_a_prime), compute_staircase(example_a_prime)
        )
        c = phi.terms[(2, 1)]
        assert c == F(-1, 2)
        assert by_corner[(0, 2)] == poly_sub(phi, Polynomial(QQ, 2, {(0, 0): c}) * by_corner[(2, 1)])

    def test_single_point(self):
        gb = staircase_gb(PointSet(QQ, 3, [(2, 5, 7)]))
        x = lambda i: variable(QQ, 3, i)
        c = lambda v: Polynomial(QQ, 3, {(0, 0, 0): F(v)})
        assert gb.elements == (poly_sub(x(1), c(2)), poly_sub(x(2), c(5)), poly_sub(x(3), c(7)))

    def test_empty(self):
        gb = staircase_gb(PointSet(QQ, 2, []))
        assert gb.quotient_dimension() == 0
        assert gb.elements == (Polynomial(QQ, 2, {(0, 0): 1}),)

    def test_univariate(self):
        gb = staircase_gb(PointSet(QQ, 1, [(1,), (2,), (3,)]))
        assert gb.elements == (
            Polynomial(QQ, 1, {(3,): F(1), (2,): F(-6), (1,): F(11), (0,): F(-6)}),
        )

    def test_permutation_invariance(self, example_a_prime):
        reordered = PointSet(QQ, 2, [(3, 4), (2, 3), (1, 2), (3, 1), (1, 0)])
        assert staircase_gb(reordered) == staircase_gb(example_a_prime)

    @settings(max_examples=40, deadline=None)
    @given(pointsets())
    def test_structure_on_random_instances(self, ps):
        gb = staircase_gb(ps)
        stairs = compute_staircase(ps)
        assert gb.staircase == stairs
        assert {f.leading_exponent() for f in gb.elements} == set(stairs.corners())
        for f in gb.elements:
            assert f.is_monic()
            assert all(e in stairs for e in f.tail().terms)
            for pt in ps:
                assert evaluate(f, pt) == ps.field.zero

    @settings(max_examples=40, deadline=None)
    @given(pointsets(max_n=2, max_size=6))
    def test_first_coordinate_counts(self, ps):
        if ps.n < 2:
            return
        bases = slice_bases(ps)
        for corner in compute_staircase(ps).sorted_corners():
            assert sum(corner[1:] in gb.staircase for _, gb in bases) == corner[0]

    @settings(max_examples=25, deadline=None)
    @given(polynomials(), polynomials())
    def test_ideal_membership(self, q1, q2):
        gb = staircase_gb(PointSet(QQ, 2, [(1, 0), (1, 2), (3, 1), (3, 4)]))
        combo = poly_add(q1 * gb.elements[0], q2 * gb.elements[1])
        assert normal_form(combo, gb.elements).is_zero
        for cell in gb.staircase.cells:
            mono = Polynomial(QQ, 2, {cell: 1})
            assert normal_form(mono, gb.elements) == mono


def spread(t, positions, values):
    """t with `values` inserted so that they land at `positions`, which
    ascend and index the result."""
    out = list(t)
    for p, v in zip(positions, values):
        out.insert(p, v)
    return tuple(out)


@st.composite
def embedded_pointsets(draw):
    """A point set A, and A with constant coordinates c inserted at
    positions of the result: (A, positions, c, the embedded set)."""
    field = draw(st.sampled_from((QQ, F2, F13)))
    a = draw(pointsets(fields=(field,), max_size=6))
    k = draw(st.integers(1, 4))
    positions = sorted(draw(st.sets(st.integers(0, a.n + k - 1), min_size=k, max_size=k)))
    coord = st.integers(-9, 9).map(F) if field == QQ else st.integers(0, field.p - 1)
    consts = tuple(map(field.coerce, draw(st.tuples(*[coord] * k))))
    embedded = PointSet(field, a.n + k, [spread(pt, positions, consts) for pt in a])
    return a, positions, consts, embedded


@st.composite
def trie_pointsets(draw):
    """Points of up to 40 coordinates that share long runs: each new point
    copies an earlier one and redraws one to three of its coordinates, so
    the slice trie has long shared prefixes, shared coordinates between
    branches and one-point subtrees."""
    field = draw(st.sampled_from((QQ, F2, F13)))
    n = draw(st.integers(2, 40))
    coord = st.integers(-2, 2).map(F) if field == QQ else st.integers(0, field.p - 1)
    points = [draw(st.lists(coord, min_size=n, max_size=n))]
    for _ in range(draw(st.integers(0, 7))):
        pt = list(draw(st.sampled_from(points)))
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
            pt[i] = draw(coord)
        if pt not in points:
            points.append(pt)
    return PointSet(field, n, points)


class TestSliceTrie:
    @settings(max_examples=60, deadline=None)
    @given(embedded_pointsets())
    def test_shared_coordinates_add_linear_elements(self, drawn):
        """Constant coordinates c at some positions add X_i - c_i to the
        basis of the rest, whose exponents and cells get zeros there."""
        a, positions, consts, embedded = drawn
        field, n, k = a.field, embedded.n, len(positions)
        zeros = (0,) * k
        gb = staircase_gb(a)
        linear = [
            Polynomial(field, n, {tuple(int(i == p) for i in range(n)): 1, (0,) * n: -c})
            for p, c in zip(positions, consts)
        ]
        rest = [
            Polynomial(field, n, {spread(e, positions, zeros): c for e, c in f.terms.items()})
            for f in gb.elements
        ]
        stairs = Staircase(n, {spread(c, positions, zeros) for c in gb.staircase.cells})
        assert staircase_gb(embedded) == GroebnerBasis(stairs, tuple(linear + rest))
        assert compute_staircase(embedded) == stairs

    @settings(max_examples=40, deadline=None)
    @given(trie_pointsets())
    def test_engines_agree_on_shared_prefixes(self, ps):
        assert staircase_gb(ps) == bm_gb(ps)
        assert compute_staircase(ps) == bm_staircase(ps)
