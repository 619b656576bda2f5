"""Shared hypothesis strategies and small deterministic generators."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from hypothesis import strategies as st

from pointideal import PointSet, Polynomial, PrimeField, QQ, Staircase
from pointideal.poly import lex_key

F2 = PrimeField(2)
F7 = PrimeField(7)
F13 = PrimeField(13)


def rationals(max_den: int = 12):
    return st.fractions(min_value=-9, max_value=9, max_denominator=max_den)


def prime_scalars(p: int = 13):
    return st.integers(0, p - 1)


def exponents(n: int, cap: int = 4):
    return st.tuples(*([st.integers(0, cap)] * n))


def lower_closure(generators, n: int) -> set:
    """All exponents coordinatewise below some generator."""
    cells = set()
    for g in generators:
        stack = [g]
        while stack:
            c = stack.pop()
            if c in cells:
                continue
            cells.add(c)
            for i in range(n):
                if c[i]:
                    stack.append(c[:i] + (c[i] - 1,) + c[i + 1 :])
    return cells


@st.composite
def staircases(draw, max_n: int = 3, cap: int = 3):
    n = draw(st.integers(1, max_n))
    gens = draw(st.lists(exponents(n, cap), max_size=4))
    return Staircase(n, lower_closure(gens, n))


@st.composite
def staircase_families(draw, max_n: int = 3, cap: int = 3, max_size: int = 4):
    """A dimension and a list of staircases of that dimension."""
    n = draw(st.integers(1, max_n))
    generators = draw(st.lists(st.lists(exponents(n, cap), max_size=4), max_size=max_size))
    return n, [Staircase(n, lower_closure(gens, n)) for gens in generators]


@st.composite
def polynomials(draw, field=QQ, n: int = 2, cap: int = 3, max_terms: int = 6):
    coeffs = rationals() if field == QQ else prime_scalars(field.p)
    terms = draw(st.dictionaries(exponents(n, cap), coeffs, max_size=max_terms))
    return Polynomial(field, n, terms)


def nonzero_scalars(field):
    scalars = rationals() if field == QQ else prime_scalars(field.p)
    return scalars.filter(lambda c: c != field.zero)


@st.composite
def monic_bases(draw, field, n, cap=3, max_size=4):
    """Monic polynomials with distinct leading exponents and arbitrary
    lex-smaller tails: usually not a Groebner basis, so the reducer rule
    decides the remainder."""
    leads = draw(
        st.lists(exponents(n, cap), min_size=1, max_size=max_size, unique=True)
    )
    basis = []
    for le in leads:
        tail = draw(st.dictionaries(exponents(n, cap), nonzero_scalars(field), max_size=3))
        terms = {e: c for e, c in tail.items() if lex_key(e) < lex_key(le)}
        terms[le] = field.one
        basis.append(Polynomial(field, n, terms))
    return basis


@st.composite
def pointsets(draw, fields=(QQ, F13), max_n: int = 3, max_size: int = 8):
    field = draw(st.sampled_from(fields))
    n = draw(st.integers(1, max_n))
    if field == QQ:
        coord = st.integers(-9, 9).map(Fraction)
    else:
        coord = st.integers(0, field.p - 1)
    pts = draw(
        st.lists(
            st.tuples(*([coord] * n)), min_size=1, max_size=max_size, unique=True
        )
    )
    return PointSet(field, n, pts)


@st.composite
def grid_pointsets(draw, min_size: int = 8, max_size: int = 30):
    """Subsets of the full grids F_3^4 and F_5^3, the shape of the grid4
    benchmark workload: many points share each X1 slice, so the slice
    staircases have several corners and many lifted representatives are
    stored slice elements."""
    p, n = draw(st.sampled_from([(3, 4), (5, 3)]))
    grid = list(product(range(p), repeat=n))
    pts = draw(
        st.lists(st.sampled_from(grid), min_size=min_size, max_size=max_size, unique=True)
    )
    return PointSet(PrimeField(p), n, pts)
