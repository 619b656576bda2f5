"""A third, external oracle: sympy's Groebner bases.

I(A) is the intersection of the maximal ideals m_a = (X1 - a1, ...,
Xn - an) of the points a.  It is built one point at a time by
elimination: I ∩ J is the part free of t of the lex basis of
tI + (1 - t)J with t greatest (Cox, Little and O'Shea, *Ideals,
Varieties, and Algorithms*, ch. 4 §3).  sympy's reduced lex basis of the
result, with the generators ordered (Xn, ..., X1) since Xn is the most
significant variable here, must equal both engines' bases.  Over QQ
sympy returns primitive integer polynomials, which are made monic; over
F_p it works with `modulus=p` and its coefficients are read as residues
in range(p).

The certificate must accept sympy's basis, converted to package
polynomials, and must judge a broken basis as sympy does.  A set G of
monic polynomials with distinct leading exponents is a Groebner basis
of the ideal it generates exactly when every leading exponent of that
ideal is divisible by one of G's; the leading exponents of sympy's
reduced basis of (G) generate them all, so `check_buchberger` must fail
exactly when one of those is divisible by no leading exponent of G.

The corpus and the broken bases are fixed; a small hypothesis set adds
random draws of at most six points.  The oracle tests are skipped where
sympy is not installed.
"""

import ast
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pointideal
from pointideal import (
    GroebnerBasis,
    PointSet,
    Polynomial,
    PrimeField,
    QQ,
    Staircase,
    bm_gb,
    check_buchberger,
    staircase_gb,
    verify_basis,
)
from pointideal.poly import lex_key


def draw_points(field, n, count, seed):
    """`count` distinct points of field^n from Python's own generator;
    rational coordinates are k/d with |k| <= 4 and d in 1..3."""
    rng = random.Random(seed)
    if field == QQ:
        coord = lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    else:
        coord = lambda: rng.randrange(field.p)
    points = set()
    while len(points) < count:
        points.add(tuple(coord() for _ in range(n)))
    return sorted(points)


CORPUS = [
    pytest.param(QQ, 2, 6, id="QQ^2-6"),
    pytest.param(QQ, 3, 8, id="QQ^3-8"),
    pytest.param(PrimeField(7), 3, 10, id="F7^3-10"),
    pytest.param(PrimeField(5), 4, 12, id="F5^4-12"),
]


def options(field) -> dict:
    return {"order": "lex"} if field == QQ else {"order": "lex", "modulus": field.p}


def to_sympy(sympy, f: Polynomial, xs):
    """f as a sympy expression in the symbols xs = (x1, ..., xn)."""
    scalar = (lambda c: sympy.Rational(c.numerator, c.denominator)) if f.field == QQ else int
    return sum(
        (scalar(c) * sympy.Mul(*(x**k for x, k in zip(xs, e))) for e, c in f.terms.items()),
        sympy.Integer(0),
    )


def reduced_basis(sympy, field, n, generators) -> list[Polynomial]:
    """sympy's reduced lex basis of the ideal of the sympy expressions
    `generators`, as monic package polynomials in lex-ascending order of
    leading exponent."""
    xs = sympy.symbols(f"x1:{n + 1}")
    basis = []
    for g in sympy.groebner(generators, *xs[::-1], **options(field)).polys:
        terms = {}
        for monom, c in g.terms():
            c = Fraction(int(c.p), int(c.q)) if field == QQ else int(c) % field.p
            terms[tuple(reversed(monom))] = c
        f = Polynomial(field, n, terms)
        inv = field.inv(f.terms[f.leading_exponent()])
        basis.append(Polynomial(field, n, {e: inv * c for e, c in f.terms.items()}))
    return sorted(basis, key=lambda f: lex_key(f.leading_exponent()))


def sympy_basis(sympy, field, n, points) -> list[Polynomial]:
    """The reduced lex basis of I(points), by sympy, as monic package
    polynomials in lex-ascending order of leading exponent."""
    xs = sympy.symbols(f"x1:{n + 1}")
    t = sympy.Symbol("t")
    scalar = lambda a: sympy.Rational(a.numerator, a.denominator) if field == QQ else a
    ideal = None
    for pt in points:
        m_a = [x - scalar(a) for x, a in zip(xs, pt)]
        if ideal is None:
            ideal = m_a
            continue
        mixed = [t * f for f in ideal] + [(1 - t) * g for g in m_a]
        eliminated = sympy.groebner(mixed, t, *xs[::-1], **options(field))
        ideal = [g for g in eliminated.exprs if not g.has(t)]
    return reduced_basis(sympy, field, n, ideal)


@lru_cache(maxsize=None)
def corpus_instance(field, n, count):
    """The corpus point set and sympy's basis of its vanishing ideal."""
    sympy = pytest.importorskip("sympy")
    ps = PointSet(field, n, draw_points(field, n, count, seed=count))
    return ps, sympy_basis(sympy, field, n, ps.points)


def divides(d, e) -> bool:
    return all(x <= y for x, y in zip(d, e))


def staircase_outside(leading, n) -> Staircase:
    """The exponents that no exponent in `leading` divides.  The ideal
    is zero-dimensional, so each variable has a pure power among them,
    and these exponents lie in the box below those powers."""
    box = [
        min(e[i] for e in leading if not any(e[:i] + e[i + 1 :]))
        for i in range(n)
    ]
    cells = (c for c in product(*map(range, box)) if not any(divides(l, c) for l in leading))
    return Staircase(n, cells)


@pytest.mark.parametrize("field, n, count", CORPUS)
def test_both_engines_equal_sympys_reduced_basis(field, n, count):
    ps, expected = corpus_instance(field, n, count)
    assert list(staircase_gb(ps).elements) == expected
    assert list(bm_gb(ps).elements) == expected


@st.composite
def small_pointsets(draw):
    """At most six distinct points of QQ^2, F_7^2 or F_5^3; rational
    coordinates are k/d with |k| <= 4 and d in 1..3, as in the corpus."""
    field, n = draw(st.sampled_from([(QQ, 2), (PrimeField(7), 2), (PrimeField(5), 3)]))
    if field == QQ:
        coord = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    else:
        coord = st.integers(0, field.p - 1)
    points = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=6, unique=True))
    return PointSet(field, n, points)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@settings(max_examples=20, deadline=None)
@given(small_pointsets())
def test_both_engines_equal_sympys_reduced_basis_on_random_draws(sympy, ps):
    expected = sympy_basis(sympy, ps.field, ps.n, ps.points)
    assert list(staircase_gb(ps).elements) == expected
    assert list(bm_gb(ps).elements) == expected


@pytest.mark.parametrize("field, n, count", CORPUS)
def test_the_certificate_accepts_sympys_basis(field, n, count):
    """sympy's basis with the staircase read off its own leading
    exponents, so nothing comes from the engines."""
    ps, basis = corpus_instance(field, n, count)
    stairs = staircase_outside([f.leading_exponent() for f in basis], n)
    report = verify_basis(GroebnerBasis(stairs, tuple(basis)), ps)
    assert report.overall, report.summary_lines()


def mutants(gb):
    """Broken copies of a basis that stay monic with distinct leading
    exponents, one of each kind per element: the element dropped, its
    last tail coefficient raised by one, and a term 1 * X^c added for
    the lex-greatest cell c below its leading exponent that it lacks."""
    fld = gb.field
    cells = sorted(gb.staircase.cells, key=lex_key, reverse=True)
    for i, f in enumerate(gb.elements):
        others = gb.elements[:i] + gb.elements[i + 1 :]
        yield others
        changed = []
        if len(f.terms) > 1:
            terms = dict(f.terms)
            last = next(reversed(terms))
            terms[last] = fld.normalize(terms[last] + fld.one)
            changed.append(terms)
        lead = lex_key(f.leading_exponent())
        free = [c for c in cells if c not in f.terms and lex_key(c) < lead]
        if free:
            changed.append({**f.terms, free[0]: fld.one})
        for terms in changed:
            yield others[:i] + (Polynomial(fld, gb.n, terms),) + others[i:]


# 30 broken bases, 8 of them Groebner bases; F_5^4 would add 32 and
# about 1.3 s
@pytest.mark.parametrize("field, n, count", CORPUS[:3])
def test_the_s_pair_check_fails_exactly_when_sympy_finds_a_new_leading_exponent(
    field, n, count
):
    sympy = pytest.importorskip("sympy")
    ps, _ = corpus_instance(field, n, count)
    gb = staircase_gb(ps)
    xs = sympy.symbols(f"x1:{n + 1}")
    verdicts = []
    for elements in mutants(gb):
        leading = [f.leading_exponent() for f in elements]
        ideal = reduced_basis(sympy, field, n, [to_sympy(sympy, f, xs) for f in elements])
        new = [
            g.leading_exponent()
            for g in ideal
            if not any(divides(l, g.leading_exponent()) for l in leading)
        ]
        passed = check_buchberger(GroebnerBasis(gb.staircase, elements)).passed
        assert passed == (not new), (elements, new)
        verdicts.append(passed)
    assert any(verdicts) and not all(verdicts)


PACKAGE = Path(pointideal.__file__).parent


def test_the_package_does_not_import_sympy():
    imported = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
    assert not {name for name in imported if name.split(".")[0] == "sympy"}


def sibling_imports(module: str) -> dict[str, set]:
    """What a module of the package takes from each other module of it:
    {module: names}, with "*" for a module imported whole."""
    taken: dict[str, set] = {}
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if not node.level:
                if source.split(".")[0] != "pointideal":
                    continue
                source = source.partition(".")[2]
            if source:
                taken.setdefault(source, set()).update(alias.name for alias in node.names)
            else:  # from . import core
                for alias in node.names:
                    taken.setdefault(alias.name, set()).add("*")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("pointideal."):
                    taken.setdefault(alias.name.split(".")[1], set()).add("*")
    return taken


def test_the_engines_share_field_poly_and_staircase_and_nothing_else():
    """The oracle and the certificate take from the paper's engine only
    the data classes (and the certificate its point notation), and the
    paper's engine imports neither of them."""
    shared = {"core", "field", "poly", "staircase"}
    bm, verify = sibling_imports("bm"), sibling_imports("verify")
    assert set(bm) <= shared and set(verify) <= shared
    assert bm["core"] == {"GroebnerBasis", "PointSet"}
    assert verify["core"] == {"GroebnerBasis", "PointSet", "format_point"}
    assert not {"bm", "verify"} & set(sibling_imports("core"))
