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

The corpus is fixed.  The oracle tests are skipped where sympy is not
installed.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import pointideal
from pointideal import PointSet, Polynomial, PrimeField, QQ, bm_gb, staircase_gb


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


def sympy_basis(sympy, field, n, points) -> list[Polynomial]:
    """The reduced lex basis of I(points), by sympy, as monic package
    polynomials in lex-ascending order of leading exponent."""
    xs = sympy.symbols(f"x1:{n + 1}")
    gens = xs[::-1]
    t = sympy.Symbol("t")
    opts = {"order": "lex"} if field == QQ else {"order": "lex", "modulus": field.p}
    scalar = lambda a: sympy.Rational(a.numerator, a.denominator) if field == QQ else a
    ideal = None
    for pt in points:
        m_a = [x - scalar(a) for x, a in zip(xs, pt)]
        if ideal is None:
            ideal = m_a
            continue
        mixed = [t * f for f in ideal] + [(1 - t) * g for g in m_a]
        eliminated = sympy.groebner(mixed, t, *gens, **opts)
        ideal = [g for g in eliminated.exprs if not g.has(t)]
    basis = []
    for g in sympy.groebner(ideal, *gens, **opts).polys:
        terms = {}
        for monom, c in g.terms():
            c = Fraction(int(c.p), int(c.q)) if field == QQ else int(c) % field.p
            terms[tuple(reversed(monom))] = c
        f = Polynomial(field, n, terms)
        inv = field.inv(f.leading_coefficient())
        basis.append(Polynomial(field, n, {e: inv * c for e, c in f.terms.items()}))
    return sorted(basis, key=lambda f: f.leading_exponent()[::-1])


@pytest.mark.parametrize("field, n, count", CORPUS)
def test_both_engines_equal_sympys_reduced_basis(field, n, count):
    sympy = pytest.importorskip("sympy")
    ps = PointSet(field, n, draw_points(field, n, count, seed=count))
    expected = sympy_basis(sympy, field, n, ps.points)
    assert list(staircase_gb(ps).elements) == expected
    assert list(bm_gb(ps).elements) == expected


def test_the_package_does_not_import_sympy():
    package = Path(pointideal.__file__).parent
    imported = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
    assert not {name for name in imported if name.split(".")[0] == "sympy"}
