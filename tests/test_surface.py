"""The package's public surface, pinned.

Growing or shrinking the surface means editing one explicit list here.
Public names are those without a leading underscore, read from a sample
instance so that slots and instance attributes count; the arithmetic
operators each class defines are pinned as well, and so are the
parameter names of every exported function, so that a new option is an
edit here too.
"""

import dataclasses
import inspect
from fractions import Fraction

import pytest

import pointideal
from pointideal import (
    GroebnerBasis,
    PointSet,
    Polynomial,
    PrimeField,
    QQ,
    RationalField,
    Staircase,
    staircase_gb,
)

OPERATORS = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__truediv__")

ALL = [
    "CheckResult",
    "DuplicatePointError",
    "GroebnerBasis",
    "NotLowerSetError",
    "PointSet",
    "Polynomial",
    "PrimeField",
    "QQ",
    "RationalField",
    "Staircase",
    "VerificationReport",
    "bm_gb",
    "bm_staircase",
    "build_phi",
    "char_poly_family",
    "check_buchberger",
    "check_dimension",
    "check_reduced_shape",
    "check_vanishing",
    "compute_staircase",
    "is_prime",
    "normal_form",
    "s_polynomial",
    "slice_decompose",
    "slice_representative",
    "staircase_gb",
    "staircase_sum",
    "univariate_vanishing",
    "verify_basis",
]

SIGNATURES = {
    "bm_gb": ["ps"],
    "bm_staircase": ["ps"],
    "build_phi": ["field", "beta", "slice_gbs", "stairs"],
    "char_poly_family": ["field", "values"],
    "check_buchberger": ["gb"],
    "check_dimension": ["gb", "ps"],
    "check_reduced_shape": ["gb"],
    "check_vanishing": ["gb", "ps"],
    "compute_staircase": ["ps"],
    "is_prime": ["n"],
    "normal_form": ["f", "basis"],
    "s_polynomial": ["f", "g"],
    "slice_decompose": ["ps"],
    "slice_representative": ["beta_hat", "slice_gb"],
    "staircase_gb": ["ps"],
    "staircase_sum": ["family", "n"],
    "univariate_vanishing": ["field", "values"],
    "verify_basis": ["gb", "ps"],
}

FIELD = [
    "coerce",
    "format",
    "inv",
    "is_negative",
    "normalize",
    "one",
    "parse",
    "vec_scale",
    "vec_sub_scaled",
    "zero",
]

PUBLIC = {
    Polynomial: (
        [
            "constant",
            "field",
            "is_monic",
            "is_zero",
            "leading_coefficient",
            "leading_exponent",
            "monomial",
            "n",
            "one",
            "tail",
            "terms",
        ],
        ["__mul__"],
    ),
    Staircase: (
        [
            "cells",
            "corners",
            "fiber_count",
            "n",
            "render",
            "sorted_cells",
            "sorted_corners",
        ],
        [],
    ),
    PrimeField: (sorted(FIELD + ["p"]), []),
    RationalField: (FIELD, []),
    PointSet: (["field", "n", "points"], []),
    GroebnerBasis: (["elements", "field", "n", "quotient_dimension", "staircase"], []),
}


def samples():
    ps = PointSet(QQ, 2, [(Fraction(1), Fraction(2))])
    gb = staircase_gb(ps)
    return [gb.elements[0], gb.staircase, PrimeField(7), QQ, ps, gb]


def test_package_exports():
    assert sorted(pointideal.__all__) == ALL


def test_function_signatures():
    functions = {
        name: list(inspect.signature(obj).parameters)
        for name in pointideal.__all__
        if inspect.isfunction(obj := getattr(pointideal, name))
    }
    assert functions == SIGNATURES


def test_class_surfaces():
    for obj in samples():
        cls = type(obj)
        public, operators = PUBLIC[cls]
        assert sorted(n for n in dir(obj) if not n.startswith("_")) == public, cls
        assert sorted(n for n in OPERATORS if n in vars(cls)) == operators, cls
    assert {type(obj) for obj in samples()} == set(PUBLIC)


def test_value_types_are_frozen():
    """Assignment to a field of a polynomial, staircase, point set or
    basis raises; polynomials are not hashable."""
    poly, stairs, _, _, ps, gb = samples()
    for obj, name in [(poly, "terms"), (stairs, "cells"), (ps, "points"), (gb, "elements")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        poly.n = 2
    with pytest.raises(TypeError):
        hash(poly)


def test_equal_values_hash_equal():
    """Equal point sets and staircases hash equal, on the same tuples as
    their fields; a staircase with its corner cache filled still equals,
    and hashes like, a fresh one."""
    ps = PointSet(QQ, 2, [(1, 2), (0, 5)])
    same = PointSet(QQ, 2, [(0, 5), (1, 2)])
    assert ps == same and hash(ps) == hash(same) == hash((QQ, 2, ps.points))
    assert ps != PointSet(PrimeField(7), 2, [(1, 2), (0, 5)])
    cells = [(0, 0), (1, 0), (0, 1)]
    cached, fresh = Staircase(2, cells), Staircase(2, reversed(cells))
    assert cached.corners() == {(2, 0), (1, 1), (0, 2)}
    assert cached == fresh and hash(cached) == hash(fresh) == hash((2, fresh.cells))
    assert cached != Staircase(2, cells[:2])
    f = Polynomial(QQ, 2, {(1, 0): 1, (0, 0): -1})
    assert f == Polynomial(QQ, 2, {(0, 0): Fraction(-1), (1, 0): 1})
    assert f != Polynomial(PrimeField(7), 2, {(1, 0): 1, (0, 0): -1})
