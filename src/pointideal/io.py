"""JSON file formats for point sets, bases and verification reports.

Point set files::

    {"field": {"type": "rational"} | {"type": "prime", "p": 7919},
     "dimension": 2,
     "points": [["1", "0"], ["3/2", "-4"], ...]}

Basis files (also the output of the ``gb`` command)::

    {"staircase": [[0, 0], [1, 0], ...],
     "corners": [[2, 0], [0, 2]],
     "basis": [{"leading": [2, 0],
                "terms": [{"exp": [2, 0], "coeff": "1"}, ...]}, ...]}

Scalars travel as strings so that exactness survives the trip.  Cell and
corner lists ascend in the lex order; term lists descend, leading term
first.  Serialization is canonical, so equal objects produce identical
bytes.  A basis file may leave out ``corners``; when present, it must
list exactly the staircase's corners, in that order.  No cell may
repeat.
"""

from __future__ import annotations

import json

from .core import GroebnerBasis, PointSet
from .field import PrimeField, QQ, RationalField
from .poly import Polynomial
from .staircase import Staircase


def field_to_dict(field) -> dict:
    if isinstance(field, RationalField):
        return {"type": "rational"}
    if isinstance(field, PrimeField):
        return {"type": "prime", "p": field.p}
    raise TypeError(f"unknown field {field!r}")


def _expect_object(obj, where: str, keys=()) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{where}: missing key {key!r}")
    return obj


def _expect_list(obj, where: str) -> list:
    if not isinstance(obj, list):
        raise ValueError(f"{where}: expected a list")
    return obj


def _exponent(obj, where: str) -> tuple:
    if not isinstance(obj, list) or not all(type(x) is int for x in obj):
        raise ValueError(f"{where}: expected a list of integers")
    return tuple(obj)


def field_from_dict(obj) -> object:
    kind = _expect_object(obj, "field", ("type",))["type"]
    if kind == "rational":
        return QQ
    if kind == "prime":
        p = _expect_object(obj, "field", ("p",))["p"]
        if type(p) is not int:
            raise ValueError(f"field.p: expected an integer, got {p!r}")
        return PrimeField(p)
    raise ValueError(f"field: unknown type {kind!r}")


def pointset_from_dict(obj) -> PointSet:
    _expect_object(obj, "point set", ("field", "dimension", "points"))
    fld = field_from_dict(obj["field"])
    n = obj["dimension"]
    if type(n) is not int or n < 1:
        raise ValueError(f"dimension: expected a positive integer, got {n!r}")
    points = []
    for i, raw in enumerate(_expect_list(obj["points"], "points")):
        if len(_expect_list(raw, f"points[{i}]")) != n:
            raise ValueError(f"points[{i}]: expected {n} coordinates, got {len(raw)}")
        coords = []
        for j, text in enumerate(raw):
            if not isinstance(text, str):
                raise ValueError(f"points[{i}][{j}]: coordinates must be strings")
            try:
                coords.append(fld.parse(text))
            except ValueError as exc:
                raise ValueError(f"points[{i}][{j}]: {exc}") from exc
        points.append(tuple(coords))
    return PointSet(fld, n, points)


def pointset_to_dict(ps: PointSet) -> dict:
    return {
        "field": field_to_dict(ps.field),
        "dimension": ps.n,
        "points": [[ps.field.format(x) for x in pt] for pt in ps.points],
    }


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def load_pointset(path) -> PointSet:
    return pointset_from_dict(_load_json(path))


def basis_to_dict(gb: GroebnerBasis) -> dict:
    fld = gb.field
    return {
        "staircase": [list(c) for c in gb.staircase.sorted_cells()],
        "corners": [list(c) for c in gb.staircase.sorted_corners()],
        "basis": [
            {
                "leading": list(f.leading_exponent()),
                "terms": [
                    {"exp": list(e), "coeff": fld.format(c)} for e, c in f.terms.items()
                ],
            }
            for f in gb.elements
        ],
    }


def basis_from_dict(obj, field) -> GroebnerBasis:
    _expect_object(obj, "basis", ("staircase", "basis"))
    cells = [
        _exponent(c, f"staircase[{i}]")
        for i, c in enumerate(_expect_list(obj["staircase"], "staircase"))
    ]
    raw_elements = []
    for i, raw in enumerate(_expect_list(obj["basis"], "basis")):
        where = f"basis[{i}]"
        _expect_object(raw, where, ("leading", "terms"))
        leading = _exponent(raw["leading"], f"{where}.leading")
        terms = []
        for j, t in enumerate(_expect_list(raw["terms"], f"{where}.terms")):
            at = f"{where}.terms[{j}]"
            _expect_object(t, at, ("exp", "coeff"))
            if not isinstance(t["coeff"], str):
                raise ValueError(f"{at}.coeff: expected a string")
            terms.append((_exponent(t["exp"], f"{at}.exp"), t["coeff"]))
        raw_elements.append((leading, terms))
    dims = {len(c) for c in cells}
    for leading, terms in raw_elements:
        dims.add(len(leading))
        dims.update(len(e) for e, _ in terms)
    if not dims:
        raise ValueError("basis: no exponents to infer the dimension from")
    if len(dims) != 1:
        raise ValueError(f"basis: inconsistent exponent dimensions {sorted(dims)}")
    n = dims.pop()
    stairs = Staircase(n, cells)
    if len(stairs) < len(cells):
        first: dict = {}
        i = next(i for i, c in enumerate(cells) if first.setdefault(c, i) != i)
        raise ValueError(f"staircase[{i}]: repeats the cell {list(cells[i])}")
    if "corners" in obj:
        corners = [
            _exponent(c, f"corners[{i}]")
            for i, c in enumerate(_expect_list(obj["corners"], "corners"))
        ]
        expected = stairs.sorted_corners()
        if corners != expected:
            raise ValueError(
                f"corners: {[list(c) for c in corners]} are not the staircase's "
                f"corners {[list(c) for c in expected]}"
            )
    elements = []
    for i, (leading, raw_terms) in enumerate(raw_elements):
        terms = {}
        for exp, text in raw_terms:
            if exp in terms:
                raise ValueError(f"basis[{i}]: duplicate exponent {exp}")
            try:
                terms[exp] = field.parse(text)
            except ValueError as exc:
                raise ValueError(f"basis[{i}]: {exc}") from exc
        f = Polynomial(field, n, terms)
        if f.is_zero or f.leading_exponent() != leading:
            raise ValueError(
                f"basis[{i}]: declared leading exponent {list(leading)} "
                f"does not lead the terms"
            )
        elements.append(f)
    return GroebnerBasis(stairs, tuple(elements))


def load_basis(path, field) -> GroebnerBasis:
    return basis_from_dict(_load_json(path), field)


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, one newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
