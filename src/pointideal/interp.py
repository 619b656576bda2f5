"""Univariate interpolation tools over an exact field.

Characteristic polynomials: for a finite set T of pairwise-distinct
values and a node a in T, chi(T, a) is the unique polynomial of degree
#T - 1 with chi(T, a)(b) = 1 if b == a else 0 for b in T.  Vanishing
polynomials: the monic polynomial of degree #V with root set exactly V.

`vanishing_coeffs` and `char_poly_family` return dense coefficient lists,
lowest degree first, which callers read directly; `univariate_vanishing`
and `char_poly` return polynomials in ambient dimension 1.

The loops compute each coefficient as one expression in native
arithmetic and normalize it once (delayed reduction, see `field`), so
every list they return holds canonical scalars.
"""

from __future__ import annotations

from typing import Sequence

from .poly import Polynomial


def _check_distinct(values: Sequence) -> None:
    seen = set()
    for v in values:
        if v in seen:
            raise ValueError(f"values are not pairwise distinct: {v} repeats")
        seen.add(v)


def _from_dense(field, coeffs) -> Polynomial:
    return Polynomial(field, 1, {(k,): c for k, c in enumerate(coeffs) if c != field.zero})


def _mul_linear(field, coeffs, root):
    """coeffs * (X - root), dense ascending-degree lists: coefficient k
    of the product is coeffs[k - 1] - root * coeffs[k], one normalized
    expression per coefficient."""
    norm, zero = field.normalize, field.zero
    return [norm(a - root * b) for a, b in zip([zero, *coeffs], [*coeffs, zero])]


def vanishing_coeffs(field, values: Sequence) -> list:
    """Dense coefficients of the monic polynomial with root set `values`."""
    _check_distinct(values)
    coeffs = [field.one]
    for v in values:
        coeffs = _mul_linear(field, coeffs, v)
    return coeffs


def univariate_vanishing(field, values: Sequence) -> Polynomial:
    """Monic polynomial of degree #values vanishing exactly on `values`."""
    return _from_dense(field, vanishing_coeffs(field, values))


def char_poly(field, values: Sequence, node) -> Polynomial:
    """Characteristic polynomial of `node` within `values`, by direct
    product accumulation of (X - b) / (node - b) over b != node."""
    _check_distinct(values)
    if node not in set(values):
        raise ValueError(f"node {node} is not among the values")
    coeffs = [field.one]
    denom = field.one
    for b in values:
        if b == node:
            continue
        coeffs = _mul_linear(field, coeffs, b)
        denom = field.normalize(denom * (node - b))
    return _from_dense(field, field.vec_scale(field.inv(denom), coeffs))


def char_poly_family(field, values: Sequence) -> dict:
    """All characteristic polynomials over `values` at once, each as a
    dense coefficient list of length #values, lowest degree first (the
    form `vanishing_coeffs` returns), keyed by its node.

    Builds the master product prod (X - b) once and deflates it by each
    node with synthetic division, which is quadratic overall instead of
    cubic.  Agrees with char_poly node for node.

    Each Horner step is one normalized expression, a + node * acc (see
    `field`).  It is normalized at every step, not once at the end,
    because acc feeds the next step: held raw, it would gain the bits of
    a whole field element per step.
    """
    master = vanishing_coeffs(field, values)
    m = len(values)
    norm = field.normalize
    family = {}
    for node in values:
        quotient = [field.zero] * m
        acc = field.one  # running Horner value; master is monic
        for k in range(m - 1, 0, -1):
            quotient[k] = acc
            acc = norm(master[k] + node * acc)
        quotient[0] = acc  # the next step would give the remainder, 0
        denom = field.zero
        for k in range(m - 1, -1, -1):
            denom = norm(quotient[k] + node * denom)
        family[node] = field.vec_scale(field.inv(denom), quotient)
    return family
