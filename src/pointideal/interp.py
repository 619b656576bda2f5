"""Univariate interpolation tools over an exact field.

Characteristic polynomials: for a finite set T of pairwise-distinct
values and a node a in T, chi(T, a) is the unique polynomial of degree
#T - 1 with chi(T, a)(b) = 1 if b == a else 0 for b in T.  Vanishing
polynomials: the monic polynomial of degree #V with root set exactly V.

`vanishing_coeffs` returns a dense coefficient list, lowest degree
first, and `char_poly_family` returns for each node a a pair (q, s) of
such a list and a scalar with chi(T, a) = s * q; callers read both
directly.  `univariate_vanishing` returns a polynomial in ambient
dimension 1.  The tests multiply s back in and check the family against
`tests/reference.reference_char_poly`, which forms each characteristic
polynomial as the product of its factors (X - b) / (a - b).

Both lists come from the master product of the linear factors of the
values, built once, and from one synthetic division of it per node.
The field (see `field`) multiplies in each node's factor
(`_times_linear`), reads the product (`_monic`) and runs each node's
division (`_characteristic`):

- over F_p the factors are X - a, each coefficient is one expression
  in native arithmetic normalized once (delayed reduction), and the
  characteristic polynomial of a is s_a * Q_a, for the quotient Q_a of
  the master product by X - a and s_a = 1 / Q_a(a);
- over the rationals each node clears its own denominator.  Write
  a = n / d in lowest terms.  The master product
  P = prod (d X - n) has integer coefficients and the lead D = prod d,
  so coefficient k of the vanishing polynomial is P_k / D.  The
  quotient Q_a = P / (d_a X - n_a) is the product of the other factors,
  so it is integral too, and the synthetic division that finds it is
  exact over the ints: from P_k = d_a q_(k-1) - n_a q_k,
  q_(m-1) = P_m // d_a and q_(k-1) = (P_k + n_a q_k) // d_a, where
  m = #values.  With H = d_a^(m-1) Q_a(a) = sum q_k n_a^k d_a^(m-1-k),
  found by a homogeneous Horner loop, coefficient k of chi(T, a) is
  q_k d_a^(m-1) / H: the list is the ints q_k d_a^(m-1) and the scale
  is 1 / H.  H is the product of the other factors at a, times
  d_a^(m-1), so it is not 0.

Every loop over the rationals multiplies, adds and divides ints only.
Each coefficient `vanishing_coeffs` returns is one `Fraction`, and
`char_poly_family` builds one `Fraction` per node, its scale, and none
per coefficient: the lift (`core.build_phi`) adds the ints into its
row form as they are.  Clearing each node's own denominator keeps the
ints near the sizes of the numerators and denominators that `Fraction`
arithmetic carries; clearing one lcm L of all the denominators instead
would scale coefficient k by L^k.  Every coefficient `vanishing_coeffs`
returns and every scale is a canonical scalar; the lists of
`char_poly_family` are canonical over F_p and ints over the rationals.
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


def _master(field, values: Sequence) -> list:
    """The master product of the linear factors of `values`, dense,
    lowest degree first: prod (X - a) over F_p, and over the rationals
    the integral prod (d X - n) for a = n / d (see the module
    docstring)."""
    _check_distinct(values)
    coeffs = [1]
    for v in values:
        coeffs = field._times_linear(coeffs, v)
    return coeffs


def vanishing_coeffs(field, values: Sequence) -> list:
    """Dense coefficients of the monic polynomial with root set `values`."""
    return field._monic(_master(field, values))


def univariate_vanishing(field, values: Sequence) -> Polynomial:
    """Monic polynomial of degree #values vanishing exactly on `values`."""
    coeffs = vanishing_coeffs(field, values)
    return Polynomial(field, 1, {(k,): c for k, c in enumerate(coeffs)})


def char_poly_family(field, values: Sequence) -> dict:
    """All characteristic polynomials over `values` at once, keyed by
    node: the pair (q, s) of a dense coefficient list q of length
    #values, lowest degree first (the form `vanishing_coeffs` returns),
    and a scalar s, with the characteristic polynomial s * q.  Over F_p
    q is the quotient of the master product by the node's factor and s
    the inverse of its value at the node.

    Builds the master product once and deflates it by each node's
    linear factor with synthetic division, which is quadratic overall
    instead of cubic.

    Over the rationals the node a = n / d clears its own denominator:
    the master product prod (d_b X - n_b) is integral, its quotient q by
    d X - n is the product of the other factors, so each step
    q_(k-1) = (P_k + n q_k) // d divides exactly, and coefficient k of
    the result is q_k d^(m-1) / H, with H = sum q_k n^k d^(m-1-k) from a
    homogeneous Horner loop and m = #values (see the module docstring).
    Only ints enter the loops: the list is the ints q_k d^(m-1), and
    s = 1 / H is the node's one `Fraction`.
    """
    master = _master(field, values)
    return {a: field._characteristic(master, a) for a in values}
