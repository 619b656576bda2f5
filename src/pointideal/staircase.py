"""Finite lower sets of exponent vectors ("staircases") and their corners.

A staircase is a finite subset D of N_0^n closed under decrementing any
coordinate.  Its corner set consists of the minimal elements of the
complement: exactly the exponents beta outside D such that beta - e_i
lies in D whenever beta_i > 0.  `staircase_sum` stacks a family of
staircases in n - 1 variables along a new first axis: a cell c of k
members gives the cells (j,) + c for j < k.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable

from .poly import Exponent, lex_key


class NotLowerSetError(ValueError):
    """A cell set violates the lower-set property."""

    def __init__(self, cell: Exponent, axis: int):
        self.cell = cell
        self.axis = axis
        super().__init__(
            f"not a lower set: {cell} present but {_dec(cell, axis)} missing "
            f"(coordinate {axis + 1})"
        )


def _dec(cell: Exponent, axis: int) -> Exponent:
    return cell[:axis] + (cell[axis] - 1,) + cell[axis + 1 :]


def _fill(d: "Staircase", n: int, cells: frozenset) -> None:
    object.__setattr__(d, "n", n)
    object.__setattr__(d, "cells", cells)
    object.__setattr__(d, "_corners", None)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Staircase:
    """An immutable validated lower set.  Staircases compare and hash by
    dimension and cells; the corner cache takes no part."""

    n: int
    cells: frozenset[Exponent]
    _corners: frozenset[Exponent] | None = field(compare=False)

    def __init__(self, n: int, cells: Iterable[Exponent] = ()):
        if n < 1:
            raise ValueError("ambient dimension must be >= 1")
        cellset = frozenset(tuple(c) for c in cells)
        for c in cellset:
            if len(c) != n or any(x < 0 or not isinstance(x, int) for x in c):
                raise ValueError(f"bad cell {c} for dimension {n}")
            for i in range(n):
                if c[i] and _dec(c, i) not in cellset:
                    raise NotLowerSetError(c, i)
        _fill(self, n, cellset)

    @classmethod
    def _trusted(cls, n: int, cells: frozenset) -> "Staircase":
        """A staircase from cells the caller vouches for, without the
        lower-set check of the public constructor: `cells` is a frozenset
        of tuples of n non-negative ints, closed under decrementing any
        coordinate.  It is kept, not copied."""
        d = object.__new__(cls)
        _fill(d, n, cells)
        return d

    def __len__(self):
        return len(self.cells)

    def __contains__(self, exp) -> bool:
        return tuple(exp) in self.cells

    def __repr__(self):
        return f"Staircase({self.n}, {self.sorted_cells()})"

    def sorted_cells(self) -> list[Exponent]:
        return sorted(self.cells, key=lex_key)

    def corners(self) -> frozenset[Exponent]:
        """Minimal exponents of the complement; finite and nonempty."""
        if self._corners is not None:
            return self._corners
        cells, axes = self.cells, range(self.n)
        if not cells:
            result = frozenset({(0,) * self.n})
        else:
            candidates = {c[:i] + (c[i] + 1,) + c[i + 1 :] for c in cells for i in axes} - cells
            # Only a nonzero coordinate can be lowered: `compress` skips
            # the zeros, which at high dimension are most of them.
            result = frozenset(
                b
                for b in candidates
                if all(b[:i] + (b[i] - 1,) + b[i + 1 :] in cells for i in compress(axes, b))
            )
        object.__setattr__(self, "_corners", result)
        return result

    def sorted_corners(self) -> list[Exponent]:
        return sorted(self.corners(), key=lex_key)

    def fiber_count(self, dhat: Exponent) -> int:
        """Number of cells whose last n-1 coordinates equal dhat."""
        dhat = tuple(dhat)
        if len(dhat) != self.n - 1:
            raise ValueError(f"fiber index {dhat} has wrong dimension")
        return sum(1 for c in self.cells if c[1:] == dhat)

    def render(self) -> str:
        """ASCII picture for n = 2: rows are X2 descending, 'o' marks a
        cell, '*' marks a corner."""
        if self.n != 2:
            raise ValueError("rendering is available for dimension 2 only")
        corners = self.corners()
        height = max(y for _, y in corners) + 1
        widths = Counter(y for _, y in self.cells)
        lines = []
        for y in range(height - 1, -1, -1):
            row = ["o"] * widths[y]
            if (widths[y], y) in corners:
                row.append("*")
            lines.append(" ".join(row))
        return "\n".join(lines)


def staircase_sum(family: Iterable[Staircase], n: int) -> Staircase:
    """Stack a finite family of staircases in n - 1 variables into one in
    n variables: (j,) + c is a cell exactly when j is below C(c), the
    number of members that contain c.  The members are read as they are,
    one pass over each; the empty family yields the empty staircase.

    The stack is a lower set, so it is built without the constructor's
    check.  C can only fall as c grows: c' <= c coordinatewise and c in
    a member puts c' in it too, since each member is a lower set, so
    C(c') >= C(c).  So the cells {(j,) + c : j < C(c)} are closed under
    lowering j (j - 1 < C(c)) and under lowering a coordinate of c
    (j < C(c) <= C(c'))."""
    if n < 2:
        raise ValueError("stacking needs dimension >= 2")
    counts: Counter = Counter()
    for d in family:
        if d.n != n - 1:
            raise ValueError(f"dimension mismatch: {d.n} vs {n - 1}")
        counts.update(d.cells)
    return Staircase._trusted(n, frozenset((j,) + c for c, k in counts.items() for j in range(k)))
