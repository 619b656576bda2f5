"""Seeded point-set generators for the benchmark workloads.

Every generator draws from one SplitMix64 stream seeded by the run's
seed, so the same seed yields the same sequence of point sets.  The
package is imported inside the functions, not at module load, because
set-up timing re-imports it and the point sets must be built from the
classes of the import that the run then uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


def draw_generic2(rng, size: int):
    """Uniform points of F_7919^2: about one point per X1 slice."""
    from pointideal.bench import random_pointset
    from pointideal.field import PrimeField

    return random_pointset(rng, PrimeField(7919), 2, size)


def draw_grid4(rng, size: int):
    """A uniform subset of the grid F_5^4: five slices per level."""
    from pointideal.bench import random_pointset
    from pointideal.field import PrimeField

    return random_pointset(rng, PrimeField(5), 4, size)


def _fraction(rng, bound: int, max_den: int) -> Fraction:
    return Fraction(rng.below(2 * bound + 1) - bound, rng.below(max_den) + 1)


def draw_rational3(rng, size: int):
    """Distinct points of QQ^3 whose coordinates need not be integers:
    X1 = a/b with |a| <= 4, b <= 3 (nineteen values, so few slices);
    X2, X3 = a/b with |a| <= 9, b <= 4.  The package's own QQ draw yields
    the integers -9..9 only."""
    from pointideal.core import PointSet
    from pointideal.field import QQ

    points: set = set()
    while len(points) < size:
        points.add(
            (_fraction(rng, 4, 3), _fraction(rng, 9, 4), _fraction(rng, 9, 4))
        )
    return PointSet(QQ, 3, points)


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # points per instance
    # The percentile reported as a timing's tail, fixed so that two
    # commits report the same statistic whatever their run length.  It
    # leaves at least ten samples above it in the shortest baseline run:
    # 112 instances on generic2, 66 on grid4, 124 on rational3.
    tail_pct: int
    draw: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("generic2", 80, 90, draw_generic2),
        Workload("grid4", 36, 80, draw_grid4),
        Workload("rational3", 20, 90, draw_rational3),
    )
}


class InstanceStream:
    """The seeded sequence of a workload's point sets.  The first
    `count` are drawn at construction; later ones on demand, from the
    same stream, so a faster program never sees a repeated input."""

    def __init__(self, workload: Workload, seed: int, count: int):
        from pointideal.bench import SplitMix64

        self.workload = workload
        self._rng = SplitMix64(seed)
        self._drawn: list = []
        while len(self._drawn) < count:
            self._draw()

    def _draw(self):
        self._drawn.append(self.workload.draw(self._rng, self.workload.size))

    def __getitem__(self, index: int):
        while len(self._drawn) <= index:
            self._draw()
        return self._drawn[index]
