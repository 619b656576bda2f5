"""Seeded random instances and a timing harness for the two engines.

Instances are drawn with SplitMix64, a tiny well-known 64-bit generator,
so runs reproduce bit-for-bit on any platform.  `run_bench` returns one
record per trial, a plain dict: the instance's size and trial index,
whether the two engines' bases matched, the basis's corners and
fingerprint, and the two engines' seconds.  `table_lines` reports the
per-size medians of the seconds, their log-log slope and the crossover,
the smallest size from which the staircase engine's median beats the
oracle's at every size.  Everything else in a record is deterministic for a fixed seed
and goes into `deterministic_payload`; wall-clock timings are reported
separately and never enter the deterministic payload.
"""

from __future__ import annotations

import hashlib
import math
import time
from fractions import Fraction
from statistics import median

from . import io
from .bm import bm_gb
from .core import PointSet, staircase_gb
from .field import PrimeField, RationalField

_MASK = (1 << 64) - 1


class SplitMix64:
    """SplitMix64: state advances by the 64-bit golden-ratio increment,
    output is the standard xor-shift-multiply finalizer."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in range(bound), by rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % bound


def random_pointset(rng: SplitMix64, field, dimension: int, size: int) -> PointSet:
    """Distinct random points; duplicates are redrawn.  Prime fields draw
    uniform residues, the rationals draw small integers in [-9, 9]."""
    if isinstance(field, PrimeField):
        draw = lambda: field.coerce(rng.below(field.p))
        universe = field.p**dimension
    elif isinstance(field, RationalField):
        draw = lambda: Fraction(rng.below(19) - 9)
        universe = 19**dimension
    else:
        raise TypeError(f"unsupported field {field!r}")
    if size > universe:
        raise ValueError(f"cannot draw {size} distinct points from {universe}")
    points: set = set()
    while len(points) < size:
        points.add(tuple(draw() for _ in range(dimension)))
    return PointSet(field, dimension, points)


def fit_slope(xs, ys) -> float | None:
    """Least-squares slope of ys against xs; None when the xs do not
    take at least two distinct values, since no line is determined."""
    if len(set(xs)) < 2:
        return None
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def first_difference(a, b) -> str:
    """The first place where two bases differ: their corner sets, else
    the first pair of elements, in corner order, that are not equal."""
    ca = a.staircase.sorted_corners()
    cb = b.staircase.sorted_corners()
    if ca != cb:
        return f"corner sets differ: {ca} vs {cb}"
    for fa, fb in zip(a.elements, b.elements):
        if fa != fb:
            return (
                f"elements at corner {fa.leading_exponent()} differ:\n"
                f"  {fa}\n  {fb}"
            )
    return "no difference"


def run_both(ps):
    """Run the staircase engine, then the oracle.  Returns the staircase
    basis, the two engines' seconds, and the first difference between
    the bases (None when they agree)."""
    t0 = time.perf_counter()
    ours = staircase_gb(ps)
    t1 = time.perf_counter()
    oracle = bm_gb(ps)
    t2 = time.perf_counter()
    difference = None if ours == oracle else first_difference(ours, oracle)
    return ours, (t1 - t0, t2 - t1), difference


def run_bench(seed: int, field, sizes, dimension: int, trials: int) -> list[dict]:
    """Generate, time and cross-check all instances; one record per
    trial, in draw order.  A record holds `size`, `trial`, `match`, the
    staircase basis's sorted `corners`, `basis_sha256` (the first 16 hex
    digits of the SHA-256 of its canonical JSON) and `seconds`, the
    staircase engine's and the oracle's.  Instance draws consume one
    PRNG stream in a fixed order, so everything but the seconds depends
    only on the seed and the settings."""
    rng = SplitMix64(seed)
    records = []
    for size in sizes:
        for trial in range(trials):
            ps = random_pointset(rng, field, dimension, size)
            ours, seconds, difference = run_both(ps)
            records.append({
                "size": size,
                "trial": trial,
                "match": difference is None,
                "corners": [list(c) for c in ours.staircase.sorted_corners()],
                "basis_sha256": hashlib.sha256(
                    io.canonical_dumps(io.basis_to_dict(ours)).encode()
                ).hexdigest()[:16],
                "seconds": seconds,
            })
    return records


def table_lines(records: list[dict]) -> list[str]:
    """A header, one row per size with each engine's median seconds and
    whether every trial matched, the fitted log-log slope of the medians
    against the size ("n/a" with a single size), then the crossover: the
    smallest size from which the staircase engine's median is below the
    oracle's at that size and at every larger one ("none" when the
    largest size loses)."""
    sizes = list(dict.fromkeys(r["size"] for r in records))
    lines = [f"{'size':>6} {'staircase[s]':>14} {'bm[s]':>14} {'match':>6}"]
    log_medians = []
    slower = []
    for size in sizes:
        group = [r for r in records if r["size"] == size]
        med = [median(r["seconds"][i] for r in group) for i in (0, 1)]
        ok = all(r["match"] for r in group)
        lines.append(f"{size:>6} {med[0]:>14.6f} {med[1]:>14.6f} {'yes' if ok else 'NO':>6}")
        log_medians.append([math.log(m) for m in med])
        if med[0] >= med[1]:
            slower.append(size)
    xs = [math.log(size) for size in sizes]
    slopes = [fit_slope(xs, ys) for ys in zip(*log_medians)]
    shown = ["n/a" if slope is None else f"{slope:.3f}" for slope in slopes]
    lines.append(f"log-log slope: staircase {shown[0]}, bm {shown[1]}")
    faster = [size for size in sizes if size > max(slower, default=0)]
    lines.append(
        f"crossover: staircase faster from size {min(faster)}" if faster else "crossover: none"
    )
    return lines


def deterministic_payload(seed, field, sizes, dimension, trials, records) -> dict:
    """The settings and the records without their seconds: everything
    reproducible for a fixed seed."""
    return {
        "seed": seed,
        "field": io.field_to_dict(field),
        "dimension": dimension,
        "sizes": list(sizes),
        "trials": trials,
        "results": [{k: v for k, v in r.items() if k != "seconds"} for r in records],
    }
