"""Seeded random instances and a timing harness for the two engines.

Instances are drawn with SplitMix64, a tiny well-known 64-bit generator,
so runs reproduce bit-for-bit on any platform.  The machine-readable
part of a benchmark (instances, cross-check outcomes, basis
fingerprints) is deterministic for a fixed seed; wall-clock timings are
reported separately and never enter the deterministic payload.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field as dc_field
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


@dataclass(frozen=True)
class BenchConfig:
    seed: int
    field: object
    sizes: tuple[int, ...]
    dimension: int
    trials: int


@dataclass
class TrialResult:
    size: int
    trial: int
    match: bool
    corners: list
    digest: str
    staircase_seconds: float
    bm_seconds: float


@dataclass
class BenchResult:
    config: BenchConfig
    trials: list[TrialResult] = dc_field(default_factory=list)

    @property
    def all_match(self) -> bool:
        return all(t.match for t in self.trials)

    def medians(self, attr: str) -> dict[int, float]:
        out = {}
        for size in self.config.sizes:
            out[size] = median(
                getattr(t, attr) for t in self.trials if t.size == size
            )
        return out

    def slopes(self) -> dict[str, float | None]:
        """Fitted log-log slope of median runtime against instance size;
        None when fewer than two distinct sizes were run."""
        out = {}
        for name, attr in (("staircase", "staircase_seconds"), ("bm", "bm_seconds")):
            med = self.medians(attr)
            xs = [math.log(s) for s in self.config.sizes]
            ys = [math.log(med[s]) for s in self.config.sizes]
            out[name] = fit_slope(xs, ys)
        return out

    def deterministic_payload(self) -> dict:
        """Everything reproducible for a fixed seed; no timings."""
        return {
            "seed": self.config.seed,
            "field": io.field_to_dict(self.config.field),
            "dimension": self.config.dimension,
            "sizes": list(self.config.sizes),
            "trials": self.config.trials,
            "results": [
                {
                    "size": t.size,
                    "trial": t.trial,
                    "match": t.match,
                    "corners": t.corners,
                    "basis_sha256": t.digest,
                }
                for t in self.trials
            ],
        }

    def table_lines(self) -> list[str]:
        lines = [f"{'size':>6} {'staircase[s]':>14} {'bm[s]':>14} {'match':>6}"]
        med_s = self.medians("staircase_seconds")
        med_b = self.medians("bm_seconds")
        for size in self.config.sizes:
            ok = all(t.match for t in self.trials if t.size == size)
            lines.append(
                f"{size:>6} {med_s[size]:>14.6f} {med_b[size]:>14.6f} "
                f"{'yes' if ok else 'NO':>6}"
            )
        slopes = {
            name: "n/a" if slope is None else f"{slope:.3f}"
            for name, slope in self.slopes().items()
        }
        lines.append(
            f"log-log slope: staircase {slopes['staircase']}, bm {slopes['bm']}"
        )
        return lines


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


def run_bench(cfg: BenchConfig) -> BenchResult:
    """Generate, time and cross-check all instances.  Instance draws
    consume one PRNG stream in a fixed order, so the generated point
    sets depend only on the seed and the configuration."""
    rng = SplitMix64(cfg.seed)
    result = BenchResult(cfg)
    for size in cfg.sizes:
        for trial in range(cfg.trials):
            ps = random_pointset(rng, cfg.field, cfg.dimension, size)
            ours, (t_staircase, t_bm), difference = run_both(ps)
            digest = hashlib.sha256(
                io.canonical_dumps(io.basis_to_dict(ours)).encode()
            ).hexdigest()[:16]
            result.trials.append(
                TrialResult(
                    size=size,
                    trial=trial,
                    match=difference is None,
                    corners=[list(c) for c in ours.staircase.sorted_corners()],
                    digest=digest,
                    staircase_seconds=t_staircase,
                    bm_seconds=t_bm,
                )
            )
    return result
