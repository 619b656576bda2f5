"""The benchmark run: set-up, a closed loop over seeded instances, the
per-instance correctness gate, and the result line.

One process, one client, no threads: each instance starts when the
previous one has finished.  Every instance runs the staircase engine,
the oracle, the certificate on the staircase result and an io round
trip, each timed on its own between two runs of the reference kernel,
which give the host speed at that moment.  An instance is certified
when the engines agree, the certificate passes and the round trip gives
identical bytes; anything else, an exception included, is a failure
with a one-line witness, and the run goes on.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from statistics import median

from .layers import PER_LAYER, install, layer_metrics
from .tracer import Tracer
from .workloads import WORKLOADS, InstanceStream, Workload

SETUP_REPEATS = 7
POOL = 160  # instances drawn during set-up
PREFIX = 12  # instances covered by basis_sha256 and by the traced run
STAGES = ("staircase", "bm", "verify", "io")
# Median seconds of reference_kernel on a quiet Intel Xeon (family 6,
# model 207) vCPU at 2.1 GHz under CPython 3.11.  Only a scale: timings
# are reported at the host speed where the kernel takes this long.
REFERENCE_KERNEL_S = 0.006


def reference_kernel() -> int:
    """Fixed pure-Python work sharing no code with the package: tuple
    keys, dict updates, modular and Fraction arithmetic, the operations
    of the engines' inner loops.  Timed before and after each stage, it
    measures how fast the host runs Python at that moment."""
    terms: dict = {}
    acc = 1
    for i in range(10000):
        key = (i % 7, i % 11, i % 5)
        acc = (acc * 31 + i) % 7919
        terms[key] = (terms.get(key, 0) + acc) % 7919
    row = list(range(1, 81))
    other = [(7 * i + 3) % 7919 for i in range(80)]
    for c in range(1, 120):
        row = [(a - c * b) % 7919 for a, b in zip(row, other)]
    for _ in range(2):
        q = Fraction(1, 3)
        for i in range(150):
            q = q * Fraction(i + 2, i + 1) - Fraction(1, i + 7)
    return len(terms) + row[0] + q.denominator % 7


class SetupError(RuntimeError):
    """The package under test cannot be imported from the checkout."""


def import_package(src: Path):
    """Import `pointideal` afresh from `src`, dropping any earlier import,
    and insist that it is the checkout's copy."""
    for name in [m for m in sys.modules if m == "pointideal" or m.startswith("pointideal.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        pi = importlib.import_module("pointideal")
    except ImportError as exc:
        raise SetupError(f"cannot import pointideal from {src}: {exc}") from exc
    if Path(pi.__file__).resolve().parent != (src / "pointideal").resolve():
        raise SetupError(f"pointideal was imported from {pi.__file__}, not from {src}")
    return pi


def time_kernel() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between kernel runs of `before` and `after`
    seconds, scaled to the host speed at which the kernel takes
    REFERENCE_KERNEL_S."""
    return seconds * REFERENCE_KERNEL_S * 2 / (before + after)


def setup(src: Path, workload: Workload, seed: int):
    """Import the package and draw the instance pool, SETUP_REPEATS times,
    each between two runs of the reference kernel.  Return the last
    package, its instance stream, and the median set-up seconds, raw and
    at the reference host speed."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous repeat's garbage is not this one's cost
        before = time_kernel()
        t0 = time.perf_counter()
        pi = import_package(src)
        stream = InstanceStream(workload, seed, POOL)
        seconds = time.perf_counter() - t0
        raw.append(seconds)
        scaled.append(at_reference_speed(seconds, before, time_kernel()))
    return pi, stream, median(raw), median(scaled)


@dataclass
class Outcome:
    seconds: dict  # stage -> raw seconds, for the stages that ran
    scaled: dict  # stage -> seconds at the reference host speed
    kernel: list  # reference_kernel seconds, before, between and after the stages
    basis_bytes: bytes = b""
    witness: str | None = None


def io_round_trip(io, gb, field):
    text = io.canonical_dumps(io.basis_to_dict(gb))
    again = io.canonical_dumps(io.basis_to_dict(io.basis_from_dict(json.loads(text), field)))
    return text, again


def run_instance(pi, ps) -> Outcome:
    """Time the four stages on one point set and check the results.  The
    reference kernel runs before the first stage and after each one, so
    each stage is scaled by the host speed around it: that speed drifts
    within a run on a shared host."""
    outcome = Outcome({}, {}, [time_kernel()])

    def timed(stage, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            seconds = outcome.seconds[stage] = time.perf_counter() - t0
            outcome.kernel.append(time_kernel())
            outcome.scaled[stage] = at_reference_speed(seconds, *outcome.kernel[-2:])

    try:
        gb = timed("staircase", pi.core.staircase_gb, ps)
        oracle = timed("bm", pi.bm.bm_gb, ps)
        report = timed("verify", pi.verify.verify_basis, gb, ps)
        text, again = timed("io", io_round_trip, pi.io, gb, ps.field)
    except Exception as exc:  # a failed instance is counted, not fatal
        outcome.witness = f"{type(exc).__name__}: {exc}"
        return outcome
    outcome.basis_bytes = text.encode()
    if gb != oracle:
        outcome.witness = "engines disagree"
    elif not report.overall:
        failed = next(c for c in report.checks if not c.passed)
        outcome.witness = f"staircase basis fails {failed.name}: {failed.witness}"
    elif again != text:
        outcome.witness = "io round trip changed the bytes"
    return outcome


@dataclass
class Loop:
    """What a pass over instances produced."""

    attempted: int = 0
    failed: int = 0
    wall: float = 0.0  # raw seconds in the stages, summed
    work: float = 0.0  # the same at the reference host speed
    samples: dict = field(default_factory=lambda: {s: [] for s in STAGES})  # scaled
    raw: dict = field(default_factory=lambda: {s: [] for s in STAGES})
    digest: object = field(default_factory=hashlib.sha256)
    witnesses: list = field(default_factory=list)
    kernel: list = field(default_factory=list)  # reference_kernel seconds

    @property
    def certified(self) -> int:
        return self.attempted - self.failed

    def step(self, pi, stream: InstanceStream, index: int) -> None:
        """Run and record instance `index`.  The digest covers the bases
        of the first PREFIX instances."""
        outcome = run_instance(pi, stream[index])
        self.wall += sum(outcome.seconds.values())
        self.work += sum(outcome.scaled.values())
        self.kernel += outcome.kernel
        self.attempted += 1
        if outcome.witness is not None:
            self.failed += 1
            self.witnesses.append(f"instance {index}: {outcome.witness}")
        else:
            for stage in STAGES:
                self.samples[stage].append(outcome.scaled[stage])
                self.raw[stage].append(outcome.seconds[stage])
        if index < PREFIX:
            self.digest.update(outcome.basis_bytes)


def host_speed(kernel_seconds) -> float:
    """Host speed over a run relative to the reference: the reference
    kernel's seconds over its median measured seconds."""
    return REFERENCE_KERNEL_S / median(kernel_seconds)


def percentile(values: list, pct: int) -> float:
    """The `pct`-th percentile of `values` by nearest rank."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct * len(ordered) / 100) - 1)]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(pi, stream, workload: Workload, seconds: float, setup_s: float):
    """The untraced run: a closed loop for `seconds` of wall time and at
    least PREFIX instances.  Returns the loop and the end-to-end metrics,
    all timings at the reference host speed.  The raw figures are
    printed."""
    loop = Loop()
    start = time.perf_counter()
    while loop.attempted < PREFIX or time.perf_counter() - start < seconds:
        loop.step(pi, stream, loop.attempted)
    pct = workload.tail_pct
    print(f"host speed over the loop {host_speed(loop.kernel):.4f}; raw seconds:")
    metrics = {"setup_s": (setup_s, "s")}
    for stage in STAGES:
        values, raw = loop.samples[stage], loop.raw[stage]
        if values:
            print(f"{stage}_s: p50 {median(raw):.6f} s, tail p{pct} "
                  f"{percentile(raw, pct):.6f} s over {len(raw)} samples")
            if stage != "io":
                metrics[f"{stage}_s.p50"] = (median(values), "s")
                metrics[f"{stage}_s.tail"] = (percentile(values, pct), "s")
    print(f"certified_per_s: {loop.certified / loop.wall:.6f}")
    metrics["certified_per_s"] = (loop.certified / loop.work, "1/s")
    metrics["peak_rss_mib"] = (peak_rss_mib(), "MiB")
    return loop, metrics


def traced(pi, stream, trace_path: Path):
    """The traced run over the first PREFIX instances: each runs
    untraced, then again under the tracer, so both passes see the same
    host conditions.  Returns both loops and the per-layer metrics."""
    plain, loop = Loop(), Loop()
    with Tracer() as tracer:
        for index in range(PREFIX):
            plain.step(pi, stream, index)
            install(tracer, pi)
            try:
                loop.step(pi, stream, index)
            finally:
                tracer.restore()
    tracer.write(trace_path)
    speed = host_speed(plain.kernel + loop.kernel)
    found = layer_metrics(tracer)
    print(f"host speed {speed:.4f}: reported seconds are the raw seconds below times this")
    for name in sorted(n for n in found if n.startswith("core.dim")):
        print(f"{name}: {found[name]:.6g}")
    scale = {"count": int, "s": lambda v: v * speed, "ratio": float}
    metrics = {name: (scale[unit](found.get(name, 0)), unit) for name, unit in PER_LAYER}
    metrics["trace.certified_per_s"] = (loop.certified / loop.work, "1/s")
    metrics["trace.untraced_certified_per_s"] = (plain.certified / plain.work, "1/s")
    metrics["trace.slowdown"] = (loop.work / plain.work, "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["host.speed"] = (speed, "ratio")
    return plain, loop, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pointideal benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    workload = WORKLOADS[args.workload]
    try:
        pi, stream, setup_raw, setup_s = setup(root / "src", workload, args.seed)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        out = root / "perfbench" / "traces"
        out.mkdir(exist_ok=True)
        plain, loop, metrics = traced(pi, stream, out / f"{workload.name}-seed{args.seed}.jsonl")
        loops = (plain, loop)
        correct = plain.digest.hexdigest() == loop.digest.hexdigest()
        if not correct:
            print("traced and untraced bases differ")
    else:
        print(f"setup_s: {setup_raw:.6f} s raw")
        loop, metrics = end_to_end(pi, stream, workload, args.seconds, setup_s)
        loops = (loop,)
        correct = True
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    for lp in loops:
        for line in lp.witnesses:
            print(f"FAIL {line}")
    print(f"{workload.name} seed {args.seed}: {attempted} attempted, {failed} failed, "
          f"fail_ratio {failed / attempted:.6g}")
    print(f"basis_sha256 (first {PREFIX} instances): {loops[-1].digest.hexdigest()}")
    result = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0
