"""Which package attributes the traced run wraps, and how the recorded
spans become per-layer metrics.

The engines look every wrapped name up at call time (module globals,
class attributes), so the wrappers see recursive and internal calls.
A span's stage is the engine whose top-level call it ran under: the
staircase engine (`core.staircase_gb`) or the oracle (`bm.bm_gb`).
`Polynomial` products and constructions are reported for the staircase
engine only, since the oracle, the certificate and io build polynomials
too; echelon row operations are reported for the oracle.
"""

from __future__ import annotations

from collections import defaultdict

from .tracer import Tracer, self_times

STAGE_OF_ROOT = {"core.staircase_gb": "core", "bm.bm_gb": "bm"}
COUNTED_STAGE = {"poly.init": "core", "field.vec_sub_scaled": "bm"}


def _terms_in_out(args, result):
    return {"terms_in": len(args[0].terms), "terms_out": len(result.terms)}


def install(tracer: Tracer, pi) -> None:
    """Wrap the layer boundaries of the imported package `pi`."""
    core, bm, verify, io = pi.core, pi.bm, pi.verify, pi.io
    tracer.wrap(core, "staircase_gb", "core.staircase_gb", lambda a, r: {"dim": a[0].n})
    tracer.wrap(core, "slice_decompose", "core.slice_decompose", lambda a, r: {"slices": len(r)})
    tracer.wrap(core, "build_phi", "core.build_phi", lambda a, r: {"terms": len(r.terms)})
    tracer.wrap(core, "slice_representative", "core.slice_representative")
    tracer.wrap(core, "normal_form", "core.normal_form", _terms_in_out)
    tracer.wrap(core, "char_poly_family", "interp.char_poly_family", lambda a, r: {"nodes": len(a[1])})
    tracer.wrap(core, "univariate_vanishing", "interp.univariate_vanishing")
    tracer.wrap(core, "staircase_sum", "staircase.sum")
    tracer.wrap(pi.staircase.Staircase, "corners", "staircase.corners")
    tracer.wrap(pi.poly.Polynomial, "__mul__", "poly.mul")
    tracer.count(pi.poly.Polynomial, "__init__", "poly.init")
    tracer.wrap(bm, "bm_gb", "bm.bm_gb")
    tracer.wrap(bm, "bm_staircase", "bm.discover", lambda a, r: {"accepted": len(r) - 1})
    tracer.wrap(bm, "monomial_row", "bm.monomial_row")
    tracer.count(pi.field.PrimeField, "vec_sub_scaled", "field.vec_sub_scaled")
    tracer.count(pi.field.RationalField, "vec_sub_scaled", "field.vec_sub_scaled")
    tracer.wrap(verify, "verify_basis", "verify.verify_basis")
    for check in ("vanishing", "reduced_shape", "buchberger", "dimension"):
        tracer.wrap(verify, f"check_{check}", f"verify.{check}")
    tracer.wrap(verify, "normal_form", "verify.normal_form")
    tracer.wrap(io, "basis_to_dict", "io.dump")
    tracer.wrap(io, "canonical_dumps", "io.dump", lambda a, r: {"bytes": len(r.encode())})
    tracer.wrap(io, "basis_from_dict", "io.load")


# (metric, unit) in report order; every traced run reports all of them
PER_LAYER = [
    ("core.dim1.self_s", "s"),
    ("core.dim2.self_s", "s"),
    ("core.top.self_s", "s"),
    ("core.build_phi.calls", "count"),
    ("core.build_phi.self_s", "s"),
    ("core.build_phi.terms", "count"),
    ("core.reduce.calls", "count"),
    ("core.reduce.s", "s"),
    ("core.reduce.terms_in", "count"),
    ("core.reduce.terms_out", "count"),
    ("core.slice_representative.s", "s"),
    ("core.slice_decompose.s", "s"),
    ("core.slices", "count"),
    ("interp.char_poly_family.calls", "count"),
    ("interp.char_poly_family.nodes", "count"),
    ("interp.char_poly_family.s", "s"),
    ("interp.univariate_vanishing.calls", "count"),
    ("interp.univariate_vanishing.s", "s"),
    ("staircase.corners.core.calls", "count"),
    ("staircase.corners.core.s", "s"),
    ("staircase.corners.bm.calls", "count"),
    ("staircase.corners.bm.s", "s"),
    ("staircase.sum.calls", "count"),
    ("staircase.sum.s", "s"),
    ("poly.init.calls", "count"),
    ("poly.mul.calls", "count"),
    ("poly.mul.s", "s"),
    ("bm.discover.s", "s"),
    ("bm.solve.s", "s"),
    ("bm.rank_tests", "count"),
    ("bm.accepted", "count"),
    ("bm.accept_ratio", "ratio"),
    ("bm.monomial_row.calls", "count"),
    ("bm.monomial_row.s", "s"),
    ("field.vec_sub_scaled.calls", "count"),
    ("verify.vanishing.s", "s"),
    ("verify.reduced_shape.s", "s"),
    ("verify.buchberger.s", "s"),
    ("verify.dimension.s", "s"),
    ("verify.spairs", "count"),
    ("io.dump.s", "s"),
    ("io.load.s", "s"),
    ("io.bytes", "count"),
]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Totals over every traced instance, keyed as in PER_LAYER, plus
    `core.dim<k>.self_s` and `core.dim<k>.calls` for every level k seen."""
    spans = tracer.spans
    own = self_times(spans)
    stage = []
    for name, _, _, parent, _ in spans:
        stage.append(stage[parent] if parent >= 0 else STAGE_OF_ROOT.get(name, "other"))
    m: dict[str, float] = defaultdict(float)
    top_dim = 0
    for index, (name, start, end, parent, notes) in enumerate(spans):
        notes = notes or {}
        total = end - start
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "core.staircase_gb":
            dim = notes["dim"]
            m[f"core.dim{dim}.self_s"] += own[index]
            m[f"core.dim{dim}.calls"] += 1
            top_dim = max(top_dim, dim)
        elif name == "core.build_phi":
            m["core.build_phi.calls"] += 1
            m["core.build_phi.self_s"] += own[index]
            m["core.build_phi.terms"] += notes["terms"]
        elif name == "core.normal_form" and parent_name == "core.staircase_gb":
            m["core.reduce.calls"] += 1
            m["core.reduce.s"] += total
            m["core.reduce.terms_in"] += notes["terms_in"]
            m["core.reduce.terms_out"] += notes["terms_out"]
        elif name == "core.slice_representative":
            m["core.slice_representative.s"] += total
        elif name == "core.slice_decompose":
            m["core.slice_decompose.s"] += total
            m["core.slices"] += notes["slices"]
        elif name == "interp.char_poly_family":
            m["interp.char_poly_family.calls"] += 1
            m["interp.char_poly_family.nodes"] += notes["nodes"]
            m["interp.char_poly_family.s"] += total
        elif name in ("interp.univariate_vanishing", "staircase.sum", "bm.monomial_row") or (
            name == "poly.mul" and stage[index] == "core"
        ):
            m[f"{name}.calls"] += 1
            m[f"{name}.s"] += total
        elif name == "staircase.corners" and stage[index] in ("core", "bm"):
            m[f"staircase.corners.{stage[index]}.calls"] += 1
            m[f"staircase.corners.{stage[index]}.s"] += total
        elif name == "bm.discover":
            m["bm.discover.s"] += total
            m["bm.accepted"] += notes["accepted"]
            m["bm.rank_tests"] -= 1  # the origin's row is inserted untested
        elif name == "bm.bm_gb":
            m["bm.solve.s"] += own[index]
        elif name in ("verify.vanishing", "verify.reduced_shape", "verify.buchberger",
                      "verify.dimension", "io.load"):
            m[f"{name}.s"] += total
        elif name == "verify.normal_form" and parent_name == "verify.buchberger":
            m["verify.spairs"] += 1
        elif name == "io.dump":
            m["io.dump.s"] += total
            m["io.bytes"] += notes.get("bytes", 0)
        if name == "bm.monomial_row" and parent_name == "bm.discover":
            m["bm.rank_tests"] += 1
    m["core.top.self_s"] = m[f"core.dim{top_dim}.self_s"]
    m["bm.accept_ratio"] = m["bm.accepted"] / m["bm.rank_tests"] if m["bm.rank_tests"] else 0.0
    for (counter, span), calls in tracer.counts.items():
        if span >= 0 and stage[span] == COUNTED_STAGE[counter]:
            m[f"{counter}.calls"] += calls
    return dict(m)
