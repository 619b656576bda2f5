"""Command line interface.

Subcommands: ``gb`` (compute a basis), ``staircase`` (staircase and
corners, optionally an ASCII picture), ``check`` (certify a basis file
against a point file; each check prints PASS, FAIL or, for vanishing and
the S-pairs when the basis lacks the reduced shape, SKIPPED), ``compare``
(run both engines and insist on exact agreement), ``bench`` (seeded
random instances with timings and cross-checks).  Exit status is 0
exactly when everything requested passed, 1 when a check or comparison
fails, and 2, with one ``error:`` line, on malformed input.
"""

from __future__ import annotations

import argparse
import sys

from . import io
from .bench import deterministic_payload, run_bench, run_both, table_lines
from .bm import bm_gb
from .core import compute_staircase, staircase_gb
from .field import _INT_RE, _int, PrimeField, QQ
from .verify import verify_basis

METHODS = ("staircase", "bm", "both")


def _ascii_int(text: str) -> int:
    """int(text) under the scalar grammar of `field`: ASCII digits with
    an optional '-', and surrounding spaces, of any length.  int() alone
    also takes other scripts' digits and '_' between digits, and refuses
    more than 4,300 digits."""
    digits = text.strip()
    if _INT_RE.fullmatch(digits) is None:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return _int(digits)


def _parse_field(text: str):
    if text == "rational":
        return QQ
    if text.startswith("prime:"):
        try:
            return PrimeField(_ascii_int(text.split(":", 1)[1]))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad field {text!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(
        f"unknown field {text!r}; use 'rational' or 'prime:P'"
    )


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(_ascii_int(s) for s in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}") from exc
    if not sizes or any(s < 1 for s in sizes) or len(set(sizes)) < len(sizes):
        raise argparse.ArgumentTypeError(f"bad size list {text!r}")
    return sizes


def _integer(text: str) -> int:
    try:
        return _ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = _ascii_int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _write_output(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_gb(args) -> int:
    ps = io.load_pointset(args.points)
    if args.method == "bm":
        gb = bm_gb(ps)
    elif args.method == "staircase":
        gb = staircase_gb(ps)
    else:
        gb, _, difference = run_both(ps)
        if difference is not None:
            print("method disagreement: " + difference, file=sys.stderr)
            return 1
    _write_output(io.canonical_dumps(io.basis_to_dict(gb)), args.out)
    return 0


def _cmd_staircase(args) -> int:
    ps = io.load_pointset(args.points)
    stairs = compute_staircase(ps)
    payload = {
        "staircase": [list(c) for c in stairs.sorted_cells()],
        "corners": [list(c) for c in stairs.sorted_corners()],
    }
    _write_output(io.canonical_dumps(payload), args.out)
    if args.render:
        if ps.n == 2:
            print(stairs.render())
        else:
            print("rendering needs exactly two variables", file=sys.stderr)
    return 0


def _cmd_check(args) -> int:
    ps = io.load_pointset(args.points)
    gb = io.load_basis(args.basis, ps.field)
    report = verify_basis(gb, ps)
    for line in report.summary_lines():
        print(line)
    if args.out:
        _write_output(io.canonical_dumps(report.as_dict()), args.out)
    return 0 if report.overall else 1


def _cmd_compare(args) -> int:
    ours, (t_staircase, t_bm), difference = run_both(io.load_pointset(args.points))
    print(f"staircase method: {t_staircase:.6f} s")
    print(f"bm method:        {t_bm:.6f} s")
    if difference is not None:
        print(difference, file=sys.stderr)
        return 1
    print(f"bases agree ({len(ours.elements)} elements, dimension {ours.quotient_dimension()})")
    return 0


def _cmd_bench(args) -> int:
    settings = (args.seed, args.field, args.sizes, args.dim, args.trials)
    if args.out:
        # settings that JSON cannot hold fail here, before any trial runs
        io.canonical_dumps(deterministic_payload(*settings, []))
    records = run_bench(*settings)
    for line in table_lines(records):
        print(line)
    if args.out:
        _write_output(io.canonical_dumps(deterministic_payload(*settings, records)), args.out)
    return 0 if all(r["match"] for r in records) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointideal",
        description="Exact lexicographic Groebner bases of vanishing ideals "
        "of finite point sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gb = sub.add_parser("gb", help="compute the reduced basis of a point file")
    p_gb.add_argument("--points", required=True, help="point set file (JSON)")
    p_gb.add_argument("--method", choices=METHODS, default="both")
    p_gb.add_argument("--out", help="output file (default: stdout)")
    p_gb.set_defaults(func=_cmd_gb)

    p_st = sub.add_parser("staircase", help="staircase and corners of a point file")
    p_st.add_argument("--points", required=True)
    p_st.add_argument("--render", action="store_true", help="ASCII picture (two variables)")
    p_st.add_argument("--out", help="output file (default: stdout)")
    p_st.set_defaults(func=_cmd_staircase)

    p_ck = sub.add_parser("check", help="certify a basis file against a point file")
    p_ck.add_argument("--points", required=True)
    p_ck.add_argument("--basis", required=True)
    p_ck.add_argument("--out", help="write the report as JSON")
    p_ck.set_defaults(func=_cmd_check)

    p_cp = sub.add_parser("compare", help="run both engines, require exact agreement")
    p_cp.add_argument("--points", required=True)
    p_cp.set_defaults(func=_cmd_compare)

    p_be = sub.add_parser("bench", help="seeded random instances with timings")
    p_be.add_argument("--seed", type=_integer, required=True)
    p_be.add_argument("--sizes", type=_parse_sizes, default=(64, 128, 256))
    p_be.add_argument("--field", type=_parse_field, default=PrimeField(7919))
    p_be.add_argument("--dim", type=_positive_int, default=2)
    p_be.add_argument("--trials", type=_positive_int, default=5)
    p_be.add_argument("--out", help="write the deterministic results as JSON")
    p_be.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: the input needs more memory than is available", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
