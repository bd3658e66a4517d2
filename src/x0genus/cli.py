"""Command line interface: every computation as a subcommand.

Formats: csv (RFC-4180-style quoting, newline row terminator), json (one
document per run), plain (newline-delimited values, or key=value lines
for single-record commands).  All numeric output is deterministic for
fixed flags; --threads changes wall time, never a digit.

Exit codes: 0 success; 1 invalid input or capacity refusal; 2 usage
error (unknown subcommand, malformed flag); 3 internal consistency
fault.  The X0GENUS_BRUTE_CEILING environment variable raises the size
ceiling of the brute-force oracles.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, replace
from typing import Any, Callable, Optional, TextIO

from . import bounds, stats, values
from .genus import ConsistencyError, genus as genus_breakdown, iter_blocks

TABLE_COLUMNS = ("n", "mu", "nu2", "nu3", "nu_inf", "genus")

_INTS = {"type": "array", "items": {"type": "integer"}}

# one declared schema per subcommand; json output validates against these
SCHEMAS: dict[str, dict[str, Any]] = {
    "genus": {
        "type": "object",
        "properties": {c: {"type": "integer"} for c in TABLE_COLUMNS},
        "required": list(TABLE_COLUMNS),
        "additionalProperties": False,
    },
    "table": {
        "type": "object",
        "properties": {
            "max": {"type": "integer"},
            "columns": {"type": "array", "items": {"type": "string"}},
            "rows": {
                "type": "array",
                "items": {
                    "type": "array",
                    "items": {"type": "integer"},
                    "minItems": 6,
                    "maxItems": 6,
                },
            },
        },
        "required": ["max", "columns", "rows"],
        "additionalProperties": False,
    },
    "missed": {
        "type": "object",
        "properties": {
            "x": {"type": "integer"},
            "scan_limit": {"type": "integer"},
            "missed": _INTS,
            "attained_count": {"type": "integer"},
            "odd_missed": _INTS,
            "first_odd_position": {"type": ["integer", "null"]},
        },
        "required": [
            "x",
            "scan_limit",
            "missed",
            "attained_count",
            "odd_missed",
            "first_odd_position",
        ],
        "additionalProperties": False,
    },
    "parity": {
        "type": "object",
        "properties": {
            "max": {"type": "integer"},
            "mismatches": _INTS,
            "ok": {"type": "boolean"},
        },
        "required": ["max", "mismatches", "ok"],
        "additionalProperties": False,
    },
    "bounds": {
        "type": "object",
        "properties": {
            "max": {"type": "integer"},
            "violations": _INTS,
            "mu_over_12_violations": _INTS,
            "equality_levels": _INTS,
            "expected_equality_levels": _INTS,
            "ok": {"type": "boolean"},
        },
        "required": [
            "max",
            "violations",
            "mu_over_12_violations",
            "equality_levels",
            "expected_equality_levels",
            "ok",
        ],
        "additionalProperties": False,
    },
    "average": {
        "type": "object",
        "properties": {
            "bound": {"type": "integer"},
            "avg_ratio": {"type": "number"},
            "avg_genus_over_b": {"type": "number"},
            "target": {"type": "number"},
        },
        "required": ["bound", "avg_ratio", "avg_genus_over_b", "target"],
        "additionalProperties": False,
    },
    "density": {
        "type": "object",
        "properties": {
            "ell": {"type": "integer"},
            "exact_value": {"type": "number"},
            "truncation_error": {"type": "number"},
            "prime_limit": {"type": "integer"},
            "empirical_frequency": {"type": ["number", "null"]},
            "sample_bound": {"type": ["integer", "null"]},
        },
        "required": [
            "ell",
            "exact_value",
            "truncation_error",
            "prime_limit",
            "empirical_frequency",
            "sample_bound",
        ],
        "additionalProperties": False,
    },
    "histogram": {
        "type": "object",
        "properties": {
            "ell": {"type": "integer"},
            "bound": {"type": "integer"},
            "counts": _INTS,
            "flagged": _INTS,
            "two_primitive_root": {"type": "boolean"},
            "enrichment_holds": {"type": ["boolean", "null"]},
        },
        "required": [
            "ell",
            "bound",
            "counts",
            "flagged",
            "two_primitive_root",
            "enrichment_holds",
        ],
        "additionalProperties": False,
    },
    "constants": {
        "type": "object",
        "properties": {k: {"type": "number"} for k in ("A", "B", "a0", "b", "c")},
        "required": ["A", "B", "a0", "b", "c"],
        "additionalProperties": False,
    },
    "dirichlet": {
        "type": "object",
        "properties": {
            "s": {"type": "number"},
            "n_terms": {"type": "integer"},
            "lhs": {"type": "number"},
            "rhs": {"type": "number"},
            "gap": {"type": "number"},
            "tail_bound": {"type": "number"},
            "rhs_error": {"type": "number"},
            "ok": {"type": "boolean"},
        },
        "required": ["s", "n_terms", "lhs", "rhs", "gap", "tail_bound", "rhs_error", "ok"],
        "additionalProperties": False,
    },
}


def _sig(x: float, precision: int) -> float:
    """Round to `precision` significant digits, staying a float for json."""
    return float(f"{x:.{precision}g}")


def _fmt(v: Any, precision: int) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, float):
        return f"{v:.{precision}g}"
    return str(v)


def _round_floats(payload: dict[str, Any], precision: int) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for k, v in payload.items():
        if isinstance(v, float):
            out[k] = _sig(v, precision)
        else:
            out[k] = v
    return out


def _emit_json(payload: Any, out: TextIO) -> None:
    json.dump(payload, out, indent=2)
    out.write("\n")


def _emit_record(payload: dict[str, Any], args: argparse.Namespace, out: TextIO) -> None:
    """Scalar record: csv = header + one row, plain = key=value lines."""
    payload = _round_floats(payload, args.precision)
    if args.format == "json":
        _emit_json(payload, out)
    elif args.format == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(payload.keys())
        w.writerow(_fmt(v, args.precision) for v in payload.values())
    else:
        for k, v in payload.items():
            out.write(f"{k}={_fmt(v, args.precision)}\n")


def _cmd_genus(args: argparse.Namespace, out: TextIO) -> None:
    b = genus_breakdown(args.n)
    _emit_record(asdict(b), args, out)


def _cmd_table(args: argparse.Namespace, out: TextIO) -> None:
    blocks = iter_blocks(1, args.max, threads=args.threads)
    if args.format == "json":
        out.write('{"max": %d, "columns": %s, "rows": [' % (args.max, json.dumps(list(TABLE_COLUMNS))))
        first = True
        for blk in blocks:
            rows = zip(range(blk.lo, blk.hi + 1), blk.mu.tolist(), blk.nu2.tolist(),
                       blk.nu3.tolist(), blk.nu_inf.tolist(), blk.genus.tolist())
            chunk = ", ".join("[%d, %d, %d, %d, %d, %d]" % r for r in rows)
            out.write(("" if first else ", ") + chunk)
            first = False
        out.write("]}\n")
        return
    if args.format == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(TABLE_COLUMNS)
        for blk in blocks:
            w.writerows(zip(range(blk.lo, blk.hi + 1), blk.mu.tolist(), blk.nu2.tolist(),
                            blk.nu3.tolist(), blk.nu_inf.tolist(), blk.genus.tolist()))
        return
    for blk in blocks:
        for r in zip(range(blk.lo, blk.hi + 1), blk.mu.tolist(), blk.nu2.tolist(),
                     blk.nu3.tolist(), blk.nu_inf.tolist(), blk.genus.tolist()):
            out.write("%d %d %d %d %d %d\n" % r)


def _cmd_missed(args: argparse.Namespace, out: TextIO) -> None:
    rep = values.missed_values(args.max, threads=args.threads)
    if args.format == "json":
        payload = asdict(rep)
        payload["missed"] = list(rep.missed)
        payload["odd_missed"] = list(rep.odd_missed)
        _emit_json(payload, out)
    elif args.format == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(("n", "parity", "position"))
        for i, n in enumerate(rep.missed, start=1):
            w.writerow((n, "odd" if n % 2 else "even", i))
    else:
        for n in rep.missed:
            out.write(f"{n}\n")


def _cmd_parity(args: argparse.Namespace, out: TextIO) -> None:
    mismatches = values.verify_parity_classification(args.max, threads=args.threads)
    if args.format == "json":
        _emit_json({"max": args.max, "mismatches": mismatches, "ok": not mismatches}, out)
    elif args.format == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(("n",))
        w.writerows((n,) for n in mismatches)
    else:
        out.write(f"max={args.max}\n")
        out.write(f"mismatches={len(mismatches)}\n")
        out.write(f"ok={_fmt(not mismatches, args.precision)}\n")
        for n in mismatches:
            out.write(f"mismatch={n}\n")


def _cmd_bounds(args: argparse.Namespace, out: TextIO) -> None:
    reports = bounds.check_bounds_range(1, args.max, threads=args.threads)
    violations = [r.n for r in reports if r.is_violation]
    equality = [r.n for r in reports if r.lower_equality]
    expected = bounds.expected_equality_levels(1, args.max)
    mu12 = bounds.mu_over_12_bound_check(1, args.max, threads=args.threads)
    ok = not violations and not mu12 and equality == expected
    if args.format == "json":
        _emit_json(
            {
                "max": args.max,
                "violations": violations,
                "mu_over_12_violations": mu12,
                "equality_levels": equality,
                "expected_equality_levels": expected,
                "ok": ok,
            },
            out,
        )
    elif args.format == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(("kind", "n"))
        w.writerows(("violation", n) for n in violations)
        w.writerows(("mu_over_12_violation", n) for n in mu12)
        w.writerows(("equality", n) for n in equality)
    else:
        out.write(f"max={args.max}\n")
        out.write(f"violations={len(violations)}\n")
        out.write(f"mu_over_12_violations={len(mu12)}\n")
        out.write(f"ok={_fmt(ok, args.precision)}\n")
        for n in equality:
            out.write(f"equality={n}\n")


def _cmd_average(args: argparse.Namespace, out: TextIO) -> None:
    rep = stats.average_partial(args.max, threads=args.threads)
    _emit_record(asdict(rep), args, out)


def _cmd_density(args: argparse.Namespace, out: TextIO) -> None:
    d = stats.residue_density_exact(args.ell)
    if args.empirical_max is not None:
        d = replace(
            d,
            empirical_frequency=stats.residue_density_empirical(
                args.ell, args.empirical_max, threads=args.threads
            ),
            sample_bound=args.empirical_max,
        )
    _emit_record(asdict(d), args, out)


def _cmd_histogram(args: argparse.Namespace, out: TextIO) -> None:
    h = stats.residue_histogram(args.ell, args.max, threads=args.threads)
    if args.format == "json":
        payload = asdict(h)
        payload["counts"] = list(h.counts)
        payload["flagged"] = list(h.flagged)
        _emit_json(payload, out)
    elif args.format == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(("residue", "count", "flagged"))
        for r, c in enumerate(h.counts):
            w.writerow((r, c, "true" if r in h.flagged else "false"))
    else:
        for r, c in enumerate(h.counts):
            flag = "flagged" if r in h.flagged else "-"
            out.write(f"{r} {c} {flag}\n")
        out.write(f"enrichment_holds={_fmt(h.enrichment_holds, args.precision)}\n")


def _cmd_constants(args: argparse.Namespace, out: TextIO) -> None:
    c = stats.asymptotic_constants(args.tol)
    _emit_record(asdict(c), args, out)


def _cmd_dirichlet(args: argparse.Namespace, out: TextIO) -> None:
    chk = stats.zeta_identity_check(args.s, threads=args.threads)
    payload = asdict(chk)
    payload["ok"] = chk.ok
    _emit_record(payload, args, out)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("csv", "json", "plain"), default="plain", help="output format"
    )
    common.add_argument("--output", default=None, help="output file (default: stdout)")
    common.add_argument(
        "--precision", type=int, default=10, help="significant digits for real values"
    )
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads for range scans, >= 1 (results identical)",
    )

    p = argparse.ArgumentParser(
        prog="x0genus",
        description="Genus of X0(N): breakdowns, missed values, parity, bounds, densities.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("genus", parents=[common], help="breakdown for a single level")
    sp.add_argument("n", type=int)
    sp.set_defaults(func=_cmd_genus)

    sp = sub.add_parser("table", parents=[common], help="breakdowns for all levels up to --max")
    sp.add_argument("--max", type=int, required=True)
    sp.set_defaults(func=_cmd_table)

    sp = sub.add_parser("missed", parents=[common], help="positive integers <= --max never attained")
    sp.add_argument("--max", type=int, required=True)
    sp.set_defaults(func=_cmd_missed)

    sp = sub.add_parser("parity", parents=[common], help="verify the six-family parity classification")
    sp.add_argument("--max", type=int, required=True)
    sp.set_defaults(func=_cmd_parity)

    sp = sub.add_parser("bounds", parents=[common], help="verify lower/upper bounds and equality cases")
    sp.add_argument("--max", type=int, required=True)
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("average", parents=[common], help="partial averages of the genus")
    sp.add_argument("--max", type=int, required=True)
    sp.set_defaults(func=_cmd_average)

    sp = sub.add_parser("density", parents=[common], help="density of g0(N) = 1 (mod ell)")
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--empirical-max", type=int, default=None, dest="empirical_max")
    sp.set_defaults(func=_cmd_density)

    sp = sub.add_parser("histogram", parents=[common], help="histogram of g0(N) mod ell")
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--max", type=int, required=True)
    sp.set_defaults(func=_cmd_histogram)

    sp = sub.add_parser("constants", parents=[common], help="growth constants a0, b, c")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.set_defaults(func=_cmd_constants)

    sp = sub.add_parser("dirichlet", parents=[common], help="partial F(s) against the zeta product")
    sp.add_argument("--s", type=float, required=True)
    sp.set_defaults(func=_cmd_dirichlet)

    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    func: Callable[[argparse.Namespace, TextIO], None] = args.func
    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {args.threads}")
        if args.output is None:
            func(args, sys.stdout)
        else:
            with open(args.output, "w", encoding="utf-8", newline="") as out:
                func(args, out)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ConsistencyError as e:
        print(f"internal consistency fault: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
