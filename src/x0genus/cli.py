"""Command line interface: every computation as a subcommand.

Formats: csv (RFC-4180-style quoting, newline row terminator), json (one
document per run), plain (newline-delimited values, or key=value lines
for single-record commands).  All numeric output is deterministic for
fixed flags.

Exit codes: 0 success; 1 invalid input, capacity refusal, or a reader
that closed the output pipe early; 2 usage error (unknown subcommand,
malformed flag); 3 internal consistency fault.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, replace
from itertools import chain
from typing import Any, Callable, Iterable, Optional, TextIO, get_args, get_origin, get_type_hints

from . import bounds, stats, values
from .arith import PRIME_LIMIT_MAX
from .genus import LEVEL_MAX, ConsistencyError, GenusBreakdown, genus as genus_breakdown, iter_blocks

TABLE_COLUMNS = ("n", "mu", "nu2", "nu3", "nu_inf", "genus")

_JSON_TYPES = {int: "integer", float: "number", bool: "boolean", str: "string"}


def _property(hint: Any) -> dict[str, Any]:
    """JSON schema of one field from its type hint.

    int, float, bool and str map to their JSON types, Optional[X] to
    [X, "null"] and tuple[X, ...] to an array of X; a dict is taken as a
    ready schema.
    """
    if isinstance(hint, dict):
        return hint
    if get_origin(hint) is tuple:
        return {"type": "array", "items": _property(get_args(hint)[0])}
    args = [a for a in get_args(hint) if a is not type(None)]
    if len(args) == 1:
        return {"type": [_JSON_TYPES[args[0]], "null"]}
    return {"type": _JSON_TYPES[hint]}


def _schema(hints: dict[str, Any]) -> dict[str, Any]:
    """A closed object schema requiring every field, in the order given."""
    properties = {k: _property(h) for k, h in hints.items()}
    return {
        "type": "object",
        "properties": properties,
        "required": list(properties),
        "additionalProperties": False,
    }


_TABLE_ROW = {
    "type": "array",
    "items": {"type": "integer"},
    "minItems": len(TABLE_COLUMNS),
    "maxItems": len(TABLE_COLUMNS),
}

# one schema per subcommand, taken from the result type it prints; json
# output validates against these
SCHEMAS: dict[str, dict[str, Any]] = {
    "genus": _schema(get_type_hints(GenusBreakdown)),
    "table": _schema(
        {"max": int, "columns": tuple[str, ...], "rows": {"type": "array", "items": _TABLE_ROW}}
    ),
    "missed": _schema(get_type_hints(values.MissedValuesReport)),
    "parity": _schema({"max": int, "mismatches": tuple[int, ...], "ok": bool}),
    "bounds": _schema(
        {
            "max": int,
            "violations": tuple[int, ...],
            "mu_over_12_violations": tuple[int, ...],
            "equality_levels": tuple[int, ...],
            "expected_equality_levels": tuple[int, ...],
            "ok": bool,
        }
    ),
    "average": _schema(get_type_hints(stats.AverageReport)),
    "density": _schema(get_type_hints(stats.ResidueDensity)),
    "histogram": _schema(get_type_hints(stats.ResidueHistogram)),
    "constants": _schema(get_type_hints(stats.AsymptoticConstants)),
    "dirichlet": _schema(get_type_hints(stats.DirichletCheck) | {"ok": bool}),
}


def _fmt(v: Any, precision: int) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, float):
        return f"{v:.{precision}g}"
    return str(v)


def _emit(
    args: argparse.Namespace,
    out: TextIO,
    record: dict[str, Any],
    columns: Optional[Iterable[str]] = None,
    rows: Iterable[Iterable[Any]] = (),
    plain: Optional[Iterable[str]] = None,
) -> None:
    """Write one command's result in the format --format asks for.

    Floats in the record are first rounded to --precision significant
    digits.  json writes the record; csv writes `columns` and then `rows`,
    or without columns the record as a header and one row; plain writes
    the `plain` lines, or without them one key=value line per field.
    """
    record = {
        k: float(f"{v:.{args.precision}g}") if isinstance(v, float) else v
        for k, v in record.items()
    }
    if args.format == "json":
        json.dump(record, out, indent=2)
        out.write("\n")
    elif args.format == "csv":
        w = csv.writer(out, lineterminator="\n")
        if columns is None:
            columns, rows = record, [[_fmt(v, args.precision) for v in record.values()]]
        w.writerow(columns)
        w.writerows(rows)
    else:
        if plain is None:
            plain = (f"{k}={_fmt(v, args.precision)}" for k, v in record.items())
        for line in plain:
            out.write(line + "\n")


def _cmd_genus(args: argparse.Namespace, out: TextIO) -> None:
    _emit(args, out, asdict(genus_breakdown(args.n)))


# (header, row format, row separator, trailer) of the table in each format
_TABLE_LAYOUT = {
    "plain": ("", "%d %d %d %d %d %d\n", "", ""),
    "csv": (",".join(TABLE_COLUMNS) + "\n", "%d,%d,%d,%d,%d,%d\n", "", ""),
    "json": ('{"max": %%d, "columns": %s, "rows": [' % json.dumps(list(TABLE_COLUMNS)),
             "[%d, %d, %d, %d, %d, %d]", ", ", "]}\n"),
}


def _cmd_table(args: argparse.Namespace, out: TextIO) -> None:
    header, row, sep, trailer = _TABLE_LAYOUT[args.format]
    header = header.replace("%d", str(args.max))
    for blk in iter_blocks(1, args.max):
        rows = zip(range(blk.lo, blk.hi + 1), blk.mu.tolist(), blk.nu2.tolist(),
                   blk.nu3.tolist(), blk.nu_inf.tolist(), blk.genus.tolist())
        # the header goes out with the first block, after iter_blocks checks --max
        out.write((sep if blk.lo > 1 else header) + sep.join(map(row.__mod__, rows)))
    out.write(trailer)


def _cmd_missed(args: argparse.Namespace, out: TextIO) -> None:
    rep = values.missed_values(args.max)
    rows = ((n, "odd" if n % 2 else "even", i) for i, n in enumerate(rep.missed, start=1))
    plain = (str(n) for n in rep.missed)
    _emit(args, out, asdict(rep), ("n", "parity", "position"), rows, plain)


def _cmd_parity(args: argparse.Namespace, out: TextIO) -> None:
    mismatches = values.verify_parity_classification(args.max)
    ok = not mismatches
    record = {"max": args.max, "mismatches": mismatches, "ok": ok}
    plain = [f"max={args.max}", f"mismatches={len(mismatches)}", f"ok={_fmt(ok, args.precision)}"]
    plain += [f"mismatch={n}" for n in mismatches]
    _emit(args, out, record, ("n",), ((n,) for n in mismatches), plain)


def _cmd_bounds(args: argparse.Namespace, out: TextIO) -> None:
    reports, mu12 = [], []
    for blk in iter_blocks(1, args.max):
        reports += bounds.bound_reports(blk)
        mu12 += bounds.mu_over_12_violations(blk)
    violations = [r.n for r in reports if r.is_violation]
    equality = [r.n for r in reports if r.lower_equality]
    expected = bounds.expected_equality_levels(1, args.max)
    ok = not violations and not mu12 and equality == expected
    record = {
        "max": args.max,
        "violations": violations,
        "mu_over_12_violations": mu12,
        "equality_levels": equality,
        "expected_equality_levels": expected,
        "ok": ok,
    }
    rows = [("violation", n) for n in violations] + [("mu_over_12_violation", n) for n in mu12]
    rows += [("equality", n) for n in equality]
    plain = [
        f"max={args.max}",
        f"violations={len(violations)}",
        f"mu_over_12_violations={len(mu12)}",
        f"ok={_fmt(ok, args.precision)}",
    ]
    plain += [f"equality={n}" for n in equality]
    _emit(args, out, record, ("kind", "n"), rows, plain)


def _cmd_average(args: argparse.Namespace, out: TextIO) -> None:
    _emit(args, out, asdict(stats.average_partial(args.max)))


def _cmd_density(args: argparse.Namespace, out: TextIO) -> None:
    d = stats.residue_density_exact(args.ell)
    if args.empirical_max is not None:
        freq = stats.residue_density_empirical(args.ell, args.empirical_max)
        d = replace(d, empirical_frequency=freq, sample_bound=args.empirical_max)
    _emit(args, out, asdict(d))


def _cmd_histogram(args: argparse.Namespace, out: TextIO) -> None:
    h = stats.residue_histogram(args.ell, args.max)
    flagged = set(h.flagged)
    counts = list(enumerate(h.counts))
    rows = ((r, c, _fmt(r in flagged, args.precision)) for r, c in counts)
    plain = chain((f"{r} {c} {'flagged' if r in flagged else '-'}" for r, c in counts),
                  [f"enrichment_holds={_fmt(h.enrichment_holds, args.precision)}"])
    _emit(args, out, asdict(h), ("residue", "count", "flagged"), rows, plain)


def _cmd_constants(args: argparse.Namespace, out: TextIO) -> None:
    _emit(args, out, asdict(stats.asymptotic_constants()))


def _cmd_dirichlet(args: argparse.Namespace, out: TextIO) -> None:
    chk = stats.zeta_identity_check(args.s)
    _emit(args, out, asdict(chk) | {"ok": chk.ok})


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("csv", "json", "plain"), default="plain", help="output format"
    )
    common.add_argument("--output", default=None, help="output file (default: stdout)")
    common.add_argument(
        "--precision", type=int, default=10, help="significant digits for real values, >= 1"
    )

    p = argparse.ArgumentParser(
        prog="x0genus",
        description="Genus of X0(N): breakdowns, missed values, parity, bounds, densities.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name: str, func: Callable[[argparse.Namespace, TextIO], None], summary: str):
        sp = sub.add_parser(name, parents=[common], help=summary)
        sp.set_defaults(func=func)
        return sp

    sp = add("genus", _cmd_genus, "breakdown for a single level")
    sp.add_argument("n", type=int, help="level, 1 <= n < 2**64")

    sp = add("table", _cmd_table, "breakdowns for all levels up to --max")
    sp.add_argument("--max", type=int, required=True, help=f"largest level, 1 to {LEVEL_MAX}")

    sp = add("missed", _cmd_missed, "positive integers <= --max never attained")
    sp.add_argument("--max", type=int, required=True, help="largest genus value, >= 1")

    sp = add("parity", _cmd_parity, "verify the six-family parity classification")
    sp.add_argument("--max", type=int, required=True, help=f"largest level, 1 to {PRIME_LIMIT_MAX}")

    sp = add("bounds", _cmd_bounds, "verify lower/upper bounds and equality cases")
    sp.add_argument("--max", type=int, required=True, help=f"largest level, 1 to {LEVEL_MAX}")

    sp = add("average", _cmd_average, "partial averages of the genus")
    sp.add_argument("--max", type=int, required=True, help=f"largest level, 1 to {LEVEL_MAX}")

    sp = add("density", _cmd_density, "density of g0(N) = 1 (mod ell)")
    sp.add_argument("--ell", type=int, required=True, help="odd prime")
    sp.add_argument("--empirical-max", type=int,
                    help=f"sample the levels up to here, 1 to {LEVEL_MAX}")

    sp = add("histogram", _cmd_histogram, "histogram of g0(N) mod ell")
    sp.add_argument("--ell", type=int, required=True, help=f"odd prime <= {stats.HISTOGRAM_ELL_MAX}")
    sp.add_argument("--max", type=int, required=True, help=f"largest level, 1 to {LEVEL_MAX}")

    add("constants", _cmd_constants, "growth constants a0, b, c")

    sp = add("dirichlet", _cmd_dirichlet, "partial F(s) against the zeta product")
    sp.add_argument("--s", type=float, required=True, help=f"1 < s <= {stats.S_MAX:g}")

    return p


class _OutputFile:
    """The --output file, opened at the first write: a refused command leaves none."""

    def __init__(self, path: str) -> None:
        self.path, self.file = path, None

    def write(self, text: str) -> int:
        if self.file is None:
            self.file = open(self.path, "w", encoding="utf-8", newline="")
        return self.file.write(text)

    def flush(self) -> None:  # a command that wrote nothing still leaves an empty file
        self.write("")
        self.file.flush()

    def close(self) -> None:
        if self.file is not None:
            self.file.close()


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    out = sys.stdout if args.output is None else _OutputFile(args.output)
    try:
        # every subcommand has --precision, the range scans --max, density an
        # optional --empirical-max; the scans take a --max below 1 as no levels
        for flag in ("precision", "max", "empirical_max"):
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise ValueError(f"--{flag.replace('_', '-')} must be >= 1, got {value}")
        args.func(args, out)
        out.flush()
    except BrokenPipeError:
        # the reader is gone; send what is left to devnull so the final
        # flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as e:  # OSError: an --output path that cannot be opened
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ConsistencyError as e:
        print(f"internal consistency fault: {e}", file=sys.stderr)
        return 3
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
