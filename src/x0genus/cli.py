"""Command line interface: every computation as a subcommand.

Formats: csv (fields joined by commas, newline row terminator; no field
the CLI prints needs quoting), json (one document per run), plain
(newline-delimited values, or key=value lines for single-record
commands).  All numeric output is deterministic for fixed flags.

Exit codes: 0 success; 1 invalid input, capacity refusal, or a reader
that closed the output pipe early; 2 usage error (unknown subcommand,
malformed flag); 3 internal consistency fault.  Importing this module loads
the standard library and scalar.py alone: each command imports what it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from functools import cache
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Optional, get_args, get_origin, get_type_hints

from .scalar import (HISTOGRAM_ELL_MAX, LEVEL_MAX, MISSED_MAX, PRIME_LIMIT_MAX, S_MAX,
                     ConsistencyError, GenusBreakdown, genus as genus_breakdown)

TABLE_COLUMNS = ("n", "mu", "nu2", "nu3", "nu_inf", "genus")
# the largest precision a format spec takes: a C int
PRECISION_MAX = 2**31 - 1

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

def __getattr__(name: str) -> Any:
    """SCHEMAS, built at its first read and kept: one schema per subcommand,
    from the result type it prints.  json output validates against these."""
    if name != "SCHEMAS":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import bounds, stats, values
    types = {"genus": GenusBreakdown, "missed": values.MissedValuesReport,
             "parity": values.ParityVerdict, "bounds": bounds.BoundsVerdict,
             "average": stats.AverageReport, "density": stats.ResidueDensity,
             "histogram": stats.ResidueHistogram, "constants": stats.AsymptoticConstants,
             "dirichlet": stats.DirichletCheck}
    schemas = globals()["SCHEMAS"] = {cmd: _schema(get_type_hints(t)) for cmd, t in types.items()}
    schemas["table"] = _schema(
        {"max": int, "columns": tuple[str, ...], "rows": {"type": "array", "items": _TABLE_ROW}})
    return schemas


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
    record: dict[str, Any],
    columns: Optional[Iterable[str]] = None,
    rows: Iterable[Iterable[Any]] = (),
    plain: Optional[Iterable[str]] = None,
) -> Iterator[str]:
    """The text of one command's result in the format --format asks for.

    Floats in the record are first rounded to --precision significant
    digits.  json yields the record; csv yields `columns` and then `rows`,
    or without columns the record as a header and one row; plain yields
    the `plain` lines, or without them one key=value line per field.
    """
    record = {
        k: float(f"{v:.{args.precision}g}") if isinstance(v, float) else v
        for k, v in record.items()
    }
    if args.format == "json":
        yield json.dumps(record, indent=2) + "\n"
    elif args.format == "csv":
        if columns is None:
            columns, rows = record, [[_fmt(v, args.precision) for v in record.values()]]
        for row in chain([columns], rows):
            yield ",".join(map(str, row)) + "\n"
    else:
        if plain is None:
            plain = (f"{k}={_fmt(v, args.precision)}" for k, v in record.items())
        for line in plain:
            yield line + "\n"


def _cmd_genus(args: argparse.Namespace) -> Iterator[str]:
    yield from _emit(args, asdict(genus_breakdown(args.n)))


# (header, row open, field separator, row close, row separator, trailer) of
# the table in each format; every byte between the header and the trailer
# is a digit or one of the middle four
_TABLE_LAYOUT = {
    "plain": ("", "", " ", "\n", "", ""),
    "csv": (",".join(TABLE_COLUMNS) + "\n", "", ",", "\n", "", ""),
    "json": ('{"max": %%d, "columns": %s, "rows": [' % json.dumps(list(TABLE_COLUMNS)),
             "[", ", ", "]", ", ", "]}\n"),
}


@cache
def _digit_words():
    """The 4 ASCII digits of every word 0..9999, packed in one uint32 array.

    Entry w spells w in full, entry 10000 + w with its leading zeros as 0
    bytes, and entry 20000 + w the same but keeping the last digit, so
    that 0 is "0".  The bytes lie in reading order, as a view takes them.
    """
    import numpy as np
    w = np.arange(10000)[:, None]
    scale = 10 ** np.arange(3, -1, -1)
    digits = 48 + w // scale % 10
    lead = w < scale
    table = [digits, np.where(lead, 0, digits), np.where(lead & (scale > 1), 0, digits)]
    words = np.concatenate(table).astype(np.uint8).view(np.uint32).ravel()
    words.flags.writeable = False  # every caller shares the cached array
    return words


def _digits(values):
    """The decimal digits of non-negative int64 values, right-aligned.

    Each row is as wide as the largest value's digits, and a shorter
    value's leading zeros are 0 bytes.  A value splits into base-10^4
    words; a word with no non-zero word to its left takes the table's
    leading-zero entry, or for the last word the entry that keeps a digit.
    """
    import numpy as np
    width = len(str(int(values.max())))
    k = (width + 3) // 4
    words = np.empty((len(values), k), dtype=np.intp)
    for i in range(k - 1, 0, -1):
        lead = values < 10000  # the words left of word i are all 0
        values, words[:, i] = np.divmod(values, 10000)
        words[:, i] += lead * (20000 if i == k - 1 else 10000)
    words[:, 0] = values + (20000 if k == 1 else 10000)
    return _digit_words()[words].view(np.uint8)[:, 4 * k - width :]


def _encode_block(blk, layout: tuple[str, ...]) -> str:
    """The table rows of one GenusBlock in a layout, joined by its row separator.

    A (rows, width) byte matrix starts as the layout's row, separator
    first, with 0 bytes where the digits go; each column's digits fill
    their place.  The 0 bytes left (the digits' leading zeros and the
    separator before the first row) drop out of the text.
    """
    import numpy as np
    _, row_open, field_sep, row_close, row_sep, _ = layout
    digits = [_digits(c) for c in (blk.levels, blk.mu, blk.nu2, blk.nu3, blk.nu_inf, blk.genus)]
    gaps = [row_sep + row_open] + [field_sep] * (len(digits) - 1) + [row_close]
    template = "".join(g + "\0" * d.shape[1] for g, d in zip(gaps, digits)) + gaps[-1]
    mat = np.empty((len(blk), len(template)), dtype=np.uint8)
    mat[:] = np.frombuffer(template.encode("ascii"), dtype=np.uint8)
    start = 0
    for gap, d in zip(gaps, digits):
        start += len(gap)
        mat[:, start : start + d.shape[1]] = d
        start += d.shape[1]
    mat[0, : len(row_sep)] = 0
    return mat.tobytes().translate(None, b"\0").decode("ascii")


def _cmd_table(args: argparse.Namespace) -> Iterator[str]:
    from .genus import iter_blocks
    layout = _TABLE_LAYOUT[args.format]
    header, *_, row_sep, trailer = layout
    for blk in iter_blocks(1, args.max):
        yield header.replace("%d", str(args.max)) if blk.lo == 1 else row_sep
        yield _encode_block(blk, layout)
    yield trailer


def _cmd_missed(args: argparse.Namespace) -> Iterator[str]:
    from . import values
    rep = values.missed_values(args.max)
    rows = ((n, "odd" if n % 2 else "even", i) for i, n in enumerate(rep.missed, start=1))
    plain = (str(n) for n in rep.missed)
    yield from _emit(args, asdict(rep), ("n", "parity", "position"), rows, plain)


def _cmd_parity(args: argparse.Namespace) -> Iterator[str]:
    from . import values
    v = values.parity_verdict(args.max)
    plain = [f"max={v.max}", f"mismatches={len(v.mismatches)}", f"ok={_fmt(v.ok, args.precision)}"]
    plain += [f"mismatch={n}" for n in v.mismatches]
    yield from _emit(args, asdict(v), ("n",), ((n,) for n in v.mismatches), plain)


def _cmd_bounds(args: argparse.Namespace) -> Iterator[str]:
    from . import bounds
    v = bounds.bounds_verdict(args.max)
    rows = [("violation", n) for n in v.violations]
    rows += [("mu_over_12_violation", n) for n in v.mu_over_12_violations]
    rows += [("equality", n) for n in v.equality_levels]
    plain = [f"max={v.max}", f"violations={len(v.violations)}",
             f"mu_over_12_violations={len(v.mu_over_12_violations)}",
             f"ok={_fmt(v.ok, args.precision)}"]
    plain += [f"equality={n}" for n in v.equality_levels]
    yield from _emit(args, asdict(v), ("kind", "n"), rows, plain)


def _cmd_average(args: argparse.Namespace) -> Iterator[str]:
    from . import stats
    yield from _emit(args, asdict(stats.average_partial(args.max)))


def _cmd_density(args: argparse.Namespace) -> Iterator[str]:
    from . import stats
    # the sample comes first, so a refused --empirical-max sieves no primes
    freq = None
    if args.empirical_max is not None:
        freq = stats.residue_density_empirical(args.ell, args.empirical_max)
    d = replace(stats.residue_density_exact(args.ell), empirical_frequency=freq,
                sample_bound=args.empirical_max)
    yield from _emit(args, asdict(d))


def _cmd_histogram(args: argparse.Namespace) -> Iterator[str]:
    from . import stats
    h = stats.residue_histogram(args.ell, args.max)
    flagged = set(h.flagged)
    counts = list(enumerate(h.counts))
    rows = ((r, c, _fmt(r in flagged, args.precision)) for r, c in counts)
    plain = chain((f"{r} {c} {'flagged' if r in flagged else '-'}" for r, c in counts),
                  [f"enrichment_holds={_fmt(h.enrichment_holds, args.precision)}"])
    yield from _emit(args, asdict(h), ("residue", "count", "flagged"), rows, plain)


def _cmd_constants(args: argparse.Namespace) -> Iterator[str]:
    from . import stats
    yield from _emit(args, asdict(stats.asymptotic_constants()))


def _cmd_dirichlet(args: argparse.Namespace) -> Iterator[str]:
    from . import stats
    yield from _emit(args, asdict(stats.zeta_identity_check(args.s)))


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("csv", "json", "plain"), default="plain", help="output format"
    )
    common.add_argument("--output", default=None, help="output file (default: stdout)")
    common.add_argument(
        "--precision", type=int, default=10,
        help=f"significant digits for real values, 1 to {PRECISION_MAX}",
    )

    p = argparse.ArgumentParser(
        prog="x0genus",
        description="Genus of X0(N): breakdowns, missed values, parity, bounds, densities.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name: str, func: Callable[[argparse.Namespace], Iterator[str]], summary: str):
        sp = sub.add_parser(name, parents=[common], help=summary)
        sp.set_defaults(func=func)
        return sp

    sp = add("genus", _cmd_genus, "breakdown for a single level")
    sp.add_argument("n", type=int, help="level, 1 <= n < 2**64")

    sp = add("table", _cmd_table, "breakdowns for all levels up to --max")
    sp.add_argument("--max", type=int, required=True, help=f"largest level, 1 to {LEVEL_MAX}")

    sp = add("missed", _cmd_missed, "positive integers <= --max never attained")
    sp.add_argument("--max", type=int, required=True,
                    help=f"largest genus value, 1 to {MISSED_MAX}")

    sp = add("parity", _cmd_parity, "verify the six-family parity classification")
    sp.add_argument("--max", type=int, required=True, help=f"largest level, 1 to {PRIME_LIMIT_MAX}")

    sp = add("bounds", _cmd_bounds, "verify lower/upper bounds and equality cases")
    sp.add_argument("--max", type=int, required=True, help=f"largest level, 1 to {LEVEL_MAX}")

    sp = add("average", _cmd_average, "partial averages of the genus")
    sp.add_argument("--max", type=int, required=True, help=f"largest level, 1 to {LEVEL_MAX}")

    sp = add("density", _cmd_density, "density of g0(N) = 1 (mod ell)")
    sp.add_argument("--ell", type=int, required=True, help="odd prime < 2**64")
    sp.add_argument("--empirical-max", type=int,
                    help=f"sample the levels up to here, 1 to {LEVEL_MAX}")

    sp = add("histogram", _cmd_histogram, "histogram of g0(N) mod ell")
    sp.add_argument("--ell", type=int, required=True, help=f"odd prime <= {HISTOGRAM_ELL_MAX}")
    sp.add_argument("--max", type=int, required=True, help=f"largest level, 1 to {LEVEL_MAX}")

    add("constants", _cmd_constants, "growth constants a0, b, c")

    sp = add("dirichlet", _cmd_dirichlet, "partial F(s) against the zeta product")
    sp.add_argument("--s", type=float, required=True, help=f"1 < s <= {S_MAX:g}")

    return p


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command: the one place its output is opened, written and closed.

    A command yields its text in chunks and computes before its first, so
    --output is opened after every refusal: a refused command leaves no
    file, and one that yields nothing an empty one.
    """
    args = _build_parser().parse_args(argv)
    out = None
    try:
        if not 1 <= args.precision <= PRECISION_MAX:
            raise ValueError(f"--precision must be 1 to {PRECISION_MAX}, got {args.precision}")
        text = args.func(args)
        first = next(text, "")
        out = sys.stdout if args.output is None else open(
            args.output, "w", encoding="utf-8", newline="")
        out.write(first)
        out.writelines(text)
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
        if out not in (None, sys.stdout):
            out.close()
    return 0
