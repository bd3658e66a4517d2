"""The benchmark's four workloads: seeded inputs, timed operations and output checks.

Each workload function takes the seed and returns a Workload, a list of
operations that one closed-loop client runs in order, again and again.  The program
sees only the generated inputs.  An operation calls the public functions
of x0genus through their modules at call time, so the trace wrappers
installed on those modules see every call.  Its check runs after the set,
outside the timed region, and answers from the paper's pinned values or
from the benchmark's own arithmetic (oracle.py).

Why each workload is there: see its "why" in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import oracle
from x0genus import arith, bounds, cli, stats, values

genus_mod = importlib.import_module("x0genus.genus")

# Captured before any trace wrapper is installed.
PRIMES_UP_TO = arith.primes_up_to
SCALAR_GENUS = genus_mod.genus
BREAKDOWN_BLOCK = genus_mod.breakdown_block

TABLE_COLUMNS = ("n", "mu", "nu2", "nu3", "nu_inf", "genus")


@dataclass
class Op:
    """One timed call; check(result) returns None when the output is right."""

    name: str
    levels: int  # levels of X0(N) the call asks about
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


@dataclass
class Workload:
    threads: int
    ops: list[Op]


@dataclass
class CliOutput:
    """What one cli.main call returned and emitted."""

    rc: Any
    rows: int
    nbytes: int
    text: str = ""


def start_set() -> None:
    """Every set pays primes_up_to cold, as every CLI command does."""
    PRIMES_UP_TO.cache_clear()


def _run_cli(argv: list[str]) -> Any:
    try:
        return cli.main(argv)
    except SystemExit as e:  # argparse rejects malformed argv this way
        return e.code


def _expect(cond: bool, msg: str) -> Optional[str]:
    return None if cond else msg


# ---------------------------------------------------------------------------
# paper-gates

MISSED_X = 10**5
SCAN_BOUND = 10**6
DENSITY_PRIME_LIMIT = 10**8
DIRICHLET_S = (1.5, 2.0, 3.0)
AVG_RATIO_TARGET = 5.0 / (4.0 * math.pi**2)
# certified upper bounds on P(ell) pinned by the paper
DENSITY_BOUNDS = {
    3: 1 / 4, 5: 1 / 78, 7: 1 / 105, 11: 1 / 653,
    13: 1 / 1542, 17: 1 / 1793, 19: 1 / 978, 23: 1 / 5821,
}
_ZETA_1_5, _ZETA_2_5 = 2.6123753486854883433, 1.3414872572509171798
_ZETA_3, _ZETA_5 = 1.2020569031595942854, 1.0369277551433699263
# F(s) = zeta(s) zeta(s+1) / zeta(2s+2), from tabulated zeta values
DIRICHLET_F = {
    1.5: _ZETA_1_5 * _ZETA_2_5 / _ZETA_5,
    2.0: (math.pi**2 / 6) * _ZETA_3 / (math.pi**6 / 945),
    3.0: _ZETA_3 * (math.pi**4 / 90) / (math.pi**8 / 9450),
}
SQUAREFREE_UP_TO_1E6 = 607926  # Q(10**6)


def _scan_limit(x: int) -> int:
    s = math.isqrt(x - 1) + 1  # ceil(sqrt(x))
    return 12 * x + 18 * s + 41


def _check_missed(rep) -> Optional[str]:
    got = (len(rep.missed), rep.missed[:6], rep.odd_missed, rep.first_odd_position)
    want = (9035, (150, 180, 210, 286, 304, 312), (49267, 74135, 94091, 96463), 3885)
    return _expect(got == want, f"missed values {got} != {want}")


def _check_bound_reports(reports, lo: int, hi: int) -> Optional[str]:
    """Only equality cases may be flagged, and exactly the expected squares."""
    for r in reports:
        s = math.isqrt(r.n)
        if not (r.lower_equality and s * s == r.n and 12 * r.genus + 5 * s + 8 == r.n):
            return f"bound violation at n={r.n}"
    got = [r.n for r in reports]
    want = oracle.equality_squares(lo, hi)
    return _expect(got == want, f"equality levels in [{lo}, {hi}]: {got} != {want}")


def _check_bounds(result) -> Optional[str]:
    reports, mu12 = result
    if mu12:
        return f"{len(mu12)} levels with 12 g > mu"
    return _check_bound_reports(reports, 1, SCAN_BOUND)


def _check_average(rep) -> Optional[str]:
    gap = abs(rep.avg_ratio - AVG_RATIO_TARGET)
    return _expect(rep.bound == SCAN_BOUND and gap < 1e-3, f"average gap {gap:.3g}")


def _check_dirichlet(checks) -> Optional[str]:
    for s, c in zip(DIRICHLET_S, checks):
        ref = DIRICHLET_F[s]
        rhs_ok = abs(c.rhs - ref) <= c.rhs_error + 1e-13 * ref
        lhs_ok = abs(ref - c.lhs) <= c.tail_bound + 1e-11 * (1.0 + ref)
        if not (c.ok and rhs_ok and lhs_ok):
            return f"Dirichlet identity at s={s}: lhs {c.lhs!r} rhs {c.rhs!r} ref {ref!r}"
    return None


def _check_histogram(h) -> Optional[str]:
    low = min(h.counts[r] for r in (0, 4, 6))
    high = max(h.counts[r] for r in (2, 3, 5))
    ok = sum(h.counts) == SCAN_BOUND and low > high and h.enrichment_holds is True
    return _expect(ok, f"histogram mod 7 {h.counts}")


def _check_density(dens) -> Optional[str]:
    for ell, d in zip(DENSITY_BOUNDS, dens):
        margin = DENSITY_BOUNDS[ell] - (d.exact_value + d.truncation_error)
        if not (d.ell == ell and d.prime_limit == DENSITY_PRIME_LIMIT and d.exact_value > 0 and margin > 0):
            return f"density certificate for ell={ell}: margin {margin!r}"
    return None


def paper_gates(seed: int) -> Workload:
    x, b = MISSED_X, SCAN_BOUND
    ops = [
        Op("missed", _scan_limit(x), lambda: values.missed_values(x), _check_missed),
        Op("parity", b, lambda: values.verify_parity_classification(b),
           lambda r: _expect(r == [], f"{len(r)} parity mismatches")),
        Op("bounds", 2 * b,
           lambda: (bounds.check_bounds_range(1, b), bounds.mu_over_12_bound_check(1, b)),
           _check_bounds),
        Op("average", b, lambda: stats.average_partial(b), _check_average),
        Op("dirichlet", len(DIRICHLET_S) * b,
           lambda: [stats.zeta_identity_check(s) for s in DIRICHLET_S], _check_dirichlet),
        Op("power-of-two", b, lambda: values.power_of_two_congruence_check(b),
           lambda r: _expect(r == [], f"{len(r)} power-of-two congruence violations")),
        Op("histogram", b, lambda: stats.residue_histogram(7, b), _check_histogram),
        Op("density", 0,
           lambda: [stats.residue_density_exact(ell, prime_limit=DENSITY_PRIME_LIMIT)
                    for ell in DENSITY_BOUNDS],
           _check_density),
        Op("squarefree", 0, lambda: stats.squarefree_fraction(b),
           lambda f: _expect(f == SQUAREFREE_UP_TO_1E6 / b, f"squarefree fraction {f!r}")),
    ]
    random.Random(seed).shuffle(ops)
    return Workload(threads=1, ops=ops)


# ---------------------------------------------------------------------------
# deep-windows

WINDOW = 1 << 19
WINDOW_HEIGHTS = (10**8, 10**10, 10**12)
# One thread: breakdown_block holds the GIL, so a second pool thread made the
# windows no faster on a 2-vCPU host and left their times far more exposed to
# other load on the host.
WINDOW_THREADS = 1
SPOT_LEVELS = 8  # seeded levels per checked segment, besides its first and last


def _spot_check(lo: int, hi: int, rng: random.Random) -> Callable[[], Optional[str]]:
    """breakdown_block against scalar genus(n), on one segment of the window per set.

    The block is one the timed call sieves: a full segment of iter_blocks'
    fixed segmentation of [lo, hi], with the primes iter_blocks passes.
    Successive sets take successive segments, from a seeded one.
    """
    starts = range(lo, hi + 1, genus_mod.SEGMENT)
    k = rng.randrange(len(starts))

    def run() -> Optional[str]:
        nonlocal k
        a = starts[k % len(starts)]
        b = min(a + genus_mod.SEGMENT - 1, hi)
        k += 1
        blk = BREAKDOWN_BLOCK(a, b, PRIMES_UP_TO(math.isqrt(hi)))
        levels = {a, b, *(rng.randrange(a, b + 1) for _ in range(SPOT_LEVELS))}
        bad = sorted(n for n in levels if blk.breakdown(n) != SCALAR_GENUS(n))
        return _expect(not bad, f"block [{a}, {b}] differs from scalar genus at {bad}")

    return run


def _window_op(height: int, rng: random.Random) -> Op:
    # Put a seeded equality square p**2, p = 1 (mod 12), at a seeded place in
    # the window, so the equality check is never vacuous; the window stays
    # in the decade of `height`.
    p = oracle.next_prime_1_mod_12(math.isqrt(int(height * rng.uniform(1.1, 1.15))))
    lo = p * p - rng.randrange(WINDOW)
    hi = lo + WINDOW - 1
    spot = _spot_check(lo, hi, rng)

    def check(reports) -> Optional[str]:
        return _check_bound_reports(reports, lo, hi) or spot()

    return Op(f"window-1e{len(str(height)) - 1}", WINDOW,
              lambda: bounds.check_bounds_range(lo, hi, threads=WINDOW_THREADS), check)


def deep_windows(seed: int) -> Workload:
    rng = random.Random(seed)
    return Workload(threads=WINDOW_THREADS, ops=[_window_op(h, rng) for h in WINDOW_HEIGHTS])


# ---------------------------------------------------------------------------
# table-emit

TABLE_MAX = 10**6
TABLE_JITTER = 1 << 14
TABLE_FORMATS = ("csv", "json", "plain")
SPOT_ROWS = 16
CSV_HEADER = ",".join(TABLE_COLUMNS) + "\n"


def _json_prefix(m: int) -> str:
    return '{"max": %d, "columns": %s, "rows": [' % (m, json.dumps(list(TABLE_COLUMNS)))


def _rows_at(data: bytes, fmt: str, levels: list[int]) -> list[Optional[list[int]]]:
    """Rows of the ascending levels, found by their leading level without
    parsing the rest; each search starts where the row before it ended, so
    the output is scanned once.

    A row starts after "[" in json and after a newline otherwise, and no
    other place in the output has that byte followed by a level.
    """
    if fmt == "json":
        sep, end, start = b", ", b"]", b"["
    else:
        sep = b"," if fmt == "csv" else b" "
        end, start = b"\n", b"\n"
    rows: list[Optional[list[int]]] = []
    i = 0
    for n in levels:
        key = start + b"%d" % n + sep
        if i == 0 and data.startswith(key[1:]):
            j = 0
        else:
            j = data.find(key, i) + 1
            if j == 0:
                rows.append(None)
                continue
        i = data.index(end, j)
        rows.append([int(v) for v in data[j:i].split(sep)])
    return rows


def _table_sizes_consistent(paths: dict[str, str], m: int) -> Optional[str]:
    """The three formats carry the same digits with different separators.

    A plain row is its digits plus six bytes, a csv row the same, and a
    json row six bytes more plus the ", " between rows; so the byte counts
    are tied to each other and to m without knowing any value.
    """
    size = {f: os.path.getsize(p) for f, p in paths.items() if os.path.exists(p)}
    if len(size) < len(TABLE_FORMATS):
        return "a table output file is missing"
    want_csv = size["plain"] + len(CSV_HEADER)
    want_json = size["plain"] + 8 * m - 2 + len(_json_prefix(m)) + len("]}\n")
    return _expect(size["csv"] == want_csv and size["json"] == want_json,
                   f"table byte counts {size} do not fit together for max={m}")


def _table_op(fmt: str, m: int, paths: dict[str, str], spots: list[int]) -> Op:
    path = paths[fmt]

    def call() -> CliOutput:
        rc = _run_cli(["table", "--max", str(m), "--format", fmt, "--output", path])
        return CliOutput(rc, m, os.path.getsize(path) if os.path.exists(path) else 0)

    def check(out: CliOutput) -> Optional[str]:
        if out.rc != 0:
            return f"table --format {fmt} exited {out.rc}"
        with open(path, "rb") as f:
            data = f.read()
        if fmt == "json":
            shape_ok = data.startswith(_json_prefix(m).encode()) and data.endswith(b"]}\n")
        else:
            header = CSV_HEADER.encode() if fmt == "csv" else b""
            lines = m + (1 if header else 0)
            shape_ok = data.startswith(header) and data.count(b"\n") == lines
        if not shape_ok:
            return f"table --format {fmt}: wrong row count or framing"
        for n, row in zip(spots, _rows_at(data, fmt, spots)):
            want = [getattr(SCALAR_GENUS(n), c) for c in TABLE_COLUMNS]
            if row != want:
                return f"table --format {fmt} row {n}: {row} != {want}"
        return _table_sizes_consistent(paths, m)

    return Op(f"table-{fmt}", m, call, check)


def table_emit(seed: int, sink: str) -> Workload:
    rng = random.Random(seed)
    m = TABLE_MAX + rng.randrange(-TABLE_JITTER, TABLE_JITTER + 1)
    formats = list(TABLE_FORMATS)
    rng.shuffle(formats)
    spots = sorted({1, m, *(rng.randrange(1, m + 1) for _ in range(SPOT_ROWS))})
    paths = {f: os.path.join(sink, f"table.{f}") for f in TABLE_FORMATS}
    return Workload(threads=1, ops=[_table_op(f, m, paths, spots) for f in formats])


# ---------------------------------------------------------------------------
# point-queries

QUERIES = 256
QUERY_LOG10 = (8.0, 12.0)
SMOOTH_PRIMES = [p for p in range(2, 200) if oracle.is_prime(p)]


def _targets(rng: random.Random, k: int) -> list[float]:
    """k levels log-uniform over QUERY_LOG10, one per equal stratum, so every
    seed asks for the same spread of sizes."""
    a, b = QUERY_LOG10
    return [10 ** (a + (b - a) * (i + rng.random()) / k) for i in range(k)]


def _two_prime(t: float, rng: random.Random) -> dict[int, int]:
    """p * q near t with p and q within a factor 1.5 of each other."""
    r = math.sqrt(rng.uniform(1.0, 1.5))
    p = oracle.next_prime(int(math.sqrt(t) / r))
    q = oracle.next_prime(max(int(math.sqrt(t) * r), p + 1))
    return {p: 1, q: 1}


def _smooth_times_prime(t: float, u: float, rng: random.Random) -> dict[int, int]:
    """A product of small prime powers up to about t**u, times one prime."""
    factors: dict[int, int] = {}
    s, cap = 1, t**u
    while True:
        p = rng.choice(SMOOTH_PRIMES)
        if s * p > cap:
            break
        s *= p
        factors[p] = factors.get(p, 0) + 1
    factors[oracle.next_prime(int(t / s))] = 1
    return factors


def _query_op(factors: dict[int, int]) -> Op:
    want = oracle.breakdown(factors)
    n = want["n"]
    expected = "".join(f"{k}={v}\n" for k, v in want.items())

    def call() -> CliOutput:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = _run_cli(["genus", str(n)])
        text = buf.getvalue()
        return CliOutput(rc, 1, len(text.encode()), text)

    def check(out: CliOutput) -> Optional[str]:
        return _expect(out.rc == 0 and out.text == expected,
                       f"genus {n}: exit {out.rc}, output {out.text!r} != {expected!r}")

    return Op(f"genus-{n}", 1, call, check)


def point_queries(seed: int) -> Workload:
    rng = random.Random(seed)
    half = QUERIES // 2
    # the smooth share u is stratified too, and paired with sizes at random
    shares = [0.1 + 0.6 * (i + rng.random()) / half for i in range(half)]
    rng.shuffle(shares)
    chosen = [_two_prime(t, rng) for t in _targets(rng, half)]
    chosen += [_smooth_times_prime(t, u, rng) for t, u in zip(_targets(rng, half), shares)]
    rng.shuffle(chosen)
    return Workload(threads=1, ops=[_query_op(f) for f in chosen])


def build(name: str, seed: int, sink: str) -> Workload:
    if name == "paper-gates":
        return paper_gates(seed)
    if name == "deep-windows":
        return deep_windows(seed)
    if name == "table-emit":
        return table_emit(seed, sink)
    if name == "point-queries":
        return point_queries(seed)
    raise ValueError(f"unknown workload {name!r}")
