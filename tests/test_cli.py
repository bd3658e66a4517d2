"""Command line surface: formats, schemas, exit codes, determinism."""

import argparse
import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from decimal import Decimal
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from x0genus import (bounds, cli as cli_module, genus as genus_module, scalar as scalar_module,
                     stats, values)
from x0genus.cli import SCHEMAS, main
from x0genus.genus import SEGMENT, GenusBlock, breakdown_block
from x0genus.scalar import (
    LEVEL_MAX,
    S_MAX,
    Factorization,
    breakdown_from_factorization,
    genus,
)
from x0genus.stats import flagged_residue_classes
import oracles

SRC = str(Path(__file__).resolve().parents[1] / "src")


def checkout_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv + ["--format", "json"])
    assert code == 0, err
    return json.loads(out)


def test_genus_plain():
    code, out, err = run(["genus", "11"])
    assert code == 0
    assert out == "n=11\nmu=12\nnu2=0\nnu3=0\nnu_inf=2\ngenus=1\n"


def test_genus_csv():
    code, out, _ = run(["genus", "11", "--format", "csv"])
    assert code == 0
    assert out == "n,mu,nu2,nu3,nu_inf,genus\n11,12,0,0,2,1\n"


def test_genus_json_schema():
    payload = run_json(["genus", "11"])
    jsonschema.validate(payload, SCHEMAS["genus"])
    assert payload == {"n": 11, "mu": 12, "nu2": 0, "nu3": 0, "nu_inf": 2, "genus": 1}


def test_genus_near_2_to_the_64_answers_in_bounded_time():
    p, q = 4294967279, 4294967291  # the two largest primes below 2**32
    start = time.perf_counter()
    code, out, _ = run(["genus", str(p * q)])
    elapsed = time.perf_counter() - start
    assert code == 0
    b = breakdown_from_factorization(Factorization(p * q, ((p, 1), (q, 1))))
    assert out == "".join(f"{k}={v}\n" for k, v in asdict(b).items())
    assert elapsed < 0.5, elapsed


def test_table_csv():
    code, out, _ = run(["table", "--max", "15", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,mu,nu2,nu3,nu_inf,genus"
    assert len(lines) == 16
    assert lines[11] == "11,12,0,0,2,1"


def test_table_json_schema():
    payload = run_json(["table", "--max", "15"])
    jsonschema.validate(payload, SCHEMAS["table"])
    assert payload["max"] == 15
    assert payload["rows"][10] == [11, 12, 0, 0, 2, 1]
    assert len(payload["rows"]) == 15


def test_table_plain():
    code, out, _ = run(["table", "--max", "3"])
    assert code == 0
    assert out == "1 1 1 1 1 0\n2 3 1 0 2 0\n3 4 0 1 2 0\n"


def test_missed_plain_first_six():
    code, out, _ = run(["missed", "--max", "320"])
    assert code == 0
    assert out.split() == ["150", "180", "210", "286", "304", "312"]


def test_missed_csv():
    code, out, _ = run(["missed", "--max", "320", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,parity,position"
    assert lines[1] == "150,even,1"
    assert lines[6] == "312,even,6"


def test_missed_json_schema():
    payload = run_json(["missed", "--max", "320"])
    jsonschema.validate(payload, SCHEMAS["missed"])
    assert payload["missed"] == [150, 180, 210, 286, 304, 312]
    assert payload["odd_missed"] == []
    assert payload["first_odd_position"] is None
    assert payload["attained_count"] == 320 - 6


def test_parity_json_schema():
    payload = run_json(["parity", "--max", "500"])
    jsonschema.validate(payload, SCHEMAS["parity"])
    assert payload == {"max": 500, "mismatches": [], "ok": True}


def test_bounds_json_schema():
    payload = run_json(["bounds", "--max", "300"])
    jsonschema.validate(payload, SCHEMAS["bounds"])
    assert payload["violations"] == []
    assert payload["mu_over_12_violations"] == []
    assert payload["equality_levels"] == [169]
    assert payload["expected_equality_levels"] == [169]
    assert payload["ok"] is True


def test_average_json_schema():
    payload = run_json(["average", "--max", "500"])
    jsonschema.validate(payload, SCHEMAS["average"])
    assert payload["bound"] == 500


def test_density_json_schema():
    payload = run_json(["density", "--ell", "7", "--empirical-max", "500"])
    jsonschema.validate(payload, SCHEMAS["density"])
    assert payload["ell"] == 7
    assert payload["sample_bound"] == 500
    assert payload["empirical_frequency"] is not None
    assert 0 < payload["exact_value"] < 1


def test_density_without_empirical():
    payload = run_json(["density", "--ell", "7"])
    jsonschema.validate(payload, SCHEMAS["density"])
    assert payload["empirical_frequency"] is None
    assert payload["sample_bound"] is None


@pytest.mark.parametrize("ell", [10000019, 2**64 - 59])
def test_density_at_primes_above_the_prime_limit(ell):
    # the primes = -1 (mod ell) start above the default prime_limit of 10**7
    payload = run_json(["density", "--ell", str(ell)])
    jsonschema.validate(payload, SCHEMAS["density"])
    assert (payload["ell"], payload["prime_limit"]) == (ell, 10**7)


def test_histogram_json_schema():
    payload = run_json(["histogram", "--ell", "7", "--max", "1000"])
    jsonschema.validate(payload, SCHEMAS["histogram"])
    assert payload["flagged"] == [0, 4, 6]
    assert sum(payload["counts"]) == 1000
    assert payload["two_primitive_root"] is False


def test_histogram_csv():
    code, out, _ = run(["histogram", "--ell", "5", "--max", "100", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "residue,count,flagged"
    assert len(lines) == 6
    assert lines[1].startswith("0,") and lines[1].endswith(",true")
    assert lines[2].endswith(",false")  # class 1 is never flagged


def test_histogram_rows_at_a_large_ell():
    ell = 100003
    code, out, _ = run(["histogram", "--ell", str(ell), "--max", "10", "--format", "csv"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(r) for r, _, _ in rows] == list(range(ell))
    assert {int(r) for r, _, f in rows if f == "true"} == set(flagged_residue_classes(ell))


def test_constants_json_schema():
    payload = run_json(["constants"])
    jsonschema.validate(payload, SCHEMAS["constants"])
    assert payload["a0"] == pytest.approx(0.8178146401, abs=1e-9)


def test_constants_plain_precision():
    code, out, _ = run(["constants", "--precision", "4"])
    assert code == 0
    assert out == "A=0.5426\nB=0.3734\na0=0.8178\nb=0.2588\nc=0.2065\n"


def test_precision_ceiling_prints_a_float_exactly():
    # 2**31 - 1 digits are accepted; "g" drops the trailing zeros
    target = stats.average_partial(10).target
    code, out, _ = run(["average", "--max", "10", "--precision", "2147483647"])
    assert code == 0
    assert f"target={Decimal(target)}\n" in out


def test_dirichlet_json_schema():
    payload = run_json(["dirichlet", "--s", "2"])
    jsonschema.validate(payload, SCHEMAS["dirichlet"])
    assert payload["ok"] is True
    assert payload["gap"] <= payload["tail_bound"] + payload["rhs_error"] + 1e-10


def test_output_file(tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(["genus", "37", "--format", "json", "--output", str(target)])
    assert code == 0
    assert out == ""
    _, direct, _ = run(["genus", "37", "--format", "json"])
    assert target.read_text(encoding="utf-8") == direct


def test_invalid_input_exits_1(tmp_path):
    target = tmp_path / "table.csv"
    for argv in (
        ["genus", "0"],
        ["dirichlet", "--s", "1.0"],
        ["density", "--ell", "2"],
        ["missed", "--max", "100000000"],
        ["density", "--ell", "7", "--empirical-max", "0"],
        ["density", "--ell", "7", "--empirical-max", "-5"],
        ["dirichlet", "--s", "nan"],
        ["dirichlet", "--s", "inf"],
        ["genus", "11", "--precision", "-1"],
        ["constants", "--precision", "0"],
        # above 2**31 - 1, the largest precision a format spec takes
        ["genus", "11", "--precision", "2147483648"],
        ["average", "--max", "10", "--precision", "2147483648"],
        ["constants", "--precision", "9223372036854775808"],
        ["table", "--max", "0"],
        ["table", "--max", "-3"],
        ["parity", "--max", "0"],
        ["bounds", "--max", "-1"],
        ["average", "--max", str(10**16 + 1)],  # above LEVEL_MAX
        # refused before table writes its header
        ["table", "--max", str(10**16 + 1), "--format", "csv"],
        ["table", "--max", str(10**16 + 1), "--format", "json"],
        ["table", "--max", str(10**16 + 1), "--format", "plain"],
        ["table", "--max", str(10**16 + 1), "--output", str(target)],
        ["histogram", "--ell", "1048583", "--max", "10"],  # first prime above 2**20
    ):
        code, out, err = run(argv)
        assert code == 1, argv
        assert err.startswith("error:")
        assert out == ""
    assert not target.exists()
    # at and above 2**64 (2**64 + 13 is prime), refused before any factoring
    for argv in (
        ["genus", "18446744073709551616"],
        ["density", "--ell", "18446744073709551629"],
        ["histogram", "--ell", "18446744073709551629", "--max", "10"],
    ):
        code, out, err = run(argv)
        assert code == 1, argv
        assert err.startswith("error:") and "2**64" in err, err
        assert out == ""
    # density states its own domain, not the factoring one
    for ell in ("0", "-3", "18446744073709551629"):
        code, out, err = run(["density", "--ell", ell])
        assert (code, out) == (1, ""), ell
        assert err == f"error: ell must be an odd prime below 2**64, got {ell}\n"


@pytest.mark.parametrize("argv, domain", [
    (["missed"], f"largest genus value, 1 to {values.MISSED_MAX}"),
    (["density"], "odd prime < 2**64"),
    (["constants"], "significant digits for real values, 1 to 2147483647"),
])
def test_help_states_the_domain(argv, domain, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    assert domain in " ".join(capsys.readouterr().out.split())


def test_usage_errors_exit_2():
    # an unknown flag, --threads among them, is a usage error
    for argv in ([], ["frobnicate"], ["genus", "abc"], ["table"],
                 ["table", "--max", "100", "--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


def test_consistency_fault_exits_3(monkeypatch):
    # one cusp too many at every prime power breaks the genus identity, on
    # the scalar route (genus) and in the block sieve (table)
    theta = scalar_module.theta
    for module in (scalar_module, genus_module):
        monkeypatch.setattr(module, "theta", lambda p, r: theta(p, r) + 1)
    for argv in (["genus", "11"], ["table", "--max", "100"]):
        code, out, err = run(argv)
        assert code == 3, argv
        assert err.startswith("internal consistency fault:") and err.count("\n") == 1, err
        assert out == ""


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "x0genus", "genus", "11"],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert proc.returncode == 0
    assert "genus=1" in proc.stdout


def test_runtime_imports_no_scipy():
    # numpy is the only runtime dependency; scipy is a test oracle
    script = (
        "import sys, x0genus, x0genus.cli\n"
        "assert 'scipy' not in sys.modules\n"
        "assert x0genus.cli.main(['constants']) == 0\n"
        "assert 'scipy' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=checkout_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "A=0.54259858" in proc.stdout


def test_package_starts_no_threads():
    # every scan runs in the calling thread, and no thread pool is imported
    script = (
        "import sys, threading, x0genus, x0genus.cli\n"
        "from x0genus.genus import SEGMENT\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "before = threading.active_count()\n"
        "seen = [threading.active_count() for _ in x0genus.genus.iter_blocks(1, 3 * SEGMENT)]\n"
        "assert seen == [before] * 3, (before, seen)\n"
        "assert threading.active_count() == before\n"
        "assert 'concurrent.futures' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=checkout_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_closed_pipe_exits_1_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "x0genus", "table", "--max", "200000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=checkout_env(),
    )
    assert proc.stdout.readline() == b"1 1 1 1 1 0\n"
    proc.stdout.close()  # the rest, megabytes, now meets a closed pipe
    code = proc.wait(timeout=120)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert code == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


# one row past SEGMENT + 27: the table spans two blocks, cut after 131072
TABLE_ACROSS_CUT = SEGMENT + 28


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_table_rows_across_a_segment_cut(fmt, tmp_path):
    target = tmp_path / f"table.{fmt}"
    argv = ["table", "--max", str(TABLE_ACROSS_CUT), "--format", fmt, "--output", str(target)]
    code, _, err = run(argv)
    assert code == 0, err
    text = target.read_text()
    if fmt == "json":
        payload = json.loads(text)
        rows = payload["rows"]
        # jsonschema takes about 10 s over all 131100 rows: the schema sees
        # the first and last rows, plain Python the shape of every row
        jsonschema.validate(payload | {"rows": rows[:3] + rows[-3:]}, SCHEMAS["table"])
        assert all(type(r) is list and len(r) == 6 and all(type(v) is int for v in r) for r in rows)
        assert payload["max"] == TABLE_ACROSS_CUT
    else:
        lines = text.splitlines()
        if fmt == "csv":
            assert lines.pop(0) == "n,mu,nu2,nu3,nu_inf,genus"
        rows = [[int(v) for v in line.split("," if fmt == "csv" else " ")] for line in lines]
    assert len(rows) == TABLE_ACROSS_CUT == 131100
    assert [r[0] for r in rows] == list(range(1, TABLE_ACROSS_CUT + 1))
    for n in (1, SEGMENT, SEGMENT + 1, TABLE_ACROSS_CUT):
        b = genus(n)
        assert rows[n - 1] == [b.n, b.mu, b.nu2, b.nu3, b.nu_inf, b.genus]


def assert_same_text(got, want):
    """got == want; a mismatch names its first offset instead of diffing megabytes."""
    if got != want:
        i = len(os.path.commonprefix([got, want]))
        pytest.fail(f"lengths {len(got)}, {len(want)}; first difference at {i}: "
                    f"{got[i - 40 : i + 40]!r} != {want[i - 40 : i + 40]!r}")


def _stdout_or_file(argv, dest, tmp_path):
    """Run the CLI in this process; what it wrote to stdout or to --output."""
    if dest == "stdout":
        code, out, err = run(argv)
    else:
        target = tmp_path / "out"
        code, _, err = run(argv + ["--output", str(target)])
        out = target.read_bytes().decode("ascii")
    assert code == 0, err
    return out


@pytest.mark.parametrize("dest", ["stdout", "output"])
@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_table_bytes_equal_the_row_format_reference(fmt, dest, monkeypatch, tmp_path):
    # the reference writer formats every row with %d, over the very blocks
    # that the command's one iter_blocks pass handed it
    blocks = []
    original = genus_module.iter_blocks

    def recording(lo, hi, *args, **kwargs):
        for blk in original(lo, hi, *args, **kwargs):
            blocks.append(blk)
            yield blk

    monkeypatch.setattr(genus_module, "iter_blocks", recording)
    text = _stdout_or_file(["table", "--max", str(TABLE_ACROSS_CUT), "--format", fmt], dest,
                           tmp_path)
    assert [(b.lo, b.hi) for b in blocks] == [(1, SEGMENT), (SEGMENT + 1, TABLE_ACROSS_CUT)]
    assert_same_text(text, oracles.table_reference(blocks, TABLE_ACROSS_CUT, fmt))
    if fmt == "json":
        assert f"], [{SEGMENT + 1}, " in text  # the row separator at the block cut


# windows at the digit-count edges of the level, and where mu has 17 digits
ENCODER_WINDOWS = [
    (1, 200),
    (10**4 - 300, 10**4 + 300),
    (10**8 - 300, 10**8 + 300),
    (10**12, 10**12 + 600),
    (LEVEL_MAX - 2**10, LEVEL_MAX),
]


def assert_encodes_like_the_reference(blk):
    for fmt, layout in cli_module._TABLE_LAYOUT.items():
        assert_same_text(cli_module._encode_block(blk, layout),
                         oracles.table_rows_reference(blk, fmt))


@pytest.mark.parametrize("lo, hi", ENCODER_WINDOWS)
def test_encoder_matches_the_row_format_reference(lo, hi):
    assert_encodes_like_the_reference(breakdown_block(lo, hi))


def test_encoder_at_every_digit_count():
    # each column meets 0, 10^k - 1 and 10^k for every k, and the int64 top
    edges = [0, 2**63 - 1] + [v for k in range(1, 19) for v in (10**k - 1, 10**k)]
    cols = [np.roll(np.array(edges, dtype=np.int64), i) for i in range(5)]
    blk = GenusBlock(LEVEL_MAX - len(edges) + 1, LEVEL_MAX, *cols)
    assert_encodes_like_the_reference(blk)
    one = GenusBlock(7, 7, *[np.zeros(1, dtype=np.int64)] * 5)
    assert cli_module._encode_block(one, cli_module._TABLE_LAYOUT["json"]) == "[7, 0, 0, 0, 0, 0]"


def test_encoder_prints_zero_as_0():
    blk = breakdown_block(1, 200)
    rows = [line.split(" ") for line in
            cli_module._encode_block(blk, cli_module._TABLE_LAYOUT["plain"]).splitlines()]
    for c, name in ((2, "nu2"), (3, "nu3"), (5, "genus")):
        zeros = np.flatnonzero(getattr(blk, name) == 0)
        assert len(zeros) > 0, name
        assert all(rows[i][c] == "0" for i in zeros), name


def test_digit_table_is_built_on_first_use():
    script = (
        "import x0genus, x0genus.cli\n"
        "assert x0genus.cli._digit_words.cache_info().currsize == 0\n"
        "assert x0genus.cli.main(['table', '--max', '3']) == 0\n"
        "assert x0genus.cli._digit_words.cache_info().currsize == 1\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=checkout_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 1 1 1 1 0\n2 3 1 0 2 0\n3 4 0 1 2 0\n"


def test_genus_command_never_loads_numpy():
    # the genus command, --help and a usage error run on the stdlib and
    # x0genus.scalar alone; the first table in the same process loads numpy
    script = (
        "import io, sys\n"
        "from contextlib import redirect_stderr, redirect_stdout\n"
        "from x0genus.cli import main\n"
        "def exit_code(argv):\n"
        "    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):\n"
        "        try:\n"
        "            main(argv)\n"
        "        except SystemExit as e:\n"
        "            return e.code\n"
        "assert main(['genus', '1000000007']) == 0\n"
        "assert exit_code(['--help']) == 0\n"
        "assert exit_code(['frobnicate']) == 2\n"
        "heavy = {'numpy', 'x0genus.arith', 'x0genus.genus', 'x0genus.stats', 'x0genus.values',\n"
        "         'x0genus.bounds'}\n"
        "assert not heavy & set(sys.modules), heavy & set(sys.modules)\n"
        "assert main(['table', '--max', '3']) == 0\n"
        "assert 'numpy' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=checkout_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("n=1000000007\nmu=1000000008\nnu2=0\nnu3=0\nnu_inf=2\ngenus=83333334\n"
                           "1 1 1 1 1 0\n2 3 1 0 2 0\n3 4 0 1 2 0\n")


def _run_bounds_command():
    code, out, err = run(["bounds", "--max", "140000"])
    assert code == 0, err
    assert "ok=true" in out.splitlines()


H = SEGMENT + 100  # two blocks
# (whole-range function, the range its one iter_blocks pass must cover)
ONE_PASS = {
    "cli-bounds": (_run_bounds_command, (1, 140000)),
    "check_bounds_range": (lambda: bounds.check_bounds_range(5, H), (5, H)),
    "mu_over_12_bound_check": (lambda: bounds.mu_over_12_bound_check(5, H), (5, H)),
    "attained_genera": (lambda: values.attained_genera(1000), (1, values.scan_limit_for(1000))),
    "missed_values": (lambda: values.missed_values(1000), (1, values.scan_limit_for(1000))),
    "verify_parity_classification": (lambda: values.verify_parity_classification(H), (1, H)),
    "power_of_two_congruence_check": (lambda: values.power_of_two_congruence_check(H), (1, H)),
    "average_partial": (lambda: stats.average_partial(H), (1, H)),
    "dirichlet_F": (lambda: stats.dirichlet_F(2.0, H), (1, H)),
    "zeta_identity_check": (lambda: stats.zeta_identity_check(2.0, H), (1, H)),
    "residue_density_empirical": (lambda: stats.residue_density_empirical(7, H), (1, H)),
    "residue_histogram": (lambda: stats.residue_histogram(7, H), (1, H)),
    "restricted_congruence_check": (lambda: oracles.restricted_congruence_check(3, H), (1, H)),
}


@pytest.mark.parametrize("name", ONE_PASS)
def test_whole_range_scan_sieves_once(monkeypatch, name):
    # wrap iter_blocks wherever a module holds it by name, as perfbench does
    original = genus_module.iter_blocks
    passes = []

    def counting(lo, hi, *args, **kwargs):
        passes.append((lo, hi))
        return original(lo, hi, *args, **kwargs)

    for module in (genus_module, bounds, values, stats, cli_module, oracles):
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counting)
    call, span = ONE_PASS[name]
    call()
    assert passes == [span]


# the functions of ONE_PASS that take a level bound, each with the lo of
# its pass; attained_genera and missed_values bound a genus value and keep
# their own refusal at MISSED_MAX
BOUNDED = {
    "cli-bounds": (lambda b: list(cli_module._cmd_bounds(argparse.Namespace(max=b))), 1),
    "check_bounds_range": (lambda b: bounds.check_bounds_range(5, b), 5),
    "mu_over_12_bound_check": (lambda b: bounds.mu_over_12_bound_check(5, b), 5),
    "verify_parity_classification": (values.verify_parity_classification, 1),
    "power_of_two_congruence_check": (values.power_of_two_congruence_check, 1),
    "average_partial": (stats.average_partial, 1),
    "dirichlet_F": (lambda b: stats.dirichlet_F(2.0, b), 1),
    "zeta_identity_check": (lambda b: stats.zeta_identity_check(2.0, b), 1),
    "residue_density_empirical": (lambda b: stats.residue_density_empirical(7, b), 1),
    "residue_histogram": (lambda b: stats.residue_histogram(7, b), 1),
    "restricted_congruence_check": (lambda b: oracles.restricted_congruence_check(3, b), 1),
}


def test_every_level_bounded_scan_is_listed():
    assert set(BOUNDED) == set(ONE_PASS) - {"attained_genera", "missed_values"}


@pytest.mark.parametrize("bound", [0, -5])
@pytest.mark.parametrize("name", BOUNDED)
def test_bound_below_one_is_the_one_level_refusal(monkeypatch, name, bound):
    def no_block(*args, **kwargs):
        raise AssertionError("a block was sieved before the level range was refused")

    monkeypatch.setattr(genus_module, "breakdown_block", no_block)
    call, lo = BOUNDED[name]
    with pytest.raises(ValueError) as exc:
        call(bound)
    assert str(exc.value) == f"need 1 <= lo <= hi <= LEVEL_MAX = {LEVEL_MAX}, got [{lo}, {bound}]"


@pytest.mark.parametrize("bound", ["0", "-5", str(LEVEL_MAX + 1)])
def test_density_refuses_empirical_max_before_sieving(monkeypatch, bound):
    def no_sieve(*args, **kwargs):
        raise AssertionError("primes sieved before --empirical-max was refused")

    monkeypatch.setattr(stats, "primes_in_progression", no_sieve)
    code, out, err = run(["density", "--ell", "7", "--empirical-max", bound])
    assert (code, out) == (1, "")
    assert err == f"error: need 1 <= lo <= hi <= LEVEL_MAX = {LEVEL_MAX}, got [1, {bound}]\n"


def test_dirichlet_at_and_above_the_s_ceiling():
    payload = run_json(["dirichlet", "--s", repr(S_MAX)])
    jsonschema.validate(payload, SCHEMAS["dirichlet"])
    assert payload["ok"] is True
    numbers = ("s", "lhs", "rhs", "gap", "tail_bound", "rhs_error")
    assert all(math.isfinite(payload[k]) for k in numbers)
    for s in (math.nextafter(S_MAX, math.inf), 1e19, 1e200):
        code, out, err = run(["dirichlet", "--s", repr(s)])
        assert code == 1, s
        assert err.startswith("error:") and "1 < s <= 1000000000000000" in err, err
        assert out == ""


def run_module(argv):
    """Run `python -m x0genus argv` from this checkout; the finished process."""
    return subprocess.run([sys.executable, "-m", "x0genus", *argv], capture_output=True,
                          text=True, env=checkout_env(), timeout=60)


def assert_one_error_line(proc):
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# each refusal runs twice: an existing --output file keeps its bytes, and a
# new path is not created; the file is opened at the command's first byte
@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--max", str(10**16 + 1)],
        ["bounds", "--max", str(10**16 + 1)],
        ["average", "--max", str(10**16 + 1)],
        ["histogram", "--ell", "7", "--max", str(10**16 + 1)],
        # parity lists every prime up to --max, which stop at PRIME_LIMIT_MAX
        ["parity", "--max", str(10**9 + 1)],
        ["parity", "--max", str(10**12)],
        ["parity", "--max", str(10**16)],
        ["density", "--ell", "7", "--empirical-max", str(10**16 + 1)],
        ["genus", "0"],
        ["missed", "--max", "100000000"],  # beyond the scan capacity
        ["missed", "--max", str(values.MISSED_MAX + 1)],  # the first x beyond it
        ["histogram", "--ell", "1048583", "--max", "10"],  # first prime above 2**20
        ["density", "--ell", "2"],
        ["dirichlet", "--s", "1.0"],
    ],
)
def test_level_ceilings_refused_before_output(argv, tmp_path):
    kept = tmp_path / "kept"
    kept.write_bytes(b"KEEP ME\n")
    assert_one_error_line(run_module([*argv, "--output", str(kept)]))
    assert kept.read_bytes() == b"KEEP ME\n"
    target = tmp_path / "out"
    assert_one_error_line(run_module([*argv, "--output", str(target)]))
    assert not target.exists()


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unopenable_output_is_an_error_line(where, tmp_path):
    path = tmp_path / "missing" / "out" if where == "missing-dir" else tmp_path
    assert_one_error_line(run_module(["genus", "11", "--output", str(path)]))
    assert not (tmp_path / "missing").exists()


def test_command_that_prints_nothing_leaves_an_empty_file(tmp_path):
    target = tmp_path / "out"
    target.write_bytes(b"old\n")
    code, out, err = run(["missed", "--max", "100", "--format", "plain", "--output", str(target)])
    assert (code, out, err) == (0, "", "")  # no genus up to 100 is missed
    assert target.read_bytes() == b""
    target.unlink()
    assert run(["missed", "--max", "100", "--output", str(target)])[0] == 0
    assert target.read_bytes() == b""
