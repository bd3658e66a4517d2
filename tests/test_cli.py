"""Command line surface: formats, schemas, exit codes, determinism."""

import importlib
import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path

import jsonschema
import pytest

from x0genus.arith import Factorization
from x0genus.cli import SCHEMAS, main
from x0genus.genus import SEGMENT, breakdown_from_factorization, genus
from x0genus.stats import S_MAX, flagged_residue_classes

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


def test_usage_errors_exit_2():
    # an unknown flag, --threads among them, is a usage error
    for argv in ([], ["frobnicate"], ["genus", "abc"], ["table"],
                 ["table", "--max", "100", "--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


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
        "seen = x0genus.scan(1, 3 * SEGMENT, lambda b: [threading.active_count()])[0]\n"
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


def test_bounds_sieves_the_range_once(monkeypatch):
    genus_module = importlib.import_module("x0genus.genus")
    original = genus_module.iter_blocks
    passes = []

    def counting(lo, hi, *args, **kwargs):
        passes.append((lo, hi))
        return original(lo, hi, *args, **kwargs)

    monkeypatch.setattr(genus_module, "iter_blocks", counting)
    code, out, err = run(["bounds", "--max", "140000"])
    assert code == 0, err
    assert "ok=true" in out.splitlines()
    assert passes == [(1, 140000)]


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
