"""Byte-for-byte CLI output: every subcommand in every format.

Each case below runs in plain, csv and json, and its output must equal
tests/golden/<case>.<format> exactly, again when it is rendered twice in
one process, and again when it is written through --output.  Every json golden also validates against its
subcommand's schema.

To rewrite the files after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import argparse
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import jsonschema
import pytest

from x0genus.cli import SCHEMAS, _build_parser, main

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("plain", "csv", "json")

# scans above SEGMENT = 131072 levels span two or more segments
CASES = {
    "genus-11": ["genus", "11"],
    "genus-1155": ["genus", "1155"],
    "genus-999985999949": ["genus", "999985999949"],  # 999983 * 1000003
    "genus-18446744073709551615": ["genus", "18446744073709551615"],  # 2**64 - 1
    "table-40": ["table", "--max", "40"],
    "missed-11000": ["missed", "--max", "11000"],
    "parity-140000": ["parity", "--max", "140000"],
    "bounds-140000": ["bounds", "--max", "140000"],
    "average-140000": ["average", "--max", "140000"],
    "average-precision-4": ["average", "--max", "1000", "--precision", "4"],
    "density-7": ["density", "--ell", "7"],
    "density-13-empirical": ["density", "--ell", "13", "--empirical-max", "140000"],
    "histogram-7": ["histogram", "--ell", "7", "--max", "140000"],
    "histogram-5": ["histogram", "--ell", "5", "--max", "1000"],
    "constants": ["constants"],
    "constants-precision-4": ["constants", "--precision", "4"],
    "dirichlet-2": ["dirichlet", "--s", "2"],
}


def render(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def golden_path(case, fmt):
    return GOLDEN / f"{case}.{fmt}"


def subcommands():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return set(sub.choices)


def test_schemas_and_cases_cover_every_subcommand():
    names = subcommands()
    assert set(SCHEMAS) == names  # one schema per subcommand, none left over
    assert {argv[0] for argv in CASES.values()} == names


# runs=2 renders a case twice in one process, so nothing kept between calls
# (the cached primes) can change a byte
@pytest.mark.parametrize("runs", [None, 2])
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, fmt, runs):
    argv = CASES[case] + ["--format", fmt]
    for _ in range(runs or 1):
        assert render(argv).encode() == golden_path(case, fmt).read_bytes()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_output_file_matches_golden(case, fmt, tmp_path):
    target = tmp_path / "out"
    assert render(CASES[case] + ["--format", fmt, "--output", str(target)]) == ""
    assert target.read_bytes() == golden_path(case, fmt).read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_json_golden_validates(case):
    payload = json.loads(golden_path(case, "json").read_bytes())
    jsonschema.validate(payload, SCHEMAS[CASES[case][0]])


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        for fmt in FORMATS:
            golden_path(case, fmt).write_bytes(render(argv + ["--format", fmt]).encode())
