"""Canonical CLI output bytes against recorded SHA-256 digests.

Every request the benchmark records (perfbench/golden.json: ``verify`` and
``sweep`` CSV), and the reports that the benchmark does not cover (tests/report_digests.json:
``spectrum`` (json, text, csv), ``ricci`` and ``soliton`` at n = 1-3,
``verify`` and ``sweep`` at n = 1-2, ``einstein`` at n = 1-4), run in-process
through ``cli.main``;
the SHA-256 of each stdout must equal its recorded digest, so a change to
any output byte fails here without running the benchmark.

The ``einstein`` digests pin float round-off, which depends on how the
built-in ``sum()`` adds floats: plainly left to right up to CPython 3.11,
with compensation from 3.12 on.  They run only where the plain rule holds.
"""

import hashlib
import json
from itertools import product
from pathlib import Path

import pytest

from solvsoliton.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
REPORTS = Path(__file__).resolve().parent / "report_digests.json"

GOLDEN_DIGESTS = json.loads(GOLDEN.read_text(encoding="utf-8"))["digests"]


@pytest.mark.parametrize("key", sorted(GOLDEN_DIGESTS))
def test_stdout_matches_recorded_digest(capsys, key):
    assert main(key.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_DIGESTS[key]


REPORT_KEYS = [
    f"{cmd} --n {n} --rho 11/13 --c {c} --format {fmt}"
    for cmd, n, c, fmt in product(
        ("spectrum", "ricci", "soliton"), (1, 2, 3), ("0", "9/14"), ("json", "text")
    )
] + [
    f"spectrum --n {n} --rho 11/13 --c {c} --format csv"
    for n, c in product((1, 2, 3), ("0", "9/14"))
] + [
    f"verify --n {n} --rho 11/13 --c {c} --format {fmt}"
    for n, c, fmt in product((1, 2), ("0", "9/14"), ("json", "text", "csv"))
] + [
    f"sweep --n {n} --rho-grid 1,11/13 --c-grid 0,9/14 --format {fmt}"
    for n, fmt in product((1, 2), ("json", "text", "csv"))
] + [
    f"einstein --n {n} --rho 11/13 --c {c} --format {fmt}"
    for n, c, fmt in product((1, 2, 3, 4), ("0", "9/14"), ("json", "text", "csv"))
]

# True where sum() of floats rounds after each addition, as when the
# einstein digests were recorded; compensated summation gives 1.0 here.
PLAIN_FLOAT_SUM = sum([1e16, 1.0, -1e16]) == 0.0


@pytest.fixture(scope="module")
def report_digests():
    return json.loads(REPORTS.read_text(encoding="utf-8"))["digests"]


def test_report_digests_cover_exactly_the_report_keys(report_digests):
    assert sorted(report_digests) == sorted(REPORT_KEYS)


@pytest.mark.parametrize("key", REPORT_KEYS)
def test_report_matches_recorded_digest(capsys, report_digests, key):
    if key.startswith("einstein") and not PLAIN_FLOAT_SUM:
        pytest.skip(
            "einstein digests pin float round-off of plain left-to-right "
            "sum(); this interpreter's sum() of floats is compensated"
        )
    assert main(key.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == report_digests[key]
