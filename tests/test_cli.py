"""Command-line interface: exit codes, report content, formats."""

import contextlib
import csv
import gc
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import isqrt, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solvsoliton
from solvsoliton import cli, family, hypersurface, lie_core, linalg, metric_lie, scalars
from solvsoliton.cli import main


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def verdict(status: str) -> dict:
    """A soliton verdict with ``status`` and every other value None."""
    return {"status": status, **dict.fromkeys(["lambda", "lambda_source", "D", "checklist", "witness"])}


class TestVerify:
    def test_solvsoliton_case(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "2", "--rho", "1", "--c", "0", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "solvsoliton"
        assert report["lambda"] == "-8"
        assert report["delta_multiple"] == "6"
        assert report["ok"] is True

    def test_not_soliton_case(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "2", "--rho", "1", "--c", "1", "--format", "json"
        )
        assert code == 0  # prediction is not_soliton, so the run passes
        report = json.loads(out)
        assert report["status"] == "not_soliton"
        assert report["soliton_checklist"]["checklist"]["ad_normal"] is False
        assert report["soliton_checklist"]["witness"] is not None

    def test_nilsoliton_case(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "1", "--rho", "3", "--c", "2", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "nilsoliton"
        assert report["lambda"] == "-270/343"  # -3K with K = 90/343

    def test_text_format_mentions_checks(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "1", "--rho", "1", "--c", "0")
        assert code == 0
        assert "jacobi" in out and "status: nilsoliton" in out


class TestUsageErrors:
    def test_bad_rational(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "2", "--rho", "abc", "--c", "0")
        assert code == 2
        assert "parameter error" in err

    def test_negative_c(self, capsys):
        code, _, _ = run(capsys, "verify", "--n", "2", "--rho", "1", "--c", "-1")
        assert code == 2

    def test_zero_rho(self, capsys):
        code, _, _ = run(capsys, "spectrum", "--n", "2", "--rho", "0", "--c", "1")
        assert code == 2

    def test_exceeds_max_n(self, capsys, monkeypatch):
        monkeypatch.setenv("SOLV_MAX_N", "3")
        code, _, err = run(capsys, "verify", "--n", "4", "--rho", "1", "--c", "0")
        assert code == 2
        assert "SOLV_MAX_N" in err

    def test_default_max_n_guard(self, capsys, monkeypatch):
        monkeypatch.delenv("SOLV_MAX_N", raising=False)
        code, out, err = run(capsys, "verify", "--n", "17", "--rho", "1", "--c", "0")
        assert code == 2 and out == ""
        assert err == "n=17 exceeds SOLV_MAX_N=16 for the exact path\n"

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["verify", "--n", "2", "--rho", "1/0", "--c", "0"], "--rho: zero denominator in '1/0'"),
            (["verify", "--n", "2", "--rho", "1", "--c", "3/0"], "--c: zero denominator in '3/0'"),
            (
                ["sweep", "--n", "2", "--rho-grid", "1,1/0", "--c-grid", "0"],
                "--rho-grid: zero denominator in '1/0'",
            ),
            (["einstein", "--n", "2", "--rho", "1", "--c", "0/0"], "--c: zero denominator in '0/0'"),
        ],
    )
    def test_zero_denominator_names_the_option(self, capsys, argv, line):
        assert run(capsys, *argv) == (2, "", f"parameter error: {line}\n")

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["verify", "--n", "2", "--rho", "abc", "--c", "0"], "--rho: invalid rational 'abc'"),
            (["verify", "--n", "2", "--rho", "1", "--c", ""], "--c: invalid rational ''"),
            (
                ["sweep", "--n", "2", "--rho-grid", "1,x", "--c-grid", "0"],
                "--rho-grid: invalid rational 'x'",
            ),
            (
                ["sweep", "--n", "2", "--rho-grid", "1", "--c-grid", "0, 1/2x"],
                "--c-grid: invalid rational '1/2x'",
            ),
        ],
    )
    def test_unparsable_rational_names_the_option(self, capsys, argv, line):
        assert run(capsys, *argv) == (2, "", f"parameter error: {line}\n")

    @pytest.mark.parametrize(
        "command, value", [("verify", "x"), ("sweep", "x"), ("ricci", "4.5")]
    )
    def test_non_integer_max_n_names_the_variable(self, capsys, monkeypatch, command, value):
        monkeypatch.setenv("SOLV_MAX_N", value)
        point = ["--rho", "1", "--c", "0"]
        if command == "sweep":
            point = ["--rho-grid", "1", "--c-grid", "0"]
        code, out, err = run(capsys, command, "--n", "2", *point)
        assert (code, out) == (2, "")
        assert err == f"parameter error: SOLV_MAX_N must be an integer, not {value!r}\n"

    def test_einstein_cost_guard(self, capsys):
        code, out, err = run(capsys, "einstein", "--n", "9", "--rho", "1", "--c", "1")
        assert code == 2 and out == ""
        assert err == "einstein check refused: n=9 exceeds the cost guard (max 8)\n"

    @pytest.mark.parametrize(
        "grid", [("--rho-grid", "0,1"), ("--c-grid", "-1"), ("--c-grid", "0,-1/2")]
    )
    def test_sweep_grid_point_outside_domain(self, capsys, grid):
        code, out, err = run(capsys, "sweep", "--n", "2", *grid)
        assert code == 2
        assert out == ""
        assert err.startswith("parameter error") and "Traceback" not in err

    def test_einstein_rho_beyond_float_range(self, capsys):
        code, _, err = run(capsys, "einstein", "--n", "1", "--rho", "1e400", "--c", "0")
        assert code == 2
        assert err.startswith("parameter error") and err.count("\n") == 1

    def test_einstein_rho_below_float_range(self, capsys):
        code, _, err = run(capsys, "einstein", "--n", "1", "--rho", "1e-400", "--c", "0")
        assert code == 2
        assert err.startswith("parameter error")

    @pytest.mark.parametrize("n", ["1", "2", "4"])
    @pytest.mark.parametrize(
        "rho,c",
        [
            ("1e300", "0"),
            ("1e-300", "0"),
            ("1e-160", "0"),
            ("1e100", "0"),
            ("1e150", "0"),
            ("1", "1e300"),
        ],
    )
    def test_einstein_metric_not_finite_or_singular(self, capsys, n, rho, c):
        code, out, err = run(capsys, "einstein", "--n", n, "--rho", rho, "--c", c)
        if (n, rho, c) == ("1", "1", "1e300"):
            # every float of this metric is finite; only the square of
            # rho + 2c inside a jet's l2 sum overflows, and that term is 0
            assert (code, err) == (0, "")
            assert "max_residual: 1.318410e-15" in out
            return
        assert code == 2
        assert out == ""
        assert err.startswith("parameter error: ") and err.count("\n") == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2


class TestSpectrum:
    def test_json_c0(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--n", "2", "--rho", "1", "--c", "0", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["sigma"] == ["0", "2", "1", "1"]
        assert report["r"] == ["-8", "4", "-2", "-2"]
        assert report["sigma_multiplicities"] == [2, 1, 2, 2]

    def test_n1_r2(self, capsys):
        _, out, _ = run(
            capsys, "spectrum", "--n", "1", "--rho", "1", "--c", "1", "--format", "json"
        )
        report = json.loads(out)
        assert report["r"][1] == "4/27"
        assert report["r"][0] is None  # no r1 eigenvalue at n = 1

    def test_square_warp_factor_keeps_sigma_rational(self, capsys):
        # at rho = 7, c = 9 the radicand (rho+c)/(rho+2c) = 16/25 is a square
        _, out, _ = run(
            capsys, "spectrum", "--n", "2", "--rho", "7", "--c", "9", "--format", "json"
        )
        report = json.loads(out)
        assert report["sigma"] == ["9/20", "737/500", "172/125", "4/5"]
        assert report["trace_shape"] == "3363/500"

    def test_text_includes_multiplicities(self, capsys):
        _, out, _ = run(capsys, "spectrum", "--n", "3", "--rho", "1", "--c", "1")
        assert "sigma_multiplicities" in out
        assert "- 4" in out  # 2n-2 = 4 at n = 3

    @pytest.mark.parametrize(
        "rho, c",
        [("490098964/698478529", "2947093541/2551740819"), ("1e-100", "1e100")],
    )
    def test_sigma_squares_to_the_radial_rate_over_f(self, capsys, rho, c):
        # sigma_k = -(g_k'/2g_k)/sqrt(f): sigma_k^2 = b^2 q is (g_k'/2g_k)^2/f
        # exactly, and sigma_k has the sign of -g_k'
        code, out, _ = run(capsys, "spectrum", "--n", "2", "--rho", rho, "--c", c, "--format", "json")
        assert code == 0
        p = family.FamilyParams(2, Fraction(rho), Fraction(c))
        f = p.warp_jet[0]
        jets = p.slice_jets
        starts = [0, 2, 3, 5]  # block starts for the multiplicities (2, 1, 2, 2)
        for text, start in zip(json.loads(out)["sigma"], starts):
            rate = jets[start][1] / 2
            if "sqrt" in text:
                a, rest = text.split(" + ")
                b, q = rest.removesuffix(")").split("*sqrt(")
                b, q = Fraction(b), Fraction(q)
                assert a == "0" and isqrt(int(q)) ** 2 != q
            else:
                b, q = Fraction(text), 1
            assert b * b * q == rate * rate / f
            assert (b > 0) == (rate < 0) and (b == 0) == (rate == 0)

    @pytest.mark.parametrize("c", ["0", "1e-400", "1", "1e100", "1e400"])
    @pytest.mark.parametrize("rho", ["1e-400", "1e-100", "1", "1e400"])
    def test_extreme_scales_exit_0(self, capsys, rho, c):
        # no radicand is factored, so no scale of rho or c refuses or hangs
        for args in (
            ("spectrum", "--n", "2", "--rho", rho, "--c", c),
            ("sweep", "--n", "2", "--rho-grid", rho, "--c-grid", c),
        ):
            start = time.perf_counter()
            code, out, err = run(capsys, *args, "--format", "json")
            assert time.perf_counter() - start < 2.0
            assert (code, err) == (0, "") and json.loads(out)

    def test_radicand_beyond_float_range(self, capsys):
        # rho = 1, c = (Y - X)/(2X - Y) makes (rho+c)/(rho+2c) = X/Y; X and Y
        # split the odd primes below 1000, so the radicand holds their
        # product, about 1400 bits and past float range
        odd = scalars._SMALL_PRIMES[1:]
        x, y = prod(odd[0::2]), prod(odd[1::2])
        while y < x:
            y *= 2
        assert x < y < 2 * x
        c = Fraction(y - x, 2 * x - y)
        code, out, err = run(capsys, "spectrum", "--n", "2", "--rho", "1", "--c", str(c), "--format", "json")
        assert code == 0 and err == ""
        report = json.loads(out)
        q = int(report["sigma"][3].split("*sqrt(")[1].removesuffix(")"))
        assert q.bit_length() > 1024
        # sigma_4 = (1/2 rho) 2 rho sqrt(X/Y), as g_zrest'/g_zrest = -1/rho
        assert report["sigma_approx"][3] == f"{(x / y) ** 0.5:.12g}"


class TestJsonRoundTrip:
    @pytest.mark.parametrize("cmd", ["verify", "spectrum", "ricci", "soliton"])
    def test_byte_identical(self, capsys, cmd):
        _, out, _ = run(
            capsys, cmd, "--n", "2", "--rho", "1", "--c", "1", "--format", "json"
        )
        assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out

    @pytest.mark.parametrize("n", ["1", "2"])
    @pytest.mark.parametrize("cmd", list(cli.COMMANDS))
    def test_no_private_keys(self, capsys, cmd, n):
        if cmd == "sweep":
            point = ("--rho-grid", "1,11/13", "--c-grid", "0,9/14")
        else:
            point = ("--rho", "11/13", "--c", "9/14")
        code, out, _ = run(capsys, cmd, "--n", n, *point, "--format", "json")
        assert code == 0

        def keys(value):
            if isinstance(value, dict):
                yield from value
                value = list(value.values())
            if isinstance(value, list):
                for item in value:
                    yield from keys(item)

        assert [key for key in keys(json.loads(out)) if key.startswith("_")] == []


def csv_and_json(capsys, command: str, n: int):
    """The one CSV row and the JSON report of ``command`` at (n, 11/13, 9/14)."""
    args = [command, "--n", str(n), "--rho", "11/13", "--c", "9/14", "--format"]
    code, out, _ = run(capsys, *args, "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2 and len(rows[0]) == len(rows[1])
    code, out, _ = run(capsys, *args, "json")
    assert code == 0
    return dict(zip(*rows)), json.loads(out)


def csv_cell(value) -> str:
    return "" if value is None else str(value)


class TestSingleReportCsv:
    @pytest.mark.parametrize("n", [1, 2])
    def test_spectrum_keeps_every_sigma_and_r(self, capsys, n):
        row, report = csv_and_json(capsys, "spectrum", n)
        for key in ("sigma", "r"):
            assert len(report[key]) == 4
            for i, value in enumerate(report[key], start=1):
                assert row[f"{key}.{i}"] == csv_cell(value)

    @pytest.mark.parametrize("n", [1, 2])
    def test_ricci_keeps_the_endomorphism(self, capsys, n):
        row, report = csv_and_json(capsys, "ricci", n)
        matrix = report["ricci_endomorphism"]
        for i, entries in enumerate(matrix, start=1):
            for j, value in enumerate(entries, start=1):
                assert row[f"ricci_endomorphism.{i}.{j}"] == value
        assert row["trace_identity"] == "True"

    def test_verify_keeps_the_checks(self, capsys):
        row, report = csv_and_json(capsys, "verify", 2)
        assert row["checks.jacobi"] == "True"
        assert row["checks.splitting.a_is_abelian"] == "True"
        assert row["soliton_checklist.checklist.norm_condition"] == csv_cell(
            report["soliton_checklist"]["checklist"]["norm_condition"]
        )

    @pytest.mark.parametrize("command", ["verify", "ricci", "soliton", "spectrum"])
    def test_one_column_per_leaf_and_top_level_names_kept(self, capsys, command):
        row, report = csv_and_json(capsys, command, 2)

        def leaves(value, path):
            if isinstance(value, dict):
                for key, item in value.items():
                    yield from leaves(item, f"{path}.{key}" if path else key)
            elif isinstance(value, list):
                for i, item in enumerate(value, start=1):
                    yield from leaves(item, f"{path}.{i}")
            else:
                yield path, csv_cell(value)

        # the JSON writer sorts keys, so compare the columns as a mapping
        assert row == dict(leaves(report, ""))
        scalars = [k for k, v in report.items() if not isinstance(v, (dict, list))]
        assert set(scalars) <= set(row)


class TestSweep:
    def test_verdict_column(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            "--n",
            "2",
            "--rho-grid",
            "1",
            "--c-grid",
            "0,1/10,1",
            "--format",
            "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["status"] for r in rows] == [
            "solvsoliton",
            "not_soliton",
            "not_soliton",
        ]

    def test_r3_sign_flip(self, capsys):
        # r3 numerator -rho^3 + c rho^2 + 8 c^2 rho + 8 c^3 at n=2, c=1
        # changes sign between rho = 3 and rho = 4
        _, out, _ = run(
            capsys,
            "sweep",
            "--n",
            "2",
            "--c-grid",
            "1",
            "--rho-grid",
            "3,4",
            "--format",
            "json",
        )
        rows = json.loads(out)
        from fractions import Fraction

        r3_at_3 = Fraction(rows[0]["r3"])
        r3_at_4 = Fraction(rows[1]["r3"])
        assert r3_at_3 > 0 > r3_at_4

    def test_c0_rows_have_r3_equal_r4(self, capsys):
        _, out, _ = run(
            capsys,
            "sweep",
            "--n",
            "3",
            "--rho-grid",
            "1,2,5/2",
            "--c-grid",
            "0",
            "--format",
            "json",
        )
        for row in json.loads(out):
            assert row["r3"] == row["r4"] == "-2"

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            "--n",
            "2",
            "--rho-grid",
            "1,2",
            "--c-grid",
            "0,1",
            "--format",
            "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        assert rows[0]["status"] == "solvsoliton"
        assert {"sigma1", "r1", "lambda", "trace_shape"} <= set(rows[0])

    def test_deterministic_row_order(self, capsys):
        args = [
            "sweep", "--n", "2", "--rho-grid", "1,2", "--c-grid", "0,1",
            "--format", "json",
        ]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        rows = json.loads(out1)
        assert [(r["rho"], r["c"]) for r in rows] == [
            ("1", "0"), ("1", "1"), ("2", "0"), ("2", "1"),
        ]

    def test_verdict_differing_from_prediction_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "soliton_check_direct", lambda M: verdict("not_soliton")
        )
        code, out, _ = run(
            capsys, "sweep", "--n", "2", "--c-grid", "0,1", "--format", "json"
        )
        assert code == 1
        assert [r["status"] for r in json.loads(out)] == ["not_soliton"] * 2

    def test_status_is_checked_against_the_grid_c_of_its_row(self, capsys, monkeypatch):
        # rows run rho-major: (1, 0), (1, 1), (2, 0), (2, 1), predicted
        # solvsoliton, not_soliton, solvsoliton, not_soliton at n = 2
        argv = ["sweep", "--n", "2", "--rho-grid", "1,2", "--c-grid", "0,1", "--format", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(json.loads(out)) == 4
        classify, calls = family.classify_status, []

        def third_row_disagrees(n, status):
            calls.append(n)
            return "not_soliton" if len(calls) == 3 else classify(n, status)

        monkeypatch.setattr(family, "classify_status", third_row_disagrees)
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert [(r["rho"], r["c"], r["status"]) for r in json.loads(out)] == [
            ("1", "0", "solvsoliton"),
            ("1", "1", "not_soliton"),
            ("2", "0", "not_soliton"),
            ("2", "1", "not_soliton"),
        ]

    def test_every_row_prints_at_a_tiny_c(self, capsys):
        # the radicand at c = 1e-40 has a 207-bit part with no small prime
        # square; it stays in the root and both rows print
        code, out, err = run(
            capsys, "sweep", "--n", "1", "--rho-grid", "2", "--c-grid", "0,1e-40", "--format", "csv"
        )
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["rho"], r["c"]) for r in rows] == [("2", "0"), ("2", "1/" + "1" + "0" * 40)]
        assert "sqrt(" in rows[1]["sigma2"] and "sqrt(" not in rows[0]["sigma2"]

    def test_rows_skip_the_checklist_route(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sweep ran the checklist route")

        monkeypatch.setattr(cli, "soliton_check_lauret", refuse)
        monkeypatch.setattr(metric_lie, "soliton_check_lauret", refuse)
        points = [family.FamilyParams(2, Fraction(1), Fraction(c)) for c in ("0", "1/3")]
        rows = [cli.sweep_rows(p)[0] for p in points]
        assert [r["status"] for r in rows] == ["solvsoliton", "not_soliton"]

    @pytest.mark.parametrize("option", ["--rho", "--c"])
    def test_a_single_point_option_is_unrecognized(self, capsys, option):
        argv = ["sweep", "--n", "1", "--rho-grid", "1", "--c-grid", "0", option, "1"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == cli._usage("sweep") + f"solvsoliton: error: unrecognized arguments: {option}\n"

    @pytest.mark.parametrize("option", ["--rho-grid", "--c-grid"])
    @pytest.mark.parametrize("form", ["separate", "equals"])
    def test_an_empty_grid_is_refused(self, capsys, option, form):
        empty = [option, ""] if form == "separate" else [f"{option}="]
        code, out, err = run(capsys, "sweep", "--n", "1", *empty)
        assert (code, out, err) == (2, "", f"parameter error: {option}: invalid rational ''\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--n", "0"], "need n >= 1, rho > 0, c >= 0"),
            (["--n", "0", "--rho-grid", "0,1"], "need n >= 1, rho > 0, c >= 0"),
            (["--rho-grid", "0,1"], "need rho > 0, c >= 0 at every grid point"),
            (["--c-grid", "-1"], "need rho > 0, c >= 0 at every grid point"),
            (["--rho-grid", "0,1", "--n", "17"], "need rho > 0, c >= 0 at every grid point"),
        ],
    )
    def test_a_refused_line_keeps_its_message(self, capsys, monkeypatch, argv, message):
        monkeypatch.delenv("SOLV_MAX_N", raising=False)
        code, out, err = run(capsys, "sweep", "--n", "1", *argv)
        assert (code, out, err) == (2, "", f"parameter error: {message}\n")


class TestEinstein:
    def test_small_case_passes(self, capsys):
        code, out, _ = run(
            capsys, "einstein", "--n", "1", "--rho", "1", "--c", "0", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert float(report["max_residual"]) < 1e-8

    def test_largest_guarded_n_passes(self, capsys):
        code, out, _ = run(
            capsys, "einstein", "--n", "8", "--rho", "11/13", "--c", "9/14", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_deformed_case(self, capsys):
        code, out, _ = run(
            capsys, "einstein", "--n", "2", "--rho", "1", "--c", "1", "--format", "json"
        )
        assert code == 0
        assert float(json.loads(out)["max_residual"]) < 1e-6

    def test_csv_residual_dump(self, capsys, tmp_path):
        target = tmp_path / "residuals.csv"
        code, _, _ = run(
            capsys,
            "einstein",
            "--n",
            "1",
            "--rho",
            "1",
            "--c",
            "1",
            "--format",
            "csv",
            "--output",
            str(target),
        )
        assert code == 0
        with target.open() as fh:
            rows = list(csv.DictReader(fh))
        assert {row["point"] for row in rows} == {"p_rho", "offcenter0", "offcenter1"}

    @pytest.mark.parametrize("n, c", [("1", "9/14"), ("2", "0"), ("5", "1")])
    def test_large_rho_passes(self, capsys, n, c):
        # the warp factor is 2.5e-161 at rho = 1e80, so its float square
        # is subnormal; the induced eigenvalues must not square it
        code, out, _ = run(
            capsys, "einstein", "--n", n, "--rho", "1e80", "--c", c, "--format", "json"
        )
        report = json.loads(out)
        assert (code, report["ok"]) == (0, True)
        assert float(report["induced_eigenvalue_error"]) < 1e-13

    @pytest.mark.parametrize(
        "n,rho", [("3", "1e-5"), ("2", "1/1000000000000")]
    )
    def test_small_scale_slice_passes(self, capsys, n, rho):
        # slice Gram entries of order 1e5 and 1e23: an absolute Gram error
        # would fail these sound metrics on rounding alone
        code, out, _ = run(
            capsys, "einstein", "--n", n, "--rho", rho, "--c", "0", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert float(report["induced_gram_error"]) < 1e-12


class TestOutputFile:
    def test_report_written_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "verify",
            "--n",
            "1",
            "--rho",
            "1",
            "--c",
            "0",
            "--format",
            "json",
            "--output",
            str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["status"] == "nilsoliton"

    @pytest.mark.parametrize(
        "args",
        [
            *(f"verify --n 1 --rho 1 --c 0 --format {fmt}" for fmt in cli.FORMATS),
            *(
                f"sweep --n 2 --rho-grid 1,11/13 --c-grid 0,9/14 --format {fmt}"
                for fmt in cli.FORMATS
            ),
            "einstein --n 2 --rho 11/13 --c 9/14 --format csv",
        ],
    )
    def test_file_holds_the_stdout_bytes(self, capsys, tmp_path, args):
        code, out, _ = run(capsys, *args.split())
        target = tmp_path / "report"
        assert run(capsys, *args.split(), "--output", str(target)) == (code, "", "")
        assert target.read_bytes() == out.encode("utf-8")

    def test_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(
            capsys, "verify", "--n", "1", "--rho", "1", "--c", "0", "--output", str(target)
        )
        assert code == 2 and out == ""
        assert err.startswith("output error") and err.count("\n") == 1
        assert str(target) in err

    def test_directory_as_output(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--n", "1", "--format", "csv", "--output", str(tmp_path)
        )
        assert code == 2
        assert err.startswith("output error") and err.count("\n") == 1


class TestSoliton:
    def test_agreeing_checkers_exit_0(self, capsys):
        code, out, _ = run(
            capsys, "soliton", "--n", "2", "--rho", "1", "--c", "1", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["direct"]["status"] == report["checklist"]["status"] == "not_soliton"

    def test_disagreeing_checkers_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "soliton_check_lauret", lambda *args: verdict("soliton")
        )
        code, out, _ = run(
            capsys, "soliton", "--n", "2", "--rho", "1", "--c", "1", "--format", "json"
        )
        assert code == 1
        report = json.loads(out)
        assert report["direct"]["status"] == "not_soliton"
        assert report["checklist"]["status"] == "soliton"

    @pytest.mark.parametrize("c", ["0", "1"])
    def test_verdicts_print_as_exact_strings(self, c):
        # the library hands back exact values; only the report turns them
        # into strings, in the verdict's own key order
        p = family.FamilyParams(2, Fraction(1), Fraction(c))
        direct = solvsoliton.soliton_check_direct(family.metric_algebra(p))
        report, _ = cli.soliton_report(p)
        keys = ["status", "lambda", "lambda_source", "D", "checklist", "witness"]
        assert list(report["direct"]) == list(report["checklist"]) == keys
        if c == "0":
            assert report["direct"]["lambda"] == str(direct["lambda"]) == "-8"
            assert report["direct"]["D"] == direct["D"].to_strings()
        else:
            assert report["direct"] == verdict("not_soliton")
            witness = report["checklist"]["witness"]
            assert witness[1][6] == "-2/3" and all(type(x) is str for row in witness for x in row)


def count_calls(monkeypatch, *names) -> dict:
    """{name: calls} for the named package callables, each counted through
    every package module that binds it."""
    modules = (scalars, linalg, lie_core, metric_lie, family, hypersurface, cli)
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = next(getattr(m, name) for m in modules if hasattr(m, name))

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


class TestComputeOnce:
    @pytest.mark.parametrize("c", ["0", "1/3"])
    def test_verify_computes_each_object_once(self, monkeypatch, c):
        calls = count_calls(
            monkeypatch,
            "ricci_bilinear",
            "inverse",
            "rref",
            "verify_splitting",
            "soliton_check_direct",
            "metric_algebra",
            "check_jacobi",
        )
        # an uncached algebra, so that building it would show a Jacobi run
        family.build_lie_algebra.cache_clear()
        p = family.FamilyParams(3, Fraction(5, 2), Fraction(c))
        report, ok = cli.verify_report(p)
        assert ok is report["ok"] is True
        # one Ricci form and one Gram inverse per metric algebra, the algebra
        # and its nilradical, each inverse one elimination; the evaluation
        # map is not inverted.  Jacobi runs once, in the report.
        assert calls == {
            "ricci_bilinear": 2,
            "inverse": 2,
            "rref": 6,
            "verify_splitting": 1,
            "soliton_check_direct": 2,
            "metric_algebra": 1,
            "check_jacobi": 1,
        }

    @pytest.mark.parametrize("c", ["0", "1/3"])
    def test_soliton_computes_each_object_once(self, monkeypatch, c):
        calls = count_calls(monkeypatch, "ricci_bilinear", "verify_splitting", "MetricLieAlgebra")
        cli.soliton_report(family.FamilyParams(3, Fraction(5, 2), Fraction(c)))
        assert calls == {"ricci_bilinear": 2, "verify_splitting": 1, "MetricLieAlgebra": 2}

    def test_sweep_computes_each_point_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "ricci_bilinear", "power_jet")
        rows = [
            cli.sweep_rows(family.FamilyParams(3, rho, c))
            for rho in (Fraction(1), Fraction(5, 3))
            for c in (Fraction(0), Fraction(2, 7))
        ]
        assert [ok for _, ok in rows] == [True] * 4
        # per point one Ricci form, and one jet per distinct slice entry
        # (b, phi, z0, zrest) plus the warp factor's
        assert calls == {"ricci_bilinear": 4, "power_jet": 4 * 5}

    def test_verify_inverts_each_gram_once(self, monkeypatch):
        calls = {}

        def counted(module):
            inverse = module.inverse

            def wrapper(A):
                name = module.__name__.rsplit(".", 1)[1]
                calls[name] = calls.get(name, 0) + 1
                return inverse(A)

            return wrapper

        monkeypatch.setattr(metric_lie, "inverse", counted(metric_lie))
        p = family.FamilyParams(3, Fraction(7, 5), Fraction(9, 14))
        report, ok = cli.verify_report(p)
        assert ok is report["ok"] is True
        # the Grams of the algebra and of its nilradical.  The evaluation
        # map intertwines the coordinate route and is not inverted, and the
        # coordinate route is entrywise on a diagonal Gram.
        assert calls == {"metric_lie": 2}
        assert not hasattr(cli, "inverse")

    def test_einstein_assembles_each_point_once(self, monkeypatch):
        from solvsoliton import coord_engine

        calls = []
        jets = coord_engine.AmbientMetric.jets

        def counted(self, point):
            calls.append(tuple(point))
            return jets(self, point)

        monkeypatch.setattr(coord_engine.AmbientMetric, "jets", counted)
        report, ok, _ = cli.einstein_report(family.FamilyParams(2, Fraction(1), Fraction(1)))
        assert ok is report["ok"] is True
        # p_rho and the two off-center points; induced_consistency reuses p_rho
        assert len(calls) == len(set(calls)) == 3

    @pytest.mark.parametrize(
        "argv, name, count",
        [
            (["verify", "--n", "2", "--rho", "3/2", "--c", "1/3"], "verify_report", 1),
            (["sweep", "--n", "2", "--rho-grid", "1,5/3", "--c-grid", "0,2/7"], "sweep_rows", 4),
            (["einstein", "--n", "2", "--rho", "3/2", "--c", "1/3"], "einstein_report", 1),
        ],
    )
    def test_main_runs_the_report_function_bound_now_once_per_point(
        self, capsys, monkeypatch, argv, name, count
    ):
        # rebinding the name in the cli module after import is seen, as a
        # tracer that wraps the report functions needs
        calls = count_calls(monkeypatch, name)
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert calls == {name: count}

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_leaves_are_taken_for_csv_only(self, capsys, monkeypatch, command):
        calls = count_calls(monkeypatch, "_leaves")
        argv = [command, "--n", "2"]
        argv += ["--rho", "1", "--c", "0"] if command == "verify" else []
        for fmt in ("text", "json"):
            assert run(capsys, *argv, "--format", fmt)[0] == 0
        assert calls == {"_leaves": 0}
        assert run(capsys, *argv, "--format", "csv")[0] == 0
        assert calls["_leaves"] > 0


def assert_module_not_loaded(argv: list, module: str):
    script = (
        "import sys\n"
        "from solvsoliton import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        f"assert {module!r} not in sys.modules, '{module} was imported'\n"
    )
    src = str(Path(solvsoliton.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_exact_commands_do_not_load_numpy():
    assert_module_not_loaded(["verify", "--n", "1", "--rho", "1", "--c", "0"], "numpy")


@pytest.mark.parametrize(
    "argv, module",
    [
        (["verify", "--n", "2", "--rho", "1", "--c", "0", "--format", "json"], "dataclasses"),
        (["verify", "--n", "2", "--rho", "1", "--c", "0", "--format", "json"], "inspect"),
        (["verify", "--n", "2", "--rho", "1", "--c", "0", "--format", "json"], "csv"),
        (["sweep", "--n", "2", "--rho-grid", "1", "--c-grid", "0,1", "--format", "csv"], "json"),
    ],
)
def test_exact_commands_load_only_what_they_use(argv, module):
    assert_module_not_loaded(argv, module)


@pytest.mark.parametrize("module", ["argparse", "gettext", "locale", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "2", "--rho", "1", "--c", "0", "--format", "json"],
        ["einstein", "--n", "2", "--rho", "1", "--c", "0", "--format", "json"],
        ["sweep", "--n", "2", "--rho-grid", "1", "--c-grid", "0,1", "--format", "csv"],
    ],
)
def test_commands_load_no_parser_or_json_module(argv, module):
    assert_module_not_loaded(argv, module)


def test_importing_the_cli_loads_no_argparse():
    src = str(Path(solvsoliton.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, solvsoliton.cli; print('argparse' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.stdout == "False\n", proc.stderr


def test_einstein_does_not_load_numpy():
    argv = ["einstein", "--n", "4", "--rho", "11/13", "--c", "9/14", "--format", "json"]
    assert_module_not_loaded(argv, "numpy")


# ---------------------------------------------------------------------------
# property tests over random instances
# ---------------------------------------------------------------------------

# Fields whose strings are labels, not exact numbers.
LABEL_KEYS = frozenset({"status", "predicted_status", "lambda_source"})


def main_captured(argv: list):
    """(exit code, stdout, stderr) of an in-process ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def exact_strings(payload, key=None):
    """Every string of a report outside the label fields."""
    if isinstance(payload, dict):
        for k, v in payload.items():
            yield from exact_strings(v, k)
    elif isinstance(payload, list):
        for v in payload:
            yield from exact_strings(v, key)
    elif isinstance(payload, str) and key not in LABEL_KEYS:
        yield payload


rationals = st.builds(Fraction, st.integers(1, 4095), st.integers(1, 4095))


class TestVerifyProperties:
    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(
        st.integers(1, 4),
        rationals,
        st.one_of(st.just(Fraction(0)), rationals),
    )
    def test_verify_agrees_and_round_trips(self, n, rho, c):
        argv = ["verify", "--n", str(n), f"--rho={rho}", f"--c={c}", "--format", "json"]
        code, out, err = main_captured(argv)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["checks"]["checkers_agree"] is True
        assert report["status"] == report["predicted_status"]
        strings = list(exact_strings(report))
        assert {report["params"]["rho"], report["params"]["c"]} <= set(strings)
        for text in strings:
            assert str(Fraction(text)) == text

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(
        st.integers(1, 4),
        rationals,
        st.one_of(st.just(Fraction(0)), rationals.map(lambda x: -x)),
        rationals.map(lambda x: -x),
        st.booleans(),
    )
    def test_out_of_domain_exits_2_without_traceback(self, n, good, bad_rho, bad_c, rho_is_bad):
        rho, c = (bad_rho, good) if rho_is_bad else (good, bad_c)
        argv = ["verify", "--n", str(n), f"--rho={rho}", f"--c={c}", "--format", "json"]
        code, out, err = main_captured(argv)
        assert code == 2 and out == ""
        assert err.startswith("parameter error") and "Traceback" not in err


# ---------------------------------------------------------------------------
# the process exit path
# ---------------------------------------------------------------------------


def test_main_leaves_the_collector_as_it_was(capsys):
    before = (gc.isenabled(), gc.get_freeze_count())
    run(capsys, "verify", "--n", "2", "--rho", "11/13", "--c", "0", "--format", "json")
    run(capsys, "sweep", "--n", "2", "--rho-grid", "1", "--c-grid", "0,1", "--format", "csv")
    assert (gc.isenabled(), gc.get_freeze_count()) == before


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int string digit limit"
)
class TestIntStringDigitLimit:
    """Exact values longer than Python's default 4,300-digit limit for int
    to string conversion print in full, and literals that long parse."""

    def test_ricci_past_the_limit_exits_0_and_restores_the_limit(self, capsys):
        before = sys.get_int_max_str_digits()
        code, out, _ = run(
            capsys, "ricci", "--n", "2", "--rho", "1e-1100", "--c", "1", "--format", "json"
        )
        assert code == 0
        assert Fraction(json.loads(out)["params"]["rho"]) == Fraction("1e-1100")
        assert sys.get_int_max_str_digits() == before

    def test_a_literal_past_the_limit_parses(self, capsys):
        rho = "7" * 5000
        code, out, _ = run(
            capsys, "spectrum", "--n", "1", "--rho", rho, "--c", "0", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["params"]["rho"] == rho


def module_run(argv: list):
    src = str(Path(solvsoliton.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "solvsoliton.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "--n", "3", "--rho", "11/13", "--c", "9/14", "--format", "json"], 0),
        (["sweep", "--n", "2", "--rho-grid", "1,5/3", "--c-grid", "0,9/14", "--format", "csv"], 0),
        (["einstein", "--n", "2", "--rho", "11/13", "--c", "9/14", "--format", "text"], 0),
        # the float residual at this scale exceeds its tolerance
        (["einstein", "--n", "4", "--rho", "1e10", "--c", "1e10", "--format", "json"], 1),
        (["verify", "--n", "2", "--rho", "0", "--c", "1"], 2),
        (["verify", "--n", "2"], 2),  # usage error
    ],
)
def test_module_entry_matches_in_process_main(capsys, argv, code):
    proc = module_run(argv)
    got = run(capsys, *argv)
    assert proc.returncode == got[0] == code
    assert proc.stdout == got[1].encode()
    assert proc.stderr == got[2].encode()


def test_module_entry_writes_the_same_output_file(capsys, tmp_path):
    argv = ["soliton", "--n", "2", "--rho", "5/3", "--c", "0", "--format", "json"]
    proc = module_run([*argv, "--output", str(tmp_path / "module.json")])
    code = main([*argv, "--output", str(tmp_path / "main.json")])
    assert proc.returncode == code == 0 and proc.stdout == b""
    assert (tmp_path / "module.json").read_bytes() == (tmp_path / "main.json").read_bytes()


def test_run_freezes_only_on_the_way_out():
    script = (
        "import gc, sys\n"
        "from solvsoliton import cli\n"
        "cli.main = lambda: print(gc.get_freeze_count()) or 1\n"
        "try:\n"
        "    cli.run()\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, gc.get_freeze_count() > 0)\n"
    )
    src = str(Path(solvsoliton.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.stdout.split() == ["0", "1", "True"]


CORRUPTED_RUN = """\
import sys
from solvsoliton import cli, family
from solvsoliton.lie_core import StructureConstants
from solvsoliton.linalg import Matrix

build_lie_algebra, build_gram = family.build_lie_algebra, family.build_gram


def flipped(triple):  # one structure constant negated breaks Jacobi
    def build(n):
        triples = build_lie_algebra(n).triples()
        triples = [(i, j, k, -v if (i, j, k) == triple else v) for i, j, k, v in triples]
        return StructureConstants.from_triples(4 * n - 1, triples)

    return build


def skewed(p):  # B1R no longer orthogonal to e0
    G = build_gram(p)
    rows = [[G[i, j] for j in range(G.cols)] for i in range(G.rows)]
    rows[0][2] = rows[2][0] = G[2, 2] / 1000
    return Matrix(rows)


mutant = sys.argv.pop(1)
if mutant == "flip":  # the e0 part of [B1I, f0]
    family.build_lie_algebra = flipped((1, 5, 2))
elif mutant == "zflip":  # [e0, f0] = Z, which leaves the Ricci endomorphism as it is
    family.build_lie_algebra = flipped((2, 3, 6))
else:
    family.build_gram = skewed
cli.run()
"""


@pytest.mark.parametrize(
    "mutant, command, failed",
    [
        ("flip", "verify", ("checks", "jacobi")),
        ("flip", "soliton", ("checklist", "status")),
        ("flip", "ricci", ("agreement", "koszul_vs_closed_form")),
        ("skew", "verify", ("checks", "splitting", "a_orthogonal_to_n")),
        ("skew", "soliton", ("checklist", "status")),
        ("skew", "ricci", ("agreement", "koszul_vs_coordinates")),
        ("zflip", "soliton", ("jacobi",)),
        ("zflip", "ricci", ("jacobi",)),
    ],
)
def test_a_corrupted_builder_exits_1_with_its_report(mutant, command, failed):
    # a builder that no longer builds the family fails a check of the
    # report, through the process entry point, and ends in no traceback
    argv = [command, "--n", "2", "--rho", "11/13", "--c", "9/14", "--format", "json"]
    src = str(Path(solvsoliton.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", CORRUPTED_RUN, mutant, *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (1, "")
    value = json.loads(proc.stdout)
    for key in failed:
        value = value[key]
    assert value in (False, "not_checked")


# ---------------------------------------------------------------------------
# the front end: option syntax, usage errors, help
# ---------------------------------------------------------------------------

INSTANCE = ["--n", "2", "--rho", "11/13", "--c", "9/14"]


def both_entries(capsys, argv: list):
    """(code, stdout, stderr) of ``main``, checked equal to the module entry's."""
    proc = module_run(argv)
    got = run(capsys, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        got[0],
        got[1].encode(),
        got[2].encode(),
    )
    return got


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param([], id="no-command"),
        pytest.param(["frobnicate", *INSTANCE], id="unknown-command"),
        pytest.param(["verify", *INSTANCE, "--bogus", "1"], id="unknown-option"),
        pytest.param(["verify", *INSTANCE, "--format"], id="option-without-value"),
        pytest.param(["verify", "--rho", "--c", "0", "--n", "2"], id="value-is-an-option"),
        pytest.param(["verify", "--n", "x", "--rho", "1", "--c", "0"], id="n-not-an-int"),
        pytest.param(["verify", *INSTANCE, "--format", "xml"], id="unknown-format"),
        pytest.param(["verify", "--n", "2", "--c", "0"], id="missing-rho"),
        pytest.param(["verify", *INSTANCE, "extra"], id="stray-argument"),
        pytest.param(["verify", "--form", "json", *INSTANCE], id="abbreviated-option"),
    ],
)
def test_usage_errors_exit_2_with_usage_and_error_lines(capsys, argv):
    code, out, err = both_entries(capsys, argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("usage: solvsoliton")
    assert lines[1].startswith("solvsoliton: error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["verify", "--n", "2", "--c", "0"], "the following arguments are required: --rho"),
        (["verify", *INSTANCE, "--format", "xml"], "argument --format: invalid choice: 'xml'"),
        (["verify", "--n", "x", "--rho", "1", "--c", "0"], "argument --n: invalid int value: 'x'"),
        (["verify", *INSTANCE, "--format"], "argument --format: expected one argument"),
        (["verify", "--rho", "--c", "0", "--n", "2"], "argument --rho: expected one argument"),
    ],
)
def test_usage_error_names_the_fault(capsys, argv, expected):
    _, _, err = run(capsys, *argv)
    assert expected in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "3", "--rho", "11/13", "--c", "9/14", "--format", "json"],
        ["sweep", "--n", "3", "--rho-grid", "1,5/3", "--c-grid", "0,9/14", "--format", "csv"],
    ],
)
def test_equals_form_gives_the_same_bytes(capsys, argv):
    joined = [argv[0]] + [f"{k}={v}" for k, v in zip(argv[1::2], argv[2::2])]
    assert both_entries(capsys, joined) == run(capsys, *argv)
    assert run(capsys, *joined)[0] == 0


def test_the_last_repeat_wins(capsys):
    argv = ["verify", "--n", "5", *INSTANCE, "--format", "text", "--format", "json"]
    assert run(capsys, *argv) == run(capsys, "verify", *INSTANCE, "--format", "json")


def test_negative_number_is_a_value(capsys):
    code, out, err = run(capsys, "verify", "--n", "2", "--rho", "1", "--c", "-1/2")
    assert code == 2 and out == ""
    assert err == "parameter error: need n >= 1, rho > 0, c >= 0\n"


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize(
    "command", [None, "verify", "ricci", "soliton", "spectrum", "einstein", "sweep"]
)
def test_help_exits_0(capsys, command, flag):
    argv = [flag] if command is None else [command, "--n", "2", flag]
    code, out, err = both_entries(capsys, argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: solvsoliton ")
    if command is None:
        assert all(name in out for name in cli.COMMANDS)
    else:
        assert "--format {text,json,csv}" in out
        if command == "sweep":
            assert "--rho-grid RHO_GRID" in out and "--c-grid C_GRID" in out
            assert "--rho RHO" not in out and "--c C" not in out
        else:
            assert "--rho RHO" in out and "--c C" in out


# ---------------------------------------------------------------------------
# the JSON writer against the standard library
# ---------------------------------------------------------------------------

json_strings = st.text(
    alphabet=st.one_of(
        st.characters(),
        st.sampled_from('"\\/\x00\x08\x0c\x1f\x7f\x80\xe9\u2028\ud800\udfff\U0001f600\U0010ffff'),
    )
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), json_strings),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(json_strings, inner, max_size=4)
    ),
    max_leaves=24,
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(json_values)
def test_json_writer_equals_the_standard_library(value):
    assert cli._render_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, {"a": {2}}, Fraction(1, 2)])
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._render_json(value)

