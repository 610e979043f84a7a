"""Smoke tests of the benchmark itself, at minimal sizes.

    python3 perfbench/smoke.py        (or: python3 -m pytest perfbench/smoke.py)

They show that a tampered output and a timed-out request are each counted as
failed requests, that the tracer leaves return values and output bytes
unchanged, and that the metric names agree with BENCHMARK.json.  The file
name keeps them out of the repository's default pytest collection, so the
benchmark's subprocess load never runs next to the wall-clock-limited
acceptance tests.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402
from trace_child import Tracer, max_bits  # noqa: E402

# Runs the real CLI in-process and rewrites its verdict before printing it.
TAMPERING_CLI = (
    sys.executable,
    "-c",
    "import contextlib, io, sys\n"
    "from solvsoliton import cli\n"
    "buf = io.StringIO()\n"
    "with contextlib.redirect_stdout(buf):\n"
    "    code = cli.main(sys.argv[1:])\n"
    "sys.stdout.write(buf.getvalue().replace('\"solvsoliton\"', '\"not_soliton\"'))\n"
    "raise SystemExit(code)\n",
)


def _verify_request(n=2, rho="3/2", c="0"):
    rho, c = Fraction(rho), Fraction(c)
    argv = ("verify", "--n", str(n), "--rho", str(rho), "--c", str(c), "--format", "json")
    return workloads.Request("verify", n, argv, (rho,), (c,))


def test_clean_output_passes_and_tampered_bytes_fail():
    request = _verify_request()
    outcome = runner.spawn((*runner.CLI, *request.argv))
    golden = {request.key: checks.digest(outcome.stdout)}
    assert checks.check_output(request, outcome.returncode, outcome.stdout, outcome.stderr, golden) is None
    changed = outcome.stdout.replace(b'"jacobi": true', b'"jacobi": true ')
    reason = checks.check_output(request, outcome.returncode, changed, outcome.stderr, golden)
    assert reason == "output differs from the recorded digest"


def test_wrong_verdicts_fail_without_trusting_the_program():
    request = _verify_request()
    report = {"params": {"n": 2, "rho": "3/2", "c": "0"}, "ok": True, "status": "not_soliton", "lambda": None}
    assert "status" in checks.check_output(request, 0, json.dumps(report).encode(), b"", {})
    report.update(status="solvsoliton", **{"lambda": "-7"})
    assert "lambda" in checks.check_output(request, 0, json.dumps(report).encode(), b"", {})
    report["lambda"] = "-8"
    assert checks.check_output(request, 0, json.dumps(report).encode(), b"", {}) is None
    assert checks.check_output(request, 1, json.dumps(report).encode(), b"", {}) == "exit code 1"
    assert checks.check_output(request, 0, b"", b"Traceback (most recent call last):", {}) is not None


def test_sweep_rows_are_checked_against_the_table():
    sweep = next(workloads.sweep_bigrat(0))
    lam = -2 * (sweep.n + 2)
    rows = [
        f"{sweep.n},{rho},{c},{checks.expected_status(sweep.n, c)},{lam if c == 0 else ''}"
        for rho in sweep.rho
        for c in sweep.c
    ]
    good = "n,rho,c,status,lambda\r\n" + "\r\n".join(rows) + "\r\n"
    assert checks.check_output(sweep, 0, good.encode(), b"", {}) is None
    bad = good.replace("not_soliton", "solvsoliton")
    assert "status" in checks.check_output(sweep, 0, bad.encode(), b"", {})
    bad = good.replace(f",solvsoliton,{lam}", f",solvsoliton,{lam + 1}")
    assert "lambda" in checks.check_output(sweep, 0, bad.encode(), b"", {})
    assert "rows" in checks.check_output(sweep, 0, good.rsplit("\r\n", 2)[0].encode(), b"", {})


def test_einstein_residual_bound_is_checked():
    request = next(workloads.einstein_points(0))
    assert checks.check_output(request, 0, b'{"ok": true, "max_residual": "3.1e-13"}', b"", {}) is None
    assert "max_residual" in checks.check_output(request, 0, b'{"ok": true, "max_residual": "2e-6"}', b"", {})


def test_tampered_output_is_a_failed_request():
    result = run.run_untraced("verify_ladder", 0, 0, {}, command=TAMPERING_CLI)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert result["notes"]["error_rate"] == 1.0
    assert json.loads(run.final_line(result, dict(run.END_TO_END)))["correct"] is False


def test_timed_out_request_is_a_failed_request():
    result = run.run_untraced("einstein_points", 0, 0, {}, timeout=0.01)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert result["metrics"]["throughput_per_s"] == 0


def test_spawn_kills_at_the_timeout():
    outcome = runner.spawn((sys.executable, "-c", "import time; time.sleep(30)"), timeout=0.2)
    assert outcome.timed_out
    assert outcome.returncode != 0
    assert outcome.seconds < 10


def test_tracer_returns_values_and_exceptions_unchanged():
    tracer = Tracer("t")
    sentinel = object()
    wrapped = tracer.wrap("family.toy", lambda x, y=1: (x, y, sentinel))
    assert wrapped(3, y=4) == (3, 4, sentinel)

    def boom():
        raise ValueError("kept")

    with pytest.raises(ValueError, match="kept"):
        tracer.wrap("family.boom", boom)()
    assert tracer.totals["family.toy"][0] == 1
    assert tracer.totals["family.boom"][0] == 1
    assert [s["name"] for s in tracer.spans] == ["family.toy", "family.boom"]


def test_max_bits_reads_nested_fractions():
    assert max_bits([{"a": (Fraction(1, 1023),)}, 5]) == 10
    assert max_bits("not a number") == 0


@pytest.mark.parametrize("argv", [
    ("verify", "--n", "2", "--rho", "3/2", "--c", "1/3", "--format", "json"),
    ("sweep", "--n", "2", "--rho-grid", "1,5/3", "--c-grid", "0,2/7", "--format", "csv"),
    ("einstein", "--n", "2", "--rho", "3/2", "--c", "1/3", "--format", "json"),
])
def test_traced_cli_writes_identical_bytes(argv):
    plain = runner.spawn((*runner.CLI, *argv))
    traced = runner.spawn((*runner.TRACED_CLI, "1", "--", *argv))
    stderr, summary = run.split_trace(traced.stderr)
    assert (plain.returncode, traced.returncode) == (0, 0)
    assert traced.stdout == plain.stdout
    assert b"Traceback" not in stderr
    assert summary["totals"]["cli.main"][0] == 1


def test_traced_verify_counts_match_the_known_call_structure():
    traced = runner.spawn((*runner.TRACED_CLI, "1", "--", *_verify_request(c="1/3").argv))
    _, summary = run.split_trace(traced.stderr)
    table = run.layer_table([summary], 1, 0.0, 0.0)
    assert table["lie_core.check_jacobi.calls"] == 2
    assert table["family.metric_algebra.calls"] == 2
    assert table["metric_lie.soliton_check_direct.calls"] == 3
    assert table["coord_engine.self_s"] == 0
    assert table["metric_lie.ricci_bilinear.max_bits"] > 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 41))
    value, pct = run.tail(samples)
    assert value == 30 and pct == 75.0
    assert sum(s > value for s in samples) == 10


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == list(workloads.WHY.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify_ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
