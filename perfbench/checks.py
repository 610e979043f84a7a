"""Output checks that do not rely on the program's own verdict.

Every request must exit 0 with no traceback on stderr.  On top of that:

* ``verify``: ``ok`` is true and ``status`` is the README's verdict for
  ``(n, c)``; at n > 1 with c = 0, lambda is -2(n+2).
* ``sweep``: one CSV row per grid point, in grid order, each with the README's
  verdict (the CLI never compares its rows with ``predicted_status``) and,
  at n > 1 with c = 0, lambda -2(n+2).
* ``einstein``: ``ok`` is true and ``max_residual`` parses below 1e-6.
* exact-path outputs (verify JSON, sweep CSV) whose argv is in ``golden.json``
  must hash to the recorded SHA-256, so a speed-up that changes a byte fails.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
EINSTEIN_TOLERANCE = 1e-6


def expected_status(n: int, c: Fraction) -> str:
    """The verdict table of the README."""
    if n == 1:
        return "nilsoliton"
    return "solvsoliton" if c == 0 else "not_soliton"


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def load_golden() -> dict:
    """argv key -> SHA-256 of the recorded stdout."""
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["digests"]


def _check_verify(request, text: str):
    report = json.loads(text)
    (rho,), (c,) = request.rho, request.c
    if report["params"] != {"n": request.n, "rho": str(rho), "c": str(c)}:
        return f"params echoed as {report['params']}"
    if report["ok"] is not True:
        return "ok is not true"
    want = expected_status(request.n, c)
    if report["status"] != want:
        return f"status {report['status']!r}, expected {want!r}"
    if want == "solvsoliton" and report["lambda"] != str(-2 * (request.n + 2)):
        return f"lambda {report['lambda']!r}, expected {-2 * (request.n + 2)}"
    return None


def _check_sweep(request, text: str):
    rows = list(csv.DictReader(io.StringIO(text)))
    grid = [(rho, c) for rho in request.rho for c in request.c]
    if len(rows) != len(grid):
        return f"{len(rows)} rows for a grid of {len(grid)}"
    for row, (rho, c) in zip(rows, grid):
        if (row["n"], row["rho"], row["c"]) != (str(request.n), str(rho), str(c)):
            return f"row for ({row['n']}, {row['rho']}, {row['c']}) out of grid order"
        want = expected_status(request.n, c)
        if row["status"] != want:
            return f"status {row['status']!r} at rho={rho}, c={c}, expected {want!r}"
        if want == "solvsoliton" and row["lambda"] != str(-2 * (request.n + 2)):
            return f"lambda {row['lambda']!r} at rho={rho}, c={c}, expected {-2 * (request.n + 2)}"
    return None


def _check_einstein(request, text: str):
    report = json.loads(text)
    if report["ok"] is not True:
        return "ok is not true"
    residual = float(report["max_residual"])
    if not residual < EINSTEIN_TOLERANCE:
        return f"max_residual {residual:g} not below {EINSTEIN_TOLERANCE:g}"
    return None


_CHECKS = {"verify": _check_verify, "sweep": _check_sweep, "einstein": _check_einstein}


def check_output(request, returncode: int, stdout: bytes, stderr: bytes, golden: dict):
    """None if the request's output is right, else a one-line reason."""
    if returncode != 0:
        return f"exit code {returncode}"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    try:
        reason = _CHECKS[request.command](request, stdout.decode("utf-8"))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable output: {exc!r}"
    if reason:
        return reason
    want = golden.get(request.key)
    if want is not None and digest(stdout) != want:
        return "output differs from the recorded digest"
    return None
