"""Command-line front end.

Subcommands: ``verify`` (full consistency run for one instance), ``ricci``,
``soliton``, ``spectrum``, ``sweep`` (tabulate a parameter grid), and
``einstein`` (numeric ambient checks).  Each command is one function of a
point, returning its report and whether it passes; it runs over the (rho, c)
points rho-major, a single instance being a one-point grid.  Exit codes: 0
all checks pass, 1 a mathematical check failed at some point, 2 usage,
parameter or output error.  Exact strings are authoritative; decimal columns
are 12-significant-digit approximations.
"""

from __future__ import annotations

import gc
import io
import os
import sys
from fractions import Fraction
from math import isqrt

from . import family, hypersurface
from .lie_core import check_jacobi, verify_splitting
from .metric_lie import MetricLieAlgebra, soliton_check_direct, soliton_check_lauret

__all__ = ["main", "run"]

DEFAULT_MAX_N = 16
EINSTEIN_MAX_N = 8


def _approx(x) -> str:
    return f"{float(x):.12g}"


def _exact(x) -> str:
    return "" if x is None else str(x)


def _root_multiple(x, q) -> tuple:
    """(exact string, 12-digit approximation) of x*sqrt(q) for a rational x
    and an integer q, both None when x is None; the exact string is str(x)
    when x = 0 or q = 1, else "0 + x*sqrt(q)"."""
    if x is None:
        return None, None
    if not x or q == 1:
        return str(x), _approx(x)
    try:
        value = float(x) * float(q) ** 0.5
    except OverflowError:  # q >= 2^1024, so isqrt errs by 2^-512 at most
        value = x * isqrt(q)
    return f"0 + {x}*sqrt({q})", _approx(value)


def _max_n() -> int:
    value = os.environ.get("SOLV_MAX_N", DEFAULT_MAX_N)
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"SOLV_MAX_N must be an integer, not {value!r}") from None


# ---------------------------------------------------------------------------
# per-instance computations
# ---------------------------------------------------------------------------


def _ricci_agreement(p: family.FamilyParams, M: MetricLieAlgebra) -> dict:
    """Whether the Koszul Ricci endomorphism ``M.ric`` equals the closed
    form, and whether the evaluation map P intertwines it with the
    coordinate route: P ric = ric_coords P.  P is None, and the second
    agreement false, unless P^T G_frame P = G; then P is invertible, as G is
    positive definite, so the intertwining holds exactly when
    ric = P^{-1} ric_coords P, and P is never inverted."""
    P = family.build_embedding(p, M.G)
    coords = hypersurface.ricci_endomorphism_coords(p)
    return {
        "koszul_vs_closed_form": M.ric == family.expected_ric_matrix(p),
        "koszul_vs_coordinates": P is not None and P @ M.ric == coords @ P,
    }


def _soliton_pair(p: family.FamilyParams, M: MetricLieAlgebra):
    """(splitting report, direct verdict, checklist verdict): the report and
    the direct verdict are computed once and handed to the checklist."""
    a = family.family_splitting(p.n)
    report = verify_splitting(M.L, a, M.G)
    direct = soliton_check_direct(M)
    return report, direct, soliton_check_lauret(M, a, report, direct)


def _verdict_strings(verdict: dict) -> dict:
    """A soliton verdict as reports print it, its keys in their order:
    lambda by ``str``, D and the witness by their exact entry strings."""
    lam, D, witness = verdict["lambda"], verdict["D"], verdict["witness"]
    return {
        **verdict,
        "lambda": None if lam is None else str(lam),
        "D": None if D is None else D.to_strings(),
        "witness": None if witness is None else witness.to_strings(),
    }


def _principal_ricci(p: family.FamilyParams) -> tuple:
    """(r1, r2, r3, r4), each None on an empty slice block (r1 and r4 at
    n = 1)."""
    r = family.ricci_eigenvalue_formulas(p.n, p.rho, p.c)
    return tuple(x if m else None for x, m in zip(r, family.slice_multiplicities(p.n)))


def _delta_multiple(p: family.FamilyParams, D):
    """Coefficient k with D = k * delta, or None."""
    if D is None:
        return None
    delta = family.build_delta(p.n)
    first = min(((i, j) for i, row in enumerate(delta.table) for j in row), default=None)
    if first is None:
        return None
    k = D[first] / delta[first]
    return k if D == delta.scale(k) else None


def verify_report(p: family.FamilyParams) -> tuple:
    M = family.metric_algebra(p)
    jacobi_ok, _ = check_jacobi(M.L)
    splitting, direct, checklist = _soliton_pair(p, M)
    ricci_ok = all(_ricci_agreement(p, M).values())
    trace_ok = hypersurface.trace_identity_check(p)
    agree = direct["status"] == checklist["status"]
    status = family.classify_status(p.n, direct["status"])
    shown = _verdict_strings(direct)
    predicted = family.predicted_status(p.n, p.c)
    checks_ok = jacobi_ok and all(splitting.values()) and ricci_ok and trace_ok and agree
    ok = bool(checks_ok and status == predicted)
    report = {
        "params": {"n": p.n, "rho": str(p.rho), "c": str(p.c)},
        "checks": {
            "jacobi": jacobi_ok,
            "splitting": splitting,
            "ricci_three_way": ricci_ok,
            "trace_identity": trace_ok,
            "checkers_agree": agree,
        },
        "soliton_direct": shown,
        "soliton_checklist": _verdict_strings(checklist),
        "status": status,
        "predicted_status": predicted,
        "status_matches_prediction": status == predicted,
        "lambda": shown["lambda"],
        "delta_multiple": _exact(_delta_multiple(p, direct["D"])) or None,
        "ok": ok,
    }
    return report, ok


def spectrum_report(p: family.FamilyParams) -> tuple:
    r = _principal_ricci(p)
    sigma, trace, q = hypersurface.shape_operator(p)
    shown = [_root_multiple(s, q) for s in sigma]
    trace_exact, trace_approx = _root_multiple(trace, q)
    mult = list(family.slice_multiplicities(p.n))
    report = {
        "params": {"n": p.n, "rho": str(p.rho), "c": str(p.c)},
        "sigma": [exact for exact, _ in shown],
        "sigma_approx": [approx for _, approx in shown],
        "sigma_multiplicities": mult,
        "trace_shape": trace_exact,
        "trace_shape_approx": trace_approx,
        "r": [_exact(x) or None for x in r],
        "r_approx": [None if x is None else _approx(x) for x in r],
        "r_multiplicities": mult,
        "note": "decimal fields are 12-digit approximations; exact strings are authoritative",
    }
    return report, True


def ricci_report(p: family.FamilyParams) -> tuple:
    M = family.metric_algebra(p)
    jacobi_ok, _ = check_jacobi(M.L)
    agreement = _ricci_agreement(p, M)
    report = {
        "params": {"n": p.n, "rho": str(p.rho), "c": str(p.c)},
        "jacobi": jacobi_ok,
        "ricci_endomorphism": M.ric.to_strings(),
        "agreement": agreement,
        "principal_curvatures": [_exact(r) or None for r in _principal_ricci(p)],
        "trace_identity": hypersurface.trace_identity_check(p),
    }
    return report, jacobi_ok and all(agreement.values()) and report["trace_identity"]


def soliton_report(p: family.FamilyParams) -> tuple:
    M = family.metric_algebra(p)
    jacobi_ok, _ = check_jacobi(M.L)
    _, direct, checklist = _soliton_pair(p, M)
    report = {
        "params": {"n": p.n, "rho": str(p.rho), "c": str(p.c)},
        "jacobi": jacobi_ok,
        "direct": _verdict_strings(direct),
        "checklist": _verdict_strings(checklist),
        "status": family.classify_status(p.n, direct["status"]),
        "delta_multiple": _exact(_delta_multiple(p, direct["D"])) or None,
    }
    return report, jacobi_ok and direct["status"] == checklist["status"]


def sweep_rows(p: family.FamilyParams) -> tuple:
    """One flat row of the sweep table at p; it passes when its status is
    the predicted one."""
    sigma, trace, q = hypersurface.shape_operator(p)
    direct = soliton_check_direct(family.metric_algebra(p))
    row = {
        "n": p.n,
        "rho": str(p.rho),
        "c": str(p.c),
        "status": family.classify_status(p.n, direct["status"]),
        "lambda": _exact(direct["lambda"]),
    }
    for i, s in enumerate(sigma, start=1):
        exact, approx = _root_multiple(s, q)
        row[f"sigma{i}"] = exact or ""
        row[f"sigma{i}_approx"] = approx or ""
    for i, r in enumerate(_principal_ricci(p), start=1):
        row[f"r{i}"] = _exact(r)
        row[f"r{i}_approx"] = "" if r is None else _approx(r)
    row["trace_shape"] = _root_multiple(trace, q)[0]
    return row, row["status"] == family.predicted_status(p.n, p.c)


def einstein_report(p: family.FamilyParams) -> tuple:
    """The report of :func:`coord_engine.einstein_check`, whether it passes,
    and the CSV rows of its residuals at 12 digits.  A ValueError if the
    float metric at the point is not finite or not invertible."""
    from .coord_engine import einstein_check

    residuals, gram_err, eigenvalue_err, ok = einstein_check(p)
    report = {
        "params": {"n": p.n, "rho": str(p.rho), "c": str(p.c)},
        "einstein_constant": family.einstein_constant(p.n),
        "residuals": {k: f"{v:.6e}" for k, v in residuals.items()},
        "max_residual": f"{max(residuals.values()):.6e}",
        "induced_gram_error": f"{gram_err:.6e}",
        "induced_eigenvalue_error": f"{eigenvalue_err:.6e}",
        "ok": ok,
    }
    return report, ok, [{"point": k, "residual": f"{v:.12e}"} for k, v in residuals.items()]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


_JSON_ESCAPES = {
    '"': '\\"',
    "\\": "\\\\",
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
    "\b": "\\b",
    "\f": "\\f",
}


def _json_string(text: str) -> str:
    """A JSON string literal with every character outside printable ASCII
    escaped, as ``json.dumps`` with ``ensure_ascii`` writes it."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    out = []
    for ch in text:
        code = ord(ch)
        if ch in _JSON_ESCAPES:
            out.append(_JSON_ESCAPES[ch])
        elif 0x20 <= code < 0x7F:
            out.append(ch)
        elif code > 0xFFFF:  # a surrogate pair
            code -= 0x10000
            out.append(f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}")
        else:
            out.append(f"\\u{code:04x}")
    return '"' + "".join(out) + '"'


def _json_value(value, pad: str) -> str:
    """``value`` in the canonical form of ``json.dumps(value,
    sort_keys=True, indent=2)``, its nested lines indented past ``pad``.
    Reports hold dicts with string keys, lists, strings, ints, bools and
    None; anything else raises TypeError."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{inner}{_json_string(key)}: {_json_value(value[key], inner)}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        items = [inner + _json_value(item, inner) for item in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render_json(payload) -> str:
    return _json_value(payload, "") + "\n"


def _is_matrix(value) -> bool:
    return (
        isinstance(value, list)
        and value
        and all(isinstance(row, list) for row in value)
    )


def _render_text(payload, indent=0) -> str:
    pad = "  " * indent
    lines = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            if _is_matrix(value):
                lines.append(f"{pad}{key}:")
                for row in value:
                    lines.append("  " * (indent + 1) + "[" + ", ".join(map(str, row)) + "]")
            elif isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                lines.append(_render_text(value, indent))
            else:
                lines.append(f"{pad}- {value}")
    else:
        lines.append(f"{pad}{payload}")
    return "\n".join(line for line in lines if line)


def _leaves(value, path: str = "", out: dict | None = None) -> dict:
    """{dotted path: leaf} of a report, list positions counted from 1, in
    document order; a top-level scalar keeps its key as its name."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for key, item in value.items():
            _leaves(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for i, item in enumerate(value, start=1):
            _leaves(item, f"{path}.{i}", out)
    else:
        out[path] = value
    return out


def _render_csv(rows: list) -> str:
    if not rows:
        return ""
    import csv

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\r\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, output: str | None):
    """Write the report, ended by one newline, to ``output`` or stdout: the
    file gets the bytes that stdout would."""
    if not text.endswith("\n"):
        text += "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


PROG = "solvsoliton"
DESCRIPTION = (
    "Exact curvature and Ricci-soliton certification for the one-loop "
    "deformed solvable family."
)
COMMANDS = {
    "verify": "full consistency run for one instance",
    "ricci": "Ricci endomorphism and the agreement of its three routes",
    "soliton": "both soliton decision procedures",
    "spectrum": "shape and Ricci spectra",
    "einstein": "numeric ambient Einstein check",
    "sweep": "one row per point of a rho x c grid",
}
FORMATS = ("text", "json", "csv")
REQUIRED = None  # the default of an option that must be given

# Per command, each option's default (REQUIRED when it must be given),
# metavar and help line.
_N = ("--n", REQUIRED, "N", "rank parameter n >= 1")
_OUTPUT = (
    ("--format", "text", "{text,json,csv}", "report format (default: text)"),
    ("--output", "", "OUTPUT", "write the report to a file"),
)
_INSTANCE = (
    _N,
    ("--rho", REQUIRED, "RHO", "rational, e.g. 5/2"),
    ("--c", REQUIRED, "C", "rational >= 0"),
    *_OUTPUT,
)
OPTIONS = {name: _INSTANCE for name in COMMANDS}
OPTIONS["sweep"] = (
    _N,
    ("--rho-grid", "1", "RHO_GRID", "comma-separated rationals (default: 1)"),
    ("--c-grid", "0", "C_GRID", "comma-separated rationals >= 0 (default: 0)"),
    *_OUTPUT,
)


class _Exit(Exception):
    """Stop parsing: help text (code 0, for stdout) or a usage error
    (code 2, for stderr)."""

    def __init__(self, code: int, text: str):
        super().__init__(text)
        self.code = code
        self.text = text


def _usage(command) -> str:
    if command is None:
        return f"usage: {PROG} [-h] {{{','.join(COMMANDS)}}} ...\n"
    parts = [f"usage: {PROG} {command} [-h]"]
    for name, default, metavar, _ in OPTIONS[command]:
        parts.append(f"{name} {metavar}" if default is REQUIRED else f"[{name} {metavar}]")
    return " ".join(parts) + "\n"


def _help(command) -> str:
    if command is None:
        rows = list(COMMANDS.items())
        heading = f"\n{DESCRIPTION}\n\ncommands:\n"
        tail = f"\nRun '{PROG} COMMAND -h' for the options of a command.\n"
    else:
        rows = [("-h, --help", "show this help message and exit")]
        rows += [(f"{name} {metavar}", text) for name, _, metavar, text in OPTIONS[command]]
        heading = f"\n{COMMANDS[command]}\n\noptions:\n"
        tail = ""
    width = max(len(left) for left, _ in rows) + 2
    body = "".join(f"  {left.ljust(width)}{text}\n" for left, text in rows)
    return _usage(command) + heading + body + tail


def _error(command, message: str):
    return _Exit(2, f"{_usage(command)}{PROG}: error: {message}\n")


def _is_option(token: str) -> bool:
    """Whether a token names an option rather than a value; a negative
    number such as -1 or -.5 is a value."""
    return token[:1] == "-" and token != "-" and not (token[1:2].isdigit() or token[1:2] == ".")


def _parse_options(argv) -> tuple:
    """(command, {option: text}) for ``argv``, with every default filled
    in.  Options take ``--opt value`` or ``--opt=value``, the last repeat
    wins, and -h/--help anywhere asks for help."""
    if not argv:
        raise _error(None, "the following arguments are required: command")
    command, rest = argv[0], argv[1:]
    if command in ("-h", "--help"):
        raise _Exit(0, _help(None))
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        raise _error(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    table = {name: default for name, default, _, _ in OPTIONS[command]}
    given: dict = {}
    i = 0
    while i < len(rest):
        token = rest[i]
        i += 1
        if token in ("-h", "--help"):
            raise _Exit(0, _help(command))
        name, eq, value = token.partition("=")
        if name not in table:
            raise _error(command, f"unrecognized arguments: {token}")
        if not eq:
            if i == len(rest) or _is_option(rest[i]):
                raise _error(command, f"argument {name}: expected one argument")
            value = rest[i]
            i += 1
        given[name] = value
    missing = [name for name, default in table.items() if default is REQUIRED and name not in given]
    if missing:
        raise _error(command, "the following arguments are required: " + ", ".join(missing))
    return command, {**table, **given}


class _Config:
    """A parsed command line: ``rhos`` and ``cs`` are the exact rationals a
    run uses, one each for a single instance and the grids for ``sweep``."""

    __slots__ = ("command", "n", "rhos", "cs", "format", "output")


def _parse_config(argv) -> _Config:
    command, opts = _parse_options(list(argv))
    cfg = _Config()
    cfg.command = command
    try:
        cfg.n = int(opts["--n"])
    except ValueError:
        raise _error(command, f"argument --n: invalid int value: {opts['--n']!r}") from None
    cfg.format = opts["--format"]
    if cfg.format not in FORMATS:
        choices = ", ".join(map(repr, FORMATS))
        raise _error(
            command, f"argument --format: invalid choice: {cfg.format!r} (choose from {choices})"
        )
    cfg.output = opts["--output"] or None

    def value(option, text):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"{option}: zero denominator in {text.strip()!r}") from None
        except ValueError:
            raise ValueError(f"{option}: invalid rational {text.strip()!r}") from None

    def values(option):  # a grid's parts, or an instance's one value
        parts = opts[option].split(",") if option.endswith("-grid") else [opts[option]]
        return [value(option, part) for part in parts]

    suffix = "-grid" if command == "sweep" else ""
    cfg.rhos = values("--rho" + suffix)
    cfg.cs = values("--c" + suffix)
    return cfg


def main(argv=None) -> int:
    """Run one command and return its exit code.  Exact values outgrow
    Python's 4,300-digit limit on int-string conversion, so it is lifted
    for the call."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python before 3.10.7
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv) -> int:
    try:
        cfg = _parse_config(sys.argv[1:] if argv is None else argv)
    except _Exit as exc:  # help, or a usage error
        (sys.stdout if exc.code == 0 else sys.stderr).write(exc.text)
        return exc.code
    except ValueError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2

    # looked up per call, so that a report function rebound in this module is the one run
    run_point = {
        "verify": verify_report,
        "ricci": ricci_report,
        "soliton": soliton_report,
        "spectrum": spectrum_report,
        "sweep": sweep_rows,
        "einstein": einstein_report,
    }[cfg.command]
    try:
        outside = min(cfg.rhos) <= 0 or min(cfg.cs) < 0
        if cfg.n < 1 or (outside and cfg.command != "sweep"):
            raise ValueError("need n >= 1, rho > 0, c >= 0")
        if outside:
            raise ValueError("need rho > 0, c >= 0 at every grid point")
        if cfg.command == "einstein":
            if cfg.n > EINSTEIN_MAX_N:
                print(
                    f"einstein check refused: n={cfg.n} exceeds the cost guard "
                    f"(max {EINSTEIN_MAX_N})",
                    file=sys.stderr,
                )
                return 2
        elif cfg.n > _max_n():
            print(
                f"n={cfg.n} exceeds SOLV_MAX_N={_max_n()} for the exact path",
                file=sys.stderr,
            )
            return 2
        points = [family.FamilyParams(cfg.n, rho, c) for rho in cfg.rhos for c in cfg.cs]
        results = []
        if cfg.command == "einstein":  # the float engine refuses what it cannot evaluate
            results = [run_point(p) for p in points]
    except ValueError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    if not results:  # on the exact path a ValueError is a defect, not bad input
        results = [run_point(p) for p in points]

    reports = [result[0] for result in results]
    if cfg.format == "json":
        text = _render_json(reports if cfg.command == "sweep" else reports[0])
    elif cfg.format == "csv":  # einstein tabulates its residuals, the rest their leaves
        rows = results[0][2] if cfg.command == "einstein" else list(map(_leaves, reports))
        text = _render_csv(rows)
    else:
        text = "\n\n".join(map(_render_text, reports))

    try:
        _emit(text, cfg.output)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(result[1] for result in results) else 1


def run():
    """Process entry point, for ``python -m solvsoliton.cli`` and the
    ``solvsoliton`` script: exit with :func:`main`'s code.  Freezing the heap
    first spares the interpreter's final collections a walk over every
    object left from start-up; in-process callers of :func:`main` keep
    their collector as it was."""
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
