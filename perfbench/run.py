"""solvsoliton CLI benchmark: closed-loop workloads timed end to end, plus a
traced run that times every layer.

    python3 perfbench/run.py --workload verify_ladder --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40

One client sends one request at a time (a closed loop); each request is a
fresh ``python -m solvsoliton.cli`` process over the checkout's ``src`` tree,
so it pays interpreter start-up and the cold per-process caches exactly as a
CLI user does.  Every output is checked (``checks.py``); a timeout, nonzero
exit, traceback or wrong output is a failed request, and none is retried.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median time for a
fresh interpreter to import ``solvsoliton.cli`` and exit, sampled every few
seconds through the run), ``request_p50_s`` and ``request_tail_s`` (the
highest percentile with at least ten samples beyond it) over every attempted
request, ``throughput_per_s`` (parameter instances certified per second of
request time) and ``peak_rss_mb`` (largest child resident set).  The error
rate is printed too; in the JSON line it is ``failed / attempted``.  ``--trace 1`` runs each request
twice, untraced and then under ``trace_child.py``, and prints the per-layer
metrics per parameter instance, the share of request time outside
``cli.main`` and the tracing overhead.  ``--workload all`` runs every
workload both ways and prints one table.  The last line of stdout is always
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402
from trace_child import TRACE_MARKER  # noqa: E402

SETUP_EVERY_S = 3.0
SPANS_DIR = Path(__file__).resolve().parent / "out"

END_TO_END = (
    ("setup_s", "s"),
    ("request_p50_s", "s"),
    ("request_tail_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

LAYER_FUNCTIONS = {
    "scalars": ("surd",),
    "linalg": ("inverse", "is_positive_definite", "sparse_nullspace", "Matrix.__matmul__"),
    "lie_core": ("check_jacobi", "derivation_space", "verify_splitting", "killing_form"),
    "metric_lie": ("connection_coeffs", "ricci_bilinear", "soliton_check_direct", "soliton_check_lauret"),
    "family": ("build_lie_algebra", "build_gram", "metric_algebra", "build_embedding", "expected_closed_forms"),
    "hypersurface": ("shape_operator", "ricci_endomorphism_coords", "trace_identity_check"),
    "coord_engine": ("AmbientMetric.jets", "ricci_from_jets", "induced_consistency"),
    "cli": ("verify_report", "sweep_rows", "einstein_report", "main"),
}
BIT_METRICS = (
    "lie_core.derivation_space.max_bits",
    "metric_lie.connection_coeffs.max_bits",
    "metric_lie.ricci_bilinear.max_bits",
    "metric_lie.soliton_check_direct.max_bits",
    "hypersurface.shape_operator.max_bits",
    "scalars.surd.radicand_bits",
)


def per_layer_metrics() -> list:
    """(name, unit) of every per-layer metric, in table order."""
    names = []
    for module in LAYER_FUNCTIONS:
        names += [(f"{module}.self_s", "s"), (f"{module}.calls", "count")]
    for module, functions in LAYER_FUNCTIONS.items():
        for fn in functions:
            names += [(f"{module}.{fn}.self_s", "s"), (f"{module}.{fn}.calls", "count")]
    names += [(name, "bits") for name in BIT_METRICS]
    names += [("process.outside_s", "s"), ("trace.overhead_frac", "ratio")]
    return names


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail(samples: list):
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With ten samples or fewer no such percentile exists; the median stands in.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def metadata(workload: str, seed: int, seconds: int) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(runner.ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=runner.ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "workload": workload,
        "why": workloads.WHY[workload],
        "seed": seed,
        "seconds": seconds,
        "sizes": workloads.SIZES[workload],
        "request_timeout_s": runner.REQUEST_TIMEOUT_S,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "commit": commit,
    }


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def _fail(failures: list, request, reason: str):
    failures.append(reason)
    print(f"FAILED {request.key}: {reason}", file=sys.stderr)


def run_untraced(workload: str, seed: int, seconds: float, golden: dict, command=runner.CLI,
                 timeout: float = runner.REQUEST_TIMEOUT_S) -> dict:
    """Closed loop for ``seconds``; set-up is sampled every SETUP_EVERY_S in between."""
    runner.import_seconds()  # fills the bytecode cache, which a user pays once
    stream = workloads.WORKLOADS[workload](seed)
    setup, times, failures, rss_kb, certified = [], [], [], 0, 0
    clock = time.perf_counter
    start = clock()
    next_setup = start
    while not times or clock() < start + seconds:
        if clock() >= next_setup:
            setup.append(runner.import_seconds())
            next_setup = clock() + SETUP_EVERY_S
            continue
        request = next(stream)
        outcome = runner.spawn((*command, *request.argv), timeout=timeout)
        times.append(outcome.seconds)
        rss_kb = max(rss_kb, outcome.max_rss_kb)
        if outcome.timed_out:
            _fail(failures, request, f"timed out after {timeout:g} s")
            continue
        reason = checks.check_output(request, outcome.returncode, outcome.stdout, outcome.stderr, golden)
        if reason:
            _fail(failures, request, reason)
        else:
            certified += request.instances
    tail_value, tail_pct = tail(times)
    return {
        "attempted": len(times),
        "failed": len(failures),
        "metrics": {
            "setup_s": statistics.median(setup),
            "request_p50_s": statistics.median(times),
            "request_tail_s": tail_value,
            "throughput_per_s": certified / sum(times),
            "peak_rss_mb": rss_kb / 1024.0,
        },
        "notes": {
            "setup_samples": len(setup),
            "tail_percentile": tail_pct,
            "samples": len(times),
            "instances_certified": certified,
            "error_rate": len(failures) / len(times),
        },
    }


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------


def split_trace(stderr: bytes):
    """(stderr without the trace line, parsed trace summary or None)."""
    kept, summary = [], None
    marker = TRACE_MARKER.encode() + b" "
    for line in stderr.split(b"\n"):
        if line.startswith(marker):
            summary = json.loads(line[len(marker):])
        else:
            kept.append(line)
    return b"\n".join(kept).strip(b"\n"), summary


def layer_table(summaries: list, instances: int, outside_s: float, overhead: float) -> dict:
    """Per-instance self times and call counts per module and listed function."""
    totals = {}
    bits = {}
    for summary in summaries:
        for name, (calls, self_s) in summary["totals"].items():
            acc = totals.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for name, value in summary["bits"].items():
            bits[name] = max(bits.get(name, 0), value)
    per = max(instances, 1)
    out = {}
    for module in LAYER_FUNCTIONS:
        members = [acc for name, acc in totals.items() if name.split(".", 1)[0] == module]
        out[f"{module}.self_s"] = sum(acc[1] for acc in members) / per
        out[f"{module}.calls"] = sum(acc[0] for acc in members) / per
    for module, functions in LAYER_FUNCTIONS.items():
        for fn in functions:
            calls, self_s = totals.get(f"{module}.{fn}", (0, 0.0))
            out[f"{module}.{fn}.self_s"] = self_s / per
            out[f"{module}.{fn}.calls"] = calls / per
    for name in BIT_METRICS:
        out[name] = bits.get(name, 0)
    out["process.outside_s"] = outside_s / per
    out["trace.overhead_frac"] = overhead
    return out


def run_traced(workload: str, seed: int, seconds: float, golden: dict,
               timeout: float = runner.REQUEST_TIMEOUT_S) -> dict:
    stream = workloads.WORKLOADS[workload](seed)
    failures, summaries, spans = [], [], []
    plain_s = traced_s = outside_s = 0.0
    attempted = instances = 0
    clock = time.perf_counter
    deadline = clock() + seconds
    while not attempted or clock() < deadline:
        request = next(stream)
        attempted += 1
        plain = runner.spawn((*runner.CLI, *request.argv), timeout=timeout)
        traced = runner.spawn((*runner.TRACED_CLI, str(attempted), "--", *request.argv), timeout=timeout)
        if plain.timed_out or traced.timed_out:
            _fail(failures, request, f"timed out after {timeout:g} s")
            continue
        stderr, summary = split_trace(traced.stderr)
        reason = (
            checks.check_output(request, plain.returncode, plain.stdout, plain.stderr, golden)
            or checks.check_output(request, traced.returncode, traced.stdout, stderr, golden)
        )
        if not reason and traced.stdout != plain.stdout:
            reason = "traced output differs from untraced output"
        if not reason and summary is None:
            reason = "traced request wrote no trace"
        if reason:
            _fail(failures, request, reason)
            continue
        main_span = next(s for s in summary["spans"] if s["name"] == "cli.main")
        plain_s += plain.seconds
        traced_s += traced.seconds
        outside_s += traced.seconds - (main_span["end"] - main_span["start"])
        instances += request.instances
        summaries.append(summary)
        spans.extend(summary["spans"])
    SPANS_DIR.mkdir(exist_ok=True)
    with open(SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    overhead = traced_s / plain_s - 1.0 if plain_s else 0.0
    return {
        "attempted": attempted,
        "failed": len(failures),
        "metrics": layer_table(summaries, instances, outside_s, overhead),
        "notes": {"instances": instances, "traced_requests": len(summaries)},
    }


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def final_line(result: dict, units: dict) -> str:
    metrics = {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def print_end_to_end(result: dict):
    notes = result["notes"]
    units = dict(END_TO_END)
    for name, value in result["metrics"].items():
        extra = ""
        if name == "request_tail_s":
            extra = f"  (p{notes['tail_percentile']:.1f} of {notes['samples']} samples)"
        elif name == "setup_s":
            extra = f"  (median of {notes['setup_samples']})"
        print(f"  {name:<18} {value:>12.6g} {units[name]:<5}{extra}")
    print(f"  {'error_rate':<18} {notes['error_rate']:>12.6g} {'':<5}"
          f"  ({result['failed']} of {result['attempted']} requests failed)")


def print_layer_table(traced: dict):
    """One row per per-layer metric, one column per workload."""
    names = list(traced)
    print("per-layer metrics from the traced run, per parameter instance")
    print(f"  {'metric':<46} {'unit':<6}" + "".join(f"{n:>17}" for n in names))
    for metric, unit in per_layer_metrics():
        row = "".join(f"{traced[n]['metrics'][metric]:>17.6g}" for n in names)
        print(f"  {metric:<46} {unit:<6}{row}")


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced and then traced; end-to-end metrics, then one layer table."""
    golden = checks.load_golden()
    untraced, traced = {}, {}
    for name in workloads.WORKLOADS:
        print(f"# meta {json.dumps(metadata(name, seed, seconds))}")
        untraced[name] = run_untraced(name, seed, seconds, golden)
        traced[name] = run_traced(name, seed, seconds, golden)
        print(f"{name}: end-to-end ({untraced[name]['attempted']} requests, one client)")
        print_end_to_end(untraced[name])
    print_layer_table(traced)
    results = [*untraced.values(), *traced.values()]
    summary = {
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{n}.{m}": v for n, r in untraced.items() for m, v in r["metrics"].items()},
    }
    units = {f"{n}.{m}": u for n in untraced for m, u in END_TO_END}
    print(final_line(summary, units))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (runner.SRC / "solvsoliton" / "cli.py").is_file():
        print(f"no solvsoliton sources under {runner.SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    golden = checks.load_golden()
    print(f"# meta {json.dumps(metadata(args.workload, args.seed, args.seconds))}")
    if args.trace:
        result = run_traced(args.workload, args.seed, args.seconds, golden)
        units = dict(per_layer_metrics())
        print(f"{args.workload}: {result['notes']['traced_requests']} traced requests, "
              f"{result['notes']['instances']} instances")
        print_layer_table({args.workload: result})
    else:
        result = run_untraced(args.workload, args.seed, args.seconds, golden)
        units = dict(END_TO_END)
        print(f"{args.workload}: end-to-end ({result['attempted']} requests, one client)")
        print_end_to_end(result)
    print(final_line(result, units))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
