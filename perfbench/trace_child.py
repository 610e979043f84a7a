"""Run one CLI request with every solvsoliton layer wrapped in timing spans.

Usage: python3 trace_child.py REQUEST_ID -- <solvsoliton CLI arguments>

The wrappers are installed from outside: every public function defined in a
solvsoliton module (plus ``Matrix.__matmul__`` and ``AmbientMetric.jets``) is
replaced, in every module namespace that binds it, by a timing wrapper.  That
covers ``from .x import f`` bindings and the ``lru_cache`` object of
``build_lie_algebra``.  No source file changes.

The CLI's stdout and stderr pass through untouched.  After the CLI returns,
one line ``PERFBENCH_TRACE <json>`` is appended to stderr with, per wrapped
name, the call count, the self time (duration minus the time covered by
nested wrapped calls) and, where asked for, the largest coefficient bit size
seen; plus the spans ``{name, start, end, parent, request_id}`` of every call
outside the hot ``scalars`` and ``linalg`` layers and ``lie_core.bracket``,
whose calls are only aggregated.  The process exits with the CLI's exit code.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
from fractions import Fraction

TRACE_MARKER = "PERFBENCH_TRACE"
MODULES = ("scalars", "linalg", "lie_core", "metric_lie", "family", "hypersurface", "coord_engine", "cli")
METHODS = (("linalg", "Matrix", "__matmul__"), ("coord_engine", "AmbientMetric", "jets"))
# Layers and functions called thousands of times per request: counted and
# timed, but recorded without one span per call.
AGGREGATED = frozenset({"scalars", "linalg", "lie_core.bracket"})
# Functions whose return values are scanned for the largest coefficient.
MAX_BITS = frozenset({
    "lie_core.derivation_space",
    "metric_lie.connection_coeffs",
    "metric_lie.ricci_bilinear",
    "metric_lie.soliton_check_direct",
    "hypersurface.shape_operator",
})
RADICAND = "scalars.surd"


def max_bits(value, depth: int = 0) -> int:
    """Largest numerator or denominator bit size anywhere in ``value``."""
    if isinstance(value, bool):
        return 0
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if depth > 8:
        return 0
    if isinstance(value, dict):
        items = value.values()
    elif isinstance(value, (list, tuple)):
        items = value
    elif dataclasses.is_dataclass(value):
        items = [getattr(value, f.name) for f in dataclasses.fields(value)]
    else:  # Matrix, Surd, Jet2 and the other slotted value types
        items = [getattr(value, s) for s in getattr(type(value), "__slots__", ()) if hasattr(value, s)]
    return max((max_bits(v, depth + 1) for v in items), default=0)


def _radicand_bits(args, kwargs) -> int:
    q = args[2] if len(args) > 2 else kwargs.get("q", 1)
    try:
        q = Fraction(q)
    except (TypeError, ValueError):
        return 0
    return (q.numerator * q.denominator).bit_length()


class Tracer:
    """Per-process span recorder; one instance per traced request."""

    def __init__(self, request_id: str):
        self.request_id = request_id
        self.origin = time.perf_counter()
        self.stack = []  # frames: [child_seconds, span_index or None]
        self.spans = []
        self.totals = {}  # name -> [calls, self_seconds]
        self.bits = {}  # metric name -> largest bit size

    def _note_bits(self, key: str, bits: int):
        if bits > self.bits.get(key, 0):
            self.bits[key] = bits

    def wrap(self, name: str, fn):
        keep_span = name not in AGGREGATED and name.split(".", 1)[0] not in AGGREGATED
        scan_result = name in MAX_BITS
        scan_radicand = name == RADICAND
        totals = self.totals.setdefault(name, [0, 0.0])
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if scan_radicand:
                self._note_bits(RADICAND + ".radicand_bits", _radicand_bits(args, kwargs))
            parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
            span = None
            if keep_span:
                span = len(spans)
                spans.append(None)
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                totals[0] += 1
                totals[1] += (end - start) - frame[0]
                if span is not None:
                    spans[span] = {
                        "name": name,
                        "start": start - self.origin,
                        "end": end - self.origin,
                        "parent": parent,
                        "request_id": self.request_id,
                    }
            if scan_result:
                self._note_bits(name + ".max_bits", max_bits(result))
            if stack:
                # The caller's self time excludes this call and the scan above.
                stack[-1][0] += clock() - start
            return result

        return traced

    def install(self):
        """Rebind every wrapped callable in every solvsoliton namespace."""
        package = importlib.import_module("solvsoliton")
        modules = {name: importlib.import_module(f"solvsoliton.{name}") for name in MODULES}
        wrappers = {}  # id(original) -> (original, wrapper)
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        for short, cls_name, method in METHODS:
            cls = getattr(modules[short], cls_name)
            setattr(cls, method, self.wrap(f"{short}.{cls_name}.{method}", getattr(cls, method)))
        return modules["cli"]

    def summary(self) -> dict:
        return {
            "request_id": self.request_id,
            "totals": self.totals,
            "bits": self.bits,
            "spans": self.spans,
        }


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_child.py REQUEST_ID -- <cli arguments>", file=sys.stderr)
        return 2
    tracer = Tracer(argv[0])
    cli = tracer.install()
    try:
        code = cli.main(argv[2:])
    finally:
        sys.stdout.flush()
        sys.stderr.write(f"\n{TRACE_MARKER} {json.dumps(tracer.summary())}\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
