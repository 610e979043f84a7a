"""Record the SHA-256 of every exact-path output for the default seed.

    python3 perfbench/golden.py

Runs the first ``GOLDEN_REQUESTS`` requests of ``verify_ladder`` and
``sweep_bigrat`` for the default seed, checks each output against the
README's verdict table, and writes their digests, keyed by argv, to
``golden.json``.  The benchmark then fails any request whose output bytes
differ, so a speed-up has to keep the canonical reports byte-identical.
Re-record only on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import itertools
import json
import sys

import checks
import runner
import workloads

EXACT_WORKLOADS = ("verify_ladder", "sweep_bigrat")
# Every request pays at least the ~0.2 s interpreter start-up, so one run of
# BENCHMARK.json's run_seconds (40 s) draws at most about 200 requests: this
# many covers every request a seed-0 run sends.
GOLDEN_REQUESTS = 240


def main() -> int:
    digests = {}
    for name in EXACT_WORKLOADS:
        stream = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
        for request in itertools.islice(stream, GOLDEN_REQUESTS):
            outcome = runner.spawn((*runner.CLI, *request.argv))
            reason = "timed out" if outcome.timed_out else checks.check_output(
                request, outcome.returncode, outcome.stdout, outcome.stderr, {}
            )
            if reason:
                print(f"not recording {request.key}: {reason}", file=sys.stderr)
                return 1
            digests[request.key] = checks.digest(outcome.stdout)
    payload = {
        "seed": workloads.DEFAULT_SEED,
        "requests_per_workload": GOLDEN_REQUESTS,
        "workloads": list(EXACT_WORKLOADS),
        "digests": digests,
    }
    checks.GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {checks.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
