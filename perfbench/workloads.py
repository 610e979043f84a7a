"""Seeded request streams for the three benchmark workloads.

Each workload is an endless, deterministic stream of CLI requests drawn from
``random.Random(seed)``.  The program under test only ever sees the argv; the
expected verdicts live in ``checks.py``.  No draw is ever discarded, so slow
draws (the trial-division cliff on large radicands) stay in the stream.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 0

# verify_ladder and einstein_points: coefficient size (numerator and
# denominator of exactly SMALL_BITS bits).
VERIFY_LADDER = (3, 4, 5)
SMALL_BITS = 4

# sweep_bigrat: rank rotation, grid shape and coefficient size (numerator and
# denominator of exactly SWEEP_BITS bits).  The c-grid always holds 0.
SWEEP_RANKS = (2, 3)
SWEEP_RHO_POINTS = 2
SWEEP_C_POINTS = 2
SWEEP_BITS = 9

# einstein_points: rank rotation (the CLI refuses n > 4 for `einstein`).
EINSTEIN_RANKS = (2, 3, 4)


def _ranks(ranks: tuple) -> str:
    return ",".join(map(str, ranks))


WHY = {
    "verify_ladder": f"cold verify at n={_ranks(VERIFY_LADDER)}: Jacobi, derivation space and O(d^4) Koszul Ricci dominate; surd and coord_engine idle",
    "sweep_bigrat": f"sweep at n={_ranks(SWEEP_RANKS)} over a {SWEEP_RHO_POINTS}x{SWEEP_C_POINTS} rho x c grid of {SWEEP_BITS}-bit rationals: per-point bignum metric_lie, shape operator and surd trial division",
    "einstein_points": f"einstein at n={_ranks(EINSTEIN_RANKS)}: only the float coord_engine and numpy work, so start-up is half of each request",
}


@dataclass(frozen=True)
class Request:
    command: str
    n: int
    argv: tuple
    rho: tuple  # the rho values, as Fractions
    c: tuple  # the c values, as Fractions

    @property
    def instances(self) -> int:
        """Parameter instances (n, rho, c) this request certifies."""
        return len(self.rho) * len(self.c)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _exact_bits(rng: random.Random, bits: int) -> Fraction:
    """A positive rational from a numerator and a denominator of exactly ``bits`` bits each."""
    low, high = 2 ** (bits - 1), 2**bits - 1
    return Fraction(rng.randint(low, high), rng.randint(low, high))


def _rotation(seed: int, command: str, ranks: tuple):
    """``command --format json`` at each rank in turn; c = 0 on one request in three.

    The c = 0 requests come in runs of one full rotation, so every rank sees
    both c = 0 and c > 0.
    """
    rng = random.Random(seed)
    for i in itertools.count():
        n = ranks[i % len(ranks)]
        rho = _exact_bits(rng, SMALL_BITS)
        c = Fraction(0) if (i // len(ranks)) % 3 == 0 else _exact_bits(rng, SMALL_BITS)
        argv = (command, "--n", str(n), "--rho", str(rho), "--c", str(c), "--format", "json")
        yield Request(command, n, argv, (rho,), (c,))


def verify_ladder(seed: int):
    """verify at each rank of VERIFY_LADDER: solvsoliton at c = 0, not_soliton at c > 0."""
    return _rotation(seed, "verify", VERIFY_LADDER)


def sweep_bigrat(seed: int):
    """sweep --format csv over a rho x c grid of SWEEP_BITS-bit rationals."""
    rng = random.Random(seed)
    for i in itertools.count():
        n = SWEEP_RANKS[i % len(SWEEP_RANKS)]
        rho = tuple(_exact_bits(rng, SWEEP_BITS) for _ in range(SWEEP_RHO_POINTS))
        c = (Fraction(0),) + tuple(_exact_bits(rng, SWEEP_BITS) for _ in range(SWEEP_C_POINTS - 1))
        argv = (
            "sweep", "--n", str(n),
            "--rho-grid", ",".join(map(str, rho)),
            "--c-grid", ",".join(map(str, c)),
            "--format", "csv",
        )
        yield Request("sweep", n, argv, rho, c)


def einstein_points(seed: int):
    """einstein at each rank of EINSTEIN_RANKS, at in-domain rho > 0 and c >= 0."""
    return _rotation(seed, "einstein", EINSTEIN_RANKS)


WORKLOADS = {
    "verify_ladder": verify_ladder,
    "sweep_bigrat": sweep_bigrat,
    "einstein_points": einstein_points,
}


# The sizes a result records next to its metrics.
SIZES = {
    "verify_ladder": {"ranks": list(VERIFY_LADDER), "coefficient_bits": SMALL_BITS, "c_zero_share": "1/3"},
    "sweep_bigrat": {
        "ranks": list(SWEEP_RANKS),
        "grid": f"{SWEEP_RHO_POINTS}x{SWEEP_C_POINTS}",
        "coefficient_bits": SWEEP_BITS,
        "c_grid_contains_zero": True,
    },
    "einstein_points": {"ranks": list(EINSTEIN_RANKS), "coefficient_bits": SMALL_BITS, "c_zero_share": "1/3"},
}
