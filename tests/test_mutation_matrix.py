"""Mutation matrix: every corrupted ``family`` builder fails a named check
of ``verify``, and none ends in an exception.

Each mutant patches one builder: x1001/1000 on one nonzero Gram entry, on
the K of one slice block or of the warp factor, or on one closed-form r_k;
a sign flip on one structure-constant triple; or a zero made nonzero where
no bump or flip reaches a check: a Gram entry between the abelian part and
the nilradical, and a part of [B1I, Z] off the nilradical.  It runs at n = 2 and 3, each at (rho, c) = (11/13, 9/14) and (5/3, 0).
A mutant whose report differs from the unmutated one must read ``ok:
false`` with at least one named check false.  ``ricci`` and ``soliton`` run
on every sign flip too: each flip breaks the Jacobi identity, by the
``Fraction`` oracle, and must fail both with ``jacobi`` false.  Mutation
testing after DeMillo, Lipton and Sayward, *Hints on test data selection*,
Computer 11, 1978.
"""

from fractions import Fraction

import pytest
from oracles import fraction_jacobi_witness

from solvsoliton import cli, coord_engine, family, hypersurface
from solvsoliton.lie_core import StructureConstants
from solvsoliton.linalg import Matrix

POINTS = [
    (n, rho, c)
    for n in (2, 3)
    for rho, c in ((Fraction(11, 13), Fraction(9, 14)), (Fraction(5, 3), Fraction(0)))
]
BUMP = Fraction(1001, 1000)
CHECKS = (
    "jacobi",
    "splitting.n_is_ideal",
    "splitting.n_is_nilpotent",
    "splitting.n_contains_derived",
    "splitting.a_is_abelian",
    "splitting.a_orthogonal_to_n",
    "ricci_three_way",
    "trace_identity",
    "checkers_agree",
    "status_matches_prediction",
)
# The abelian part is the single vector B1R, and [B1R, B1R] = 0 whatever
# the structure constants are.
CANNOT_FLIP = {"splitting.a_is_abelian"}


def _rebind(name, change):
    """A mutant that rebinds the ``family`` builder ``name``, in every
    package module that binds it, to one whose result is
    ``change(result, *args)``."""

    def apply(mp):
        original = getattr(family, name)

        def mutant(*args):
            return change(original(*args), *args)

        for module in (family, hypersurface, coord_engine, cli):
            if getattr(module, name, None) is original:
                mp.setattr(module, name, mutant)

    return apply


def _gram_entry(i, j, value):
    """The Gram matrix with its (i, j) and (j, i) entries set to value(G)."""

    def change(G, p):
        rows = [[G[r, s] for s in range(G.cols)] for r in range(G.rows)]
        rows[i][j] = rows[j][i] = value(G)
        return Matrix(rows)

    return _rebind("build_gram", change)


def _slice_block(block):
    """The slice diagonal with K bumped on every entry of one block."""

    def change(entries, n, c):
        mult = family.slice_multiplicities(n)
        start = sum(mult[:block])
        inside = range(start, start + mult[block])
        return [(K * BUMP if i in inside else K, f) for i, (K, f) in enumerate(entries)]

    return _rebind("slice_diagonal", change)


def _closed_form(k):
    """The closed forms with r_{k+1} bumped."""

    def change(r, n, rho, c):
        return tuple(x * BUMP if i == k else x for i, x in enumerate(r))

    return _rebind("ricci_eigenvalue_formulas", change)


def _bracket_mutant(edit):
    """Patch the structure constants that ``build_lie_algebra`` builds:
    ``edit`` maps the table's (i, j, k, value) triples to the mutant's."""

    class Mutant:
        @staticmethod
        def from_triples(dim, triples):
            built = StructureConstants.from_triples(dim, triples)
            return StructureConstants.from_triples(dim, edit(built.triples()))

    def apply(mp):
        mp.setattr(family, "StructureConstants", Mutant)

    return apply


def _flip(t):
    def edit(triples):
        i, j, k, v = triples[t]
        return [*triples[:t], (i, j, k, -v), *triples[t + 1 :]]

    return _bracket_mutant(edit)


def _add_bracket(i, j, k):
    return _bracket_mutant(lambda triples: [*triples, (i, j, k, Fraction(1))])


def mutants(n: int) -> dict:
    """{name: apply(monkeypatch)} of the mutants at rank n."""
    d = 4 * n - 1
    z = d - 1
    out = {}
    # the Gram pattern at c > 0, where the (B1I, Z) entry is nonzero
    G = family.build_gram(family.FamilyParams(n, 1, 1))
    for i in range(d):
        for j in G.table[i]:
            if i <= j:
                out[f"gram[{i},{j}]"] = _gram_entry(i, j, lambda G, i=i, j=j: G[i, j] * BUMP)
    for block, name in enumerate(("b", "phi", "z0", "zrest")):
        out[f"slice_K[{name}]"] = _slice_block(block)
    out["warp_K"] = _rebind("_warp_factor", lambda warp, c: (warp[0] * BUMP, warp[1]))
    for k in range(4):
        out[f"r{k + 1}"] = _closed_form(k)
    for t, (i, j, k, _) in enumerate(family.build_lie_algebra(n).triples()):
        out[f"flip[{i},{j}->{k}]"] = _flip(t)
    # zeros made nonzero, for the splitting checks that no sign flip moves:
    # B1R (index 0) against e0, and a B1R part of [B1I, Z]
    e0 = 2 * n - 2
    out[f"gram[0,{e0}]=0->g/1000"] = _gram_entry(0, e0, lambda G: G[e0, e0] / 1000)
    out[f"add[1,{z}->0]"] = _add_bracket(1, z, 0)
    return out


MUTANTS = {n: mutants(n) for n in (2, 3)}
CASES = [(point, name) for point in POINTS for name in MUTANTS[point[0]]]


def _run(report, point):
    """``report`` of the point, on an algebra built afresh under the mutant."""
    family.build_lie_algebra.cache_clear()
    try:
        return report(family.FamilyParams(*point))
    finally:
        family.build_lie_algebra.cache_clear()


def _verify(point):
    return _run(cli.verify_report, point)[0]


@pytest.fixture(scope="module")
def outcomes():
    """{(point, name): the report, or the exception raised}, and the
    unmutated report of each point under (point, None)."""
    out = {(point, None): _verify(point) for point in POINTS}
    for point, name in CASES:
        with pytest.MonkeyPatch.context() as mp:
            MUTANTS[point[0]][name](mp)
            try:
                out[point, name] = _verify(point)
            except Exception as exc:  # reported by the test of each mutant
                out[point, name] = exc
    return out


def failed_checks(report: dict) -> list:
    checks = report["checks"]
    values = {f"splitting.{k}": v for k, v in checks["splitting"].items()}
    values.update((k, v) for k, v in checks.items() if k != "splitting")
    values["status_matches_prediction"] = report["status_matches_prediction"]
    return [name for name in CHECKS if values[name] is not True]


def _unchanged(outcomes) -> set:
    return {
        (point, name)
        for (point, name), report in outcomes.items()
        if name is not None and report == outcomes[point, None]
    }


def test_the_unmutated_points_pass(outcomes):
    for point in POINTS:
        report = outcomes[point, None]
        assert report["ok"] is True and failed_checks(report) == []


@pytest.mark.parametrize("point, name", CASES, ids=[f"n{p[0]}-c{p[2]}-{m}" for p, m in CASES])
def test_a_changed_report_fails_a_named_check(outcomes, point, name):
    report = outcomes[point, name]
    assert isinstance(report, dict), f"raised {report!r}"
    if report != outcomes[point, None]:
        assert report["ok"] is False
        assert failed_checks(report)


def test_only_the_zero_gram_entry_leaves_a_report_unchanged(outcomes):
    # the (B1I, Z) entry is 0 at c = 0, so its bump changes nothing
    assert _unchanged(outcomes) == {
        ((n, rho, c), f"gram[1,{4 * n - 2}]") for n, rho, c in POINTS if c == 0
    }


def test_every_check_is_flipped_by_some_mutant(outcomes):
    flipped = set()
    for (point, name), report in outcomes.items():
        if name is not None:
            flipped.update(failed_checks(report))
    assert flipped == set(CHECKS) - CANNOT_FLIP


def test_only_the_isometry_check_sees_a_slice_mutant(outcomes):
    # a slice K moves the coordinate Gram alone, not g'/g or g''/g, so only
    # P^T G P of the coordinate route can tell
    for point in POINTS:
        for block in ("b", "phi", "z0", "zrest"):
            assert failed_checks(outcomes[point, f"slice_K[{block}]"]) == ["ricci_three_way"]


FLIPS = [(point, name) for point, name in CASES if name.startswith("flip")]


@pytest.fixture(scope="module")
def flip_outcomes():
    """{(point, name): (whether the flipped table satisfies Jacobi, by the
    oracle, and {command: (report, passes) or the exception raised})} for
    ``ricci`` and ``soliton`` on every sign-flip mutant."""
    reports = {"ricci": cli.ricci_report, "soliton": cli.soliton_report}
    out = {}
    for point, name in FLIPS:
        with pytest.MonkeyPatch.context() as mp:
            MUTANTS[point[0]][name](mp)
            L = _run(lambda p: family.build_lie_algebra(p.n), point)
            results = {}
            for command, report in reports.items():
                try:
                    results[command] = _run(report, point)
                except Exception as exc:  # reported by the test of each flip
                    results[command] = exc
        out[point, name] = fraction_jacobi_witness(L) is None, results
    return out


@pytest.mark.parametrize("point, name", FLIPS, ids=[f"n{p[0]}-c{p[2]}-{m}" for p, m in FLIPS])
def test_a_flip_breaks_jacobi_and_fails_ricci_and_soliton(flip_outcomes, point, name):
    holds, results = flip_outcomes[point, name]
    assert not holds  # by the oracle, every sign flip breaks the Jacobi identity
    for command, result in results.items():
        assert isinstance(result, tuple), f"{command} raised {result!r}"
        report, passes = result
        assert (report["jacobi"], passes) == (False, False), command


def test_the_mutant_count():
    # per point: the Gram entries, 4 slice blocks, the warp factor, 4 closed
    # forms, one flip per triple (15 at n = 2, 35 at n = 3) and 2 zeros
    assert [len(MUTANTS[n]) for n in (2, 3)] == [34, 58]
