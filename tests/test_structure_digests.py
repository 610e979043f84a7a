"""The family's bracket tables against recorded SHA-256 digests.

``repr`` of the ``triples()`` of ``build_lie_algebra(n)`` for n = 1-16, and
of its nilradical, the subalgebra on the basis indices outside
``family_splitting(n)``, for n = 1-8, must hash to the digests in tests/structure_digests.json, so a
change to any structure constant, index or sign fails here.  The file is
only read, as test_golden_bytes.py reads its digests.
"""

import hashlib
import json
from pathlib import Path

import pytest

from solvsoliton.family import build_lie_algebra, family_splitting
from solvsoliton.lie_core import subalgebra

DIGESTS = json.loads(
    (Path(__file__).resolve().parent / "structure_digests.json").read_text(encoding="utf-8")
)


def _digest(L) -> str:
    return hashlib.sha256(repr(L.triples()).encode("utf-8")).hexdigest()


def test_digests_cover_the_exact_path_range():
    assert sorted(map(int, DIGESTS["algebra"])) == list(range(1, 17))
    assert sorted(map(int, DIGESTS["nilradical"])) == list(range(1, 9))


@pytest.mark.parametrize("n", range(1, 17))
def test_algebra_matches_recorded_digest(n):
    assert _digest(build_lie_algebra(n)) == DIGESTS["algebra"][str(n)]


@pytest.mark.parametrize("n", range(1, 9))
def test_nilradical_matches_recorded_digest(n):
    L = build_lie_algebra(n)
    nil = [i for i in range(L.dim) if i not in family_splitting(n)]
    assert _digest(subalgebra(L, nil)) == DIGESTS["nilradical"][str(n)]
