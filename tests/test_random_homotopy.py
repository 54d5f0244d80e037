"""`mdg.random_homotopy`, the seeded homotopy that `mdg perturb`,
tools/check_criteria.py and the tests perturb a table by.  On fk, fa and
the Taylor-5 table of tools/check_criteria.py it repeats per seed, each
value has degree |a| + |b| + 1 and multidegree m_a + m_b, it is graded
symmetric, it stores no odd diagonal, and at seeds 0 to 5 it holds at most
2 * HOMOTOPY_ENTRIES values.  So it does at fk_split's table nu at seed 3
and the Taylor-5 table at seed 32, where a draw with a != b comes when one
value is left below the bound."""

import pytest

from mdgkit import load_fixture
from mdgkit.constructions import taylor_algebra
from mdgkit.mdg import HOMOTOPY_ENTRIES, random_homotopy
from mdgkit.ring import Ring, mono_mul

# the Taylor-5 ideal of tools/check_criteria.py, over (x, y, z, w)
R4 = Ring(["x", "y", "z", "w"])
TAYLOR5 = [(2, 0, 0, 0), (0, 0, 0, 2), (0, 0, 1, 1), (1, 1, 0, 0),
           (0, 1, 1, 0)]


@pytest.fixture(scope="module")
def algebras():
    return {"fk": load_fixture("fk").algebra(),
            "fa": load_fixture("fa").algebra(),
            "taylor5": taylor_algebra(R4, [R4.monomial(m) for m in TAYLOR5]),
            "fk_split nu": load_fixture("fk_split").algebra("nu")}


@pytest.mark.parametrize("name, seed", [
    (name, seed) for name in ["fk", "fa", "taylor5"] for seed in range(6)]
    + [("fk_split nu", 3), ("taylor5", 32)])
def test_random_homotopy_is_a_seeded_symmetric_multigraded_pairing(
        algebras, name, seed):
    alg = algebras[name]
    basis = alg.complex.basis
    h = random_homotopy(alg, seed)
    assert h.table == random_homotopy(alg, seed).table
    assert len(h.table) <= 2 * HOMOTOPY_ENTRIES
    for (a, b), value in h.table.items():
        da, db = basis[a].degree, basis[b].degree
        assert not (a == b and da % 2 == 1), (a, b)
        assert value.degree() == da + db + 1, (a, b)
        assert value.multidegree() == mono_mul(basis[a].mdeg, basis[b].mdeg)
        sign = -1 if da * db % 2 else 1
        assert h.table[(b, a)] == value.scale(sign), (a, b)
