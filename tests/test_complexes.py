"""Chain complex layer: structural checks and per-multidegree homology.

Homology dimensions are cross-checked against sympy matrix ranks."""

from fractions import Fraction

import pytest
import sympy

from mdgkit.complexes import ComplexError, FreeComplex, UNIT
from mdgkit.ring import Ring


def koszul_two(ring, m1, m2):
    """Koszul complex on two monomials: the smallest interesting complex."""
    cx = FreeComplex(ring, "K")
    cx.add_basis("e1", 1, m1.lead_mono())
    cx.add_basis("e2", 1, m2.lead_mono())
    cx.add_basis("e12", 2, tuple(max(a, b) for a, b in zip(m1.lead_mono(), m2.lead_mono())))
    cx.set_diff("e1", cx.element({UNIT: m1}))
    cx.set_diff("e2", cx.element({UNIT: m2}))
    # d(e12) = (lcm/m2) e2 - (lcm/m1) e1
    lcm = cx.basis["e12"].mdeg
    c2 = ring.monomial(tuple(l - e for l, e in zip(lcm, m2.lead_mono())))
    c1 = ring.monomial(tuple(l - e for l, e in zip(lcm, m1.lead_mono())))
    cx.set_diff("e12", cx.element({"e2": c2, "e1": -c1}))
    return cx


def test_check_passes_for_koszul():
    R = Ring(["x", "y"])
    cx = koszul_two(R, R.var("x") ** 2, R.var("x") * R.var("y"))
    assert cx.check() == []


def test_check_detects_broken_differential():
    R = Ring(["x", "y"])
    cx = koszul_two(R, R.var("x") ** 2, R.var("x") * R.var("y"))
    cx.set_diff("e12", cx.element({"e2": R.var("y"), "e1": R.var("x")}))
    problems = cx.check()
    assert any("d^2" in p for p in problems)


def test_check_detects_missing_differential():
    R = Ring(["x", "y"])
    cx = FreeComplex(R, "F")
    cx.add_basis("e1", 1, (1, 0))
    assert any("not defined" in p for p in cx.check())


def test_resolution_is_exact_in_positive_degrees():
    R = Ring(["x", "y"])
    cx = koszul_two(R, R.var("x") ** 2, R.var("x") * R.var("y"))
    dims = cx.homology_dims()
    assert dims[1] == 0 and dims[2] == 0
    # H_0 restricted to the support counts standard monomials of R/(x^2, xy)
    # under the lcm bound (2,1): 1, x, y
    assert dims[0] == 3


def test_homology_matches_sympy_ranks():
    R = Ring(["x", "y"])
    cx = koszul_two(R, R.var("x") ** 2, R.var("x") * R.var("y"))
    for md in cx.mdeg_support():
        for i in (1, 2):
            rows, piece, target = cx.diff_matrix(i, md)
            ours = 0
            if rows:
                ours = sympy.Matrix([[sympy.Rational(c) for c in r] for r in rows]).rank()
            from mdgkit import linalg
            assert linalg.rank(rows) == ours


def test_element_vector_roundtrip():
    R = Ring(["x", "y"])
    cx = koszul_two(R, R.var("x") ** 2, R.var("x") * R.var("y"))
    md = (2, 1)
    piece = cx.piece_basis(1, md)
    assert len(piece) == 2
    x = cx.element({"e1": R.var("y"), "e2": R.var("x")})
    vec = cx.element_vector(x, 1, md)
    back = cx.vector_element(vec, 1, md)
    assert (back - x).is_zero()


def test_inhomogeneous_element_rejected():
    R = Ring(["x", "y"])
    cx = koszul_two(R, R.var("x") ** 2, R.var("x") * R.var("y"))
    x = cx.element({"e1": R.one, "e12": R.one})
    with pytest.raises(ComplexError):
        x.degree()


def test_format_element():
    R = Ring(["x", "y"])
    cx = koszul_two(R, R.var("x") ** 2, R.var("x") * R.var("y"))
    x = cx.element({"e1": -R.var("y"), "e2": R.var("x")})
    assert str(x) == "-y*e1 + x*e2"
    assert str(cx.d(cx.elem("e12"))) == "-y*e1 + x*e2"
    assert str(cx.zero) == "0"
    assert str(cx.element({UNIT: R.var("x") ** 2})) == "x^2"


@pytest.mark.parametrize("name", ["ex55", "ex6", "fa", "fk", "fk_split", "fm",
                                  "fo_full", "fo_presentation",
                                  "taylor_x2_xy"])
def test_names_in_degree_keeps_the_declaration_order(name):
    """`add_basis` keeps each degree's names; the parser's inferred
    multidegrees move no name to another degree."""
    from mdgkit import load_fixture
    from mdgkit.constructions import mapping_cone_extension
    doc = load_fixture(name)
    complexes = list(doc.complexes.values())
    alg = doc.algebra(next(iter(doc.mults)))
    complexes.append(mapping_cone_extension(alg, doc.ring.var("x")).complex)
    for cx in complexes:
        for degree in range(-1, cx.max_degree() + 2):
            assert cx.names_in_degree(degree) == [
                n for n in cx.order if cx.basis[n].degree == degree]
