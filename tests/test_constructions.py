"""Taylor algebras, mapping cones and wedge sums: structural properties."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdgkit.complexes import UNIT, FreeComplex
from mdgkit.constructions import (mapping_cone_extension, subset_name,
                                  taylor_algebra, wedge_sum)
from mdgkit.mdg import MDGAlgebra, MDGError, Multiplication
from mdgkit.parser import Document, format_document
from mdgkit.ring import Ring, add_term, mono_div, mono_lcm, mono_mul

R4 = Ring(["x", "y", "z", "w"])
R2 = Ring(["x", "y"])


def mono(ring, s):
    acc = ring.one
    for ch in s:
        acc = acc * ring.var(ch)
    return acc


def taylor_small():
    return taylor_algebra(R2, [R2.var("x") ** 2, R2.var("x") * R2.var("y")])


def test_taylor_small_structure():
    alg = taylor_small()
    cx = alg.complex
    assert set(cx.order) == {UNIT, "e1", "e2", "e12"}
    assert cx.check() == []
    assert str(cx.d(cx.elem("e12"))) == "-y*e1 + x*e2"
    assert str(alg.mul(cx.elem("e1"), cx.elem("e2"))) == "x*e12"
    report = alg.check()
    assert report.ok(), report.summary()
    assert alg.defined_everywhere()
    assert alg.associative_on_basis() is None


def test_taylor_five_generators_matches_known_differential():
    # the ideal (x^2, w^2, zw, xy, y^2z^2): d(e1234) has the classic cofactors
    ms = [R4.var("x") ** 2, R4.var("w") ** 2, mono(R4, "zw"), mono(R4, "xy"),
          R4.var("y") ** 2 * R4.var("z") ** 2]
    alg = taylor_algebra(R4, ms)
    cx = alg.complex
    d = cx.d(cx.elem("e1234"))
    expected = cx.element({
        "e123": -R4.var("y"),
        "e124": R4.var("z"),
        "e134": -R4.var("w"),
        "e234": R4.var("x"),
    })
    assert (d - expected).is_zero()
    assert cx.check() == []
    report = alg.check()
    assert report.ok(), report.summary()


def test_taylor_is_associative_and_alternative():
    ms = [R4.var("x") ** 2, R4.var("w") ** 2, mono(R4, "zw"), mono(R4, "xy")]
    alg = taylor_algebra(R4, ms)
    assert alg.associative_on_basis() is None
    assert alg.alternative_on_basis() is None
    sub = alg.associator_submodule()
    assert sub.is_zero()


def test_taylor_graded_commutativity_through_table():
    alg = taylor_small()
    cx = alg.complex
    e1, e2 = cx.elem("e1"), cx.elem("e2")
    assert (alg.mul(e1, e2) + alg.mul(e2, e1)).is_zero()
    e12 = cx.elem("e12")
    assert (alg.mul(e1, e12) - alg.mul(e12, e1)).is_zero()
    assert alg.mul(e1, e1).is_zero()


def test_taylor_exactness():
    alg = taylor_small()
    dims = alg.complex.homology_dims()
    assert dims[1] == 0 and dims[2] == 0


def reference_taylor(ring, expts, name="T"):
    """The Taylor algebra from its definition, over subsets as sorted index
    tuples: m_sigma folded with lcm over sigma, the faces of sigma by
    removing one index, the sign of a product by counting inversions."""
    g = len(expts)
    cx = FreeComplex(ring, name)
    subsets = [sigma for size in range(1, g + 1)
               for sigma in combinations(range(g), size)]
    mdeg = {(): ring.zero_mono}
    for sigma in subsets:
        acc = expts[sigma[0]]
        for i in sigma[1:]:
            acc = mono_lcm(acc, expts[i])
        mdeg[sigma] = acc
        cx.add_basis(subset_name(sigma), len(sigma), acc)
    for sigma in subsets:
        coeffs = {}
        for pos, i in enumerate(sigma):
            rest = tuple(j for j in sigma if j != i)
            add_term(coeffs, subset_name(rest) if rest else UNIT,
                     ring.monomial(mono_div(mdeg[sigma], mdeg[rest]),
                                   (-1) ** pos))
        cx.set_diff(subset_name(sigma), cx.element(coeffs))
    mult = Multiplication(cx, f"{name}_mult")
    for i, sigma in enumerate(subsets):
        for tau in subsets[i:]:
            if sigma == tau and len(sigma) % 2 == 1:
                continue
            if set(sigma) & set(tau):
                value = cx.zero
            else:
                union = tuple(sorted(sigma + tau))
                inversions = sum(1 for s in sigma for t in tau if s > t)
                ratio = mono_div(mono_mul(mdeg[sigma], mdeg[tau]),
                                 mdeg[union])
                value = cx.element({subset_name(union): ring.monomial(
                    ratio, (-1) ** inversions)})
            mult.set_product(subset_name(sigma), subset_name(tau), value)
    return MDGAlgebra(cx, mult)


def _terms(x):
    return {k: dict(v.terms) for k, v in x.coeffs.items()}


def _document(alg):
    doc = Document()
    doc.ring = alg.complex.ring
    doc.complexes["T"] = alg.complex
    doc.mults["mu"] = alg.mult
    return format_document(doc)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 2)] * 4), max_size=5))
def test_taylor_algebra_is_the_construction_from_the_definition(ideal):
    # duplicates and the zero tuple (the unit ideal) are drawn too
    alg, ref = taylor_algebra(R4, ideal), reference_taylor(R4, ideal)
    cx, rcx = alg.complex, ref.complex
    assert cx.order == rcx.order
    assert ([(cx.basis[n].degree, cx.basis[n].mdeg) for n in cx.order]
            == [(rcx.basis[n].degree, rcx.basis[n].mdeg) for n in rcx.order])
    assert ([(n, _terms(x)) for n, x in cx.diff.items()]
            == [(n, _terms(x)) for n, x in rcx.diff.items()])
    assert list(alg.mult.table) == list(ref.mult.table)
    assert ([_terms(x) for x in alg.mult.table.values()]
            == [_terms(x) for x in ref.mult.table.values()])


# the Taylor-4, -5 and -6 ideals of tools/check_criteria.py and perfbench,
# and perfbench's TAYLOR4_SEEDED_BASE
TAYLOR_IDEALS = {
    "taylor4": [(2, 0, 0, 0), (0, 0, 0, 2), (0, 0, 1, 1), (1, 1, 0, 0)],
    "taylor5": [(2, 0, 0, 0), (0, 0, 0, 2), (0, 0, 1, 1), (1, 1, 0, 0),
                (0, 1, 1, 0)],
    "taylor6": [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 0, 2), (1, 1, 0, 0),
                (0, 1, 1, 0), (0, 0, 1, 1)],
    "taylor4_seeded_base": [(0, 2, 0, 1), (0, 1, 1, 1), (2, 1, 0, 0),
                            (1, 0, 1, 1)],
}


@pytest.mark.parametrize("name", sorted(TAYLOR_IDEALS))
def test_taylor_documents_are_those_of_the_definition(name):
    ideal = TAYLOR_IDEALS[name]
    polys = [R4.monomial(m) for m in ideal]
    assert (_document(taylor_algebra(R4, polys))
            == _document(reference_taylor(R4, ideal)))


@pytest.mark.parametrize("ideal, message", [
    ([(-1, 0, 0, 0), (0, 1, 0, 0)],
     "expected non-negative integer exponents, got -1 in (-1, 0, 0, 0)"),
    ([(1.5, 0, 0, 0)],
     "expected non-negative integer exponents, got 1.5 in (1.5, 0, 0, 0)"),
    ([(1, 0, 0, 0), (1, 0, 0)],
     "expected an exponent tuple of length 4, got (1, 0, 0)"),
    ([(1, 0, 0, 0, 1)],
     "expected an exponent tuple of length 4, got (1, 0, 0, 0, 1)"),
])
def test_taylor_refuses_an_exponent_tuple_that_is_not_a_monomial(ideal,
                                                                 message):
    with pytest.raises(MDGError) as err:
        taylor_algebra(R4, ideal)
    assert str(err.value) == message


def test_taylor_refuses_twelve_generators_before_building(monkeypatch):
    import mdgkit.constructions as constructions
    ring = Ring(list("abcdefghijkl"))
    monkeypatch.setattr(constructions, "FreeComplex", None)
    monkeypatch.setattr(constructions, "subset_name", None)
    with pytest.raises(MDGError) as err:
        taylor_algebra(ring, [ring.var(v) for v in ring.variables])
    assert str(err.value) == ("a Taylor algebra takes at most 11 generators, "
                              "got 12: its basis names e<indices> would "
                              "collide")


def test_subset_names_are_distinct_up_to_eleven_generators():
    names = {subset_name(sigma) for size in range(1, 12)
             for sigma in combinations(range(11), size)}
    assert len(names) == 2 ** 11 - 1
    # one generator more, and {1, 2} and {12} share a name
    assert subset_name((0, 1)) == subset_name((11,))


def test_mapping_cone_is_mdg():
    alg = taylor_small()
    cone = mapping_cone_extension(alg, R2.var("y"))
    cx = cone.complex
    assert cx.check() == []
    report = cone.check()
    assert report.ok(), report.summary()
    assert cone.defined_everywhere()
    # d(E) = r, d(E_e1) = r e1 - E d(e1)
    assert str(cx.d(cx.elem("E"))) == "y"
    d = cx.d(cx.elem("E_e1"))
    expected = cx.element({"e1": R2.var("y"), "E": -R2.var("x") ** 2})
    assert (d - expected).is_zero()
    # e is exterior: cone elements multiply to zero
    assert cone.mul(cx.elem("E"), cx.elem("E_e1")).is_zero()
    # associativity survives the cone for an associative base
    assert cone.associative_on_basis() is None


def test_wedge_sum_complex():
    a = taylor_small()
    b = rename(taylor_algebra(R2, [R2.var("y") ** 3], name="S"), {"e1": "f1"})
    w = wedge_sum(a.complex, b.complex)
    assert w.check() == []
    # the second summand's degree-1 differential enters with a minus sign
    assert str(w.d(w.elem("f1"))) == "-y^3"
    assert str(w.d(w.elem("e1"))) == "x^2"
    # H_i for i >= 2 is the direct sum of the summand homologies (both exact)
    dims = w.homology_dims()
    assert all(dims[i] == 0 for i in dims if i >= 2)


def rename(alg, mapping):
    """Rebuild a small algebra under new basis names (test helper)."""
    from mdgkit.complexes import Element, FreeComplex
    from mdgkit.mdg import MDGAlgebra, Multiplication
    cx = alg.complex
    out = FreeComplex(cx.ring, cx.name + "r")
    nm = lambda n: mapping.get(n, n)
    for n in cx.order:
        if n != UNIT:
            out.add_basis(nm(n), cx.basis[n].degree, cx.basis[n].mdeg)
    for n in cx.order:
        if n != UNIT:
            out.set_diff(nm(n), Element(out, {nm(k): v for k, v in
                                              cx.d(cx.elem(n)).coeffs.items()}))
    mult = Multiplication(out)
    for (l, r), v in alg.mult.table.items():
        mult.set_product(nm(l), nm(r),
                         Element(out, {nm(k): c for k, c in v.coeffs.items()}))
    return MDGAlgebra(out, mult)
