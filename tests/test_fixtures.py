"""The bundled .mdg documents and the algebra-level facts they encode.

Every numeric expectation here was computed by independent machinery (the
splitting solver, transport along comparison maps, or normal-form completion)
in tools/gen_fixtures.py before being frozen into these tests.
"""

import pytest

from mdgkit import load_fixture
from mdgkit.groebner import associativity_certificate
from mdgkit.mdg import (ChainMap, is_multiplicative, multiplicator,
                        quotient_homology_dims)
from mdgkit.parser import parse_element, parse_gcpoly


@pytest.fixture(scope="module")
def fk():
    return load_fixture("fk").algebra()


@pytest.fixture(scope="module")
def fm():
    return load_fixture("fm").algebra()


@pytest.fixture(scope="module")
def fa():
    return load_fixture("fa").algebra()


@pytest.fixture(scope="module")
def fo():
    return load_fixture("fo_full").algebra()


@pytest.fixture(scope="module")
def ex55():
    return load_fixture("ex55").algebra()


@pytest.fixture(scope="module")
def ex55_cert(ex55):
    return associativity_certificate(ex55)


# -- resolution 1: (x^2, w^2, zw, xy, y^2z^2) --------------------------------

def test_fk_axioms_and_totality(fk):
    assert fk.check().ok()
    assert fk.defined_everywhere()


def test_fk_products(fk):
    cx = fk.complex
    for pair, want in {
        ("e1", "e5"): "y*z^2*e14 + x*e45",
        ("e2", "e5"): "y^2*z*e23 + w*e35",
        ("e2", "e45"): "-y*z*e234 + w*e345",
        ("e1", "e35"): "y*z*e134 - x*e345",
        ("e5", "e12"): "y*z^2*e124 + x*y*z*e234 - x*w*e345",
    }.items():
        got = fk.mul(cx.elem(pair[0]), cx.elem(pair[1]))
        assert (got - parse_element(want, cx)).is_zero(), pair


def test_fk_associator_obstruction(fk):
    cx = fk.complex
    R = cx.ring
    got = fk.associator_names("e1", "e5", "e2")
    via_d = cx.d(cx.elem("e1234")).scale(-(R.var("y") * R.var("z")))
    explicit = parse_element(
        "y^2*z*e123 - y*z^2*e124 + y*z*w*e134 - x*y*z*e234", cx)
    assert (got - via_d).is_zero()
    assert (got - explicit).is_zero()
    assert fk.associative_on_basis() is not None


def test_fk_square_triples_vanish(fk):
    for a in fk.basis_names():
        for b in fk.basis_names():
            assert fk.associator_names(a, a, b).is_zero()


def test_fk_associator_submodule_homology(fk):
    sub = fk.associator_submodule()
    assert len(sub.gens) == 36
    assert sub.homology_dims() == {3: 1, 4: 0}
    R = fk.ring
    for v in "xyzw":
        ok, _ = sub.annihilates_homology(R.var(v))
        assert ok, v


def test_fk_quotient_homology(fk):
    sub = fk.associator_submodule()
    assert quotient_homology_dims(fk, sub) == {1: 0, 2: 0, 3: 0, 4: 1}


# -- the Taylor projection onto resolution 1 ---------------------------------

@pytest.fixture(scope="module")
def fk_split():
    return load_fixture("fk_split")


def test_split_document_is_a_splitting(fk_split):
    iota = fk_split.maps["iota"]
    pi = fk_split.maps["pi"]
    assert {name: (phi.source.name, phi.target.name)
            for name, phi in fk_split.maps.items()} == {
        "iota": ("FK", "T5"), "pi": ("T5", "FK")}
    assert iota.check_chain_map() == []
    assert pi.check_chain_map() == []
    # pi o iota = id on the subresolution
    for n in iota.source.order:
        v = pi.apply(iota.image(n))
        assert (v - iota.source.elem(n)).is_zero(), n


def test_projection_multiplicator(fk_split, fk):
    from mdgkit.mdg import MDGAlgebra
    T = fk_split.complexes["T5"]
    nu = MDGAlgebra(T, fk_split.mults["nu"])
    pi = fk_split.maps["pi"]
    mu = MDGAlgebra(fk_split.complexes["FK"], fk_split.mults["mu"])
    w = multiplicator(pi, nu, mu, T.elem("e1"), T.elem("e25"))
    cx = mu.complex
    R = cx.ring
    want = cx.d(cx.elem("e1234")).scale(R.var("y") * R.var("z"))
    assert (w.polynomialize() - want).is_zero()
    # so pi is not multiplicative, with (e1, e25) among the witnesses
    hit = is_multiplicative(pi, nu, mu)
    assert hit is not None


# -- resolution 2: (x^2, w^2, zw, xy, y^2z, yz^2) ----------------------------

def test_fm_axioms(fm):
    assert fm.check().ok()
    assert fm.defined_everywhere()


def test_fm_two_obstructions(fm):
    cx = fm.complex
    R = cx.ring
    d1234 = cx.d(cx.elem("e1234"))
    got_a = fm.associator_names("e1", "e5", "e2")
    got_b = fm.associator_names("e1", "e6", "e2")
    assert (got_a - d1234.scale(-R.var("y"))).is_zero()
    assert (got_b - d1234.scale(-R.var("z"))).is_zero()


def test_fm_associator_submodule_homology(fm):
    sub = fm.associator_submodule()
    assert len(sub.gens) == 76
    assert sub.homology_dims() == {3: 2, 4: 0}


def test_fm_embeds_fk_multiplicatively(fk, fm):
    # e_sigma -> z^s e_sigma, scaling the four faces that involve the
    # fifth generator
    src, dst = fk.complex, fm.complex
    z = src.ring.var("z")
    embed = ChainMap(src, dst, "embed")
    scaled = {"e5", "e35", "e45", "e345"}
    for n in fk.basis_names():
        v = dst.elem(n)
        embed.set_image(n, v.scale(z) if n in scaled else v)
    assert embed.check_chain_map() == []
    assert is_multiplicative(embed, fk, fm) is None


# -- resolution 3: (x^2, w^2, zw, xy, yz), cellular but not simplicial -------

def test_fa_axioms(fa):
    assert fa.check().ok()
    assert fa.defined_everywhere()


def test_fa_top_associator(fa):
    cx = fa.complex
    got = fa.associator_names("e1", "e5", "e2")
    assert (got + cx.d(cx.elem("e12345"))).is_zero()


def test_fa_obstruction_survives_modulo_ideal(fa):
    # the associator at (e1, e45, e2) is a unit multiple of x times the top
    # basis element, hence nonzero modulo (x^2, y, z, w): no choice of
    # multiplication on this resolution is associative at this triple
    cx = fa.complex
    R = cx.ring
    got = fa.associator_names("e1", "e45", "e2")
    assert (got - cx.elem("e12345").scale(R.var("x"))).is_zero()


# -- resolution 4: (x^2, w^2, zw, xy, y^2, z^2), fully associative -----------

def test_fo_presentation_embeds_in_full_table(fo):
    pres = load_fixture("fo_presentation")
    partial = pres.mults["mu"]
    cx = fo.complex
    for (a, b) in partial.stored_pairs():
        want = partial.product(a, b)
        got = fo.mul(cx.elem(a), cx.elem(b))
        assert (got - parse_element(str(want), cx)).is_zero(), (a, b)


def test_fo_axioms_and_associativity(fo):
    assert fo.check().ok()
    assert fo.defined_everywhere()
    assert fo.associative_on_basis() is None
    assert fo.alternative_on_basis() is None


def test_fo_blocking_products(fo):
    # the two products that prevent extending the table of the glued
    # tetrahedra: e2*e5 and e1*e6 are themselves basis elements here
    cx = fo.complex
    assert (fo.mul(cx.elem("e2"), cx.elem("e5")) - cx.elem("e25")).is_zero()
    assert (fo.mul(cx.elem("e1"), cx.elem("e6")) - cx.elem("e16")).is_zero()


def test_fo_no_associator_submodule(fo):
    sub = fo.associator_submodule()
    assert sub.is_zero()


# -- the deliberately non-associative Taylor table ---------------------------

def test_ex6_golden_associator():
    alg = load_fixture("ex6").algebra()
    assert alg.check().ok()
    cx = alg.complex
    R = cx.ring
    got = alg.associator_names("e2", "e1", "e3")
    scalar = (R.var("x") * R.var("y") * R.var("z")) ** 2 * R.var("w")
    assert (got - cx.d(cx.elem("e1234")).scale(scalar)).is_zero()


# -- the 21-generator cellular resolution ------------------------------------

def test_ex55_axioms(ex55):
    assert ex55.check().ok()


def test_ex55_certificate_associative(ex55_cert):
    assert ex55_cert.associative
    assert not ex55_cert.undefined_pairs
    assert ex55_cert.summary() == "associative"
    assert len(ex55_cert.basis) == 231


def test_ex55_normal_forms(ex55_cert):
    ctx = ex55_cert.basis.ctx
    nf, _ = ex55_cert.basis.reduce(parse_gcpoly("e12*e35", ctx))
    assert str(nf) == "-(v)*e12345"
    # two products the table leaves implicit are forced to vanish
    for word in ["e1*e45", "e2*e45", "e2*e26"]:
        nf, _ = ex55_cert.basis.reduce(parse_gcpoly(word, ctx))
        assert nf.is_zero(), word


# -- the tiny Taylor algebra -------------------------------------------------

def test_taylor_fixture_matches_construction():
    from mdgkit.constructions import taylor_algebra
    from mdgkit.ring import Ring
    alg = load_fixture("taylor_x2_xy").algebra()
    assert alg.check().ok()
    R2 = Ring(["x", "y"])
    direct = taylor_algebra(R2, [R2.var("x") ** 2, R2.var("x") * R2.var("y")])
    assert sorted(alg.complex.order) == sorted(direct.complex.order)
    for (a, b) in direct.mult.stored_pairs():
        want = str(direct.mult.product(a, b))
        got = str(alg.mult.product(a, b))
        assert got == want, (a, b)
