"""The associator subcomplex: closure under d and under the module action,
the diagnosable limit on saturation rounds, the basis triple scan, the
long exact sequence tying H(S), H(F) and H(F/S) together, and the refusal
of a map that is not a differential."""

from itertools import product

import pytest

from mdgkit import fixture_path, load_fixture, mdg
from mdgkit.complexes import ComplexError, FreeComplex
from mdgkit.constructions import mapping_cone_extension
from mdgkit.mdg import (MDGAlgebra, MDGError, MissingProductError, Submodule,
                        quotient_homology_dims)
from mdgkit.parser import parse_document

ALGEBRAS = {name: load_fixture(name).algebra() for name in ("fk", "fm", "fa")}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_associator_submodule_is_closed(name):
    assert ALGEBRAS[name].associator_submodule().verify_closed() == []


def test_an_unsaturated_submodule_reports_what_escapes():
    fk = ALGEBRAS["fk"]
    sub = Submodule(fk, [("[e1,e2,e5]", fk.associator_names("e1", "e2", "e5"))])
    assert "e1*[e1,e2,e5] escapes the submodule" in sub.verify_closed()


def test_saturation_round_limit_is_diagnosable(monkeypatch):
    fm = ALGEBRAS["fm"]
    label, v, _, _ = fm.associator_submodule().gens[0]
    monkeypatch.setattr(mdg, "SATURATION_ROUNDS", 1)
    sub = Submodule(fm, [(label, v)])
    with pytest.raises(MDGError, match="round limit of 1: 7 generators reached"):
        sub.saturate()


# -- the basis triple scan ----------------------------------------------------

TABLES = [("fk", None), ("fk_split", "mu"), ("fk_split", "nu"), ("fm", None),
          ("fa", None), ("fo_presentation", None), ("fo_full", None),
          ("ex6", None), ("ex55", None), ("taylor_x2_xy", None)]


def _full_scan(alg):
    """Every ordered basis triple below the top degree, in lexicographic
    order: the first nonzero associator as (a, b, c, associator), or None."""
    cx = alg.complex
    top = cx.max_degree()
    for a, b, c in product(alg.basis_names(), repeat=3):
        if sum(cx.basis[n].degree for n in (a, b, c)) > top:
            continue
        v = alg.associator_names(a, b, c)
        if not v.is_zero():
            return (a, b, c, v)
    return None


def _alternative_scan(alg):
    """The alternative identities over basis pairs from `associator_names`:
    the first failure as (a, x, a, difference), or None."""
    cx = alg.complex
    top = cx.max_degree()
    for a, x in product(alg.basis_names(), repeat=2):
        da = cx.basis[a].degree
        if 2 * da + cx.basis[x].degree > top:
            continue
        v = alg.associator_names(a, x, a)
        if da % 2 == 1:
            dx = cx.basis[x].degree
            v = v - alg.associator_names(a, a, x).scale(2 * (-1) ** dx)
        if not v.is_zero():
            return (a, x, a, v)
    return None


def _submodule_scan(alg):
    """The associator submodule's (label, generator) list, its generators
    the nonzero `associator_names` of the full scan, saturated."""
    cx = alg.complex
    top = cx.max_degree()
    gens = []
    for a, b, c in product(alg.basis_names(), repeat=3):
        if sum(cx.basis[n].degree for n in (a, b, c)) <= top:
            gens.append((f"[{a},{b},{c}]", alg.associator_names(a, b, c)))
    sub = Submodule(alg, gens)
    sub.saturate()
    return [(label, v) for label, v, _, _ in sub.gens]


def _submodule_gens(alg):
    return [(label, v) for label, v, _, _ in alg.associator_submodule().gens]


# (scan over Q, its reference from `associator_names`)
SCANS = {"associative": (MDGAlgebra.associative_on_basis, _full_scan),
         "alternative": (MDGAlgebra.alternative_on_basis, _alternative_scan),
         "submodule": (_submodule_gens, _submodule_scan)}


def _outcome(scan, alg):
    try:
        return scan(alg)
    except MissingProductError as e:
        return str(e)


def _fk_with_a_doubled_product():
    fk = ALGEBRAS["fk"]
    mult = fk.mult.copy()
    pair = next(iter(mult.table))
    mult.table[pair] = mult.table[pair].scale(2)
    return MDGAlgebra(fk.complex, mult)


@pytest.mark.parametrize("name,mult", TABLES)
def test_the_triple_scan_agrees_with_the_full_scan(name, mult):
    # witnesses and generators are compared as Elements, by value; a partial
    # table must raise the same MissingProductError
    alg = load_fixture(name).algebra(mult)
    for kind, (scan, reference) in SCANS.items():
        expected = _outcome(reference, alg)
        assert _outcome(scan, alg) == expected, kind


def test_the_triple_scan_finds_the_full_scan_witness_of_a_doubled_product():
    alg = _fk_with_a_doubled_product()
    expected = _full_scan(alg)
    assert expected is not None
    assert alg.associative_on_basis() == expected


# -- the long exact sequence of 0 -> S -> F -> F/S -> 0 -----------------------

def _cone_of_fk():
    fk = ALGEBRAS["fk"]
    return mapping_cone_extension(fk, fk.ring.var("x"))


LES_ALGEBRAS = {
    "fk": lambda: ALGEBRAS["fk"],
    "fm": lambda: ALGEBRAS["fm"],
    "fa": lambda: ALGEBRAS["fa"],
    "fk_split mu": lambda: load_fixture("fk_split").algebra("mu"),
    "fk + e, d(e) = x": _cone_of_fk,
}


@pytest.mark.parametrize("name", list(LES_ALGEBRAS))
def test_the_three_homologies_have_zero_euler_characteristic(name):
    """sum over i >= 1 of (-1)^i (H_i(S) - H_i(F) + H_i(F/S)) = 0, the Euler
    characteristic of the long exact sequence; degree 0 drops out because
    S_0 = 0, so F_0/S_0 = F_0."""
    alg = LES_ALGEBRAS[name]()
    sub = alg.associator_submodule()
    assert not sub.is_zero() and 0 not in sub.degrees()
    h_s = sub.homology_dims()
    h_f = alg.complex.homology_dims()
    h_q = quotient_homology_dims(alg, sub)
    top = alg.complex.max_degree()
    assert sum((-1) ** i * (h_s.get(i, 0) - h_f[i] + h_q[i])
               for i in range(1, top + 1)) == 0


# -- a map with nonzero square ------------------------------------------------

def test_class_reps_and_annihilation_refuse_a_map_with_nonzero_square():
    text = fixture_path("fa").read_text().replace("d e3 = z*w;",
                                                  "d e3 = 2*z*w;")
    alg = parse_document(text).algebra()
    sub = alg.associator_submodule()
    x = alg.complex.ring.var("x")
    square = r"not a complex: d\^2\(e13\)"
    with pytest.raises(ComplexError, match=square):
        sub.homology_dims()
    with pytest.raises(ComplexError, match=square):
        sub.annihilates_homology(x)
    with pytest.raises(ComplexError, match=square):
        sub.homology_class_reps(1, alg.complex.mdeg_support()[0])


def test_the_annihilation_test_checks_the_complex_once(monkeypatch):
    sub = ALGEBRAS["fa"].associator_submodule()
    calls = []
    check = FreeComplex.check
    monkeypatch.setattr(FreeComplex, "check",
                        lambda cx: calls.append(cx) or check(cx))
    assert sub.annihilates_homology(sub.complex.ring.var("x")) == (True, None)
    assert len(calls) == 1
