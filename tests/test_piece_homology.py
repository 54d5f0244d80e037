"""`subquotient_homology` computes the homology of each piece once per key,
the set of basis elements and generators whose multidegree divides the
piece's.  It is held here against the loop over every multidegree of the
support that it replaced, kept in this file as the reference."""

import pytest

import mdgkit.complexes as complexes
from mdgkit import linalg, load_fixture
from mdgkit.complexes import ComplexError, Element
from mdgkit.mdg import Submodule, quotient_homology_dims
from mdgkit.ring import laurent_term, mono_div

FIXTURES = ["ex55", "ex6", "fa", "fk", "fk_split", "fm", "fo_full",
            "fo_presentation", "taylor_x2_xy"]

COMPLEXES = [(name, cname) for name in FIXTURES
             for cname in load_fixture(name).complexes]

ALGEBRAS = {"fk": load_fixture("fk").algebra(),
            "fm": load_fixture("fm").algebra(),
            "fa": load_fixture("fa").algebra(),
            "fk_split-mu": load_fixture("fk_split").algebra("mu")}


def every_multidegree(cx, degrees, a=None, b=None):
    """dim H_i(A/B), one rank computation per multidegree of the support."""
    cx.require_complex()
    dims = dict.fromkeys(degrees, 0)
    if not dims:
        return dims
    consts = cx.diff_constants()
    lo, hi = min(dims), max(dims)

    def rank(rows):
        return linalg.rank(rows) if rows else 0

    for md in cx.mdeg_support():
        b_rows = {i: b.span_rows(i, md) if b else []
                  for i in range(lo - 1, hi + 1)}
        a_rows = {i: a.span_rows(i, md) if a else
                  [[int(j == k) for k in range(len(cx.piece_basis(i, md)))]
                   for j in range(len(cx.piece_basis(i, md)))]
                  for i in range(lo, hi + 2)}
        r = {i: rank(cx.d_rows(consts, rows, i, md) + b_rows[i - 1])
             - rank(b_rows[i - 1]) if rows and i > 0 else 0
             for i, rows in a_rows.items()}
        for i in range(lo, hi + 1):
            dims[i] += (rank(a_rows[i]) - rank(b_rows[i])
                        - r[i] - r[i + 1])
    return dims


@pytest.mark.parametrize("name,cname", COMPLEXES,
                         ids=[f"{n}-{c}" for n, c in COMPLEXES])
def test_complex_homology_matches_every_multidegree(name, cname):
    cx = load_fixture(name).complexes[cname]
    assert cx.homology_dims() == every_multidegree(
        cx, range(cx.max_degree() + 1))


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_submodule_and_quotient_homology_match_every_multidegree(name):
    alg = ALGEBRAS[name]
    cx = alg.complex
    sub = alg.associator_submodule()
    degs = sub.degrees()
    assert sub.homology_dims() == every_multidegree(
        cx, range(min(degs), max(degs) + 1), a=sub)
    assert quotient_homology_dims(alg, sub) == every_multidegree(
        cx, range(1, cx.max_degree() + 1), b=sub)


@pytest.mark.parametrize("name", ["fk", "fm", "fa"])
def test_shifted_generators_enter_the_key(name):
    # x*e lies at a multidegree that no basis element has, so pieces with
    # the same basis elements can hold different shifts of the generators
    alg = ALGEBRAS[name]
    cx, ring = alg.complex, alg.ring
    gens = [(f"{v}*{e}", cx.elem(e).scale(ring.var(v)))
            for e in cx.order[1:4] for v in ring.variables[:2]]
    sub = Submodule(alg, gens)
    degs = sub.degrees()
    assert sub.homology_dims() == every_multidegree(
        cx, range(min(degs), max(degs) + 1), a=sub)
    assert quotient_homology_dims(alg, sub) == every_multidegree(
        cx, range(1, cx.max_degree() + 1), b=sub)


@pytest.mark.parametrize("name,support,keys", [
    ("fk", 81, 25), ("fm", 81, 43), ("fa", 36, 21), ("ex6", 81, 16),
    ("fk_split", 81, 25)])
def test_each_key_is_computed_once(monkeypatch, name, support, keys):
    cx = next(iter(load_fixture(name).complexes.values()))
    seen = []
    piece = complexes._piece_homology

    def counted(cx, consts, lo, hi, a, b, md):
        seen.append(md)
        return piece(cx, consts, lo, hi, a, b, md)

    monkeypatch.setattr(complexes, "_piece_homology", counted)
    dims = cx.homology_dims()
    assert len(cx.mdeg_support()) == support
    assert len(seen) == len(set(seen)) == keys
    monkeypatch.undo()
    assert dims == every_multidegree(cx, range(cx.max_degree() + 1))


def test_a_generator_with_a_denominator_is_refused_as_before():
    fk = ALGEBRAS["fk"]
    cx = fk.complex
    m = cx.basis["e1"].mdeg
    lower = tuple(e - 1 if e else 0 for e in m)
    laurent = Element(cx, {"e1": laurent_term(fk.ring, 1,
                                              mono_div(lower, m))})
    sub = Submodule(fk, [("v", laurent)])
    for ours, theirs in [
            (sub.homology_dims,
             lambda: every_multidegree(cx, range(1, 2), a=sub)),
            (lambda: quotient_homology_dims(fk, sub),
             lambda: every_multidegree(cx, range(1, cx.max_degree() + 1),
                                       b=sub))]:
        with pytest.raises(ComplexError) as got:
            ours()
        with pytest.raises(ComplexError) as expected:
            theirs()
        assert str(got.value) == str(expected.value)
        assert "on e1 is not a polynomial" in str(got.value)
