"""Linear combinations are accumulated in place into fresh dicts: the inputs,
stored tables, differentials and map values are never mutated, and a sum
that cancels comes back empty.  So the lead a `GCPoly` caches on first use
always matches its terms."""

from mdgkit import load_fixture
from mdgkit.complexes import Element
from mdgkit.groebner import buchberger, mult_ideal, normal_form
from mdgkit.ring import mono_mask

FK = load_fixture("fk").algebra()
SPLIT = load_fixture("fk_split")


def snapshot(mapping):
    """Copy of a dict of Elements or GCPolys, down to their term dicts."""
    return {k: dict(v.coeffs if isinstance(v, Element) else v.terms)
            for k, v in mapping.items()}


def test_normal_form_leaves_its_inputs_alone():
    ctx, gens = mult_ideal(FK)
    f = ctx.gen("e1") * ctx.gen("e2") * ctx.gen("e5")
    f_terms = dict(f.terms)
    basis = dict(enumerate(gens))
    before = snapshot(basis)
    nf, trace = normal_form(f, gens)
    assert trace.steps and not nf.is_zero()
    assert f.terms == f_terms
    assert snapshot(basis) == before
    assert trace.replay(f, gens) == nf
    assert f.terms == f_terms and snapshot(basis) == before
    # a member of the ideal reduces to the empty polynomial
    zero, _ = normal_form(gens[0], gens)
    assert zero.terms == {}


def fresh_lead(p):
    m = max(p.terms, key=p.ctx.order_key)
    return m, mono_mask(m)


def test_cached_leads_match_the_terms_of_every_result():
    ctx, gens = mult_ideal(FK)
    cached = [g.lead() for g in gens]
    basis = buchberger(ctx, gens).elements
    f = ctx.gen("e1") * ctx.gen("e2") * ctx.gen("e5")
    f_lead = f.lead()
    nf, trace = normal_form(f, basis)
    g = gens[0]
    results = basis + [nf, trace.replay(f, basis), g.monic(), g.scale(3),
                       g.term_mul_left(2, ctx.gen("e5").lead_mono())]
    for p in results:
        assert not p.is_zero()
        assert p.lead() == fresh_lead(p)
    assert [g.lead() for g in gens] == cached == [fresh_lead(g) for g in gens]
    assert f.lead() == f_lead == fresh_lead(f)


def test_complex_and_table_operations_leave_their_inputs_alone():
    cx, mult = FK.complex, FK.mult
    diff, table = snapshot(cx.diff), snapshot(mult.table)
    x = cx.elem("e1") + cx.elem("e2")
    x_coeffs = dict(x.coeffs)
    xx = mult.multiply(x, x)
    dd = cx.d(cx.d(cx.elem("e1234") + cx.elem("e123")))
    for value in (xx, dd):
        assert isinstance(value, Element) and value.coeffs == {}
    assert not mult.multiply(x, cx.elem("e3")).is_zero()
    assert not cx.d(cx.elem("e1234")).is_zero()
    assert x.coeffs == x_coeffs
    assert snapshot(cx.diff) == diff
    assert snapshot(mult.table) == table


def test_chain_map_application_leaves_the_images_alone():
    iota, pi = SPLIT.maps["iota"], SPLIT.maps["pi"]
    images = {name: snapshot(m.images) for name, m in SPLIT.maps.items()}
    for name in iota.source.order:
        x = iota.source.elem(name)
        assert pi.apply(iota.apply(x)) == x
    y = iota.source.elem("e12")
    assert pi.apply(iota.apply(y - y)).coeffs == {}
    assert {name: snapshot(m.images) for name, m in SPLIT.maps.items()} \
        == images
