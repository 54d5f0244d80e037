"""Buchberger engine: S-polynomials, normal forms, traces, certificates.

The 13-generator session below is a partial multiplication table on the
resolution of (x^2, w^2, zw, xy, y^2z^2); reducing the S-polynomial of the
two relations involving e1*e5 and e2*e5 must surface the associator
[e1, e5, e2]."""

import hashlib
import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

import mdgkit.groebner as groebner
from mdgkit import linalg, load_fixture
from mdgkit.complexes import UNIT, Element, FreeComplex
from mdgkit.constructions import taylor_algebra
from mdgkit.gcalg import GCContext, GCPoly
from mdgkit.groebner import (LINEAR_STATS, STATS, PairLimitError,
                             _associator_span, associativity_certificate,
                             buchberger, context_for, element_to_gc,
                             gc_to_element, mult_ideal, normal_form,
                             pair_relation, spoly)
from mdgkit.mdg import (MDGAlgebra, MDGError, Multiplication,
                        perturb_multiplication, random_homotopy)
from mdgkit.parser import parse_gcpoly
from mdgkit.ring import (RationalFunction, Ring, add_term, laurent,
                         laurent_term, mono_div, mono_divides, mono_lcm,
                         mono_mask, mono_mul)
from mdgkit.symdg import _dict_rank

R4 = Ring(["x", "y", "z", "w"])

SESSION_NAMES = ["e1", "e2", "e5",
                 "e12", "e14", "e23", "e35", "e45",
                 "e123", "e124", "e134", "e234", "e345"]
SESSION_DEGS = [1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3]
SESSION_F = [
    "e1*e2 - e12",
    "e1*e5 - y*z^2*e14 - x*e45",
    "e2*e5 - y^2*z*e23 - w*e35",
    "e2*e45 + y*z*e234 - w*e345",
    "e1*e35 - y*z*e134 + x*e345",
    "e1*e23 - e123",
    "e2*e14 + e124",
]
ASSOCIATOR_152 = "y^2*z*e123 - y*z^2*e124 + y*z*w*e134 - x*y*z*e234"


@pytest.fixture(scope="module")
def session():
    ctx = GCContext(R4, SESSION_NAMES, SESSION_DEGS)
    gens = [parse_gcpoly(s, ctx) for s in SESSION_F]
    return ctx, gens


def test_spoly_cancels_leads(session):
    ctx, gens = session
    for f in gens:
        assert spoly(f, f).is_zero()
    for f in gens:
        for g in gens:
            if f is g:
                continue
            s = spoly(f, g)
            gamma = mono_lcm(f.lead_mono(), g.lead_mono())
            assert gamma not in s.terms


def test_session_associator_surfaces(session):
    ctx, gens = session
    expected = parse_gcpoly(ASSOCIATOR_152, ctx)
    # f15*e2 + e1*f25: the word terms e1e5e2 and e1e2e5 cancel, leaving
    # -(e1*e5)e2 - e1(e2*e5), whose normal form is -((ab)c - a(bc)) with
    # (a,b,c) = (e1,e5,e2) -- i.e. minus the associator
    e1 = parse_gcpoly("e1", ctx)
    e2 = parse_gcpoly("e2", ctx)
    f15 = parse_gcpoly(SESSION_F[1], ctx)
    f25 = parse_gcpoly(SESSION_F[2], ctx)
    s_hand = f15 * e2 + e1 * f25
    nf, _ = normal_form(s_hand, gens)
    assert (nf + expected).is_zero(), str(nf)
    # the engine's S-polynomial of the relations with leads e5*e2 and e1*e5
    f52 = -f25
    s_engine = spoly(f52, f15)
    nf2, _ = normal_form(s_engine, gens)
    assert (nf2 - expected).is_zero() or (nf2 + expected).is_zero()


def test_session_certificate_flags_nonassociativity(session):
    ctx, gens = session
    gb = buchberger(ctx, gens)
    linear = gb.linear_elements()
    assert linear, "the partial table must produce a degree-1 obstruction"
    expected = parse_gcpoly(ASSOCIATOR_152, ctx).monic()
    assert any((p - expected).is_zero() for p in linear)


def test_normal_form_idempotent_and_traced(session):
    ctx, gens = session
    rng = random.Random(7)
    for _ in range(25):
        f = ctx.zero
        for s in rng.sample(SESSION_F, 3):
            c = RationalFunction(R4.const(rng.randint(-3, 3)))
            cof = rng.choice(SESSION_NAMES)
            f = f + parse_gcpoly(s, ctx).term_mul_left(
                c, ctx.gen(cof).lead_mono())
        nf, trace = normal_form(f, gens)
        again, _ = normal_form(nf, gens)
        assert (again - nf).is_zero()
        assert (trace.replay(f, gens) - nf).is_zero()


def test_membership_via_normal_form(session):
    ctx, gens = session
    gb = buchberger(ctx, gens)
    rng = random.Random(11)
    for _ in range(20):
        # random left combinations of generators lie in the ideal
        f = ctx.zero
        for s in rng.sample(SESSION_F, 2):
            cof = ctx.gen(rng.choice(SESSION_NAMES)).lead_mono()
            f = f + parse_gcpoly(s, ctx).term_mul_left(1, cof)
        assert gb.contains_poly(f)
    assert not gb.contains_poly(parse_gcpoly("e1", ctx))


def _odd_support(p):
    return {i for mono in p.terms for i, e in enumerate(mono)
            if e and p.ctx.parity[i]}


def _coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def test_product_criterion_skips_are_sound(session):
    ctx, gens = session
    with_crit = buchberger(ctx, gens, criteria=True)
    without = buchberger(ctx, gens, criteria=False)
    # same ideal: mutual reduction to zero
    for e in with_crit.elements:
        assert without.contains_poly(e)
    for e in without.elements:
        assert with_crit.contains_poly(e)
    # pairs the refined criterion may skip reduce to zero directly
    polys = with_crit.elements
    for i, f in enumerate(polys):
        for g in polys[i + 1:]:
            a, b = f.lead_mono(), g.lead_mono()
            if _coprime(a, b) and not (_odd_support(f) & _odd_support(g)):
                nf, _ = normal_form(spoly(f, g), polys)
                assert nf.is_zero()


def test_coprime_leads_alone_do_not_license_a_skip(session):
    # regression: two basis elements with coprime leads but a shared odd
    # generator in their tails have an S-polynomial leaving a square term
    # behind, so the plain coprime-lead skip would miss a basis element
    ctx, gens = session
    gb = buchberger(ctx, gens)
    square = parse_gcpoly("e134^2", ctx)
    assert gb.contains_poly(square)
    # the two completed-basis elements with leads e1*e35 and e123 both carry
    # e134 in their tails; their S-polynomial is irreducible by the pair
    # itself and is a multiple of e134^2
    lead_135 = parse_gcpoly("e1*e35", ctx).lead_mono()
    lead_123 = parse_gcpoly("e123", ctx).lead_mono()
    f = next(p for p in gb.elements if p.lead_mono() == lead_135)
    g = next(p for p in gb.elements if p.lead_mono() == lead_123)
    assert _odd_support(f) & _odd_support(g)
    nf, _ = normal_form(spoly(f, g), [f, g])
    assert not nf.is_zero()
    assert all(any(e >= 2 for e in m) for m in nf.terms)


def test_taylor_table_certifies_associative():
    R2 = Ring(["x", "y"])
    alg = taylor_algebra(R2, [R2.var("x") ** 2, R2.var("x") * R2.var("y")])
    report = associativity_certificate(alg)
    assert report.associative
    assert not report.undefined_pairs
    assert report.summary() == "associative"


def test_spoly_of_relations_reduces_to_associator_taylor():
    # dual route: the Groebner normal form NF(S(f_jk, f_ij)) equals the
    # associator [e_i, e_j, e_k] computed directly from the table
    R2 = Ring(["x", "y"])
    alg = taylor_algebra(R2, [R2.var("x") ** 2, R2.var("x") * R2.var("y")])
    ctx, gens = mult_ideal(alg)
    names = list(ctx.names)
    for i, ei in enumerate(names):
        for j in range(i + 1, len(names)):
            for k in range(len(names)):
                ej, ek = names[j], names[k]
                if ctx.degrees[i] + ctx.degrees[j] + ctx.mono_degree(
                        ctx.gen(ek).lead_mono()) > alg.complex.max_degree():
                    continue
                f_jk = pair_relation(ctx, alg, ej, ek)
                f_ij = pair_relation(ctx, alg, ei, ej)
                if f_jk.is_zero() or f_ij.is_zero():
                    continue
                nf, _ = normal_form(spoly(f_jk, f_ij), gens)
                assoc = element_to_gc(ctx, alg.associator_names(ei, ej, ek))
                assert (nf - assoc).is_zero(), (ei, ej, ek)


def test_element_round_trip():
    R2 = Ring(["x", "y"])
    alg = taylor_algebra(R2, [R2.var("x") ** 2, R2.var("x") * R2.var("y")])
    ctx = context_for(alg.complex)
    x = alg.complex.element({"e1": R2.var("y"), "e12": -R2.one})
    back = gc_to_element(alg.complex, element_to_gc(ctx, x))
    assert (back.polynomialize() - x).is_zero()


@pytest.mark.parametrize("ideal", ["session", "ex6"])
def test_completed_basis_is_monic_interreduced_and_replayable(session, ideal):
    # on ex6 the pair loop leaves an element whose lead another lead
    # divides, so interreduction has work to do
    if ideal == "session":
        ctx, gens = session
    else:
        ctx, gens = mult_ideal(load_fixture("ex6").algebra())
    basis = buchberger(ctx, gens)
    assert len(basis) == len(basis.elements) > 0
    leads = []
    for e in basis.elements:
        assert isinstance(e, GCPoly)
        assert e.lead_coeff().is_one()
        leads.append(e.lead_mono())
    for i, a in enumerate(leads):
        for j, b in enumerate(leads):
            assert i == j or not mono_divides(a, b), (i, j)
    for f in gens:
        nf, trace = basis.reduce(f)
        assert nf.is_zero()
        assert (trace.replay(f, basis.elements) - nf).is_zero()


def test_pair_limit_raises_a_typed_error():
    ctx, gens = mult_ideal(load_fixture("fk").algebra())
    with pytest.raises(PairLimitError) as info:
        buchberger(ctx, gens, max_pairs=1)
    assert isinstance(info.value, MDGError)
    match = re.fullmatch(r"pair limit of 1 exceeded with (\d+) basis "
                         r"elements; .*", str(info.value))
    assert match
    # the counters reached at the limit: one pair was processed, and the
    # basis held the generators and what that pair derived
    stats = info.value.stats
    assert list(stats) == [*STATS, "basis_size"]
    assert stats["basis_size"] == int(match.group(1))
    assert stats["basis_size"] == len(gens) + stats["derived"]
    assert (stats["chain_skips"] + stats["zero_spolys"]
            + stats["zero_normal_forms"] + stats["derived"]) == 1
    assert stats["pairs_queued"] > 1


def test_star_import_names_exist():
    import mdgkit.groebner as groebner
    namespace = {}
    exec("from mdgkit.groebner import *", namespace)
    assert set(groebner.__all__) <= set(namespace)
    assert "PairLimitError" in groebner.__all__


def _plain_normal_form(f, basis):
    """Reference reduction: the degree as an explicit sum, the lead taken by
    pairwise comparison in the term order, and a linear `mono_divides` scan
    over the basis leads with no support masks.  Returns (terms, steps)."""
    degrees = f.ctx.degrees

    def greater(a, b):
        da = sum(e * d for e, d in zip(a, degrees))
        db = sum(e * d for e, d in zip(b, degrees))
        if da != db:
            return da > db
        for x, y in zip(a, b):
            if x != y:
                return x > y
        return False

    def lead(terms):
        best = None
        for m in terms:
            if best is None or greater(m, best):
                best = m
        return best

    leads = [lead(g.terms) if g.terms else None for g in basis]
    work, remainder, steps = dict(f.terms), {}, []
    while work:
        m = lead(work)
        i = next((i for i, lm in enumerate(leads)
                  if lm is not None and mono_divides(lm, m)), None)
        if i is None:
            remainder[m] = work.pop(m)
            continue
        cof = tuple(y - x for x, y in zip(leads[i], m))
        t = basis[i].term_mul_left(1, cof)
        c = work[m] * t.terms[m].inverse()
        for tm, tc in t.terms.items():
            add_term(work, tm, -(c * tc))
        steps.append((i, cof, c))
    return remainder, steps


@pytest.mark.parametrize("name", ["fk", "fa", "ex6"])
def test_normal_form_matches_the_plain_scan(name):
    # every generator, and the S-polynomial of every pair of generators
    # whose leads share a generator (the pairs no criterion may skip)
    ctx, gens = mult_ideal(load_fixture(name).algebra())
    basis = buchberger(ctx, gens).elements
    spolys = [spoly(f, g) for i, f in enumerate(gens) for g in gens[i + 1:]
              if not _coprime(f.lead_mono(), g.lead_mono())]
    for f in gens + spolys:
        nf, trace = normal_form(f, basis)
        terms, steps = _plain_normal_form(f, basis)
        assert nf.terms == terms
        assert trace.steps == steps


def test_normal_form_matches_the_plain_scan_on_a_basis_that_is_not_monic():
    # the lifted leads are -2x or -1, so every step takes the general
    # quotient or the sign flip instead of the monic shortcut
    ctx, gens = mult_ideal(load_fixture("fa").algebra())
    c = laurent_term(ctx.ring, -2, (1, 0, 0, 0))
    basis = [g.scale(c) if i % 2 else -g
             for i, g in enumerate(buchberger(ctx, gens).elements)]
    for f in gens:
        nf, trace = normal_form(f, basis)
        terms, steps = _plain_normal_form(f, basis)
        assert nf.terms == terms
        assert trace.steps == steps


_leads6 = st.tuples(*[st.integers(0, 2)] * 6)
_UNIT6 = (0,) * 6


@settings(max_examples=200, deadline=None)
@given(st.lists(_leads6, min_size=1, max_size=10),
       st.lists(st.integers(0, 11), max_size=40),
       st.lists(_leads6, max_size=4))
def test_the_mask_index_finds_the_divisors_of_the_plain_scan(pool, picks,
                                                             queries):
    # leads drawn from a small pool repeat; the unit lead (mask 0) is in the
    # pool and a pick past its end is a zero element.  The full-support
    # query has more submasks (64) than the list has groups, so its lookup
    # scans the groups; the unit and single-generator queries enumerate
    # submasks once the list has two groups.
    ctx = GCContext(R4, [f"g{i}" for i in range(6)], [1, 1, 2, 2, 3, 3])
    one = laurent(R4, 1)
    pool = pool + [_UNIT6]
    leads = [pool[k] if k < len(pool) else None for k in picks]
    basis = [GCPoly(ctx, {} if lm is None else {lm: one}) for lm in leads]
    index = groebner._LeadList(basis)
    for m in queries + [_UNIT6, (0, 0, 1, 0, 0, 0), (2,) * 6]:
        plain = [i for i, lm in enumerate(leads)
                 if lm is not None and mono_divides(lm, m)]
        assert sorted(index.divisors(m, mono_mask(m))) == plain
        assert index.first_divisor(m, mono_mask(m)) == next(iter(plain), None)
        nf, trace = normal_form(GCPoly(ctx, {m: one}), basis)
        terms, steps = _plain_normal_form(GCPoly(ctx, {m: one}), basis)
        assert nf.terms == terms and trace.steps == steps


class _CountingGroups(dict):
    """A lead index's groups that count the groups probed by `get`."""

    probes = 0

    def get(self, mask, default=None):
        self.probes += 1
        return super().get(mask, default)


def test_a_wide_monomial_scans_the_groups_instead_of_its_submasks():
    # the product of 17 fk generators has 2^17 submasks, against a few
    # hundred groups; its lookup, and every lookup of its reduction, must
    # probe no more groups than a scan visits
    ctx, gens = mult_ideal(load_fixture("fk").algebra())
    basis = buchberger(ctx, gens)
    sign, m = ctx.word_mono(range(17))
    index = basis.elements
    index.groups = _CountingGroups(index.groups)
    groups = len(index.groups)
    assert mono_mask(m).bit_count() == 17 and 1 << 17 > groups
    assert index.first_divisor(m, mono_mask(m)) is not None
    assert index.groups.probes <= groups
    index.groups.probes = 0
    nf, trace = basis.reduce(GCPoly(ctx, {m: laurent(ctx.ring, sign)}))
    assert nf.is_zero() and trace.steps       # one lookup per step
    assert index.groups.probes <= groups * len(trace.steps)


_INDEX_CONTEXTS = {name: context_for(load_fixture(name).algebra().complex)
                   for name in ("fk", "fa", "ex55")}


@st.composite
def _index_script(draw):
    """A fixture context and a script of steps on a lead index: ("append",
    lead or None for a zero element) and ("query", monomial).  Leads have
    at most three generators, queries up to twelve, so that a query has
    divisors and its lookup both enumerates submasks and scans groups."""
    ctx = _INDEX_CONTEXTS[draw(st.sampled_from(sorted(_INDEX_CONTEXTS)))]

    def monomial(size):
        expts = draw(st.dictionaries(st.integers(0, ctx.n - 1),
                                     st.integers(1, 2), max_size=size))
        return tuple(expts.get(i, 0) for i in range(ctx.n))

    steps = []
    for _ in range(draw(st.integers(1, 25))):
        if draw(st.booleans()):
            steps.append(("append", None if draw(st.integers(0, 9)) == 0
                          else monomial(3)))
        else:
            steps.append(("query", monomial(12)))
    return ctx, steps


@settings(max_examples=100, deadline=None)
@given(_index_script())
def test_the_cached_lead_index_answers_as_a_scan_of_the_basis(script):
    # `within` remembers its groups per mask until the next append.  Each
    # appended lead is also queried just before and just after its append:
    # when it opens a new mask group, the answer remembered before the
    # append misses it, and only a cleared cache finds it after.
    ctx, steps = script
    one = ctx.coeff_one
    index, leads = groebner._LeadList(), []

    def check(m):
        mask = mono_mask(m)
        scan = [i for i, lm in enumerate(leads)
                if lm is not None and mono_divides(lm, m)]
        assert sorted(index.divisors(m, mask)) == scan
        assert index.first_divisor(m, mask) == next(iter(scan), None)

    for step, m in steps:
        if step == "query":
            check(m)
            continue
        if m is not None:
            check(m)
        new_group = m is not None and mono_mask(m) not in index.groups
        index.append(GCPoly(ctx, {} if m is None else {m: one}))
        leads.append(m)
        if m is not None:
            check(m)
            assert len(leads) - 1 in index.divisors(m, mono_mask(m))
            assert not new_group or index.groups[mono_mask(m)] == [
                (len(leads) - 1, m if any(e > 1 for e in m) else None)]


# -- the linear route for complete tables -------------------------------------

TAYLOR4 = [(2, 0, 0, 0), (0, 0, 0, 2), (0, 0, 1, 1), (1, 1, 0, 0)]
# (y^2w, yzw, x^2y, xzw) with its variables permuted
TAYLOR4_SEEDED = [tuple(m[p] for p in (2, 0, 3, 1)) for m in
                  [(0, 2, 0, 1), (0, 1, 1, 1), (2, 1, 0, 0), (1, 0, 1, 1)]]
# the Taylor-5 ideal of tools/check_criteria.py
TAYLOR5 = [(2, 0, 0, 0), (0, 0, 0, 2), (0, 0, 1, 1), (1, 1, 0, 0),
           (0, 1, 1, 0)]


def _terms(polys):
    # GCPoly equality needs one context object; term dicts compare across
    return [p.terms for p in polys]


def _complete_table(name):
    if name.startswith("fk_split-"):
        return load_fixture("fk_split").algebra(name[len("fk_split-"):])
    if name.startswith("taylor4"):
        ideal = TAYLOR4 if name == "taylor4" else TAYLOR4_SEEDED
        return taylor_algebra(R4, [R4.monomial(m) for m in ideal])
    if name.startswith("perturbed-taylor5-"):
        # `mdg perturb`'s homotopy at the seed, as tools/check_criteria.py
        alg = taylor_algebra(R4, [R4.monomial(m) for m in TAYLOR5])
        seed = int(name[len("perturbed-taylor5-"):])
        return MDGAlgebra(alg.complex, perturb_multiplication(
            alg, random_homotopy(alg, seed)))
    return load_fixture(name).algebra()


def _no_completion(*args, **kwargs):
    raise AssertionError("the linear route ran Buchberger")


@pytest.mark.parametrize("name", ["fk_split-nu", "taylor_x2_xy", "taylor4",
                                  "taylor4_seeded"])
def test_an_associative_complete_table_is_its_own_basis(name, monkeypatch):
    alg = _complete_table(name)
    ctx, gens = mult_ideal(alg)
    oracle = buchberger(ctx, gens)
    monkeypatch.setattr(groebner, "buchberger", _no_completion)
    report = associativity_certificate(alg)
    assert report.associative and report.route == "linear"
    assert report.witnesses == [] and report.undefined_pairs == []
    assert _terms(report.basis.elements) == _terms(oracle.elements)
    assert oracle.stats["pairs_queued"] > 0
    stats = report.basis.stats
    assert set(stats) == set(LINEAR_STATS)
    assert stats["span_rank"] == 0 and stats["closure_rounds"] == 1
    # taylor_x2_xy has no triple within its top degree 2
    assert (stats["triples_read"] > 0) == (name != "taylor_x2_xy")
    # every pair monomial has a linear normal form under the linear basis
    fast = report.basis
    for i in range(fast.ctx.n):
        for j in range(i, fast.ctx.n):
            _, mono = fast.ctx.word_mono([i, j])
            nf, _ = fast.reduce(GCPoly(fast.ctx, {
                mono: RationalFunction(fast.ctx.ring.one)}))
            assert all(fast.ctx.mono_total(m) <= 1 for m in nf.terms)


@pytest.mark.parametrize("name", ["ex6"])
def test_other_tables_take_the_buchberger_route(name):
    # ex6 is partial, so its pair relations are completed
    alg = load_fixture(name).algebra()
    report = associativity_certificate(alg)
    ctx, gens = mult_ideal(alg)
    oracle = buchberger(ctx, gens)
    assert not report.associative and report.route == "buchberger"
    assert _terms(report.basis.elements) == _terms(oracle.elements)
    assert _terms(report.witnesses) == _terms(oracle.linear_elements())


@pytest.mark.parametrize("name", ["fk", "taylor4"])
def test_structure_constants_rebuild_every_product(name):
    alg = _complete_table(name)
    cx = alg.complex
    names = alg.basis_names()
    consts = alg.mult.structure_constants()
    assert set(consts) == {(a, b) for a in names for b in names}
    for (a, b), row in consts.items():
        top = mono_mul(cx.basis[a].mdeg, cx.basis[b].mdeg)
        rebuilt = Element(cx, {d: laurent_term(cx.ring, q, mono_div(
            top, cx.basis[d].mdeg)) for d, q in row.items()})
        assert rebuilt == alg.mult.product(a, b), (a, b)
    # a coefficient of two terms has no single rational constant
    mult = alg.mult.copy()
    a, b = next(k for k, v in mult.table.items() if not v.is_zero())
    d = next(iter(mult.table[a, b].coeffs))
    mult.set_product(a, b, cx.element({d: cx.ring.var("x")
                                       + cx.ring.var("y")}))
    with pytest.raises(MDGError, match="not multihomogeneous"):
        mult.structure_constants()


@pytest.mark.parametrize("name", ["fk", "fa", "fm", "fk_split-mu",
                                  "fo_full"])
def test_the_linear_route_matches_buchberger(name, monkeypatch):
    # the same term dicts in the same order: the pair part, then the
    # witnesses in ascending lead order; fk_split-nu and taylor_x2_xy are
    # checked in the same way by the associative test above
    alg = _complete_table(name)
    ctx, gens = mult_ideal(alg)
    oracle = buchberger(ctx, gens)
    monkeypatch.setattr(groebner, "buchberger", _no_completion)
    report = associativity_certificate(alg)
    assert report.route == "linear" and report.undefined_pairs == []
    assert report.associative == (name == "fo_full")
    assert _terms(report.basis.elements) == _terms(oracle.elements)
    assert _terms(report.witnesses) == _terms(oracle.linear_elements())
    stats = report.basis.stats
    assert set(stats) == set(LINEAR_STATS) and stats["triples_read"] > 0
    assert stats["span_rank"] == len(report.witnesses)


@pytest.mark.parametrize("name, rank", [("fk", 2), ("fa", 2), ("fm", 2),
                                        ("fk_split-mu", 2),
                                        ("fk_split-nu", 0), ("fo_full", 0),
                                        ("taylor_x2_xy", 0),
                                        ("perturbed-taylor5-1", 4),
                                        ("perturbed-taylor5-2", 6)])
def test_the_associator_submodule_has_rank_dim_s_prime(name, rank):
    # the paper's two perspectives agree.  The first saturates the basis
    # associators into a submodule; the second closes their span S' under
    # left multiplication.  Each generator of the submodule is an
    # associator or a left product of one, and a monomial shift keeps its
    # rational vector, so the Q-span of the generators' constants is S'.
    # Its dimension is the K-rank of the generators, one witness each
    alg = _complete_table(name)
    sub = alg.associator_submodule()
    assert _dict_rank([v.coeffs for _, v, _, _ in sub.gens]) == rank
    ctx, _ = mult_ideal(alg)
    columns, span, _, _ = _associator_span(
        alg, ctx, alg.mult.structure_constants())
    assert all(set(c) <= set(columns) for c in sub._consts)
    gens = [[c.get(k, 0) for k in columns] for c in sub._consts]
    assert linalg.rank(gens) == linalg.rank(span) == linalg.rank(
        gens + span) == rank
    report = associativity_certificate(alg)
    assert report.route == "linear"
    assert report.basis.stats["span_rank"] == len(report.witnesses) == rank


def _declared_top_degree_first(alg):
    """The same table on a copy of the complex whose basis is declared in
    decreasing homological degree."""
    cx = alg.complex
    out = FreeComplex(cx.ring, cx.name)
    for n in reversed(cx.order):
        if n != UNIT:
            out.add_basis(n, cx.basis[n].degree, cx.basis[n].mdeg)
    mult = Multiplication(out, alg.mult.name)
    for (a, b), value in alg.mult.table.items():
        mult.set_product(a, b, Element(out, dict(value.coeffs)))
    return MDGAlgebra(out, mult)


def test_the_triple_check_does_not_depend_on_the_declaration_order():
    alg = _declared_top_degree_first(load_fixture("fa").algebra())
    assert alg.associative_on_basis() is not None
    assert not associativity_certificate(alg).associative


def _minimal_generators(monos):
    """At most four of the monomials that no other one divides."""
    return [m for m in monos
            if not any(n != m and mono_divides(n, m) for n in monos)][:4]


_monomial = st.tuples(*[st.integers(0, 2)] * 4).filter(any)


@settings(max_examples=10, deadline=None)
@given(st.lists(_monomial, min_size=3, max_size=6, unique=True)
       .map(_minimal_generators).filter(lambda ideal: len(ideal) >= 3))
def test_taylor_certificates_agree_with_buchberger(ideal):
    alg = taylor_algebra(R4, [R4.monomial(m) for m in ideal])
    report = associativity_certificate(alg)
    ctx, gens = mult_ideal(alg)
    assert report.associative
    assert _terms(report.basis.elements) == _terms(
        buchberger(ctx, gens).elements)


@settings(max_examples=10, deadline=None)
@given(st.lists(_monomial, min_size=3, max_size=6, unique=True)
       .map(_minimal_generators).filter(lambda ideal: len(ideal) >= 3),
       st.integers(0, 10 ** 6))
def test_the_linear_route_matches_buchberger_on_perturbed_taylor_tables(
        ideal, seed):
    alg = taylor_algebra(R4, [R4.monomial(m) for m in ideal])
    h = random_homotopy(alg, seed)
    assume(h.table)
    algh = MDGAlgebra(alg.complex, perturb_multiplication(alg, h))
    report = associativity_certificate(algh)
    ctx, gens = mult_ideal(algh)
    oracle = buchberger(ctx, gens)
    assert report.route == "linear"
    assert _terms(report.basis.elements) == _terms(_route_order(oracle))


def _route_order(basis):
    """The completed basis with its witnesses sorted into ascending lead
    order, the order of the linear route.  The completion lists them in the
    order it derives them, which can differ on larger tables."""
    key = basis.ctx.order_key
    return sorted(basis.elements, key=lambda e: (
        (1, key(e.lead_mono())) if basis.ctx.mono_total(e.lead_mono()) == 1
        else (0,)))


# -- the pair criteria against the criterion-free run --------------------------

def _degree_one_presentation(name):
    """The table of a fixture cut down to the products of two degree-1
    basis elements; completion derives the rest."""
    alg = load_fixture(name).algebra()
    cx = alg.complex
    partial = Multiplication(cx, "presentation")
    for a, b in alg.mult.stored_pairs():
        if cx.basis[a].degree == cx.basis[b].degree == 1:
            partial.set_product(a, b, alg.mult.product(a, b))
    return MDGAlgebra(cx, partial)


ORACLE_TABLES = {
    "fk": (lambda: load_fixture("fk").algebra(), 155),
    "fa": (lambda: load_fixture("fa").algebra(), 122),
    "ex6": (lambda: load_fixture("ex6").algebra(), 40),
    "fk presentation": (lambda: _degree_one_presentation("fk"), 92),
    "fa presentation": (lambda: _degree_one_presentation("fa"), 79),
}


def _same_basis_without_criteria(alg):
    """The default completion and the criterion-free one, which reduces
    every S-pair, give the same term dicts in the same order.  Returns the
    default basis."""
    ctx, gens = mult_ideal(alg)
    basis = buchberger(ctx, gens)
    oracle = buchberger(ctx, gens, criteria=False)
    assert _terms(basis.elements) == _terms(oracle.elements)
    assert (oracle.stats["monomial_skips"] == oracle.stats["product_skips"]
            == oracle.stats["chain_skips"] == 0)
    return basis


@pytest.mark.parametrize("name", list(ORACLE_TABLES))
def test_the_pair_criteria_agree_with_the_criterion_free_run(name):
    make, size = ORACLE_TABLES[name]
    basis = _same_basis_without_criteria(make())
    assert len(basis) == size


def _taylor_without_one_product(ideal, drop):
    alg = taylor_algebra(R4, [R4.monomial(m) for m in ideal])
    mult = alg.mult.copy()
    del mult.table[sorted(mult.table)[drop % len(mult.table)]]
    return MDGAlgebra(alg.complex, mult)


@settings(max_examples=10, deadline=None)
@given(st.lists(_monomial, min_size=3, max_size=5, unique=True)
       .map(_minimal_generators).filter(lambda ideal: len(ideal) == 3),
       st.integers(0, 10 ** 6))
def test_criteria_agree_on_taylor_tables_without_one_product(ideal, drop):
    _same_basis_without_criteria(_taylor_without_one_product(ideal, drop))


def test_the_chain_criterion_skips_pairs_on_fk():
    ctx, gens = mult_ideal(load_fixture("fk").algebra())
    stats = buchberger(ctx, gens).stats
    assert set(stats) == set(groebner.STATS)
    assert stats["chain_skips"] > 0 and stats["product_skips"] > 0
    # every queued pair is popped once: skipped, or reduced to zero, or the
    # source of one derived element
    assert stats["derived"] == 2 == (
        stats["pairs_queued"] - stats["chain_skips"] - stats["zero_spolys"]
        - stats["zero_normal_forms"])


# -- the frozen engine oracle ---------------------------------------------------

# The first 16 hex digits of the sha256 of each completion's basis strings,
# in order, then its counters; recorded with the linear lead scans that the
# mask index replaced.  A changed criterion decision or reducer choice
# changes a counter or the basis.  The criterion-free runs of ex55, fm,
# fo_full, fk_split-nu and fo_presentation take 3-30 s each, so
# `tools/check_criteria.py` checks them.
ORACLE_COUNTERS = ("pairs_queued", "monomial_skips", "product_skips",
                   "chain_skips", "zero_spolys", "zero_normal_forms",
                   "reduction_steps", "derived")
FROZEN_RUNS = {
    ("ex55", True): "1058ddf6ea382b1c",
    ("ex6", True): "be6ac996fbe020b3",
    ("ex6", False): "04131249026a9b1f",
    ("fa", True): "9e4610eee51c612c",
    ("fa", False): "415cbdd1506cf720",
    ("fk", True): "971ca05185f3106c",
    ("fk", False): "110cbb19192fa8bc",
    ("fk_split-mu", True): "971ca05185f3106c",
    ("fk_split-mu", False): "110cbb19192fa8bc",
    ("fk_split-nu", True): "8da8149d5746df0d",
    ("fm", True): "b2c17460b71b5901",
    ("fo_full", True): "0d718c3be5c09bcc",
    ("fo_presentation", True): "b855ca0311fda3c3",
    ("taylor_x2_xy", True): "2e4454c135de9073",
    ("taylor_x2_xy", False): "96c1d89a481f9288",
    ("ex55 presentation", True): "26bce68c96d2e4ff",
    ("ex55 presentation", False): "80504037a985b187",
    ("fk presentation", True): "a90ccc5d96e1be05",
    ("fk presentation", False): "3a33ef17b903d684",
    ("fa presentation", True): "970bb789bf586627",
    ("fa presentation", False): "c2b9bb278f4e5de0",
}


def _fingerprint(basis):
    lines = [str(e) for e in basis.elements]
    lines.append(" ".join(f"{k}={basis.stats[k]}" for k in ORACLE_COUNTERS))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name, criteria", list(FROZEN_RUNS),
                         ids=[f"{n} criteria {'on' if c else 'off'}"
                              for n, c in FROZEN_RUNS])
def test_the_engine_matches_its_frozen_runs(name, criteria):
    ctx, gens = mult_ideal(_frozen_table(name))
    basis = buchberger(ctx, gens, criteria=criteria)
    assert _fingerprint(basis) == FROZEN_RUNS[name, criteria]


def _frozen_table(name):
    if name.endswith(" presentation"):
        return _degree_one_presentation(name.split()[0])
    return _complete_table(name)


def _assert_every_pair_is_queued_or_kept_out(ctx, gens,
                                             runs=(True, False)):
    """The completions with and without criteria (as listed in runs)
    account for every pair of their N = inputs + derived elements: it is
    queued or kept out of the queue by the monomial or the product
    criterion, and the criterion-free run queues all N(N-1)/2."""
    inputs = sum(1 for g in gens if not g.is_zero())
    for criteria in runs:
        stats = buchberger(ctx, gens, criteria=criteria).stats
        n = inputs + stats["derived"]
        kept_out = stats["monomial_skips"] + stats["product_skips"]
        assert stats["pairs_queued"] + kept_out == n * (n - 1) // 2
        assert criteria or kept_out == 0


@pytest.mark.parametrize("name, criteria", list(FROZEN_RUNS),
                         ids=[f"{n} criteria {'on' if c else 'off'}"
                              for n, c in FROZEN_RUNS])
def test_every_pair_is_queued_or_kept_out_by_a_criterion(name, criteria):
    _assert_every_pair_is_queued_or_kept_out(
        *mult_ideal(_frozen_table(name)), [criteria])


@settings(max_examples=10, deadline=None)
@given(st.lists(_monomial, min_size=3, max_size=6, unique=True)
       .map(_minimal_generators).filter(lambda ideal: len(ideal) >= 3),
       st.integers(0, 10 ** 6))
def test_every_pair_is_queued_or_kept_out_on_perturbed_taylor_tables(
        ideal, seed):
    alg = taylor_algebra(R4, [R4.monomial(m) for m in ideal])
    h = random_homotopy(alg, seed)
    assume(h.table)
    algh = MDGAlgebra(alg.complex, perturb_multiplication(alg, h))
    _assert_every_pair_is_queued_or_kept_out(*mult_ideal(algh))


def test_reduction_steps_count_the_steps_of_the_spoly_normal_forms(
        monkeypatch):
    # the steps of the normal forms of S-polynomials, not of interreduction
    ctx, gens = mult_ideal(_degree_one_presentation("fk"))
    spolys, steps = [], []

    def traced_spoly(f, g, *rest):
        spolys.append(spoly(f, g, *rest))
        return spolys[-1]

    def traced_normal_form(f, basis):
        nf, trace = normal_form(f, basis)
        if spolys and f is spolys[-1]:
            steps.append(len(trace.steps))
        return nf, trace

    monkeypatch.setattr(groebner, "spoly", traced_spoly)
    monkeypatch.setattr(groebner, "normal_form", traced_normal_form)
    stats = buchberger(ctx, gens).stats
    assert len(steps) == len(spolys) - stats["zero_spolys"] > 0
    assert stats["reduction_steps"] == sum(steps) > 0


@pytest.mark.parametrize("make", [lambda: load_fixture("fk").algebra(),
                                  lambda: load_fixture("fa").algebra(),
                                  lambda: _degree_one_presentation("fk"),
                                  lambda: _degree_one_presentation("fa")],
                         ids=["fk", "fa", "fk presentation",
                              "fa presentation"])
def test_no_pair_of_single_term_elements_reaches_spoly(make):
    # on these completions every vanishing S-polynomial came from a pair of
    # single-term elements; the monomial criterion keeps them all off the
    # queue
    ctx, gens = mult_ideal(make())
    stats = buchberger(ctx, gens).stats
    assert stats["zero_spolys"] == 0 and stats["monomial_skips"] > 0


def _general_spoly(f, g):
    """The S-polynomial by the general formula u - v.scale(r), lifting
    every coefficient through a product with laurent(1)."""
    def lift(p, mono):
        one = laurent(p.ctx.ring, 1)
        terms = {}
        for m, c in p.terms.items():
            s, pm = p.ctx.mono_mul_signed(mono, m)
            add_term(terms, pm, one * c if s == 1 else -(one * c))
        return GCPoly(p.ctx, terms)
    a, b = f.lead_mono(), g.lead_mono()
    gamma = mono_lcm(a, b)
    u, v = lift(f, mono_div(gamma, a)), lift(g, mono_div(gamma, b))
    return u - v.scale(u.terms[gamma] * v.terms[gamma].inverse())


def test_spoly_of_monic_elements_is_the_general_formula():
    ctx, gens = mult_ideal(_degree_one_presentation("fk"))
    elements = buchberger(ctx, gens).elements
    rng = random.Random(5)
    pairs = [rng.sample(range(len(elements)), 2) for _ in range(150)]
    x = laurent_term(ctx.ring, 2, (1, 0, 0, 0))
    for i, j in pairs:
        f, g = elements[i], elements[j]
        assert f.lead_coeff().is_one() and g.lead_coeff().is_one()
        assert spoly(f, g).terms == _general_spoly(f, g).terms
        # a lead ratio other than +-1 takes the scaling pass
        assert spoly(f.scale(x), g).terms == _general_spoly(f.scale(x), g).terms
