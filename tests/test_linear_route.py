"""The linear route reads only the work the structure constants allow.

Four shortcuts are checked against independent oracles: the sparse triple
enumeration of `MDGAlgebra.basis_associators` against a test-local scan of
every triple, the route rule and the pair leads that the route reads from
the structure constants against the leads of the term order (and the rule
against its per-pair statement), the one
computation of the structure constants per certificate, and the basis that
the route builds on first read against a test-local build from
`mult_ideal` (the certificate and `mdg gb` build no pair relation at
all).  Partial tables
keep the full scan, and the route rule sends them, and complexes whose
degree-0 generators break it, to `buchberger`."""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import mdgkit.cli as cli
import mdgkit.groebner as groebner
from mdgkit import fixture_path, load_fixture
from mdgkit.cli import run_command
from mdgkit.complexes import UNIT, FreeComplex
from mdgkit.constructions import taylor_algebra
from mdgkit.gcalg import GCPoly
from mdgkit.groebner import (LINEAR_STATS, _associator_span,
                             associativity_certificate, buchberger,
                             context_for, mult_ideal)
from mdgkit.mdg import (Homotopy, MDGAlgebra, MissingProductError,
                        Multiplication, perturb_multiplication,
                        random_homotopy)
from mdgkit.parser import Document, format_document, parse_gcpoly
from mdgkit.ring import Ring, mono_div, mono_divides, mono_mask, mono_mul
from test_groebner import _degree_one_presentation

R4 = Ring(["x", "y", "z", "w"])
TAYLOR5 = [(2, 0, 0, 0), (0, 0, 0, 2), (0, 0, 1, 1), (1, 1, 0, 0),
           (0, 1, 1, 0)]
TAYLOR6 = [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 0, 2), (1, 1, 0, 0),
           (0, 1, 1, 0), (0, 0, 1, 1)]
FIXTURES = ["ex55", "ex6", "fa", "fk", "fk_split", "fm", "fo_full",
            "fo_presentation", "taylor_x2_xy"]


def _taylor(ideal):
    return taylor_algebra(R4, [R4.monomial(m) for m in ideal])


def _perturbed(ideal, seed):
    alg = _taylor(ideal)
    return MDGAlgebra(alg.complex, perturb_multiplication(
        alg, random_homotopy(alg, seed)))


def _degree_zero_table(order, unit_square=False):
    """Generators u, v, w of degree 0, declared in `order` between t and
    e, s of degree 1, over Q[x]: u*v = u*u = v*v = x^2*w, w acts as an
    identity on u, v and e, w*w is w (or the unit), e*u = e*v = x*e, and
    every other product is 0.  With w declared before v, e_w outranks
    e_v^2, so a pair relation has a linear lead.  With w*w = 1, [w,w,s] = s
    is found only through the unit in the support of w*w, and [t,w,w] = -t
    only through the unit in the support of w*w times t."""
    ring = Ring(["x"])
    cx = FreeComplex(ring, "Z")
    names = ["t", *order, "e", "s"]
    for n in names:
        cx.add_basis(n, 1 if n in "tes" else 0, (0,) if n == "w" else (1,))
    x = ring.var("x")
    mult = Multiplication(cx)
    products = {("u", "v"): {"w": x ** 2}, ("u", "u"): {"w": x ** 2},
                ("v", "v"): {"w": x ** 2}, ("w", "u"): {"u": 1},
                ("w", "v"): {"v": 1}, ("w", "e"): {"e": 1},
                ("w", "w"): {UNIT: 1} if unit_square else {"w": 1},
                ("e", "u"): {"e": x}, ("e", "v"): {"e": x}}
    for i, a in enumerate(names):
        for b in names[i:]:
            if a != b or a not in "tes":
                value = products.get((a, b), products.get((b, a), {}))
                mult.set_product(a, b, cx.element(value))
    return MDGAlgebra(cx, mult)


def _degree_zero_tables():
    for order in ("wuv", "uvw"):
        for unit_square in (False, True):
            yield pytest.param(
                lambda o=order, q=unit_square: _degree_zero_table(o, q),
                id=f"degree-0-{order}{'-unit' if unit_square else ''}")


def _complete_tables():
    for name in FIXTURES:
        doc = load_fixture(name)
        for mult in doc.mults:
            alg = doc.algebra(mult)
            if alg.defined_everywhere():
                yield pytest.param(lambda d=doc, m=mult: d.algebra(m),
                                   id=f"{name}-{mult}")
    for ideal, label in ((TAYLOR5, "taylor5"), (TAYLOR6, "taylor6")):
        for seed in (1, 2):
            yield pytest.param(lambda i=ideal, s=seed: _perturbed(i, s),
                               id=f"perturbed-{label}-{seed}")
    yield from _degree_zero_tables()


def _full_scan(alg, consts):
    """Every triple (a, b, c) with c at or after a, in lexicographic order,
    with its associator: no degree bound, no candidate rule."""
    names = alg.basis_names()
    for i, a in enumerate(names):
        for b in names:
            for c in names[i:]:
                yield a, b, c, alg._q_associator(consts, a, b, c)


def _nonzero(scan):
    return [t for t in scan if t[3]]


def _same_scans(alg):
    consts = alg.mult.structure_constants()
    assert _nonzero(alg.basis_associators(consts)) == _nonzero(
        _full_scan(alg, consts))


def _same_spans(alg):
    ctx, _ = mult_ideal(alg)
    consts = alg.mult.structure_constants()
    sparse = _associator_span(alg, ctx, consts)
    alg.basis_associators = lambda c: _full_scan(alg, c)
    full = _associator_span(alg, ctx, consts)
    assert sparse[:3] == full[:3]
    assert sparse[3]["triples_read"] <= full[3]["triples_read"]


# -- lever 1: the sparse triple scan -------------------------------------------

@pytest.mark.parametrize("make", _complete_tables())
def test_the_sparse_scan_yields_the_full_scans_associators(make):
    _same_scans(make())


@pytest.mark.parametrize("make", _complete_tables())
def test_the_sparse_scan_spans_the_full_scans_span(make):
    _same_spans(make())


def test_the_sparse_scan_reads_the_disjoint_triples_of_a_taylor_table():
    # a product of a Taylor table is nonzero only on disjoint subsets, so a
    # candidate is a triple of pairwise disjoint subsets, c at or after a
    alg = _taylor(TAYLOR5)
    consts = alg.mult.structure_constants()
    triples = [t[:3] for t in alg.basis_associators(consts)]
    names = alg.basis_names()
    pos = {n: i for i, n in enumerate(names)}

    def disjoint(*subsets):
        seen = "".join(s[1:] for s in subsets)
        return len(set(seen)) == len(seen)

    assert triples == [(a, b, c) for a in names for b in names for c in names
                       if pos[c] >= pos[a] and disjoint(a, b, c)]
    assert all(not v for *_, v in alg.basis_associators(consts))


@st.composite
def _perturbed_taylor_tables(draw):
    """A Taylor table of 3 to 5 monomials perturbed by a homotopy with
    random rational constants on the pairs and targets that
    `mdg.random_homotopy` allows: h(a, b) = q x^(m_a + m_b - m_t) t
    with |t| = |a| + |b| + 1 at most the top degree and m_t dividing
    m_a + m_b, graded-symmetric, zero on odd diagonals."""
    ideal = draw(st.lists(st.tuples(*[st.integers(0, 2)] * 4).filter(any),
                          min_size=3, max_size=5, unique=True))
    alg = _taylor(ideal)
    cx = alg.complex
    names = alg.basis_names()
    h = Homotopy(cx, "h")
    for _ in range(draw(st.integers(1, 8))):
        a, b = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        da, db = cx.basis[a].degree, cx.basis[b].degree
        if (a == b and da % 2) or da + db + 1 > cx.max_degree():
            continue
        mab = mono_mul(cx.basis[a].mdeg, cx.basis[b].mdeg)
        targets = [t for t in cx.names_in_degree(da + db + 1)
                   if mono_divides(cx.basis[t].mdeg, mab)]
        if not targets:
            continue
        t = draw(st.sampled_from(targets))
        q = Fraction(draw(st.integers(-3, 3).filter(bool)),
                     draw(st.integers(1, 3)))
        value = cx.elem(t).scale(cx.ring.monomial(
            mono_div(mab, cx.basis[t].mdeg), q))
        h.set_value(a, b, value)
        if a != b:
            h.set_value(b, a, value if da * db % 2 == 0 else -value)
    assume(h.table)
    return MDGAlgebra(cx, perturb_multiplication(alg, h))


@settings(max_examples=20, deadline=None)
@given(_perturbed_taylor_tables())
def test_the_sparse_scan_agrees_on_random_perturbed_taylor_tables(alg):
    _same_scans(alg)
    _same_spans(alg)


# -- lever 2: the route rule and the pair leads are read from the constants ---

def _every_table():
    for name in FIXTURES:
        doc = load_fixture(name)
        for mult in doc.mults:
            yield pytest.param(lambda d=doc, m=mult: d.algebra(m),
                               id=f"{name}-{mult}")
    yield from _degree_zero_tables()


def _route_by_the_leads(alg):
    """The route as the term order decides it: linear exactly when every
    pair is defined, every pair relation's lead, read by `lead()`, is
    quadratic and no product has the unit in its support."""
    ctx, gens = mult_ideal(alg)
    consts = alg.mult.structure_constants()
    linear = (len(gens) == ctx.n * (ctx.n + 1) // 2
              and all(ctx.mono_total(g.lead_mono()) == 2 for g in gens)
              and not any(UNIT in row for row in consts.values()))
    return "linear" if linear else "buchberger"


def _same_route(alg):
    report = associativity_certificate(alg)
    assert report.route == _route_by_the_leads(alg)
    return report


def _leads_of_the_term_order(report):
    ctx = report.basis.ctx
    witnesses = {id(w) for w in report.witnesses}
    for g in report.basis.elements:
        lead = max(g.terms, key=ctx.order_key)
        assert g.lead() == (lead, mono_mask(lead))
        assert ctx.mono_total(lead) == (1 if id(g) in witnesses else 2)


@pytest.mark.parametrize("make", _every_table())
def test_the_route_rule_picks_the_route_of_the_term_order(make):
    _same_route(make())


# the complete tables that the route rule sends to `buchberger`
FALLBACK = {"degree-0-wuv", "degree-0-wuv-unit", "degree-0-uvw-unit"}
LINEAR_TABLES = [p for p in _complete_tables() if p.id not in FALLBACK]


@pytest.mark.parametrize("make", LINEAR_TABLES)
def test_the_linear_route_records_the_leads_of_the_term_order(make):
    # every pair element's lead is quadratic, every witness's linear
    report = associativity_certificate(make())
    assert report.route == "linear"
    _leads_of_the_term_order(report)


def _eager_basis(alg, witnesses):
    """The linear route's basis built at once from its definition: the
    monic pair relations of `mult_ideal` whose leads hold no pivot, in
    order, each tail reduced by the witnesses, then the witnesses."""
    ctx, gens = mult_ideal(alg)
    pivots = 0
    for w in witnesses:
        pivots |= w.lead()[1]
    out = []
    for f in gens:
        f = f.monic()
        lead, mask = f.lead()
        if mask & pivots:
            continue
        tail, _ = groebner.normal_form(GCPoly(ctx, {
            m: c for m, c in f.terms.items() if m != lead}), witnesses)
        out.append(GCPoly(ctx, {lead: f.terms[lead], **tail.terms}))
    return out + witnesses


@pytest.mark.parametrize("make", LINEAR_TABLES)
def test_the_lazy_basis_is_the_eager_one(make):
    # the size is read before the build, the elements are the definition's,
    # and the witnesses are the built elements with a linear lead
    alg = make()
    report = associativity_certificate(alg)
    basis = report.basis
    assert "elements" not in vars(basis)
    size = len(basis)
    assert "elements" not in vars(basis)
    assert size == len(basis.elements)
    assert ([e.terms for e in basis.elements]
            == [e.terms for e in _eager_basis(alg, report.witnesses)])
    ctx = basis.ctx
    assert basis.linear_elements() == [
        e for e in basis.elements if ctx.mono_total(e.lead_mono()) == 1]


@settings(max_examples=20, deadline=None)
@given(_perturbed_taylor_tables())
def test_the_route_rule_and_the_leads_hold_on_random_perturbed_tables(alg):
    report = _same_route(alg)
    assert report.route == "linear"
    _leads_of_the_term_order(report)


@pytest.mark.parametrize("order, unit_square, route", [
    ("wuv", False, "buchberger"), ("wuv", True, "buchberger"),
    ("uvw", False, "linear"),
    # every lead is quadratic, but w*w = 1 would put the unit into the span
    ("uvw", True, "buchberger"),
])
def test_a_degree_zero_generator_takes_the_fallback(order, unit_square,
                                                    route):
    alg = _degree_zero_table(order, unit_square)
    assert alg.defined_everywhere()
    ctx, gens = mult_ideal(alg)
    assert ctx.degrees[0] == 0
    # a pair relation records no lead: the term order decides it
    assert all(g._lead is None for g in gens)
    linear_leads = [g for g in gens if ctx.mono_total(g.lead_mono()) == 1]
    assert bool(linear_leads) == (order == "wuv")
    report = associativity_certificate(alg)
    assert report.route == route
    oracle = buchberger(ctx, gens)
    assert ({str(e) for e in report.basis.elements}
            == {str(e) for e in oracle.elements})
    assert ({str(w) for w in report.witnesses}
            == {str(w) for w in oracle.linear_elements()})
    assert report.associative == (not oracle.linear_elements())


def _per_pair_rule(ctx, consts):
    """The route rule pair by pair: every pair a <= b of generators is
    defined, and every d in the support of a*b is a generator at or after
    a."""
    names = ctx.names
    return all((a, b) in consts
               and all(d != UNIT and names.index(d) >= i
                       for d in consts[a, b])
               for i, a in enumerate(names) for b in names[i:])


def _fo_full_without_e1_e2():
    # fo_full takes the linear route, so every row it keeps passes
    fo = load_fixture("fo_full").algebra()
    mult = fo.mult.copy()
    del mult.table["e1", "e2"]
    return MDGAlgebra(fo.complex, mult)


def _unit_square():
    # the unit in the support of the first generator's square is all that
    # breaks the rule here
    cx = FreeComplex(Ring(["x"]), "U")
    cx.add_basis("u", 0, (0,))
    mult = Multiplication(cx)
    mult.set_product("u", "u", cx.one)
    return MDGAlgebra(cx, mult)


def _route_rule_tables():
    yield from _every_table()
    yield pytest.param(_unit_square, id="u*u = 1")
    yield from (p for p in _complete_tables() if p.id.startswith("perturbed"))
    for name in ("ex55", "fk", "fa"):
        yield pytest.param(lambda n=name: _degree_one_presentation(n),
                           id=f"{name}-presentation")
    yield pytest.param(_fo_full_without_e1_e2, id="fo_full - e1*e2")


@pytest.mark.parametrize("make", _route_rule_tables())
def test_the_route_rule_is_the_per_pair_rule(make):
    alg = make()
    ctx = context_for(alg.complex)
    consts = alg.mult.structure_constants()
    assert groebner._route_rule(ctx, consts) == _per_pair_rule(ctx, consts)


def test_a_partial_table_is_refused_by_its_count_alone():
    alg = _fo_full_without_e1_e2()
    ctx = context_for(alg.complex)
    consts = alg.mult.structure_constants()
    names = ctx.names
    assert all(d != UNIT and names.index(d) >= names.index(a)
               for (a, b), row in consts.items() for d in row
               if names.index(a) <= names.index(b))
    assert len(consts) == ctx.n ** 2 - 2
    assert not groebner._route_rule(ctx, consts)
    assert groebner._route_rule(
        ctx, {**consts, ("e1", "e2"): {}, ("e2", "e1"): {}})


# -- partial tables keep the full scan -----------------------------------------

def _fk_without(pair):
    fk = load_fixture("fk").algebra()
    mult = fk.mult.copy()
    del mult.table[pair]
    return MDGAlgebra(fk.complex, mult)


# Frozen from the lexicographic scan of every triple within the top degree:
# the pair of the first MissingProductError, or the first witness triple,
# of associative_on_basis, associator_submodule and alternative_on_basis
# (None: no error).
PARTIAL = [
    ("ex55", lambda: load_fixture("ex55").algebra(),
     [("e1", "e12")] * 3),
    ("ex6", lambda: load_fixture("ex6").algebra(), [("e1", "e12")] * 3),
    ("fo_presentation", lambda: load_fixture("fo_presentation").algebra(),
     [("e1", "e12")] * 3),
    ("fk - e1*e2", lambda: _fk_without(("e1", "e2")), [("e1", "e2")] * 3),
    ("fk - e5*e12", lambda: _fk_without(("e5", "e12")),
     [("e5", "e12")] * 3),
    ("fk - e3*e4", lambda: _fk_without(("e3", "e4")),
     [("e1", "e2", "e5"), ("e3", "e4"), ("e3", "e4")]),
    ("fk - e12*e34", lambda: _fk_without(("e12", "e34")),
     [("e1", "e2", "e5"), ("e12", "e34"), None]),
]


@pytest.mark.parametrize("make, expected",
                         [pytest.param(m, e, id=n) for n, m, e in PARTIAL])
def test_a_partial_table_raises_the_missing_product_of_the_full_scan(
        make, expected):
    alg = make()
    assert not alg.defined_everywhere()
    got = []
    for method in ("associative_on_basis", "associator_submodule",
                   "alternative_on_basis"):
        try:
            result = getattr(alg, method)()
        except MissingProductError as e:
            got.append(e.pair)
            continue
        got.append(result[:3] if method == "associative_on_basis" else None)
    assert got == expected


# -- frozen values -------------------------------------------------------------

def test_the_perturbed_taylor7_certificate_keeps_its_witness_count():
    # (basis size, witnesses) frozen from the scan of every triple within
    # the top degree; the basis has w + (n - w)(n - w + 1)/2 elements
    alg = _perturbed(TAYLOR6 + [(1, 0, 1, 0)], 3)
    report = associativity_certificate(alg)
    n, w = 127, len(report.witnesses)
    assert (len(report.basis), w) == (7148, 8)
    assert len(report.basis) == w + (n - w) * (n - w + 1) // 2
    assert report.route == "linear"
    assert report.basis.stats["span_rank"] == w


# -- lever 3 and the reduce satellite ------------------------------------------

def test_a_certificate_computes_the_structure_constants_once(monkeypatch):
    calls = []
    original = Multiplication.structure_constants

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Multiplication, "structure_constants", counted)
    for name in ("fk", "ex6"):
        calls.clear()
        associativity_certificate(load_fixture(name).algebra())
        assert len(calls) == 1


def _counting(monkeypatch):
    """Count the calls of `mult_ideal`, `normal_form` and `GCPoly.monic`,
    wherever the library reads them."""
    calls = {"mult_ideal": 0, "normal_form": 0, "monic": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    for module in (groebner, cli):
        monkeypatch.setattr(module, "mult_ideal",
                            counted("mult_ideal", groebner.mult_ideal))
    monkeypatch.setattr(groebner, "normal_form",
                        counted("normal_form", groebner.normal_form))
    monkeypatch.setattr(GCPoly, "monic", counted("monic", GCPoly.monic))
    return calls


def _constructions(monkeypatch):
    """The `GCPoly`s that `groebner` constructs, in order."""
    built = []

    def counted(*args, **kwargs):
        built.append(GCPoly(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(groebner, "GCPoly", counted)
    return built


def _document(name, mult, tmp_path):
    """(algebra, document path): a fixture's table, or the Taylor-6 table,
    plain or perturbed at seed 1, written to a document that `mdg` reads."""
    if name in FIXTURES:
        return load_fixture(name).algebra(mult), fixture_path(name)
    alg = _taylor(TAYLOR6) if name == "taylor6" else _perturbed(TAYLOR6, 1)
    doc = Document()
    doc.ring = alg.complex.ring
    doc.complexes[alg.complex.name] = alg.complex
    doc.mults[alg.mult.name] = alg.mult
    path = tmp_path / f"{name}.mdg"
    path.write_text(format_document(doc))
    return alg, path


@pytest.mark.parametrize("name, mult, expr", [
    ("fk", None, "e1*e5*e2"), ("fa", None, "e1*e2*e5"),
    ("fo_full", None, "e1*e2*e3"), ("fk_split", "nu", "e1*e2"),
    ("taylor_x2_xy", None, "e1*e2"), ("taylor6", None, "e1*e2*e3"),
    ("perturbed-taylor6-1", None, "e1*e2*e3"),
])
def test_the_linear_route_builds_its_basis_without_the_engine(
        monkeypatch, capsys, tmp_path, name, mult, expr):
    alg, path = _document(name, mult, tmp_path)
    calls = _counting(monkeypatch)
    built = _constructions(monkeypatch)
    report = associativity_certificate(alg)
    assert report.route == "linear"
    assert calls == {"mult_ideal": 0, "normal_form": 0, "monic": 0}
    # the certificate and gb build the witnesses, and no pair relation
    assert built == report.witnesses
    assert bool(built) == (name in ("fk", "fa", "perturbed-taylor6-1"))
    built.clear()
    options = ["--mult", mult] if mult else []
    assert run_command(["gb", str(path), "--json"] + options) == (
        0 if report.associative else 1)
    payload = json.loads(capsys.readouterr().out)
    assert [str(w) for w in built] == payload["witnesses"]
    assert payload["basis_size"] == len(report.basis)
    built.clear()
    # reduce: one normal form, of the expression, against the whole basis,
    # which it builds (its pair relations and witnesses, then the remainder)
    argv = ["reduce", str(path), "--expr", expr]
    assert run_command(argv + options) == 0
    capsys.readouterr()
    assert calls == {"mult_ideal": 0, "normal_form": 1, "monic": 0}
    assert len(built) == len(report.basis) + 1


def _no_completion(*args, **kwargs):
    raise AssertionError("buchberger ran")


@pytest.mark.parametrize("name, expr", [
    ("fk", "e1*e2"), ("fk", "x*e1*e2 - x*e12"), ("fk", "e1*e5*e2"),
    ("fa", "e1*e2*e5"), ("fo_full", "e1*e2*e3"),
])
def test_reduce_on_a_complete_table_runs_no_completion(
        monkeypatch, capsys, name, expr):
    # the normal form against the linear route's basis is the one against
    # buchberger's: both are the reduced basis of the ideal
    ctx, gens = mult_ideal(load_fixture(name).algebra())
    want, _ = buchberger(ctx, gens).reduce(parse_gcpoly(expr, ctx))
    monkeypatch.setattr(groebner, "buchberger", _no_completion)
    argv = ["reduce", str(fixture_path(name)), "--expr", expr, "--json"]
    assert run_command(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["normal_form"] == str(want)
    assert set(payload["stats"]) == set(LINEAR_STATS)


def test_reduce_on_a_partial_table_still_completes(monkeypatch, capsys):
    monkeypatch.setattr(groebner, "buchberger", _no_completion)
    with pytest.raises(AssertionError, match="buchberger ran"):
        run_command(["reduce", str(fixture_path("ex6")), "--expr", "e1*e2"])
