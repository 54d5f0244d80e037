"""The truncated symmetric DG algebra: bigraded differential, presentation
of the maximal associative quotient, splitting certificates, tensor-power
models and symmetrized homotopies.

The dimension pairs frozen below were each computed by two independent
routes (normal-form kernels against a completed relation basis on one side,
ranks of the generated associator subcomplex on the other) before being
recorded.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import test_gcalg
from mdgkit import load_fixture
from mdgkit import symdg as sg
from mdgkit.complexes import UNIT, Element, FreeComplex
from mdgkit.constructions import taylor_algebra
from mdgkit.gcalg import GCPoly
from mdgkit.mdg import ChainMap
from mdgkit.ring import Ring, add_term, laurent, laurent_term, mono_div


@pytest.fixture(scope="module")
def taylor2():
    R = Ring(["x", "y"])
    return taylor_algebra(R, [R.var("x") ** 2, R.var("x") * R.var("y")])


@pytest.fixture(scope="module")
def sym2(taylor2):
    return sg.build_sym(taylor2.complex, 4)


@pytest.fixture(scope="module")
def fk():
    return load_fixture("fk").algebra()


# -- the bigraded model -------------------------------------------------------


def test_components_of_the_two_generator_example(sym2):
    # homological degree 3 is spanned by e1*e12 and e2*e12; degree 4 by
    # e12^2 and e1*e2*e12 (the even generator squares freely)
    assert sym2.component_names(3, 2) == ["e1*e12", "e2*e12"]
    assert sym2.component_names(4, 2) == ["e12^2"]
    assert sym2.component_names(4, 3) == ["e1*e2*e12"]
    assert sym2.component_names(2, 2) == ["e1*e2"]  # odd squares are gone
    dims = sym2.dims()
    assert dims[(0, 0)] == 1 and dims[(1, 1)] == 2
    assert (3, 3) not in dims  # e1^2*e2 and friends do not exist


def test_bigraded_differential_axioms(sym2):
    assert sym2.check() == []


def test_product_cycle_of_the_example(sym2, taylor2):
    R = taylor2.ring
    p = sym2.mul(sym2.gen("e1"), sym2.gen("e2")) \
        - sym2.gen("e12").scale(R.var("x"))
    assert sym2.d(p).is_zero()
    # and the two parts of d land where the bigrading says they must
    prod = sym2.mul(sym2.gen("e1"), sym2.gen("e2"))
    keep = sym2.d_keep(prod)
    drop = sym2.d_drop(prod)
    assert keep.is_zero()  # both factors sit in homological degree 1
    assert all(sym2.ctx.mono_total(m) == 1 for m in drop.terms)


def test_trivial_complex():
    R = Ring(["x", "y"])
    S = sg.build_sym(FreeComplex(R, "T"), 4)
    assert S.dims() == {(0, 0): 1}
    assert S.check() == []


def test_truncation_guards(sym2, taylor2):
    with pytest.raises(sg.SymError):
        sg.build_sym(taylor2.complex, 0)
    big = sym2.mul(sym2.mul(sym2.gen("e12"), sym2.gen("e12")),
                   sym2.mul(sym2.gen("e1"), sym2.gen("e2")))
    assert not big.is_zero()  # exactly fills the truncation
    with pytest.raises(sg.SymError):
        sym2.mul(big, sym2.gen("e12"))


# -- the differential over Q against independent routes ----------------------


def _laurent_check(S):
    """The former Laurent `SymDGAlgebra.check`, kept as an oracle: every
    value of d is recomputed from the complex with Laurent coefficients and
    the former word normalization (`test_gcalg.fold_word_mono`)."""
    ctx, cx = S.ctx, S.complex
    words = [[(coeff, None if nm == UNIT else ctx.index(nm))
              for nm, coeff in cx.d(cx.elem(name)).coeffs.items()]
             for name in ctx.names]

    def diff_split(p):
        keep: dict = {}
        drop: dict = {}
        for mono, coeff in p.terms.items():
            word = [i for i in range(ctx.n) for _ in range(mono[i])]
            prefix = 0
            for j, gi in enumerate(word):
                sign = -1 if prefix & 1 else 1
                rest = word[:j] + word[j + 1:]
                for dcoeff, target in words[gi]:
                    new_word = rest if target is None else (
                        word[:j] + [target] + word[j + 1:])
                    s, new_mono = test_gcalg.fold_word_mono(ctx, new_word,
                                                            strict=True)
                    if s == 0:
                        continue
                    add_term(drop if target is None else keep, new_mono,
                             coeff * dcoeff * (s * sign))
                prefix += ctx.degrees[gi]
        return GCPoly(ctx, keep), GCPoly(ctx, drop)

    def d(p):
        keep, drop = diff_split(p)
        return keep + drop

    def d_keep(p):
        return diff_split(p)[0]

    def d_drop(p):
        return diff_split(p)[1]

    problems = []
    for mono in S.monomials():
        p = S.mono_poly(mono)
        keep, drop = diff_split(p)
        if not d(keep + drop).is_zero():
            problems.append(f"d^2 != 0 at {ctx.format_mono(mono)}")
        if not d_keep(keep).is_zero():
            problems.append(
                f"degree-keeping part does not square to zero at "
                f"{ctx.format_mono(mono)}")
        if not d_drop(drop).is_zero():
            problems.append(
                f"degree-dropping part does not square to zero at "
                f"{ctx.format_mono(mono)}")
        if not (d_keep(drop) + d_drop(keep)).is_zero():
            problems.append(
                f"the two parts of d do not anticommute at "
                f"{ctx.format_mono(mono)}")
        total = ctx.mono_total(mono)
        for t2 in range(1, S.N - total + 1):
            for m2 in S.monomials(total=t2):
                q = S.mono_poly(m2)
                s, _ = ctx.mono_mul_signed(mono, m2, strict=True)
                if s == 0:
                    continue
                deg = ctx.mono_degree(mono)
                lhs = d(S.mul(p, q))
                rhs = S.mul(d(p), q) + \
                    S.mul(p, d(q)).scale(-1 if deg & 1 else 1)
                if not (lhs - rhs).is_zero():
                    problems.append(
                        f"Leibniz fails at {ctx.format_mono(mono)} * "
                        f"{ctx.format_mono(m2)}")
    return problems


@pytest.mark.parametrize("name,n", [("fk", 2), ("fa", 2),
                                    ("taylor_x2_xy", 4)])
def test_the_differential_matches_the_tensor_route(name, n):
    S = sg.build_sym(load_fixture(name).algebra().complex, n)
    for mono in S.monomials():
        p = S.mono_poly(mono)
        dp = S.d(p)
        assert (dp - sg.dehomogenize(S, sg.homogenize(S, p, n).d())).is_zero()
        keep, drop = S.d_keep(p), S.d_drop(p)
        assert (keep + drop - dp).is_zero()
        total = S.ctx.mono_total(mono)
        assert all(S.ctx.mono_total(m) == total for m in keep.terms)
        assert all(S.ctx.mono_total(m) == total - 1 for m in drop.terms)


def _broken(name, gen, target):
    """The fixture's complex with the coefficient of target in d(gen)
    doubled: still multihomogeneous, but no longer a differential."""
    cx = load_fixture(name).algebra().complex
    coeffs = dict(cx.diff[gen].coeffs)
    coeffs[target] = coeffs[target].scale(2)
    cx.diff[gen] = Element(cx, coeffs)
    return cx


@pytest.mark.parametrize("name,n,gen,target,count", [
    ("taylor_x2_xy", 4, "e12", "e2", 24),
    ("fk", 2, "e13", "e3", 108),
])
def test_a_broken_differential_is_reported_as_by_the_laurent_check(
        name, n, gen, target, count):
    S = sg.build_sym(_broken(name, gen, target), n)
    problems = S.check()
    assert len(problems) == count
    assert problems == _laurent_check(S)


def _random_breakages(name, count, seed):
    """count copies of the fixture's complex, each with one entry of d set
    to a random rational times the monomial of its multidegree: the target
    lies in degree |gen| - 1 and its multidegree divides that of gen, so
    degree and multidegree are kept."""
    rng = random.Random(seed)
    for _ in range(count):
        cx = load_fixture(name).algebra().complex
        gen = rng.choice([n for n in cx.order if n != UNIT])
        b = cx.basis[gen]
        target = rng.choice([
            n for n in cx.order
            if (0 if n == UNIT else cx.basis[n].degree) == b.degree - 1
            and all(x <= y for x, y in zip(cx.basis[n].mdeg, b.mdeg))])
        coeffs = dict(cx.diff[gen].coeffs)
        old = coeffs.get(target)
        q = rng.choice([Fraction(k, 2) for k in (-4, -2, -1, 1, 2, 3, 6)
                        if old is None or old.lead_coeff() != Fraction(k, 2)])
        coeffs[target] = laurent_term(
            cx.ring, q, mono_div(b.mdeg, cx.basis[target].mdeg))
        cx.diff[gen] = Element(cx, coeffs)
        yield f"{gen}: {q} on {target}", cx


@pytest.mark.parametrize("name", ["fk", "fa", "fm"])
def test_random_breakages_are_reported_as_by_the_laurent_check(name):
    for what, cx in _random_breakages(name, 3, seed=name):
        S = sg.build_sym(cx, 2)
        assert S.check() == _laurent_check(S), what


def all_pairs_leibniz(S, a, b):
    """The body of the former all-pairs Leibniz loop of `check`, kept as
    the reference: the defect of (e^a, e^b) through `SymDGAlgebra.mul`, and
    None when the product is zero."""
    prod = S.mul(S.mono_poly(a), S.mono_poly(b))
    return S._leibniz_defect(a, b, prod) if prod.terms else None


LEIBNIZ_ALGEBRAS = {
    "fk": sg.build_sym(load_fixture("fk").sole_complex(), 3),
    "fa": sg.build_sym(load_fixture("fa").sole_complex(), 3),
    "T5": sg.build_sym(load_fixture("fk_split").complexes["T5"], 3),
}
LEIBNIZ_MONOMIALS = {name: S.monomials()
                     for name, S in LEIBNIZ_ALGEBRAS.items()}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(LEIBNIZ_ALGEBRAS)), st.data())
def test_leibniz_holds_on_every_pair_not_only_at_generators(name, data):
    # the module docstring's induction, tested against the former loop on
    # random pairs of monomials whose product fits in the truncation
    S, monos = LEIBNIZ_ALGEBRAS[name], LEIBNIZ_MONOMIALS[name]
    a = data.draw(st.sampled_from([m for m in monos if sum(m) < S.N]))
    b = data.draw(st.sampled_from(
        [m for m in monos if 0 < sum(m) <= S.N - sum(a)]))
    assert not all_pairs_leibniz(S, a, b)


def test_a_differential_of_the_wrong_degree_is_refused():
    R = Ring(["x"])
    cx = FreeComplex(R, "F")
    cx.add_basis("a", 1, (1,))
    cx.add_basis("b", 2, (1,))
    cx.set_diff("a", cx.element({UNIT: R.var("x")}))
    # multihomogeneous, but x on the unit lies in degree 0, not 1
    cx.set_diff("b", cx.element({"a": R.one, UNIT: R.var("x")}))
    with pytest.raises(sg.SymError,
                       match=r"d\(b\) has degrees \[0, 1\], expected 1"):
        sg.build_sym(cx, 2)


def test_a_differential_that_is_not_multihomogeneous_is_refused():
    R = Ring(["x", "y"])
    x, y = R.var("x"), R.var("y")
    for value in (x + y, y, R.const(3)):
        cx = FreeComplex(R, "F")
        cx.add_basis("a", 1, (1, 0))
        cx.set_diff("a", cx.element({UNIT: value}))
        with pytest.raises(sg.SymError, match="not multihomogeneous"):
            sg.build_sym(cx, 2)


def test_every_fixture_complex_has_a_multihomogeneous_differential():
    names = ["fk", "fk_split", "fm", "fa", "fo_presentation", "fo_full",
             "ex6", "ex55", "taylor_x2_xy"]
    seen = 0
    for name in names:
        for cx in load_fixture(name).complexes.values():
            assert cx.check() == []
            assert sg.build_sym(cx, 1).check() == []
            seen += 1
    assert seen == 10


# -- linear part of the relation ideal vs. the associator span ----------------


def test_presentation_dimensions_first_resolution(fk):
    rep = sg.presentation_check(fk)
    assert rep.ok()
    assert rep.components == {3: (1, 1), 4: (1, 1)}


def test_presentation_dimensions_cellular_resolution():
    fa = load_fixture("fa").algebra()
    rep = sg.presentation_check(fa)
    assert rep.ok()
    assert rep.components == {3: (1, 1), 4: (1, 1)}


def test_presentation_of_associative_table_is_zero(taylor2):
    rep = sg.presentation_check(taylor2)
    assert rep.ok()
    assert rep.components == {}
    assert rep.summary() == "zero in all degrees"


def test_presentation_needs_a_total_table():
    partial = load_fixture("fo_presentation").algebra()
    with pytest.raises(sg.SymError):
        sg.presentation_check(partial)


def test_multihomogeneous_rows_are_ranked_by_their_rational_parts():
    R = Ring(["x", "y"])
    x, y = R.var("x"), R.var("y")
    # rows of multidegree (2, 0) and (1, 1) over columns of multidegree
    # (1, 0) and (0, 0): each entry is q*x^(D_row - D_col), so the rank is
    # that of the rational parts q
    first = {"a": laurent(R, x), "b": x ** 2}
    assert sg._dict_rank([first, {"a": y, "b": (x * y).scale(2)}]) == 2
    assert sg._dict_rank([first, {"a": y, "b": x * y}]) == 1
    assert sg._dict_rank([{"a": R.zero}]) == 0
    with pytest.raises(sg.SymError, match="not a monomial"):
        sg._dict_rank([{"a": x + y}])


# -- splitting the inclusion --------------------------------------------------


def test_split_witness_of_the_two_generator_example(taylor2):
    w = sg.split_witness(taylor2, truncation=3)
    S = w.sym
    prod = S.mul(S.gen("e1"), S.gen("e2"))
    mono = next(iter(prod.terms))
    assert str(w.table[mono]) == "e1*e2 - (x)*e12"
    for m, theta in w.table.items():
        # projects back to the monomial and lies in the relation ideal
        high = GCPoly(S.ctx, {mm: c for mm, c in theta.terms.items()
                              if S.ctx.mono_total(mm) >= 2})
        assert (high - S.mono_poly(m)).is_zero()
        assert w.basis.reduce(theta)[0].is_zero()
        # chain map against the quotient differential (the total-degree-2
        # row uses only the degree-keeping part of d)
        dm = S.d_keep(S.mono_poly(m)) if S.ctx.mono_total(m) == 2 \
            else S.d(S.mono_poly(m))
        assert (S.d(theta) - w.apply(dm)).is_zero()


def test_split_witness_rejects_non_associative_table(fk):
    with pytest.raises(sg.SymError):
        sg.split_witness(fk, truncation=2)


# -- tensor powers and homogenization -----------------------------------------


def _random_poly(S, rng, max_total):
    R = S.complex.ring
    acc = S.ctx.zero
    for mono in S.monomials():
        if S.ctx.mono_total(mono) > max_total:
            continue
        c = rng.randint(-2, 2)
        if c:
            coeff = R.monomial(tuple(rng.randint(0, 1) for _ in R.variables),
                               Fraction(c))
            acc = acc + GCPoly(S.ctx, {mono: laurent(R, coeff)})
    return acc


def test_homogenize_dehomogenize_round_trip(taylor2):
    S = sg.build_sym(taylor2.complex, 3)
    rng = random.Random(13)
    for _ in range(5):
        p = _random_poly(S, rng, 3)
        t = sg.homogenize(S, p, 3)
        assert t.is_symmetric()
        assert (sg.dehomogenize(S, t) - p).is_zero()
        # both directions commute with the differentials
        assert (sg.homogenize(S, S.d(p), 3) - t.d()).is_zero()
        assert (sg.dehomogenize(S, t.d()) - S.d(p)).is_zero()


def test_homogenize_pads_with_units(taylor2):
    S = sg.build_sym(taylor2.complex, 2)
    t = sg.homogenize(S, S.gen("e1"), 2)
    assert t.terms.keys() == {("1", "e1"), ("e1", "1")}
    assert all(c == Fraction(1, 2) for c in t.terms.values())
    with pytest.raises(sg.SymError):
        sg.homogenize(S, S.mul(S.gen("e1"), S.gen("e2")), 1)


# -- symmetrized homotopies ----------------------------------------------------


def _identity(cx):
    phi = ChainMap(cx, cx, "id")
    for nm in cx.order:
        phi.set_image(nm, cx.elem(nm))
    return phi


def _random_homotopy(cx, rng):
    R = cx.ring
    h = ChainMap(cx, cx, degree=1)
    for nm in cx.order:
        deg = 0 if nm == "1" else cx.basis[nm].degree
        img = cx.zero
        for target in cx.names_in_degree(deg + 1):
            c = rng.randint(-2, 2)
            if c:
                mono = tuple(rng.randint(0, 1) for _ in R.variables)
                img = img + cx.elem(target).scale(R.monomial(mono, Fraction(c)))
        h.images[nm] = img
    return h


def _perturbed(cx, h):
    psi = ChainMap(cx, cx, "psi")
    for nm in cx.order:
        psi.set_image(nm, cx.elem(nm) - cx.d(h.image(nm))
                      - h.apply(cx.d(cx.elem(nm))))
    return psi


@pytest.mark.parametrize("n", [2, 3])
def test_sym_homotopy_between_tensor_powers(taylor2, n):
    cx = taylor2.complex
    rng = random.Random(7 + n)
    phi = _identity(cx)
    h = _random_homotopy(cx, rng)
    psi = _perturbed(cx, h)
    assert psi.check_chain_map() == []
    assert h.is_homotopy_between(phi, psi)
    H = sg.sym_homotopy(phi, psi, h, n)
    names = list(cx.order)
    for _ in range(5):
        t = sg.Tensor(cx, n)
        for _ in range(4):
            t.add_term(tuple(rng.choice(names) for _ in range(n)),
                       Fraction(rng.randint(-2, 2)))
        lhs = H.apply(t).d() + H.apply(t.d())
        rhs = H.endpoint(t, "phi") - H.endpoint(t, "psi")
        assert (lhs - rhs).is_zero()
        assert H.apply(t.symmetrize()).is_symmetric()


def test_sym_homotopy_degenerate_cases(taylor2):
    cx = taylor2.complex
    phi = _identity(cx)
    zero_h = ChainMap(cx, cx, degree=1)
    with pytest.raises(sg.SymError):
        sg.sym_homotopy(phi, phi, zero_h, 0)
    with pytest.raises(sg.SymError):
        sg.sym_homotopy(phi, phi, ChainMap(cx, cx, degree=0), 2)
    Z = sg.sym_homotopy(phi, phi, zero_h, 2)
    S = sg.build_sym(cx, 2)
    t = sg.homogenize(S, S.mul(S.gen("e1"), S.gen("e12")), 2)
    assert Z.apply(t).is_zero()
    # a map that is not a homotopy between the endpoints is rejected
    rng = random.Random(3)
    h = _random_homotopy(cx, rng)
    with pytest.raises(sg.SymError):
        sg.sym_homotopy(phi, phi, h, 2)


# -- the universal multiplicative extension -----------------------------------


def test_ump_extension_to_the_taylor_algebra(taylor2):
    cx = taylor2.complex
    S = sg.build_sym(cx, 4)
    ext = sg.ump_extension(S, _identity(cx), taylor2)
    R = cx.ring
    got = ext(S.mul(S.gen("e1"), S.gen("e2")))
    assert (got - cx.elem("e12").scale(R.var("x"))).is_zero()
    # extends the chain map, commutes with d, and is multiplicative
    for n in ["e1", "e2", "e12"]:
        assert (ext(S.include(cx.elem(n))) - cx.elem(n)).is_zero()
    for mono in S.monomials():
        q = S.mono_poly(mono)
        assert (ext(S.d(q)) - cx.d(ext(q))).is_zero()
    for m1 in S.monomials(total=1):
        for m2 in S.monomials(total=2):
            a, b = S.mono_poly(m1), S.mono_poly(m2)
            assert (ext(S.mul(a, b))
                    - taylor2.mul(ext(a), ext(b))).is_zero()
