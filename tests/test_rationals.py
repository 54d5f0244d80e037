"""Coefficients are exact rationals stored as an int when integral and as a
`Fraction` otherwise; every division of two rationals goes through
`Fraction`, so no float ever enters.

Checked three ways: `Polynomial` and `RationalFunction` arithmetic on
int-valued (and half- and third-integral) coefficients against a test-local
reference that holds every coefficient as a `Fraction`, every result
stored by the int rule; the types of every rational the fixtures give
rise to; and fm with its differential halved, which must have fm's answers
over `Fraction` coefficients."""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mdgkit import fixture_path, load_fixture
from mdgkit.cli import run_command
from mdgkit.complexes import Element
from mdgkit.gcalg import GCPoly
from mdgkit.groebner import _echelon, associativity_certificate
from mdgkit.linalg import nullspace, rref, solve
from mdgkit.parser import parse_document
from mdgkit.ring import Polynomial, RationalFunction, Ring, mono_mask, rational
from mdgkit.symdg import build_sym

R = Ring(["x", "y", "z"])
X = R.var("x")


# -- the all-Fraction reference: Laurent polynomials as {exponents: Fraction}

def ref(p) -> dict:
    """p's terms with every coefficient a Fraction; a RationalFunction's
    exponents count its monic denominator negatively."""
    if isinstance(p, Polynomial):
        return {m: Fraction(c) for m, c in p.terms.items()}
    assert p.den.is_monomial() and p.den.lead_coeff() == 1
    return dict(zip(p.exponents(), map(Fraction, p.num.terms.values())))


def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(i + j for i, j in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def ref_scale(a, c):
    return {m: Fraction(c) * v for m, v in a.items() if c}


def ref_pow(a, n):
    out = {(0,) * R.nvars: Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def assert_exact(p):
    """Every coefficient of p (numerator and denominator of a Laurent
    polynomial) is stored by the int rule: an int when integral, a
    non-integral Fraction otherwise, never a float."""
    parts = (p.num, p.den) if isinstance(p, RationalFunction) else (p,)
    for part in parts:
        for c in part.terms.values():
            assert (type(c) is int
                    or type(c) is Fraction and c.denominator != 1), (p, c)


ints = st.integers(-6, 6).filter(bool)
monos = st.tuples(*[st.integers(0, 2)] * 3)


@st.composite
def int_polys(draw, max_terms=4, coeffs=ints):
    terms = draw(st.dictionaries(monos, coeffs, max_size=max_terms))
    return sum((R.monomial(m, c) for m, c in terms.items()), R.zero)


# ints, and halves and thirds whose products and sums can be integral
rationals_ = ints | st.builds(Fraction, ints, st.sampled_from([2, 3]))


@st.composite
def laurents(draw):
    """A Laurent polynomial with int coefficients over a monomial
    denominator, made by dividing by that denominator."""
    num = draw(int_polys())
    den = R.monomial(draw(monos), draw(st.sampled_from([1, -1, 2, 3, -4])))
    return RationalFunction(num) / RationalFunction(den)


@settings(max_examples=200, deadline=None)
@given(int_polys(coeffs=rationals_), int_polys(coeffs=rationals_), ints,
       st.integers(0, 3))
@example(R.const(Fraction(3, 2)), R.const(Fraction(2, 3)), 2, 2)
@example(R.const(Fraction(1, 2)), X + R.const(Fraction(1, 2)), 2, 2)
def test_polynomial_arithmetic_on_ints_equals_the_fraction_reference(
        p, q, c, n):
    # ints stay ints, and two Fractions whose sum or product is integral
    # (3/2 * 2/3, 1/2 + 1/2) give an int
    cases = [
        (p + q, ref_add(ref(p), ref(q))),
        (p * q, ref_mul(ref(p), ref(q))),
        (-p, ref_scale(ref(p), -1)),
        (p.scale(c), ref_scale(ref(p), c)),
        (p.scale(Fraction(1, c)), ref_scale(ref(p), Fraction(1, c))),
        (p ** n, ref_pow(ref(p), n)),
    ]
    for got, want in cases:
        assert_exact(got)
        assert ref(got) == want


@settings(max_examples=200, deadline=None)
@given(laurents(), laurents(), monos, st.sampled_from([2, -3, 6]),
       st.integers(0, 2))
def test_laurent_arithmetic_on_ints_equals_the_fraction_reference(
        f, g, m, c, n):
    mono = R.monomial(m, c)
    inv = {tuple(-e for e in m): Fraction(1, c)}
    cases = [
        (f + g, ref_add(ref(f), ref(g))),
        (f * g, ref_mul(ref(f), ref(g))),
        (-f, ref_scale(ref(f), -1)),
        (f ** n, ref_pow(ref(f), n)),
        (RationalFunction(mono).inverse(), inv),
        (f / RationalFunction(mono), ref_mul(ref(f), inv)),
        (f / c, ref_scale(ref(f), Fraction(1, c))),
    ]
    for got, want in cases:
        assert_exact(got)
        assert ref(got) == want


def test_division_by_a_non_monic_monomial_gives_fractions():
    half_x = RationalFunction(X) / 2
    assert half_x.num.terms == {(1, 0, 0): Fraction(1, 2)}
    inverse = RationalFunction(X.scale(2)).inverse()      # (2*x)^-1
    assert (inverse.num.terms, inverse.den) == ({(0, 0, 0): Fraction(1, 2)}, X)
    third = RationalFunction(X) / RationalFunction(X.scale(3))
    assert third.num.terms == {(0, 0, 0): Fraction(1, 3)}
    for p in (half_x, inverse, third):
        assert_exact(p)
    # an integral quotient comes back as an int
    assert (RationalFunction(X.scale(4)) / RationalFunction(X.scale(2))
            ).num.terms == {(0, 0, 0): 2}


def assert_normalised(p):
    """p's denominator is a monic monomial that shares no variable with
    every numerator term."""
    (dm, dc), = p.den.terms.items()
    assert dc == 1
    assert all(not e or any(not m[i] for m in p.num.terms)
               for i, e in enumerate(dm))


@settings(max_examples=200, deadline=None)
@given(laurents(), laurents(), monos, st.sampled_from([1, -1, 2, -3]))
@example(RationalFunction(R.const(2)), RationalFunction(R.const(2)) / 2,
         (0, 0, 0), 2)
def test_laurent_normalisation_equals_the_fraction_reference(f, g, m, c):
    # a product or sum of Laurent polynomials, or a division by a monic
    # monomial, normalises over a denominator with coefficient 1, which
    # divides no coefficient; the inverse of c*x^m and divisions by 2*x and
    # by c divide by a coefficient other than 1 (for c != 1)
    neg = tuple(-e for e in m)
    cases = [
        (f * g, ref_mul(ref(f), ref(g))),
        (f + g, ref_add(ref(f), ref(g))),
        (RationalFunction(R.monomial(m, c)).inverse(), {neg: Fraction(1, c)}),
        (f / RationalFunction(X.scale(2)),
         ref_mul(ref(f), {(-1, 0, 0): Fraction(1, 2)})),
        (f / c, ref_scale(ref(f), Fraction(1, c))),
        (f * RationalFunction(R.one, R.monomial(m)),
         ref_mul(ref(f), {neg: Fraction(1)})),
    ]
    for got, want in cases:
        assert_exact(got)
        assert_normalised(got)
        assert ref(got) == want
    # a monic denominator moves exponents only: the coefficient objects,
    # int or Fraction, come through as they were
    shifted = cases[-1][0]
    assert (sorted(map(repr, shifted.num.terms.values()))
            == sorted(map(repr, f.num.terms.values())))


def mono_mask_loop(a):
    """The support mask as a loop over the entries: bit i for a[i] != 0."""
    mask = 0
    for i, e in enumerate(a):
        if e:
            mask |= 1 << i
    return mask


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2, 2), max_size=200).map(tuple))
def test_mono_mask_equals_the_loop(a):
    # negative entries (the exponents of a Laurent quotient) count as
    # support, and tuples run past 64 entries, a machine word
    assert mono_mask(a) == mono_mask_loop(a)


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 1023, 1024, 1025, 1100])
def test_mono_mask_equals_the_loop_at_every_length(n):
    # around a machine word and around the end of the precomputed bits
    for a in [(1,) * n, (-1, 0) * (n // 2), (0,) * (n - 1) + (2,) * (n > 0)]:
        assert mono_mask(a) == mono_mask_loop(a)


def test_the_coefficient_rule():
    assert rational(3) == 3 and type(rational(3)) is int
    assert type(rational(Fraction(6, 3))) is int
    assert rational(Fraction(1, 2)) == Fraction(1, 2)
    assert type(R.one.lead_coeff()) is int
    assert type(R.monomial((1, 0, 0), Fraction(4, 2)).lead_coeff()) is int
    assert type(R.monomial((1, 0, 0), Fraction(1, 2)).lead_coeff()) is Fraction
    assert type(X.scale(Fraction(2, 1)).lead_coeff()) is int
    assert R.zero.constant_value() == 0
    assert type(R.zero.constant_value()) is int


@pytest.mark.parametrize("value", [0.1, 0.5, 2.0, -3.0])
def test_a_float_is_refused_as_a_coefficient(value):
    # 0.1 would otherwise be stored as 3602879701896397/36028797018963968;
    # even a float with an exact value (0.5, 2.0) is refused
    for make in (lambda: rational(value),
                 lambda: R.monomial((1, 0, 0), value),
                 lambda: R.const(value),
                 lambda: X.scale(value)):
        with pytest.raises(TypeError, match=re.escape(repr(value))):
            make()
    f = RationalFunction(X + 1, X)
    for make in (lambda: f * value, lambda: value * f, lambda: f + value,
                 lambda: f - value, lambda: f / value, lambda: value / f,
                 lambda: X * value, lambda: X + value):
        with pytest.raises(TypeError):
            make()


def test_proportional_vectors_are_told_apart_exactly():
    """`groebner._echelon` reads each vector once up to a scalar, keyed by
    its entries over its first one: two int vectors that a float quotient
    cannot tell apart are both kept."""
    big = 10 ** 17
    rows, pivots = _echelon([], [{"a": 1, "b": big}, {"a": 1, "b": big + 1},
                                 {"a": 3, "b": 3 * big}], ["a", "b"])
    assert pivots == [0, 1]
    rows, pivots = _echelon([], [{"a": 2, "b": 3}, {"a": 4, "b": 6}],
                            ["a", "b"])
    assert rows == [[1, Fraction(3, 2)]] and pivots == [0]


# -- no float anywhere on the fixtures --------------------------------------

FIXTURES = ["ex55", "ex6", "fa", "fk", "fk_split", "fm", "fo_full",
            "fo_presentation", "taylor_x2_xy"]


def rationals(value):
    """Every rational held in value, walking coefficients, elements,
    engine polynomials, dicts, lists and tuples."""
    if isinstance(value, (int, float, Fraction)):
        yield value
    elif isinstance(value, Polynomial):
        yield from value.terms.values()
    elif isinstance(value, RationalFunction):
        yield from rationals(value.num)
        yield from rationals(value.den)
    elif isinstance(value, Element):
        yield from rationals(list(value.coeffs.values()))
    elif isinstance(value, GCPoly):
        yield from rationals(list(value.terms.values()))
    elif isinstance(value, dict):
        for v in value.values():
            yield from rationals(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from rationals(v)
    else:
        raise TypeError(f"unexpected {type(value).__name__}: {value!r}")


def assert_no_float(*values):
    found = list(rationals(values))
    assert found
    bad = [v for v in found if type(v) not in (int, Fraction)]
    assert not bad, bad[:3]


def tables():
    for name in FIXTURES:
        doc = load_fixture(name)
        for mult in doc.mults:
            yield pytest.param(name, mult, id=f"{name}-{mult}")


@pytest.mark.parametrize("name", FIXTURES)
def test_a_parsed_fixture_holds_no_float(name):
    """The parsed coefficients, d's constants, and `rref`, `solve` and
    `nullspace` of the matrix of d at each basis element's multidegree."""
    doc = load_fixture(name)
    held = [[m.table for m in doc.mults.values()],
            [phi.images for phi in doc.maps.values()],
            [h.table for h in doc.homotopies.values()]]
    for cx in doc.complexes.values():
        held += [cx.diff, cx.diff_constants()]
        for degree in range(1, cx.max_degree() + 1):
            for md in {cx.basis[n].mdeg for n in cx.names_in_degree(degree)}:
                rows, _, target = cx.diff_matrix(degree, md)
                held += [rows, rref(rows)[0], nullspace(rows, len(target))]
                if rows and target:
                    held.append(solve(rows, [r[0] for r in rows],
                                      len(target)))
    assert_no_float(held)


@pytest.mark.parametrize("name, mult", tables())
def test_the_constants_and_the_certificate_hold_no_float(name, mult):
    alg = load_fixture(name).algebra(mult)
    report = associativity_certificate(alg)
    assert_no_float(alg.mult.structure_constants(), report.basis.elements,
                    report.witnesses)


@pytest.mark.parametrize("name", ["fk", "fm", "fa"])
def test_the_symdg_split_tables_hold_no_float(name):
    sym = build_sym(load_fixture(name).algebra(), 2)
    assert sym.check() == []
    assert_no_float(list(sym._table.values()))
    assert_no_float([[q for q, _ in w] for w in sym._diff_words])


# -- a half-integral document ------------------------------------------------

def halved_text(name):
    """The fixture's text with every differential divided by 2."""
    return re.sub(r"^(\s*d \w+ = )(.*);$", r"\1(\2)/2;",
                  fixture_path(name).read_text(), flags=re.M)


def test_fm_with_d_halved_has_the_answers_of_fm():
    fm, half = load_fixture("fm"), parse_document(halved_text("fm"))
    cx, hcx = fm.complexes["FM"], half.complexes["FM"]
    assert hcx.diff_constants()["e12"] == {"e1": Fraction(-1, 2),
                                           "e2": Fraction(1, 2)}
    assert ({n: b.mdeg for n, b in hcx.basis.items()}
            == {n: b.mdeg for n, b in cx.basis.items()})
    assert hcx.homology_dims() == cx.homology_dims() == {
        0: 13, 1: 0, 2: 0, 3: 0, 4: 0}
    hsym = build_sym(hcx, 2)
    assert hsym.dims() == build_sym(cx, 2).dims()
    assert hsym.check() == []
    alg, halg = fm.algebra(), half.algebra()
    assert halg.check().all_problems() == alg.check().all_problems() == []
    assert_no_float(hcx.diff, hcx.diff_constants(), list(hsym._table.values()))


def test_fm_with_d_halved_through_the_cli(tmp_path, capsys):
    path = tmp_path / "fm_half.mdg"
    path.write_text(halved_text("fm"))
    outputs = []
    for doc in (str(fixture_path("fm")), str(path)):
        codes = [run_command([cmd, doc]) for cmd in ("check", "homology")]
        outputs.append((codes, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == [0, 0]
