"""Polynomial / Laurent polynomial arithmetic, cross-checked against sympy."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from mdgkit.ring import Ring, Polynomial, RationalFunction, laurent, poly_gcd

R = Ring(["x", "y", "z", "w"])
X, Y, Z, W = (R.var(v) for v in "xyzw")
SYM = sympy.symbols("x y z w")


def to_sympy(p: Polynomial):
    acc = sympy.Integer(0)
    for m, c in p.terms.items():
        t = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(SYM, m):
            t *= s ** e
        acc += t
    return sympy.expand(acc)


def from_sympy(expr):
    expr = sympy.expand(expr)
    poly = sympy.Poly(expr, *SYM)
    acc = R.zero
    for m, c in poly.terms():
        acc = acc + R.monomial(tuple(m), Fraction(c.p, c.q))
    return acc


coeffs = st.integers(-5, 5).map(Fraction)
monos = st.tuples(*[st.integers(0, 3)] * 4)


@st.composite
def polys(draw, max_terms=5):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        m = draw(monos)
        c = draw(coeffs)
        if c:
            terms[m] = c
    return Polynomial(R, terms)


monomials = st.builds(R.monomial, monos, coeffs.filter(bool))


@settings(max_examples=100, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms_match_sympy(f, g, h):
    assert to_sympy((f + g) * h) == to_sympy(f * h) + to_sympy(g * h)
    assert to_sympy(f * g) == sympy.expand(to_sympy(f) * to_sympy(g))
    assert to_sympy(f - g) == to_sympy(f) - to_sympy(g)


@settings(max_examples=40, deadline=None)
@given(polys(max_terms=3).filter(lambda p: not p.is_zero()), monomials,
       monomials)
def test_gcd_against_sympy(f, g, h):
    # the arguments `_rf_normalize` passes: a nonzero polynomial and a
    # monomial, here sharing the factor h
    f, g = f * h, g * h
    ours = poly_gcd(f, g)
    theirs = from_sympy(sympy.gcd(to_sympy(f), to_sympy(g), *SYM))
    # the gcd with a monomial is a monomial; ours is the monic one
    assert theirs.is_monomial()
    assert ours == R.monomial(theirs.lead_mono())
    assert poly_gcd(g, f) == ours


def test_gcd_examples():
    f = X * Y - Y * Y
    g = X * X - Y * Y
    with pytest.raises(ValueError):
        poly_gcd(f, g)
    assert poly_gcd(X * Y * Z, X * X * Z) == X * Z
    assert poly_gcd(f, Y * Z) == Y
    assert poly_gcd(f, Y.scale(-3)) == Y      # monic, whatever the coefficients
    assert poly_gcd(R.const(4), R.const(6)) == 1


@settings(max_examples=40, deadline=None)
@given(polys(max_terms=3), monomials, monomials)
def test_rational_function_field_axioms(a, b, c):
    q1 = RationalFunction(a, b)
    q2 = RationalFunction(b, c)
    assert (q1 * q2) * q2.inverse() == q1
    assert q1 - q1 == RationalFunction(R.zero)
    s = q1 + q2
    lhs = sympy.expand(to_sympy(s.num) * to_sympy(q1.den) * to_sympy(q2.den))
    rhs = sympy.expand(
        (to_sympy(q1.num) * to_sympy(q2.den) + to_sympy(q2.num) * to_sympy(q1.den))
        * to_sympy(s.den))
    assert lhs == rhs


def test_rational_function_normalization():
    with pytest.raises(ValueError):
        RationalFunction(X * X - Y * Y, X + Y)
    with pytest.raises(ValueError):
        RationalFunction(X + Y).inverse()
    q = RationalFunction(X * Y * Y - Y, X * Y)
    assert q.num == X * Y - 1 and q.den == X
    q = RationalFunction(X, X * Y)
    assert q.num == 1 and q.den == Y
    q = RationalFunction(X, -Y)
    assert q.den == Y and q.num == -X


def test_laurent_agrees_on_every_scalar_type():
    two = RationalFunction(R.const(2))
    for c in (2, Fraction(2), R.const(2), two):
        assert isinstance(laurent(R, c), RationalFunction)
        assert laurent(R, c) == two
    q = RationalFunction(X * Y - 1, X)
    assert laurent(R, q) is q
    assert laurent(R, X * Y - 1) == RationalFunction(X * Y - 1)


def test_a_polynomial_is_its_own_polynomial():
    for p in (R.zero, R.one, X * Y - 1):
        assert p.is_polynomial()
        assert p.as_polynomial() is p


@settings(max_examples=40, deadline=None)
@given(polys(max_terms=3), monomials, st.integers(0, 4))
def test_laurent_power_is_the_repeated_product(a, b, n):
    q = RationalFunction(a, b)
    acc = RationalFunction(R.one)
    for _ in range(n):
        acc = acc * q
    assert q ** n == acc


def test_exponents_count_the_denominator_negatively():
    S = Ring(["x", "y"])
    x, y = S.var("x"), S.var("y")
    q = RationalFunction(x * y - 1, x)
    assert sorted(q.exponents()) == [(-1, 0), (0, 1)]
    assert sorted((x * y - 1).exponents()) == [(0, 0), (1, 1)]
    assert q.is_monomial() is False and q.lead_coeff() == 1
    assert RationalFunction(-y, x).is_monomial()


def test_printing_canonical():
    p = Y * Y * Z * R.var("x") ** 0 - Y * Z * Z
    assert str(p) == "y^2*z - y*z^2"
    assert str(R.zero) == "0"
    assert str(-X + R.const(Fraction(1, 2))) == "-x + 1/2"
    assert str(X * X * W.scale(3)) == "3*x^2*w"


def test_lead_is_the_lex_maximum():
    p = X * Y + Y.scale(2) ** 3
    assert p.lead_mono() == (1, 1, 0, 0)
    assert p.lead_coeff() == 1
    assert (Y.scale(2) ** 3 + Z).lead_coeff() == 8


@settings(max_examples=50, deadline=None)
@given(polys(max_terms=2))
def test_is_one_is_equality_with_the_constant_one(p):
    assert p.is_one() == (p == R.one)
    assert (p + R.one - p).is_one()
    assert not (R.one + R.one).is_one()


exps = st.tuples(*[st.integers(-3, 3)] * 4)


@settings(max_examples=200, deadline=None)
@given(exps, exps)
def test_the_monomial_kernels_match_the_componentwise_definitions(a, b):
    from mdgkit.ring import (mono_div, mono_divides, mono_gcd, mono_lcm,
                             mono_mul)
    assert mono_mul(a, b) == tuple(x + y for x, y in zip(a, b))
    assert mono_div(b, a) == tuple(y - x for x, y in zip(a, b))
    assert mono_lcm(a, b) == tuple(max(x, y) for x, y in zip(a, b))
    assert mono_gcd(a, b) == tuple(min(x, y) for x, y in zip(a, b))
    assert mono_divides(a, b) == all(x <= y for x, y in zip(a, b))
    assert mono_divides(a, mono_mul(a, tuple(abs(e) for e in b)))
