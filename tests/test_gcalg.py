"""Koszul signs and the weighted-lex term order.

The sign oracle is independent of the library: expand exponent tuples into
flat words and count adjacent transpositions of odd-degree letters.
"""

import random
from itertools import permutations

from hypothesis import given, settings, strategies as st

from mdgkit.gcalg import GCContext, GCPoly
from mdgkit.ring import (Ring, RationalFunction, add_term, laurent,
                         laurent_term, mono_divides, mono_mask, mono_mul)

R = Ring(["x", "y"])

# degrees nondecreasing: two odd, two even, one odd(3)... keep sorted
CTX = GCContext(R, ["a", "b", "c", "d", "e"], [1, 1, 2, 2, 3])


def bubble_sign(word, degrees):
    """Sort `word` (list of generator indices) by adjacent swaps; return the
    product of Koszul signs (-1)^{d_i d_j} collected along the way."""
    word = list(word)
    sign = 1
    changed = True
    while changed:
        changed = False
        for k in range(len(word) - 1):
            if word[k] > word[k + 1]:
                if degrees[word[k]] % 2 and degrees[word[k + 1]] % 2:
                    sign = -sign
                word[k], word[k + 1] = word[k + 1], word[k]
                changed = True
    return sign, tuple(word)


def mono_to_word(mono):
    word = []
    for i, e in enumerate(mono):
        word.extend([i] * e)
    return word


monos = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                  st.integers(0, 2), st.integers(0, 2))


@settings(max_examples=200, deadline=None)
@given(monos, monos)
def test_mono_sign_matches_bubble_oracle(a, b):
    s, prod = CTX.mono_mul_signed(a, b)
    word = mono_to_word(a) + mono_to_word(b)
    s2, sorted_word = bubble_sign(word, CTX.degrees)
    assert s == s2
    assert mono_to_word(prod) == list(sorted_word)


def fold_word_mono(ctx, indices, strict=False):
    """The former `GCContext.word_mono`, kept as an oracle: merge a unit
    exponent tuple per factor through `mono_mul_signed`.  When strict kills
    the word it returns the partial product."""
    sign, mono = 1, ctx.zero_mono
    for i in indices:
        unit = tuple(1 if j == i else 0 for j in range(ctx.n))
        s, mono = ctx.mono_mul_signed(mono, unit, strict=strict)
        if s == 0:
            return 0, mono
        sign *= s
    return sign, mono


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, CTX.n - 1), max_size=8), st.booleans())
def test_word_mono_matches_the_fold(word, strict):
    s, mono = CTX.word_mono(word, strict=strict)
    s2, mono2 = fold_word_mono(CTX, word, strict)
    assert s == s2
    assert mono == tuple(word.count(i) for i in range(CTX.n))
    if s:
        assert mono == mono2


@settings(max_examples=150, deadline=None)
@given(monos, monos, monos)
def test_sign_is_associative(a, b, c):
    s1, ab = CTX.mono_mul_signed(a, b)
    s2, ab_c = CTX.mono_mul_signed(ab, c)
    t1, bc = CTX.mono_mul_signed(b, c)
    t2, a_bc = CTX.mono_mul_signed(a, bc)
    assert ab_c == a_bc
    assert s1 * s2 == t1 * t2


@settings(max_examples=150, deadline=None)
@given(monos, monos)
def test_graded_commutation(a, b):
    # the sign law holds whenever the two monomials share no odd generator;
    # on shared odd letters the free (non-strict) algebra deliberately breaks it
    if any(CTX.parity[i] and a[i] and b[i] for i in range(CTX.n)):
        return
    s1, _ = CTX.mono_mul_signed(a, b)
    s2, _ = CTX.mono_mul_signed(b, a)
    par = (CTX.mono_degree(a) * CTX.mono_degree(b)) % 2
    assert s1 == s2 * (-1) ** par


@settings(max_examples=150, deadline=None)
@given(monos, monos, monos)
def test_order_total_and_multiplicative(a, b, c):
    ca = CTX.compare(a, b)
    assert ca == -CTX.compare(b, a)
    if ca > 0:
        # multiplying by a common monomial preserves the comparison
        assert CTX.compare(mono_mul(a, c), mono_mul(b, c)) > 0


@settings(max_examples=200, deadline=None)
@given(monos, monos, monos)
def test_support_mask_never_rejects_a_divisor(a, b, c):
    assert all((mono_mask(a) >> i & 1) == (e > 0) for i, e in enumerate(a))
    # a random a divides b only sometimes; b always divides b*c
    for x, y in ((a, b), (b, mono_mul(b, c))):
        if mono_divides(x, y):
            assert mono_mask(x) & ~mono_mask(y) == 0


def documented_above(a, b):
    """a > b in the documented order: homological degree first, then the
    exponents left to right."""
    da = sum(e * d for e, d in zip(a, CTX.degrees))
    db = sum(e * d for e, d in zip(b, CTX.degrees))
    if da != db:
        return da > db
    return next((x > y for x, y in zip(a, b) if x != y), False)


@settings(max_examples=200, deadline=None)
@given(st.lists(monos, min_size=1, max_size=8, unique=True))
def test_order_key_maximum_is_the_documented_maximum(terms):
    best = terms[0]
    for m in terms[1:]:
        if documented_above(m, best):
            best = m
    assert max(terms, key=CTX.order_key) == best


def test_order_rules_examples():
    # higher homological degree wins
    e_a = (1, 0, 0, 0, 0)   # degree 1
    e_e = (0, 0, 0, 0, 1)   # degree 3
    assert CTX.compare(e_e, e_a) > 0
    # equal degree: larger exponent on the earliest generator wins
    ab = (1, 1, 0, 0, 0)    # a*b, degree 2
    c = (0, 0, 1, 0, 0)     # c, degree 2
    assert CTX.compare(ab, c) > 0
    a2 = (2, 0, 0, 0, 0)
    assert CTX.compare(a2, ab) > 0
    # product of two generators beats the single generator of the same degree:
    # the shape used by lead terms of defect elements
    assert CTX.compare((1, 0, 0, 1, 0), (0, 0, 0, 0, 1)) > 0


def test_strict_normalization_kills_odd_squares():
    s, m = CTX.mono_mul_signed((1, 0, 0, 0, 0), (1, 0, 0, 0, 0), strict=True)
    assert s == 0
    s, m = CTX.mono_mul_signed((0, 0, 1, 0, 0), (0, 0, 1, 0, 0), strict=True)
    assert s == 1 and m == (0, 0, 2, 0, 0)
    # non-strict keeps odd squares with the self-commutation sign convention
    s, m = CTX.mono_mul_signed((1, 0, 0, 0, 0), (1, 0, 0, 0, 0))
    assert s == 1 and m == (2, 0, 0, 0, 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=6).map(sorted),
       st.data())
def test_strict_product_reads_the_odd_generators_only(degrees, data):
    # the strict path against its definition: an odd square anywhere kills
    # the product, and otherwise it is the non-strict product
    ctx = GCContext(R, [f"g{i}" for i in range(len(degrees))], degrees)
    mono = st.tuples(*[st.integers(0, 3)] * ctx.n)
    a, b = data.draw(mono), data.draw(mono)
    prod = mono_mul(a, b)
    killed = any(ctx.parity[i] and prod[i] > 1 for i in range(ctx.n))
    expected = (0, prod) if killed else ctx.mono_mul_signed(a, b)
    assert ctx.mono_mul_signed(a, b, strict=True) == expected


def all_generator_mono_sign(ctx, a, b):
    """The former `GCContext.mono_sign`, kept as the reference: one pass
    over all n generators, testing each one's parity."""
    par = 0
    seen_odd_b = 0
    for i in range(ctx.n):
        if ctx.parity[i] and a[i] & 1 and seen_odd_b & 1:
            par ^= 1
        if ctx.parity[i] and b[i] & 1:
            seen_odd_b ^= 1
    return -1 if par else 1


def all_generator_strictify(ctx, p):
    """The former `GCPoly.strictify`, kept as the reference."""
    return {m: c for m, c in p.terms.items()
            if not any(ctx.parity[i] and m[i] > 1 for i in range(ctx.n))}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=6).map(sorted),
       st.data())
def test_sign_and_strictify_read_the_odd_generators_only(degrees, data):
    ctx = GCContext(R, [f"g{i}" for i in range(len(degrees))], degrees)
    mono = st.tuples(*[st.integers(0, 3)] * ctx.n)
    a, b = data.draw(mono), data.draw(mono)
    assert ctx.mono_sign(a, b) == all_generator_mono_sign(ctx, a, b)
    p = GCPoly(ctx, {m: laurent(R, k + 1) for k, m in
                     enumerate(data.draw(st.lists(mono, max_size=6)))})
    assert p.strictify().terms == all_generator_strictify(ctx, p)


def test_gcpoly_arithmetic_and_lead():
    a, b, c = CTX.gen("a"), CTX.gen("b"), CTX.gen("c")
    assert (a * b + b * a).is_zero()          # odd*odd anticommute
    assert (a * c - c * a).is_zero()          # odd/even commute
    p = a * b - c.scale(R.var("x"))
    assert p.lead_mono() == (1, 1, 0, 0, 0)
    assert str(p) == "a*b - (x)*c"
    assert str(p.monic()) == "a*b - (x)*c"
    q = p.scale(R.var("y")) if False else p
    assert (p - q).is_zero()


def test_format_powers():
    x = CTX.gen("c")
    assert str(x * x) == "c^2"
    p = CTX.gen("a") * CTX.gen("a")
    assert str(p) == "a^2"
    assert str(p.strictify()) == "0"


coefficients = st.builds(lambda c, e: laurent_term(R, c, e),
                         st.fractions(-3, 3).filter(bool),
                         st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
polys = st.dictionaries(monos, coefficients, max_size=6).map(
    lambda terms: GCPoly(CTX, terms))


def lifted_by_one(p, mono):
    """e^mono * p with every coefficient multiplied by laurent(1), the
    general product that `term_mul_left(1, mono)` must reproduce."""
    one = laurent(R, 1)
    terms = {}
    for m, c in p.terms.items():
        s, pm = CTX.mono_mul_signed(mono, m)
        add_term(terms, pm, one * c if s == 1 else -(one * c))
    return terms


@settings(max_examples=200, deadline=None)
@given(polys, monos, st.booleans())
def test_lifting_by_one_only_applies_signs(p, mono, strict):
    # strict: the polynomial and the cofactor carry no odd square
    if strict:
        p = p.strictify()
        mono = tuple(min(e, 1) if CTX.parity[i] else e
                     for i, e in enumerate(mono))
    expected = lifted_by_one(p, mono)
    for one in (1, laurent(R, 1)):
        assert p.term_mul_left(one, mono).terms == expected
    assert p.term_mul_left(2, mono).terms == {
        m: c * 2 for m, c in expected.items()}
    assert p.term_mul_left(0, mono).is_zero()


@settings(max_examples=100, deadline=None)
@given(polys.filter(lambda p: p.terms))
def test_monic_is_the_scaled_polynomial_and_keeps_a_monic_one(p):
    monic = p.monic()
    assert monic.terms == p.scale(p.lead_coeff().inverse()).terms
    assert monic.lead_coeff().is_one()
    assert monic.monic() is monic
