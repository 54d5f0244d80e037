"""`FreeComplex.from_constants`, the one builder of Elements from rational
constants read at a multidegree.  It is held against test-local copies of
the two loops it replaced: the piece-basis loop of `vector_element`, and the
Laurent terms of `MDGAlgebra.q_element`."""

import random
from fractions import Fraction
from functools import reduce

import pytest

from mdgkit import load_fixture
from mdgkit.complexes import Element
from mdgkit.ring import add_term, laurent_term, mono_div, mono_divides, \
    mono_mul

COMPLEXES = {"fk": ("fk", "FK"), "fm": ("fm", "FM"), "fa": ("fa", "FA"),
             "fk_split T5": ("fk_split", "T5")}


def reference_vector_element(cx, vec, degree, mdeg):
    """`vector_element` as it was: one monomial term per nonzero
    coordinate of the piece basis."""
    coeffs = {}
    for (name, cof), c in zip(cx.piece_basis(degree, mdeg), vec):
        if c:
            add_term(coeffs, name, cx.ring.monomial(cof, c))
    return Element(cx, coeffs)


def reference_q_element(cx, factors, vec):
    """`q_element` as it was: a Laurent monomial on every term."""
    top = reduce(mono_mul, (cx.basis[n].mdeg for n in factors))
    return Element(cx, {d: laurent_term(cx.ring, q,
                                        mono_div(top, cx.basis[d].mdeg))
                        for d, q in vec.items()})


def random_vector(rng, size):
    return [rng.choice([0, 0, 1, -2, Fraction(rng.randint(-5, 5),
                                              rng.randint(1, 4))])
            for _ in range(size)]


@pytest.mark.parametrize("label", sorted(COMPLEXES))
def test_from_constants_is_the_piece_loop_on_every_piece(label):
    doc_name, cx_name = COMPLEXES[label]
    cx = load_fixture(doc_name).complexes[cx_name]
    rng = random.Random(label)
    pieces = 0
    for degree in range(cx.max_degree() + 1):
        for mdeg in cx.mdeg_support():
            piece = cx.piece_basis(degree, mdeg)
            if not piece:
                continue
            pieces += 1
            vec = random_vector(rng, len(piece))
            got = cx.from_constants(
                {name: c for (name, _), c in zip(piece, vec)}, mdeg)
            want = reference_vector_element(cx, vec, degree, mdeg)
            assert got.coeffs == want.coeffs, (degree, mdeg, vec)
            assert got == cx.vector_element(vec, degree, mdeg)
            assert cx.element_vector(got, degree, mdeg) == vec
    assert pieces > 0


@pytest.mark.parametrize("name", ["fk", "fa"])
def test_a_multidegree_off_the_divisors_gives_the_laurent_term(name):
    """On the multidegree of a basis pair a*b, a basis element t whose
    multidegree does not divide it gets the Laurent coefficient that
    `q_element` built for it before, and the others a polynomial."""
    alg = load_fixture(name).algebra()
    cx = alg.complex
    rng = random.Random(name)
    names = alg.basis_names()
    laurent = 0
    for a in names:
        for b in names:
            top = mono_mul(cx.basis[a].mdeg, cx.basis[b].mdeg)
            vec = {t: Fraction(rng.randint(1, 5), rng.randint(1, 3))
                   for t in rng.sample(names, 3)}
            got = cx.from_constants(vec, top)
            assert got == reference_q_element(cx, (a, b), vec)
            assert alg.q_element((a, b), vec).coeffs == got.coeffs
            for t, q in vec.items():
                expts = mono_div(top, cx.basis[t].mdeg)
                coeff = got.coeffs[t]
                assert coeff == laurent_term(cx.ring, q, expts), (a, b, t)
                divides = mono_divides(cx.basis[t].mdeg, top)
                assert coeff.is_polynomial() == divides, (a, b, t)
                laurent += not divides
    assert laurent > 0
