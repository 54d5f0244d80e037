"""The per-piece lifting kernel `complexes.lift_on_pieces`: each label's
lift is the one a single `linalg.solve` of all labels of a degree gives,
and a label without a lift, or a row that couples two labels, is named."""

import random
from fractions import Fraction

import pytest

from mdgkit import linalg, load_fixture
from mdgkit.complexes import UNIT, ComplexError, Element, lift_on_pieces
from mdgkit.ring import mono_div, mono_divides

COMPLEXES = {name: load_fixture(name).algebra().complex
             for name in ("fk", "fm")}


def unknowns(cx, degree, mdeg):
    return [t for t in cx.names_in_degree(degree)
            if mono_divides(cx.basis[t].mdeg, mdeg)]


def element(cx, vec, mdeg):
    """sum_t q_t x^(mdeg - m_t) e_t for vec = {t: q}."""
    return Element(cx, {t: cx.ring.monomial(mono_div(mdeg, cx.basis[t].mdeg),
                                            q) for t, q in vec.items()})


def boundary_of(cx, vec):
    """d(vec) as a rational vector, from d on the basis."""
    out = {}
    for t, q in vec.items():
        for k, c in cx.diff[t].coeffs.items():
            out[k] = out.get(k, 0) + q * c.lead_coeff()
    return {k: q for k, q in out.items() if q}


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_each_piece_lifts_as_the_unsplit_system_solves(name):
    cx = COMPLEXES[name]
    rng = random.Random(31)
    for degree in range(1, cx.max_degree() + 1):
        pieces = [md for md in cx.mdeg_support()
                  if unknowns(cx, degree, md)]
        boundary = {}
        for md in pieces:
            x = {t: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                 for t in unknowns(cx, degree, md)}
            boundary[md] = boundary_of(cx, x)
        lifted = lift_on_pieces(cx, [(md, degree, md) for md in pieces],
                                boundary)
        # one system over every piece of the degree, columns side by side
        width = sum(len(unknowns(cx, degree, md)) for md in pieces)
        rows, rhs, at = [], [], 0
        for md in pieces:
            cols = unknowns(cx, degree, md)
            for k in unknowns(cx, degree - 1, md):
                row = [0] * width
                for j, t in enumerate(cols):
                    c = cx.diff[t].coeffs.get(k)
                    row[at + j] = c.lead_coeff() if c is not None else 0
                rows.append(row)
                rhs.append(boundary[md].get(k, 0))
            at += len(cols)
        u, at = linalg.solve(rows, rhs, width), 0
        for md in pieces:
            cols = unknowns(cx, degree, md)
            want = {t: q for t, q in zip(cols, u[at:at + len(cols)]) if q}
            at += len(cols)
            assert lifted[md] == want, (degree, md)
            assert (cx.d(element(cx, lifted[md], md))
                    == element(cx, boundary[md], md)), (degree, md)


def test_a_non_cycle_is_reported_with_its_label():
    cx = COMPLEXES["fk"]
    m12, m123 = cx.basis["e12"].mdeg, cx.basis["e123"].mdeg
    # d(w^2*e1) = x^2*w^2 is not zero, so w^2*e1 is no boundary
    labels = [("ok", 2, m12), ("bad", 2, m12), ("worse", 2, m123)]
    boundary = {"ok": boundary_of(cx, {"e12": 1}), "bad": {"e1": 1},
                "worse": {"e1": 1}}
    with pytest.raises(ComplexError, match="no lift of bad:"):
        lift_on_pieces(cx, labels, boundary)


def test_a_label_whose_unknowns_meet_no_row_lifts_to_zero():
    cx = COMPLEXES["fk"]
    assert lift_on_pieces(cx, [("u", 0, cx.ring.zero_mono)], {}) == {"u": {}}
    assert unknowns(cx, 0, cx.ring.zero_mono) == [UNIT]


def test_a_constraint_row_sets_a_free_coordinate():
    cx = COMPLEXES["fk"]
    m123 = cx.basis["e123"].mdeg
    label = [("c", 2, m123)]
    assert lift_on_pieces(cx, label, {}) == {"c": {}}
    got = lift_on_pieces(cx, label, {}, [({("c", "e12"): 1}, 1)])["c"]
    assert got["e12"] == 1 and len(got) == 3
    assert boundary_of(cx, got) == {}
    # a key that is not an unknown of its label is a zero coordinate
    with pytest.raises(ComplexError, match="asks 0 = 1"):
        lift_on_pieces(cx, label, {}, [({("c", "e1"): 1}, 1)])


def test_a_row_that_touches_two_labels_is_refused():
    cx = COMPLEXES["fk"]
    labels = [("p", 2, cx.basis["e12"].mdeg), ("q", 2, cx.basis["e13"].mdeg)]
    with pytest.raises(ComplexError, match="touches the unknowns of p, q"):
        lift_on_pieces(cx, labels, {}, [({("p", "e12"): 1,
                                          ("q", "e13"): 1}, 0)])
    # e13 is not an unknown of p, so this row is p's alone
    got = lift_on_pieces(cx, labels, {}, [({("p", "e12"): 1,
                                            ("p", "e13"): 5,
                                            ("q", "e12"): 7}, 0)])
    assert got == {"p": {}, "q": {}}
