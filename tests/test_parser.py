"""Document language: tokenizing, parsing, evaluation, canonical printing."""

import pytest

from mdgkit.complexes import UNIT
from mdgkit.gcalg import GCContext
from mdgkit.parser import (Document, DocumentError, format_document,
                           parse_document, parse_element, parse_gcpoly)

DOC = """
# Koszul complex on x^2, x*y
ring x, y;

complex K {
  basis 1: e1 mdeg(2, 0), e2 mdeg(1, 1);
  basis 2: e12;
  d e1 = x^2;
  d e2 = x*y;
  d e12 = -y*e1 + x*e2;
}

mult mu on K {
  e1*e2 = x*e12;
  e1*e12 = 0;
  e2*e12 = 0;
}

map phi: K -> K {
  e1 = e1;
  e2 = e2;
  e12 = e12;
}

homotopy h on K {
  e1|e2 = x*e12;
}
"""


def test_empty_document():
    doc = parse_document("")
    assert isinstance(doc, Document)
    assert doc.ring is None and not doc.complexes


def test_parse_small_document():
    doc = parse_document(DOC)
    assert doc.ring.variables == ("x", "y")
    cx = doc.sole_complex()
    assert cx.check() == []
    # mdeg of e12 is inferred from its differential
    assert cx.basis["e12"].mdeg == (2, 1)
    alg = doc.algebra()
    assert alg.check().ok()
    assert str(alg.mul(cx.elem("e1"), cx.elem("e2"))) == "x*e12"
    phi = doc.maps["phi"]
    assert phi.check_chain_map() == []
    h = doc.homotopies["h"]
    assert str(h.pair_value("e1", "e2")) == "x*e12"


def test_round_trip_is_identity_on_canonical_form():
    once = format_document(parse_document(DOC))
    twice = format_document(parse_document(once))
    assert once == twice


def test_degree_order_violation_is_semantic_error():
    bad = """
ring x;
complex F {
  basis 2: e12 mdeg(2);
  basis 1: e1 mdeg(1);
  d e1 = x;
  d e12 = x*e1;
}
"""
    with pytest.raises(DocumentError, match="nondecreasing"):
        parse_document(bad)


def test_unknown_name_reports_position():
    bad = "ring x;\ncomplex F {\n  basis 1: e1 mdeg(1);\n  d e1 = q;\n}\n"
    with pytest.raises(DocumentError, match="unknown name 'q'"):
        parse_document(bad)


def test_syntax_error_carries_line():
    with pytest.raises(DocumentError, match="line 2"):
        parse_document("ring x;\ncomplex {")


def test_ring_must_come_first():
    with pytest.raises(DocumentError, match="ring declaration"):
        parse_document("complex F { }")


def test_rational_coefficients_in_elements():
    doc = parse_document(DOC)
    cx = doc.sole_complex()
    v = parse_element("(1/(x*y))*e2 - e1/x", cx)
    w = v.scale(cx.ring.var("x") * cx.ring.var("y")).polynomialize()
    assert str(w) == "-y*e1 + e2"
    with pytest.raises(DocumentError, match="scalar"):
        parse_element("e1/e2", cx)
    with pytest.raises(DocumentError, match="monomial"):
        parse_element("e1/(x+y)", cx)
    with pytest.raises(DocumentError, match="mult block"):
        parse_element("e1*e2", cx)


def test_gc_expression_evaluation():
    doc = parse_document(DOC)
    cx = doc.sole_complex()
    names = [n for n in cx.order if n != UNIT]
    ctx = GCContext(cx.ring, names, [cx.basis[n].degree for n in names])
    p = parse_gcpoly("e1*e2 - x*e12", ctx)
    assert str(p) == "e1*e2 - (x)*e12"
    q = parse_gcpoly("e2*e1", ctx)
    assert (p + q - parse_gcpoly("-x*e12", ctx)).is_zero()
    # graded commutation: e2*e1 = -e1*e2 for odd generators
    assert (q + parse_gcpoly("e1*e2", ctx)).is_zero()
    assert parse_gcpoly("2*e1^2", ctx).is_zero() is False  # non-strict square
    assert parse_gcpoly("(1/2)*x^2*e12", ctx).lead_coeff().num.total_degree() == 2
    with pytest.raises(DocumentError, match="monomial"):
        parse_gcpoly("e1/(x+y)", ctx)
