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
    assert parse_gcpoly("e1^2", ctx) == parse_gcpoly("e1*e1", ctx)
    assert parse_gcpoly("e1^0", ctx) == parse_gcpoly("1", ctx)
    assert parse_gcpoly("(x*e1)^2", ctx) == parse_gcpoly("x^2*e1*e1", ctx)
    with pytest.raises(DocumentError, match="monomial"):
        parse_gcpoly("e1/(x+y)", ctx)


# -- behaviour the shared evaluator and block loop must keep -------------------

TWO_COMPLEXES = """
ring x, y;
complex K {
  basis 1: e1 mdeg(2, 0), e2 mdeg(1, 1);
  basis 2: e12;
  d e1 = x^2;
  d e2 = x*y;
  d e12 = -y*e1 + x*e2;
}
complex L {
  basis 1: f1 mdeg(2, 0), f2 mdeg(1, 1);
  basis 2: f12;
  d f1 = x^2;
  d f2 = x*y;
  d f12 = -y*f1 + x*f2;
}
"""


@pytest.mark.parametrize("block, message", [
    ("mult mu on K { e1*q = 0; }",
     "line 17: product of unknown basis elements 'e1'*'q'"),
    ("map phi: K -> L { f1 = f1; }",
     "line 17: image of unknown basis element 'f1'"),
    ("homotopy h on K {\n q|e2 = 0; }",
     "line 18: homotopy on unknown basis elements 'q'|'e2'"),
])
def test_unknown_basis_names_in_blocks_are_semantic_errors(block, message):
    with pytest.raises(DocumentError) as err:
        parse_document(TWO_COMPLEXES + block)
    assert str(err.value) == message


@pytest.mark.parametrize("rhs, message", [
    ("e1*e2", "cannot multiply two basis elements here; products belong in "
              "a mult block"),
    ("e1^1", "line 4, col 13: only scalars can be raised to a power here"),
    ("e1/(x+y)", "cannot divide by x + y: a divisor must be a monomial"),
])
def test_a_differential_takes_no_products_powers_or_polynomial_divisors(
        tmp_path, capsys, rhs, message):
    from mdgkit.cli import run_command
    text = ("ring x, y;\ncomplex F {\n  basis 1: e1 mdeg(1, 0), e2 mdeg(0, 1);"
            f"\n  d e2 = {rhs};\n}}\n")
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert str(err.value) == message
    path = tmp_path / "bad.mdg"
    path.write_text(text)
    assert run_command(["check", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_both_grammars_report_the_first_fault_in_reading_order():
    doc = parse_document(DOC)
    cx = doc.sole_complex()
    names = [n for n in cx.order if n != UNIT]
    ctx = GCContext(cx.ring, names, [cx.basis[n].degree for n in names])
    with pytest.raises(DocumentError, match="unknown name 'q'"):
        parse_element("q/e1", cx)
    with pytest.raises(DocumentError, match="unknown name 'q'"):
        parse_gcpoly("q/e1", ctx)


def test_maps_and_homotopies_round_trip_naming_their_complexes():
    text = TWO_COMPLEXES + """
map phi: K -> L { e12 = f12; e1 = f1; e2 = f2; }
homotopy h on L { f2|f1 = -x*f12; f1|f2 = x*f12; }
"""
    doc = parse_document(text)
    phi, h = doc.maps["phi"], doc.homotopies["h"]
    assert (phi.source.name, phi.target.name, h.complex.name) == (
        "K", "L", "L")
    once = format_document(doc)
    assert once.endswith("""
map phi: K -> L {
  e1 = f1;
  e2 = f2;
  e12 = f12;
}

homotopy h on L {
  f1|f2 = x*f12;
  f2|f1 = -x*f12;
}
""")
    assert format_document(parse_document(once)) == once
