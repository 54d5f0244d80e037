"""Document language: tokenizing, parsing, evaluation, canonical printing."""

import hashlib
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from mdgkit import fixture_path, load_fixture
from mdgkit.complexes import UNIT
from mdgkit.gcalg import GCContext
from mdgkit.groebner import context_for
from mdgkit.parser import (Document, DocumentError, _positions,
                           format_document, parse_document, parse_element,
                           parse_gcpoly, tokenize)

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
    assert str(parse_gcpoly("(1/2)*x^2*e12", ctx).lead_coeff()) == "1/2*x^2"
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


# -- the token strings against the character loop they replaced ---------------

def reference_tokens(text):
    """The former character-loop tokenizer, kept as an oracle: (kind, value,
    line, col) per token, ending with ("eof", None, line, col).  A comment
    does not advance the column, so an end of file right after a comment
    sits at its '#'."""
    symbols = ("->", "{", "}", "(", ")", ";", ",", ":", "=", "+", "-", "*",
               "/", "^", "|")
    tokens, line, col, i, n = [], 1, 1, 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
        elif ch in " \t\r":
            i, col = i + 1, col + 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("int", int(text[i:j]), line, col))
            i, col = j, col + j - i
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("id", text[i:j], line, col))
            i, col = j, col + j - i
        else:
            sym = "->" if text.startswith("->", i) else ch
            if sym not in symbols:
                raise DocumentError(f"unexpected character {ch!r}", line, col)
            tokens.append(("sym", sym, line, col))
            i, col = i + len(sym), col + len(sym)
    return tokens + [("eof", None, line, col)]


def described_tokens(text):
    """tokenize(text) in the oracle's terms, kinds read off the strings."""
    toks = tokenize(text)
    pos = _positions(text, range(len(toks)))
    out = []
    for at, t in enumerate(toks):
        kind = ("eof" if not t else "int" if "0" <= t[0] <= "9" else
                "id" if t[0].isalpha() or t[0] == "_" else "sym")
        value = None if not t else int(t) if kind == "int" else t
        out.append((kind, value) + pos[at])
    return out


FRAGMENTS = ["ring", "x", "e12", "_", "_a1", "é", "0", "42", "007", "²", "٣",
             "Ⅻ", " ", "\t", "\r", "\f", "\n", ">", "->", "-", "#", "# c",
             "{", "}", "(", ")", ";", ",", ":", "=", "+", "*", "/", "^", "|",
             "!"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=14).map("".join))
def test_token_strings_match_the_character_loop(text):
    try:
        expected = reference_tokens(text)
    except DocumentError as e:
        with pytest.raises(DocumentError) as err:
            tokenize(text)
        assert str(err.value) == str(e)
        return
    assert described_tokens(text) == expected


@pytest.mark.parametrize("text, eof", [
    ("x # c", (1, 3)), ("x # c\n", (2, 1)), ("x\n  # c", (2, 3)),
    ("# a\n# b", (2, 1)), ("x  ", (1, 4)), ("", (1, 1))])
def test_the_end_of_file_after_a_comment_sits_at_its_hash(text, eof):
    assert described_tokens(text)[-1] == ("eof", None) + eof
    assert reference_tokens(text)[-1] == ("eof", None) + eof


# -- powers ------------------------------------------------------------------

FK = load_fixture("fk").sole_complex()
FK_CTX = context_for(FK)
FK_TERMS = st.tuples(st.sampled_from(["1", "2", "-3", "x", "y*z", "1/w"]),
                     st.sampled_from(["e1", "e2", "e12", "e123", "1"])).map(
    "*".join)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(FK_TERMS, min_size=1, max_size=3).map(" + ".join),
       st.integers(0, 6))
def test_a_power_is_the_repeated_product(base, n):
    value = parse_gcpoly(base, FK_CTX)
    product = FK_CTX.one
    for _ in range(n):
        product = product * value
    assert parse_gcpoly(f"({base})^{n}", FK_CTX) == product


@pytest.mark.parametrize("expr, exponent", [("e1^3000000", 3000000),
                                            ("e12^300000", 300000)])
def test_a_large_power_is_taken_by_squaring(expr, exponent):
    start = time.perf_counter()
    value = parse_gcpoly(expr, FK_CTX)
    assert time.perf_counter() - start < 5
    (mono, coeff), = value.terms.items()
    assert max(mono) == exponent and coeff.is_one()


# -- frozen outcomes ------------------------------------------------------------
# Each seed regenerates one input: a mutated fixture, or an expression that
# parse_element and parse_gcpoly read on fk.  The outcomes were recorded from
# the character-loop tokenizer and the object-building evaluator that the
# token strings replaced: the exact DocumentError text, or the printed value
# (for a document that parses, a digest of its canonical text).

MUTATED = ("fa", "ex6", "fk_split")
MUTATIONS = {"int": ["", "0", "1", "2", "3", "²", "٣"],
             "name": ["", "x", "w", "e1", "e2", "e12", "e123", "mult", "on"],
             "sym": ["", "*", "+", "-", "/", "^", "(", ")", ";", ",", "=",
                     "->", ">", "#", "\t", "\n"]}


def mutant(seed: int) -> str:
    """A fixture of MUTATED with one to three tokens deleted or replaced."""
    rng = random.Random(seed)
    text = fixture_path(rng.choice(MUTATED)).read_text()
    for _ in range(rng.randint(1, 3)):
        spans = [m.span() for m in re.finditer(r"\w+|\S", text)]
        a, b = rng.choice(spans)
        kind = ("int" if text[a].isdigit() else
                "name" if text[a].isalpha() or text[a] == "_" else "sym")
        text = text[:a] + rng.choice(MUTATIONS[kind]) + text[b:]
    return text


def document_outcome(text: str) -> str:
    try:
        doc = parse_document(text)
    except DocumentError as e:
        return str(e)
    digest = hashlib.sha256(format_document(doc).encode()).hexdigest()
    return "ok " + digest[:16]


ATOMS = ["x", "y", "z", "w", "e1", "e2", "e3", "e12", "e123", "q", "0", "1",
         "2", "3"]
NOISE = ["+", "-", "*", "/", "^", "(", ")", "²", "٣", ";", "->", "#"]
GAPS = [" ", " ", "", "\t", "\n", " # c\n"]


def _well_formed(rng: random.Random, depth: int) -> str:
    if depth == 2 or rng.random() < 0.3:
        return rng.choice(ATOMS)
    pick = rng.randrange(3)
    if pick == 0:
        return (f"({_well_formed(rng, depth + 1)} {rng.choice('+-*/')} "
                f"{_well_formed(rng, depth + 1)})")
    if pick == 1:
        return f"{_well_formed(rng, depth + 1)}^{rng.randrange(4)}"
    return f"-{_well_formed(rng, depth + 1)}"


def expression(seed: int) -> str:
    """A well-formed expression over fk's names, or a random token string."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        return _well_formed(rng, 0)
    words = [rng.choice(ATOMS + NOISE) for _ in range(rng.randint(1, 8))]
    return "".join(w + rng.choice(GAPS) for w in words)


def expression_outcome(text: str) -> tuple:
    out = []
    for parse, where in ((parse_element, FK), (parse_gcpoly, FK_CTX)):
        try:
            out.append(str(parse(text, where)))
        except DocumentError as e:
            out.append(str(e))
    return tuple(out)


def test_mutated_documents_keep_their_frozen_outcomes():
    changed = {seed: document_outcome(mutant(seed))
               for seed in FROZEN_DOCUMENTS}
    assert changed == FROZEN_DOCUMENTS


def test_random_expressions_keep_their_frozen_outcomes():
    changed = {seed: expression_outcome(expression(seed))
               for seed in FROZEN_EXPRESSIONS}
    assert changed == FROZEN_EXPRESSIONS


FROZEN_DOCUMENTS = {0: "line 4, col 61: expected '(', got ';'",
 1: "line 11, col 3: expected ';', got 'd'",
 2: "line 6, col 29: expected ')', got '->'",
 3: "line 123, col 6: expected '*', got '/'",
 4: "line 6, col 103: unexpected character '>'",
 5: "line 288: line 288, col 15: unknown name 'yz'",
 6: "line 452, col 7: expected '*', got ';'",
 7: "line 22, col 41: unexpected token '*' in expression",
 8: "line 22, col 11: expected '=', got '*'",
 9: "line 1, col 13: expected ';', got '='",
 10: "line 377: product of unknown basis elements 'mult'*'e135'",
 11: "line 7, col 22: expected '(', got '^'",
 12: "line 20, col 3: unknown complex statement 'w'",
 13: "line 7, col 9: unexpected character '²'",
 14: "line 160: product of unknown basis elements 'on'*'e12345'",
 15: "line 115, col 8: expected a name, got '='",
 16: "line 30, col 19: expected ';', got ','",
 17: "line 203, col 12: expected '=', got '^'",
 18: "line 163, col 8: expected '*', got 'e2345'",
 19: "line 500, col 13: expected '=', got '-'",
 20: "line 250, col 6: expected '*', got '^'",
 21: "line 84, col 14: unexpected character '²'",
 22: 'ok bb4cabb5b400214c',
 23: "line 4, col 19: expected '(', got ','",
 24: "line 123, col 5: expected '*', got '^'",
 25: "line 9, col 8: expected '=', got ','",
 26: "line 667, col 6: expected '*', got '('",
 27: 'ok ae0fbb4e956f624c',
 28: "line 25, col 1: expected a name, got '/'",
 29: "line 273, col 6: expected '*', got ','",
 30: "line 613, col 3: expected ';', got 'e4'",
 31: "line 8, col 8: unexpected character '>'",
 32: 'ok 4dbe53df89493c0f',
 33: "line 632, col 11: expected '=', got ')'",
 34: "line 136, col 3: expected ';', got 'e3'",
 35: "line 45, col 3: unknown complex statement 'e12'",
 36: 'ok 2727dac558bb4fa8',
 37: "line 630, col 14: expected ';', got '->'",
 38: "line 377, col 6: expected '*', got '-'",
 39: "line 22, col 19: expected ';', got ')'",
 40: "line 5, col 134: unexpected character '٣'",
 41: "line 10, col 14: expected an integer, got 'z'",
 42: "line 6, col 22: unexpected character '²'",
 43: "line 15, col 3: expected ';', got 'd'",
 44: "line 15, col 12: unexpected token '*' in expression",
 45: 'line 31: cannot multiply two basis elements here; products belong in a '
     'mult block',
 46: "line 137, col 15: unexpected character '٣'",
 47: "line 27: line 27, col 19: unknown name 'on'",
 48: "line 742: image of unknown basis element 'on'",
 49: "line 56: product of unknown basis elements 'on'*'e1345'; line 82: "
     "product of unknown basis elements 'x'*'e124'",
 50: "line 20, col 33: expected ';', got ')'",
 51: 'ok 839c1a3aa8bb2a3c',
 52: 'ok 79878e1ce7e24add',
 53: "line 414, col 1: expected '*', got 'e145'",
 54: "line 104, col 2: expected '=', got 'w'",
 55: "line 16, col 3: unknown complex statement 'e2'",
 56: "line 436, col 16: unexpected character '²'",
 57: "line 4: duplicate basis element 'e1'; line 10: d of unknown basis "
     "element 'e3'; line 14, col 25: unknown name 'e3'; line 16, col 21: "
     "unknown name 'e3'; line 18, col 14: unknown name 'e3'; line 29: product "
     "of unknown basis elements 'e1'*'e3'; line 44: product of unknown basis "
     "elements 'e2'*'e3'; line 59: product of unknown basis elements "
     "'e3'*'e4'; line 60: product of unknown basis elements 'e3'*'e5'; line "
     "61: product of unknown basis elements 'e3'*'e12'; line 62: product of "
     "unknown basis elements 'e3'*'e13'; line 63: product of unknown basis "
     "elements 'e3'*'e14'; line 64: product of unknown basis elements "
     "'e3'*'e23'; line 65: product of unknown basis elements 'e3'*'e24'; line "
     "66: product of unknown basis elements 'e3'*'e35'; line 67: product of "
     "unknown basis elements 'e3'*'e45'; line 68: product of unknown basis "
     "elements 'e3'*'e123'; line 69: product of unknown basis elements "
     "'e3'*'e124'; line 70: product of unknown basis elements 'e3'*'e1345'; "
     "line 71: product of unknown basis elements 'e3'*'e2345'; line 72: "
     "product of unknown basis elements 'e3'*'e12345'",
 58: "line 108, col 5: expected '*', got '('",
 59: "line 159, col 15: expected '=', got 0",
 60: "line 6, col 46: expected ')', got ';'",
 61: "line 9, col 11: expected ';', got '='",
 62: "line 20, col 11: unexpected token ')' in expression",
 63: "line 15, col 21: unknown complex statement 'e3'",
 64: "line 26, col 3: expected '{', got 'e1'",
 65: "line 15, col 9: expected '=', got ')'",
 66: "line 91, col 5: expected '*', got ','",
 67: "line 81, col 3: expected ';', got 'e4'",
 68: 'cannot multiply two basis elements here; products belong in a mult '
     "block; line 708: product of unknown basis elements 'e35'*'on'",
 69: "line 34: d of unknown basis element 'w'",
 70: "line 14, col 3: unknown complex statement 'e12'",
 71: "line 6, col 48: unexpected character '٣'",
 72: "line 50, col 10: expected '=', got '/'",
 73: "line 32, col 1: expected ';', got 'z'",
 74: "line 44, col 24: unexpected character '٣'",
 75: "line 4, col 62: unexpected character '²'",
 76: "line 16, col 4: unknown complex statement 'e24'",
 77: "line 7, col 26: unexpected character '٣'",
 78: 'line 48: cannot multiply two basis elements here; products belong in a '
     'mult block',
 79: 'ok 79ab8d006c4b5462',
 80: "line 21, col 3: unknown complex statement 'on'",
 81: "line 263, col 11: unexpected character '>'",
 82: "line 20, col 22: expected an integer, got 'e13'",
 83: "line 5, col 56: basis element 'w' has the name of a ring variable",
 84: "line 4, col 48: expected ')', got '='",
 85: "line 55, col 5: expected '*', got '('",
 86: "line 54, col 3: expected a name, got '*'",
 87: "line 6, col 100: expected ')', got ';'",
 88: "line 18, col 30: expected an integer, got 'e23'",
 89: "line 16, col 3: expected ';', got 'd'",
 90: "line 162, col 14: expected '=', got ','",
 91: "line 90, col 3: expected ';', got 'e5'",
 92: "line 5, col 38: expected ';', got 'e12'",
 93: "line 5, col 66: expected ')', got '->'",
 94: "line 44, col 74: unexpected character '٣'",
 95: "line 6, col 78: expected ')', got '/'",
 96: "line 5, col 72: expected ')', got '='",
 97: "line 69, col 13: unexpected token '*' in expression",
 98: "line 27, col 3: expected a name, got '*'",
 99: "line 8, col 3: unknown complex statement 'w'",
 100: "line 75, col 13: expected ';', got '->'",
 101: "line 526, col 7: expected '*', got '->'",
 102: "line 19, col 3: unknown complex statement 'on'",
 103: "line 707, col 12: expected '=', got '+'",
 104: "line 27, col 9: expected 'on'",
 105: "line 4, col 15: expected ';', got 'e2'",
 106: "line 6, col 2: expected ';', got 'e24'",
 107: "line 15, col 5: expected ';', got 'e14'",
 108: "line 6, col 29: unexpected character '>'",
 109: 'ok 3f4186fc9512cb4f',
 110: "line 6, col 3: expected ')', got 'basis'",
 111: "line 78, col 3: expected '*', got 'e4'",
 112: "line 16, col 11: expected '=', got '-'",
 113: "line 42, col 3: expected ';', got 'e1'",
 114: "line 6, col 80: expected ';', got '='",
 115: "line 5, col 108: expected '(', got '-'",
 116: "line 535, col 17: unexpected character '²'",
 117: 'ok 99124d931c3ec1e7',
 118: "line 35, col 17: expected ';', got '->'",
 119: 'ok 45dc3de52be670da'}

FROZEN_EXPRESSIONS = {0: ("line 1, col 3: trailing input 'e123'",
     "line 1, col 3: trailing input 'e123'"),
 1: ('1/2*e12', '(1/2)*e12'),
 2: ('z', '(z)'),
 3: ("line 1, col 4: trailing input '^'", "line 1, col 4: trailing input '^'"),
 4: ('e3', 'e3'),
 5: ("line 2, col 1: unexpected token ')' in expression",
     "line 2, col 1: unexpected token ')' in expression"),
 6: ("line 1, col 2: unexpected token '->' in expression",
     "line 1, col 2: unexpected token '->' in expression"),
 7: ('0', '0'),
 8: ('(x + 2)', '(x + 2)'),
 9: ("line 1, col 6: unknown name 'q'", "line 1, col 6: unknown name 'q'"),
 10: ("line 2, col 1: unexpected token '^' in expression",
      "line 2, col 1: unexpected token '^' in expression"),
 11: ('-w', '(-w)'),
 12: ('-x^2', '(-x^2)'),
 13: ('0', '0'),
 14: ('cannot multiply two basis elements here; products belong in a mult '
      'block',
      '-e1^2'),
 15: ("line 1, col 1: unexpected token '*' in expression",
      "line 1, col 1: unexpected token '*' in expression"),
 16: ('x^3', '(x^3)'),
 17: ("line 4, col 3: unexpected character '٣'",
      "line 4, col 3: unexpected character '٣'"),
 18: ('line 1, col 5: only scalars can be raised to a power here', 'e12^3'),
 19: ("line 1, col 1: unexpected token '*' in expression",
      "line 1, col 1: unexpected token '*' in expression"),
 20: ("line 1, col 6: unexpected character '²'",
      "line 1, col 6: unexpected character '²'"),
 21: ('-3', '(-3)'),
 22: ("line 1, col 5: trailing input 'x'",
      "line 1, col 5: trailing input 'x'"),
 23: ("line 1, col 3: trailing input 'x'",
      "line 1, col 3: trailing input 'x'"),
 24: ("line 1, col 4: trailing input 'e2'",
      "line 1, col 4: trailing input 'e2'"),
 25: ('9*x', '(9*x)'),
 26: ("line 1, col 1: unexpected character '²'",
      "line 1, col 1: unexpected character '²'"),
 27: ("line 2, col 1: trailing input 'e3zze123'",
      "line 2, col 1: trailing input 'e3zze123'"),
 28: ("line 1, col 1: unknown name 'q'", "line 1, col 1: unknown name 'q'"),
 29: ("line 1, col 7: expected ')', got 'z'",
      "line 1, col 7: expected ')', got 'z'"),
 30: ("line 1, col 4: expected ')', got '('",
      "line 1, col 4: expected ')', got '('"),
 31: ('e3', 'e3'),
 32: ('e1', 'e1'),
 33: ("line 2, col 3: unexpected token ')' in expression",
      "line 2, col 3: unexpected token ')' in expression"),
 34: ('e12', 'e12'),
 35: ("line 1, col 1: unexpected token ';' in expression",
      "line 1, col 1: unexpected token ';' in expression"),
 36: ('line 1, col 12: only scalars can be raised to a power here',
      'e123^2 - (2*w)*e123 + (w^2)'),
 37: ("line 2, col 1: unexpected character '²'",
      "line 2, col 1: unexpected character '²'"),
 38: ("line 3, col 3: unexpected character '٣'",
      "line 3, col 3: unexpected character '٣'"),
 39: ('1', '1'),
 40: ('-e2', '-e2'),
 41: ('z', '(z)'),
 42: ("line 1, col 1: unexpected token ';' in expression",
      "line 1, col 1: unexpected token ';' in expression"),
 43: ('((-1)/(x))', '((-1)/(x))'),
 44: ('y*w', '(y*w)'),
 45: ('((x*y + y)/(x))', '((x*y + y)/(x))'),
 46: ("line 3, col 1: expected an integer, got '^'",
      "line 3, col 1: expected an integer, got '^'"),
 47: ("line 1, col 7: trailing input '^'",
      "line 1, col 7: trailing input '^'"),
 48: ("line 1, col 2: unexpected character '٣'",
      "line 1, col 2: unexpected character '٣'"),
 49: ('-e1 - e123', '-e123 - e1'),
 50: ('0', '0'),
 51: ('line 1, col 11: only scalars can be raised to a power here',
      '(w)*e123^3'),
 52: ("line 1, col 1: unexpected token ';' in expression",
      "line 1, col 1: unexpected token ';' in expression"),
 53: ("line 3, col 1: unexpected character '٣'",
      "line 3, col 1: unexpected character '٣'"),
 54: ("line 1, col 3: unexpected token '/' in expression",
      "line 1, col 3: unexpected token '/' in expression"),
 55: ('0', '0'),
 56: ('line 2, col 1: unexpected token None in expression',
      'line 2, col 1: unexpected token None in expression'),
 57: ('division is only defined by a nonzero scalar',
      'division is only defined by a nonzero scalar'),
 58: ("line 1, col 1: unexpected token ';' in expression",
      "line 1, col 1: unexpected token ';' in expression"),
 59: ('9', '(9)'),
 60: ('line 1, col 5: only scalars can be raised to a power here', 'e12^3'),
 61: ('1', '1'),
 62: ('line 2, col 2: unexpected token None in expression',
      'line 2, col 2: unexpected token None in expression'),
 63: ('e1', 'e1'),
 64: ('-x', '(-x)'),
 65: ('3', '(3)'),
 66: ('line 1, col 5: only scalars can be raised to a power here',
      'division is only defined by a nonzero scalar'),
 67: ('line 1, col 5: only scalars can be raised to a power here', '-e3^3'),
 68: ("line 1, col 3: unexpected token '^' in expression",
      "line 1, col 3: unexpected token '^' in expression"),
 69: ('line 2, col 1: unexpected token None in expression',
      'line 2, col 1: unexpected token None in expression'),
 70: ("line 1, col 1: unexpected character '٣'",
      "line 1, col 1: unexpected character '٣'"),
 71: ('(z - w)', '(z - w)'),
 72: ("line 1, col 3: unknown name 'q'", "line 1, col 3: unknown name 'q'"),
 73: ('-e1', '-e1'),
 74: ("line 1, col 2: trailing input 'w'",
      "line 1, col 2: trailing input 'w'"),
 75: ('0', '0'),
 76: ('line 1, col 18: only scalars can be raised to a power here',
      '-e1*e12 + e3*e12'),
 77: ("line 2, col 1: trailing input 'e12'",
      "line 2, col 1: trailing input 'e12'"),
 78: ("line 2, col 1: unexpected character '²'",
      "line 2, col 1: unexpected character '²'"),
 79: ('division is only defined by a nonzero scalar',
      'division is only defined by a nonzero scalar'),
 80: ('line 1, col 5: only scalars can be raised to a power here', '-e2^2'),
 81: ("line 2, col 1: unexpected token '/' in expression",
      "line 2, col 1: unexpected token '/' in expression"),
 82: ('-3', '(-3)'),
 83: ('(x + w) - e1', '-e1 + (x + w)'),
 84: ('line 1, col 3: unexpected token None in expression',
      'line 1, col 3: unexpected token None in expression'),
 85: ('-1/2*w*e3', '-(1/2*w)*e3'),
 86: ("line 1, col 1: unexpected token '/' in expression",
      "line 1, col 1: unexpected token '/' in expression"),
 87: ('3', '(3)'),
 88: ('z', '(z)'),
 89: ('1', '1'),
 90: ('0', '0'),
 91: ('0', '0'),
 92: ('-1', '-1'),
 93: ("line 1, col 1: unexpected token '^' in expression",
      "line 1, col 1: unexpected token '^' in expression"),
 94: ("line 1, col 6: trailing input 'q'",
      "line 1, col 6: trailing input 'q'"),
 95: ("line 2, col 1: trailing input 'e1'",
      "line 2, col 1: trailing input 'e1'"),
 96: ('1', '1'),
 97: ("line 1, col 2: unknown name 'q'", "line 1, col 2: unknown name 'q'"),
 98: ("line 1, col 5: trailing input '^'",
      "line 1, col 5: trailing input '^'"),
 99: ('z', '(z)'),
 100: ('division is only defined by a nonzero scalar',
       'division is only defined by a nonzero scalar'),
 101: ("line 1, col 1: unexpected token '/' in expression",
       "line 1, col 1: unexpected token '/' in expression"),
 102: ("line 1, col 3: unknown name 'q'", "line 1, col 3: unknown name 'q'"),
 103: ("line 1, col 3: unexpected character '٣'",
       "line 1, col 3: unexpected character '٣'"),
 104: ("line 1, col 1: unexpected token ';' in expression",
       "line 1, col 1: unexpected token ';' in expression"),
 105: ("line 1, col 1: unexpected token '^' in expression",
       "line 1, col 1: unexpected token '^' in expression"),
 106: ("line 1, col 5: unexpected token '*' in expression",
       "line 1, col 5: unexpected token '*' in expression"),
 107: ('-4', '(-4)'),
 108: ('line 1, col 5: only scalars can be raised to a power here', '-e3'),
 109: ('-w', '(-w)'),
 110: ("line 5, col 1: unexpected character '٣'",
       "line 5, col 1: unexpected character '٣'"),
 111: ('line 2, col 4: trailing input 2', 'line 2, col 4: trailing input 2'),
 112: ('-e12', '-e12'),
 113: ('-e12', '-e12'),
 114: ('0', '0'),
 115: ("line 1, col 1: unexpected token '->' in expression",
       "line 1, col 1: unexpected token '->' in expression"),
 116: ("line 1, col 3: trailing input '->'",
       "line 1, col 3: trailing input '->'"),
 117: ('e3', 'e3'),
 118: ("line 1, col 1: unknown name 'qw٣'",
       "line 1, col 1: unknown name 'qw٣'"),
 119: ("line 1, col 1: unexpected token ';' in expression",
       "line 1, col 1: unexpected token ';' in expression"),
 120: ("line 1, col 6: unexpected character '²'",
       "line 1, col 6: unexpected character '²'"),
 121: ("line 1, col 2: unknown name 'q'", "line 1, col 2: unknown name 'q'"),
 122: ("line 1, col 3: trailing input ';'",
       "line 1, col 3: trailing input ';'"),
 123: ('e3', 'e3'),
 124: ('e2', 'e2'),
 125: ('line 2, col 6: expected an integer, got None',
       'line 2, col 6: expected an integer, got None'),
 126: ("line 1, col 5: trailing input ')'",
       "line 1, col 5: trailing input ')'"),
 127: ('-x*w', '(-x*w)'),
 128: ("line 1, col 7: trailing input 'e1'",
       "line 1, col 7: trailing input 'e1'"),
 129: ('line 1, col 4: trailing input 2', 'line 1, col 4: trailing input 2'),
 130: ("line 2, col 3: unexpected character '²'",
       "line 2, col 3: unexpected character '²'"),
 131: ('division is only defined by a nonzero scalar',
       'division is only defined by a nonzero scalar'),
 132: ('(-w^3 + 1)', '(-w^3 + 1)'),
 133: ('line 1, col 7: only scalars can be raised to a power here', '-1'),
 134: ('e123', 'e123'),
 135: ("line 1, col 4: unexpected character '٣'",
       "line 1, col 4: unexpected character '٣'"),
 136: ('3', '(3)'),
 137: ('0', '0'),
 138: ('3', '(3)'),
 139: ('e1', 'e1'),
 140: ("line 1, col 3: trailing input 'e123'",
       "line 1, col 3: trailing input 'e123'"),
 141: ("line 1, col 1: unexpected token '^' in expression",
       "line 1, col 1: unexpected token '^' in expression"),
 142: ('line 1, col 7: trailing input 1', 'line 1, col 7: trailing input 1'),
 143: ('x', '(x)'),
 144: ('-e3', '-e3'),
 145: ("line 4, col 3: unexpected character '²'",
       "line 4, col 3: unexpected character '²'"),
 146: ('division is only defined by a nonzero scalar',
       'division is only defined by a nonzero scalar'),
 147: ('line 2, col 1: unexpected token None in expression',
       'line 2, col 1: unexpected token None in expression'),
 148: ('line 1, col 5: only scalars can be raised to a power here',
       'e2^2*e12'),
 149: ('z', '(z)'),
 150: ("line 1, col 4: trailing input 'e12'",
       "line 1, col 4: trailing input 'e12'"),
 151: ("line 1, col 3: trailing input 'q'",
       "line 1, col 3: trailing input 'q'"),
 152: ("line 1, col 1: unexpected token ')' in expression",
       "line 1, col 1: unexpected token ')' in expression"),
 153: ("line 2, col 1: trailing input 'e123'",
       "line 2, col 1: trailing input 'e123'"),
 154: ('line 1, col 13: only scalars can be raised to a power here',
       '(4)*e12^2'),
 155: ("line 1, col 1: unexpected character '²'",
       "line 1, col 1: unexpected character '²'"),
 156: ('line 1, col 15: only scalars can be raised to a power here',
       '-e3^2 + (w - 3)'),
 157: ("line 1, col 5: trailing input 'x1'",
       "line 1, col 5: trailing input 'x1'"),
 158: ('line 2, col 1: trailing input 3', 'line 2, col 1: trailing input 3'),
 159: ("line 1, col 3: unknown name 'q'", "line 1, col 3: unknown name 'q'"),
 160: ('(-x^2 + 1)', '(-x^2 + 1)'),
 161: ("line 1, col 5: trailing input ')'",
       "line 1, col 5: trailing input ')'"),
 162: ('line 1, col 6: only scalars can be raised to a power here',
       '((2)/(y))*e12^2'),
 163: ("line 1, col 1: unexpected token '^' in expression",
       "line 1, col 1: unexpected token '^' in expression"),
 164: ('line 1, col 5: only scalars can be raised to a power here', '-1'),
 165: ('w', '(w)'),
 166: ('1', '1'),
 167: ('e3', 'e3'),
 168: ("line 2, col 1: trailing input 'e2'",
       "line 2, col 1: trailing input 'e2'"),
 169: ('2', '(2)'),
 170: ("line 1, col 3: trailing input 'z'",
       "line 1, col 3: trailing input 'z'"),
 171: ("line 1, col 7: unexpected character '²'",
       "line 1, col 7: unexpected character '²'"),
 172: ('3', '(3)'),
 173: ('e2', 'e2'),
 174: ("line 2, col 1: trailing input 'ze12'",
       "line 2, col 1: trailing input 'ze12'"),
 175: ("line 1, col 1: unknown name 'q'", "line 1, col 1: unknown name 'q'"),
 176: ('0', '0'),
 177: ("line 4, col 1: unexpected character '٣'",
       "line 4, col 1: unexpected character '٣'"),
 178: ("line 1, col 1: unexpected token ')' in expression",
       "line 1, col 1: unexpected token ')' in expression"),
 179: ("line 1, col 4: trailing input 'y'",
       "line 1, col 4: trailing input 'y'")}
