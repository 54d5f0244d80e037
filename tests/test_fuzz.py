"""Random input never crashes the parser or the CLI.

Random token strings either evaluate or raise `DocumentError`, and what
evaluates prints back to text that parses to the same text.  Randomly
mutated documents make `run_command` exit 0, 1 or 2, never raise: a crash
must not pass for the answer "no" (exit 1)."""

import re

from hypothesis import given, settings, strategies as st

from mdgkit import fixture_path
from mdgkit.cli import run_command
from mdgkit.parser import (DocumentError, parse_document, parse_element,
                           parse_gcpoly)
from mdgkit.groebner import context_for

DOC = parse_document("""
ring x, y;
complex K {
  basis 1: e1 mdeg(2, 0), e2 mdeg(1, 1);
  basis 2: e12;
  d e1 = x^2;
  d e2 = x*y;
  d e12 = -y*e1 + x*e2;
}
""")
CX = DOC.sole_complex()
CTX = context_for(CX)

# names of the ring, of the basis, one unknown name, and two digits that
# are not ASCII (str.isdigit takes them, the tokenizer must not)
TOKENS = ["x", "y", "e1", "e2", "e12", "z", "+", "-", "*", "/", "^", "(",
          ")", "²", "٣"]
token_strings = st.lists(
    st.one_of(st.sampled_from(TOKENS), st.integers(0, 4).map(str)),
    min_size=1, max_size=12).map(" ".join)
# well-formed expressions too, so that division and powers of Laurent
# scalars are reached, not only syntax errors
expressions = st.recursive(
    st.one_of(st.sampled_from(TOKENS[:6]), st.integers(0, 3).map(str)),
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(sub, st.integers(0, 3)).map(lambda t: f"{t[0]}^{t[1]}")),
    max_leaves=6)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.one_of(token_strings, expressions))
def test_random_expressions_parse_or_raise_a_document_error(text):
    for parse, where in ((parse_element, CX), (parse_gcpoly, CTX)):
        try:
            value = parse(text, where)
        except DocumentError:
            continue
        printed = str(value)
        assert str(parse(printed, where)) == printed


FIXTURES = {name: fixture_path(name).read_text() for name in ("fa", "ex6")}
# a mutation deletes a token or replaces it by one of the same kind, so
# most mutants still tokenize and many still parse
REPLACEMENTS = {"int": ["", "0", "1", "2", "3", "²", "٣"],
                "name": ["", "x", "w", "e1", "e2", "e12", "e123", "mult"],
                "sym": ["", "*", "+", "-", "/", "^", "(", ")", ";", ",", "="]}


@st.composite
def mutated_documents(draw):
    """fa or ex6 with one to three tokens deleted or replaced."""
    text = FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))]
    for _ in range(draw(st.integers(1, 3))):
        spans = [m.span() for m in re.finditer(r"\w+|\S", text)]
        a, b = draw(st.sampled_from(spans))
        kind = ("int" if text[a].isdigit() else
                "name" if text[a].isalpha() or text[a] == "_" else "sym")
        text = text[:a] + draw(st.sampled_from(REPLACEMENTS[kind])) + text[b:]
    return text


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mutated_documents())
def test_mutated_documents_exit_0_1_or_2(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "doc.mdg"
    path.write_text(text)
    for argv in (["check", str(path)], ["homology", str(path)],
                 ["assoc", str(path), "--triple", "e1,e2,e3"]):
        assert run_command(argv) in (0, 1, 2)
